//! Journal-codec corruption fuzzing.
//!
//! The `fastsim-journal/v1` write-ahead log is what a killed server's
//! queue survives in, so its decoder is a trust boundary with a contract
//! one notch stricter than the snapshot codec's: on arbitrary corruption
//! it must **reject with a typed error or return an exact prefix of the
//! original records** — a torn tail may drop the final unacknowledged
//! record, but no mutation may ever decode into a *different* record
//! (which a recovering server would replay as the wrong job). And it must
//! never panic.
//!
//! This module builds valid segments from seeded record streams (hostile
//! strings included: control characters, quotes, multi-byte UTF-8), then
//! applies the shared mutator ([`crate::mutate`]) and holds every outcome
//! against that prefix-or-reject oracle under `catch_unwind`, for both
//! [`TailPolicy`] modes.

use crate::mutate::{mutate, sweep_breaches};
use fastsim_hash::frame::TailPolicy;
use fastsim_prng::{for_each_case, Rng};
use fastsim_serve::journal::{decode_segment, encode_record, JournalRecord, SubmitRecord, JOURNAL};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Aggregate result of a journal-corruption fuzz run.
#[derive(Clone, Debug, Default)]
pub struct JournalFuzzReport {
    /// Seeded record streams encoded and attacked.
    pub cases: u64,
    /// Records across all valid segments.
    pub records: u64,
    /// Total encoded segment bytes.
    pub encoded_bytes: u64,
    /// Seeded corruptions applied.
    pub corruptions: u64,
    /// Corruptions the strict decoder rejected with a typed error.
    pub rejected: u64,
    /// Corruptions the strict decoder survived by decoding an exact
    /// prefix of the original records (boundary truncations).
    pub accepted_prefix: u64,
    /// Mutations skipped because the rolled patch reproduced the
    /// original bytes (nothing to check).
    pub skipped_identical: u64,
    /// Contract violations, each described; empty on a passing run.
    pub failures: Vec<String>,
}

impl JournalFuzzReport {
    /// Whether every checked contract held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Fuzzes the journal codec: `cases` seeded record streams, each encoded
/// into a valid segment, round-tripped, and then attacked with
/// `corruptions_per_case` seeded mutations held to the prefix-or-reject
/// oracle.
pub fn run_journal_fuzz(seed: u64, cases: u32, corruptions_per_case: u32) -> JournalFuzzReport {
    let mut report = JournalFuzzReport::default();
    for_each_case(seed, cases, |case_seed, rng| {
        report.cases += 1;
        if let Err(why) = fuzz_one_case(case_seed, rng, corruptions_per_case, &mut report) {
            report.failures.push(why);
        }
    });
    let settled = report.rejected + report.accepted_prefix;
    let breaches =
        sweep_breaches(report.corruptions, report.skipped_identical, settled, report.rejected);
    report.failures.extend(breaches);
    report
}

/// Builds one valid segment, checks the clean-decode contracts, then
/// applies the corruption sweep.
fn fuzz_one_case(
    case_seed: u64,
    rng: &mut Rng,
    corruptions: u32,
    report: &mut JournalFuzzReport,
) -> Result<(), String> {
    let records = generate_records(rng);
    let mut bytes = JOURNAL.header().to_vec();
    for rec in &records {
        bytes.extend_from_slice(&encode_record(rec));
    }
    report.records += records.len() as u64;
    report.encoded_bytes += bytes.len() as u64;

    // Contract 1: a cleanly written segment decodes in full, identically,
    // under both tail policies (a clean file has no tail to drop).
    for policy in [TailPolicy::Strict, TailPolicy::DropTorn] {
        let decoded = decode_segment(&bytes, policy)
            .map_err(|e| format!("seed {case_seed:#x}: own encoding rejected ({policy:?}): {e}"))?;
        if decoded.records != records {
            return Err(format!(
                "seed {case_seed:#x}: clean decode differs ({policy:?}): \
                 {} records in, {} out",
                records.len(),
                decoded.records.len()
            ));
        }
        if decoded.torn_tail {
            return Err(format!(
                "seed {case_seed:#x}: clean segment reported a torn tail ({policy:?})"
            ));
        }
    }

    // Contract 2: every mutation is rejected or decodes to an exact
    // prefix — under both policies, without panicking.
    for c in 0..corruptions {
        report.corruptions += 1;
        let Some((mutated, what)) = mutate(&bytes, &JOURNAL, rng) else {
            report.skipped_identical += 1;
            continue;
        };
        let mut strict_ok = false;
        for policy in [TailPolicy::Strict, TailPolicy::DropTorn] {
            let outcome = catch_unwind(AssertUnwindSafe(|| decode_segment(&mutated, policy))).ok();
            match outcome {
                None => report.failures.push(format!(
                    "seed {case_seed:#x} corruption {c} ({what}, {policy:?}): decoder PANICKED"
                )),
                Some(Ok(decoded)) => {
                    if decoded.records.len() > records.len()
                        || decoded.records != records[..decoded.records.len()]
                    {
                        report.failures.push(format!(
                            "seed {case_seed:#x} corruption {c} ({what}, {policy:?}): \
                             decoded records are NOT a prefix of the originals — \
                             a recovering server would replay a wrong job"
                        ));
                    } else if policy == TailPolicy::Strict {
                        strict_ok = true;
                    }
                }
                Some(Err(_)) => {
                    if policy == TailPolicy::Strict {
                        report.rejected += 1;
                    }
                }
            }
        }
        if strict_ok {
            report.accepted_prefix += 1;
        }
    }
    Ok(())
}

/// A seeded record stream: submits with hostile strings, then a shuffle
/// of start/complete/abandon settles over the submitted ids.
fn generate_records(rng: &mut Rng) -> Vec<JournalRecord> {
    let submits = rng.range_usize(1..9);
    let mut records = Vec::new();
    let mut ids = Vec::new();
    for i in 0..submits {
        let id = (i as u64 + 1) * rng.range_u64(1..4);
        ids.push(id);
        records.push(JournalRecord::Submit(SubmitRecord {
            id,
            name: hostile_string(rng),
            kernel: hostile_string(rng),
            insts: rng.next_u64(),
            client: hostile_string(rng),
            band: rng.range_u32(0..4),
            hierarchy: rng.next_bool().then(|| hostile_string(rng)),
            timeout_ms: rng.next_bool().then(|| rng.next_u64()),
            chaos_panics: rng.range_u32(0..3),
        }));
    }
    for _ in 0..rng.range_usize(0..2 * submits) {
        let id = *rng.pick(&ids);
        records.push(match rng.range_u64(0..3) {
            0 => JournalRecord::Start { id },
            1 => JournalRecord::Complete { id },
            _ => JournalRecord::Abandon { id, reason: hostile_string(rng) },
        });
    }
    records
}

/// A short string salted with the characters most likely to break naive
/// framing: quotes, backslashes, newlines, NUL, multi-byte UTF-8.
fn hostile_string(rng: &mut Rng) -> String {
    const ALPHABET: [&str; 12] =
        ["a", "Z", "0", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1b}", "é", "😀"];
    (0..rng.range_usize(0..12)).map(|_| *rng.pick(&ALPHABET)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_fuzz_passes_and_every_effective_mutation_is_safe() {
        let report = run_journal_fuzz(0x5eed_a901, 24, 32);
        assert!(report.passed(), "violations: {:?}", report.failures);
        assert_eq!(report.cases, 24);
        assert_eq!(report.corruptions, 24 * 32);
        assert!(report.records > 0);
    }
}
