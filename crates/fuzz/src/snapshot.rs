//! Snapshot-codec corruption fuzzing.
//!
//! The durable snapshot store ships `fastsim-snapshot/v3` bytes across
//! process lifetimes and machines, so the decoder is a trust boundary:
//! it must **reject, never guess** — and never panic — on arbitrary
//! corruption. This module generates real warm-cache snapshots from
//! seeded kernels and checks both sides of that contract:
//!
//! * **Valid bytes round-trip**: every encoding decodes, re-encodes
//!   bit-identically (the format is canonical), and a job run from the
//!   decoded snapshot reproduces the original snapshot's run exactly —
//!   statistics, cache traffic, memoization counters.
//! * **Corrupt bytes are rejected**: every effective mutation from the
//!   shared mutator ([`crate::mutate`]) must come back as a typed
//!   [`SnapshotDecodeError`], with no panic (checked under
//!   `catch_unwind`) and no mis-decode.

use crate::kernel::KernelSpec;
use crate::mutate::{mutate, sweep_breaches};
use fastsim_core::{
    run_single, BatchJob, HierarchyConfig, Mode, Policy, Simulator, SnapshotDecodeError,
    UArchConfig, WarmCacheSnapshot,
};
use fastsim_memo::SNAPSHOT_FORMAT;
use fastsim_prng::{for_each_case, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Aggregate result of a snapshot-corruption fuzz run.
#[derive(Clone, Debug, Default)]
pub struct SnapshotFuzzReport {
    /// Kernels whose snapshots were fuzzed.
    pub cases: u64,
    /// Valid encodings produced and round-tripped.
    pub encodings: u64,
    /// Total encoded bytes across all valid encodings.
    pub encoded_bytes: u64,
    /// Seeded corruptions applied.
    pub corruptions: u64,
    /// Corruptions rejected with a typed error (must equal the
    /// corruptions that actually changed the bytes).
    pub rejected: u64,
    /// Mutations skipped because the rolled patch reproduced the
    /// original bytes (nothing to reject).
    pub skipped_identical: u64,
    /// Contract violations, each described; empty on a passing run.
    pub failures: Vec<String>,
}

impl SnapshotFuzzReport {
    /// Whether every checked contract held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Fuzzes the snapshot codec: `cases` seeded kernels, each frozen to a
/// real snapshot, round-tripped, replayed, and then attacked with
/// `corruptions_per_case` seeded mutations that must all be rejected.
pub fn run_snapshot_fuzz(seed: u64, cases: u32, corruptions_per_case: u32) -> SnapshotFuzzReport {
    let mut report = SnapshotFuzzReport::default();
    for_each_case(seed, cases, |case_seed, rng| {
        report.cases += 1;
        if let Err(why) = fuzz_one_case(case_seed, rng, corruptions_per_case, &mut report) {
            report.failures.push(why);
        }
    });
    let (corruptions, rejected) = (report.corruptions, report.rejected);
    let breaches = sweep_breaches(corruptions, report.skipped_identical, rejected, rejected);
    report.failures.extend(breaches);
    report
}

/// Builds one warm snapshot, checks the valid-bytes contracts, then
/// applies the corruption sweep. Returns `Err` with a description on the
/// first contract violation in the valid path (corruption violations are
/// pushed into the report individually).
fn fuzz_one_case(
    case_seed: u64,
    rng: &mut Rng,
    corruptions: u32,
    report: &mut SnapshotFuzzReport,
) -> Result<(), String> {
    let spec = KernelSpec::generate(case_seed, rng);
    let program = spec.build();
    let presets = HierarchyConfig::preset_names();
    let preset = *rng.pick(presets);
    let hier = HierarchyConfig::preset(preset).expect("preset names are valid");
    let limit = 4 << 10;
    let policy = *rng.pick(&[
        Policy::Unbounded,
        Policy::FlushOnFull { limit },
        Policy::CopyingGc { limit },
        Policy::GenerationalGc { limit },
    ]);

    let mut sim =
        Simulator::with_configs(&program, Mode::Fast { policy }, UArchConfig::table1(), hier.clone())
            .map_err(|e| format!("seed {case_seed:#x}: build error: {e:?}"))?;
    sim.run_to_completion()
        .map_err(|e| format!("seed {case_seed:#x}: sim error: {e:?}"))?;
    let warm = sim.take_warm_cache().ok_or_else(|| {
        format!("seed {case_seed:#x}: fast-mode run produced no warm cache")
    })?;
    let snapshot = warm.freeze();
    let bytes = snapshot.encode();
    report.encodings += 1;
    report.encoded_bytes += bytes.len() as u64;

    // Contract 1: valid bytes decode, and the format is canonical.
    let decoded = WarmCacheSnapshot::decode(&bytes, Some(snapshot.fingerprint()))
        .map_err(|e| format!("seed {case_seed:#x}: own encoding rejected: {e}"))?;
    if decoded.encode() != bytes {
        return Err(format!("seed {case_seed:#x}: decode→encode is not bit-identical"));
    }

    // Contract 2: a job run from the decoded snapshot is bit-identical
    // to the same job run from the original snapshot.
    let mut job = BatchJob::new("snapshot-fuzz", program);
    job.hierarchy = hier;
    job.policy = policy;
    let original = run_single(&job, &snapshot, None)
        .map_err(|e| format!("seed {case_seed:#x}: warm run failed: {e}"))?;
    let replayed = run_single(&job, &decoded, None)
        .map_err(|e| format!("seed {case_seed:#x}: run from decoded snapshot failed: {e}"))?;
    let a = &original.report;
    let b = &replayed.report;
    if a.stats != b.stats
        || a.cache_stats != b.cache_stats
        || a.level_stats != b.level_stats
        || a.memo_hits != b.memo_hits
        || a.memo_misses != b.memo_misses
    {
        return Err(format!(
            "seed {case_seed:#x}: decoded snapshot replays differently \
             (hits {} vs {}, cycles {} vs {})",
            a.memo_hits, b.memo_hits, a.stats.cycles, b.stats.cycles
        ));
    }

    // Contract 3: every effective corruption is rejected, without panic.
    for c in 0..corruptions {
        report.corruptions += 1;
        let Some((mutated, what)) = mutate(&bytes, &SNAPSHOT_FORMAT, rng) else {
            report.skipped_identical += 1;
            continue;
        };
        match decode_no_panic(&mutated, snapshot.fingerprint()) {
            None => report.failures.push(format!(
                "seed {case_seed:#x} corruption {c} ({what}): decoder PANICKED"
            )),
            Some(Ok(_)) => report.failures.push(format!(
                "seed {case_seed:#x} corruption {c} ({what}): corrupt bytes ACCEPTED"
            )),
            Some(Err(_)) => report.rejected += 1,
        }
    }
    Ok(())
}

/// Decodes the way the snapshot store does — with the expected
/// fingerprint pinned, so a patched fingerprint field cannot smuggle a
/// snapshot into the wrong group — under `catch_unwind`; `None` means
/// the decoder panicked, always a contract violation whatever the bytes.
fn decode_no_panic(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> Option<Result<WarmCacheSnapshot, SnapshotDecodeError>> {
    catch_unwind(AssertUnwindSafe(|| {
        WarmCacheSnapshot::decode(bytes, Some(expected_fingerprint))
    }))
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_fuzz_passes_and_rejects_everything_effective() {
        let report = run_snapshot_fuzz(0x5eed_f00d, 4, 24);
        assert!(report.passed(), "violations: {:?}", report.failures);
        assert_eq!(report.cases, 4);
        assert_eq!(report.encodings, 4);
        assert_eq!(report.corruptions, 96);
    }
}
