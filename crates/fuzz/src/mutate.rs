//! The one seeded mutator of the two codec fronts.
//!
//! Snapshots and the journal share one record framing
//! ([`fastsim_hash::frame`]), so one set of corruptions attacks both:
//! byte-level damage first (bit flips, truncations and trailing garbage
//! cover the checksum and framing guards), then the targeted patches a
//! half-written or hostile file gets wrong — the header's magic and
//! version, and a record's length, kind byte and checksum. The fronts keep
//! only their own contracts for what a decoder must do with the result.

use fastsim_hash::frame::{Format, TailPolicy};
use fastsim_prng::Rng;

/// Applies one seeded mutation to `bytes`, a valid image of `format`.
/// Returns the mutated bytes and what was done, or `None` when the rolled
/// patch reproduces the input (nothing changed, nothing to check).
pub fn mutate(bytes: &[u8], format: &Format, rng: &mut Rng) -> Option<(Vec<u8>, &'static str)> {
    let records =
        format.read(bytes, TailPolicy::Strict).expect("the fuzzer mutates valid images").records;
    let mut out = bytes.to_vec();
    // The record patches need a record to aim at.
    let kinds = if records.is_empty() { 5 } else { 8 };
    let what = match rng.range_u64(0..kinds) {
        0 => {
            let i = rng.range_usize(0..out.len());
            out[i] ^= 1 << rng.range_u32(0..8);
            "bit flip"
        }
        1 => {
            out.truncate(rng.range_usize(0..out.len()));
            "truncation"
        }
        2 => {
            for _ in 0..rng.range_usize(1..9) {
                out.push(rng.next_u8());
            }
            "trailing garbage"
        }
        3 => {
            let i = rng.range_usize(0..8);
            out[i] = rng.next_u8();
            "magic patch"
        }
        4 => {
            let version = rng.range_u32(0..1000);
            out[8..12].copy_from_slice(&version.to_le_bytes());
            "version patch"
        }
        kind => {
            let record = rng.pick(&records);
            match kind {
                5 => {
                    let lie = match rng.range_u64(0..3) {
                        0 => 0,
                        1 => rng.range_u32(0..1 << 20),
                        _ => u32::MAX,
                    };
                    let at = record.offset + 1;
                    out[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                    "length lie"
                }
                6 => {
                    out[record.offset] = rng.next_u8();
                    "kind patch"
                }
                _ => {
                    let checksum = record.offset + 5 + record.payload.len();
                    out[checksum + rng.range_usize(0..8)] ^= 1 << rng.range_u32(0..8);
                    "checksum patch"
                }
            }
        }
    };
    (out != bytes).then_some((out, what))
}

/// What a sweep of `corruptions` mutations breached of the contract both
/// fronts hold, one description per breach: every corruption is accounted
/// for, either skipped as identical or `settled` (rejected, or an outcome
/// the front allows), and at least one was `rejected` — a sweep that
/// rejected nothing tested nothing, as when the mutator stops changing
/// bytes.
pub(crate) fn sweep_breaches(
    corruptions: u64,
    skipped: u64,
    settled: u64,
    rejected: u64,
) -> Vec<String> {
    let mut breaches = Vec::new();
    if skipped + settled != corruptions {
        breaches.push(format!(
            "{corruptions} corruptions but {skipped} skipped and {settled} settled"
        ));
    }
    if corruptions > 0 && rejected == 0 {
        breaches.push(format!("none of {corruptions} corruptions was rejected"));
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_mutation_fires_and_changes_the_bytes() {
        let format = Format {
            magic: *b"FSIMTEST",
            version: 1,
            max_payload: 64,
            checksum: fastsim_hash::fnv1a,
        };
        let mut bytes = format.header().to_vec();
        for payload in [&b"one"[..], b"", b"three"] {
            format.put_record(&mut bytes, 1, payload).expect("small");
        }
        let mut rng = Rng::new(0x6d75);
        let mut seen = BTreeSet::new();
        for _ in 0..400 {
            if let Some((mutated, what)) = mutate(&bytes, &format, &mut rng) {
                assert_ne!(mutated, bytes);
                // Only a cut at a record boundary leaves valid framing.
                if what != "truncation" {
                    let read = format.read(&mutated, TailPolicy::Strict);
                    assert!(read.is_err(), "{what} was accepted");
                }
                seen.insert(what);
            }
        }
        assert_eq!(seen.len(), 8, "mutations seen: {seen:?}");

        // A header-only image has no record to aim at: the record patches
        // are never rolled, rather than panicking on an empty pick.
        let header = format.header();
        for _ in 0..50 {
            mutate(&header, &format, &mut rng);
        }
    }

    #[test]
    fn a_sweep_that_rejects_nothing_or_loses_a_case_is_a_breach() {
        assert!(sweep_breaches(10, 2, 8, 5).is_empty());
        assert!(sweep_breaches(0, 0, 0, 0).is_empty());
        // The mutator changed nothing: every corruption skipped.
        assert_eq!(sweep_breaches(10, 10, 0, 0).len(), 1);
        // Every change was settled, but none by a rejection.
        assert_eq!(sweep_breaches(10, 2, 8, 0).len(), 1);
        // A corruption neither skipped nor settled.
        assert_eq!(sweep_breaches(10, 2, 7, 7).len(), 1);
    }
}
