//! # fastsim-fuzz
//!
//! Deterministic chaos and fuzz harness for FastSim-RS.
//!
//! Four fronts, all fully offline and seeded by the vendored
//! [`fastsim_prng`] (no crates.io dependencies, no wall-clock or OS
//! randomness in any decision):
//!
//! 1. **Differential kernel fuzzing** — [`kernel`] generates random
//!    synthetic kernels (instruction mixes, branch topologies, memory
//!    strides, loop nests); [`oracle`] runs each through the detailed
//!    baseline and the memoized fast path across hierarchy presets, GC
//!    policies and freeze/thaw/merge cycles, demanding bit-identical
//!    statistics; [`shrink()`] minimizes failures;
//!    [`corpus`] persists replayable seed files into `fuzz/corpus/`.
//! 2. **Serve-path chaos** — [`chaos`] drives a seeded fault storm
//!    (malformed and partial frames, deadline storms, per-job panics)
//!    against a `fastsim-serve` server whose fault seam it fills with
//!    seeded server-side faults ([`chaos::SeededFaults`]: response drops,
//!    truncations, worker panics), then verifies the settled-state
//!    invariants and the no-cache-poisoning guarantee.
//! 3. **Snapshot-codec corruption fuzzing** — [`snapshot`] freezes real
//!    warm caches into `fastsim-snapshot/v3` bytes, demands canonical
//!    round-trips and bit-identical replay from decoded snapshots, then
//!    applies seeded corruption that the strict decoder must reject with
//!    a typed error — never a panic, never a mis-decode.
//! 4. **Journal-codec corruption fuzzing** — [`journal`] encodes seeded
//!    `fastsim-journal/v1` record streams (hostile strings included),
//!    then applies seeded corruption; every effective mutation must be
//!    rejected with a typed error or decode to an exact prefix of the
//!    originals — never replayed as a wrong job, never a panic.
//!
//! Both formats share one record framing, so fronts 3 and 4 share one
//! mutator, [`mutate`]: bit flips, truncations, trailing garbage, length
//! lies, and magic, version, kind and checksum patches. Each front keeps
//! only its own contract, and a sweep that rejects nothing fails.
//!
//! The `fuzz_smoke` and `chaos_smoke` binaries wrap these fronts for
//! `scripts/ci.sh`, writing schema-tagged JSON summaries.

#![deny(missing_docs)]

pub mod chaos;
pub mod corpus;
pub mod journal;
pub mod kernel;
pub mod mutate;
pub mod oracle;
pub mod shrink;
pub mod snapshot;

pub use journal::{run_journal_fuzz, JournalFuzzReport};
pub use kernel::{KernelOp, KernelSpec};
pub use oracle::{check, CheckSummary, Failure, FaultInjection, FreezeThaw, OracleConfig};
pub use shrink::{shrink, ShrinkOutcome};
pub use snapshot::{run_snapshot_fuzz, SnapshotFuzzReport};

use fastsim_prng::for_each_case;

/// One shrunk, replayable failure from a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The per-case seed of the failing kernel.
    pub seed: u64,
    /// The minimized reproducer.
    pub shrunk: KernelSpec,
    /// The divergence the *shrunk* kernel still exhibits.
    pub failure: Failure,
    /// Oracle invocations the shrinker spent.
    pub oracle_calls: u64,
}

/// Aggregate result of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Kernels generated and checked.
    pub kernels: u64,
    /// Total simulator runs across all kernels and variants.
    pub runs: u64,
    /// Total instructions retired by the reference runs.
    pub retired_insts: u64,
    /// Shrunk failures (empty on a passing run).
    pub failures: Vec<FuzzFailure>,
}

/// Budget of oracle invocations the shrinker may spend per failure.
pub const SHRINK_BUDGET: u64 = 2_000;

/// Generates `kernels` kernels from `seed` and checks each against the
/// oracle matrix in `cfg`. Failures are shrunk with [`shrink()`] under a
/// cheap single-variant oracle carrying the same [`FaultInjection`], so
/// the reproducer in the report is minimal.
pub fn run_fuzz(seed: u64, kernels: u32, cfg: &OracleConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for_each_case(seed, kernels, |case_seed, rng| {
        let spec = KernelSpec::generate(case_seed, rng);
        report.kernels += 1;
        match check(&spec, cfg) {
            Ok(summary) => {
                report.runs += summary.runs;
                report.retired_insts += summary.retired_insts;
            }
            Err(_) => {
                let mut shrink_cfg = OracleConfig::quick();
                shrink_cfg.fault = cfg.fault;
                // Shrink under the cheap single-variant oracle when it
                // reproduces the failure; otherwise (the divergence needs
                // a wider matrix) shrink under the full config with a
                // tighter budget.
                let outcome = if check(&spec, &shrink_cfg).is_err() {
                    shrink(&spec, |s| check(s, &shrink_cfg).is_err(), SHRINK_BUDGET)
                } else {
                    shrink(&spec, |s| check(s, cfg).is_err(), SHRINK_BUDGET / 4)
                };
                // Re-derive the divergence on the minimal spec (fall back
                // to the full matrix if the quick oracle misses it).
                let failure = check(&outcome.spec, &shrink_cfg)
                    .err()
                    .or_else(|| check(&outcome.spec, cfg).err())
                    .unwrap_or(Failure {
                        preset: "-".to_string(),
                        variant: "shrink".to_string(),
                        detail: "shrunk spec no longer fails (flaky oracle?)".to_string(),
                    });
                report.failures.push(FuzzFailure {
                    seed: case_seed,
                    shrunk: outcome.spec,
                    failure,
                    oracle_calls: outcome.oracle_calls,
                });
            }
        }
    });
    report
}
