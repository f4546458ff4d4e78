//! Randomized equivalence testing on generated programs, driven by the
//! `fastsim-fuzz` kernel generator and its differential oracle so the
//! suite runs fully offline with no crates.io dependencies.
//!
//! Random (but structurally terminating) kernels exercise arbitrary
//! interleavings of ALU work, long-latency divides, FP arithmetic, memory
//! strides, data-dependent forward branches, calls/returns and loop
//! nests. For every generated kernel, [`fastsim_fuzz::check`] requires
//! across **all three hierarchy presets** (`table1`, `three-level`,
//! `tiny-l1`):
//!
//! * FastSim (memoized) and SlowSim (memoization off) report *identical*
//!   cycle counts, retirement counts, cache and per-level statistics —
//!   under every GC policy;
//! * two identical fast runs are bit-identical (`SimStats` and
//!   `MemoStats`) — run-to-run determinism;
//! * the freeze/thaw/merge batch lifecycle reproduces the same stats;
//! * program output matches the plain functional emulator.
//!
//! Every case prints its seed on failure; the same seed replays it, and
//! `fuzz_smoke` can shrink it to a minimal reproducer.

use fastsim_fuzz::{check, KernelSpec, OracleConfig};
use fastsim_prng::for_each_case;

#[test]
fn random_fastsim_is_exact_across_presets() {
    let cfg = OracleConfig::thorough();
    let mut runs = 0u64;
    for_each_case(0xfa575104, 24, |seed, rng| {
        let spec = KernelSpec::generate(seed, rng);
        match check(&spec, &cfg) {
            Ok(summary) => runs += summary.runs,
            Err(failure) => panic!(
                "seed {seed:#x}: {failure}\nreplayable kernel:\n{}",
                spec.to_text()
            ),
        }
    });
    // 24 kernels × ((1 slow + 4 fast + 2 determinism reruns) × 3 presets
    // + 3 batch-lifecycle jobs on the first preset) — the sweep really
    // covered the whole matrix.
    assert_eq!(runs, 24 * (7 * 3 + 3), "expected a full matrix sweep");
}
