//! Harness self-test: a deliberately injected stats bug must be caught by
//! the differential oracle and shrunk to a tiny reproducer.
//!
//! `FaultInjection::OvercountStoreCycles` simulates a plausible replay
//! accounting bug (fast-path cycles over-counted whenever the kernel
//! retires a store). The fuzz loop must find it, and the shrinker must
//! reduce the reproducer to at most 20 static body instructions — the
//! acceptance bar for "failures come back actionable".

use fastsim_fuzz::{check, run_fuzz, FaultInjection, OracleConfig};

/// The injected-bug oracle: single preset and policy (the bug is not
/// matrix-dependent), no lifecycle, fault injection on.
fn faulty_cfg() -> OracleConfig {
    let mut cfg = OracleConfig::quick();
    cfg.fault = FaultInjection::OvercountStoreCycles;
    cfg
}

#[test]
fn injected_store_bug_is_caught_and_shrunk_small() {
    let report = run_fuzz(0x0b5e55ed, 64, &faulty_cfg());
    assert_eq!(report.kernels, 64);
    assert!(
        !report.failures.is_empty(),
        "64 random kernels must include at least one that retires a store"
    );

    let honest = OracleConfig::quick();
    for failure in &report.failures {
        let shrunk = &failure.shrunk;
        // Small enough to read at a glance.
        assert!(
            shrunk.body_insts() <= 20,
            "seed {:#x}: reproducer still has {} body instructions:\n{}",
            failure.seed,
            shrunk.body_insts(),
            shrunk.to_text()
        );
        // Still fails under the buggy oracle (it is a real reproducer)…
        assert!(
            check(shrunk, &faulty_cfg()).is_err(),
            "seed {:#x}: shrunk reproducer no longer triggers the bug",
            failure.seed
        );
        // …and passes an honest comparison (the bug is in the injected
        // fault, not the kernel).
        assert!(
            check(shrunk, &honest).is_ok(),
            "seed {:#x}: shrunk reproducer fails even without the injected bug",
            failure.seed
        );
        // The reproducer survives a corpus-format round trip.
        let text = shrunk.to_text();
        let reparsed = fastsim_fuzz::KernelSpec::from_text(&text).expect("reproducer parses");
        assert_eq!(&reparsed, shrunk, "text round trip changed the reproducer");
        // The reported failure names the divergence the oracle saw.
        assert!(
            failure.failure.detail.contains("cycles"),
            "seed {:#x}: unexpected failure detail: {}",
            failure.seed,
            failure.failure
        );
    }
}

#[test]
fn honest_oracle_passes_where_the_faulty_one_fails() {
    // Sanity check of the fault-injection mechanism itself: same kernels,
    // honest comparison, zero failures.
    let report = run_fuzz(0x0b5e55ed, 64, &OracleConfig::quick());
    assert_eq!(report.kernels, 64);
    assert!(
        report.failures.is_empty(),
        "honest oracle flagged a real divergence: {}",
        report.failures[0].failure
    );
}
