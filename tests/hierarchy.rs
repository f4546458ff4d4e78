//! End-to-end equivalence at every memory-hierarchy depth: the paper's
//! central claim — memoized fast-forwarding (FastSim) produces results
//! bit-identical to detailed simulation (SlowSim) — must hold whether the
//! timing model is a single cache level, the paper's two levels, or a
//! deeper three-level hierarchy. The memoization layers only ever see the
//! poll/interval interface (§4.1), so depth must be invisible to them.

use fastsim::core::{HierarchyConfig, Mode, Simulator, UArchConfig};
use fastsim::workloads::by_name;

/// Fast vs. slow, same hierarchy: identical cycles, outputs, aggregate
/// and per-level cache statistics.
#[test]
fn fast_equals_slow_at_every_depth() {
    for preset in HierarchyConfig::preset_names() {
        let hier = HierarchyConfig::preset(preset).expect("named preset");
        for name in ["compress", "tomcatv"] {
            let w = by_name(name).expect("workload exists");
            let program = w.program_for_insts(40_000);
            let mut runs = Vec::new();
            for mode in [Mode::fast(), Mode::Slow] {
                let mut sim = Simulator::with_configs(
                    &program,
                    mode,
                    UArchConfig::table1(),
                    hier.clone(),
                )
                .expect("simulator builds");
                sim.run_to_completion().expect("run completes");
                runs.push((
                    *sim.stats(),
                    sim.output().to_vec(),
                    *sim.cache_stats(),
                    sim.cache_level_stats().to_vec(),
                ));
            }
            let (fast, slow) = (&runs[0], &runs[1]);
            let ctx = format!("{preset}/{name}");
            // The detailed/replayed split is mode-dependent by design;
            // every simulation *result* must be identical.
            assert_eq!(fast.0.cycles, slow.0.cycles, "{ctx}: cycles");
            assert_eq!(fast.0.retired_insts, slow.0.retired_insts, "{ctx}: insts");
            assert_eq!(fast.0.retired_loads, slow.0.retired_loads, "{ctx}: loads");
            assert_eq!(fast.0.retired_stores, slow.0.retired_stores, "{ctx}: stores");
            assert_eq!(fast.0.retired_branches, slow.0.retired_branches, "{ctx}: branches");
            assert_eq!(fast.1, slow.1, "{ctx}: program output");
            assert_eq!(fast.2, slow.2, "{ctx}: aggregate cache stats");
            assert_eq!(fast.3, slow.3, "{ctx}: per-level cache stats");
            assert_eq!(fast.3.len(), hier.depth(), "{ctx}: level count");
            assert!(
                fast.0.replayed_actions > 0,
                "{ctx}: fast mode must actually fast-forward"
            );
        }
    }
}

/// Deeper hierarchies actually change timing (the presets are not
/// degenerate aliases of each other) while functional results never move.
#[test]
fn depth_changes_timing_but_never_results() {
    let w = by_name("compress").expect("workload exists");
    let program = w.program_for_insts(40_000);
    let mut cycles = Vec::new();
    let mut outputs = Vec::new();
    for preset in HierarchyConfig::preset_names() {
        let mut sim = Simulator::with_configs(
            &program,
            Mode::fast(),
            UArchConfig::table1(),
            HierarchyConfig::preset(preset).expect("named preset"),
        )
        .expect("simulator builds");
        sim.run_to_completion().expect("run completes");
        cycles.push(sim.stats().cycles);
        outputs.push(sim.output().to_vec());
    }
    assert!(outputs.iter().all(|o| *o == outputs[0]), "outputs are model-independent");
    assert!(
        cycles.iter().any(|c| *c != cycles[0]),
        "presets must be timing-distinguishable: {cycles:?}"
    );
}
