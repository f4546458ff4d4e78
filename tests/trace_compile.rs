//! Trace-compiled replay equivalence: flattening hot p-action chains into
//! linear segments is purely a host-performance transformation — every
//! simulation result, statistic and cache state must be bit-identical to
//! node-at-a-time replay at any hotness threshold, with segments chained
//! segment-to-segment, under every replacement policy, across a
//! freeze/thaw/merge round trip, and whether segments were thawed or
//! freshly recompiled.

use fastsim::core::{
    CacheConfig, CacheStats, HierarchyConfig, MemoStats, Mode, Policy, SimStats, Simulator,
    UArchConfig,
};
use fastsim::memo::{MergeOutcome, PActionCache, DEFAULT_HOTNESS_THRESHOLD};
use fastsim::workloads::by_name;

/// The results of one run that must not depend on the hotness threshold.
#[derive(Debug)]
struct Outcome {
    stats: SimStats,
    output: Vec<u32>,
    memo: MemoStats,
    cache: CacheStats,
}

fn run(name: &str, insts: u64, policy: Policy, hotness: u32) -> Outcome {
    run_hier(name, insts, policy, hotness, &HierarchyConfig::table1())
}

fn run_hier(
    name: &str,
    insts: u64,
    policy: Policy,
    hotness: u32,
    hier: &HierarchyConfig,
) -> Outcome {
    let w = by_name(name).expect("workload exists");
    let program = w.program_for_insts(insts);
    let mut sim = Simulator::with_configs(
        &program,
        Mode::Fast { policy },
        UArchConfig::table1(),
        hier.clone(),
    )
    .expect("simulator builds");
    sim.set_trace_hotness(hotness);
    sim.run_to_completion().expect("run completes");
    Outcome {
        stats: *sim.stats(),
        output: sim.output().to_vec(),
        memo: *sim.memo_stats().expect("fast mode"),
        cache: *sim.cache_stats(),
    }
}

/// Every field of `MemoStats` that predates trace compilation must be
/// unaffected by it (the trace counters themselves are allowed — indeed
/// expected — to differ).
fn assert_pre_trace_memo_equal(a: &MemoStats, b: &MemoStats, ctx: &str) {
    assert_eq!(a.static_configs, b.static_configs, "{ctx}: static_configs");
    assert_eq!(a.static_actions, b.static_actions, "{ctx}: static_actions");
    assert_eq!(a.bytes, b.bytes, "{ctx}: modeled bytes");
    assert_eq!(a.peak_bytes, b.peak_bytes, "{ctx}: peak bytes");
    assert_eq!(a.flushes, b.flushes, "{ctx}: flushes");
    assert_eq!(a.collections, b.collections, "{ctx}: collections");
    assert_eq!(a.gc_survived_bytes, b.gc_survived_bytes, "{ctx}: gc survived");
    assert_eq!(a.gc_scanned_bytes, b.gc_scanned_bytes, "{ctx}: gc scanned");
    assert_eq!(a.config_hits, b.config_hits, "{ctx}: config hits");
    assert_eq!(a.config_misses, b.config_misses, "{ctx}: config misses");
}

/// The tentpole equivalence sweep: hotness ∈ {never, always, default, odd}
/// × all four replacement policies. `u32::MAX` (never compile) is the
/// node-at-a-time baseline the others must match bit-for-bit.
#[test]
fn hotness_sweep_is_bit_identical_across_policies() {
    let limit = 16 << 10;
    for name in ["129.compress", "099.go"] {
        for policy in [
            Policy::Unbounded,
            Policy::FlushOnFull { limit },
            Policy::CopyingGc { limit },
            Policy::GenerationalGc { limit },
        ] {
            let base = run(name, 60_000, policy, u32::MAX);
            assert_eq!(
                base.memo.replay_segments_entered, 0,
                "{name}: u32::MAX must never enter a segment"
            );
            for hotness in [0, DEFAULT_HOTNESS_THRESHOLD, 3] {
                let ctx = format!("{name} under {policy:?}, hotness {hotness}");
                let traced = run(name, 60_000, policy, hotness);
                assert_eq!(traced.stats, base.stats, "{ctx}: SimStats");
                assert_eq!(traced.output, base.output, "{ctx}: program output");
                assert_eq!(traced.cache, base.cache, "{ctx}: cache-hierarchy stats");
                assert_pre_trace_memo_equal(&traced.memo, &base.memo, &ctx);
                if hotness == 0 {
                    assert!(
                        traced.memo.replay_segments_entered > 0,
                        "{ctx}: eager compilation must execute segments"
                    );
                }
            }
        }
    }
}

/// The same equivalence holds at every hierarchy depth: each named
/// preset (two-level table1, three-level, single-level tiny-l1) × each
/// GC-ful replacement policy, trace-compiled replay against the
/// node-at-a-time baseline.
#[test]
fn preset_sweep_is_bit_identical_across_policies() {
    let limit = 16 << 10;
    for preset in HierarchyConfig::preset_names() {
        let hier = HierarchyConfig::preset(preset).expect("named preset");
        for policy in
            [Policy::Unbounded, Policy::CopyingGc { limit }, Policy::GenerationalGc { limit }]
        {
            let base = run_hier("129.compress", 40_000, policy, u32::MAX, &hier);
            for hotness in [0, DEFAULT_HOTNESS_THRESHOLD] {
                let ctx = format!("{preset} under {policy:?}, hotness {hotness}");
                let traced = run_hier("129.compress", 40_000, policy, hotness, &hier);
                assert_eq!(traced.stats, base.stats, "{ctx}: SimStats");
                assert_eq!(traced.output, base.output, "{ctx}: program output");
                assert_eq!(traced.cache, base.cache, "{ctx}: cache-hierarchy stats");
                assert_pre_trace_memo_equal(&traced.memo, &base.memo, &ctx);
            }
        }
    }
}

/// Warm replay stays bit-identical to the cold run at every hierarchy
/// depth, on an integer and a floating-point kernel.
#[test]
fn warm_replay_identical_at_every_depth() {
    for preset in HierarchyConfig::preset_names() {
        let hier = HierarchyConfig::preset(preset).expect("named preset");
        for name in ["compress", "tomcatv"] {
            let w = by_name(name).expect("workload exists");
            let program = w.program_for_insts(40_000);
            let mut cold = Simulator::with_configs(
                &program,
                Mode::fast(),
                UArchConfig::table1(),
                hier.clone(),
            )
            .expect("cold builds");
            cold.set_trace_hotness(u32::MAX);
            cold.run_to_completion().expect("cold completes");
            let cold_stats = *cold.stats();
            let cold_output = cold.output().to_vec();
            let snap = cold.take_warm_cache().expect("fast mode").freeze();

            let mut warm_outcomes = Vec::new();
            for hotness in [u32::MAX, 0] {
                let ctx = format!("{preset}/{name}, hotness {hotness}");
                let mut warm = Simulator::with_warm_snapshot(
                    &program,
                    &snap,
                    UArchConfig::table1(),
                    hier.clone(),
                )
                .expect("warm builds");
                warm.set_trace_hotness(hotness);
                warm.run_to_completion().expect("warm completes");
                // Results must match the cold run (warmth moves work from
                // detailed simulation to replay, never the outcome).
                assert_eq!(warm.stats().cycles, cold_stats.cycles, "{ctx}: cycles");
                assert_eq!(
                    warm.stats().retired_insts,
                    cold_stats.retired_insts,
                    "{ctx}: insts"
                );
                assert_eq!(warm.output(), cold_output, "{ctx}: warm output");
                if hotness == 0 {
                    let memo = warm.memo_stats().expect("fast mode");
                    assert!(
                        memo.replay_segments_entered > 0,
                        "{ctx}: warm replay must execute segments"
                    );
                }
                warm_outcomes.push((*warm.stats(), *warm.cache_stats()));
            }
            // Between replay strategies the *entire* statistics block must
            // be bit-identical — trace compilation is purely host-side.
            assert_eq!(
                warm_outcomes[0], warm_outcomes[1],
                "{preset}/{name}: node vs trace warm runs"
            );
        }
    }
}

/// Warm-started replay — where traces matter most — is bit-identical on
/// every workload of the bench sweep, and actually executes segments.
#[test]
fn warm_replay_identical_on_every_workload() {
    for w in fastsim::workloads::all() {
        let program = w.program_for_insts(40_000);
        let mut cold = Simulator::new(&program, Mode::fast()).expect("cold builds");
        // Record trace-free so the snapshot's cumulative counters start at
        // zero and the baseline/traced split below is exact.
        cold.set_trace_hotness(u32::MAX);
        cold.run_to_completion().expect("cold completes");
        let snap = cold.take_warm_cache().expect("fast mode").freeze();

        let mut outcomes = Vec::new();
        for hotness in [u32::MAX, 0] {
            let mut warm = Simulator::with_warm_snapshot(
                &program,
                &snap,
                UArchConfig::table1(),
                CacheConfig::table1(),
            )
            .expect("warm builds");
            warm.set_trace_hotness(hotness);
            warm.run_to_completion().expect("warm completes");
            let memo = *warm.memo_stats().expect("fast mode");
            outcomes.push((*warm.stats(), warm.output().to_vec(), memo));
        }
        let (node, trace) = (&outcomes[0], &outcomes[1]);
        assert_eq!(trace.0, node.0, "{}: warm SimStats", w.name);
        assert_eq!(trace.1, node.1, "{}: warm output", w.name);
        assert_pre_trace_memo_equal(&trace.2, &node.2, w.name);
        assert_eq!(node.2.replay_segments_entered, 0, "{}: baseline", w.name);
        assert!(
            trace.2.replay_segments_entered > 0,
            "{}: warm replay must execute segments",
            w.name
        );
        assert!(trace.2.replay_trace_ops > 0, "{}: op counter must move", w.name);
    }
}

/// A freeze/thaw/`merge_from` round trip produces the same worker results
/// and the same merged arena regardless of the hotness threshold.
/// Snapshots carry compiled traces, and thawed masters revive them —
/// only `segments_imported` may vary with hotness (hotter workers ship
/// more compiled segments), never the replayable content.
#[test]
fn freeze_thaw_merge_round_trip_identical() {
    let w = by_name("129.compress").expect("workload exists");
    let program = w.program_for_insts(50_000);
    let mut first = Simulator::new(&program, Mode::fast()).expect("builds");
    first.run_to_completion().expect("completes");
    let snap = first.take_warm_cache().expect("fast mode").freeze();
    assert!(snap.cache().trace_count() > 0, "warm recording compiles segments");

    let mut merged_shapes = Vec::new();
    let mut worker_stats = Vec::new();
    for hotness in [u32::MAX, 0, DEFAULT_HOTNESS_THRESHOLD] {
        let mut worker = Simulator::with_warm_snapshot(
            &program,
            &snap,
            UArchConfig::table1(),
            CacheConfig::table1(),
        )
        .expect("worker builds");
        worker.set_trace_hotness(hotness);
        worker.run_to_completion().expect("worker completes");
        worker_stats.push(*worker.stats());
        let delta = worker.take_warm_cache().expect("fast mode").freeze();

        let mut master = PActionCache::from_snapshot(snap.cache());
        assert_eq!(
            master.trace_count(),
            snap.cache().trace_count(),
            "thawed masters revive every snapshot segment"
        );
        let outcome = master.merge_from(delta.cache());
        assert!(
            master.trace_count() >= snap.cache().trace_count(),
            "merging never drops revived traces"
        );
        // Replayable content must not depend on hotness; the count of
        // imported segments legitimately does (a `u32::MAX` worker
        // compiles nothing to ship), so it is excluded.
        let content = MergeOutcome { segments_imported: 0, ..outcome };
        merged_shapes.push((master.config_count(), master.node_count(), content));
    }
    assert!(
        worker_stats.iter().all(|s| *s == worker_stats[0]),
        "worker SimStats must not depend on hotness: {worker_stats:#?}"
    );
    assert!(
        merged_shapes.iter().all(|m| *m == merged_shapes[0]),
        "merged master must not depend on hotness: {merged_shapes:#?}"
    );
}

/// Segments revived from a snapshot replay bit-identically to segments
/// recompiled from scratch, under every replacement policy (the GC-ful
/// policies exercise the invalidation discipline mid-run).
#[test]
fn thawed_segments_replay_identical_to_fresh_recompile() {
    let limit = 16 << 10;
    let w = by_name("129.compress").expect("workload exists");
    let program = w.program_for_insts(50_000);

    for policy in [
        Policy::Unbounded,
        Policy::FlushOnFull { limit },
        Policy::CopyingGc { limit },
        Policy::GenerationalGc { limit },
    ] {
        // Two recordings of the same run under this policy: one
        // segment-free, one with every chain compiled. Their arenas are
        // bit-identical (the tentpole guarantee); only the carried warmth
        // differs. The warm runs adopt the snapshot's policy.
        let mut snaps = Vec::new();
        for hotness in [u32::MAX, 0] {
            let mut cold = Simulator::with_configs(
                &program,
                Mode::Fast { policy },
                UArchConfig::table1(),
                HierarchyConfig::table1(),
            )
            .expect("builds");
            cold.set_trace_hotness(hotness);
            cold.run_to_completion().expect("completes");
            snaps.push(cold.take_warm_cache().expect("fast mode").freeze());
        }
        let (bare, warm) = (&snaps[0], &snaps[1]);
        let ctx = format!("{policy:?}");
        assert_eq!(bare.cache().trace_count(), 0, "{ctx}: u32::MAX snapshot is segment-free");

        let mut outcomes = Vec::new();
        for snap in [bare, warm] {
            let mut sim = Simulator::with_warm_snapshot(
                &program,
                snap,
                UArchConfig::table1(),
                HierarchyConfig::table1(),
            )
            .expect("warm builds");
            sim.set_trace_hotness(0);
            sim.run_to_completion().expect("warm completes");
            let memo = *sim.memo_stats().expect("fast mode");
            outcomes.push((*sim.stats(), sim.output().to_vec(), *sim.cache_stats(), memo));
        }
        let (fresh, thawed) = (&outcomes[0], &outcomes[1]);
        assert_eq!(thawed.0, fresh.0, "{ctx}: SimStats");
        assert_eq!(thawed.1, fresh.1, "{ctx}: program output");
        assert_eq!(thawed.2, fresh.2, "{ctx}: cache-hierarchy stats");
        assert_pre_trace_memo_equal(&thawed.3, &fresh.3, &ctx);
        assert_eq!(fresh.3.segments_thawed, 0, "{ctx}: bare snapshot thaws none");
        // A GC-ful recording may flush right before the end and freeze an
        // empty trace table; when segments did survive, the thaw must
        // revive and execute them.
        if warm.cache().trace_count() > 0 {
            assert!(thawed.3.segments_thawed > 0, "{ctx}: warm snapshot revives segments");
            assert!(
                thawed.3.replay_segments_entered > 0,
                "{ctx}: thawed segments must actually execute"
            );
        } else {
            assert!(
                !matches!(policy, Policy::Unbounded),
                "unbounded recording must carry segments"
            );
        }
    }
}

/// Chain-link side tables are host bookkeeping: modeled cache bytes (the
/// paper's figure of merit) must be identical with chained segments and
/// with node-at-a-time replay — as must every architectural stat.
#[test]
fn modeled_bytes_unchanged_by_chaining() {
    let w = by_name("099.go").expect("workload exists");
    let program = w.program_for_insts(60_000);
    let mut outcomes = Vec::new();
    for hotness in [u32::MAX, 0] {
        let mut sim = Simulator::new(&program, Mode::fast()).expect("builds");
        sim.set_trace_hotness(hotness);
        sim.run_to_completion().expect("completes");
        let memo = *sim.memo_stats().expect("fast mode");
        outcomes.push((*sim.stats(), sim.output().to_vec(), memo));
    }
    let (node, chained) = (&outcomes[0], &outcomes[1]);
    let ctx = "chained segments";
    assert_eq!(chained.0, node.0, "{ctx}: SimStats");
    assert_eq!(chained.1, node.1, "{ctx}: program output");
    assert_eq!(chained.2.bytes, node.2.bytes, "{ctx}: modeled bytes");
    assert_eq!(chained.2.peak_bytes, node.2.peak_bytes, "{ctx}: peak bytes");
    assert_pre_trace_memo_equal(&chained.2, &node.2, ctx);
    assert_eq!(node.2.chained_exits, 0, "node-at-a-time replay never chains");
    assert!(chained.2.chained_exits > 0, "chaining must chain on a hot loop");
    assert!(
        chained.2.chain_follows <= chained.2.chained_exits,
        "fast-path follows are a subset of chained transitions"
    );
}

/// Mid-run budget pauses resume exactly where an uninterrupted run would,
/// under every replay strategy — node-at-a-time (`u32::MAX`), eager
/// segments (`0`) and the default threshold — from a cold start and from a
/// thawed snapshot (the deadline-chunk path of `batch::run_single`):
/// chopping a run into tiny slices changes nothing.
#[test]
fn budget_pauses_inside_segments_are_transparent() {
    let w = by_name("129.compress").expect("workload exists");
    let program = w.program_for_insts(40_000);
    let mut seed = Simulator::new(&program, Mode::fast()).expect("builds");
    seed.run_to_completion().expect("completes");
    let snap = seed.take_warm_cache().expect("fast mode").freeze();
    let build = |thawed: bool, hotness: u32| {
        let mut sim = if thawed {
            let (uarch, hier) = (UArchConfig::table1(), CacheConfig::table1());
            Simulator::with_warm_snapshot(&program, &snap, uarch, hier)
        } else {
            Simulator::new(&program, Mode::fast())
        }
        .expect("builds");
        sim.set_trace_hotness(hotness);
        sim
    };

    for thawed in [false, true] {
        for hotness in [u32::MAX, 0, DEFAULT_HOTNESS_THRESHOLD] {
            let ctx = format!("thawed {thawed}, hotness {hotness}");
            let mut whole = build(thawed, hotness);
            whole.run_to_completion().expect("completes");
            let mut sliced = build(thawed, hotness);
            while !sliced.finished() {
                sliced.run(500).expect("slice runs");
            }
            assert_eq!(sliced.stats(), whole.stats(), "{ctx}: sliced vs whole SimStats");
            assert_eq!(sliced.output(), whole.output(), "{ctx}: sliced vs whole output");
            assert_eq!(sliced.cache_stats(), whole.cache_stats(), "{ctx}: cache stats");
            let memo = |sim: &Simulator| *sim.memo_stats().expect("fast mode");
            assert_pre_trace_memo_equal(&memo(&sliced), &memo(&whole), &ctx);
        }
    }
}
