//! Warm-start memoization across runs (the extension documented in
//! DESIGN.md): a second simulation of the same program under the same
//! model reuses the first run's p-action cache and fast-forwards almost
//! from the first cycle — while still producing identical results.

use fastsim::core::{CacheConfig, HierarchyConfig, Mode, Policy, Simulator, UArchConfig};
use fastsim::workloads::{all, by_name};

/// Runs a workload cold and returns (stats, frozen warm snapshot).
fn cold_run(program: &fastsim::isa::Program) -> (fastsim::core::SimStats, fastsim::core::WarmCacheSnapshot) {
    let mut cold = Simulator::new(program, Mode::fast()).unwrap();
    cold.run_to_completion().unwrap();
    let stats = *cold.stats();
    let snapshot = cold.take_warm_cache().expect("fast mode").freeze();
    (stats, snapshot)
}

#[test]
fn warm_second_run_is_nearly_all_replay() {
    for name in ["compress", "mgrid", "go"] {
        let w = by_name(name).expect("workload exists");
        let program = w.program_for_insts(100_000);

        let mut cold = Simulator::new(&program, Mode::fast()).unwrap();
        cold.run_to_completion().unwrap();
        let cold_stats = *cold.stats();
        let warm_cache = cold.take_warm_cache().expect("fast mode");

        let mut warm = Simulator::with_warm_cache(
            &program,
            warm_cache,
            UArchConfig::table1(),
            CacheConfig::table1(),
        )
        .unwrap();
        warm.run_to_completion().unwrap();

        assert_eq!(warm.stats().cycles, cold_stats.cycles, "{name}");
        assert_eq!(warm.stats().retired_insts, cold_stats.retired_insts, "{name}");
        assert!(
            warm.stats().detailed_insts * 10 < cold_stats.detailed_insts.max(10),
            "{name}: warm detailed {} vs cold {}",
            warm.stats().detailed_insts,
            cold_stats.detailed_insts
        );
        // No new configurations should be needed: the program and model
        // are identical, so every configuration the warm run visits was
        // recorded by the cold run.
        let cold_cfgs = warm.memo_stats().unwrap().static_configs;
        let warm2 = warm.take_warm_cache().unwrap();
        assert_eq!(warm2.stats().static_configs, cold_cfgs, "{name}");
    }
}

#[test]
fn warm_cache_chains_through_many_runs() {
    let w = by_name("li").unwrap();
    let program = w.program_for_insts(50_000);
    let mut sim = Simulator::new(&program, Mode::fast()).unwrap();
    sim.run_to_completion().unwrap();
    let reference_cycles = sim.stats().cycles;
    let mut cache = sim.take_warm_cache().unwrap();
    for round in 0..3 {
        let mut next = Simulator::with_warm_cache(
            &program,
            cache,
            UArchConfig::table1(),
            CacheConfig::table1(),
        )
        .unwrap();
        next.run_to_completion().unwrap();
        assert_eq!(next.stats().cycles, reference_cycles, "round {round}");
        cache = next.take_warm_cache().unwrap();
    }
}

#[test]
fn warm_cache_respects_its_policy() {
    // A flushing cache extracted and reused keeps flushing at the same
    // limit, and results stay exact.
    let w = by_name("gcc").unwrap();
    let program = w.program_for_insts(80_000);
    let mode = Mode::Fast { policy: Policy::FlushOnFull { limit: 32 << 10 } };
    let mut first = Simulator::new(&program, mode).unwrap();
    first.run_to_completion().unwrap();
    let cycles = first.stats().cycles;
    let cache = first.take_warm_cache().unwrap();
    let mut second = Simulator::with_warm_cache(
        &program,
        cache,
        UArchConfig::table1(),
        CacheConfig::table1(),
    )
    .unwrap();
    second.run_to_completion().unwrap();
    assert_eq!(second.stats().cycles, cycles);
    let m = second.memo_stats().unwrap();
    assert!(m.bytes <= (32 << 10) * 2, "limit still enforced: {}", m.bytes);
}

#[test]
fn warm_snapshot_strictly_reduces_detailed_simulation() {
    // The cold-vs-warm regression for the *snapshot* path: replaying from
    // a frozen WarmCacheSnapshot must produce identical results while
    // strictly reducing the detailed-simulation share, on both an integer
    // and a floating-point kernel.
    for name in ["compress", "tomcatv"] {
        let w = by_name(name).expect("workload exists");
        let program = w.program_for_insts(100_000);
        let (cold_stats, snapshot) = cold_run(&program);

        let mut warm = Simulator::with_warm_snapshot(
            &program,
            &snapshot,
            UArchConfig::table1(),
            CacheConfig::table1(),
        )
        .unwrap();
        warm.run_to_completion().unwrap();

        assert_eq!(warm.stats().cycles, cold_stats.cycles, "{name}");
        assert_eq!(warm.stats().retired_insts, cold_stats.retired_insts, "{name}");
        assert!(
            warm.stats().detailed_insts < cold_stats.detailed_insts,
            "{name}: warm detailed {} must shrink vs cold {}",
            warm.stats().detailed_insts,
            cold_stats.detailed_insts
        );
        assert!(
            warm.stats().detailed_cycles < cold_stats.detailed_cycles,
            "{name}: warm detailed cycles {} vs cold {}",
            warm.stats().detailed_cycles,
            cold_stats.detailed_cycles
        );
        assert!(
            warm.stats().replayed_insts > cold_stats.replayed_insts,
            "{name}: the missing work moved to replay"
        );
        // Cumulative memoization counters continue from the snapshot, so
        // the no-new-configurations invariant holds here too.
        assert_eq!(
            warm.memo_stats().unwrap().static_configs,
            snapshot.stats().static_configs,
            "{name}: warm run needs no new configurations"
        );
    }
}

#[test]
fn warm_restart_is_bit_identical_under_every_policy() {
    // The warm-start path through freeze/thaw must stay deterministic for
    // every bounded policy: two runs thawed from the same snapshot agree
    // byte-for-byte on SimStats and MemoStats (arena layout, fingerprint
    // table and GC compaction included), and both match the cold cycles.
    let policies = [
        Policy::FlushOnFull { limit: 8 << 10 },
        Policy::CopyingGc { limit: 8 << 10 },
        Policy::GenerationalGc { limit: 8 << 10 },
    ];
    let w = by_name("li").unwrap();
    let program = w.program_for_insts(50_000);
    for policy in policies {
        let mut cold = Simulator::new(&program, Mode::Fast { policy }).unwrap();
        cold.run_to_completion().unwrap();
        let cold_cycles = cold.stats().cycles;
        let snapshot = cold.take_warm_cache().unwrap().freeze();
        let run = || {
            let mut warm = Simulator::with_warm_snapshot(
                &program,
                &snapshot,
                UArchConfig::table1(),
                CacheConfig::table1(),
            )
            .unwrap();
            warm.run_to_completion().unwrap();
            let memo = *warm.memo_stats().unwrap();
            (*warm.stats(), memo)
        };
        let (s1, m1) = run();
        let (s2, m2) = run();
        assert_eq!(s1, s2, "{policy:?}: SimStats must be bit-identical");
        assert_eq!(m1, m2, "{policy:?}: MemoStats must be bit-identical");
        assert_eq!(s1.cycles, cold_cycles, "{policy:?}: warm replay stays exact");
    }
}

#[test]
fn one_snapshot_seeds_many_identical_runs() {
    // A frozen snapshot is immutable: seeding several simulators from the
    // same snapshot (as the batch driver does, concurrently) leaves its
    // counts untouched, and every run replays identically.
    let w = by_name("li").unwrap();
    let program = w.program_for_insts(50_000);
    let (cold_stats, snapshot) = cold_run(&program);
    let (cfgs, nodes) = (snapshot.config_count(), snapshot.node_count());

    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (program, snapshot) = (&program, &snapshot);
                scope.spawn(move || {
                    let mut sim = Simulator::with_warm_snapshot(
                        program,
                        snapshot,
                        UArchConfig::table1(),
                        CacheConfig::table1(),
                    )
                    .unwrap();
                    sim.run_to_completion().unwrap();
                    *sim.stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for stats in &runs {
        assert_eq!(*stats, runs[0], "every replay of the snapshot is identical");
        assert_eq!(stats.cycles, cold_stats.cycles);
    }
    assert_eq!(snapshot.config_count(), cfgs, "snapshot never mutated");
    assert_eq!(snapshot.node_count(), nodes, "snapshot never mutated");
}

#[test]
fn snapshot_rejects_a_different_model() {
    let w = by_name("go").unwrap();
    let program = w.program_for_insts(30_000);
    let (_, snapshot) = cold_run(&program);
    let mut wide = UArchConfig::table1();
    wide.fetch_width += 4;
    match Simulator::with_warm_snapshot(&program, &snapshot, wide, CacheConfig::table1()) {
        Err(fastsim::core::BuildError::WarmCacheMismatch) => {}
        Err(e) => panic!("expected WarmCacheMismatch, got {e:?}"),
        Ok(_) => panic!("a snapshot for a different model must be rejected"),
    }
}

/// Every workload restarts warm from a handed-over cache and reproduces
/// the cold run's results exactly.
#[test]
fn every_workload_survives_a_warm_restart() {
    for w in all() {
        let program = w.program_for_insts(20_000);
        let mut cold = Simulator::new(&program, Mode::fast()).expect(w.name);
        cold.run_to_completion().expect(w.name);
        let cold_stats = *cold.stats();
        let cold_output = cold.output().to_vec();
        let cache = cold.take_warm_cache().expect(w.name);
        let mut warm = Simulator::with_warm_cache(
            &program,
            cache,
            UArchConfig::table1(),
            CacheConfig::table1(),
        )
        .expect(w.name);
        warm.run_to_completion().expect(w.name);
        assert_eq!(warm.stats().cycles, cold_stats.cycles, "{}: cycles", w.name);
        assert_eq!(warm.stats().retired_insts, cold_stats.retired_insts, "{}: insts", w.name);
        assert_eq!(warm.output(), cold_output, "{}: output", w.name);
    }
}

/// Warm replay from a thawed snapshot is bit-identical on every workload
/// of the bench sweep: it reproduces the cold run's results, equals a run
/// warmed by the handed-over (never frozen) cache in every statistic, and
/// simulates fewer instructions in detail than the cold run did.
#[test]
fn warm_replay_identical_on_every_workload() {
    for w in all() {
        let program = w.program_for_insts(40_000);
        let mut cold = Simulator::new(&program, Mode::fast()).expect("cold builds");
        cold.run_to_completion().expect("cold completes");
        let cold_stats = *cold.stats();
        let cold_output = cold.output().to_vec();
        let cache = cold.take_warm_cache().expect("fast mode");
        let snapshot = cache.freeze();
        let (uarch, hier) = (UArchConfig::table1(), CacheConfig::table1());
        let mut handed =
            Simulator::with_warm_cache(&program, cache, uarch, hier).expect("handed-over builds");
        handed.run_to_completion().expect("handed-over completes");
        let mut thawed =
            Simulator::with_warm_snapshot(&program, &snapshot, uarch, hier).expect("thawed builds");
        thawed.run_to_completion().expect("thawed completes");

        let s = thawed.stats();
        assert_eq!(s.cycles, cold_stats.cycles, "{}: cycles", w.name);
        assert_eq!(s.retired_insts, cold_stats.retired_insts, "{}: insts", w.name);
        assert_eq!(thawed.output(), cold_output, "{}: output", w.name);
        assert_eq!(s, handed.stats(), "{}: thawed vs handed-over SimStats", w.name);
        assert_eq!(thawed.output(), handed.output(), "{}: thawed vs handed-over output", w.name);
        let tm = thawed.memo_stats().expect("fast mode");
        let hm = handed.memo_stats().expect("fast mode");
        assert_eq!(tm.static_configs, hm.static_configs, "{}: static_configs", w.name);
        assert_eq!(tm.static_actions, hm.static_actions, "{}: static_actions", w.name);
        assert!(
            s.detailed_insts < cold_stats.detailed_insts,
            "{}: warm replay must take over detailed work ({} vs cold {})",
            w.name,
            s.detailed_insts,
            cold_stats.detailed_insts
        );
    }
}

/// Warm replay stays bit-identical to the cold run at every hierarchy
/// depth, on an integer and a floating-point kernel: cycles, retirement,
/// output, and aggregate and per-level cache statistics.
#[test]
fn warm_replay_identical_at_every_depth() {
    for preset in HierarchyConfig::preset_names() {
        let hier = HierarchyConfig::preset(preset).expect("named preset");
        for name in ["compress", "tomcatv"] {
            let ctx = format!("{preset}/{name}");
            let w = by_name(name).expect("workload exists");
            let program = w.program_for_insts(40_000);
            let mut cold =
                Simulator::with_configs(&program, Mode::fast(), UArchConfig::table1(), hier.clone())
                    .expect("cold builds");
            cold.run_to_completion().expect("cold completes");
            let cold_stats = *cold.stats();
            let cold_output = cold.output().to_vec();
            let cold_cache = *cold.cache_stats();
            let cold_levels = cold.cache_level_stats().to_vec();
            let snap = cold.take_warm_cache().expect("fast mode").freeze();

            let mut warm =
                Simulator::with_warm_snapshot(&program, &snap, UArchConfig::table1(), hier.clone())
                    .expect("warm builds");
            warm.run_to_completion().expect("warm completes");
            // Warmth moves work from detailed simulation to replay, never
            // the outcome.
            let s = warm.stats();
            assert_eq!(s.cycles, cold_stats.cycles, "{ctx}: cycles");
            assert_eq!(s.retired_insts, cold_stats.retired_insts, "{ctx}: insts");
            assert_eq!(s.retired_loads, cold_stats.retired_loads, "{ctx}: loads");
            assert_eq!(s.retired_stores, cold_stats.retired_stores, "{ctx}: stores");
            assert_eq!(s.retired_branches, cold_stats.retired_branches, "{ctx}: branches");
            assert_eq!(warm.output(), cold_output, "{ctx}: output");
            assert_eq!(*warm.cache_stats(), cold_cache, "{ctx}: cache stats");
            assert_eq!(warm.cache_level_stats(), cold_levels, "{ctx}: per-level cache stats");
        }
    }
}

/// Budget pauses are transparent under every replacement policy, from a
/// cold start and from a thawed snapshot (the deadline-chunk path of
/// `batch::run_single`): a run chopped into slices of 1 or 500
/// instructions equals the uninterrupted run in every statistic.
///
/// This is the safety condition of the replay loop's node-id fallback
/// anchor: a paused replay resumes, and later falls back, through the id
/// of the last configuration head it crossed, so nothing may relocate or
/// drop nodes in between. The limited policies must actually flush or
/// collect here, or the test would never put an arena change into a run.
#[test]
fn budget_pauses_are_transparent() {
    let limit = 16 << 10;
    let w = by_name("129.compress").expect("workload exists");
    let program = w.program_for_insts(40_000);
    let (uarch, hier) = (UArchConfig::table1(), CacheConfig::table1());
    let mut slow = Simulator::new(&program, Mode::Slow).expect("builds");
    slow.run_to_completion().expect("completes");

    for policy in [
        Policy::Unbounded,
        Policy::FlushOnFull { limit },
        Policy::CopyingGc { limit },
        Policy::GenerationalGc { limit },
    ] {
        let mut seed = Simulator::with_configs(&program, Mode::Fast { policy }, uarch, hier)
            .expect("builds");
        seed.run_to_completion().expect("completes");
        let snap = seed.take_warm_cache().expect("fast mode").freeze();
        let build = |thawed: bool| {
            if thawed {
                Simulator::with_warm_snapshot(&program, &snap, uarch, hier)
            } else {
                Simulator::with_configs(&program, Mode::Fast { policy }, uarch, hier)
            }
            .expect("builds")
        };
        let memo = |sim: &Simulator| *sim.memo_stats().expect("fast mode");

        for thawed in [false, true] {
            let ctx = format!("{policy:?}, thawed {thawed}");
            let mut whole = build(thawed);
            whole.run_to_completion().expect("completes");
            assert_eq!(whole.stats().cycles, slow.stats().cycles, "{ctx}: cycles vs SlowSim");
            assert_eq!(
                whole.stats().retired_insts,
                slow.stats().retired_insts,
                "{ctx}: retirement vs SlowSim"
            );
            assert_eq!(whole.cache_stats(), slow.cache_stats(), "{ctx}: cache stats vs SlowSim");
            assert_eq!(
                whole.cache_level_stats(),
                slow.cache_level_stats(),
                "{ctx}: per-level cache stats vs SlowSim"
            );
            if policy.limit().is_some() {
                let (run, inherited) = (memo(&whole), *snap.stats());
                let before = if thawed { inherited.flushes + inherited.collections } else { 0 };
                assert!(
                    run.flushes + run.collections > before,
                    "{ctx}: the limited policy must flush or collect during the run"
                );
            }

            for slice in [1, 500] {
                let ctx = format!("{ctx}, slices of {slice}");
                let mut sliced = build(thawed);
                while !sliced.finished() {
                    sliced.run(slice).expect("slice runs");
                }
                assert_eq!(sliced.stats(), whole.stats(), "{ctx}: SimStats");
                assert_eq!(sliced.output(), whole.output(), "{ctx}: output");
                assert_eq!(sliced.cache_stats(), whole.cache_stats(), "{ctx}: cache stats");
                assert_eq!(memo(&sliced), memo(&whole), "{ctx}: MemoStats");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Golden `fastsim-snapshot/v3` fixture: byte-layout pinning and the
// rejection matrix for the durable-store wire format (docs/snapshots.md).
// ---------------------------------------------------------------------

/// Path of the committed golden encoding.
const GOLDEN_SNAPSHOT: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/compress_10k_table1.snap");

/// The same run in the retired `fastsim-snapshot/v1` encoding, which
/// carried three more sections for trace-compiled replay segments.
const GOLDEN_SNAPSHOT_V1: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/compress_10k_table1.v1.snap");

/// The same run in the retired `fastsim-snapshot/v2` encoding: the same
/// four section payloads in a different framing.
const GOLDEN_SNAPSHOT_V2: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/compress_10k_table1.v2.snap");

/// The deterministic run the golden fixture freezes: `compress` at
/// 10 000 instructions under the Table 1 model, unbounded policy.
fn golden_run() -> (fastsim::isa::Program, fastsim::core::SimStats, fastsim::core::WarmCacheSnapshot)
{
    let w = by_name("compress").expect("workload exists");
    let program = w.program_for_insts(10_000);
    let (stats, snapshot) = cold_run(&program);
    (program, stats, snapshot)
}

/// Regenerates the committed fixture. Run explicitly after an
/// *intentional* format revision (with the version bump that implies):
/// `cargo test --test warm_cache regenerate_golden -- --ignored`
#[test]
#[ignore = "maintenance: rewrites the committed golden fixture"]
fn regenerate_golden_snapshot_fixture() {
    let (_, _, snapshot) = golden_run();
    std::fs::write(GOLDEN_SNAPSHOT, snapshot.encode()).expect("write fixture");
}

#[test]
fn golden_snapshot_byte_layout_is_pinned() {
    // Today's encoder must reproduce the committed bytes exactly: any
    // layout drift (field order, widths, checksum, section framing) is a
    // silent break of every snapshot already persisted by deployed
    // stores, so it must fail here until the format version is bumped and
    // the fixture intentionally regenerated.
    let golden = std::fs::read(GOLDEN_SNAPSHOT).expect("golden fixture is committed");
    let (_, _, snapshot) = golden_run();
    assert_eq!(
        snapshot.encode(),
        golden,
        "encoder no longer reproduces the committed fastsim-snapshot/v3 bytes \
         (if intentional: bump the format version and regenerate the fixture)"
    );

    // And the committed bytes decode canonically: decode -> encode is
    // bit-identical, with the fingerprint pinned as a store would.
    let decoded = fastsim::core::WarmCacheSnapshot::decode(&golden, Some(snapshot.fingerprint()))
        .expect("golden fixture decodes");
    assert_eq!(decoded.encode(), golden, "golden decode→encode round-trips bit-identically");
}

#[test]
fn golden_snapshot_replays_bit_identically() {
    // A snapshot thawed from the *committed* bytes — not one freshly
    // frozen in this process — drives a warm run to the same results as
    // the cold run it memoized.
    let golden = std::fs::read(GOLDEN_SNAPSHOT).expect("golden fixture is committed");
    let (program, cold_stats, _) = golden_run();
    let snapshot = fastsim::core::WarmCacheSnapshot::decode(&golden, None).expect("decodes");
    let mut warm = Simulator::with_warm_snapshot(
        &program,
        &snapshot,
        UArchConfig::table1(),
        CacheConfig::table1(),
    )
    .unwrap();
    warm.run_to_completion().unwrap();
    assert_eq!(warm.stats().cycles, cold_stats.cycles);
    assert_eq!(warm.stats().retired_insts, cold_stats.retired_insts);
    assert!(
        warm.stats().detailed_insts < cold_stats.detailed_insts,
        "the fixture's warmth actually replays"
    );
}

#[test]
fn golden_snapshot_rejection_matrix() {
    // Every corruption class maps to its typed error — reject, don't
    // guess. (The fuzzer sweeps these randomly; this is the deterministic
    // spelled-out matrix against the committed bytes.)
    use fastsim::core::SnapshotDecodeError as E;
    use fastsim_hash::frame::FrameError as F;
    let golden = std::fs::read(GOLDEN_SNAPSHOT).expect("golden fixture is committed");
    let decode = fastsim::core::WarmCacheSnapshot::decode;
    let fingerprint = decode(&golden, None).expect("golden decodes").fingerprint();

    // Magic.
    let mut bad = golden.clone();
    bad[0] ^= 0xff;
    assert!(matches!(decode(&bad, None), Err(E::Frame(F::BadMagic))));

    // Version (bytes 8..12, little-endian u32).
    let mut bad = golden.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(decode(&bad, None), Err(E::Frame(F::UnsupportedVersion { found: 99 }))));

    // Fingerprint pinning: the fingerprint record disagrees with what the
    // store expects for this group.
    assert!(matches!(
        decode(&golden, Some(fingerprint ^ 1)),
        Err(E::FingerprintMismatch { .. })
    ));

    // A flipped fingerprint bit is caught by the record's checksum, even
    // when no fingerprint is expected (v2 accepted this image). The
    // fingerprint record's payload follows the header and its kind and
    // length bytes.
    let mut bad = golden.clone();
    bad[12 + 5] ^= 0x01;
    assert!(matches!(decode(&bad, None), Err(E::Frame(F::ChecksumMismatch { offset: 12 }))));

    // Truncation, at the header and mid-payload.
    assert!(matches!(decode(&golden[..16], None), Err(E::Frame(F::Truncated { .. }))));
    assert!(matches!(
        decode(&golden[..golden.len() - 1], None),
        Err(E::Frame(F::Truncated { .. } | F::ChecksumMismatch { .. }))
    ));

    // Payload corruption: a flipped byte past the header must be caught
    // by a record checksum.
    let mut bad = golden.clone();
    let mid = 32 + (bad.len() - 32) / 2;
    bad[mid] ^= 0x01;
    assert!(decode(&bad, None).is_err(), "flipped payload byte must be rejected");

    // Trailing garbage after a complete, valid image.
    let mut bad = golden.clone();
    bad.push(0);
    assert!(matches!(decode(&bad, None), Err(E::Frame(F::Truncated { .. }))));
}

/// A v2 file's header fingerprint and section payloads, trusting the
/// framing (the fixture is known-good): a 32-byte header with the
/// fingerprint at 12..20, then `tag u32 | len u64 | payload | checksum u64`.
fn v2_sections(bytes: &[u8]) -> (&[u8], Vec<&[u8]>) {
    let (mut pos, mut out) = (32, Vec::new());
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        out.push(&bytes[pos + 12..pos + 12 + len]);
        pos += 12 + len + 8;
    }
    (&bytes[12..20], out)
}

/// A v3 file's records as `(kind, payload)` pairs, trusting the framing:
/// a 12-byte header, then `kind u8 | len u32 | payload | checksum u64`.
fn v3_records(bytes: &[u8]) -> Vec<(u8, &[u8])> {
    let (mut pos, mut out) = (12, Vec::new());
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        out.push((bytes[pos], &bytes[pos + 5..pos + 5 + len]));
        pos += 5 + len + 8;
    }
    out
}

#[test]
fn old_snapshot_versions_are_rejected_and_v3_keeps_v2s_payloads() {
    // A v1 or v2 file is a typed rejection: a store holding only those
    // boots its group cold.
    use fastsim::core::SnapshotDecodeError as E;
    use fastsim_hash::frame::FrameError as F;
    let v1 = std::fs::read(GOLDEN_SNAPSHOT_V1).expect("v1 fixture is committed");
    let v2 = std::fs::read(GOLDEN_SNAPSHOT_V2).expect("v2 fixture is committed");
    let v3 = std::fs::read(GOLDEN_SNAPSHOT).expect("golden fixture is committed");
    for (bytes, found) in [(&v1, 1), (&v2, 2)] {
        assert_eq!(
            fastsim::core::WarmCacheSnapshot::decode(bytes, None).err(),
            Some(E::Frame(F::UnsupportedVersion { found }))
        );
    }

    // v3 changes only the framing: its fingerprint record is v2's header
    // fingerprint, and its four section payloads are v2's, byte for byte.
    let (fingerprint, sections) = v2_sections(&v2);
    let records = v3_records(&v3);
    assert_eq!(records.iter().map(|(kind, _)| *kind).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    assert_eq!(records[0].1, fingerprint, "fingerprint");
    assert_eq!(sections.len(), 4);
    for (i, name) in ["meta", "stats", "nodes", "index"].into_iter().enumerate() {
        assert_eq!(records[i + 1].1, sections[i], "{name} payload changed");
    }
    // The framing is 27 bytes smaller.
    assert_eq!(v2.len() - v3.len(), 27);

    // A store holding only the v2 file boots the group cold and reports
    // the file as rejected.
    let dir = std::env::temp_dir().join(format!("fastsim-v2-store-{}", std::process::id()));
    let fp = u64::from_le_bytes(fingerprint.try_into().unwrap());
    let group = dir.join(format!("{fp:016x}"));
    std::fs::create_dir_all(&group).expect("group directory");
    std::fs::write(group.join("gen-00000001.snap"), &v2).expect("v2 generation");
    let store = fastsim::core::SnapshotStore::open(&dir).expect("store opens");
    let (loaded, rejected) = store.load_latest(fp).expect("the scan succeeds");
    assert!(loaded.is_none(), "nothing decodable: the group boots cold");
    assert_eq!(rejected.len(), 1);
    assert!(matches!(
        &rejected[0].cause,
        fastsim::core::RejectCause::Decode(E::Frame(F::UnsupportedVersion { found: 2 }))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
