//! The batch driver's central guarantee: batch-parallel simulation is
//! **bit-identical** to sequential simulation, job for job — worker count
//! and scheduling never leak into the results. Plus the payoff it exists
//! for: the merged warm cache makes every round after the first cheaper.

use fastsim::core::batch::{BatchDriver, BatchJob, BatchReport};
use fastsim::core::HierarchyConfig;
use fastsim::workloads::Manifest;

/// The reference job list: integer and floating-point kernels, with
/// replicas so jobs share warm-cache groups within a round.
fn jobs() -> Vec<BatchJob> {
    jobs_with_hierarchy(None)
}

/// Same list, optionally under a named hierarchy preset (resolved the way
/// the bench bins resolve manifest `hierarchy` fields).
fn jobs_with_hierarchy(preset: Option<&str>) -> Vec<BatchJob> {
    let mut manifest = Manifest::mixed(60_000).replicated(2);
    if let Some(p) = preset {
        manifest = manifest.with_hierarchy(p);
    }
    manifest
        .into_jobs()
        .into_iter()
        .map(|j| {
            let mut job = BatchJob::new(j.name, j.program);
            if let Some(p) = j.hierarchy.as_deref() {
                job.hierarchy = HierarchyConfig::preset(p).expect("named preset");
            }
            job
        })
        .collect()
}

/// Runs `rounds` rounds with a fresh driver at the given worker count.
fn run(workers: usize, rounds: usize) -> Vec<BatchReport> {
    let jobs = jobs();
    let mut driver = BatchDriver::new(workers);
    (0..rounds).map(|_| driver.run_round(&jobs).expect("round runs")).collect()
}

#[test]
fn worker_count_never_changes_per_job_statistics() {
    let reference = run(1, 2);
    for workers in [2, 4] {
        let parallel = run(workers, 2);
        for (round, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.jobs.len(), p.jobs.len());
            for (a, b) in r.jobs.iter().zip(&p.jobs) {
                assert_eq!(a.name, b.name);
                // Bit-identical: engine statistics, cache statistics, the
                // memoization counters, and what each job merged.
                assert_eq!(a.stats, b.stats, "{workers} workers, round {round}: {}", a.name);
                assert_eq!(
                    a.cache_stats, b.cache_stats,
                    "{workers} workers, round {round}: {}",
                    a.name
                );
                assert_eq!(a.memo, b.memo, "{workers} workers, round {round}: {}", a.name);
                assert_eq!(
                    (a.memo_hits, a.memo_misses),
                    (b.memo_hits, b.memo_misses),
                    "{workers} workers, round {round}: {}",
                    a.name
                );
                assert_eq!(a.merge, b.merge, "{workers} workers, round {round}: {}", a.name);
            }
        }
    }
}

#[test]
fn determinism_holds_for_every_hierarchy_preset() {
    // Worker count must not leak into results at any hierarchy depth, and
    // every report must carry per-level statistics matching that depth.
    for preset in HierarchyConfig::preset_names() {
        let depth = HierarchyConfig::preset(preset).expect("named preset").depth();
        let jobs = jobs_with_hierarchy(Some(preset));
        let mut reference_driver = BatchDriver::new(1);
        let mut parallel_driver = BatchDriver::new(4);
        for round in 0..2 {
            let r = reference_driver.run_round(&jobs).expect("reference round");
            let p = parallel_driver.run_round(&jobs).expect("parallel round");
            for (a, b) in r.jobs.iter().zip(&p.jobs) {
                let ctx = format!("{preset}, round {round}: {}", a.name);
                assert_eq!(a.level_stats.len(), depth, "{ctx}: level count");
                assert_eq!(a.stats, b.stats, "{ctx}: SimStats");
                assert_eq!(a.cache_stats, b.cache_stats, "{ctx}: cache stats");
                assert_eq!(a.level_stats, b.level_stats, "{ctx}: per-level stats");
                assert_eq!(a.memo, b.memo, "{ctx}: memo stats");
                assert_eq!(a.merge, b.merge, "{ctx}: merge outcome");
            }
        }
    }
}

#[test]
fn hierarchies_never_share_warm_caches() {
    // Jobs simulated under different hierarchies must land in different
    // fingerprint groups — a warm CacheSnapshot recorded against one
    // memory model would poison replay under another.
    let two = jobs_with_hierarchy(None);
    let three = jobs_with_hierarchy(Some("three-level"));
    let one = jobs_with_hierarchy(Some("tiny-l1"));
    for ((a, b), c) in two.iter().zip(&three).zip(&one) {
        assert_ne!(a.fingerprint(), b.fingerprint(), "{}", a.name);
        assert_ne!(a.fingerprint(), c.fingerprint(), "{}", a.name);
        assert_ne!(b.fingerprint(), c.fingerprint(), "{}", a.name);
    }
}

#[test]
fn repeated_batch_runs_are_reproducible() {
    // Same worker count, two fresh drivers: identical down to the merge
    // accounting (nothing in the driver depends on time or addresses).
    let first = run(4, 2);
    let second = run(4, 2);
    for (r, p) in first.iter().zip(&second) {
        for (a, b) in r.jobs.iter().zip(&p.jobs) {
            assert_eq!(a.stats, b.stats, "{}", a.name);
            assert_eq!(a.memo, b.memo, "{}", a.name);
            assert_eq!(a.merge, b.merge, "{}", a.name);
        }
    }
}

#[test]
fn merged_warm_cache_raises_round_two_hit_rate() {
    for workers in [1, 4] {
        let rounds = run(workers, 2);
        let (r1, r2) = (&rounds[0], &rounds[1]);
        assert!(
            r2.memo_hit_rate() > r1.memo_hit_rate(),
            "{workers} workers: round 2 hit rate {:.3} must beat round 1 {:.3}",
            r2.memo_hit_rate(),
            r1.memo_hit_rate()
        );
        for (a, b) in r1.jobs.iter().zip(&r2.jobs) {
            // Warmth moves work from detailed simulation to replay but
            // never changes simulation results.
            assert_eq!(a.stats.cycles, b.stats.cycles, "{}", a.name);
            assert_eq!(a.stats.retired_insts, b.stats.retired_insts, "{}", a.name);
            assert!(
                b.stats.detailed_insts < a.stats.detailed_insts,
                "{}: round 2 detailed {} vs round 1 {}",
                a.name,
                b.stats.detailed_insts,
                a.stats.detailed_insts
            );
        }
        // Round 2 discovers nothing the merged master doesn't know.
        assert!(r2.merged().is_noop(), "{workers} workers: round 2 merges nothing new");
    }
}

#[test]
fn within_round_replicas_share_the_frozen_snapshot() {
    // Replicas of the same kernel run from the same round-start snapshot,
    // so they report identical statistics within the round — the cleanest
    // demonstration that mid-round merges never happen.
    for report in run(4, 2) {
        for pair in report.jobs.chunks(2) {
            assert_eq!(pair[0].stats, pair[1].stats, "{} vs {}", pair[0].name, pair[1].name);
            assert_eq!(pair[0].memo, pair[1].memo, "{} vs {}", pair[0].name, pair[1].name);
        }
    }
}

// ---------------------------------------------------------------------
// Merge pin: every merge's outcome and every master's content after each
// round, committed as a golden table. The tests above compare runs with
// each other, so a change that moves every run the same way passes them;
// this table does not.
// ---------------------------------------------------------------------

/// Path of the committed merge table.
const MERGE_PIN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/merge_pin.tsv");

/// Rounds the pinned job list runs.
const MERGE_PIN_ROUNDS: usize = 3;

/// One pinned group: its label, its job (run twice per round), and, for a
/// group seeded before round 1, the limit of the flush-on-full cold run
/// whose warm cache it imports.
struct PinGroup {
    label: String,
    job: BatchJob,
    seed_limit: Option<usize>,
}

/// The pinned groups, one per kernel × preset under an unbounded cache.
/// Half of them start from an imported snapshot of a cold run that flushed:
/// that master lacks outcomes the full run sees, so their jobs graft
/// branches onto inherited nodes. Three more groups run under small
/// limits, so their working copies flush (and merge with `base_len = 0`)
/// or collect.
fn merge_pin_groups() -> Vec<PinGroup> {
    use fastsim::memo::Policy;
    const INSTS: u64 = 20_000;
    let mut groups = Vec::new();
    let mut add = |kernel: &str, preset: &str, policy: Policy, seed_limit: Option<usize>| {
        let w = fastsim::workloads::by_name(kernel).expect("kernel exists");
        let mut job = BatchJob::new(w.name, w.program_for_insts(INSTS));
        job.hierarchy = HierarchyConfig::preset(preset).expect("named preset");
        job.policy = policy;
        let policy_name = match policy {
            Policy::Unbounded => "unbounded".to_string(),
            Policy::FlushOnFull { limit } => format!("flush-{limit}"),
            Policy::CopyingGc { limit } => format!("gc-{limit}"),
            Policy::GenerationalGc { limit } => format!("gen-{limit}"),
        };
        let seed = seed_limit.map_or(String::new(), |l| format!("+seed-{l}"));
        groups.push(PinGroup {
            label: format!("{}@{preset}/{policy_name}{seed}", w.name),
            job,
            seed_limit,
        });
    };
    for (kernel, seed_limit) in
        [("compress", Some(8 << 10)), ("vortex", None), ("su2cor", Some(8 << 10)), ("fpppp", None)]
    {
        for &preset in HierarchyConfig::preset_names() {
            add(kernel, preset, Policy::Unbounded, seed_limit);
        }
    }
    add("li", "table1", Policy::FlushOnFull { limit: 16 << 10 }, None);
    add("go", "table1", Policy::CopyingGc { limit: 32 << 10 }, None);
    add("perl", "table1", Policy::GenerationalGc { limit: 32 << 10 }, None);
    groups
}

/// The fingerprint and the section payloads of an encoded snapshot,
/// concatenated. Every other byte of the file is a constant of the format
/// or derived from these, so hashing them pins the master's content
/// without pinning the framing. Trusts the framing: the bytes are the
/// encoder's own.
fn snapshot_content(bytes: &[u8]) -> Vec<u8> {
    // fastsim-snapshot/v3: a 12-byte header, then records of
    // kind u8 | len u32 | payload | checksum u64, the first of which holds
    // the fingerprint.
    let mut content = Vec::new();
    let mut pos = 12;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        content.extend_from_slice(&bytes[pos + 5..pos + 5 + len]);
        pos += 5 + len + 8;
    }
    content
}

/// One row per merge (every `MergeOutcome` field) and, after each round,
/// one row per group master with the `hash64` of its snapshot's content
/// ([`snapshot_content`]) — which covers its nodes, edge order, accessed
/// and tenured bits, statistics, version and configuration index. Round 0
/// holds the seeding imports.
fn merge_pin_table() -> String {
    use fastsim::core::{Mode, Simulator};
    use fastsim::memo::{encode_snapshot, MergeOutcome, Policy};
    let groups = merge_pin_groups();
    let jobs: Vec<BatchJob> =
        groups.iter().flat_map(|g| [g.job.clone(), g.job.clone()]).collect();
    let mut driver = BatchDriver::new(1);
    let mut out = String::from(
        "round\trow\tgroup\tconfigs_added\tactions_added\tbranches_grafted\t\
         configs_deduped\tbytes_added\tmaster_hash\n",
    );
    let merge_row = |out: &mut String, round: usize, row: &str, label: &str, m: MergeOutcome| {
        out.push_str(&format!(
            "{round}\t{row}\t{label}\t{}\t{}\t{}\t{}\t{}\t-\n",
            m.configs_added, m.actions_added, m.branches_grafted, m.configs_deduped, m.bytes_added
        ));
    };
    let master_rows = |out: &mut String, round: usize, driver: &BatchDriver| {
        for g in &groups {
            let fp = g.job.fingerprint();
            let Some(master) = driver.warm_snapshot(fp) else { continue };
            let hash =
                fastsim_hash::hash64(&snapshot_content(&encode_snapshot(master.cache(), fp)));
            out.push_str(&format!("{round}\tmaster\t{}\t-\t-\t-\t-\t-\t{hash:016x}\n", g.label));
        }
    };
    for g in &groups {
        let Some(limit) = g.seed_limit else { continue };
        let policy = Policy::FlushOnFull { limit };
        let mut cold = Simulator::with_configs(
            &g.job.program,
            Mode::Fast { policy },
            g.job.uarch,
            g.job.hierarchy.clone(),
        )
        .expect("seed run builds");
        cold.run_to_completion().expect("seed run completes");
        let seed = cold.take_warm_cache().expect("fast mode").freeze();
        driver.ensure_group(&g.job);
        let m = driver.import_snapshot(&seed).expect("the group exists, so the import merges");
        merge_row(&mut out, 0, "import", &g.label, m);
    }
    master_rows(&mut out, 0, &driver);
    for round in 1..=MERGE_PIN_ROUNDS {
        let report = driver.run_round(&jobs).expect("round runs");
        for (i, job) in report.jobs.iter().enumerate() {
            let label = format!("{}#{}", groups[i / 2].label, i % 2);
            merge_row(&mut out, round, "merge", &label, job.merge);
        }
        master_rows(&mut out, round, &driver);
    }
    out
}

/// Regenerates the committed table. Run explicitly after an
/// *intentional* change to what merges produce:
/// `cargo test --test batch_determinism regenerate_merge_pin -- --ignored`
#[test]
#[ignore = "maintenance: rewrites the committed merge pin"]
fn regenerate_merge_pin_fixture() {
    std::fs::write(MERGE_PIN, merge_pin_table()).expect("write fixture");
}

#[test]
fn merges_match_the_committed_pin() {
    let golden = std::fs::read_to_string(MERGE_PIN).expect("merge pin is committed");
    // The pin must see the merge paths it exists for: grafts onto
    // inherited nodes and first-writer-wins configuration dedup.
    let column_sum = |col: usize| -> u64 {
        golden
            .lines()
            .skip(1)
            .filter(|l| l.split('\t').nth(1) == Some("merge"))
            .map(|l| l.split('\t').nth(col).expect("column").parse::<u64>().expect("count"))
            .sum()
    };
    assert!(column_sum(5) > 0, "no merge in the pin grafts a branch");
    assert!(column_sum(6) > 0, "no merge in the pin dedups a configuration");
    let fresh = merge_pin_table();
    for (i, (want, got)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            got, want,
            "row {i} of tests/fixtures/merge_pin.tsv changed \
             (if the merge change is intentional: regenerate the pin)"
        );
    }
    assert_eq!(fresh.lines().count(), golden.lines().count(), "row count changed");
    assert_eq!(fresh, golden, "merge pin differs byte for byte");
}
