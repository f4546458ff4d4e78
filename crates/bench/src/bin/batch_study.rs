//! Batch-simulation study: runs a workload manifest through the parallel
//! batch driver for several rounds and reports how the shared warm
//! p-action cache pays off — fleet throughput, per-round memoization hit
//! rate (round 2 replays what round 1 merged), and per-job determinism.
//!
//! ```text
//! cargo run --release -p fastsim-bench --bin batch_study -- \
//!     --insts 500000 --workers 4 --rounds 2 --replicas 2 \
//!     [--filter compress] [--hierarchy three-level]
//! ```

use fastsim_core::batch::{BatchDriver, BatchJob};
use fastsim_core::{HierarchyConfig, LevelStats};
use fastsim_workloads::Manifest;

struct Args {
    insts: u64,
    workers: usize,
    rounds: usize,
    replicas: usize,
    filter: Option<String>,
    hierarchy: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        insts: 200_000,
        workers: 4,
        rounds: 2,
        replicas: 1,
        filter: None,
        hierarchy: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next()
                .and_then(|v| v.replace('_', "").parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a number"))
        };
        match arg.as_str() {
            "--insts" => out.insts = num("--insts"),
            "--workers" => out.workers = num("--workers") as usize,
            "--rounds" => out.rounds = num("--rounds") as usize,
            "--replicas" => out.replicas = num("--replicas") as usize,
            "--filter" => out.filter = args.next(),
            "--hierarchy" => out.hierarchy = args.next(),
            other => panic!(
                "unknown argument `{other}` (expected --insts/--workers/--rounds/--replicas/--filter/--hierarchy)"
            ),
        }
    }
    out
}

/// Resolves a preset name or exits with the known names.
fn resolve_preset(name: &str) -> HierarchyConfig {
    HierarchyConfig::preset(name).unwrap_or_else(|| {
        panic!(
            "unknown hierarchy preset `{name}` (known: {})",
            HierarchyConfig::preset_names().join(", ")
        )
    })
}

fn main() {
    let args = parse_args();
    let mut manifest = Manifest::mixed(args.insts).replicated(args.replicas);
    if let Some(f) = &args.filter {
        manifest = manifest.filtered(f);
    }
    if let Some(p) = &args.hierarchy {
        resolve_preset(p); // fail fast on a typo, before building jobs
        manifest = manifest.with_hierarchy(p);
    }
    assert!(!manifest.is_empty(), "filter matched no jobs");
    let jobs: Vec<BatchJob> = manifest
        .into_jobs()
        .into_iter()
        .map(|j| {
            let mut job = BatchJob::new(j.name, j.program);
            if let Some(p) = j.hierarchy.as_deref() {
                job.hierarchy = resolve_preset(p);
            }
            job
        })
        .collect();

    println!();
    println!(
        "=== batch_study: {} jobs, {} workers, {} rounds, hierarchy {} ===",
        jobs.len(),
        args.workers,
        args.rounds,
        args.hierarchy.as_deref().unwrap_or("table1 (default)")
    );
    if cfg!(debug_assertions) {
        println!("[WARNING: debug build — times are not meaningful]");
    }
    println!();

    let mut driver = BatchDriver::new(args.workers);
    let mut prev_hit_rate: Option<f64> = None;
    for round in 1..=args.rounds {
        let report = driver.run_round(&jobs).unwrap_or_else(|e| panic!("round {round}: {e}"));
        println!(
            "--- round {round}: {:.0} Kinsts/s fleet, hit rate {:.1}%, GC survival {:.1}% ---",
            report.insts_per_sec() / 1e3,
            report.memo_hit_rate() * 100.0,
            report.gc_survival_rate() * 100.0,
        );
        println!(
            "{:<18} {:>10} {:>10} {:>8} {:>10} {:>10}",
            "job", "cycles", "insts", "hit%", "cfgs+", "dedup"
        );
        for j in &report.jobs {
            println!(
                "{:<18} {:>10} {:>10} {:>7.1}% {:>10} {:>10}",
                j.name,
                j.stats.cycles,
                j.stats.retired_insts,
                j.hit_rate() * 100.0,
                j.merge.configs_added,
                j.merge.configs_deduped,
            );
        }
        // Per-level cache behaviour, summed over the fleet (every job in a
        // round runs the same hierarchy depth).
        let depth = report.jobs.iter().map(|j| j.level_stats.len()).max().unwrap_or(0);
        let mut agg = vec![LevelStats::default(); depth];
        for j in &report.jobs {
            for (a, l) in agg.iter_mut().zip(&j.level_stats) {
                a.hits += l.hits;
                a.misses += l.misses;
                a.mshr_stall_cycles += l.mshr_stall_cycles;
                a.writebacks += l.writebacks;
            }
        }
        println!(
            "{:<6} {:>12} {:>12} {:>7} {:>12} {:>11}",
            "level", "hits", "misses", "hit%", "mshr stalls", "writebacks"
        );
        for (i, l) in agg.iter().enumerate() {
            let total = (l.hits + l.misses).max(1);
            println!(
                "L{:<5} {:>12} {:>12} {:>6.1}% {:>12} {:>11}",
                i,
                l.hits,
                l.misses,
                l.hits as f64 / total as f64 * 100.0,
                l.mshr_stall_cycles,
                l.writebacks
            );
        }
        let merged = report.merged();
        println!(
            "merged: +{} configs, +{} actions, {} grafted branches, {} deduped",
            merged.configs_added, merged.actions_added, merged.branches_grafted, merged.configs_deduped
        );
        if let Some(prev) = prev_hit_rate {
            let now = report.memo_hit_rate();
            println!(
                "warm-cache effect: hit rate {:.1}% -> {:.1}% ({})",
                prev * 100.0,
                now * 100.0,
                if now > prev { "improved" } else { "no improvement" }
            );
        }
        prev_hit_rate = Some(report.memo_hit_rate());
        println!();
    }
}
