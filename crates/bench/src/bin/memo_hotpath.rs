//! `memo_hotpath` — the memoization hot-path trajectory benchmark.
//!
//! The paper's speedup lives or dies in the per-interaction-cycle loop:
//! encode the configuration, look it up in the p-action cache, replay on a
//! hit. This binary self-times exactly that loop on the workload suite and
//! writes a machine-readable trajectory file (`BENCH_memo.json` by
//! default) so every future PR can be compared against the recorded
//! baseline.
//!
//! Per workload it reports:
//!
//! * `configs_per_sec` — encode + `register_config` throughput over a
//!   captured stream of real pipeline states (hit path, steady state);
//! * `encode_ns_per_config` — configuration encoding alone;
//! * `hit_rate` — configuration hit rate of a cold FastSim run;
//! * `ff_speedup` — end-to-end SlowSim time over warm-started FastSim
//!   time (the fast-forwarding payoff; the warm run's time includes
//!   thawing the cold run's snapshot, not freezing it);
//! * raw `slow_ms` / `cold_ms` / `warm_ms` wall times.
//!
//! Usage: `memo_hotpath [--insts N] [--filter SUBSTR] [--out PATH]`.
//! Run in release mode; a `debug_build: true` marker is embedded otherwise
//! so the trajectory can never silently mix debug numbers.

use fastsim_core::{HierarchyConfig, Mode, Simulator, UArchConfig};
use fastsim_isa::Program;
use fastsim_memo::{ActionKind, PActionCache, Policy, RetireCounts};
use fastsim_uarch::{encode_config, encode_config_into, PipelineState};
use fastsim_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// Captured pipeline states per workload for the micro loops.
const MAX_STATES: usize = 1024;
/// Timing samples per micro measurement (median reported).
const SAMPLES: usize = 7;

struct Args {
    insts: u64,
    filter: Option<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args { insts: 200_000, filter: None, out: "BENCH_memo.json".into() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--insts" => {
                parsed.insts = args
                    .next()
                    .and_then(|v| v.replace('_', "").parse().ok())
                    .unwrap_or_else(|| panic!("--insts needs a number"));
            }
            "--filter" => parsed.filter = args.next(),
            "--out" => parsed.out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}` (expected --insts/--filter/--out)"),
        }
    }
    parsed
}

struct Row {
    name: String,
    configs_per_sec: f64,
    encode_ns: f64,
    hit_rate: f64,
    ff_speedup: f64,
    slow_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
}

/// Samples real pipeline states from a short detailed (SlowSim) run.
fn capture_states(program: &Program, insts: u64) -> Vec<PipelineState> {
    let mut sim = Simulator::new(program, Mode::Slow).expect("slow sim builds");
    let states = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let sink = states.clone();
    sim.set_cycle_observer(Some(Box::new(move |_, state, _| {
        let mut sink = sink.borrow_mut();
        if sink.len() < MAX_STATES && !state.iq.is_empty() {
            sink.push(state.clone());
        }
    })));
    sim.run(insts.min(40_000)).expect("capture run");
    sim.set_cycle_observer(None);
    std::rc::Rc::into_inner(states).expect("observer dropped").into_inner()
}

/// Median of raw f64 samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The steady-state hot loop: encode every captured state and register it,
/// against a cache pre-populated with every configuration (hit path).
fn time_hot_loop(states: &[PipelineState], prog: &fastsim_isa::DecodedProgram) -> f64 {
    let mut pc = PActionCache::new(Policy::Unbounded);
    for st in states {
        let bytes = encode_config(st, prog);
        if pc.register_config(&bytes) == fastsim_memo::ConfigLookup::Miss {
            pc.record_action(ActionKind::Advance { cycles: 1, retired: RetireCounts::default() });
        }
    }
    pc.record_action(ActionKind::Finish);
    // Timed passes: every registration is a hit, exactly the engine's
    // per-interaction-cycle cost (encode into the reused scratch buffer +
    // one-hash arena lookup — zero allocations at steady state).
    let mut scratch = Vec::new();
    let passes = (20_000 / states.len().max(1)).max(1);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                for st in states {
                    encode_config_into(&mut scratch, std::hint::black_box(st), prog);
                    std::hint::black_box(pc.register_config(&scratch));
                }
            }
            let dt = start.elapsed().as_secs_f64();
            (passes * states.len()) as f64 / dt
        })
        .collect();
    median(samples)
}

/// Encoding alone (into a reused scratch buffer), ns per configuration.
fn time_encode(states: &[PipelineState], prog: &fastsim_isa::DecodedProgram) -> f64 {
    let mut scratch = Vec::new();
    let passes = (20_000 / states.len().max(1)).max(1);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                for st in states {
                    encode_config_into(&mut scratch, std::hint::black_box(st), prog);
                    std::hint::black_box(&scratch);
                }
            }
            start.elapsed().as_secs_f64() * 1e9 / (passes * states.len()) as f64
        })
        .collect();
    median(samples)
}

fn run_workload(w: &Workload, insts: u64) -> Row {
    let program = w.program_for_insts(insts);
    let prog = program.predecode().expect("program decodes");
    let states = capture_states(&program, insts);
    assert!(!states.is_empty(), "{}: no pipeline states captured", w.name);

    let configs_per_sec = time_hot_loop(&states, &prog);
    let encode_ns = time_encode(&states, &prog);

    // End-to-end: SlowSim, cold FastSim, warm FastSim.
    let start = Instant::now();
    let mut slow = Simulator::new(&program, Mode::Slow).expect("slow builds");
    slow.run_to_completion().expect("slow completes");
    let slow_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut cold = Simulator::new(&program, Mode::fast()).expect("fast builds");
    cold.run_to_completion().expect("fast completes");
    let cold_s = start.elapsed().as_secs_f64();
    let hit_rate = cold.memo_stats().expect("fast mode").hit_rate();
    let snapshot = cold.take_warm_cache().expect("fast mode").freeze();

    let start = Instant::now();
    let mut warm = Simulator::with_warm_snapshot(
        &program,
        &snapshot,
        UArchConfig::table1(),
        HierarchyConfig::table1(),
    )
    .expect("warm builds");
    warm.run_to_completion().expect("warm completes");
    let warm_s = start.elapsed().as_secs_f64();
    assert_eq!(warm.stats().cycles, slow.stats().cycles, "{}: exactness", w.name);

    Row {
        name: w.name.to_string(),
        configs_per_sec,
        encode_ns,
        hit_rate,
        ff_speedup: slow_s / warm_s.max(1e-9),
        slow_ms: slow_s * 1e3,
        cold_ms: cold_s * 1e3,
        warm_ms: warm_s * 1e3,
    }
}

fn geomean(xs: impl Iterator<Item = f64> + Clone, n: usize) -> f64 {
    (xs.map(|x| x.max(1e-12).ln()).sum::<f64>() / n.max(1) as f64).exp()
}

fn main() {
    let args = parse_args();
    let workloads: Vec<Workload> = fastsim_workloads::all()
        .into_iter()
        .filter(|w| args.filter.as_deref().is_none_or(|f| w.name.contains(f)))
        .collect();
    assert!(!workloads.is_empty(), "filter matched no workloads");

    println!();
    println!("=== memo_hotpath: memoization hot-path trajectory ===");
    println!("target insts/workload: {}{}", args.insts, if cfg!(debug_assertions) {
        "  [WARNING: debug build — times are not meaningful]"
    } else {
        ""
    });
    println!();
    println!(
        "{:<14} {:>14} {:>12} {:>9} {:>11} {:>9} {:>9} {:>9}",
        "workload", "configs/sec", "encode ns", "hit rate", "ff speedup", "slow ms", "cold ms",
        "warm ms"
    );

    let rows: Vec<Row> = workloads
        .iter()
        .map(|w| {
            let r = run_workload(w, args.insts);
            println!(
                "{:<14} {:>14.0} {:>12.1} {:>9.4} {:>11.2} {:>9.1} {:>9.1} {:>9.1}",
                r.name, r.configs_per_sec, r.encode_ns, r.hit_rate, r.ff_speedup, r.slow_ms,
                r.cold_ms, r.warm_ms
            );
            r
        })
        .collect();

    let n = rows.len();
    let sum_cps = geomean(rows.iter().map(|r| r.configs_per_sec), n);
    let sum_enc = geomean(rows.iter().map(|r| r.encode_ns), n);
    let sum_hit = rows.iter().map(|r| r.hit_rate).sum::<f64>() / n as f64;
    let sum_ff = geomean(rows.iter().map(|r| r.ff_speedup), n);
    println!();
    println!(
        "geomean configs/sec {:.0}   geomean encode {:.1} ns   mean hit rate {:.4}   geomean ff speedup {:.2}x",
        sum_cps, sum_enc, sum_hit, sum_ff
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"fastsim-memo-hotpath/v1\",");
    let _ = writeln!(json, "  \"insts_per_workload\": {},", args.insts);
    let _ = writeln!(json, "  \"debug_build\": {},", cfg!(debug_assertions));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"configs_per_sec\": {:.1}, \"encode_ns_per_config\": {:.2}, \"hit_rate\": {:.6}, \"ff_speedup\": {:.3}, \"slow_ms\": {:.2}, \"cold_ms\": {:.2}, \"warm_ms\": {:.2}}}{}",
            r.name,
            r.configs_per_sec,
            r.encode_ns,
            r.hit_rate,
            r.ff_speedup,
            r.slow_ms,
            r.cold_ms,
            r.warm_ms,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": {\n");
    let _ = writeln!(json, "    \"workloads\": {},", n);
    let _ = writeln!(json, "    \"configs_per_sec_geomean\": {:.1},", sum_cps);
    let _ = writeln!(json, "    \"encode_ns_per_config_geomean\": {:.2},", sum_enc);
    let _ = writeln!(json, "    \"hit_rate_mean\": {:.6},", sum_hit);
    let _ = writeln!(json, "    \"ff_speedup_geomean\": {:.3}", sum_ff);
    json.push_str("  }\n}\n");
    std::fs::write(&args.out, json).expect("write trajectory file");
    println!("wrote {}", args.out);
}
