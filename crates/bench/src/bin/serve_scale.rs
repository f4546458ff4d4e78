//! `serve_scale` — connection-scaling benchmark for the event-loop server.
//!
//! The point of the readiness-driven serving tier is that connection
//! count is decoupled from thread count: an idle connection is a table
//! entry on the I/O thread, not an OS thread. This benchmark proves it
//! end to end. It starts an in-process server on a private Unix socket,
//! then sweeps tiers of mostly-idle connections (default
//! 64 → 256 → 1024 → 4096 → 8192): each tier parks that many idle
//! clients on the loop and drives a **fixed active core** — one client
//! submitting the same kernel repeatedly with `wait: true` — through the
//! crowd. Per tier it records jobs/sec and the active client's p50/p99
//! end-to-end latency, plus the loop's wakeup/ready-event deltas.
//!
//! The pass criterion (`idle_scaling_ok`) is that every tier's p99 is no
//! worse than the first (baseline) tier's, within a noise tolerance (1.5×
//! ratio or 5 ms absolute, whichever is more forgiving — the machine also
//! runs the workers, so a scheduler hiccup must not fail the sweep
//! spuriously). Both tests grow with a tier's p99, so the slowest tier
//! decides; the summary and the verdict line name it. Tiers that would
//! exceed the process fd limit (each idle connection costs two fds,
//! client and server end) are skipped with a note rather than failing.
//!
//! ```text
//! cargo run --release -p fastsim-bench --bin serve_scale --
//!     [--tiers 64,256,1024,4096,8192] [--rounds N] [--insts N]
//!     [--workers N] [--out BENCH_serve.json]
//! ```
//!
//! Output: a Markdown table plus a machine-readable
//! `fastsim-serve-scale/v1` JSON file (`BENCH_serve.json` by default)
//! that `scripts/ci.sh` smoke-checks on every run.

use fastsim_serve::client::Client;
use fastsim_serve::json::Json;
use fastsim_serve::server::{Listener, ServeConfig, Server, ServerHandle};
use std::fmt::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    tiers: Vec<usize>,
    rounds: usize,
    insts: u64,
    workers: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        tiers: vec![64, 256, 1024, 4096, 8192],
        rounds: 40,
        insts: 20_000,
        workers: 2,
        out: "BENCH_serve.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--tiers" => {
                parsed.tiers = value("--tiers")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--tiers: list of counts"))
                    .collect();
            }
            "--rounds" => parsed.rounds = value("--rounds").parse().expect("--rounds"),
            "--insts" => parsed.insts = value("--insts").parse().expect("--insts"),
            "--workers" => parsed.workers = value("--workers").parse().expect("--workers"),
            "--out" => parsed.out = value("--out"),
            other => panic!("unknown argument `{other}` (expected --tiers/--rounds/--insts/--workers/--out)"),
        }
    }
    assert!(!parsed.tiers.is_empty(), "--tiers must name at least one tier");
    parsed
}

struct TierRow {
    idle: usize,
    held: u64,
    jobs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    loop_wakeups: u64,
    ready_events: u64,
}

/// The soft fd limit from `/proc/self/limits` (no libc in the workspace;
/// the proc file is the zero-dependency way to ask). Falls back to 1024.
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("Max open files"))?;
            line.split_whitespace().nth(3)?.parse().ok()
        })
        .unwrap_or(1024)
}

fn event_loop_counter(metrics: &Json, key: &str) -> u64 {
    metrics
        .get("event_loop")
        .and_then(|ev| ev.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One submit-and-wait round of the active core; returns its end-to-end
/// latency. Panics if the served job did not settle `done` — a scaling
/// benchmark on a misbehaving server would be meaningless.
fn active_round(client: &mut Client, insts: u64, round: usize) -> Duration {
    let submit = Json::obj([
        ("op", Json::from("submit")),
        ("kernels", Json::Arr(vec![Json::from("compress")])),
        ("insts", Json::from(insts)),
        ("client", Json::from("active-core")),
        ("wait", Json::Bool(true)),
    ]);
    let start = Instant::now();
    let resp = client.expect_ok(&submit).unwrap_or_else(|e| panic!("round {round}: {e}"));
    let latency = start.elapsed();
    let jobs = resp.get("jobs").and_then(Json::as_arr).expect("jobs array");
    for job in jobs {
        assert_eq!(
            job.get("status").and_then(Json::as_str),
            Some("done"),
            "round {round}: active job must settle done"
        );
    }
    latency
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

fn run_tier(
    handle: &ServerHandle,
    socket: &std::path::Path,
    active: &mut Client,
    idle_count: usize,
    rounds: usize,
    insts: u64,
) -> TierRow {
    // Park the idle herd. Unix-socket connect blocks until the loop
    // accepts, so no readiness dance is needed on the client side.
    let idle: Vec<UnixStream> = (0..idle_count)
        .map(|i| UnixStream::connect(socket).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (handle.open_connections() as usize) < idle_count {
        assert!(Instant::now() < deadline, "server never accepted the {idle_count}-conn herd");
        std::thread::sleep(Duration::from_millis(2));
    }
    let held = handle.open_connections();

    let before = active.metrics().expect("metrics before tier");
    let mut samples = Vec::with_capacity(rounds);
    let start = Instant::now();
    for round in 0..rounds {
        samples.push(active_round(active, insts, round));
    }
    let elapsed = start.elapsed();
    let after = active.metrics().expect("metrics after tier");

    drop(idle);
    // Let the loop reap the herd before the next tier piles on.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.open_connections() > 1 {
        assert!(Instant::now() < deadline, "server never reaped the {idle_count}-conn herd");
        std::thread::sleep(Duration::from_millis(2));
    }

    samples.sort();
    TierRow {
        idle: idle_count,
        held,
        jobs_per_sec: rounds as f64 / elapsed.as_secs_f64(),
        p50_us: percentile_us(&samples, 0.50),
        p99_us: percentile_us(&samples, 0.99),
        loop_wakeups: event_loop_counter(&after, "loop_wakeups")
            - event_loop_counter(&before, "loop_wakeups"),
        ready_events: event_loop_counter(&after, "ready_events")
            - event_loop_counter(&before, "ready_events"),
    }
}

fn main() {
    let args = parse_args();
    let socket =
        std::env::temp_dir().join(format!("fastsim_serve_scale_{}.sock", std::process::id()));
    let cfg = ServeConfig { workers: args.workers, ..ServeConfig::default() };
    let handle =
        Server::start(cfg, vec![Listener::unix(&socket).expect("bind scale socket")]);

    println!();
    println!("=== serve_scale: idle-connection scaling of the event-loop server ===");
    println!(
        "active core: submit compress x{} insts, wait:true, {} rounds/tier, {} workers{}",
        args.insts,
        args.rounds,
        args.workers,
        if cfg!(debug_assertions) { "  [WARNING: debug build — times are not meaningful]" } else { "" }
    );

    // Warm the server's caches first so every tier measures steady state
    // (the cold tier would otherwise pay the detailed-simulation cost and
    // dwarf any connection-scaling signal).
    let mut active = Client::connect_unix(&socket).expect("connect active core");
    for round in 0..5 {
        active_round(&mut active, args.insts, round);
    }

    // Each idle connection costs two fds in this process (client end +
    // server end); leave headroom for the workspace's own files.
    let budget = fd_limit().saturating_sub(64) / 2;
    let mut skipped: Vec<usize> = Vec::new();

    println!();
    println!("| idle conns | held | jobs/sec | p50 (us) | p99 (us) | loop wakeups | ready events |");
    println!("|-----------:|-----:|---------:|---------:|---------:|-------------:|-------------:|");
    let mut rows: Vec<TierRow> = Vec::new();
    for &tier in &args.tiers {
        if tier > budget {
            skipped.push(tier);
            continue;
        }
        let row = run_tier(&handle, &socket, &mut active, tier, args.rounds, args.insts);
        println!(
            "| {} | {} | {:.1} | {:.0} | {:.0} | {} | {} |",
            row.idle, row.held, row.jobs_per_sec, row.p50_us, row.p99_us, row.loop_wakeups,
            row.ready_events
        );
        rows.push(row);
    }
    for tier in &skipped {
        println!("(skipped {tier}-conn tier: over the fd budget of {budget} idle conns)");
    }
    assert!(!rows.is_empty(), "every tier was over the fd budget");

    active.shutdown().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_file(&socket);

    // Pass criterion: no crowd may slow the active client. The tolerance
    // grows with a tier's p99, so checking the slowest tier checks all.
    let baseline = &rows[0];
    let top = rows.last().expect("at least one tier");
    let ratio = top.p99_us / baseline.p99_us.max(1e-9);
    let worst = rows
        .iter()
        .max_by(|a, b| a.p99_us.total_cmp(&b.p99_us))
        .expect("at least one tier");
    let worst_ratio = worst.p99_us / baseline.p99_us.max(1e-9);
    let idle_scaling_ok = worst_ratio <= 1.5 || worst.p99_us - baseline.p99_us <= 5_000.0;
    println!();
    println!(
        "worst p99 {} conns {:.0} us vs baseline ({} conns) {:.0} us — ratio {:.3} ({})",
        worst.idle,
        worst.p99_us,
        baseline.idle,
        baseline.p99_us,
        worst_ratio,
        if idle_scaling_ok { "ok" } else { "REGRESSION" }
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"fastsim-serve-scale/v1\",");
    let _ = writeln!(json, "  \"debug_build\": {},", cfg!(debug_assertions));
    let _ = writeln!(json, "  \"rounds_per_tier\": {},", args.rounds);
    let _ = writeln!(json, "  \"insts\": {},", args.insts);
    let _ = writeln!(json, "  \"workers\": {},", args.workers);
    let _ = writeln!(json, "  \"kernel\": \"compress\",");
    json.push_str("  \"tiers\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"connections_idle\": {}, \"connections_held\": {}, \"jobs_per_sec\": {:.2}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"loop_wakeups\": {}, \"ready_events\": {}}}{}",
            r.idle,
            r.held,
            r.jobs_per_sec,
            r.p50_us,
            r.p99_us,
            r.loop_wakeups,
            r.ready_events,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": {\n");
    let _ = writeln!(json, "    \"baseline_connections\": {},", baseline.idle);
    let _ = writeln!(json, "    \"baseline_p99_us\": {:.1},", baseline.p99_us);
    let _ = writeln!(json, "    \"max_connections_held\": {},", top.held);
    let _ = writeln!(json, "    \"max_tier_p99_us\": {:.1},", top.p99_us);
    let _ = writeln!(json, "    \"p99_ratio_max_over_baseline\": {:.4},", ratio);
    let _ = writeln!(json, "    \"worst_tier_connections\": {},", worst.idle);
    let _ = writeln!(json, "    \"worst_p99_ratio_over_baseline\": {:.4},", worst_ratio);
    let _ = writeln!(
        json,
        "    \"skipped_tiers\": [{}],",
        skipped.iter().map(usize::to_string).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "    \"idle_scaling_ok\": {idle_scaling_ok}");
    json.push_str("  }\n}\n");

    let out = PathBuf::from(&args.out);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    assert!(idle_scaling_ok, "idle-connection scaling regressed (see table above)");
}
