//! `chaos_smoke` — the CI entry point for serve-path chaos testing.
//!
//! Starts an in-process `fastsim-serve` server on a private Unix socket
//! with seeded server-side fault injection (response drops, mid-line
//! truncations, worker panics), drives the seeded client storm from
//! [`fastsim_fuzz::chaos`] (malformed and partial frames, slow-loris
//! dribbles, half-open sockets, mid-response disconnects, deadline
//! storms, per-job panic requests), then verifies the runbook
//! invariants: every admitted job settles, the metrics dump stays
//! schema-valid, and — after chaos is quiesced — served results are
//! bit-identical to an offline batch run (no cache poisoning). Writes a
//! schema-tagged JSON summary for `scripts/ci.sh` to gate on.
//!
//! ```text
//! chaos_smoke [--seed HEX] [--socket PATH] [--out PATH]
//! ```

fn main() -> std::process::ExitCode {
    #[cfg(unix)]
    {
        imp::run()
    }
    #[cfg(not(unix))]
    {
        eprintln!("chaos_smoke needs Unix-domain sockets; skipping on this platform");
        std::process::ExitCode::SUCCESS
    }
}

#[cfg(unix)]
mod imp {
    use fastsim_fuzz::chaos::{
        drain_and_verify, post_chaos_identity, run_storm, RetryClient, SeededFaults, StormConfig,
    };
    use fastsim_serve::json::Json;
    use fastsim_serve::server::{Listener, ServeConfig, Server};
    use std::path::PathBuf;
    use std::process::ExitCode;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    pub fn run() -> ExitCode {
        let mut seed: u64 = 0xc4a0_50de;
        let mut socket = PathBuf::from("target/chaos_smoke.sock");
        let mut out: Option<PathBuf> = None;

        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--seed" => {
                    let v = value("--seed");
                    let digits = v.strip_prefix("0x").unwrap_or(&v);
                    seed = u64::from_str_radix(digits, 16).unwrap_or_else(|_| {
                        eprintln!("--seed: cannot parse `{v}` as hex");
                        std::process::exit(2);
                    });
                }
                "--socket" => socket = PathBuf::from(value("--socket")),
                "--out" => out = Some(PathBuf::from(value("--out"))),
                "--help" | "-h" => {
                    println!("usage: chaos_smoke [--seed HEX] [--socket PATH] [--out PATH]");
                    return ExitCode::SUCCESS;
                }
                other => {
                    eprintln!("unknown flag `{other}` (try --help)");
                    return ExitCode::from(2);
                }
            }
        }

        if let Some(dir) = socket.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let started = Instant::now();
        let cfg = ServeConfig {
            workers: 2,
            refreeze_every: 2,
            backoff_base: Duration::from_millis(5),
            ..ServeConfig::default()
        };
        let faults = Arc::new(SeededFaults::new(seed));
        let listener = match Listener::unix(&socket) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind {}: {e}", socket.display());
                return ExitCode::FAILURE;
            }
        };
        let handle = Server::start_with_faults(cfg, vec![listener], faults.clone());

        // Phase 1: the storm, with server-side chaos live.
        let storm = run_storm(&socket, seed ^ 0x5707_1111, &StormConfig::default());
        eprintln!(
            "storm: {} admitted, {} deadline-stormed, {} malformed rejected, \
             {} partial frames ok, {} slow-loris ok, {} half-open ok, \
             {} mid-response disconnects, {} transport retries",
            storm.admitted,
            storm.deadline_admitted,
            storm.malformed_rejected,
            storm.partial_frames_ok,
            storm.slow_loris_ok,
            storm.half_open_ok,
            storm.mid_response_disconnects,
            storm.transport_retries
        );

        // Phase 2: settle + invariants (chaos still live — drain itself
        // must survive dropped responses).
        let (all_settled, settle_detail) = match drain_and_verify(&socket) {
            Ok(_) => (true, String::new()),
            Err(e) => (false, e),
        };
        if !all_settled {
            eprintln!("settled-state invariant violated: {settle_detail}");
        }

        // Phase 3: quiesce chaos, then demand bit-identity with an
        // offline batch run (no cache poisoning).
        faults.quiesce();
        let (post_chaos_identical, identity_detail) =
            match post_chaos_identity(&socket, 20_000) {
                Ok(()) => (true, String::new()),
                Err(e) => (false, e),
            };
        if !post_chaos_identical {
            eprintln!("post-chaos identity violated: {identity_detail}");
        }

        // Shut down, pull the final dump, and read the fault counts off
        // the seam.
        let mut client = RetryClient::new(&socket);
        let stopped = client.request(&Json::obj([("op", Json::from("shutdown"))]));
        let final_metrics = handle.wait();
        let metrics_schema_ok = stopped.get("ok").and_then(Json::as_bool) == Some(true)
            && final_metrics.get("schema").and_then(Json::as_str)
                == Some(fastsim_serve::metrics::SCHEMA)
            && Json::parse(&final_metrics.to_string()).as_ref() == Ok(&final_metrics);
        let faults_injected = faults.counts().total();

        let ok = all_settled
            && metrics_schema_ok
            && post_chaos_identical
            && storm.admitted > 0
            && storm.malformed_rejected > 0
            && storm.partial_frames_ok > 0
            && storm.slow_loris_ok > 0
            && storm.half_open_ok > 0
            && storm.mid_response_disconnects > 0
            && faults_injected > 0;
        let summary = Json::obj([
            ("schema", Json::from("fastsim-chaos-smoke/v1")),
            ("seed", Json::from(format!("{seed:#x}"))),
            ("admitted", Json::from(storm.admitted)),
            ("deadline_admitted", Json::from(storm.deadline_admitted)),
            ("rejected_submissions", Json::from(storm.rejected_submissions)),
            ("malformed_rejected", Json::from(storm.malformed_rejected)),
            ("partial_frames_ok", Json::from(storm.partial_frames_ok)),
            ("slow_loris_ok", Json::from(storm.slow_loris_ok)),
            ("half_open_ok", Json::from(storm.half_open_ok)),
            ("mid_response_disconnects", Json::from(storm.mid_response_disconnects)),
            ("transport_retries", Json::from(storm.transport_retries)),
            ("faults_injected", Json::from(faults_injected)),
            ("chaos", faults.to_json()),
            ("all_settled", Json::Bool(all_settled)),
            ("metrics_schema_ok", Json::Bool(metrics_schema_ok)),
            ("post_chaos_identical", Json::Bool(post_chaos_identical)),
            ("ok", Json::Bool(ok)),
            ("elapsed_ms", Json::from(started.elapsed().as_millis() as u64)),
            ("debug_build", Json::Bool(cfg!(debug_assertions))),
        ]);
        println!("{summary}");
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, format!("{summary}\n")) {
                eprintln!("cannot write --out {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
