//! `snapshot_study` — the durable warm-cache lifecycle benchmark.
//!
//! Three legs over the same job round, all demanded bit-identical:
//!
//! * **cold** — a fresh [`BatchDriver`], empty caches: the price a fleet
//!   pays every time warmth dies with the process.
//! * **warm (store)** — the cold driver's snapshots are persisted to a
//!   durable [`SnapshotStore`], then a *brand-new* driver adopts them at
//!   boot — the killed-and-restarted-server scenario.
//! * **warm (import)** — the snapshots are shipped as encoded
//!   `fastsim-snapshot/v3` bytes and strict-decoded into another new
//!   driver — the fleet-shipping (`snapshot_export`/`snapshot_import`)
//!   scenario.
//!
//! Reports wall times, memoization hit rates, codec throughput
//! (encode/decode MB/s) and store I/O, then writes a machine-readable
//! `BENCH_snapshot.json` (schema `fastsim-snapshot-study/v1`) so every
//! future PR can be compared against the recorded trajectory. The run
//! fails (nonzero exit) if any leg's simulated results diverge or a
//! warmed leg's hit rate falls below the 0.9 floor `docs/snapshots.md`
//! promises.
//!
//! Usage: `snapshot_study [--insts N] [--workers N] [--replicas N]
//! [--filter SUBSTR] [--out PATH]`.

use fastsim_core::batch::{BatchDriver, BatchJob, BatchReport};
use fastsim_core::{SnapshotStore, WarmCacheSnapshot};
use fastsim_serve::json::Json;
use fastsim_workloads::Manifest;
use std::collections::BTreeMap;
use std::time::Instant;

/// The hit-rate floor a warmed leg must clear — the same contract the
/// serve-layer restart test and `docs/snapshots.md` hold the store to.
const WARM_HIT_RATE_FLOOR: f64 = 0.9;

struct Args {
    insts: u64,
    workers: usize,
    replicas: usize,
    filter: Option<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        insts: 100_000,
        workers: 4,
        replicas: 2,
        filter: None,
        out: "BENCH_snapshot.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next()
                .and_then(|v| v.replace('_', "").parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a number"))
        };
        match arg.as_str() {
            "--insts" => parsed.insts = num("--insts"),
            "--workers" => parsed.workers = num("--workers") as usize,
            "--replicas" => parsed.replicas = num("--replicas") as usize,
            "--filter" => parsed.filter = args.next(),
            "--out" => parsed.out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown argument `{other}` (expected --insts/--workers/--replicas/--filter/--out)"
            ),
        }
    }
    parsed
}

/// `name -> deterministic result fields`, the cross-leg identity key.
fn result_map(report: &BatchReport) -> BTreeMap<String, Vec<u64>> {
    report
        .jobs
        .iter()
        .map(|j| {
            (
                j.name.clone(),
                vec![
                    j.stats.cycles,
                    j.stats.retired_insts,
                    j.cache_stats.loads,
                    j.cache_stats.stores,
                    j.cache_stats.l1_misses,
                    j.cache_stats.writebacks,
                ],
            )
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let mut manifest = Manifest::mixed(args.insts).replicated(args.replicas);
    if let Some(f) = &args.filter {
        manifest = manifest.filtered(f);
    }
    assert!(!manifest.is_empty(), "filter matched no jobs");
    let jobs: Vec<BatchJob> = manifest
        .into_jobs()
        .into_iter()
        .map(|j| BatchJob::new(j.name, j.program))
        .collect();
    let mut fingerprints: Vec<u64> = jobs.iter().map(|j| j.fingerprint()).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();

    println!(
        "# snapshot_study: {} jobs ({} groups), {} insts, {} workers",
        jobs.len(),
        fingerprints.len(),
        args.insts,
        args.workers
    );
    if cfg!(debug_assertions) {
        println!("# WARNING: debug build — times are not meaningful");
    }

    // Leg 1: cold — the warmth this study will make durable.
    let mut cold_driver = BatchDriver::new(args.workers);
    let t = Instant::now();
    let cold = cold_driver.run_round(&jobs).expect("cold round");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    // Persist every group to a scratch store (what a serving daemon does
    // at each re-freeze), timing the save side.
    let store_dir =
        std::env::temp_dir().join(format!("fastsim_snapshot_study_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).expect("open scratch store");
    let snapshots: Vec<WarmCacheSnapshot> = fingerprints
        .iter()
        .map(|&fp| cold_driver.current_snapshot(fp).expect("cold round populated the group"))
        .collect();
    let t = Instant::now();
    let mut snapshot_bytes_total = 0u64;
    for snapshot in &snapshots {
        snapshot_bytes_total += store.save(snapshot).expect("persist snapshot").bytes as u64;
    }
    let save_ms = t.elapsed().as_secs_f64() * 1e3;

    // Leg 2: warm from the store — a restart. A brand-new driver adopts
    // everything the store holds, then runs the same round.
    let mut warm_driver = BatchDriver::new(args.workers);
    let t = Instant::now();
    let loaded = store.load_all().expect("scan scratch store");
    assert!(loaded.rejected.is_empty(), "a cleanly written store decodes in full");
    for entry in &loaded.loaded {
        assert!(warm_driver.adopt_snapshot(&entry.snapshot), "fresh driver adopts");
    }
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshots_loaded = loaded.loaded.len();
    let t = Instant::now();
    let warm = warm_driver.run_round(&jobs).expect("warm round");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    // Leg 3: warm over the wire — fleet shipping. Encode, strict-decode,
    // import into another new driver, run the round again.
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = snapshots.iter().map(|s| s.encode()).collect();
    let encode_s = t.elapsed().as_secs_f64();
    let wire_bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();
    let mut import_driver = BatchDriver::new(args.workers);
    let t = Instant::now();
    for (bytes, snapshot) in encoded.iter().zip(&snapshots) {
        let decoded = WarmCacheSnapshot::decode(bytes, Some(snapshot.fingerprint()))
            .expect("own encoding decodes");
        assert!(import_driver.import_snapshot(&decoded).is_none(), "cold driver adopts wholesale");
    }
    let decode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let import = import_driver.run_round(&jobs).expect("import round");
    let import_ms = t.elapsed().as_secs_f64() * 1e3;

    let _ = std::fs::remove_dir_all(&store_dir);

    // Identity and warmth gates.
    let reference = result_map(&cold);
    let results_identical = result_map(&warm) == reference && result_map(&import) == reference;
    let (cold_rate, warm_rate, import_rate) =
        (cold.memo_hit_rate(), warm.memo_hit_rate(), import.memo_hit_rate());
    let warm_ok = warm_rate >= WARM_HIT_RATE_FLOOR && import_rate >= WARM_HIT_RATE_FLOOR;
    let mb = |bytes: u64, secs: f64| bytes as f64 / 1e6 / secs.max(1e-9);

    println!("\n| leg | wall (ms) | memo hit rate | Kinsts/s |");
    println!("|-----|----------:|--------------:|---------:|");
    for (leg, ms, report) in
        [("cold", cold_ms, &cold), ("warm (store)", warm_ms, &warm), ("warm (import)", import_ms, &import)]
    {
        println!(
            "| {leg} | {ms:.1} | {:.3} | {:.0} |",
            report.memo_hit_rate(),
            report.insts_per_sec() / 1e3
        );
    }
    println!(
        "\nstore: {} snapshot(s), {} bytes saved in {save_ms:.1} ms, adopted in {load_ms:.1} ms",
        snapshots.len(),
        snapshot_bytes_total
    );
    println!(
        "codec: encode {:.1} MB/s, decode {:.1} MB/s over {wire_bytes} wire bytes",
        mb(wire_bytes, encode_s),
        mb(wire_bytes, decode_s)
    );
    println!(
        "gates: results_identical={results_identical}, warm_ok={warm_ok} \
         (floor {WARM_HIT_RATE_FLOOR})"
    );

    let summary = Json::obj([
        ("schema", Json::from("fastsim-snapshot-study/v1")),
        ("insts", Json::from(args.insts)),
        ("jobs", Json::from(jobs.len())),
        ("groups", Json::from(fingerprints.len())),
        ("workers", Json::from(args.workers)),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
        ("cold_ms", Json::from(cold_ms)),
        ("cold_hit_rate", Json::from(cold_rate)),
        ("snapshots_saved", Json::from(snapshots.len())),
        ("snapshot_bytes_total", Json::from(snapshot_bytes_total)),
        ("save_ms", Json::from(save_ms)),
        ("load_ms", Json::from(load_ms)),
        ("snapshots_loaded", Json::from(snapshots_loaded)),
        ("snapshots_rejected", Json::from(loaded.rejected.len())),
        ("warm_ms", Json::from(warm_ms)),
        ("warm_hit_rate", Json::from(warm_rate)),
        ("encode_mb_per_s", Json::from(mb(wire_bytes, encode_s))),
        ("decode_mb_per_s", Json::from(mb(wire_bytes, decode_s))),
        ("import_ms", Json::from(import_ms)),
        ("import_hit_rate", Json::from(import_rate)),
        ("results_identical", Json::Bool(results_identical)),
        ("warm_ok", Json::Bool(warm_ok)),
    ]);
    std::fs::write(&args.out, format!("{summary}\n"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    println!("\nwrote {}", args.out);

    if !results_identical || !warm_ok {
        std::process::exit(1);
    }
}
