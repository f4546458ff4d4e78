//! `fuzz_smoke` — the CI entry point for differential kernel fuzzing.
//!
//! Replays the checked-in corpus (if given), then generates and checks a
//! fixed-seed batch of random kernels against the full oracle matrix
//! (all hierarchy presets × GC policies, plus the freeze/thaw/merge
//! lifecycle), and writes a schema-tagged JSON summary
//! for `scripts/ci.sh` to gate on.
//!
//! ```text
//! fuzz_smoke [--seed HEX] [--kernels N] [--corpus DIR] [--out PATH]
//!            [--emit-corpus DIR --emit-count N --emit-start N]
//! ```
//!
//! Besides the differential sweep, `SNAPSHOT_CASES` (6) kernels are frozen
//! into `fastsim-snapshot/v3` encodings and attacked with seeded
//! corruption ([`fastsim_fuzz::snapshot`]); any accepted corruption,
//! decoder panic, or non-canonical round-trip fails the run. Likewise
//! `JOURNAL_CASES` (16) seeded `fastsim-journal/v1` record streams are
//! attacked ([`fastsim_fuzz::journal`]) under the prefix-or-reject
//! oracle — a mutation that decodes into a *different* record (a wrong
//! job on recovery) fails the run. A codec sweep that rejects nothing, or
//! loses count of a corruption, fails the run too.
//!
//! On failure, each shrunk reproducer is written to `target/
//! fuzz_failures/` in the replayable `fastsim-kernel/v1` format and the
//! process exits nonzero. `--emit-corpus` is the maintenance mode that
//! (re)generates golden seed files for `fuzz/corpus/`.

use fastsim_fuzz::{
    check, corpus, run_fuzz, run_journal_fuzz, run_snapshot_fuzz, KernelSpec, OracleConfig,
};
use fastsim_prng::for_each_case;
use fastsim_serve::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Kernels whose frozen snapshots the snapshot-codec sweep attacks.
const SNAPSHOT_CASES: u32 = 6;

/// Record streams the journal-codec sweep attacks.
const JOURNAL_CASES: u32 = 16;

fn main() -> ExitCode {
    let mut seed: u64 = 0xf00d_feed;
    let mut kernels: u32 = 500;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut emit_corpus: Option<PathBuf> = None;
    let mut emit_count: u32 = 14;
    let mut emit_start: u32 = 0;

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
            "--kernels" => kernels = parse(&value("--kernels"), "--kernels"),
            "--corpus" => corpus_dir = Some(PathBuf::from(value("--corpus"))),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--emit-corpus" => emit_corpus = Some(PathBuf::from(value("--emit-corpus"))),
            "--emit-count" => emit_count = parse(&value("--emit-count"), "--emit-count"),
            "--emit-start" => emit_start = parse(&value("--emit-start"), "--emit-start"),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz_smoke [--seed HEX] [--kernels N] [--corpus DIR] [--out PATH] \
                     [--emit-corpus DIR --emit-count N --emit-start N]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cfg = OracleConfig::thorough();

    // Maintenance mode: write golden seed files and exit. `--emit-start`
    // skips the cases an earlier emission already wrote, so a corpus can
    // grow in place without renaming or regenerating existing entries.
    if let Some(dir) = emit_corpus {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let mut i = 0u32;
        for_each_case(seed, emit_start + emit_count, |case_seed, rng| {
            let spec = KernelSpec::generate(case_seed, rng);
            if i >= emit_start {
                let path = dir.join(format!("gen_{i:02}_{case_seed:016x}.kernel"));
                corpus::save(&spec, &path).expect("write corpus entry");
                println!("wrote {} ({} body insts)", path.display(), spec.body_insts());
            }
            i += 1;
        });
        return ExitCode::SUCCESS;
    }

    let started = Instant::now();

    // Corpus replay: every checked-in kernel must still pass the full
    // matrix.
    let mut corpus_replayed = 0u64;
    let mut corpus_failures = 0u64;
    let mut runs = 0u64;
    if let Some(dir) = &corpus_dir {
        let entries = match corpus::load_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("corpus load failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (path, spec) in entries {
            corpus_replayed += 1;
            match check(&spec, &cfg) {
                Ok(summary) => runs += summary.runs,
                Err(f) => {
                    corpus_failures += 1;
                    eprintln!("corpus regression {}: {f}", path.display());
                }
            }
        }
    }

    // Fresh generation against the full matrix.
    let report = run_fuzz(seed, kernels, &cfg);
    runs += report.runs;

    // Snapshot-codec corruption sweep: real frozen snapshots, canonical
    // round-trips, bit-identical replay, and seeded corruption that the
    // strict decoder must reject without panicking. A sweep that rejects
    // nothing reports it as a failure.
    let snap = run_snapshot_fuzz(seed ^ 0x5eed_5eed, SNAPSHOT_CASES, 24);
    for violation in &snap.failures {
        eprintln!("SNAPSHOT FAIL: {violation}");
    }

    // Journal-codec corruption sweep: seeded record streams under the
    // prefix-or-reject oracle (both tail policies, no panics).
    let jrnl = run_journal_fuzz(seed ^ 0x1a7e_9001, JOURNAL_CASES, 32);
    for violation in &jrnl.failures {
        eprintln!("JOURNAL FAIL: {violation}");
    }

    for failure in &report.failures {
        eprintln!(
            "FAIL seed {:#x}: {} (shrunk to {} body insts in {} oracle calls)",
            failure.seed,
            failure.failure,
            failure.shrunk.body_insts(),
            failure.oracle_calls
        );
        let dir = PathBuf::from("target/fuzz_failures");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("repro_{:016x}.kernel", failure.seed));
        match corpus::save(&failure.shrunk, &path) {
            Ok(()) => eprintln!("  reproducer written to {}", path.display()),
            Err(e) => eprintln!("  cannot write reproducer: {e}"),
        }
    }

    let failures = report.failures.len() as u64
        + corpus_failures
        + snap.failures.len() as u64
        + jrnl.failures.len() as u64;
    let summary = Json::obj([
        ("schema", Json::from("fastsim-fuzz-smoke/v1")),
        ("seed", Json::from(format!("{seed:#x}"))),
        ("kernels", Json::from(u64::from(kernels))),
        ("presets", Json::Arr(cfg.presets.iter().map(|p| Json::from(p.as_str())).collect())),
        ("policies", Json::from(cfg.policies.len())),
        ("runs", Json::from(runs)),
        ("retired_insts", Json::from(report.retired_insts)),
        ("corpus_replayed", Json::from(corpus_replayed)),
        ("snapshot_cases", Json::from(u64::from(SNAPSHOT_CASES))),
        ("snapshot_corruptions", Json::from(snap.corruptions)),
        ("snapshot_rejected", Json::from(snap.rejected)),
        ("snapshot_failures", Json::from(snap.failures.len() as u64)),
        ("journal_cases", Json::from(u64::from(JOURNAL_CASES))),
        ("journal_corruptions", Json::from(jrnl.corruptions)),
        ("journal_rejected", Json::from(jrnl.rejected)),
        ("journal_prefix_accepts", Json::from(jrnl.accepted_prefix)),
        ("journal_failures", Json::from(jrnl.failures.len() as u64)),
        ("failures", Json::from(failures)),
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
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{text}`");
        std::process::exit(2);
    })
}
