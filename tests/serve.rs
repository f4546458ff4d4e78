//! End-to-end tests of the serving front end, against in-process servers
//! on private Unix sockets.
//!
//! The properties `docs/serving.md` and `docs/snapshots.md` promise
//! operators:
//!
//! 1. **Served results are bit-identical to an offline batch run** of the
//!    same jobs — and a second client starts warmer than the first
//!    (the re-freeze cadence works).
//! 2. **Panicking jobs are retried with backoff and quarantined** after
//!    `max_attempts`, without poisoning the shared warm caches.
//! 3. **Graceful drain** settles every admitted job, and the metrics dump
//!    has the documented schema.
//! 4. **Warmth is durable and portable**: a killed-and-restarted server
//!    with `--snapshot-dir` serves its first submission warm from the
//!    store, and `snapshot_export`/`snapshot_import` ship warmth to a
//!    cold server — in both cases bit-identical to the offline run.
//! 5. **The HTTP gateway is the same service**: a job submitted over
//!    `POST /v1/jobs` is bit-identical to the line protocol, every error
//!    body equals the line protocol's answer to the same request byte for
//!    byte, framing violations draw typed statuses and close, routing
//!    errors keep the connection, and pipelined keep-alive requests answer
//!    in order — also behind a deferred submit.

#![cfg(unix)]

use fastsim::core::batch::{BatchDriver, BatchJob};
use fastsim::serve::client::Client;
use fastsim::serve::json::Json;
use fastsim::serve::metrics::SCHEMA;
use fastsim::serve::server::{Listener, ServeConfig, Server, ServerHandle};
use fastsim::workloads::Manifest;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const KERNELS: [&str; 2] = ["compress", "vortex"];
const INSTS: u64 = 30_000;
const REPLICAS: usize = 2;

fn start_server(tag: &str, cfg: ServeConfig) -> (ServerHandle, PathBuf) {
    let socket = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve_{tag}.sock"));
    let handle = Server::start(cfg, vec![Listener::unix(&socket).expect("bind test socket")]);
    (handle, socket)
}

fn submit(client: &mut Client, name: &str, extra: &[(&'static str, Json)]) -> Json {
    let mut pairs = vec![
        ("op", Json::from("submit")),
        ("kernels", Json::Arr(KERNELS.iter().map(|&k| Json::from(k)).collect())),
        ("insts", Json::from(INSTS)),
        ("replicas", Json::from(REPLICAS)),
        ("client", Json::from(name)),
        ("wait", Json::Bool(true)),
    ];
    pairs.extend(extra.iter().cloned());
    client.expect_ok(&Json::obj(pairs)).expect("submit")
}

/// `name -> deterministic result fields` for every job in a wait-response.
fn served_results(resp: &Json) -> BTreeMap<String, Vec<u64>> {
    let mut map = BTreeMap::new();
    for job in resp.get("jobs").and_then(Json::as_arr).expect("jobs array") {
        assert_eq!(job.get("status").and_then(Json::as_str), Some("done"), "job settled done");
        let result = job.get("result").expect("done jobs carry results");
        let f = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("field {k}"));
        map.insert(
            job.get("name").and_then(Json::as_str).expect("name").to_string(),
            vec![
                f("cycles"),
                f("retired_insts"),
                f("loads"),
                f("stores"),
                f("l1_misses"),
                f("writebacks"),
            ],
        );
    }
    map
}

/// The same manifest the tests submit, run through the offline
/// `BatchDriver` — the ground truth every served response must match
/// bit-for-bit, whatever the warmth.
fn offline_results() -> BTreeMap<String, Vec<u64>> {
    let jobs: Vec<BatchJob> = Manifest::select(&KERNELS, INSTS)
        .expect("known kernels")
        .replicated(REPLICAS)
        .into_jobs()
        .into_iter()
        .map(|j| BatchJob::new(j.name, j.program))
        .collect();
    let offline = BatchDriver::new(2).run_round(&jobs).expect("offline round");
    offline
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

fn aggregate_hit_rate(resp: &Json) -> f64 {
    let (mut hits, mut lookups) = (0, 0);
    for job in resp.get("jobs").and_then(Json::as_arr).expect("jobs array") {
        let result = job.get("result").expect("result");
        hits += result.get("memo_hits").and_then(Json::as_u64).unwrap();
        lookups += result.get("memo_hits").and_then(Json::as_u64).unwrap()
            + result.get("memo_misses").and_then(Json::as_u64).unwrap();
    }
    hits as f64 / lookups.max(1) as f64
}

#[test]
fn served_results_match_offline_batch_and_second_client_starts_warmer() {
    let (handle, socket) =
        start_server("identity", ServeConfig { workers: 2, refreeze_every: 2, ..ServeConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");

    let first = submit(&mut client, "first", &[]);
    let second = submit(&mut client, "second", &[]);

    // The re-freeze cadence (every 2 merges, 4 jobs per submit) means the
    // second client thaws snapshots already containing the first client's
    // work: its jobs replay rather than re-simulate.
    let (r1, r2) = (aggregate_hit_rate(&first), aggregate_hit_rate(&second));
    assert!(
        r2 > r1,
        "second client must start warmer (first hit rate {r1:.3}, second {r2:.3})"
    );

    // Bit-identical to an offline batch run of the same manifest: warmth
    // may differ, simulated results may not.
    let offline_map = offline_results();
    assert_eq!(served_results(&first), offline_map, "cold served == offline");
    assert_eq!(served_results(&second), offline_map, "warm served == offline");

    client.shutdown().expect("shutdown");
    let final_metrics = handle.wait();
    assert_eq!(final_metrics.get("completed").and_then(Json::as_u64), Some(8));
    assert!(final_metrics.get("refreezes").and_then(Json::as_u64).unwrap() >= 2);
}

#[test]
fn panicking_jobs_retry_then_quarantine_without_poisoning_the_caches() {
    let cfg = ServeConfig {
        workers: 1,
        max_attempts: 3,
        backoff_base: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let (handle, socket) = start_server("chaos", cfg);
    let mut client = Client::connect_unix(&socket).expect("connect");

    let one_job = |client: &mut Client, chaos: u64| -> Json {
        let resp = client
            .expect_ok(&Json::obj([
                ("op", Json::from("submit")),
                ("kernels", Json::Arr(vec![Json::from("compress")])),
                ("insts", Json::from(INSTS)),
                ("client", Json::from("chaos")),
                ("chaos_panics", Json::from(chaos)),
                ("wait", Json::Bool(true)),
            ]))
            .expect("submit");
        resp.get("jobs").and_then(Json::as_arr).expect("jobs")[0].clone()
    };

    // One injected panic: first attempt dies, the retry succeeds.
    let retried = one_job(&mut client, 1);
    assert_eq!(retried.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(retried.get("attempts").and_then(Json::as_u64), Some(2));

    // Unbounded panics: all attempts die, the job is quarantined.
    let doomed = one_job(&mut client, 1_000);
    assert_eq!(doomed.get("status").and_then(Json::as_str), Some("quarantined"));
    assert_eq!(doomed.get("attempts").and_then(Json::as_u64), Some(3));
    assert!(doomed
        .get("error")
        .and_then(Json::as_str)
        .expect("quarantine message")
        .contains("quarantined after 3"));

    // The shared caches never saw the failed attempts: a normal job still
    // produces exactly the results of the successful run above.
    let clean = one_job(&mut client, 0);
    assert_eq!(clean.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        clean.get("result").unwrap().get("cycles").and_then(Json::as_u64),
        retried.get("result").unwrap().get("cycles").and_then(Json::as_u64),
        "post-quarantine results unchanged — shared snapshot unpoisoned"
    );

    client.shutdown().expect("shutdown");
    let m = handle.wait();
    assert_eq!(m.get("panics").and_then(Json::as_u64), Some(4), "1 + 3 injected panics caught");
    assert_eq!(m.get("retries").and_then(Json::as_u64), Some(3), "1 + 2 retries before settling");
    assert_eq!(m.get("quarantined").and_then(Json::as_u64), Some(1));
    assert_eq!(m.get("completed").and_then(Json::as_u64), Some(2));
}

#[test]
fn graceful_drain_settles_every_job_and_metrics_match_the_schema() {
    let (handle, socket) =
        start_server("drain", ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");

    // Fire-and-forget submission, then drain: the drain response must not
    // arrive until every admitted job has settled.
    let resp = client
        .expect_ok(&Json::obj([
            ("op", Json::from("submit")),
            ("kernels", Json::Arr(KERNELS.iter().map(|&k| Json::from(k)).collect())),
            ("insts", Json::from(INSTS)),
            ("replicas", Json::from(REPLICAS)),
            ("client", Json::from("drainer")),
            ("wait", Json::Bool(false)),
        ]))
        .expect("submit");
    let ids: Vec<u64> = resp
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("job ids")
        .iter()
        .map(|j| j.as_u64().expect("id"))
        .collect();
    assert_eq!(ids.len(), KERNELS.len() * REPLICAS);

    let drained = client.drain().expect("drain");
    assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));

    // Every job settled Done — none stranded in queue or flight.
    for id in &ids {
        let polled = client
            .expect_ok(&Json::obj([("op", Json::from("poll")), ("job", Json::from(*id))]))
            .expect("poll");
        assert_eq!(
            polled.get("job").unwrap().get("status").and_then(Json::as_str),
            Some("done"),
            "job {id} settled by drain"
        );
    }

    // Draining servers refuse new work.
    let refused = client.request(&Json::obj([
        ("op", Json::from("submit")),
        ("kernels", Json::Arr(vec![Json::from("compress")])),
        ("insts", Json::from(INSTS)),
    ]));
    assert_eq!(refused.expect("transport ok").get("ok").and_then(Json::as_bool), Some(false));

    // The metrics dump carries the documented schema and settled gauges.
    let m = client.metrics().expect("metrics");
    assert_eq!(m.get("schema").and_then(Json::as_str), Some(SCHEMA));
    for key in [
        "submitted",
        "rejected",
        "completed",
        "failed",
        "timeouts",
        "panics",
        "retries",
        "quarantined",
        "refreezes",
        "queue_depth",
        "queue_depth_peak",
        "parked",
        "in_flight",
        "latency_ms",
        "refreeze_hit_rate_trend",
    ] {
        assert!(m.get(key).is_some(), "metrics dump missing `{key}`");
    }
    assert_eq!(m.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(m.get("in_flight").and_then(Json::as_u64), Some(0));
    assert_eq!(m.get("completed").and_then(Json::as_u64), Some(ids.len() as u64));
    let latency = m.get("latency_ms").unwrap();
    assert_eq!(latency.get("count").and_then(Json::as_u64), Some(ids.len() as u64));

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn a_thousand_idle_connections_are_free_and_active_results_stay_identical() {
    let (handle, socket) =
        start_server("scale", ServeConfig { workers: 2, ..ServeConfig::default() });

    // Park 1000 idle connections on the event loop. Under the old
    // thread-per-connection model this was 1000 OS threads; now it is
    // 1000 table entries on one I/O thread.
    const IDLE: usize = 1000;
    let idle: Vec<std::os::unix::net::UnixStream> = (0..IDLE)
        .map(|i| {
            std::os::unix::net::UnixStream::connect(&socket)
                .unwrap_or_else(|e| panic!("idle connect {i}: {e}"))
        })
        .collect();

    // The accept side is asynchronous; wait for the gauge to catch up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.open_connections() < IDLE as u64 {
        assert!(std::time::Instant::now() < deadline, "event loop never accepted the idle herd");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Active work through one more connection behaves exactly as on an
    // empty server: same deterministic results as an offline batch run.
    let mut client = Client::connect_unix(&socket).expect("connect active");
    let served = submit(&mut client, "active", &[]);
    assert_eq!(served_results(&served), offline_results(), "served under load == offline");

    // The gauge counts the herd plus the active client, and the loop's
    // accept counter saw every one of them.
    let m = client.metrics().expect("metrics");
    let ev = m.get("event_loop").expect("event_loop block in metrics dump");
    assert!(
        ev.get("open_connections").and_then(Json::as_u64).unwrap() >= (IDLE + 1) as u64,
        "open-connections gauge tracks the idle herd"
    );
    assert!(ev.get("accepted").and_then(Json::as_u64).unwrap() >= (IDLE + 1) as u64);

    // Idle connections are parked, not abandoned: a late request on one
    // still gets served.
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut late = idle.into_iter().next().expect("one idle conn");
    late.write_all(b"{\"op\": \"ping\"}\n").expect("late write");
    let mut line = String::new();
    BufReader::new(&mut late)
        .read_line(&mut line)
        .expect("late read");
    let pong = Json::parse(line.trim()).expect("late response parses");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn restarted_server_with_snapshot_dir_serves_first_submission_warm_and_bit_identical() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("snapshots_restart");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        workers: 2,
        refreeze_every: 2,
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // First life: warm the caches — two submissions, so the final
    // re-freeze persists a snapshot containing every job — then die.
    let (first_life, socket) = start_server("restart_a", cfg());
    assert_eq!(first_life.snapshot_stats(), (0, 0), "an empty store offers nothing to adopt");
    let mut client = Client::connect_unix(&socket).expect("connect");
    submit(&mut client, "before-crash", &[]);
    submit(&mut client, "before-crash-2", &[]);
    client.shutdown().expect("shutdown");
    let dump = first_life.wait();
    let snap = dump.get("snapshot").expect("snapshot block in the metrics dump");
    assert!(
        snap.get("saves").and_then(Json::as_u64).unwrap() >= 1,
        "re-freezes persist to the store: {snap}"
    );
    assert_eq!(snap.get("rejected").and_then(Json::as_u64), Some(0));

    // Second life: a brand-new server — fresh process state, same store.
    let (second_life, socket) = start_server("restart_b", cfg());
    let (loads, rejected) = second_life.snapshot_stats();
    assert!(loads >= 1, "the restarted server adopts the persisted snapshot at boot");
    assert_eq!(rejected, 0, "a cleanly written store decodes in full");

    // Its *first* submission replays instead of re-simulating...
    let mut client = Client::connect_unix(&socket).expect("connect after restart");
    let served = submit(&mut client, "after-restart", &[]);
    let rate = aggregate_hit_rate(&served);
    assert!(rate >= 0.9, "first post-restart submission must be warm (hit rate {rate:.3})");

    // ...and warmth changes speed, never results.
    assert_eq!(served_results(&served), offline_results(), "post-restart served == offline");

    client.shutdown().expect("shutdown");
    let dump = second_life.wait();
    let snap = dump.get("snapshot").expect("snapshot block");
    assert!(snap.get("loads").and_then(Json::as_u64).unwrap() >= 1);
    assert!(snap.get("bytes_loaded").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        snap.get("generation").and_then(Json::as_u64).unwrap() >= 1,
        "the adopted generation is visible in the dump: {snap}"
    );
}

#[test]
fn snapshot_export_ships_warmth_to_a_cold_server_via_import() {
    // A warmed donor — no store needed, export reads the live group.
    let (donor, donor_socket) = start_server(
        "export_donor",
        ServeConfig { workers: 2, refreeze_every: 2, ..ServeConfig::default() },
    );
    let mut donor_client = Client::connect_unix(&donor_socket).expect("connect donor");
    submit(&mut donor_client, "warmup", &[]);
    submit(&mut donor_client, "warmup-2", &[]);

    // Discover the exportable groups (one per program: the warm-cache
    // fingerprint keys program + uarch + hierarchy), then export each.
    let listing = donor_client
        .expect_ok(&Json::obj([("op", Json::from("snapshot_export"))]))
        .expect("list groups");
    let groups: Vec<String> = listing
        .get("groups")
        .and_then(Json::as_arr)
        .expect("groups array")
        .iter()
        .map(|g| g.as_str().expect("hex fingerprint").to_string())
        .collect();
    assert_eq!(groups.len(), KERNELS.len(), "one sharing group per kernel");

    // A cold recipient adopts each shipped snapshot wholesale...
    let (recipient, recipient_socket) =
        start_server("import_recipient", ServeConfig { workers: 2, ..ServeConfig::default() });
    let mut recipient_client = Client::connect_unix(&recipient_socket).expect("connect recipient");
    for group in &groups {
        let exported = donor_client
            .expect_ok(&Json::obj([
                ("op", Json::from("snapshot_export")),
                ("group", Json::Str(group.clone())),
            ]))
            .expect("export");
        assert_eq!(exported.get("group").and_then(Json::as_str), Some(group.as_str()));
        assert!(exported.get("bytes").and_then(Json::as_u64).unwrap() > 0);
        let data = exported.get("data").and_then(Json::as_str).expect("base64 payload");

        let imported = recipient_client
            .expect_ok(&Json::obj([
                ("op", Json::from("snapshot_import")),
                ("data", Json::Str(data.to_string())),
            ]))
            .expect("import");
        assert_eq!(imported.get("group").and_then(Json::as_str), Some(group.as_str()));
        assert_eq!(
            imported.get("adopted").and_then(Json::as_bool),
            Some(true),
            "a server that has never seen the configuration adopts, not merges"
        );
    }

    // ...and serves its very first submission warm, bit-identical to the
    // offline ground truth.
    let served = submit(&mut recipient_client, "shipped", &[]);
    let rate = aggregate_hit_rate(&served);
    assert!(rate >= 0.9, "imported warmth must cover the first submission (hit rate {rate:.3})");
    assert_eq!(served_results(&served), offline_results(), "imported-warmth served == offline");

    // Garbage is rejected with a typed error — never adopted, never fatal.
    let rejected = recipient_client
        .request(&Json::obj([
            ("op", Json::from("snapshot_import")),
            ("data", Json::Str("AAAA".into())),
        ]))
        .expect("transport ok");
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        rejected.get("error").and_then(Json::as_str).unwrap().contains("rejected"),
        "the decode error is surfaced to the shipping client"
    );

    donor_client.shutdown().expect("shutdown donor");
    donor.wait();
    recipient_client.shutdown().expect("shutdown recipient");
    recipient.wait();
}

// ---------------------------------------------------------------------------
// HTTP gateway: the same ops over `--http`, spoken with raw sockets so the
// tests exercise real framing rather than a cooperating client library.
// ---------------------------------------------------------------------------

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn start_http_server(tag: &str, cfg: ServeConfig) -> (ServerHandle, PathBuf, SocketAddr) {
    let socket = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve_{tag}.sock"));
    let listeners = vec![
        Listener::unix(&socket).expect("bind test socket"),
        Listener::http("127.0.0.1:0").expect("bind http listener"),
    ];
    let handle = Server::start(cfg, listeners);
    let http = handle.http_addr().expect("http listener bound");
    (handle, socket, http)
}

/// `(status, headers, body)` of one decoded HTTP response.
type HttpResponse = (u16, Vec<(String, String)>, String);

/// Reads one `HTTP/1.1` response. `None` on a cleanly closed connection.
fn read_http_response<R: BufRead>(r: &mut R) -> Option<HttpResponse> {
    let mut line = String::new();
    if r.read_line(&mut line).ok()? == 0 {
        return None;
    }
    assert!(line.starts_with("HTTP/1.1 "), "status line: {line:?}");
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    let mut len = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).ok()?;
        let t = h.trim_end();
        if t.is_empty() {
            break;
        }
        let (k, v) = t.split_once(':').expect("header line");
        if k.eq_ignore_ascii_case("content-length") {
            len = v.trim().parse().expect("content-length value");
        }
        headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).ok()?;
    Some((status, headers, String::from_utf8(body).expect("utf-8 body")))
}

/// Writes one request and reads one response over a fresh buffered reader.
fn http_exchange(stream: &mut TcpStream, request: &str) -> (u16, Json) {
    stream.write_all(request.as_bytes()).expect("write request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let (status, _, body) = read_http_response(&mut reader).expect("one response");
    (status, Json::parse(&body).expect("json body"))
}

#[test]
fn http_submitted_job_is_bit_identical_to_the_line_protocol() {
    let (handle, socket, http) =
        start_http_server("http_identity", ServeConfig { workers: 2, ..ServeConfig::default() });

    // Submit over HTTP (wait: true — the response defers until settled,
    // exercising the blocked/deferred path through the gateway).
    let body = format!(
        r#"{{"kernels": ["compress", "vortex"], "insts": {INSTS}, "replicas": {REPLICAS}, "client": "http", "wait": true}}"#
    );
    let mut stream = TcpStream::connect(http).expect("connect http");
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, via_http) = http_exchange(&mut stream, &request);
    assert_eq!(status, 200, "submit over http: {via_http}");
    assert_eq!(via_http.get("ok").and_then(Json::as_bool), Some(true));

    // The same submission over the line protocol, and the offline ground
    // truth: all three must agree bit-for-bit.
    let mut client = Client::connect_unix(&socket).expect("connect line protocol");
    let via_line = submit(&mut client, "line", &[]);
    let offline = offline_results();
    assert_eq!(served_results(&via_http), offline, "http served == offline");
    assert_eq!(served_results(&via_line), offline, "line served == offline");

    // Polling a settled job over HTTP returns the same record shape.
    let id = via_http.get("jobs").and_then(Json::as_arr).expect("jobs")[0]
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    let (status, polled) =
        http_exchange(&mut stream, &format!("GET /v1/jobs/{id} HTTP/1.1\r\nHost: x\r\n\r\n"));
    assert_eq!(status, 200);
    assert_eq!(
        polled.get("job").unwrap().get("status").and_then(Json::as_str),
        Some("done")
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn malformed_and_oversized_http_requests_draw_typed_statuses_and_close() {
    let (handle, _socket, http) =
        start_http_server("http_malformed", ServeConfig { workers: 1, ..ServeConfig::default() });

    // A garbage request line: 400, connection closed.
    let mut stream = TcpStream::connect(http).expect("connect");
    let (status, body) = http_exchange(&mut stream, "GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
    let mut reader = BufReader::new(&mut stream);
    assert!(read_http_response(&mut reader).is_none(), "connection closed after violation");

    // An unsupported HTTP version: 505, closed.
    let mut stream = TcpStream::connect(http).expect("connect");
    let (status, _) = http_exchange(&mut stream, "GET /v1/metrics HTTP/0.9\r\n\r\n");
    assert_eq!(status, 505);

    // A header section past the 1 MiB cap: 431, closed. The pad stays
    // small enough past the cap that loopback buffers absorb the write
    // before the server closes on us.
    let mut stream = TcpStream::connect(http).expect("connect");
    let mut request = b"GET /v1/metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    request.resize(request.len() + (1 << 20), b'a');
    let _ = stream.write_all(&request);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, _, _) = read_http_response(&mut reader).expect("431 response");
    assert_eq!(status, 431);

    // A declared body past the 1 MiB cap: 413 without reading the body.
    let mut stream = TcpStream::connect(http).expect("connect");
    let (status, _) = http_exchange(
        &mut stream,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert_eq!(status, 413);

    // Chunked bodies are declined, not misparsed.
    let mut stream = TcpStream::connect(http).expect("connect");
    let (status, _) = http_exchange(
        &mut stream,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 501);

    let final_metrics = handle.kill();
    assert_eq!(final_metrics.get("submitted").and_then(Json::as_u64), Some(0));
}

#[test]
fn http_routing_errors_keep_the_connection_usable() {
    let (handle, _socket, http) =
        start_http_server("http_routes", ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut stream = TcpStream::connect(http).expect("connect");

    // Unknown route, non-numeric job id, wrong method, bad submit body:
    // each draws its status on the *same* connection.
    let (status, _) = http_exchange(&mut stream, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);
    let (status, body) = http_exchange(&mut stream, "GET /v1/jobs/abc HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.get("error").and_then(Json::as_str).unwrap().contains("unknown job"));
    let (status, _) = http_exchange(&mut stream, "DELETE /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);
    let (status, body) = http_exchange(
        &mut stream,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nnot json!",
    );
    assert_eq!(status, 400);
    assert!(body.get("error").and_then(Json::as_str).unwrap().contains("body"));
    // Polling a job that was never admitted maps the protocol error to 404.
    let (status, _) = http_exchange(&mut stream, "GET /v1/jobs/7777 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);

    // ...and the connection still serves real requests afterwards.
    let (status, metrics) = http_exchange(&mut stream, "GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        metrics.get("metrics").unwrap().get("schema").and_then(Json::as_str),
        Some(SCHEMA)
    );

    handle.kill();
}

#[test]
fn pipelined_http_requests_answer_in_order_and_honor_connection_close() {
    let (handle, _socket, http) =
        start_http_server("http_pipeline", ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut stream = TcpStream::connect(http).expect("connect");

    // Three requests in one write; the last asks to close.
    let pipelined = "GET /v1/jobs/4242 HTTP/1.1\r\nHost: x\r\n\r\n\
                     GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n\
                     GET /v1/metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    stream.write_all(pipelined.as_bytes()).expect("pipelined write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let (status, headers, body) = read_http_response(&mut reader).expect("first response");
    assert_eq!(status, 404, "{body}");
    assert!(headers.iter().any(|(k, v)| k == "connection" && v == "keep-alive"));
    let (status, headers, _) = read_http_response(&mut reader).expect("second response");
    assert_eq!(status, 200);
    assert!(headers.iter().any(|(k, v)| k == "connection" && v == "keep-alive"));
    let (status, headers, _) = read_http_response(&mut reader).expect("third response");
    assert_eq!(status, 200);
    assert!(headers.iter().any(|(k, v)| k == "connection" && v == "close"));
    assert!(read_http_response(&mut reader).is_none(), "server honors Connection: close");

    handle.kill();
}

/// One line-protocol exchange: the response line exactly as sent.
fn line_exchange(stream: &mut std::os::unix::net::UnixStream, request: &str) -> String {
    stream.write_all(format!("{request}\n").as_bytes()).expect("write line");
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone")).read_line(&mut line).expect("read line");
    line
}

#[test]
fn http_and_line_protocol_errors_are_byte_identical() {
    let (handle, socket, http) =
        start_http_server("http_errors", ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut line = std::os::unix::net::UnixStream::connect(&socket).expect("connect line");
    let mut web = TcpStream::connect(http).expect("connect http");
    let mut check = |case: &str, request: String, line_request: &str, status: u16| {
        web.write_all(request.as_bytes()).expect("write request");
        let mut reader = BufReader::new(web.try_clone().expect("clone"));
        let (got, _, body) = read_http_response(&mut reader).expect("one response");
        assert_eq!(got, status, "{case}: {body}");
        assert!(body.starts_with(r#"{"ok": false, "error": "#), "{case}: {body}");
        assert_eq!(body, line_exchange(&mut line, line_request), "{case}: HTTP body == line");
    };
    let post = |body: &str| {
        format!("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}", body.len())
    };
    let get = |path: &str| format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");

    // (case, HTTP request, the same request as a line, status)
    let cases = [
        ("malformed JSON", post(r#"{"kernels": ["#), r#"{"kernels": ["#, 400),
        ("no kernels", post(r#"{"insts": 1000}"#), r#"{"op": "submit", "insts": 1000}"#, 400),
        (
            "unknown kernel",
            post(r#"{"kernels": ["nope"], "insts": 1000}"#),
            r#"{"op": "submit", "kernels": ["nope"], "insts": 1000}"#,
            400,
        ),
        (
            "unknown preset",
            post(r#"{"kernels": ["compress"], "insts": 1000, "hierarchy": "nope"}"#),
            r#"{"op": "submit", "kernels": ["compress"], "insts": 1000, "hierarchy": "nope"}"#,
            400,
        ),
        ("unknown job", get("/v1/jobs/999999"), r#"{"op": "poll", "job": 999999}"#, 404),
        ("non-numeric job", get("/v1/jobs/abc"), r#"{"op": "poll", "job": "abc"}"#, 404),
    ];
    for (case, request, line_request, status) in cases {
        check(case, request, line_request, status);
    }

    // A draining server refuses submits the same way on both listeners.
    let mut admin = std::os::unix::net::UnixStream::connect(&socket).expect("connect admin");
    let drained = Json::parse(&line_exchange(&mut admin, r#"{"op": "drain"}"#)).expect("json");
    assert_eq!(drained.get("ok").and_then(Json::as_bool), Some(true), "{drained}");
    check(
        "draining",
        post(r#"{"kernels": ["compress"], "insts": 1000}"#),
        r#"{"op": "submit", "kernels": ["compress"], "insts": 1000}"#,
        400,
    );

    handle.kill();
}

#[test]
fn pipelined_http_answers_queue_behind_a_deferred_submit() {
    let (handle, _socket, http) =
        start_http_server("http_deferred", ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut stream = TcpStream::connect(http).expect("connect");

    // One write: a waiting submit (deferred until its job settles), then a
    // routing error and a metrics request that must queue behind it.
    let body = format!(r#"{{"kernels": ["compress"], "insts": {INSTS}, "wait": true}}"#);
    let pipelined = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}\
         GET /nope HTTP/1.1\r\nHost: x\r\n\r\n\
         GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n",
        body.len()
    );
    stream.write_all(pipelined.as_bytes()).expect("pipelined write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let (status, _, body) = read_http_response(&mut reader).expect("submit response");
    assert_eq!(status, 200, "{body}");
    let submitted = Json::parse(&body).expect("json");
    let job = &submitted.get("jobs").and_then(Json::as_arr).expect("jobs")[0];
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    let (status, _, body) = read_http_response(&mut reader).expect("routing response");
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = read_http_response(&mut reader).expect("metrics response");
    assert_eq!(status, 200, "{body}");
    let metrics = Json::parse(&body).expect("json");
    assert_eq!(
        metrics.get("metrics").unwrap().get("completed").and_then(Json::as_u64),
        Some(1),
        "the metrics request ran after the deferred submit settled"
    );

    handle.kill();
}

#[test]
fn refreezes_that_change_nothing_are_not_persisted() {
    const ROUNDS: u64 = 60;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("snapshots_unchanged");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        workers: 1,
        refreeze_every: 1,
        snapshot_dir: Some(dir),
        ..ServeConfig::default()
    };
    let (handle, socket) = start_server("unchanged", cfg);
    let mut client = Client::connect_unix(&socket).expect("connect");

    // The same small job over and over: every merge re-freezes, and once
    // the group is warm a re-freeze hands
    // back the snapshot it already had.
    for round in 0..ROUNDS {
        client
            .expect_ok(&Json::obj([
                ("op", Json::from("submit")),
                ("kernels", Json::Arr(vec![Json::from("compress")])),
                ("insts", Json::from(5_000u64)),
                ("client", Json::from(format!("round-{round}"))),
                ("wait", Json::Bool(true)),
            ]))
            .expect("submit");
    }
    client.shutdown().expect("shutdown");
    let m = handle.wait();
    let refreezes = m.get("refreezes").and_then(Json::as_u64).expect("refreezes");
    let saves = m.get("snapshot").and_then(|s| s.get("saves")).and_then(Json::as_u64);
    assert_eq!(refreezes, ROUNDS, "every merge re-froze");
    let saves = saves.expect("snapshot block with a store attached");
    assert!(saves >= 1, "the first, cold re-freeze persisted");
    assert!(saves < refreezes, "unchanged re-freezes were persisted: {saves} of {refreezes}");
}

#[test]
fn deadlines_abandon_runaway_jobs() {
    let (handle, socket) =
        start_server("deadline", ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");

    // A job far too large for a 1 ms deadline: abandoned between budget
    // chunks, settled Failed, never merged.
    let resp = client
        .expect_ok(&Json::obj([
            ("op", Json::from("submit")),
            ("kernels", Json::Arr(vec![Json::from("compress")])),
            ("insts", Json::from(50_000_000u64)),
            ("timeout_ms", Json::from(1u64)),
            ("client", Json::from("hasty")),
            ("wait", Json::Bool(true)),
        ]))
        .expect("submit");
    let job = &resp.get("jobs").and_then(Json::as_arr).expect("jobs")[0];
    assert_eq!(job.get("status").and_then(Json::as_str), Some("failed"));
    assert!(job.get("error").and_then(Json::as_str).expect("error").contains("timed out"));

    client.shutdown().expect("shutdown");
    let m = handle.wait();
    assert_eq!(m.get("timeouts").and_then(Json::as_u64), Some(1));
    assert_eq!(m.get("completed").and_then(Json::as_u64), Some(0));
}
