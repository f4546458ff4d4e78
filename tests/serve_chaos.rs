//! Serve-path chaos integration tests: seeded server-side fault injection
//! through the server's fault seam (response drops, mid-line
//! truncations, worker panics — `fastsim_fuzz::chaos::SeededFaults`)
//! under a seeded client storm (malformed frames, partial frames,
//! slow-loris dribbles, half-open sockets, mid-response disconnects,
//! deadline storms), then the settled-state invariants and the
//! no-cache-poisoning gate — and the durable-store rebirth scenario: a
//! server killed after a chaos storm restarts on the same `snapshot_dir`
//! with an uncorrupted store.

#![cfg(unix)]

use fastsim_fuzz::chaos::{
    drain_and_verify, post_chaos_identity, run_storm, RetryClient, SeededFaults, StormConfig,
};
use fastsim_serve::json::Json;
use fastsim_serve::server::{Listener, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn chaos_storm_settles_and_never_poisons_the_caches() {
    let seed = 0x5eed_c4a0_5000_0001;
    let socket = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_chaos.sock");
    let cfg = ServeConfig {
        workers: 2,
        refreeze_every: 2,
        backoff_base: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let faults = Arc::new(SeededFaults::new(seed));
    let listener = Listener::unix(&socket).expect("bind test socket");
    let handle = Server::start_with_faults(cfg, vec![listener], faults.clone());

    // Storm the server while its fault injection is live. Smaller than
    // the CI smoke — this runs in the debug test suite.
    let storm = run_storm(
        &socket,
        seed ^ 0xdead,
        &StormConfig {
            submissions: 12,
            malformed: 4,
            partial_frames: 3,
            deadline_storm: 2,
            slow_loris: 2,
            half_open: 2,
            mid_response: 2,
            insts: 5_000,
        },
    );
    assert!(storm.admitted > 0, "the storm admitted nothing");
    assert_eq!(storm.malformed_rejected, 4, "every malformed line draws an error response");
    assert_eq!(storm.partial_frames_ok, 3, "partial frames reassemble");
    assert_eq!(storm.slow_loris_ok, 2, "slow-loris requests get served once the newline lands");
    assert_eq!(storm.half_open_ok, 2, "half-open clients still receive their responses");
    assert_eq!(storm.mid_response_disconnects, 2, "mid-response disconnects delivered");

    // Invariants with chaos still live: everything settles, the metrics
    // dump stays schema-valid, totals balance.
    drain_and_verify(&socket).expect("settled-state invariants hold");
    let fired = faults.counts();
    assert!(fired.total() > 0, "no faults fired — the fault seam was not live: {fired:?}");

    // Quiesce, then demand bit-identity with an offline batch run.
    faults.quiesce();
    post_chaos_identity(&socket, 5_000).expect("post-chaos results bit-identical to offline");

    // Shut down; no fault fired after the quiesce.
    let mut client = RetryClient::new(&socket);
    let stopped = client.request(&Json::obj([("op", Json::from("shutdown"))]));
    assert_eq!(stopped.get("ok").and_then(Json::as_bool), Some(true));
    let final_dump = handle.wait();
    assert_eq!(
        final_dump.get("schema").and_then(Json::as_str),
        Some(fastsim_serve::metrics::SCHEMA)
    );
    assert_eq!(faults.counts(), fired, "chaos stays quiesced");
    let submitted = final_dump.get("submitted").and_then(Json::as_u64).unwrap();
    let settled = ["completed", "failed", "quarantined"]
        .iter()
        .filter_map(|k| final_dump.get(k).and_then(Json::as_u64))
        .sum::<u64>();
    assert_eq!(submitted, settled, "all admitted jobs settled exactly once");
}

#[test]
fn chaos_killed_server_reborn_from_snapshot_store_serves_clean() {
    let seed = 0x5eed_c4a0_5000_0002;
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_snapshots");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_chaos_restart.sock");

    // First life: storm the server while fault injection is live and the
    // durable store is attached. Every surviving re-freeze persists.
    let cfg = ServeConfig {
        workers: 2,
        refreeze_every: 2,
        backoff_base: Duration::from_millis(5),
        snapshot_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let faults = Arc::new(SeededFaults::new(seed));
    let listener = Listener::unix(&socket).expect("bind test socket");
    let handle = Server::start_with_faults(cfg, vec![listener], faults);
    let storm = run_storm(
        &socket,
        seed ^ 0xbeef,
        &StormConfig {
            submissions: 8,
            malformed: 2,
            partial_frames: 2,
            deadline_storm: 1,
            slow_loris: 1,
            half_open: 1,
            mid_response: 1,
            insts: 5_000,
        },
    );
    assert!(storm.admitted > 0, "the storm admitted nothing");
    drain_and_verify(&socket).expect("settled-state invariants hold under chaos");
    let mut client = RetryClient::new(&socket);
    let stopped = client.request(&Json::obj([("op", Json::from("shutdown"))]));
    assert_eq!(stopped.get("ok").and_then(Json::as_bool), Some(true));
    let dump = handle.wait();
    let snap = dump.get("snapshot").expect("snapshot block with a store attached");
    assert!(
        snap.get("saves").and_then(Json::as_u64).unwrap() >= 1,
        "the chaos-era server persisted at least one re-freeze: {snap}"
    );

    // Rebirth on the same store, chaos off. Atomic tmp+rename writes mean
    // a storm (worker panics included) can never leave a half-written
    // snapshot behind: everything on disk decodes, nothing is rejected,
    // and the reborn server serves bit-identically to an offline run.
    let reborn_cfg = ServeConfig {
        workers: 2,
        refreeze_every: 2,
        snapshot_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let reborn = Server::start(reborn_cfg, vec![Listener::unix(&socket).expect("rebind socket")]);
    let (loads, rejected) = reborn.snapshot_stats();
    assert!(loads >= 1, "the reborn server adopted the chaos-era snapshots");
    assert_eq!(rejected, 0, "no snapshot in the store was corrupt (atomic writes)");
    post_chaos_identity(&socket, 5_000).expect("reborn results bit-identical to offline");

    let mut client = RetryClient::new(&socket);
    let stopped = client.request(&Json::obj([("op", Json::from("shutdown"))]));
    assert_eq!(stopped.get("ok").and_then(Json::as_bool), Some(true));
    reborn.wait();
}

/// Deterministic result fields of one settled job record.
fn result_fields(job: &Json) -> Vec<u64> {
    let result = job.get("result").expect("done jobs carry results");
    ["cycles", "retired_insts", "loads", "stores", "l1_misses", "writebacks"]
        .iter()
        .map(|k| result.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("field {k}")))
        .collect()
}

#[test]
fn killed_server_with_journal_replays_the_lost_queue_bit_identically() {
    const JOBS: usize = 4;
    const INSTS: u64 = 500_000;
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_journal");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_chaos_journal.sock");
    let cfg = || ServeConfig {
        workers: 1,
        journal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };

    // First life: fill the queue (fire-and-forget, so the ack proves the
    // submits hit the journal), then die without draining.
    let handle = Server::start(cfg(), vec![Listener::unix(&socket).expect("bind test socket")]);
    let mut client = RetryClient::new(&socket);
    let acked = client.request(&Json::obj([
        ("op", Json::from("submit")),
        ("kernels", Json::Arr(vec![Json::from("compress")])),
        ("insts", Json::from(INSTS)),
        ("replicas", Json::from(JOBS)),
        ("client", Json::from("journaled")),
        ("wait", Json::Bool(false)),
    ]));
    assert_eq!(acked.get("ok").and_then(Json::as_bool), Some(true), "{acked}");
    let ids: Vec<u64> = acked
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("job ids")
        .iter()
        .map(|j| j.as_u64().expect("id"))
        .collect();
    assert_eq!(ids.len(), JOBS);
    drop(client);
    let dump = handle.kill();
    let completed_first = dump.get("completed").and_then(Json::as_u64).unwrap();
    assert!(
        (completed_first as usize) < JOBS,
        "the kill must land with the queue non-empty (completed {completed_first})"
    );

    // Second life on the same journal: exactly the unfinished jobs replay
    // (completed ones never run twice), in their original order.
    let reborn = Server::start(cfg(), vec![Listener::unix(&socket).expect("rebind socket")]);
    let (recovered, rejected) = reborn.journal_stats();
    assert_eq!(rejected, 0, "a cleanly appended journal replays in full");
    assert_eq!(recovered, JOBS as u64 - completed_first, "pending = submitted - completed");

    let mut client = RetryClient::new(&socket);
    let drained = client.request(&Json::obj([("op", Json::from("drain"))]));
    assert_eq!(drained.get("ok").and_then(Json::as_bool), Some(true), "{drained}");

    // Poll every original id: recovered ones are done in the reborn
    // server; ones settled before the kill were compacted away.
    let mut served = BTreeMap::new();
    let mut unknown = 0u64;
    for id in &ids {
        let polled = client
            .request(&Json::obj([("op", Json::from("poll")), ("job", Json::from(*id))]));
        if polled.get("ok").and_then(Json::as_bool) == Some(true) {
            let job = polled.get("job").expect("job record");
            assert_eq!(
                job.get("status").and_then(Json::as_str),
                Some("done"),
                "recovered job {id} settled done"
            );
            served.insert(
                job.get("name").and_then(Json::as_str).expect("name").to_string(),
                result_fields(job),
            );
        } else {
            unknown += 1;
        }
    }
    assert_eq!(unknown, completed_first, "exactly the pre-kill completions are gone");
    assert_eq!(served.len() as u64, recovered);

    // Bit-identity: the replayed jobs match an offline run of the same
    // manifest, name for name.
    let offline_jobs: Vec<fastsim_core::BatchJob> =
        fastsim_workloads::Manifest::select(&["compress"], INSTS)
            .expect("known kernel")
            .replicated(JOBS)
            .into_jobs()
            .into_iter()
            .map(|j| fastsim_core::BatchJob::new(j.name, j.program))
            .collect();
    let offline = fastsim_core::BatchDriver::new(1).run_round(&offline_jobs).expect("offline");
    for j in &offline.jobs {
        let fields = vec![
            j.stats.cycles,
            j.stats.retired_insts,
            j.cache_stats.loads,
            j.cache_stats.stores,
            j.cache_stats.l1_misses,
            j.cache_stats.writebacks,
        ];
        if let Some(served_fields) = served.get(&j.name) {
            assert_eq!(served_fields, &fields, "replayed {} == offline", j.name);
        }
    }

    let stopped = client.request(&Json::obj([("op", Json::from("shutdown"))]));
    assert_eq!(stopped.get("ok").and_then(Json::as_bool), Some(true));
    let final_dump = reborn.wait();
    let completed_second = final_dump.get("completed").and_then(Json::as_u64).unwrap();
    assert_eq!(
        completed_first + completed_second,
        JOBS as u64,
        "every job completed exactly once across both lives"
    );
    let journal = final_dump.get("journal").expect("journal block in the dump");
    assert_eq!(journal.get("recovered").and_then(Json::as_u64), Some(recovered));
    assert_eq!(journal.get("rejected").and_then(Json::as_u64), Some(0));
}
