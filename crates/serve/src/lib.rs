//! # fastsim-serve
//!
//! The serving front end: a long-lived job server exposing the batch
//! driver ([`fastsim_core::BatchDriver`]) over a line-delimited JSON
//! protocol on TCP and/or Unix sockets, so many clients share one
//! continuously warming set of p-action caches instead of each paying the
//! cold-start cost of detailed simulation.
//!
//! The serving loop is deliberately runtime-free — std sockets, threads,
//! and condvars; no async runtime — matching the workspace's
//! zero-external-dependencies policy. One I/O thread owns every client
//! socket through an epoll instance (raw syscall declarations in a
//! private `sys` module — still no external crates), so connection count
//! is decoupled from thread count. The moving parts:
//!
//! * [`protocol`] — the wire protocol: typed requests, the
//!   [`protocol::ServeError`] every refusal is, responses, defaults.
//! * [`queue`] — the bounded priority queue with per-client fairness.
//! * [`server`] — listeners, the epoll event loop, the worker pool, the
//!   re-freeze cadence, retry/quarantine, drain/shutdown.
//! * [`conn`] — the per-connection buffering state machine (partial
//!   frames, pipelining, write-backpressure), socket-free and unit-tested.
//! * [`http`] — the HTTP/1.1 gateway: a second framing that builds the
//!   same typed [`protocol::Request`] from `POST /v1/jobs`,
//!   `GET /v1/jobs/{id}`, and `GET /v1/metrics`, sharing the same event
//!   loop, dispatch and 1 MiB caps.
//! * [`journal`] — the `fastsim-journal/v1` write-ahead log: checksummed
//!   submit/start/complete/abandon records with segment rotation,
//!   compaction, and reject-don't-guess recovery.
//! * [`metrics`] — the counters/histogram registry dumped as JSON.
//! * [`client`] — a small synchronous client for the protocol.
//! * [`json`] — the hand-rolled JSON layer everything above speaks.
//! * [`b64`] — minimal base64 carrying snapshot bytes over the protocol.
//!
//! With [`server::ServeConfig::snapshot_dir`] set, the server also owns a
//! durable [`fastsim_core::SnapshotStore`]: at boot it adopts the newest
//! decodable snapshot of every group (so a restarted server serves its
//! first jobs warm), and after every re-freeze that changed a group's
//! snapshot it persists the fresh snapshot in the background. The
//! `snapshot_export` / `snapshot_import` protocol verbs ship encoded
//! snapshots between servers (fleet warmth without shared disks);
//! `docs/snapshots.md` is the format and runbook reference.
//!
//! With [`server::ServeConfig::journal_dir`] set, submissions are also
//! durable: every accepted job is appended to the [`journal`]
//! write-ahead log and fsynced *before* the acknowledgment, and a
//! killed-and-restarted server replays unfinished jobs in their original
//! band and admission order, re-serving them bit-identically.
//! `docs/operations.md` is the format spec and crash-recovery runbook.
//!
//! The server's central correctness property mirrors the batch driver's:
//! **served results are bit-identical to an offline run** of the same
//! jobs. Warmth (which snapshot a job happened to thaw) moves work between
//! the detailed and replay paths but cannot change simulated results —
//! cycles, retirement, cache traffic. The repository's `tests/serve.rs`
//! asserts this end to end, and `docs/serving.md` is the operator-facing
//! reference.
//!
//! ```no_run
//! use fastsim_serve::client::Client;
//! use fastsim_serve::json::Json;
//! use fastsim_serve::server::{Listener, ServeConfig, Server};
//!
//! let listener = Listener::tcp("127.0.0.1:0").unwrap();
//! let handle = Server::start(ServeConfig::default(), vec![listener]);
//! let addr = handle.tcp_addr().unwrap();
//!
//! let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
//! let resp = client
//!     .expect_ok(&Json::parse(
//!         r#"{"op": "submit", "kernels": ["compress"], "insts": 20000, "wait": true}"#,
//!     ).unwrap())
//!     .unwrap();
//! println!("{resp}");
//! client.shutdown().unwrap();
//! println!("final metrics: {}", handle.wait());
//! ```

#![deny(missing_docs)]

pub mod b64;
pub mod client;
pub mod conn;
pub mod http;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
mod state;
mod sys;
