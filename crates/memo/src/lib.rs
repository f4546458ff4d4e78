//! # fastsim-memo
//!
//! The **p-action cache** — FastSim's memoization structure (paper §4.2).
//!
//! The cache maps µ-architecture *configurations* (compressed iQ
//! snapshots, opaque byte strings produced by `fastsim-uarch`) to chains of
//! *actions*: the ways the detailed simulator interacted with direct
//! execution and the cache simulator, plus counter updates. Chains form a
//! graph: actions whose result depends on the environment (a cache-access
//! interval, a control-flow outcome) have one successor link per observed
//! outcome, grown lazily — an unseen outcome terminates fast-forwarding and
//! detailed simulation resumes, recording a new branch of the chain
//! (paper Figure 6).
//!
//! The cache supports the replacement policies evaluated in §4.3/§5:
//! unbounded growth, **flush-on-full** (the paper's recommendation), a
//! **copying garbage collector** that keeps only actions accessed since the
//! last collection, and a **generational** variant. The paper's finding —
//! that GC is not worth its complexity over simple flushing — is reproduced
//! by the `gc_study` benchmark.
//!
//! This crate is a pure data structure: it never calls the simulators.
//! The engine (`fastsim-core`) records actions while running the detailed
//! simulator and navigates the graph while fast-forwarding.

#![deny(missing_docs)]

mod action;
mod cache;
mod index;
mod policy;
mod snapshot;
mod wire;

pub use action::{ActionKind, NodeId, OutcomeKey, RetireCounts};
pub use cache::{ConfigLookup, MemoStats, Node, PActionCache};
pub use policy::Policy;
pub use snapshot::{CacheSnapshot, MergeOutcome};
pub use wire::{decode_snapshot, encode_snapshot, SnapshotDecodeError, SNAPSHOT_FORMAT};
