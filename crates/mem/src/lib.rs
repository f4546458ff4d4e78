//! # fastsim-mem
//!
//! Memory substrate for the FastSim reproduction:
//!
//! * [`Memory`] — sparse target memory behind a two-level page table
//!   (a directory grown on demand over lazily allocated 1,024-page
//!   leaves), used by the functional engine and the baseline simulator.
//! * [`CacheSim`] — the timing-only, aggressive **non-blocking cache
//!   simulator**: an N-level hierarchy described by a
//!   [`HierarchyConfig`] (per-level capacity, associativity, latencies,
//!   MSHRs and write policy) behind a split-transaction bus. The paper's
//!   Table 1 model — write-through L1, write-back L2 — is the two-level
//!   [`HierarchyConfig::table1`].
//!
//! The cache simulator follows the paper's narrow interface exactly
//! (§4.1): the µ-architecture issues a load and receives "the shortest
//! interval (in cycles) before the requested data could become available";
//! after waiting that interval it polls again and either learns the data is
//! ready or receives a further interval (e.g. an L1 miss is first reported
//! as a 6-cycle delay, and only at the following poll is an L2 miss
//! discovered and an additional memory-access delay returned). No program
//! data flows through this interface — only time. Because only intervals
//! cross the interface, hierarchy depth is invisible to the callers: a
//! deeper hierarchy just yields more poll/wait round trips.
//!
//! The cache simulator is deliberately **not memoized**: its internal state
//! (tag arrays, MSHR and bus occupancy) stays private, and its influence on
//! the µ-architecture re-enters only through the returned intervals, which
//! the fast-forwarding replayer checks against recorded outcomes.
//!
//! Both structures on the per-access path are index-addressed: pages are
//! found by page number and outstanding loads in a short table bounded by
//! the pipeline's window, so neither a replayed load nor a memory access
//! hashes anything.

#![deny(missing_docs)]

mod cache;
mod config;
mod memory;

pub use cache::{CacheSim, CacheStats, LevelStats, LoadId, PollResult};
pub use config::{CacheLevelConfig, HierarchyConfig, WritePolicy, MAX_LEVELS};
pub use memory::{Memory, PAGE_BYTES};
