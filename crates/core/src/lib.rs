//! # fastsim-core
//!
//! The FastSim engine: wires speculative direct-execution
//! ([`fastsim_emu`]), the detailed out-of-order µ-architecture simulator
//! ([`fastsim_uarch`]), the non-blocking cache simulator ([`fastsim_mem`])
//! and the p-action cache ([`fastsim_memo`]) into the complete simulator of
//! the paper (Figure 2 / Figure 4).
//!
//! A [`Simulator`] runs in one of two modes:
//!
//! * [`Mode::Fast`] — **FastSim**: detailed simulation records
//!   configurations and actions into the p-action cache; whenever the
//!   current configuration is already cached, the engine *fast-forwards*,
//!   replaying the recorded action chain (really performing each cache
//!   call, direct-execution resumption and queue pop, and checking each
//!   environment-dependent outcome against the recorded branches) until an
//!   unseen outcome sends it back to detailed simulation.
//! * [`Mode::Slow`] — **SlowSim**: the same simulator with memoization
//!   disabled ("the fast-forwarding simulator was turned off and no
//!   configurations were encoded"), the paper's baseline for measuring the
//!   memoization speedup.
//!
//! Both modes produce *identical* cycle counts and statistics — the
//! paper's central claim, asserted by this crate's property tests and the
//! repository's integration tests.

#![deny(missing_docs)]

pub mod batch;
mod engine;
mod error;
mod stats;

pub use batch::store::{
    LoadReport, LoadedSnapshot, PruneReport, RejectCause, RejectedSnapshot, SavedSnapshot,
    SnapshotStore,
};
pub use batch::{
    run_single, BatchDriver, BatchError, BatchJob, BatchReport, JobFailure, JobReport,
    SingleOutcome,
};
pub use engine::{CycleObserver, Mode, Progress, Simulator, WarmCache, WarmCacheSnapshot};
pub use fastsim_uarch::{CycleSummary, FetchPc, IqEntry, IqState, PipelineState};
pub use error::{BuildError, SimError};
pub use stats::SimStats;

pub use fastsim_mem::{CacheLevelConfig, CacheStats, HierarchyConfig, LevelStats, WritePolicy};
pub use fastsim_memo::{MemoStats, Policy, SnapshotDecodeError};
pub use fastsim_emu::{BranchPredictor, PredictorKind};
pub use fastsim_uarch::{IssueModel, UArchConfig};
