//! # fastsim-emu
//!
//! The functional-execution half of the FastSim reproduction — the stand-in
//! for the paper's *speculative direct-execution* of an instrumented binary.
//!
//! FastSim decouples the functional (in-order) execution of the target
//! program from the timing simulation of the out-of-order pipeline. The
//! functional engine runs ahead along *predicted* paths, recording:
//!
//! * load addresses into the **lQ** and store addresses (plus each store's
//!   pre-store memory value, for rollback) into the **sQ**;
//! * the outcome of every conditional branch and indirect jump — the only
//!   control transfers with more than one possible target — as control
//!   records (our **cQ**);
//! * a register checkpoint in the **bQ** whenever a conditional branch is
//!   *mispredicted*, so that the wrong path can be executed for real and
//!   rolled back when the µ-architecture simulator resolves the branch.
//!
//! This crate provides:
//!
//! * [`Cpu`] — architectural register state and single-instruction
//!   functional semantics (shared with the baseline simulator).
//! * [`BranchPredictor`] — the 2-bit, 512-entry branch history table of
//!   Table 1, plus a last-target table for indirect jumps.
//! * [`SpecEmulator`] — the speculative direct-execution engine
//!   ([`SpecEmulator::run_to_next_control`] / [`SpecEmulator::rollback`]).
//! * [`FuncEmulator`] — plain functional execution, used as the paper's
//!   "Program" (native execution time) surrogate and as the reference for
//!   checking that all simulators compute identical program results.

mod cpu;
mod func;
mod predictor;
mod record;
mod spec;

pub use cpu::{Cpu, Effect};
pub use func::{FuncEmulator, FuncResult, FuncStopReason};
pub use predictor::{BranchPredictor, PredictorKind, BHT_ENTRIES};
pub use record::{CtrlKind, CtrlOutcome, CtrlRec, LoadRec, StoreRec};
pub use spec::{RunOutcome, SpecEmulator, SpecError, SpecStats};

/// Maximum number of unresolved mispredicted branches the emulator will
/// execute past — the paper's `bQ` holds register data for up to four
/// mispredicted branches, matching the processor model's speculation depth.
pub const MAX_SPECULATION_DEPTH: usize = 4;
