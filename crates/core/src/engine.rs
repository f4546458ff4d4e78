//! The simulation engine: detailed recording, fast-forward replay, and the
//! fallback path between them.
//!
//! One executor, `Shared::perform`, is the only place an action meets the
//! environment (the emulator and the cache simulator): detailed recording
//! (`Shared::respond`) and replay (`Shared::replay`) both call it, and one
//! loop, `Simulator::replay_loop`, walks the recorded action chains.

use crate::error::{BuildError, SimError};
use crate::stats::SimStats;
use fastsim_emu::{BranchPredictor, CtrlKind, RunOutcome, SpecEmulator, SpecError};
use fastsim_hash::{fnv1a_lane, FNV1A_OFFSET};
use fastsim_isa::{DecodedProgram, Program};
use fastsim_mem::{CacheConfig, CacheSim, CacheStats, HierarchyConfig, LevelStats, PollResult};
use fastsim_memo::{
    ActionKind, CacheSnapshot, ConfigLookup, MemoStats, NodeId, OutcomeKey, PActionCache, Policy,
    RetireCounts,
};
use fastsim_uarch::{
    decode_config, encode_config_into, CycleSummary, LoadPoll, Pipeline, PipelineEnv,
    PipelineState,
    RecordFeed, RecordInfo, UArchConfig,
};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Simulation mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// FastSim: memoized fast-forwarding with the given p-action cache
    /// replacement policy.
    Fast {
        /// Replacement policy for the p-action cache.
        policy: Policy,
    },
    /// SlowSim: memoization disabled (the paper's speedup baseline).
    Slow,
}

impl Mode {
    /// FastSim with an unbounded p-action cache.
    pub fn fast() -> Mode {
        Mode::Fast { policy: Policy::Unbounded }
    }
}

/// Progress report from [`Simulator::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Progress {
    /// The program halted (simulation complete).
    pub finished: bool,
    /// Instructions retired so far (total).
    pub retired_insts: u64,
    /// Simulated cycles so far (total).
    pub cycles: u64,
}

/// How many cycles the pipeline may go without retiring anything before
/// the engine declares it wedged.
const STUCK_CYCLES: u64 = 1_000_000;

/// A populated p-action cache extracted from a finished [`Simulator`],
/// reusable to *warm-start* another simulation of the same program under
/// the same processor model ([`Simulator::take_warm_cache`] /
/// [`Simulator::with_warm_cache`]).
///
/// Memoized actions are only meaningful for the exact program image and
/// µ-architecture parameters they were recorded under, so the cache
/// carries a fingerprint that [`Simulator::with_warm_cache`] verifies.
/// (The *data-cache* configuration may differ: cache intervals re-enter
/// replay as checked outcomes, so stale intervals merely fall back to
/// detailed simulation — but the fingerprint includes it anyway, since a
/// mismatch would defeat the purpose of warming.)
#[derive(Clone, Debug)]
pub struct WarmCache {
    pcache: PActionCache,
    fingerprint: u64,
}

impl WarmCache {
    /// Memoization statistics of the warmed cache.
    pub fn stats(&self) -> &MemoStats {
        self.pcache.stats()
    }

    /// The fingerprint of the (program, µ-architecture, cache hierarchy)
    /// triple the cache was recorded under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Freezes the warm cache into an immutable, shareable
    /// [`WarmCacheSnapshot`].
    pub fn freeze(&self) -> WarmCacheSnapshot {
        WarmCacheSnapshot {
            snapshot: Arc::new(self.pcache.freeze()),
            fingerprint: self.fingerprint,
        }
    }

    pub(crate) fn into_pcache(self) -> PActionCache {
        self.pcache
    }
}

/// A frozen, read-only [`WarmCache`]: an [`Arc`]-shared
/// [`CacheSnapshot`] plus the fingerprint of the run it came from.
///
/// Unlike a [`WarmCache`] — which is consumed by
/// [`Simulator::with_warm_cache`] — a snapshot can seed any number of
/// simulators, concurrently and repeatedly
/// ([`Simulator::with_warm_snapshot`]): each simulator thaws a private
/// working copy and records its own delta, and the snapshot itself is
/// never mutated. Cloning a snapshot is cheap (it clones the `Arc`).
///
/// This is the sharing primitive behind the batch driver
/// ([`crate::batch`]).
#[derive(Clone, Debug)]
pub struct WarmCacheSnapshot {
    snapshot: Arc<CacheSnapshot>,
    fingerprint: u64,
}

impl WarmCacheSnapshot {
    pub(crate) fn from_parts(snapshot: Arc<CacheSnapshot>, fingerprint: u64) -> WarmCacheSnapshot {
        WarmCacheSnapshot { snapshot, fingerprint }
    }

    /// Memoization statistics at freeze time.
    pub fn stats(&self) -> &MemoStats {
        self.snapshot.stats()
    }

    /// The fingerprint of the (program, µ-architecture, cache hierarchy)
    /// triple the snapshot was recorded under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of configurations in the frozen cache.
    pub fn config_count(&self) -> usize {
        self.snapshot.config_count()
    }

    /// Number of action nodes in the frozen cache.
    pub fn node_count(&self) -> usize {
        self.snapshot.node_count()
    }

    /// The underlying frozen p-action cache (for merging deltas with
    /// [`PActionCache::merge_from`]).
    pub fn cache(&self) -> &CacheSnapshot {
        &self.snapshot
    }

    /// Encodes the snapshot, fingerprint and all, into the durable
    /// `fastsim-snapshot/v3` byte format ([`fastsim_memo::encode_snapshot`]).
    pub fn encode(&self) -> Vec<u8> {
        fastsim_memo::encode_snapshot(&self.snapshot, self.fingerprint)
    }

    /// Decodes a `fastsim-snapshot/v3` byte stream back into a shareable
    /// snapshot.
    ///
    /// With `expected_fingerprint`, a snapshot recorded under any other
    /// (program, µ-architecture, hierarchy) triple is rejected with
    /// [`SnapshotDecodeError::FingerprintMismatch`](fastsim_memo::SnapshotDecodeError) —
    /// a warm cache must never cross models.
    ///
    /// # Errors
    ///
    /// Any damage — wrong magic or version, truncation, checksum or bounds
    /// failure — yields a typed [`fastsim_memo::SnapshotDecodeError`]; a
    /// bad file is never partially applied.
    pub fn decode(
        bytes: &[u8],
        expected_fingerprint: Option<u64>,
    ) -> Result<WarmCacheSnapshot, fastsim_memo::SnapshotDecodeError> {
        let (snapshot, fingerprint) =
            fastsim_memo::decode_snapshot(bytes, expected_fingerprint)?;
        Ok(WarmCacheSnapshot { snapshot: Arc::new(snapshot), fingerprint })
    }
}

/// FNV-1a fingerprint of everything the recorded actions depend on, one
/// `u64` lane per value.
///
/// Hashes the full hierarchy — level count and every per-level parameter —
/// so warm caches recorded under different hierarchies can never be
/// confused, whatever their depth.
pub(crate) fn fingerprint(program: &Program, uarch: &UArchConfig, cache: &HierarchyConfig) -> u64 {
    let mut h = FNV1A_OFFSET;
    let mut eat = |v: u64| fnv1a_lane(&mut h, v);
    eat(program.base as u64);
    eat(program.entry as u64);
    for &w in &program.words {
        eat(w as u64);
    }
    for (addr, bytes) in &program.data {
        eat(*addr as u64);
        for &b in bytes {
            eat(b as u64);
        }
    }
    for v in [
        uarch.fetch_width,
        uarch.decode_width,
        uarch.retire_width,
        uarch.iq_capacity as u32,
        uarch.int_queue as u32,
        uarch.fp_queue as u32,
        uarch.addr_queue as u32,
        uarch.int_alus,
        uarch.fp_units,
        uarch.agen_units,
        uarch.cache_ports,
        uarch.phys_int_regs,
        uarch.phys_fp_regs,
        uarch.max_branches,
        uarch.lat_int_mul,
        uarch.lat_int_div,
        uarch.lat_fp_add,
        uarch.lat_fp_mul,
        uarch.lat_fp_div,
        uarch.lat_fp_sqrt,
    ] {
        eat(v as u64);
    }
    eat(cache.levels.len() as u64);
    for lvl in &cache.levels {
        for v in [lvl.bytes, lvl.assoc, lvl.line, lvl.hit_latency, lvl.miss_latency, lvl.mshrs] {
            eat(v as u64);
        }
        eat(match lvl.write_policy {
            fastsim_mem::WritePolicy::WriteThrough => 0,
            fastsim_mem::WritePolicy::WriteBack => 1,
        });
    }
    for v in [cache.memory_latency, cache.bus_bytes] {
        eat(v as u64);
    }
    eat(match uarch.issue_model {
        fastsim_uarch::IssueModel::OutOfOrder => 0,
        fastsim_uarch::IssueModel::InOrder => 1,
    });
    h
}

/// An environment action's response, as [`Shared::perform`] returns it.
/// Replay buffers every response from the moment fast-forwarding crosses a
/// configuration so that, on an unseen outcome, the detailed simulator can
/// re-run the configuration's cycles *without repeating side effects*.
#[derive(Clone, Copy, Debug)]
enum Buffered {
    Feed(RecordFeed),
    Interval(u32),
    Poll(LoadPoll),
    Store,
    Cancel,
    Rollback(u32),
}

impl Buffered {
    /// The outcome the action graph branches on, or `None` for the
    /// response of an outcome-less action.
    #[inline(always)]
    fn outcome(self) -> Option<OutcomeKey> {
        Some(match self {
            Buffered::Feed(RecordFeed::Record(r)) if r.is_indirect => {
                OutcomeKey::Indirect { target: r.target, mispredicted: r.mispredicted }
            }
            Buffered::Feed(RecordFeed::Record(r)) => {
                OutcomeKey::Branch { taken: r.taken, mispredicted: r.mispredicted }
            }
            Buffered::Feed(RecordFeed::Halted) => OutcomeKey::Halted,
            Buffered::Feed(RecordFeed::Blocked) => OutcomeKey::Blocked,
            Buffered::Interval(v) => OutcomeKey::Interval(v),
            Buffered::Poll(LoadPoll::Ready) => OutcomeKey::PollReady,
            Buffered::Poll(LoadPoll::Wait(w)) => OutcomeKey::PollWait(w),
            Buffered::Store | Buffered::Cancel | Buffered::Rollback(_) => return None,
        })
    }
}

/// Fallback/resume bookkeeping.
#[derive(Debug, Default)]
struct Resume {
    /// Cycles of the anchor configuration's group already accounted by
    /// replay; the detailed re-run suppresses counters for this many
    /// cycles.
    cycles: u32,
    /// Retires already applied by replay (suppressed during re-run;
    /// drained for verification).
    pops: RetireCounts,
    /// Environment responses observed since the anchor configuration.
    responses: VecDeque<Buffered>,
}

/// State shared between the engine loop and the pipeline's environment.
struct Shared {
    emu: SpecEmulator,
    cache: CacheSim,
    pcache: Option<PActionCache>,
    stats: SimStats,
    /// cQ position of the next record a `FetchRecord` will consume. The
    /// engine keeps direct execution *ahead* of µ-architecture fetch
    /// (paper §3.1: the simulator "advances ... up to the fetch of the
    /// current branch", i.e. the program runs first): after every record
    /// consumption or rollback it eagerly runs the emulator one more
    /// stretch, so every instruction the pipeline fetches has already
    /// executed functionally and its lQ/sQ records exist.
    next_fetch_record: usize,
    /// Cycles/retires since the last recorded action group boundary.
    pending_cycles: u32,
    pending_retired: RetireCounts,
    /// The current cycle's `Advance` action has been recorded (or is
    /// covered by an existing one during resume).
    advance_flushed: bool,
    /// Any environment interaction occurred this cycle.
    interacted: bool,
    /// The current cycle is a suppressed resume cycle.
    in_resume_cycle: bool,
    resume: Resume,
    fatal: Option<SimError>,
}

impl Shared {
    fn recording_live(&self) -> bool {
        self.pcache.is_some() && self.resume.responses.is_empty()
    }

    fn maybe_flush_advance(&mut self) {
        if self.advance_flushed {
            return;
        }
        self.advance_flushed = true;
        if let Some(pc) = &mut self.pcache {
            pc.record_action(ActionKind::Advance {
                cycles: self.pending_cycles,
                retired: self.pending_retired,
            });
            self.stats.dynamic_actions += 1;
        }
        self.pending_cycles = 0;
        self.pending_retired = RetireCounts::default();
    }

    /// Records `kind` with its observed `outcome` (`None` for outcome-less
    /// actions), after the cycle's pending `Advance`, while recording is
    /// live.
    fn record(&mut self, kind: ActionKind, outcome: Option<OutcomeKey>) {
        if !self.recording_live() {
            return;
        }
        self.maybe_flush_advance();
        if let Some(pc) = &mut self.pcache {
            let id = pc.record_action(kind);
            if let Some(key) = outcome {
                pc.set_outcome(id, key);
            }
            self.stats.dynamic_actions += 1;
        }
    }

    /// Performs one environment action on the emulator and the cache
    /// simulator. This is the only place an action meets the environment:
    /// detailed recording ([`Shared::respond`]) and both replay paths
    /// ([`Shared::replay`]) call it, so replay repeats exactly what
    /// recording did (paper §3–4).
    ///
    /// A `FetchRecord` serves the eagerly produced control record and runs
    /// direct execution one stretch further; a `Rollback` runs the
    /// corrected path's next stretch. Either may set [`Shared::fatal`].
    ///
    /// Always inlined: every caller passes a constant action or one it has
    /// just matched, so the dispatch below folds away.
    #[inline(always)]
    fn perform(&mut self, kind: ActionKind) -> Buffered {
        let now = self.stats.cycles;
        match kind {
            ActionKind::FetchRecord => {
                let feed = match self.emu.cq_get(self.next_fetch_record) {
                    Some(rec) => RecordFeed::Record(RecordInfo {
                        pc: rec.pc,
                        is_indirect: rec.kind == CtrlKind::IndirectJump,
                        taken: rec.taken,
                        mispredicted: rec.mispredicted,
                        target: rec.target,
                        next_fetch: rec.next_fetch,
                    }),
                    // The eager run could not reach another control
                    // transfer. Consistent engines never ask in this state
                    // (fetch stalls at the halt instruction or the
                    // unfetchable address instead).
                    None if self.emu.finally_halted() => RecordFeed::Halted,
                    None => RecordFeed::Blocked,
                };
                if matches!(feed, RecordFeed::Record(_)) {
                    self.next_fetch_record += 1;
                    self.ensure_record_ahead();
                }
                Buffered::Feed(feed)
            }
            ActionKind::IssueLoad { lq_index } => {
                let rec = *self.emu.lq_get(lq_index as usize).expect("issued load has an lQ entry");
                Buffered::Interval(self.cache.issue_load(rec.seq, rec.addr, rec.width, now))
            }
            ActionKind::PollLoad { lq_index } => {
                let rec = *self.emu.lq_get(lq_index as usize).expect("polled load has an lQ entry");
                Buffered::Poll(match self.cache.poll_load(rec.seq, now) {
                    PollResult::Ready => LoadPoll::Ready,
                    PollResult::Wait(w) => LoadPoll::Wait(w),
                })
            }
            ActionKind::IssueStore { sq_index } => {
                let rec = self.emu.sq_get(sq_index as usize).expect("issued store has an sQ entry");
                self.cache.issue_store(rec.addr, rec.width, now);
                Buffered::Store
            }
            ActionKind::CancelLoad { lq_index } => {
                let rec =
                    *self.emu.lq_get(lq_index as usize).expect("cancelled load has an lQ entry");
                self.cache.cancel_load(rec.seq);
                Buffered::Cancel
            }
            ActionKind::Rollback { ctrl_index } => {
                let seq = self.emu.cq_get(ctrl_index as usize).map(|rec| rec.seq);
                let redirect = self.emu.rollback(seq.expect("rollback target has a cQ entry"));
                // Wrong-path records (and the eagerly produced one, if any)
                // are gone; all remaining records are in flight. Run the
                // corrected path's next stretch so fetch finds executed
                // instructions.
                self.next_fetch_record = self.emu.cq_len();
                self.ensure_record_ahead();
                Buffered::Rollback(redirect)
            }
            ActionKind::Advance { .. } | ActionKind::Finish => {
                unreachable!("{kind:?} is not an environment action")
            }
        }
    }

    /// The detailed simulator's side of an environment action: a resume
    /// re-run gets the response replay buffered; otherwise the action is
    /// performed and recorded with its outcome.
    #[inline(always)]
    fn respond(&mut self, kind: ActionKind) -> Buffered {
        self.interacted = true;
        if let Some(b) = self.resume.responses.pop_front() {
            return b;
        }
        let b = self.perform(kind);
        self.record(kind, b.outcome());
        b
    }

    /// Replay's side of an environment action: performs it, buffers the
    /// response for a fallback re-run, and returns the outcome to follow
    /// (`None` for outcome-less actions).
    #[inline(always)]
    fn replay(&mut self, kind: ActionKind) -> Result<Option<OutcomeKey>, SimError> {
        let b = self.perform(kind);
        let outcome = b.outcome();
        // Only the actions that run direct execution can raise an error.
        if matches!(b, Buffered::Feed(_) | Buffered::Rollback(_)) {
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        self.resume.responses.push_back(b);
        Ok(outcome)
    }

    /// Replay crossed a configuration, the new fallback anchor: the resume
    /// state restarts there.
    #[inline(always)]
    fn cross_config(&mut self) {
        self.resume.cycles = 0;
        self.resume.pops = RetireCounts::default();
        self.resume.responses.clear();
        self.stats.config_visits += 1;
    }

    /// Applies the queue pops and counter updates of retirement. Always
    /// inlined: replay applies one per `Advance` action, and whether the
    /// optimizer inlines it on its own shifts with the size of the loop
    /// around it.
    #[inline(always)]
    fn apply_retire(&mut self, r: RetireCounts, replayed: bool) {
        for _ in 0..r.loads {
            self.emu.pop_load().expect("retired load has an lQ entry");
        }
        for _ in 0..r.stores {
            self.emu.pop_store().expect("retired store has an sQ entry");
        }
        for _ in 0..r.ctrls {
            self.emu.pop_ctrl().expect("retired control has a cQ entry");
        }
        self.next_fetch_record -= r.ctrls as usize;
        self.stats.retired_insts += r.insts as u64;
        self.stats.retired_loads += r.loads as u64;
        self.stats.retired_stores += r.stores as u64;
        self.stats.retired_branches += r.branches as u64;
        if replayed {
            self.stats.replayed_insts += r.insts as u64;
        } else {
            self.stats.detailed_insts += r.insts as u64;
        }
    }

    /// Runs direct execution until the cQ holds at least one record beyond
    /// [`Shared::next_fetch_record`] (or the current path halts/blocks).
    /// This is what keeps the program execution ahead of the pipeline.
    fn ensure_record_ahead(&mut self) {
        while self.emu.cq_len() <= self.next_fetch_record {
            match self.emu.run_to_next_control() {
                Ok(RunOutcome::Control(_)) => {}
                Ok(RunOutcome::Halted) => break,
                Ok(RunOutcome::Blocked) => {
                    if self.emu.speculation_depth() == 0 {
                        self.fatal = Some(SimError::WildPath);
                    }
                    break;
                }
                Err(SpecError::Diverged { pc }) => {
                    self.fatal = Some(SimError::Diverged { pc });
                    break;
                }
            }
        }
    }
}

/// A resume re-run asked for a different action than replay buffered.
#[cold]
fn desync(expected: &str, got: Buffered) -> ! {
    unreachable!("resume desync: expected {expected}, got {got:?}")
}

impl PipelineEnv for Shared {
    fn on_retire(&mut self, s: CycleSummary) {
        let counts = RetireCounts {
            insts: s.retired_insts,
            loads: s.retired_loads,
            stores: s.retired_stores,
            ctrls: s.retired_ctrls,
            branches: s.retired_branches,
        };
        if self.in_resume_cycle {
            // Already applied when the Advance action was replayed; just
            // verify the re-run retires what the recording did.
            debug_assert!(
                self.resume.pops.insts >= counts.insts,
                "resume retire desync"
            );
            self.resume.pops.insts -= counts.insts;
            return;
        }
        self.apply_retire(counts, false);
        self.pending_retired.add(counts);
    }

    fn fetch_record(&mut self, ctrl_index: usize) -> RecordFeed {
        debug_assert!(
            !self.resume.responses.is_empty() || ctrl_index == self.next_fetch_record,
            "record request out of order"
        );
        match self.respond(ActionKind::FetchRecord) {
            Buffered::Feed(f) => f,
            other => desync("record feed", other),
        }
    }

    fn issue_load(&mut self, lq_index: usize) -> u32 {
        match self.respond(ActionKind::IssueLoad { lq_index: lq_index as u32 }) {
            Buffered::Interval(v) => v,
            other => desync("interval", other),
        }
    }

    fn poll_load(&mut self, lq_index: usize) -> LoadPoll {
        match self.respond(ActionKind::PollLoad { lq_index: lq_index as u32 }) {
            Buffered::Poll(p) => p,
            other => desync("poll", other),
        }
    }

    fn issue_store(&mut self, sq_index: usize) {
        match self.respond(ActionKind::IssueStore { sq_index: sq_index as u32 }) {
            Buffered::Store => {}
            other => desync("store", other),
        }
    }

    fn cancel_load(&mut self, lq_index: usize) {
        match self.respond(ActionKind::CancelLoad { lq_index: lq_index as u32 }) {
            Buffered::Cancel => {}
            other => desync("cancel", other),
        }
    }

    fn rollback(&mut self, ctrl_index: usize) -> u32 {
        match self.respond(ActionKind::Rollback { ctrl_index: ctrl_index as u32 }) {
            Buffered::Rollback(r) => r,
            other => desync("rollback", other),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EngineMode {
    Detailed,
    Replay { cursor: NodeId },
    Finished,
}

/// The complete FastSim simulator (Figure 2): speculative
/// direct-execution, µ-architecture simulation, non-blocking cache
/// simulation and (in [`Mode::Fast`]) memoized fast-forwarding.
///
/// # Example
///
/// ```
/// use fastsim_isa::{Asm, Reg};
/// use fastsim_core::{Mode, Simulator};
///
/// let mut a = Asm::new();
/// a.addi(Reg::R1, Reg::R0, 100);
/// a.label("loop");
/// a.subi(Reg::R1, Reg::R1, 1);
/// a.bne(Reg::R1, Reg::R0, "loop");
/// a.out(Reg::R1);
/// a.halt();
/// let image = a.assemble()?;
///
/// let mut fast = Simulator::new(&image, Mode::fast())?;
/// let mut slow = Simulator::new(&image, Mode::Slow)?;
/// fast.run_to_completion()?;
/// slow.run_to_completion()?;
/// // Memoization changes nothing about the simulation results.
/// assert_eq!(fast.stats().cycles, slow.stats().cycles);
/// assert_eq!(fast.output(), slow.output());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    prog: Rc<DecodedProgram>,
    pipeline: Pipeline,
    shared: Shared,
    mode: EngineMode,
    /// The last configuration head replay crossed: the fallback anchor,
    /// kept as a node id rather than a copy of the configuration's bytes.
    /// Nothing relocates or drops a node between a crossing and the
    /// fallback that reads it, budget pauses in between included: the
    /// replacement policy runs only on a
    /// [`PActionCache::register_config`] miss, which happens in detailed
    /// mode.
    anchor: NodeId,
    /// Reusable scratch buffer for per-cycle configuration encoding: the
    /// hot path never allocates once this reaches steady-state capacity.
    scratch: Vec<u8>,
    /// Length of the current fast-forward chain.
    chain_len: u64,
    /// Last cycle at which an instruction retired (wedge detection).
    last_progress: u64,
    /// Fingerprint of (program, configs) for warm-cache reuse.
    fingerprint_of_run: u64,
    /// Per-cycle observer for pipeline tracing (detailed cycles only).
    observer: Option<CycleObserver>,
}

/// Callback invoked after every *detailed* simulated cycle with the cycle
/// number, the pipeline state and the cycle's retirement summary. See
/// [`Simulator::set_cycle_observer`].
pub type CycleObserver = Box<dyn FnMut(u64, &PipelineState, &CycleSummary)>;

impl Simulator {
    /// Creates a simulator with the paper's Table 1 parameters.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the program does not decode.
    pub fn new(program: &Program, mode: Mode) -> Result<Simulator, BuildError> {
        Simulator::with_configs(program, mode, UArchConfig::table1(), CacheConfig::table1())
    }

    /// Creates a simulator with explicit µ-architecture and cache
    /// parameters. The cache accepts either the flat two-level
    /// [`CacheConfig`] or a full N-level [`HierarchyConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the program does not decode or a
    /// configuration is invalid.
    pub fn with_configs(
        program: &Program,
        mode: Mode,
        uarch: UArchConfig,
        cache: impl Into<HierarchyConfig>,
    ) -> Result<Simulator, BuildError> {
        Simulator::with_predictor(program, mode, uarch, cache, BranchPredictor::new())
    }

    /// Creates a simulator with an explicitly sized branch predictor (for
    /// ablation studies; see
    /// [`BranchPredictor::with_entries`](fastsim_emu::BranchPredictor::with_entries)).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the program does not decode or a
    /// configuration is invalid.
    pub fn with_predictor(
        program: &Program,
        mode: Mode,
        uarch: UArchConfig,
        cache: impl Into<HierarchyConfig>,
        predictor: BranchPredictor,
    ) -> Result<Simulator, BuildError> {
        let cache: HierarchyConfig = cache.into();
        uarch.validate().map_err(BuildError::UArchConfig)?;
        cache.validate().map_err(BuildError::CacheConfig)?;
        let prog = Rc::new(program.predecode()?);
        let pcache = match mode {
            Mode::Fast { policy } => Some(PActionCache::new(policy)),
            Mode::Slow => None,
        };
        let fingerprint_of_run = fingerprint(program, &uarch, &cache);
        let mut sim = Simulator {
            pipeline: Pipeline::new(uarch, prog.clone()),
            shared: Shared {
                emu: SpecEmulator::with_predictor(prog.clone(), program, predictor),
                cache: CacheSim::new(cache),
                pcache,
                stats: SimStats::default(),
                next_fetch_record: 0,
                pending_cycles: 0,
                pending_retired: RetireCounts::default(),
                advance_flushed: false,
                interacted: false,
                in_resume_cycle: false,
                resume: Resume::default(),
                fatal: None,
            },
            prog,
            mode: EngineMode::Detailed,
            anchor: 0,
            scratch: Vec::new(),
            chain_len: 0,
            last_progress: 0,
            fingerprint_of_run,
            observer: None,
        };
        // Direct execution leads: run the first stretch so the pipeline's
        // initial fetches find functionally executed instructions.
        sim.shared.ensure_record_ahead();
        Ok(sim)
    }

    /// Creates a FastSim simulator pre-populated with the memoization
    /// state of a previous run of the same program — the second run
    /// fast-forwards almost from the first cycle.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the program does not decode or if `warm`
    /// was recorded for a different program or processor model.
    pub fn with_warm_cache(
        program: &Program,
        warm: WarmCache,
        uarch: UArchConfig,
        cache: impl Into<HierarchyConfig>,
    ) -> Result<Simulator, BuildError> {
        let cache: HierarchyConfig = cache.into();
        if warm.fingerprint != fingerprint(program, &uarch, &cache) {
            return Err(BuildError::WarmCacheMismatch);
        }
        let policy = warm.pcache.policy();
        let mut sim =
            Simulator::with_configs(program, Mode::Fast { policy }, uarch, cache)?;
        sim.shared.pcache = Some(warm.pcache);
        Ok(sim)
    }

    /// Creates a FastSim simulator that replays from a frozen, shared
    /// [`WarmCacheSnapshot`], recording its own private delta. The
    /// snapshot is never mutated; any number of simulators (including on
    /// other threads) can be seeded from the same snapshot.
    ///
    /// The simulator adopts the snapshot's replacement policy, and its
    /// memoization statistics continue from the snapshot's (so cumulative
    /// counters behave exactly as under
    /// [`with_warm_cache`](Simulator::with_warm_cache)).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the program does not decode or if the
    /// snapshot was recorded for a different program or processor model.
    pub fn with_warm_snapshot(
        program: &Program,
        warm: &WarmCacheSnapshot,
        uarch: UArchConfig,
        cache: impl Into<HierarchyConfig>,
    ) -> Result<Simulator, BuildError> {
        let cache: HierarchyConfig = cache.into();
        if warm.fingerprint != fingerprint(program, &uarch, &cache) {
            return Err(BuildError::WarmCacheMismatch);
        }
        let policy = warm.snapshot.policy();
        let mut sim =
            Simulator::with_configs(program, Mode::Fast { policy }, uarch, cache)?;
        sim.shared.pcache = Some(PActionCache::from_snapshot(&warm.snapshot));
        Ok(sim)
    }

    /// Extracts the p-action cache of a finished FastSim run for reuse
    /// with [`Simulator::with_warm_cache`]. Returns `None` in
    /// [`Mode::Slow`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation has not [`finished`](Simulator::finished)
    /// — mid-run the cache contains a dangling recording attach point.
    pub fn take_warm_cache(mut self) -> Option<WarmCache> {
        assert!(self.finished(), "warm cache extraction requires a finished run");
        let pcache = self.shared.pcache.take()?;
        Some(WarmCache { pcache, fingerprint: self.fingerprint_of_run })
    }

    /// Installs (or clears) a per-cycle observer for pipeline tracing.
    ///
    /// The observer fires after every cycle simulated by the *detailed*
    /// µ-architecture simulator — in [`Mode::Slow`] that is every cycle of
    /// the program; in [`Mode::Fast`] fast-forwarded stretches are not
    /// observed (there is no pipeline state during replay; that is the
    /// point of memoization). Use [`Mode::Slow`] for complete traces.
    pub fn set_cycle_observer(&mut self, observer: Option<CycleObserver>) {
        self.observer = observer;
    }

    /// Whole-simulation statistics.
    pub fn stats(&self) -> &SimStats {
        &self.shared.stats
    }

    /// Aggregate cache-hierarchy statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.shared.cache.stats()
    }

    /// Per-level cache statistics, nearest level first.
    pub fn cache_level_stats(&self) -> &[LevelStats] {
        self.shared.cache.level_stats()
    }

    /// Memoization statistics ([`Mode::Fast`] only).
    pub fn memo_stats(&self) -> Option<&MemoStats> {
        self.shared.pcache.as_ref().map(|p| p.stats())
    }

    /// Inert: does nothing. Trace-compiled replay no longer exists; the
    /// method is kept only so that `perfbench/` builds unchanged.
    pub fn set_trace_hotness(&mut self, _threshold: u32) {}

    /// Branch-predictor statistics.
    pub fn predictor(&self) -> &fastsim_emu::BranchPredictor {
        self.shared.emu.predictor()
    }

    /// Functional-engine statistics (wrong-path instructions, rollbacks).
    pub fn emu_stats(&self) -> fastsim_emu::SpecStats {
        self.shared.emu.stats()
    }

    /// Values the program wrote with `out` (committed path only).
    pub fn output(&self) -> &[u32] {
        self.shared.emu.output()
    }

    /// Whether the program has halted.
    pub fn finished(&self) -> bool {
        self.mode == EngineMode::Finished
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for diverging or wild programs.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        self.run(u64::MAX).map(|_| ())
    }

    /// Runs until the program halts or (roughly) `max_insts` further
    /// instructions have retired. Can be called repeatedly to continue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for diverging/wild programs or a wedged
    /// pipeline.
    pub fn run(&mut self, max_insts: u64) -> Result<Progress, SimError> {
        let budget_end = self.shared.stats.retired_insts.saturating_add(max_insts);
        loop {
            let done = match self.mode {
                EngineMode::Finished => true,
                EngineMode::Detailed => self.detailed_until(budget_end)?,
                EngineMode::Replay { cursor } => self.replay_until(cursor, budget_end)?,
            };
            let s = &self.shared.stats;
            if done || s.retired_insts >= budget_end {
                return Ok(Progress {
                    finished: done,
                    retired_insts: s.retired_insts,
                    cycles: s.cycles,
                });
            }
        }
    }

    /// Runs detailed cycles until the program halts (true), the budget is
    /// reached, or a configuration hit switches to replay (false).
    fn detailed_until(&mut self, budget_end: u64) -> Result<bool, SimError> {
        loop {
            let resuming = self.shared.resume.cycles > 0;
            if resuming {
                self.shared.resume.cycles -= 1;
            } else {
                self.shared.stats.cycles += 1;
                self.shared.stats.detailed_cycles += 1;
                self.shared.pending_cycles += 1;
            }
            self.shared.in_resume_cycle = resuming;
            self.shared.advance_flushed = resuming;
            self.shared.interacted = false;

            let summary = self.pipeline.step_cycle(&mut self.shared);

            if let Some(e) = self.shared.fatal.take() {
                return Err(e);
            }
            if let Some(obs) = &mut self.observer {
                if !resuming {
                    obs(self.shared.stats.cycles, self.pipeline.state(), &summary);
                }
            }
            if summary.retired_insts > 0 {
                self.last_progress = self.shared.stats.cycles;
            } else if self.shared.stats.cycles - self.last_progress > STUCK_CYCLES {
                return Err(SimError::Stuck { cycle: self.shared.stats.cycles });
            }
            if summary.halted {
                debug_assert!(!resuming, "halt cannot be new behaviour in a resume cycle");
                self.shared.record(ActionKind::Finish, None);
                self.mode = EngineMode::Finished;
                return Ok(true);
            }
            if let (true, Some(pc)) = (self.shared.interacted, &mut self.shared.pcache) {
                encode_config_into(&mut self.scratch, self.pipeline.state(), &self.prog);
                match pc.register_config(&self.scratch) {
                    ConfigLookup::Hit(node) => {
                        self.chain_len = 0;
                        self.mode = EngineMode::Replay { cursor: node };
                        return Ok(false);
                    }
                    ConfigLookup::Miss => self.shared.stats.config_visits += 1,
                }
            }
            if self.shared.stats.retired_insts >= budget_end {
                return Ok(false);
            }
        }
    }

    /// Fast-forwards along the action chain from `cursor` until the
    /// program finishes (true), the budget is reached, or an unseen
    /// outcome falls back to detailed simulation (false).
    ///
    /// The p-action cache is moved out of `shared` for the duration of the
    /// call instead of unwrapping the `Option` on every replayed action:
    /// replay never records, and nothing reached through `shared` during
    /// replay touches the cache.
    fn replay_until(&mut self, cursor: NodeId, budget_end: u64) -> Result<bool, SimError> {
        let mut pc = self.shared.pcache.take().expect("replay requires a p-action cache");
        let result = self.replay_loop(&mut pc, cursor, budget_end);
        self.shared.pcache = Some(pc);
        result
    }

    fn replay_loop(
        &mut self,
        pc: &mut PActionCache,
        mut cursor: NodeId,
        budget_end: u64,
    ) -> Result<bool, SimError> {
        loop {
            // One read of the node serves the whole action.
            let node = pc.node(cursor);
            // Crossing a configuration: the new fallback anchor.
            if node.is_config_head() {
                self.anchor = cursor;
                self.shared.cross_config();
            }
            self.count_replayed();
            let (next, key) = match node.kind() {
                ActionKind::Advance { cycles, retired } => {
                    // Only retirement moves the budget: pause at the successor.
                    let paused = self.replay_advance(cycles, retired, budget_end);
                    match pc.successor_of(&node) {
                        Some(n) if paused => {
                            self.mode = EngineMode::Replay { cursor: n };
                            return Ok(false);
                        }
                        next => (next, None),
                    }
                }
                ActionKind::Finish => {
                    self.close_chain();
                    self.mode = EngineMode::Finished;
                    return Ok(true);
                }
                env => match self.shared.replay(env)? {
                    Some(key) => (pc.branch_of(&node, key), Some(key)),
                    None => (pc.successor_of(&node), None),
                },
            };
            cursor = match next {
                Some(n) => n,
                None => return self.fallback(pc, cursor, key).map(|()| false),
            };
        }
    }

    /// Counts one replayed action.
    #[inline(always)]
    fn count_replayed(&mut self) {
        self.shared.stats.dynamic_actions += 1;
        self.shared.stats.replayed_actions += 1;
        self.chain_len += 1;
    }

    /// Replays one `Advance` action: `cycles` cycles retiring `retired`;
    /// returns whether the budget is reached.
    #[inline(always)]
    fn replay_advance(&mut self, cycles: u32, retired: RetireCounts, budget_end: u64) -> bool {
        let s = &mut self.shared;
        s.stats.cycles += u64::from(cycles);
        s.stats.replayed_cycles += u64::from(cycles);
        s.apply_retire(retired, true);
        s.resume.cycles += cycles;
        s.resume.pops.add(retired);
        if retired.insts > 0 {
            self.last_progress = s.stats.cycles;
        }
        s.stats.retired_insts >= budget_end
    }

    fn close_chain(&mut self) {
        self.shared.stats.chains += 1;
        self.shared.stats.chain_len_sum += self.chain_len;
        self.shared.stats.chain_len_max = self.shared.stats.chain_len_max.max(self.chain_len);
        self.chain_len = 0;
    }

    /// An unseen outcome (or a collected link) ended fast-forwarding:
    /// resume detailed simulation from the anchor configuration, re-running
    /// its cycles with the buffered responses, and record the new branch of
    /// the action chain from the divergence point.
    fn fallback(
        &mut self,
        pc: &mut PActionCache,
        cursor: NodeId,
        key: Option<OutcomeKey>,
    ) -> Result<(), SimError> {
        self.close_chain();
        // Decoded before recording re-arms: the anchor's bytes are read
        // straight from the arena (see `Simulator::anchor`).
        let cfg = pc.config_at(self.anchor).expect("anchor sits on a config head");
        let state =
            decode_config(cfg, &self.prog).map_err(|e| SimError::ConfigCorrupt(e.to_string()))?;
        pc.resume_recording_at(cursor, key);
        self.pipeline.set_state(state);
        self.mode = EngineMode::Detailed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_isa::{Asm, Reg};

    fn loop_program(n: i32) -> Program {
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, n);
        a.addi(Reg::R2, Reg::R0, 0);
        a.label("loop");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, "loop");
        a.out(Reg::R2);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn fast_and_slow_agree_on_simple_loop() {
        let image = loop_program(50);
        let mut fast = Simulator::new(&image, Mode::fast()).unwrap();
        let mut slow = Simulator::new(&image, Mode::Slow).unwrap();
        fast.run_to_completion().unwrap();
        slow.run_to_completion().unwrap();
        assert!(fast.finished() && slow.finished());
        assert_eq!(fast.stats().cycles, slow.stats().cycles, "cycle-exact");
        assert_eq!(fast.stats().retired_insts, slow.stats().retired_insts);
        assert_eq!(fast.stats().retired_loads, slow.stats().retired_loads);
        assert_eq!(fast.stats().retired_branches, slow.stats().retired_branches);
        assert_eq!(fast.output(), slow.output());
        assert_eq!(fast.cache_stats(), slow.cache_stats());
        assert_eq!(fast.output(), &[50 * 51 / 2]);
    }

    #[test]
    fn fast_replays_most_instructions() {
        let image = loop_program(2000);
        let mut fast = Simulator::new(&image, Mode::fast()).unwrap();
        fast.run_to_completion().unwrap();
        let s = fast.stats();
        assert!(s.replayed_insts > s.detailed_insts, "{s:?}");
        assert!(s.detailed_fraction() < 0.2, "detailed fraction {}", s.detailed_fraction());
        assert!(s.config_visits > 0);
        assert!(s.chain_len_max >= 1);
    }

    #[test]
    fn run_budget_pauses_and_resumes() {
        let image = loop_program(5000);
        let mut sim = Simulator::new(&image, Mode::fast()).unwrap();
        let p1 = sim.run(1000).unwrap();
        assert!(!p1.finished);
        assert!(p1.retired_insts >= 1000);
        let p2 = sim.run(u64::MAX).unwrap();
        assert!(p2.finished);
        // A separate uninterrupted run agrees exactly.
        let mut whole = Simulator::new(&image, Mode::fast()).unwrap();
        let pw = whole.run(u64::MAX).unwrap();
        assert_eq!(pw.cycles, p2.cycles);
        assert_eq!(pw.retired_insts, p2.retired_insts);
    }

    #[test]
    fn divergent_program_reports_error() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        a.halt();
        let image = a.assemble().unwrap();
        let mut sim = Simulator::new(&image, Mode::fast()).unwrap();
        // Direct execution runs ahead of the pipeline and exhausts its
        // fuel without ever reaching a conditional branch or indirect
        // jump: the engine reports divergence instead of spinning forever.
        match sim.run(10_000) {
            Err(SimError::Diverged { .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn wild_jump_on_committed_path_is_an_error() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0x0900_0000);
        a.addi(Reg::R2, Reg::R0, 1);
        a.label("x");
        a.subi(Reg::R2, Reg::R2, 1);
        a.bne(Reg::R2, Reg::R0, "x"); // gives the engine a record request
        a.jr(Reg::R1); // wild jump, committed path
        a.halt();
        let image = a.assemble().unwrap();
        let mut sim = Simulator::new(&image, Mode::fast()).unwrap();
        match sim.run(1_000_000) {
            Err(SimError::WildPath) => {}
            other => panic!("expected WildPath, got {other:?}"),
        }
    }

    #[test]
    fn mispredicted_branches_roll_back_and_still_agree() {
        // Data-dependent branch pattern that defeats the 2-bit predictor.
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, 200); // i = 200
        a.addi(Reg::R3, Reg::R0, 0);
        a.label("loop");
        a.andi(Reg::R4, Reg::R1, 1); // i & 1
        a.beq(Reg::R4, Reg::R0, "even");
        a.addi(Reg::R3, Reg::R3, 7); // odd arm
        a.j("join");
        a.label("even");
        a.addi(Reg::R3, Reg::R3, 1); // even arm
        a.label("join");
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, "loop");
        a.out(Reg::R3);
        a.halt();
        let image = a.assemble().unwrap();
        let mut fast = Simulator::new(&image, Mode::fast()).unwrap();
        let mut slow = Simulator::new(&image, Mode::Slow).unwrap();
        fast.run_to_completion().unwrap();
        slow.run_to_completion().unwrap();
        assert_eq!(fast.stats().cycles, slow.stats().cycles);
        assert_eq!(fast.output(), slow.output());
        assert_eq!(fast.output(), &[100 * 7 + 100]);
        assert!(fast.emu_stats().rollbacks > 0, "pattern must mispredict");
        assert_eq!(fast.emu_stats().rollbacks, slow.emu_stats().rollbacks);
    }

    #[test]
    fn memory_traffic_agrees_between_modes() {
        // Strided stores and loads exercising the cache hierarchy.
        let mut a = Asm::new();
        a.li(Reg::R1, 0x0010_0000);
        a.addi(Reg::R2, Reg::R0, 300);
        a.label("wr");
        a.sw(Reg::R2, Reg::R1, 0);
        a.addi(Reg::R1, Reg::R1, 64);
        a.subi(Reg::R2, Reg::R2, 1);
        a.bne(Reg::R2, Reg::R0, "wr");
        a.li(Reg::R1, 0x0010_0000);
        a.addi(Reg::R2, Reg::R0, 300);
        a.addi(Reg::R3, Reg::R0, 0);
        a.label("rd");
        a.lw(Reg::R4, Reg::R1, 0);
        a.add(Reg::R3, Reg::R3, Reg::R4);
        a.addi(Reg::R1, Reg::R1, 64);
        a.subi(Reg::R2, Reg::R2, 1);
        a.bne(Reg::R2, Reg::R0, "rd");
        a.out(Reg::R3);
        a.halt();
        let image = a.assemble().unwrap();
        let mut fast = Simulator::new(&image, Mode::fast()).unwrap();
        let mut slow = Simulator::new(&image, Mode::Slow).unwrap();
        fast.run_to_completion().unwrap();
        slow.run_to_completion().unwrap();
        assert_eq!(fast.stats().cycles, slow.stats().cycles);
        assert_eq!(fast.stats().retired_insts, slow.stats().retired_insts);
        assert_eq!(fast.stats().retired_loads, slow.stats().retired_loads);
        assert_eq!(fast.stats().retired_stores, slow.stats().retired_stores);
        assert_eq!(fast.cache_stats(), slow.cache_stats());
        assert_eq!(fast.output(), &[(1..=300u32).sum::<u32>()]);
        assert!(fast.cache_stats().l1_misses > 0, "strides must miss");
    }

    #[test]
    fn flush_policy_preserves_results() {
        let image = loop_program(3000);
        let mut unbounded = Simulator::new(&image, Mode::fast()).unwrap();
        let mut tiny = Simulator::new(
            &image,
            Mode::Fast { policy: Policy::FlushOnFull { limit: 256 } },
        )
        .unwrap();
        unbounded.run_to_completion().unwrap();
        tiny.run_to_completion().unwrap();
        assert_eq!(unbounded.stats().cycles, tiny.stats().cycles);
        assert_eq!(unbounded.output(), tiny.output());
        assert!(tiny.memo_stats().unwrap().flushes > 0, "tiny cache must flush");
    }

    #[test]
    fn warm_cache_skips_detailed_simulation() {
        let image = loop_program(800);
        let mut first = Simulator::new(&image, Mode::fast()).unwrap();
        first.run_to_completion().unwrap();
        let cold_stats = *first.stats();
        let warm = first.take_warm_cache().expect("fast mode yields a warm cache");
        assert!(warm.stats().static_configs > 0);

        let mut second = Simulator::with_warm_cache(
            &image,
            warm,
            UArchConfig::table1(),
            CacheConfig::table1(),
        )
        .unwrap();
        second.run_to_completion().unwrap();
        // Identical simulation, but almost everything replays from the
        // first interaction cycle onward.
        assert_eq!(second.stats().cycles, cold_stats.cycles);
        assert_eq!(second.stats().retired_insts, cold_stats.retired_insts);
        assert!(
            second.stats().detailed_insts < cold_stats.detailed_insts / 4,
            "warm {} vs cold {}",
            second.stats().detailed_insts,
            cold_stats.detailed_insts
        );
    }

    #[test]
    fn warm_cache_rejects_other_programs() {
        let image = loop_program(100);
        let other = loop_program(101);
        let mut first = Simulator::new(&image, Mode::fast()).unwrap();
        first.run_to_completion().unwrap();
        let warm = first.take_warm_cache().unwrap();
        match Simulator::with_warm_cache(&other, warm, UArchConfig::table1(), CacheConfig::table1())
        {
            Err(BuildError::WarmCacheMismatch) => {}
            other => panic!("expected mismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn warm_cache_rejects_other_models() {
        let image = loop_program(100);
        let mut first = Simulator::new(&image, Mode::fast()).unwrap();
        first.run_to_completion().unwrap();
        let warm = first.take_warm_cache().unwrap();
        let mut wide = UArchConfig::table1();
        wide.int_alus = 4;
        match Simulator::with_warm_cache(&image, warm, wide, CacheConfig::table1()) {
            Err(BuildError::WarmCacheMismatch) => {}
            other => panic!("expected mismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn slow_mode_has_no_warm_cache() {
        let image = loop_program(50);
        let mut sim = Simulator::new(&image, Mode::Slow).unwrap();
        sim.run_to_completion().unwrap();
        assert!(sim.take_warm_cache().is_none());
    }

    #[test]
    fn in_order_issue_model_is_slower_and_still_exact() {
        use fastsim_uarch::IssueModel;
        let image = loop_program(400);
        let mut inorder_cfg = UArchConfig::table1();
        inorder_cfg.issue_model = IssueModel::InOrder;
        let mut ooo = Simulator::new(&image, Mode::fast()).unwrap();
        ooo.run_to_completion().unwrap();
        let mut fast = Simulator::with_configs(
            &image,
            Mode::fast(),
            inorder_cfg,
            CacheConfig::table1(),
        )
        .unwrap();
        let mut slow = Simulator::with_configs(
            &image,
            Mode::Slow,
            inorder_cfg,
            CacheConfig::table1(),
        )
        .unwrap();
        fast.run_to_completion().unwrap();
        slow.run_to_completion().unwrap();
        // Memoization stays exact under the variant pipeline model.
        assert_eq!(fast.stats().cycles, slow.stats().cycles);
        assert_eq!(fast.output(), slow.output());
        // And in-order issue cannot beat out-of-order issue.
        assert!(fast.stats().cycles >= ooo.stats().cycles);
    }

    #[test]
    fn warm_cache_distinguishes_issue_models() {
        use fastsim_uarch::IssueModel;
        let image = loop_program(100);
        let mut first = Simulator::new(&image, Mode::fast()).unwrap();
        first.run_to_completion().unwrap();
        let warm = first.take_warm_cache().unwrap();
        let mut inorder_cfg = UArchConfig::table1();
        inorder_cfg.issue_model = IssueModel::InOrder;
        match Simulator::with_warm_cache(&image, warm, inorder_cfg, CacheConfig::table1()) {
            Err(BuildError::WarmCacheMismatch) => {}
            other => panic!("expected mismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn gc_policies_preserve_results() {
        let image = loop_program(3000);
        let mut reference = Simulator::new(&image, Mode::Slow).unwrap();
        reference.run_to_completion().unwrap();
        for policy in [
            Policy::CopyingGc { limit: 256 },
            Policy::GenerationalGc { limit: 256 },
        ] {
            let mut sim = Simulator::new(&image, Mode::Fast { policy }).unwrap();
            sim.run_to_completion().unwrap();
            assert_eq!(sim.stats().cycles, reference.stats().cycles, "{policy:?}");
            assert_eq!(sim.output(), reference.output());
            assert!(sim.memo_stats().unwrap().collections > 0);
        }
    }
}
