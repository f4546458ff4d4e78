//! Parallel batch-simulation driver with shared warm p-action caches.
//!
//! A *batch* is a list of (program, configuration) jobs. The driver runs
//! them in *rounds* across a pool of worker threads:
//!
//! 1. At round start, the master p-action cache of each job group (jobs
//!    with the same program/µ-architecture/cache fingerprint share a
//!    group) is frozen into an immutable, `Arc`-shared
//!    [`WarmCacheSnapshot`].
//! 2. Each job thaws a private working copy of its group's snapshot
//!    ([`Simulator::with_warm_snapshot`]), replays from it, and records
//!    its own memoization delta. Jobs are claimed from a shared queue, so
//!    the pool load-balances; *which* worker runs a job never affects the
//!    job's results, because every job starts from the same frozen
//!    snapshot.
//! 3. After all jobs finish, the driver folds each job's frozen delta
//!    back into its group's master cache
//!    ([`fastsim_memo::PActionCache::merge_from`]) — **in job order**,
//!    not completion order, with first-writer-wins on configuration keys
//!    — so the merged master is also independent of scheduling.
//!
//! The consequence is the driver's central guarantee, asserted by the
//! repository's `batch_determinism` test: a batch run with any number of
//! workers produces **bit-identical per-job statistics** to a sequential
//! run of the same round structure. Across rounds, the merged master
//! cache warms up: round *n+1* replays what any job of round *n*
//! recorded, so the fleet-wide memoization hit rate rises.
//!
//! ```
//! use fastsim_core::batch::{BatchDriver, BatchJob};
//! use fastsim_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.addi(Reg::R1, Reg::R0, 100);
//! a.label("l");
//! a.subi(Reg::R1, Reg::R1, 1);
//! a.bne(Reg::R1, Reg::R0, "l");
//! a.halt();
//! let program = a.assemble().unwrap();
//!
//! let jobs = vec![BatchJob::new("loop-a", program.clone()), BatchJob::new("loop-b", program)];
//! let mut driver = BatchDriver::new(2);
//! let round1 = driver.run_round(&jobs).unwrap();
//! let round2 = driver.run_round(&jobs).unwrap();
//! // Same snapshot per round: both jobs report identical statistics...
//! assert_eq!(round1.jobs[0].stats, round1.jobs[1].stats);
//! // ...and the merged warm cache makes round 2 replay round 1's work.
//! assert!(round2.memo_hit_rate() > round1.memo_hit_rate());
//! ```

pub mod store;

use crate::engine::{fingerprint, Simulator, WarmCacheSnapshot};
use crate::error::{BuildError, SimError};
use crate::stats::SimStats;
use fastsim_isa::Program;
use fastsim_mem::{CacheConfig, CacheStats, HierarchyConfig, LevelStats};
use fastsim_memo::{CacheSnapshot, MemoStats, MergeOutcome, PActionCache, Policy};
use fastsim_uarch::UArchConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One simulation job of a batch: a program under a processor model.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Display name (reports refer to jobs by name).
    pub name: String,
    /// The program image to simulate.
    pub program: Program,
    /// µ-architecture parameters.
    pub uarch: UArchConfig,
    /// Memory-hierarchy parameters (any depth; a flat [`CacheConfig`]
    /// lowers via `.into()`).
    pub hierarchy: HierarchyConfig,
    /// p-action cache replacement policy. Jobs with the same fingerprint
    /// share one master cache whose policy is fixed by the first job seen
    /// for that group.
    pub policy: Policy,
    /// Inert: never read, `u32::MAX` by default. Trace-compiled replay no
    /// longer exists; the field is kept only so that `perfbench/` builds
    /// unchanged.
    pub trace_hotness: u32,
}

impl BatchJob {
    /// A job with the paper's Table 1 parameters and an unbounded
    /// p-action cache.
    pub fn new(name: impl Into<String>, program: Program) -> BatchJob {
        BatchJob {
            name: name.into(),
            program,
            uarch: UArchConfig::table1(),
            hierarchy: CacheConfig::table1().into(),
            policy: Policy::Unbounded,
            trace_hotness: u32::MAX,
        }
    }

    /// The job's warm-cache fingerprint (its sharing group).
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.program, &self.uarch, &self.hierarchy)
    }
}

/// Why a batch round failed. The offending job is identified by index and
/// name; the first failing job (in job order) is reported.
#[derive(Clone, Debug)]
pub enum BatchError {
    /// A job's simulator could not be built.
    Build {
        /// Index of the job in the round's job list.
        job: usize,
        /// The job's name.
        name: String,
        /// The underlying build error.
        error: BuildError,
    },
    /// A job's simulation failed.
    Sim {
        /// Index of the job in the round's job list.
        job: usize,
        /// The job's name.
        name: String,
        /// The underlying simulation error.
        error: SimError,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Build { job, name, error } => {
                write!(f, "job #{job} `{name}` failed to build: {error}")
            }
            BatchError::Sim { job, name, error } => {
                write!(f, "job #{job} `{name}` failed to simulate: {error}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Why a *single* job run ([`run_single`]) failed. This is the
/// job-granular error the serving front end consumes; [`BatchError`] wraps
/// the same conditions with the job's index and name for whole-round
/// reporting.
#[derive(Debug)]
pub enum JobFailure {
    /// The simulator could not be built.
    Build(BuildError),
    /// The simulation failed (diverging or wild program, wedged pipeline).
    Sim(SimError),
    /// The job exceeded its deadline and was abandoned between budget
    /// chunks (the partial simulation is discarded; nothing is merged).
    Timeout {
        /// How long the job had run when the deadline check abandoned it.
        elapsed: Duration,
    },
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Build(e) => write!(f, "failed to build: {e}"),
            JobFailure::Sim(e) => write!(f, "failed to simulate: {e}"),
            JobFailure::Timeout { elapsed } => {
                write!(f, "timed out after {:.1}s", elapsed.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for JobFailure {}

/// Per-job results of one batch round.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's name.
    pub name: String,
    /// The job's warm-cache fingerprint (sharing group).
    pub fingerprint: u64,
    /// Engine statistics — deterministic: identical for any worker count.
    pub stats: SimStats,
    /// The job's final memoization counters (cumulative: they continue
    /// from the snapshot the job thawed).
    pub memo: MemoStats,
    /// Aggregate cache-hierarchy statistics — deterministic.
    pub cache_stats: CacheStats,
    /// Per-level cache statistics, nearest level first — deterministic.
    pub level_stats: Vec<LevelStats>,
    /// Configuration-lookup hits this job performed (round-local delta
    /// against the inherited snapshot) — deterministic.
    pub memo_hits: u64,
    /// Configuration-lookup misses this job performed — deterministic.
    pub memo_misses: u64,
    /// What this job's delta contributed to the merged master cache —
    /// deterministic (merges run in job order).
    pub merge: MergeOutcome,
    /// Host wall time of the job (*not* deterministic).
    pub wall: Duration,
}

impl JobReport {
    /// The job's round-local memoization hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Fleet-wide results of one batch round.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job reports, in job order.
    pub jobs: Vec<JobReport>,
    /// Worker threads the round ran with.
    pub workers: usize,
    /// Host wall time of the whole round (*not* deterministic).
    pub wall: Duration,
}

impl BatchReport {
    /// Total instructions retired across the fleet.
    pub fn total_insts(&self) -> u64 {
        self.jobs.iter().map(|j| j.stats.retired_insts).sum()
    }

    /// Total simulated cycles across the fleet.
    pub fn total_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.stats.cycles).sum()
    }

    /// Simulated instructions per host second, fleet-wide (wall-clock
    /// derived; not deterministic).
    pub fn insts_per_sec(&self) -> f64 {
        self.total_insts() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fleet-wide memoization hit rate of this round (round-local: only
    /// lookups performed by this round's jobs count).
    pub fn memo_hit_rate(&self) -> f64 {
        let hits: u64 = self.jobs.iter().map(|j| j.memo_hits).sum();
        let misses: u64 = self.jobs.iter().map(|j| j.memo_misses).sum();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fleet-wide GC survival rate (bytes surviving collections / bytes
    /// scanned), over the jobs' cumulative counters.
    pub fn gc_survival_rate(&self) -> f64 {
        let survived: u64 = self.jobs.iter().map(|j| j.memo.gc_survived_bytes).sum();
        let scanned: u64 = self.jobs.iter().map(|j| j.memo.gc_scanned_bytes).sum();
        if scanned == 0 {
            0.0
        } else {
            survived as f64 / scanned as f64
        }
    }

    /// Sum of the jobs' merge contributions.
    pub fn merged(&self) -> MergeOutcome {
        let mut total = MergeOutcome::default();
        for j in &self.jobs {
            total.configs_added += j.merge.configs_added;
            total.actions_added += j.merge.actions_added;
            total.branches_grafted += j.merge.branches_grafted;
            total.configs_deduped += j.merge.configs_deduped;
            total.bytes_added += j.merge.bytes_added;
        }
        total
    }
}

/// What one finished job hands back: its report (with
/// [`JobReport::merge`] still defaulted — the caller fills it in when the
/// delta is actually merged) and the frozen memoization delta to fold into
/// the group's master cache.
pub struct SingleOutcome {
    /// The job's report; `merge` is [`MergeOutcome::default`] until the
    /// caller merges `delta`.
    pub report: JobReport,
    /// The job's frozen p-action-cache delta, a descendant of the snapshot
    /// the job ran from (feed to [`BatchDriver::merge_delta`]).
    pub delta: CacheSnapshot,
}

/// Runs one job from a frozen warm snapshot and freezes its delta.
///
/// This is the job-granular core of the batch driver, exposed for serving
/// front ends that schedule jobs one at a time instead of in rounds. The
/// outcome depends only on `(job, snapshot)` — never on what else is
/// running — which is what makes served results bit-identical to an
/// offline [`BatchDriver::run_round`] of the same jobs: warmth moves work
/// between the detailed and replay paths but cannot change simulated
/// results (cycles, retirement, cache traffic).
///
/// With a `deadline`, the simulation runs in instruction-budget chunks and
/// is abandoned with [`JobFailure::Timeout`] once the deadline passes
/// between chunks (chunked runs are bit-identical to straight runs; the
/// engine's pause/resume is transparent). Nothing is merged on failure.
///
/// # Errors
///
/// Returns [`JobFailure`] if the simulator cannot be built, the simulation
/// fails, or the deadline expires.
pub fn run_single(
    job: &BatchJob,
    snapshot: &WarmCacheSnapshot,
    deadline: Option<Instant>,
) -> Result<SingleOutcome, JobFailure> {
    /// Instructions simulated between deadline checks (small enough that a
    /// timeout is honoured promptly, large enough to stay off the hot path).
    const DEADLINE_CHUNK_INSTS: u64 = 50_000;

    let start = Instant::now();
    let mut sim =
        Simulator::with_warm_snapshot(&job.program, snapshot, job.uarch, job.hierarchy.clone())
            .map_err(JobFailure::Build)?;
    match deadline {
        None => sim.run_to_completion().map_err(JobFailure::Sim)?,
        Some(d) => loop {
            if Instant::now() >= d {
                return Err(JobFailure::Timeout { elapsed: start.elapsed() });
            }
            let progress = sim.run(DEADLINE_CHUNK_INSTS).map_err(JobFailure::Sim)?;
            if progress.finished {
                break;
            }
        },
    }
    let stats = *sim.stats();
    let cache_stats = *sim.cache_stats();
    let level_stats = sim.cache_level_stats().to_vec();
    let memo = *sim.memo_stats().expect("batch jobs always run FastSim");
    let warm = sim.take_warm_cache().expect("FastSim run yields a warm cache");
    let delta = warm.into_pcache().freeze();
    let inherited = snapshot.stats();
    Ok(SingleOutcome {
        report: JobReport {
            name: job.name.clone(),
            fingerprint: snapshot.fingerprint(),
            stats,
            memo,
            cache_stats,
            level_stats,
            memo_hits: memo.config_hits - inherited.config_hits,
            memo_misses: memo.config_misses - inherited.config_misses,
            merge: MergeOutcome::default(),
            wall: start.elapsed(),
        },
        delta,
    })
}

/// The parallel batch-simulation driver. See the [module docs](self).
///
/// The driver owns one master p-action cache per job group (fingerprint)
/// and carries them across rounds, so repeated
/// [`run_round`](BatchDriver::run_round) calls on overlapping job lists
/// keep getting warmer.
#[derive(Debug)]
pub struct BatchDriver {
    workers: usize,
    masters: HashMap<u64, PActionCache>,
    /// Cache of the latest freeze per group, re-frozen lazily only when the
    /// master's replayable content changed since
    /// ([`PActionCache::freeze_if_newer`]): repeated
    /// [`current_snapshot`](BatchDriver::current_snapshot) calls across
    /// quiet periods are O(1) instead of cloning the arena.
    frozen: HashMap<u64, WarmCacheSnapshot>,
}

impl BatchDriver {
    /// A driver with the given worker-thread count (clamped to at least
    /// 1). `BatchDriver::new(1)` runs jobs inline on the calling thread —
    /// by construction it produces the same per-job statistics as any
    /// other worker count.
    pub fn new(workers: usize) -> BatchDriver {
        BatchDriver { workers: workers.max(1), masters: HashMap::new(), frozen: HashMap::new() }
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The master caches' memoization statistics, one entry per job group,
    /// in ascending fingerprint order.
    pub fn master_stats(&self) -> Vec<(u64, MemoStats)> {
        let mut v: Vec<(u64, MemoStats)> =
            self.masters.iter().map(|(&fp, pc)| (fp, *pc.stats())).collect();
        v.sort_by_key(|&(fp, _)| fp);
        v
    }

    /// The current frozen warm cache of the job group `fingerprint`, if
    /// any round has populated it. Always freezes a fresh copy; prefer
    /// [`current_snapshot`](BatchDriver::current_snapshot), which reuses
    /// the last freeze across quiet periods.
    pub fn warm_snapshot(&self, fingerprint: u64) -> Option<WarmCacheSnapshot> {
        self.masters
            .get(&fingerprint)
            .map(|pc| WarmCacheSnapshot::from_parts(Arc::new(pc.freeze()), fingerprint))
    }

    /// Ensures the job's group master exists (created with the job's
    /// policy on first sight, like [`run_round`](BatchDriver::run_round))
    /// and returns the group fingerprint.
    ///
    /// This is the admission hook for job-at-a-time front ends (the
    /// serving layer): `ensure_group` +
    /// [`current_snapshot`](BatchDriver::current_snapshot) +
    /// [`run_single`] + [`merge_delta`](BatchDriver::merge_delta) is the
    /// single-job decomposition of one `run_round` slot.
    pub fn ensure_group(&mut self, job: &BatchJob) -> u64 {
        let fp = job.fingerprint();
        self.masters.entry(fp).or_insert_with(|| PActionCache::new(job.policy));
        fp
    }

    /// The group's current frozen snapshot, **re-freezing only if the
    /// master changed** since the last freeze (a merge landed, or the
    /// group is new). Returns `None` for an unknown group (no
    /// [`ensure_group`](BatchDriver::ensure_group) or
    /// [`run_round`](BatchDriver::run_round) created it yet).
    ///
    /// This is the *re-freeze* hook: a serving front end calls it on its
    /// own cadence (say every N merged deltas) and hands the returned
    /// snapshot to every job it schedules until the next re-freeze, so
    /// late jobs start warmer than early ones while each job still runs
    /// from one immutable snapshot.
    pub fn current_snapshot(&mut self, fingerprint: u64) -> Option<WarmCacheSnapshot> {
        let master = self.masters.get(&fingerprint)?;
        if let Some(prev) = self.frozen.get(&fingerprint) {
            match master.freeze_if_newer(prev.cache()) {
                None => return Some(prev.clone()),
                Some(fresh) => {
                    let ws = WarmCacheSnapshot::from_parts(Arc::new(fresh), fingerprint);
                    self.frozen.insert(fingerprint, ws.clone());
                    return Some(ws);
                }
            }
        }
        let ws = WarmCacheSnapshot::from_parts(Arc::new(master.freeze()), fingerprint);
        self.frozen.insert(fingerprint, ws.clone());
        Some(ws)
    }

    /// Adopts a loaded (or shipped) snapshot as the master of its group,
    /// **if the group does not exist yet** — the boot-warming primitive: a
    /// restarted process calls this for every snapshot the
    /// [`SnapshotStore`](store::SnapshotStore) holds, and its first job
    /// per group starts at the persisted hit rate instead of cold.
    ///
    /// Returns `false` (and changes nothing) when the group already has a
    /// master — use [`import_snapshot`](BatchDriver::import_snapshot) to
    /// fold warmth into a live group.
    pub fn adopt_snapshot(&mut self, snapshot: &WarmCacheSnapshot) -> bool {
        let fp = snapshot.fingerprint();
        if self.masters.contains_key(&fp) {
            return false;
        }
        self.masters.insert(fp, PActionCache::from_snapshot(snapshot.cache()));
        // The thawed master's version equals the snapshot's, so the next
        // `current_snapshot` reuses this Arc instead of re-freezing.
        self.frozen.insert(fp, snapshot.clone());
        true
    }

    /// Folds a **foreign** snapshot — shipped from a peer process, so not
    /// a descendant of this driver's master — into its group.
    ///
    /// An absent group adopts the snapshot wholesale (returns `None`); a
    /// live group merges it key-by-key with first-writer-wins
    /// ([`PActionCache::merge_foreign`]) and returns what was copied. The
    /// merged warmth becomes visible at the next
    /// [`current_snapshot`](BatchDriver::current_snapshot) re-freeze.
    pub fn import_snapshot(&mut self, snapshot: &WarmCacheSnapshot) -> Option<MergeOutcome> {
        let fp = snapshot.fingerprint();
        match self.masters.get_mut(&fp) {
            None => {
                let adopted = self.adopt_snapshot(snapshot);
                debug_assert!(adopted);
                None
            }
            Some(master) => Some(master.merge_foreign(snapshot.cache())),
        }
    }

    /// Drains one job's frozen delta into its group's master cache
    /// (first-writer-wins, idempotent — see
    /// [`PActionCache::merge_from`]). Returns `None` for an unknown group.
    ///
    /// The merged material becomes visible to new jobs only at the next
    /// [`current_snapshot`](BatchDriver::current_snapshot) re-freeze;
    /// jobs already running keep their immutable snapshots.
    pub fn merge_delta(
        &mut self,
        fingerprint: u64,
        delta: &CacheSnapshot,
    ) -> Option<MergeOutcome> {
        self.masters.get_mut(&fingerprint).map(|m| m.merge_from(delta))
    }

    /// Runs one round: every job once, across the worker pool, each
    /// replaying from its group's round-start snapshot; then merges the
    /// job deltas into the master caches in job order.
    ///
    /// # Errors
    ///
    /// Returns the first (by job index) [`BatchError`] if any job fails to
    /// build or simulate. The master caches are left as they were at round
    /// start (no partial merges).
    pub fn run_round(&mut self, jobs: &[BatchJob]) -> Result<BatchReport, BatchError> {
        let round_start = Instant::now();

        // Freeze one snapshot per job group. Groups are created on first
        // sight with the job's policy; the freeze is reused from the last
        // round when nothing merged since (`current_snapshot`).
        let fps: Vec<u64> = jobs.iter().map(|j| j.fingerprint()).collect();
        let mut snapshots: HashMap<u64, WarmCacheSnapshot> = HashMap::new();
        for (job, &fp) in jobs.iter().zip(&fps) {
            self.ensure_group(job);
            snapshots
                .entry(fp)
                .or_insert_with(|| self.current_snapshot(fp).expect("group created above"));
        }

        // Run the jobs: a shared queue of job indices, one slot per job
        // for the outcome. Claiming order is racy; results are not.
        let next = AtomicUsize::new(0);
        let outcomes: Mutex<Vec<Option<Result<SingleOutcome, BatchError>>>> =
            Mutex::new((0..jobs.len()).map(|_| None).collect());
        let pool = self.workers.min(jobs.len()).max(1);
        if pool == 1 {
            while let Some(i) = claim(&next, jobs.len()) {
                let res = run_job(i, &jobs[i], &snapshots[&fps[i]]);
                outcomes.lock().unwrap()[i] = Some(res);
            }
        } else {
            std::thread::scope(|scope| {
                for _ in 0..pool {
                    scope.spawn(|| {
                        while let Some(i) = claim(&next, jobs.len()) {
                            let res = run_job(i, &jobs[i], &snapshots[&fps[i]]);
                            outcomes.lock().unwrap()[i] = Some(res);
                        }
                    });
                }
            });
        }

        // Collect in job order; fail on the first failing job.
        let mut reports: Vec<JobReport> = Vec::with_capacity(jobs.len());
        let mut deltas: Vec<CacheSnapshot> = Vec::with_capacity(jobs.len());
        for slot in outcomes.into_inner().unwrap() {
            let outcome = slot.expect("every claimed job stores an outcome")?;
            reports.push(outcome.report);
            deltas.push(outcome.delta);
        }

        // Merge phase: job order, first writer wins. Deterministic given
        // the job list, whatever the pool did.
        for (i, delta) in deltas.iter().enumerate() {
            let master = self.masters.get_mut(&fps[i]).expect("group created above");
            reports[i].merge = master.merge_from(delta);
        }

        Ok(BatchReport { jobs: reports, workers: pool, wall: round_start.elapsed() })
    }
}

/// Claims the next unclaimed job index, if any.
fn claim(next: &AtomicUsize, len: usize) -> Option<usize> {
    let i = next.fetch_add(1, Ordering::Relaxed);
    (i < len).then_some(i)
}

/// Runs one job from its group's round-start snapshot ([`run_single`]),
/// wrapping failures with the job's round index and name.
fn run_job(
    index: usize,
    job: &BatchJob,
    snapshot: &WarmCacheSnapshot,
) -> Result<SingleOutcome, BatchError> {
    run_single(job, snapshot, None).map_err(|failure| match failure {
        JobFailure::Build(error) => BatchError::Build { job: index, name: job.name.clone(), error },
        JobFailure::Sim(error) => BatchError::Sim { job: index, name: job.name.clone(), error },
        JobFailure::Timeout { .. } => unreachable!("run_round sets no deadline"),
    })
}

// The scoped workers share jobs and snapshots by reference.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<BatchJob>();
    assert_sync::<WarmCacheSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_isa::{Asm, Reg};

    fn loop_program(iters: i32) -> Program {
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, iters);
        a.label("l");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, "l");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn jobs_in_a_round_share_the_round_start_snapshot() {
        // Two identical jobs in one round: neither sees the other's
        // recordings, so their statistics are identical — even the memo
        // counters.
        let jobs =
            vec![BatchJob::new("a", loop_program(50)), BatchJob::new("b", loop_program(50))];
        let mut driver = BatchDriver::new(2);
        let report = driver.run_round(&jobs).unwrap();
        assert_eq!(report.jobs[0].stats, report.jobs[1].stats);
        assert_eq!(report.jobs[0].memo, report.jobs[1].memo);
        assert_eq!(report.jobs[0].memo_hits, report.jobs[1].memo_hits);
        // First writer (job 0, merge order) contributed the configs; job
        // 1's identical delta deduped against them.
        assert!(report.jobs[0].merge.configs_added > 0);
        assert_eq!(report.jobs[1].merge.configs_added, 0);
        assert!(report.jobs[1].merge.configs_deduped > 0);
    }

    #[test]
    fn second_round_replays_the_merged_cache() {
        let jobs = vec![BatchJob::new("a", loop_program(80))];
        let mut driver = BatchDriver::new(1);
        let r1 = driver.run_round(&jobs).unwrap();
        let r2 = driver.run_round(&jobs).unwrap();
        assert!(r2.memo_hit_rate() > r1.memo_hit_rate());
        assert!(
            r2.jobs[0].stats.detailed_insts < r1.jobs[0].stats.detailed_insts,
            "warm round needs less detailed simulation"
        );
        // Cycle counts are simulation results; warmth must not change them.
        assert_eq!(r1.jobs[0].stats.cycles, r2.jobs[0].stats.cycles);
        // Nothing new to merge the second time around.
        assert!(r2.jobs[0].merge.is_noop());
    }

    #[test]
    fn distinct_models_get_distinct_masters() {
        let mut narrow = UArchConfig::table1();
        narrow.fetch_width = 2;
        narrow.decode_width = 2;
        narrow.retire_width = 2;
        let mut job_b = BatchJob::new("narrow", loop_program(30));
        job_b.uarch = narrow;
        let jobs = vec![BatchJob::new("wide", loop_program(30)), job_b];
        assert_ne!(jobs[0].fingerprint(), jobs[1].fingerprint());
        let mut driver = BatchDriver::new(2);
        let report = driver.run_round(&jobs).unwrap();
        let masters = driver.master_stats();
        assert_eq!(masters.len(), 2, "one master per fingerprint group");
        assert!(masters.iter().all(|(_, s)| s.static_configs > 0));
        // Each job merged into its own group's master.
        assert!(report.jobs.iter().all(|j| j.merge.configs_added > 0));
    }

    #[test]
    fn failing_job_reports_its_index_and_spares_the_masters() {
        let ok = BatchJob::new("ok", loop_program(10));
        let mut bad = BatchJob::new("bad", loop_program(10));
        bad.uarch.fetch_width = 0; // invalid: simulator won't build
        let mut driver = BatchDriver::new(2);
        match driver.run_round(&[ok, bad]) {
            Err(BatchError::Build { job, name, .. }) => {
                assert_eq!(job, 1);
                assert_eq!(name, "bad");
            }
            other => panic!("expected a build error, got {other:?}"),
        }
        assert!(driver.master_stats().iter().all(|(_, s)| s.static_configs == 0));
    }
}
