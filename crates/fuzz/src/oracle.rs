//! The fast==slow differential oracle.
//!
//! [`check`] runs one generated kernel through the detailed baseline
//! (`Mode::Slow`) and the memoized fast path under a configurable matrix
//! of hierarchy presets × GC policies, plus a freeze/thaw/merge cycle
//! through [`BatchDriver`], and demands bit-identical statistics
//! everywhere — the paper's central claim, under arbitrary inputs instead
//! of hand-picked workloads.
//!
//! For harness self-tests, [`FaultInjection`] perturbs the *observed*
//! fast-path statistics before comparison, simulating a replay accounting
//! bug; the oracle must catch it and the shrinker must minimize it.

use crate::kernel::KernelSpec;
use fastsim_core::{
    BatchDriver, BatchJob, CacheStats, HierarchyConfig, LevelStats, Mode, Policy, SimStats,
    Simulator, UArchConfig,
};
use fastsim_emu::FuncEmulator;
use fastsim_isa::Program;
use std::fmt;
use std::rc::Rc;

/// Which (if any) deliberate bug to inject into the fast path's observed
/// statistics. Used to prove the oracle catches real divergences and the
/// shrinker minimizes them; `None` in all production configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// Honest comparison.
    #[default]
    None,
    /// Add one cycle to every fast run that retired at least one store —
    /// a plausible "replay miscounts store completion" bug. The minimal
    /// reproducer is a kernel whose body is a single store.
    OvercountStoreCycles,
}

/// How thoroughly [`check`] exercises the freeze/thaw/merge lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreezeThaw {
    /// Skip the batch lifecycle check (cheapest; used while shrinking).
    Off,
    /// Run it on the first preset only (the default).
    FirstPreset,
    /// Run it on every preset.
    AllPresets,
}

/// The comparison matrix one kernel is checked under.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Hierarchy presets to sweep (`table1`, `three-level`, `tiny-l1`).
    pub presets: Vec<String>,
    /// GC policies for the fast runs.
    pub policies: Vec<Policy>,
    /// Also require program output to match the plain functional emulator.
    pub check_emulator: bool,
    /// Also require two identical fast runs to produce bit-identical
    /// `SimStats` *and* `MemoStats` (run-to-run determinism).
    pub check_determinism: bool,
    /// Freeze/thaw/merge lifecycle coverage.
    pub freeze_thaw: FreezeThaw,
    /// Deliberate bug injection (harness self-tests only).
    pub fault: FaultInjection,
}

impl OracleConfig {
    /// The full matrix: all three presets, all four GC policies (bounded
    /// ones with a limit small enough that tiny kernels actually trigger
    /// flushes/collections), emulator cross-check, determinism check, and
    /// the batch lifecycle on the first preset.
    pub fn thorough() -> OracleConfig {
        let limit = 4 << 10;
        OracleConfig {
            presets: HierarchyConfig::preset_names().iter().map(|s| s.to_string()).collect(),
            policies: vec![
                Policy::Unbounded,
                Policy::FlushOnFull { limit },
                Policy::CopyingGc { limit },
                Policy::GenerationalGc { limit },
            ],
            check_emulator: true,
            check_determinism: true,
            freeze_thaw: FreezeThaw::FirstPreset,
            fault: FaultInjection::None,
        }
    }

    /// A single-variant configuration (first preset, unbounded policy, no
    /// lifecycle) — the cheap oracle the shrinker calls hundreds of times.
    pub fn quick() -> OracleConfig {
        OracleConfig {
            presets: vec!["table1".to_string()],
            policies: vec![Policy::Unbounded],
            check_emulator: true,
            check_determinism: false,
            freeze_thaw: FreezeThaw::Off,
            fault: FaultInjection::None,
        }
    }
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig::thorough()
    }
}

/// A divergence the oracle found (or a simulator error, which counts as a
/// failure too — and shrinks the same way).
#[derive(Clone, Debug)]
pub struct Failure {
    /// Hierarchy preset the divergence appeared under.
    pub preset: String,
    /// Which run diverged (policy or lifecycle stage).
    pub variant: String,
    /// What differed, with both values.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} / {}] {}", self.preset, self.variant, self.detail)
    }
}

/// What a passing check covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckSummary {
    /// Simulator runs executed (slow + fast + lifecycle).
    pub runs: u64,
    /// Instructions the kernel retires per run.
    pub retired_insts: u64,
}

/// The deterministic outputs a correct run must reproduce exactly.
struct Expected {
    stats: SimStats,
    cache: CacheStats,
    levels: Vec<LevelStats>,
    output: Vec<u32>,
}

/// Runs `spec` through the whole `cfg` matrix.
///
/// # Errors
///
/// The first [`Failure`] found: a statistics/output divergence, a
/// simulator error, or a non-terminating functional emulation.
pub fn check(spec: &KernelSpec, cfg: &OracleConfig) -> Result<CheckSummary, Failure> {
    let program = spec.build();
    let mut summary = CheckSummary::default();

    // Reference functional emulation: the program must halt, and its
    // output stream anchors every simulator variant below.
    let func_output: Option<Vec<u32>> = if cfg.check_emulator {
        let decoded = Rc::new(program.predecode().map_err(|e| Failure {
            preset: "-".to_string(),
            variant: "predecode".to_string(),
            detail: format!("{e:?}"),
        })?);
        let mut func = FuncEmulator::new(decoded, &program);
        func.run(50_000_000);
        if !func.halted() {
            return Err(Failure {
                preset: "-".to_string(),
                variant: "func-emulator".to_string(),
                detail: "kernel did not halt within 50M instructions".to_string(),
            });
        }
        Some(func.output().to_vec())
    } else {
        None
    };

    for preset in &cfg.presets {
        let hier = HierarchyConfig::preset(preset).ok_or_else(|| Failure {
            preset: preset.clone(),
            variant: "config".to_string(),
            detail: format!("unknown hierarchy preset `{preset}`"),
        })?;

        // The detailed baseline is the ground truth for this preset.
        let slow = run_variant(&program, Mode::Slow, &hier, preset, "slow")?;
        summary.runs += 1;
        summary.retired_insts = slow.stats.retired_insts;
        if let Some(func_out) = &func_output {
            if &slow.output != func_out {
                return Err(Failure {
                    preset: preset.clone(),
                    variant: "slow".to_string(),
                    detail: format!(
                        "output differs from functional emulator ({} vs {} words)",
                        slow.output.len(),
                        func_out.len()
                    ),
                });
            }
        }

        let mut first_fast = true;
        for policy in &cfg.policies {
            let variant = format!("fast({policy:?})");
            let fast =
                run_variant(&program, Mode::Fast { policy: *policy }, &hier, preset, &variant)?;
            summary.runs += 1;
            compare(&slow, &fast, cfg.fault, preset, &variant)?;

            // Run-to-run determinism, once per preset: identical
            // SimStats and bit-identical MemoStats.
            if cfg.check_determinism && first_fast {
                first_fast = false;
                let (rerun, rerun_memo) =
                    run_fast_with_memo(&program, *policy, &hier, preset, "determinism-rerun")?;
                summary.runs += 1;
                if rerun.stats != fast.stats {
                    return Err(Failure {
                        preset: preset.clone(),
                        variant: "determinism-rerun".to_string(),
                        detail: "two identical fast runs produced different SimStats".to_string(),
                    });
                }
                let (again, again_memo) =
                    run_fast_with_memo(&program, *policy, &hier, preset, "determinism-rerun")?;
                summary.runs += 1;
                if again.stats != rerun.stats || again_memo != rerun_memo {
                    return Err(Failure {
                        preset: preset.clone(),
                        variant: "determinism-rerun".to_string(),
                        detail: "two identical fast runs produced different MemoStats".to_string(),
                    });
                }
            }
        }

        // Freeze/thaw/merge lifecycle: cold run, merge, thaw the frozen
        // master, run again — every stage must reproduce the slow stats.
        let lifecycle = match cfg.freeze_thaw {
            FreezeThaw::Off => false,
            FreezeThaw::FirstPreset => Some(preset) == cfg.presets.first(),
            FreezeThaw::AllPresets => true,
        };
        if lifecycle {
            summary.runs += batch_check(&program, preset, &cfg.policies, &slow)?;
        }
    }
    Ok(summary)
}

/// One simulator run; a `SimError` is reported as a [`Failure`] so crash
/// bugs shrink exactly like stats divergences.
fn run_variant(
    program: &Program,
    mode: Mode,
    hier: &HierarchyConfig,
    preset: &str,
    variant: &str,
) -> Result<Expected, Failure> {
    let fail = |detail: String| Failure {
        preset: preset.to_string(),
        variant: variant.to_string(),
        detail,
    };
    let mut sim = Simulator::with_configs(program, mode, UArchConfig::table1(), hier.clone())
        .map_err(|e| fail(format!("build error: {e:?}")))?;
    sim.run_to_completion().map_err(|e| fail(format!("sim error: {e:?}")))?;
    Ok(Expected {
        stats: *sim.stats(),
        cache: *sim.cache_stats(),
        levels: sim.cache_level_stats().to_vec(),
        output: sim.output().to_vec(),
    })
}

/// A fast run that also returns its final `MemoStats` (for the
/// determinism check).
fn run_fast_with_memo(
    program: &Program,
    policy: Policy,
    hier: &HierarchyConfig,
    preset: &str,
    variant: &str,
) -> Result<(Expected, fastsim_memo::MemoStats), Failure> {
    let fail = |detail: String| Failure {
        preset: preset.to_string(),
        variant: variant.to_string(),
        detail,
    };
    let mut sim = Simulator::with_configs(
        program,
        Mode::Fast { policy },
        UArchConfig::table1(),
        hier.clone(),
    )
    .map_err(|e| fail(format!("build error: {e:?}")))?;
    sim.run_to_completion().map_err(|e| fail(format!("sim error: {e:?}")))?;
    let memo = *sim.memo_stats().expect("fast mode has memo stats");
    Ok((
        Expected {
            stats: *sim.stats(),
            cache: *sim.cache_stats(),
            levels: sim.cache_level_stats().to_vec(),
            output: sim.output().to_vec(),
        },
        memo,
    ))
}

/// Compares one fast run against the slow ground truth, applying the
/// configured fault injection to the fast side first.
fn compare(
    slow: &Expected,
    fast: &Expected,
    fault: FaultInjection,
    preset: &str,
    variant: &str,
) -> Result<(), Failure> {
    let mut observed = fast.stats;
    if fault == FaultInjection::OvercountStoreCycles && observed.retired_stores > 0 {
        observed.cycles += 1;
    }
    compare_stats(&slow.stats, &observed, preset, variant)?;
    let fail = |detail: String| Failure {
        preset: preset.to_string(),
        variant: variant.to_string(),
        detail,
    };
    if slow.cache != fast.cache {
        return Err(fail(format!(
            "CacheStats differ: slow {:?} != fast {:?}",
            slow.cache, fast.cache
        )));
    }
    if slow.levels != fast.levels {
        return Err(fail(format!(
            "per-level stats differ: slow {:?} != fast {:?}",
            slow.levels, fast.levels
        )));
    }
    if slow.output != fast.output {
        return Err(fail("program output differs".to_string()));
    }
    Ok(())
}

/// Compares the *architectural* statistics (cycles, retirement counts)
/// and checks the fast path's accounting invariants. The memoization
/// diagnostics in [`SimStats`] (`config_visits`, `dynamic_actions`,
/// chain counters) are warmth-dependent by design and are NOT compared
/// against the slow baseline.
fn compare_stats(
    slow: &SimStats,
    observed: &SimStats,
    preset: &str,
    variant: &str,
) -> Result<(), Failure> {
    let fail = |detail: String| Failure {
        preset: preset.to_string(),
        variant: variant.to_string(),
        detail,
    };
    let fields = [
        ("cycles", slow.cycles, observed.cycles),
        ("retired_insts", slow.retired_insts, observed.retired_insts),
        ("retired_loads", slow.retired_loads, observed.retired_loads),
        ("retired_stores", slow.retired_stores, observed.retired_stores),
        ("retired_branches", slow.retired_branches, observed.retired_branches),
    ];
    for (name, s, f) in fields {
        if s != f {
            return Err(fail(format!("SimStats.{name}: slow {s} != fast {f}")));
        }
    }
    // Fast-path accounting invariants: detailed + replayed partitions.
    if observed.detailed_insts + observed.replayed_insts != observed.retired_insts {
        return Err(fail(format!(
            "detailed_insts {} + replayed_insts {} != retired_insts {}",
            observed.detailed_insts, observed.replayed_insts, observed.retired_insts
        )));
    }
    if observed.detailed_cycles + observed.replayed_cycles != observed.cycles {
        return Err(fail(format!(
            "detailed_cycles {} + replayed_cycles {} != cycles {}",
            observed.detailed_cycles, observed.replayed_cycles, observed.cycles
        )));
    }
    Ok(())
}

/// The freeze/thaw/merge lifecycle under [`BatchDriver`]: two cold jobs
/// (second merges onto the first's delta), then a warm round thawing the
/// re-frozen master. Every report must match the slow ground truth.
fn batch_check(
    program: &Program,
    preset: &str,
    policies: &[Policy],
    slow: &Expected,
) -> Result<u64, Failure> {
    let fail = |variant: &str, detail: String| Failure {
        preset: preset.to_string(),
        variant: variant.to_string(),
        detail,
    };
    let policy = policies.first().copied().unwrap_or_default();
    let mut job = BatchJob::new("fuzz-kernel", program.clone());
    job.hierarchy = HierarchyConfig::preset(preset).expect("preset validated by caller");
    job.policy = policy;

    let mut driver = BatchDriver::new(1);
    let cold = driver
        .run_round(&[job.clone(), job.clone()])
        .map_err(|e| fail("batch-cold", format!("{e}")))?;
    let warm = driver
        .run_round(&[job.clone()])
        .map_err(|e| fail("batch-warm", format!("{e}")))?;
    let mut runs = 0;
    for (stage, report) in cold
        .jobs
        .iter()
        .map(|j| ("batch-cold", j))
        .chain(warm.jobs.iter().map(|j| ("batch-warm", j)))
    {
        runs += 1;
        compare_stats(&slow.stats, &report.stats, preset, stage)?;
        if report.cache_stats != slow.cache {
            return Err(fail(
                stage,
                format!(
                    "CacheStats differ: slow {:?} != {stage} {:?}",
                    slow.cache, report.cache_stats
                ),
            ));
        }
        if report.level_stats != slow.levels {
            return Err(fail(stage, "per-level stats differ across the lifecycle".to_string()));
        }
    }
    Ok(runs)
}
