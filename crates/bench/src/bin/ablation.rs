//! Ablation sweeps over the processor-model design choices DESIGN.md
//! calls out. Every point is simulated with FastSim and cross-checked
//! against SlowSim for exact equality — design changes move the *cycle
//! count*, never the memoization correctness.
//!
//! Sweeps:
//!  1. machine width (fetch/decode/retire + units scaled together);
//!  2. speculation depth (maximum unresolved conditional branches);
//!  3. branch-history-table size.

use fastsim_bench::{banner, RunSpec};
use fastsim_core::{HierarchyConfig, Mode, Simulator, UArchConfig};
use fastsim_emu::{BranchPredictor, PredictorKind};
use fastsim_isa::Program;

fn run_cycles(program: &Program, uarch: UArchConfig, bht: usize) -> (u64, f64) {
    run_cycles_kind(program, uarch, bht, PredictorKind::Bimodal)
}

fn run_cycles_kind(
    program: &Program,
    uarch: UArchConfig,
    bht: usize,
    kind: PredictorKind,
) -> (u64, f64) {
    let mut fast = Simulator::with_predictor(
        program,
        Mode::fast(),
        uarch,
        HierarchyConfig::table1(),
        BranchPredictor::with_kind(kind, bht, 512),
    )
    .expect("simulator builds");
    fast.run_to_completion().expect("fast run");
    let mut slow = Simulator::with_predictor(
        program,
        Mode::Slow,
        uarch,
        HierarchyConfig::table1(),
        BranchPredictor::with_kind(kind, bht, 512),
    )
    .expect("simulator builds");
    slow.run_to_completion().expect("slow run");
    assert_eq!(
        fast.stats().cycles,
        slow.stats().cycles,
        "memoization must stay exact under every configuration"
    );
    (fast.stats().cycles, fast.stats().ipc())
}

fn width_config(w: u32) -> UArchConfig {
    let mut c = UArchConfig::table1();
    c.fetch_width = w;
    c.decode_width = w;
    c.retire_width = w;
    c.int_alus = (w / 2).max(1);
    c.fp_units = (w / 2).max(1);
    c.agen_units = (w / 4).max(1);
    c.cache_ports = (w / 4).max(1);
    c.iq_capacity = 8 * w as usize;
    c.int_queue = 4 * w as usize;
    c.fp_queue = 4 * w as usize;
    c.addr_queue = 4 * w as usize;
    c.phys_int_regs = 32 + 8 * w;
    c.phys_fp_regs = 32 + 8 * w;
    c
}

fn main() {
    let mut spec = RunSpec::from_args();
    if spec.filter.is_none() {
        // Default subset: one branchy, one memory-bound, one FP-regular.
        spec.filter = Some(String::new());
    }
    let kernels = ["099.go", "132.ijpeg", "107.mgrid"];
    banner("Ablation: machine width / speculation depth / BHT size", &spec);
    let programs: Vec<_> = kernels
        .iter()
        .map(|n| {
            let w = fastsim_workloads::by_name(n).expect("kernel");
            (n, w.program_for_insts(spec.insts.min(500_000)))
        })
        .collect();

    println!("-- machine width (units, queues and renames scaled with width)");
    println!("{:<12} {:>7} {:>12} {:>7}", "benchmark", "width", "cycles", "IPC");
    for (name, program) in &programs {
        for w in [1, 2, 4, 8] {
            let (cycles, ipc) = run_cycles(program, width_config(w), 512);
            println!("{name:<12} {w:>7} {cycles:>12} {ipc:>7.2}");
        }
    }

    println!("\n-- speculation depth (max unresolved conditional branches)");
    println!("{:<12} {:>7} {:>12} {:>7}", "benchmark", "depth", "cycles", "IPC");
    for (name, program) in &programs {
        for depth in [1, 2, 4, 8] {
            let mut c = UArchConfig::table1();
            c.max_branches = depth;
            let (cycles, ipc) = run_cycles(program, c, 512);
            println!("{name:<12} {depth:>7} {cycles:>12} {ipc:>7.2}");
        }
    }

    println!("\n-- branch history table size (2-bit counters)");
    println!("{:<12} {:>7} {:>12} {:>7}", "benchmark", "entries", "cycles", "IPC");
    for (name, program) in &programs {
        for bht in [16, 64, 512, 4096] {
            let (cycles, ipc) = run_cycles(program, UArchConfig::table1(), bht);
            println!("{name:<12} {bht:>7} {cycles:>12} {ipc:>7.2}");
        }
    }
    println!("\n-- predictor scheme (bimodal vs gshare) and issue discipline");
    println!(
        "{:<12} {:>22} {:>12} {:>7}",
        "benchmark", "variant", "cycles", "IPC"
    );
    for (name, program) in &programs {
        for (label, kind) in
            [("bimodal-512", PredictorKind::Bimodal), ("gshare-512", PredictorKind::Gshare)]
        {
            let (cycles, ipc) =
                run_cycles_kind(program, UArchConfig::table1(), 512, kind);
            println!("{name:<12} {label:>22} {cycles:>12} {ipc:>7.2}");
        }
        let mut inorder = UArchConfig::table1();
        inorder.issue_model = fastsim_core::IssueModel::InOrder;
        let (cycles, ipc) = run_cycles(program, inorder, 512);
        println!("{name:<12} {:>22} {cycles:>12} {ipc:>7.2}", "in-order issue");
    }

    println!("\nEvery point above was verified cycle-identical between FastSim and");
    println!("SlowSim: the design choices change the simulated machine, never the");
    println!("exactness of fast-forwarding.");
}
