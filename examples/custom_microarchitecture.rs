//! Using FastSim-RS as a microarchitecture exploration tool: compare the
//! Table 1 machine against a wider, more aggressive design and a narrow
//! in-order-ish design on the same workload — each configuration simulated
//! cycle-accurately with memoized fast-forwarding.
//!
//! ```text
//! cargo run --release --example custom_microarchitecture [-- <workload>]
//! ```

use fastsim::core::{HierarchyConfig, Mode, Simulator, UArchConfig};
use fastsim::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "fpppp".to_string());
    let workload = by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let program = workload.program_for_insts(500_000);

    let table1 = UArchConfig::table1();

    let mut wide = table1;
    wide.fetch_width = 8;
    wide.decode_width = 8;
    wide.retire_width = 8;
    wide.int_alus = 4;
    wide.fp_units = 4;
    wide.agen_units = 2;
    wide.cache_ports = 2;
    wide.iq_capacity = 64;
    wide.int_queue = 32;
    wide.fp_queue = 32;
    wide.addr_queue = 32;
    wide.phys_int_regs = 128;
    wide.phys_fp_regs = 128;
    wide.max_branches = 8;

    let mut narrow = table1;
    narrow.fetch_width = 1;
    narrow.decode_width = 1;
    narrow.retire_width = 1;
    narrow.int_alus = 1;
    narrow.fp_units = 1;
    narrow.iq_capacity = 8;
    narrow.max_branches = 1;

    let mut big_l1 = HierarchyConfig::table1();
    big_l1.levels[0].bytes = 64 * 1024;

    println!("workload {}\n", workload.name);
    println!("{:<26} {:>12} {:>8} {:>10}", "machine", "cycles", "IPC", "L1 miss%");
    for (label, uarch, cache) in [
        ("narrow (1-wide)", narrow, HierarchyConfig::table1()),
        ("Table 1 (R10000-like)", table1, HierarchyConfig::table1()),
        ("Table 1 + 64KB L1", table1, big_l1),
        ("wide (8-wide)", wide, HierarchyConfig::table1()),
    ] {
        let mut sim = Simulator::with_configs(&program, Mode::fast(), uarch, cache)?;
        sim.run_to_completion()?;
        let s = sim.stats();
        let c = sim.cache_stats();
        let miss = 100.0 * c.l1_misses as f64 / (c.l1_hits + c.l1_misses).max(1) as f64;
        println!("{:<26} {:>12} {:>8.2} {:>9.1}%", label, s.cycles, s.ipc(), miss);
    }
    println!("\n(wider machines extract more ILP; the workload's dependences set the limit)");
    Ok(())
}
