//! Warm-start memoization (an extension beyond the paper): freeze the
//! p-action cache of one simulation and thaw it into the next run of the
//! same program, so the second run fast-forwards almost from the first
//! cycle — the cross-run analogue of the paper's "fast forwards the
//! simulation the next time a cached state is reached".
//!
//! ```text
//! cargo run --release --example warm_start [-- <workload>]
//! ```

use fastsim::core::{HierarchyConfig, Mode, Simulator, UArchConfig};
use fastsim::workloads::by_name;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vortex".to_string());
    let workload = by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let program = workload.program_for_insts(2_000_000);
    println!("workload {}\n", workload.name);

    // Cold run: the p-action cache starts empty.
    let mut cold = Simulator::new(&program, Mode::fast())?;
    let t = Instant::now();
    cold.run_to_completion()?;
    let cold_time = t.elapsed();
    println!(
        "cold run : {:>9} cycles in {:>7.3}s — {:>8} instructions simulated in detail",
        cold.stats().cycles,
        cold_time.as_secs_f64(),
        cold.stats().detailed_insts
    );
    let cycles = cold.stats().cycles;
    let cold_detailed = cold.stats().detailed_insts;
    let snapshot = cold.take_warm_cache().expect("fast mode").freeze();
    println!(
        "           p-action cache: {} configurations, {:.0} KB",
        snapshot.stats().static_configs,
        snapshot.stats().bytes as f64 / 1024.0
    );

    // Warm run: same program, same model, thawed from the frozen cache.
    let mut warm = Simulator::with_warm_snapshot(
        &program,
        &snapshot,
        UArchConfig::table1(),
        HierarchyConfig::table1(),
    )?;
    let t = Instant::now();
    warm.run_to_completion()?;
    let warm_time = t.elapsed();
    println!(
        "warm run : {:>9} cycles in {:>7.3}s — {:>8} instructions simulated in detail",
        warm.stats().cycles,
        warm_time.as_secs_f64(),
        warm.stats().detailed_insts
    );
    assert_eq!(warm.stats().cycles, cycles, "results identical");
    println!(
        "\nidentical results ✓ — warm start removed {:.1}% of detailed simulation,",
        100.0
            * (1.0 - warm.stats().detailed_insts as f64 / cold_detailed.max(1) as f64)
    );
    println!("running {:.2}x faster end to end.", cold_time.as_secs_f64() / warm_time.as_secs_f64());
    Ok(())
}
