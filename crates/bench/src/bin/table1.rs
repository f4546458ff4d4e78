//! Regenerates Table 1: the processor model parameters, printed from the
//! live configuration defaults so the table can never drift from the code.

use fastsim_core::{HierarchyConfig, UArchConfig, WritePolicy};
use fastsim_emu::BHT_ENTRIES;

/// The paper's wording for a level's write policy.
fn policy(p: WritePolicy) -> &'static str {
    match p {
        WritePolicy::WriteThrough => "write through",
        WritePolicy::WriteBack => "write back",
    }
}

fn main() {
    let u = UArchConfig::table1();
    let h = HierarchyConfig::table1();
    let [l1, l2] = h.levels[..] else { panic!("Table 1 describes two cache levels") };
    println!("=== Table 1: FastSim's processor model parameters ===\n");
    println!("Decode {} instructions per cycle.", u.decode_width);
    println!(
        "{} integer ALUs, {} FPUs, and {} load/store address adder(s).",
        u.int_alus, u.fp_units, u.agen_units
    );
    println!(
        "{} physical 32-bit integer registers, and {} 64-bit floating point registers.",
        u.phys_int_regs, u.phys_fp_regs
    );
    println!("2-bit/{BHT_ENTRIES}-entry branch history table for branch prediction.");
    println!(
        "Speculatively execute instructions through up to {} conditional branches.",
        u.max_branches
    );
    println!("Non-blocking L1 and L2 data caches, {}/{} MSHRs each.", l1.mshrs, l2.mshrs);
    println!(
        "{} KByte {}-way set associative {} L1 data cache.",
        l1.bytes / 1024,
        l1.assoc,
        policy(l1.write_policy)
    );
    println!(
        "{} MByte {}-way set associative {} L2 data cache.",
        l2.bytes / (1024 * 1024),
        l2.assoc,
        policy(l2.write_policy)
    );
    println!("{} byte wide, split transaction bus.", h.bus_bytes);
    println!(
        "\nIssue queues: {} int / {} fp / {} addr entries; active list {}.",
        u.int_queue, u.fp_queue, u.addr_queue, u.iq_capacity
    );
    println!(
        "Latencies: int mul {}, int div {}, fp add {}, fp mul {}, fp div {}, fp sqrt {}.",
        u.lat_int_mul, u.lat_int_div, u.lat_fp_add, u.lat_fp_mul, u.lat_fp_div, u.lat_fp_sqrt
    );
    println!(
        "Cache timing: L1 hit {}, L1 miss->L2 {}, memory {} cycles.",
        l1.hit_latency, l1.miss_latency, h.memory_latency
    );
}
