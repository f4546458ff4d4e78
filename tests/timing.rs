//! Golden timing tests: hand-derived cycle counts for minimal programs,
//! pinning the pipeline model's behaviour (fetch→decode→issue→execute→
//! retire flow, dual-issue, dependence stalls, the 34-cycle divide, cache
//! hit/miss latencies). Any change to the timing model must consciously
//! update these.
//!
//! Cycle accounting: within a cycle the stepper retires, progresses
//! execution, issues, decodes, then fetches. An instruction fetched in
//! cycle 1 decodes in cycle 2, issues (single-cycle class) in cycle 3,
//! completes in cycle 4 and retires in cycle 5.

use fastsim::core::{Mode, Simulator};
use fastsim::isa::{Asm, Reg};

fn cycles(build: impl FnOnce(&mut Asm)) -> u64 {
    let mut a = Asm::new();
    build(&mut a);
    let image = a.assemble().expect("assembles");
    // Slow and Fast agree (asserted everywhere else); use Slow here.
    let mut sim = Simulator::new(&image, Mode::Slow).expect("builds");
    sim.run_to_completion().expect("completes");
    assert!(sim.finished());
    sim.stats().cycles
}

#[test]
fn bare_halt_takes_five_cycles() {
    // fetch(1) decode(2) issue(3) complete(4) retire(5).
    assert_eq!(cycles(|a| {
        a.halt();
    }), 5);
}

#[test]
fn independent_alu_ops_dual_issue() {
    // Two independent addis + halt: all fetched in cycle 1, decoded in 2;
    // the two addis issue together in 3 (two integer ALUs), halt issues
    // in 3 as well?? No — halt also needs an ALU slot; only two per
    // cycle, so halt issues in 4, completes 5, retires 6.
    assert_eq!(cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 1);
        a.addi(Reg::R2, Reg::R0, 2);
        a.halt();
    }), 6);
}

#[test]
fn dependent_chain_serialises() {
    // addi r1 <- r0 (issues 3, done 4); addi r2 <- r1 (ready in 4, done
    // 5); halt issues 3 alongside the first addi... but retire is in
    // order: r2 done end of 5, retires 6 together with halt.
    assert_eq!(cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 1);
        a.addi(Reg::R2, Reg::R1, 1);
        a.halt();
    }), 6);
}

#[test]
fn divide_costs_thirty_four_cycles() {
    // div issues in cycle 3 with Exec{34}: completes at the end of cycle
    // 3+34 = 37, retires 38; halt retires with it.
    assert_eq!(cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 99);
        a.div(Reg::R2, Reg::R1, Reg::R1);
        a.halt();
    }), 39);
}

#[test]
fn chained_divides_add_up() {
    let one = cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 99);
        a.div(Reg::R2, Reg::R1, Reg::R1);
        a.halt();
    });
    let two = cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 99);
        a.div(Reg::R2, Reg::R1, Reg::R1);
        a.div(Reg::R3, Reg::R2, Reg::R1); // depends on the first
        a.halt();
    });
    assert_eq!(two - one, 34, "a dependent divide adds exactly its latency");
}

#[test]
fn cold_load_pays_the_full_memory_path() {
    // L1 miss (6) + memory (40) + line transfer (8) = 54 cycles of cache
    // time on top of agen; measured against an alu-only twin.
    let with_load = cycles(|a| {
        a.li(Reg::R1, 0x0020_0000);
        a.lw(Reg::R2, Reg::R1, 0);
        a.add(Reg::R3, Reg::R2, Reg::R2);
        a.halt();
    });
    let without = cycles(|a| {
        a.li(Reg::R1, 0x0020_0000);
        a.addi(Reg::R2, Reg::R0, 7);
        a.add(Reg::R3, Reg::R2, Reg::R2);
        a.halt();
    });
    // 54 cycles of cache time plus one poll cycle (the pipeline counts
    // the interval down and polls on the following cycle).
    assert_eq!(with_load - without, 55);
}

#[test]
fn l1_hit_is_cheap() {
    // Two loads from the same line: the second costs only the hit
    // latency. Compare one-load and two-load versions; the loads are
    // serialised by the single cache port and the dependence on r1 only.
    let one = cycles(|a| {
        a.li(Reg::R1, 0x0020_0000);
        a.lw(Reg::R2, Reg::R1, 0);
        a.out(Reg::R2);
        a.halt();
    });
    let two = cycles(|a| {
        a.li(Reg::R1, 0x0020_0000);
        a.lw(Reg::R2, Reg::R1, 0);
        a.lw(Reg::R3, Reg::R1, 4);
        a.out(Reg::R3);
        a.halt();
    });
    // The second load overlaps the first's miss only until the cache
    // port + in-order-retire constraints bite; it must cost far less
    // than a second full miss.
    let delta = two - one;
    assert!(delta <= 8, "second (hitting) load added {delta} cycles");
}

#[test]
fn correctly_predicted_loop_has_steady_state() {
    // A hot counted loop (predictor saturates taken): per-iteration cost
    // becomes constant. Compare 64 vs 128 iterations.
    let run = |n: i32| {
        cycles(move |a| {
            a.addi(Reg::R1, Reg::R0, n);
            a.label("l");
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "l");
            a.halt();
        })
    };
    let c64 = run(64);
    let c128 = run(128);
    let c192 = run(192);
    assert_eq!(c128 - c64, c192 - c128, "steady-state per-iteration cost");
}

#[test]
fn mispredicted_branch_costs_more_than_predicted() {
    // Same instruction counts; alternating direction defeats the 2-bit
    // counter while a constant direction saturates it.
    let alternating = cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 64);
        a.label("l");
        a.andi(Reg::R2, Reg::R1, 1);
        a.beq(Reg::R2, Reg::R0, "skip");
        a.label("skip");
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, "l");
        a.halt();
    });
    let steady = cycles(|a| {
        a.addi(Reg::R1, Reg::R0, 64);
        a.label("l");
        a.andi(Reg::R2, Reg::R1, 1);
        a.beq(Reg::R2, Reg::R2, "skip"); // always taken to the next inst
        a.label("skip");
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, "l");
        a.halt();
    });
    assert!(
        alternating > steady + 64,
        "mispredicts must cost: alternating {alternating} vs steady {steady}"
    );
}

#[test]
fn fetch_width_bounds_throughput() {
    // 64 independent single-cycle ops: with fetch/decode/retire width 4
    // and 2 ALUs, the ALUs are the bottleneck: ≈ 64/2 cycles of issue.
    let c = cycles(|a| {
        for i in 0..64 {
            a.addi(Reg::new(1 + (i % 8) as u8), Reg::R0, i);
        }
        a.halt();
    });
    // 32 issue cycles + pipeline fill/drain.
    assert!((32..=45).contains(&c), "got {c}");
}

/// Every row of the paper's Table 1, against the configurations the
/// simulator runs by default: the pipeline, the memory hierarchy and the
/// branch predictor.
#[test]
fn table1_parameters_are_the_papers() {
    use fastsim::core::{BranchPredictor, HierarchyConfig, PredictorKind, UArchConfig, WritePolicy};
    let u = UArchConfig::table1();
    assert_eq!(u.decode_width, 4, "decode 4 instructions per cycle");
    assert_eq!((u.int_alus, u.fp_units, u.agen_units), (2, 2, 1), "ALUs, FPUs, address adders");
    assert_eq!((u.phys_int_regs, u.phys_fp_regs), (64, 64), "physical registers");
    assert_eq!(u.max_branches, 4, "speculation through 4 conditional branches");

    // A 2-bit, 512-entry branch history table, seen through the predictor
    // the simulator builds: one not-taken outcome does not flip a
    // saturated counter, and branches 512 words apart share a counter
    // while branches 256 words apart do not.
    let mut bht = BranchPredictor::new();
    assert_eq!(bht.kind(), PredictorKind::Bimodal, "per-branch counters");
    let pc = 0x1000;
    for _ in 0..3 {
        bht.update(pc, true);
    }
    bht.update(pc, false);
    assert!(bht.predict(pc), "2-bit counters");
    assert!(bht.predict(pc + 512 * 4), "at most 512 entries");
    assert!(!bht.predict(pc + 256 * 4), "at least 512 entries");

    let h = HierarchyConfig::table1();
    let [l1, l2] = h.levels[..] else { panic!("two cache levels, got {}", h.depth()) };
    assert_eq!((l1.mshrs, l2.mshrs), (8, 8), "non-blocking L1 and L2, 8 MSHRs each");
    assert_eq!(
        (l1.bytes, l1.assoc, l1.write_policy),
        (16 * 1024, 2, WritePolicy::WriteThrough),
        "16 KB 2-way write-through L1"
    );
    assert_eq!(
        (l2.bytes, l2.assoc, l2.write_policy),
        (1024 * 1024, 2, WritePolicy::WriteBack),
        "1 MB 2-way write-back L2"
    );
    assert_eq!(h.bus_bytes, 8, "8-byte-wide bus");
}

// ---------------------------------------------------------------------
// Model pin: the simulated machine's answers on every kernel at every
// hierarchy preset, committed as a golden table. A change to the timing
// model moves FastSim and SlowSim together, so the differential oracle
// cannot see it; this table can.
// ---------------------------------------------------------------------

/// Path of the committed golden table.
const MODEL_PIN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/model_pin.tsv");

/// Instructions each pinned run asks its kernel for.
const MODEL_PIN_INSTS: u64 = 20_000;

/// A fourth pinned hierarchy, built here rather than offered as a library
/// preset: three small write-back levels with few MSHRs. Every preset's L2
/// and L3 write back nothing and never run out of MSHRs at the pin's
/// size, so without these rows a fault confined to the lower levels'
/// writeback or MSHR accounting would pass.
fn small_write_back() -> fastsim::core::HierarchyConfig {
    use fastsim::mem::{CacheLevelConfig, HierarchyConfig, WritePolicy};
    let level = |bytes, line, hit_latency, miss_latency, mshrs| CacheLevelConfig {
        bytes,
        assoc: 2,
        line,
        hit_latency,
        miss_latency,
        mshrs,
        write_policy: WritePolicy::WriteBack,
    };
    let hier = HierarchyConfig {
        levels: vec![
            level(1024, 32, 1, 6, 2),
            level(2 * 1024, 32, 0, 10, 1),
            level(4 * 1024, 64, 2, 0, 1),
        ],
        memory_latency: 40,
        bus_bytes: 16,
    };
    hier.validate().expect("valid hierarchy");
    hier
}

/// One tab-separated row per kernel × pinned hierarchy (the presets, then
/// [`small_write_back`]): a cold FastSim run under the Table 1 pipeline,
/// with every `SimStats` field, the memoization counters that follow from
/// the recorded chains, and each cache level's counters (`-` where the
/// hierarchy has fewer levels).
fn model_pin_table() -> String {
    use fastsim::core::{HierarchyConfig, UArchConfig};
    const MAX_DEPTH: usize = 3;
    let mut out = String::from(
        "preset\tkernel\tcycles\tretired_insts\tretired_loads\tretired_stores\t\
         retired_branches\tdetailed_insts\treplayed_insts\tdetailed_cycles\t\
         replayed_cycles\tconfig_visits\tdynamic_actions\treplayed_actions\tchains\t\
         chain_len_sum\tchain_len_max\tstatic_configs\tstatic_actions\tconfig_hits\t\
         config_misses\tbytes",
    );
    for level in 1..=MAX_DEPTH {
        for field in ["hits", "misses", "mshr_stall_cycles", "writebacks"] {
            out.push_str(&format!("\tl{level}_{field}"));
        }
    }
    out.push('\n');
    let hierarchies = HierarchyConfig::preset_names()
        .iter()
        .map(|&p| (p, HierarchyConfig::preset(p).expect("named preset")))
        .chain([("small-write-back", small_write_back())]);
    for (preset, hier) in hierarchies {
        assert!(hier.depth() <= MAX_DEPTH, "{preset}: widen the level columns");
        for w in fastsim::workloads::all() {
            let program = w.program_for_insts(MODEL_PIN_INSTS);
            let mut sim =
                Simulator::with_configs(&program, Mode::fast(), UArchConfig::table1(), hier.clone())
                    .expect("simulator builds");
            sim.run_to_completion().expect("run completes");
            // Destructured so that a new `SimStats` field fails to compile
            // here until the pin covers it.
            let fastsim::core::SimStats {
                cycles,
                retired_insts,
                retired_loads,
                retired_stores,
                retired_branches,
                detailed_insts,
                replayed_insts,
                detailed_cycles,
                replayed_cycles,
                config_visits,
                dynamic_actions,
                replayed_actions,
                chains,
                chain_len_sum,
                chain_len_max,
            } = *sim.stats();
            let m = sim.memo_stats().expect("fast mode");
            let mut row: Vec<String> = vec![preset.to_string(), w.name.to_string()];
            row.extend(
                [
                    cycles,
                    retired_insts,
                    retired_loads,
                    retired_stores,
                    retired_branches,
                    detailed_insts,
                    replayed_insts,
                    detailed_cycles,
                    replayed_cycles,
                    config_visits,
                    dynamic_actions,
                    replayed_actions,
                    chains,
                    chain_len_sum,
                    chain_len_max,
                    m.static_configs,
                    m.static_actions,
                    m.config_hits,
                    m.config_misses,
                    m.bytes as u64,
                ]
                .iter()
                .map(u64::to_string),
            );
            let levels = sim.cache_level_stats();
            for i in 0..MAX_DEPTH {
                match levels.get(i) {
                    Some(l) => row.extend(
                        [l.hits, l.misses, l.mshr_stall_cycles, l.writebacks]
                            .iter()
                            .map(u64::to_string),
                    ),
                    None => row.extend(std::iter::repeat_n("-".to_string(), 4)),
                }
            }
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
    }
    out
}

/// Regenerates the committed table. Run explicitly after an
/// *intentional* change to the simulated machine:
/// `cargo test --test timing regenerate_model_pin -- --ignored`
#[test]
#[ignore = "maintenance: rewrites the committed model pin"]
fn regenerate_model_pin_fixture() {
    std::fs::write(MODEL_PIN, model_pin_table()).expect("write fixture");
}

#[test]
fn model_answers_match_the_committed_pin() {
    let golden = std::fs::read_to_string(MODEL_PIN).expect("model pin is committed");
    // The pin must see the lower levels' writebacks and MSHR stalls.
    let header: Vec<&str> = golden.lines().next().expect("header").split('\t').collect();
    for level in ["l2", "l3"] {
        for field in ["mshr_stall_cycles", "writebacks"] {
            let name = format!("{level}_{field}");
            let col = header.iter().position(|h| *h == name).expect("pinned column");
            assert!(
                golden.lines().skip(1).any(|row| {
                    row.split('\t').nth(col).is_some_and(|v| v != "0" && v != "-")
                }),
                "{name} is 0 in every row of the model pin"
            );
        }
    }
    let fresh = model_pin_table();
    for (i, (want, got)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            got, want,
            "row {i} of tests/fixtures/model_pin.tsv changed \
             (if the model change is intentional: regenerate the pin)"
        );
    }
    assert_eq!(fresh.lines().count(), golden.lines().count(), "row count changed");
    assert_eq!(fresh, golden, "model pin differs byte for byte");
}
