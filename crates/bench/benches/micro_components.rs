//! Self-timed micro-benchmarks for the individual substrates: the
//! configuration codec (encode + decode), the cache simulator's
//! issue/poll path, and the functional emulator's stepping rate. These
//! bound the per-action costs behind the table results. (Formerly a
//! Criterion harness; rewritten on `fastsim_bench::timing` so `cargo
//! bench` needs no crates.io dependencies.)

use fastsim_bench::timing;
use fastsim_emu::FuncEmulator;
use fastsim_isa::{Asm, Reg};
use fastsim_mem::{CacheSim, HierarchyConfig, PollResult};
use fastsim_uarch::{decode_config, encode_config, FetchPc, IqEntry, IqState, PipelineState};
use std::hint::black_box;
use std::rc::Rc;

const SAMPLES: usize = 30;

fn config_codec() {
    let mut a = Asm::with_base(0x1000);
    for i in 0..32 {
        a.addi(Reg::new(1 + (i % 8) as u8), Reg::R0, i);
    }
    a.halt();
    let prog = a.assemble().unwrap().predecode().unwrap();
    // A full 32-entry pipeline state.
    let mut st = PipelineState::at_entry(0x1000);
    for i in 0..32u32 {
        st.iq.push(IqEntry {
            addr: 0x1000 + i * 4,
            state: if i % 3 == 0 { IqState::Queued } else { IqState::Exec { left: 1 + i % 30 } },
            taken: false,
            mispredicted: false,
            target: 0,
        });
    }
    st.fetch = FetchPc::At(0x1000 + 32 * 4);
    let bytes = encode_config(&st, &prog);
    timing::measure_per_iter("micro_codec/encode_32_entries", SAMPLES, 10_000, || {
        encode_config(black_box(&st), &prog)
    });
    timing::measure_per_iter("micro_codec/decode_32_entries", SAMPLES, 10_000, || {
        decode_config(black_box(&bytes), &prog).unwrap()
    });
}

fn cache_path() {
    let mut sim = CacheSim::new(HierarchyConfig::table1());
    let mut now = 0u64;
    let mut id = 0u64;
    // Warm one line.
    let w = sim.issue_load(id, 0x8000, 4, now) as u64;
    now += w;
    while sim.poll_load(id, now) != PollResult::Ready {
        now += 1;
    }
    id += 1;
    timing::measure_per_iter("micro_cache/issue_poll_hit_loop", SAMPLES, 10_000, || {
        let interval = sim.issue_load(id, 0x8000, 4, now);
        now += interval as u64;
        assert_eq!(sim.poll_load(id, now), PollResult::Ready);
        id += 1;
        now += 1;
    });
}

fn emulator_rate() {
    let mut a = Asm::new();
    a.addi(Reg::R1, Reg::R0, 10_000);
    a.label("l");
    a.add(Reg::R2, Reg::R2, Reg::R1);
    a.xor(Reg::R3, Reg::R2, Reg::R1);
    a.subi(Reg::R1, Reg::R1, 1);
    a.bne(Reg::R1, Reg::R0, "l");
    a.halt();
    let image = a.assemble().unwrap();
    let prog = Rc::new(image.predecode().unwrap());
    timing::measure("micro_emulator/functional_40k_insts", 20, || {
        let mut e = FuncEmulator::new(prog.clone(), &image);
        e.run(u64::MAX);
        black_box(e.insts())
    });
}

fn main() {
    timing::banner("micro_components");
    config_codec();
    cache_path();
    emulator_rate();
}
