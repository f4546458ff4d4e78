//! # fastsim-baseline
//!
//! A conventional out-of-order processor simulator in the style of
//! SimpleScalar's `sim-outorder` — the yardstick the paper compares
//! FastSim against (Table 3).
//!
//! Like `sim-outorder` (and unlike FastSim), this simulator interleaves
//! functional execution with timing simulation inside one loop: every
//! instruction is functionally executed as it is dispatched into the
//! register-update-unit (RUU), and the timing model walks the RUU every
//! cycle. There is no direct-execution decoupling and no memoization —
//! every simulated cycle pays the full bookkeeping cost, which is exactly
//! why FastSim's techniques pay off.
//!
//! The processor model matches the FastSim pipeline's parameters
//! ([`UArchConfig`]) and shares the same cache simulator and functional
//! semantics, so the two simulators compute identical program results
//! (asserted by the integration tests) at a comparable level of modeling
//! detail — the paper's criterion for a fair baseline.
//!
//! # Example
//!
//! ```
//! use fastsim_isa::{Asm, Reg};
//! use fastsim_baseline::BaselineSim;
//!
//! let mut a = Asm::new();
//! a.addi(Reg::R1, Reg::R0, 3);
//! a.label("l");
//! a.subi(Reg::R1, Reg::R1, 1);
//! a.bne(Reg::R1, Reg::R0, "l");
//! a.out(Reg::R1);
//! a.halt();
//! let image = a.assemble()?;
//! let mut sim = BaselineSim::new(&image)?;
//! sim.run(u64::MAX);
//! assert!(sim.finished());
//! assert_eq!(sim.output(), &[0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod inorder;

pub use inorder::{InOrderSim, InOrderStats};

use fastsim_emu::{BranchPredictor, Cpu, Effect};
use fastsim_isa::{DecodedProgram, ExecClass, Inst, Program, RegRef};
use fastsim_mem::{CacheSim, CacheStats, HierarchyConfig, Memory, PollResult};
use fastsim_uarch::UArchConfig;
use std::rc::Rc;

/// Pipeline stage of one RUU entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RuuState {
    /// Waiting for operands and a function unit.
    Waiting,
    /// Executing (address generation for memory operations).
    Exec { left: u32 },
    /// Memory operation with its address generated, awaiting a cache port.
    AgenDone,
    /// Load waiting on the cache.
    CacheWait { left: u32 },
    /// Complete, awaiting in-order commit.
    Done,
}

/// One in-flight instruction in the register update unit.
#[derive(Clone, Copy, Debug)]
struct RuuEntry {
    inst: Inst,
    state: RuuState,
    /// Memory address (loads/stores), captured at dispatch.
    mem_addr: u32,
    /// Unique load id for the cache simulator.
    load_id: u64,
    /// For a mispredicted control transfer: where fetch resumes when this
    /// instruction resolves.
    redirect: Option<u32>,
    /// Buffered `out` value, published at commit.
    out_value: Option<u32>,
}

/// Statistics collected by the baseline simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BaselineStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub retired_insts: u64,
    /// Loads committed.
    pub retired_loads: u64,
    /// Stores committed.
    pub retired_stores: u64,
    /// Conditional branches committed.
    pub retired_branches: u64,
    /// Mispredicted control transfers.
    pub mispredicts: u64,
}

/// The SimpleScalar-like out-of-order simulator.
pub struct BaselineSim {
    cpu: Cpu,
    mem: Memory,
    prog: Rc<DecodedProgram>,
    pred: BranchPredictor,
    cache: CacheSim,
    config: UArchConfig,
    ruu: Vec<RuuEntry>,
    fetch_pc: Option<u32>,
    /// Fetch is stalled until a mispredicted instruction resolves.
    fetch_wait_resolve: bool,
    next_load_id: u64,
    output: Vec<u32>,
    stats: BaselineStats,
    halted: bool,
}

impl BaselineSim {
    /// Creates a baseline simulator with the paper's Table 1 parameters.
    ///
    /// # Errors
    ///
    /// Returns the decode error if the program image is invalid.
    pub fn new(program: &Program) -> Result<BaselineSim, fastsim_isa::DecodeError> {
        BaselineSim::with_configs(program, UArchConfig::table1(), HierarchyConfig::table1())
    }

    /// Creates a baseline simulator with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns the decode error if the program image is invalid.
    ///
    /// # Panics
    ///
    /// Panics if a configuration is invalid (see [`UArchConfig::validate`]
    /// and [`HierarchyConfig::validate`]).
    pub fn with_configs(
        program: &Program,
        config: UArchConfig,
        cache: HierarchyConfig,
    ) -> Result<BaselineSim, fastsim_isa::DecodeError> {
        if let Err(e) = config.validate() {
            panic!("invalid config: {e}");
        }
        let prog = Rc::new(program.predecode()?);
        let mut mem = Memory::new();
        for (addr, bytes) in &program.data {
            mem.write_slice(*addr, bytes);
        }
        let entry = prog.entry();
        Ok(BaselineSim {
            cpu: Cpu::new(entry),
            mem,
            prog,
            pred: BranchPredictor::new(),
            cache: CacheSim::new(cache),
            config,
            ruu: Vec::new(),
            fetch_pc: Some(entry),
            fetch_wait_resolve: false,
            next_load_id: 0,
            output: Vec::new(),
            stats: BaselineStats::default(),
            halted: false,
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// Aggregate cache statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Per-level cache statistics, nearest level first.
    pub fn cache_level_stats(&self) -> &[fastsim_mem::LevelStats] {
        self.cache.level_stats()
    }

    /// Values the program wrote with `out`.
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// Whether the program has halted.
    pub fn finished(&self) -> bool {
        self.halted
    }

    /// Final architectural state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Runs until the program halts or `max_insts` more instructions
    /// commit. Returns the number of instructions committed by this call.
    pub fn run(&mut self, max_insts: u64) -> u64 {
        let start = self.stats.retired_insts;
        let budget_end = start.saturating_add(max_insts);
        while !self.halted && self.stats.retired_insts < budget_end {
            self.step_cycle();
        }
        self.stats.retired_insts - start
    }

    fn step_cycle(&mut self) {
        self.stats.cycles += 1;
        self.commit();
        self.progress();
        self.issue();
        self.fetch_dispatch();
    }

    /// In-order commit of completed instructions.
    fn commit(&mut self) {
        let mut n = 0;
        while n < self.config.retire_width {
            match self.ruu.first() {
                Some(e) if e.state == RuuState::Done => {}
                _ => break,
            }
            let e = self.ruu.remove(0);
            n += 1;
            self.stats.retired_insts += 1;
            match e.inst.exec_class() {
                ExecClass::Load => self.stats.retired_loads += 1,
                ExecClass::Store => self.stats.retired_stores += 1,
                ExecClass::Branch => self.stats.retired_branches += 1,
                ExecClass::Halt => self.halted = true,
                _ => {}
            }
            if let Some(v) = e.out_value {
                self.output.push(v);
            }
        }
    }

    /// Execution progress: count down timers, resolve redirects, poll the
    /// cache.
    fn progress(&mut self) {
        for i in 0..self.ruu.len() {
            match self.ruu[i].state {
                RuuState::Exec { left } if left > 1 => {
                    self.ruu[i].state = RuuState::Exec { left: left - 1 };
                }
                RuuState::Exec { .. } => {
                    let class = self.ruu[i].inst.exec_class();
                    if matches!(class, ExecClass::Load | ExecClass::Store) {
                        self.ruu[i].state = RuuState::AgenDone;
                    } else {
                        if let Some(target) = self.ruu[i].redirect.take() {
                            self.fetch_pc = Some(target);
                            self.fetch_wait_resolve = false;
                        }
                        self.ruu[i].state = RuuState::Done;
                    }
                }
                RuuState::CacheWait { left } if left > 1 => {
                    self.ruu[i].state = RuuState::CacheWait { left: left - 1 };
                }
                RuuState::CacheWait { .. } => {
                    match self.cache.poll_load(self.ruu[i].load_id, self.stats.cycles) {
                        PollResult::Ready => self.ruu[i].state = RuuState::Done,
                        PollResult::Wait(w) => {
                            self.ruu[i].state = RuuState::CacheWait { left: w.max(1) };
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Issue ready instructions, subject to function units and the same
    /// conservative memory ordering as the FastSim pipeline model.
    fn issue(&mut self) {
        let mut int_used = 0u32;
        let mut fp_used = 0u32;
        let mut agen_used = 0u32;
        let mut cache_used = 0u32;
        let mut busy = [false; 64];
        let busy_idx = |r: RegRef| -> usize {
            match r {
                RegRef::Int(i) => i as usize,
                RegRef::Fp(i) => 32 + i as usize,
            }
        };
        let mut pending_older_store = false;
        for i in 0..self.ruu.len() {
            let inst = self.ruu[i].inst;
            let class = inst.exec_class();
            match self.ruu[i].state {
                RuuState::Waiting => {
                    let ready =
                        inst.sources().iter().flatten().all(|r| !busy[busy_idx(*r)]);
                    let unit_free = match class {
                        ExecClass::FpAdd
                        | ExecClass::FpMul
                        | ExecClass::FpDiv
                        | ExecClass::FpSqrt => fp_used < self.config.fp_units,
                        ExecClass::Load | ExecClass::Store => {
                            agen_used < self.config.agen_units
                        }
                        _ => int_used < self.config.int_alus,
                    };
                    if ready && unit_free {
                        match class {
                            ExecClass::FpAdd
                            | ExecClass::FpMul
                            | ExecClass::FpDiv
                            | ExecClass::FpSqrt => fp_used += 1,
                            ExecClass::Load | ExecClass::Store => agen_used += 1,
                            _ => int_used += 1,
                        }
                        self.ruu[i].state =
                            RuuState::Exec { left: self.config.latency(class) };
                    }
                }
                RuuState::AgenDone if class == ExecClass::Load
                    && cache_used < self.config.cache_ports && !pending_older_store => {
                        cache_used += 1;
                        let id = self.ruu[i].load_id;
                        let addr = self.ruu[i].mem_addr;
                        let width = inst.mem_width().unwrap_or(4);
                        let interval =
                            self.cache.issue_load(id, addr, width, self.stats.cycles);
                        self.ruu[i].state = RuuState::CacheWait { left: interval.max(1) };
                    }
                RuuState::AgenDone if class == ExecClass::Store
                    && cache_used < self.config.cache_ports && !pending_older_store => {
                        cache_used += 1;
                        let addr = self.ruu[i].mem_addr;
                        let width = inst.mem_width().unwrap_or(4);
                        self.cache.issue_store(addr, width, self.stats.cycles);
                        self.ruu[i].state = RuuState::Done;
                    }
                _ => {}
            }
            let post = self.ruu[i].state;
            if post != RuuState::Done {
                if let Some(d) = inst.dest() {
                    busy[busy_idx(d)] = true;
                }
            }
            if class == ExecClass::Store && post != RuuState::Done {
                pending_older_store = true;
            }
        }
    }

    /// Fetch + dispatch: functionally execute up to `fetch_width`
    /// instructions into the RUU. On a mispredicted control transfer,
    /// fetch stalls until it resolves (SimpleScalar-style redirect).
    fn fetch_dispatch(&mut self) {
        let mut fetched = 0;
        while fetched < self.config.fetch_width
            && self.ruu.len() < self.config.iq_capacity
            && !self.fetch_wait_resolve
        {
            let Some(pc) = self.fetch_pc else { break };
            let Some(inst) = self.prog.fetch(pc).copied() else { break };
            fetched += 1;
            let mut entry = RuuEntry {
                inst,
                state: RuuState::Waiting,
                mem_addr: 0,
                load_id: 0,
                redirect: None,
                out_value: None,
            };
            let mut taken_redirect = false;
            match inst.exec_class() {
                ExecClass::Halt => {
                    self.fetch_pc = None;
                    self.ruu.push(entry);
                    break;
                }
                ExecClass::Jump => {
                    if inst.op == fastsim_isa::Op::Jal {
                        self.cpu.set_int(fastsim_isa::Reg::RA.index(), pc.wrapping_add(4));
                    }
                    let target = inst.static_target(pc).expect("jump target");
                    self.fetch_pc = Some(target);
                    self.cpu.pc = target;
                    taken_redirect = target != pc.wrapping_add(4);
                }
                ExecClass::Branch => {
                    let taken = self.cpu.branch_taken(&inst);
                    let predicted = self.pred.predict(pc);
                    self.pred.update(pc, taken);
                    let target = if taken {
                        inst.static_target(pc).expect("branch target")
                    } else {
                        pc.wrapping_add(4)
                    };
                    self.cpu.pc = target;
                    if predicted == taken {
                        self.fetch_pc = Some(target);
                        taken_redirect = taken;
                    } else {
                        self.stats.mispredicts += 1;
                        entry.redirect = Some(target);
                        self.fetch_wait_resolve = true;
                    }
                }
                ExecClass::JumpInd => {
                    let target = self.cpu.int(inst.rs1);
                    let predicted = self.pred.predict_indirect(pc);
                    self.pred.update_indirect(pc, target);
                    if inst.op == fastsim_isa::Op::Jalr {
                        self.cpu.set_int(inst.rd, pc.wrapping_add(4));
                    }
                    self.cpu.pc = target;
                    if predicted == Some(target) {
                        self.fetch_pc = Some(target);
                        taken_redirect = true;
                    } else {
                        self.stats.mispredicts += 1;
                        entry.redirect = Some(target);
                        self.fetch_wait_resolve = true;
                    }
                }
                _ => {
                    // Functional execution at dispatch (sim-outorder
                    // style): values are computed now, timing is modeled
                    // by the RUU.
                    match self.cpu.exec(&inst, &mut self.mem) {
                        Effect::Compute => {}
                        Effect::Load { addr, .. } => {
                            entry.mem_addr = addr;
                            entry.load_id = self.next_load_id;
                            self.next_load_id += 1;
                        }
                        Effect::Store { addr, .. } => entry.mem_addr = addr,
                        Effect::Output(v) => entry.out_value = Some(v),
                        Effect::Halt => unreachable!("halt handled above"),
                    }
                    self.fetch_pc = Some(pc.wrapping_add(4));
                }
            }
            self.ruu.push(entry);
            if taken_redirect {
                break; // fetch break after a taken control transfer
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_isa::{Asm, Reg};

    fn run_program(build: impl FnOnce(&mut Asm)) -> BaselineSim {
        let mut a = Asm::new();
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut sim = BaselineSim::new(&image).unwrap();
        let committed = sim.run(10_000_000);
        assert!(sim.finished(), "program must halt (committed {committed})");
        sim
    }

    #[test]
    fn computes_loop_sum() {
        let sim = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 10);
            a.label("loop");
            a.add(Reg::R2, Reg::R2, Reg::R1);
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "loop");
            a.out(Reg::R2);
            a.halt();
        });
        assert_eq!(sim.output(), &[55]);
        assert_eq!(sim.stats().retired_insts, 33);
        assert!(sim.stats().cycles > 10);
    }

    #[test]
    fn memory_round_trip() {
        let sim = run_program(|a| {
            a.li(Reg::R1, 0x0010_0000);
            a.addi(Reg::R2, Reg::R0, 1234);
            a.sw(Reg::R2, Reg::R1, 0);
            a.lw(Reg::R3, Reg::R1, 0);
            a.out(Reg::R3);
            a.halt();
        });
        assert_eq!(sim.output(), &[1234]);
        assert!(sim.cache_stats().loads >= 1);
        assert!(sim.cache_stats().stores >= 1);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // Alternating branch defeats the 2-bit predictor; compare against
        // an always-taken loop of the same instruction count.
        let alternating = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 400);
            a.label("loop");
            a.andi(Reg::R4, Reg::R1, 1);
            a.beq(Reg::R4, Reg::R0, "skip");
            a.nop();
            a.label("skip");
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "loop");
            a.halt();
        });
        assert!(alternating.stats().mispredicts > 100);
    }

    #[test]
    fn calls_and_returns() {
        let sim = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 6);
            a.call("fact_loop");
            a.out(Reg::R2);
            a.halt();
            a.label("fact_loop");
            a.addi(Reg::R2, Reg::R0, 1);
            a.label("f");
            a.mul(Reg::R2, Reg::R2, Reg::R1);
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "f");
            a.ret();
        });
        assert_eq!(sim.output(), &[720]);
    }

    #[test]
    fn divide_latency_visible() {
        let with_div = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 1000);
            a.addi(Reg::R2, Reg::R0, 3);
            a.div(Reg::R3, Reg::R1, Reg::R2);
            a.add(Reg::R4, Reg::R3, Reg::R3);
            a.out(Reg::R4);
            a.halt();
        });
        assert_eq!(with_div.output(), &[666]);
        assert!(with_div.stats().cycles >= 34);
    }

    #[test]
    fn budget_pauses() {
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, 1000);
        a.label("l");
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, "l");
        a.halt();
        let image = a.assemble().unwrap();
        let mut sim = BaselineSim::new(&image).unwrap();
        let c = sim.run(100);
        assert!(c >= 100 && !sim.finished());
        sim.run(u64::MAX);
        assert!(sim.finished());
    }
}
