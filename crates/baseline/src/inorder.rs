//! A simple in-order pipeline model — the kind of approximation the paper
//! argues *against* (§2): "Pai et al. have shown that out-of-order
//! processors cannot be approximately accurately by in-order pipeline
//! models due to the unpredictable effects of memory instruction
//! reordering". This model exists to reproduce that motivation: the
//! `inorder_study` benchmark compares its cycle estimates against the real
//! out-of-order simulation and shows that the error varies wildly across
//! workloads — no constant fudge factor fixes an in-order model.
//!
//! The model is in the spirit of WWT2's static pipeline timing (also cited
//! in §2): a scalar, in-order issue machine tracked with a register
//! scoreboard of ready times, the same branch predictor (mispredicts
//! redirect fetch when the branch resolves) and the same non-blocking
//! cache simulator — except that in-order issue serialises cache misses
//! behind dependent work, which is precisely what out-of-order execution
//! overlaps.

use fastsim_emu::{BranchPredictor, Cpu, Effect};
use fastsim_isa::{ExecClass, Program, RegRef};
use fastsim_mem::{CacheSim, HierarchyConfig, PollResult};
use fastsim_uarch::UArchConfig;
use fastsim_isa::DecodedProgram;
use fastsim_mem::Memory;
use std::rc::Rc;

/// Statistics of an in-order run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InOrderStats {
    /// Estimated cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub retired_insts: u64,
    /// Mispredicted control transfers.
    pub mispredicts: u64,
}

/// The in-order, scalar-issue timing model.
pub struct InOrderSim {
    cpu: Cpu,
    mem: Memory,
    prog: Rc<DecodedProgram>,
    pred: BranchPredictor,
    cache: CacheSim,
    config: UArchConfig,
    /// Cycle at which each register's value becomes available
    /// (0..32 integer, 32..64 FP).
    reg_ready: [u64; 64],
    /// Cycle at which the next instruction can issue.
    next_issue: u64,
    next_load_id: u64,
    output: Vec<u32>,
    stats: InOrderStats,
    halted: bool,
}

/// Extra cycles from resolving a mispredicted branch to the first issue
/// from the corrected path (front-end refill).
const REDIRECT_PENALTY: u64 = 2;

impl InOrderSim {
    /// Creates an in-order model with the Table 1 latencies and caches.
    ///
    /// # Errors
    ///
    /// Returns the decode error if the program image is invalid.
    pub fn new(program: &Program) -> Result<InOrderSim, fastsim_isa::DecodeError> {
        InOrderSim::with_configs(program, UArchConfig::table1(), HierarchyConfig::table1())
    }

    /// Creates an in-order model with explicit parameters (only latencies
    /// and the cache configuration are used; widths are ignored — the
    /// model is scalar).
    ///
    /// # Errors
    ///
    /// Returns the decode error if the program image is invalid.
    pub fn with_configs(
        program: &Program,
        config: UArchConfig,
        cache: HierarchyConfig,
    ) -> Result<InOrderSim, fastsim_isa::DecodeError> {
        let prog = Rc::new(program.predecode()?);
        let mut mem = Memory::new();
        for (addr, bytes) in &program.data {
            mem.write_slice(*addr, bytes);
        }
        let entry = prog.entry();
        Ok(InOrderSim {
            cpu: Cpu::new(entry),
            mem,
            prog,
            pred: BranchPredictor::new(),
            cache: CacheSim::new(cache),
            config,
            reg_ready: [0; 64],
            next_issue: 0,
            next_load_id: 0,
            output: Vec::new(),
            stats: InOrderStats::default(),
            halted: false,
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> &InOrderStats {
        &self.stats
    }

    /// Program output.
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// Whether the program has halted.
    pub fn finished(&self) -> bool {
        self.halted
    }

    fn ready_idx(r: RegRef) -> usize {
        match r {
            RegRef::Int(i) => i as usize,
            RegRef::Fp(i) => 32 + i as usize,
        }
    }

    /// Drives an issued load through the cache simulator, returning the
    /// absolute cycle at which its data is available.
    fn load_ready_at(&mut self, addr: u32, width: u32, issue: u64) -> u64 {
        let id = self.next_load_id;
        self.next_load_id += 1;
        let mut t = issue + self.cache.issue_load(id, addr, width, issue) as u64;
        loop {
            match self.cache.poll_load(id, t) {
                PollResult::Ready => return t,
                PollResult::Wait(w) => t += w as u64,
            }
        }
    }

    /// Runs until the program halts or `max_insts` more instructions
    /// execute. Returns instructions executed by this call.
    pub fn run(&mut self, max_insts: u64) -> u64 {
        let start = self.stats.retired_insts;
        let budget_end = start.saturating_add(max_insts);
        while !self.halted && self.stats.retired_insts < budget_end {
            let pc = self.cpu.pc;
            let Some(inst) = self.prog.fetch(pc).copied() else { break };
            self.stats.retired_insts += 1;
            // In-order scalar issue: wait for the previous instruction's
            // issue slot and for all source operands.
            let mut issue = self.next_issue;
            for src in inst.sources().iter().flatten() {
                issue = issue.max(self.reg_ready[Self::ready_idx(*src)]);
            }
            let class = inst.exec_class();
            match class {
                ExecClass::Halt => {
                    self.halted = true;
                    self.stats.cycles = issue + 1;
                    break;
                }
                ExecClass::Jump => {
                    if inst.op == fastsim_isa::Op::Jal {
                        self.cpu.set_int(fastsim_isa::Reg::RA.index(), pc.wrapping_add(4));
                        self.reg_ready[31] = issue + 1;
                    }
                    self.cpu.pc = inst.static_target(pc).expect("jump target");
                    self.next_issue = issue + 1;
                }
                ExecClass::Branch => {
                    let taken = self.cpu.branch_taken(&inst);
                    let predicted = self.pred.predict(pc);
                    self.pred.update(pc, taken);
                    self.cpu.pc = if taken {
                        inst.static_target(pc).expect("branch target")
                    } else {
                        pc.wrapping_add(4)
                    };
                    self.next_issue = if predicted == taken {
                        issue + 1
                    } else {
                        self.stats.mispredicts += 1;
                        issue + 1 + REDIRECT_PENALTY
                    };
                }
                ExecClass::JumpInd => {
                    let target = self.cpu.int(inst.rs1);
                    let predicted = self.pred.predict_indirect(pc);
                    self.pred.update_indirect(pc, target);
                    if inst.op == fastsim_isa::Op::Jalr {
                        self.cpu.set_int(inst.rd, pc.wrapping_add(4));
                        if let Some(d) = inst.dest() {
                            self.reg_ready[Self::ready_idx(d)] = issue + 1;
                        }
                    }
                    self.cpu.pc = target;
                    self.next_issue = if predicted == Some(target) {
                        issue + 1
                    } else {
                        self.stats.mispredicts += 1;
                        issue + 1 + REDIRECT_PENALTY
                    };
                }
                _ => {
                    let effect = self.cpu.exec(&inst, &mut self.mem);
                    let done = match effect {
                        Effect::Load { addr, width } => {
                            // Address generation, then the cache; the
                            // in-order machine blocks the dependent use
                            // (and, being scalar with a blocking view,
                            // effectively the whole pipeline) on it.
                            self.load_ready_at(addr, width, issue + 1)
                        }
                        Effect::Store { addr, width, .. } => {
                            self.cache.issue_store(addr, width, issue + 1);
                            issue + 1
                        }
                        Effect::Output(v) => {
                            self.output.push(v);
                            issue + 1
                        }
                        _ => issue + self.config.latency(class) as u64,
                    };
                    if let Some(d) = inst.dest() {
                        self.reg_ready[Self::ready_idx(d)] = done;
                    }
                    self.next_issue = issue + 1;
                }
            }
            self.stats.cycles = self.stats.cycles.max(self.next_issue);
        }
        self.stats.retired_insts - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_isa::{Asm, Reg};

    fn run_program(build: impl FnOnce(&mut Asm)) -> InOrderSim {
        let mut a = Asm::new();
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut sim = InOrderSim::new(&image).unwrap();
        sim.run(10_000_000);
        assert!(sim.finished());
        sim
    }

    #[test]
    fn functional_results_match() {
        let sim = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 10);
            a.label("l");
            a.add(Reg::R2, Reg::R2, Reg::R1);
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "l");
            a.out(Reg::R2);
            a.halt();
        });
        assert_eq!(sim.output(), &[55]);
        assert_eq!(sim.stats().retired_insts, 33);
    }

    #[test]
    fn independent_work_cannot_overlap_a_miss() {
        // A cold load followed by INDEPENDENT alu work: the out-of-order
        // core overlaps them, the in-order core's dependent consumer still
        // serialises — cycles here must exceed the alu-only version by at
        // least the memory latency.
        let with_load = run_program(|a| {
            a.li(Reg::R1, 0x0030_0000);
            a.lw(Reg::R2, Reg::R1, 0);
            a.add(Reg::R3, Reg::R2, Reg::R2); // dependent use blocks
            for _ in 0..10 {
                a.addi(Reg::R4, Reg::R4, 1);
            }
            a.halt();
        });
        let without = run_program(|a| {
            a.li(Reg::R1, 0x0030_0000);
            a.addi(Reg::R2, Reg::R0, 7);
            a.add(Reg::R3, Reg::R2, Reg::R2);
            for _ in 0..10 {
                a.addi(Reg::R4, Reg::R4, 1);
            }
            a.halt();
        });
        assert!(
            with_load.stats().cycles > without.stats().cycles + 40,
            "{} vs {}",
            with_load.stats().cycles,
            without.stats().cycles
        );
    }

    #[test]
    fn mispredicts_add_penalty() {
        let sim = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 100);
            a.label("l");
            a.andi(Reg::R2, Reg::R1, 1);
            a.beq(Reg::R2, Reg::R0, "skip");
            a.nop();
            a.label("skip");
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "l");
            a.halt();
        });
        assert!(sim.stats().mispredicts > 20);
    }

    #[test]
    fn divide_serialises() {
        let sim = run_program(|a| {
            a.addi(Reg::R1, Reg::R0, 99);
            a.addi(Reg::R2, Reg::R0, 7);
            a.div(Reg::R3, Reg::R1, Reg::R2);
            a.add(Reg::R4, Reg::R3, Reg::R3);
            a.halt();
        });
        assert!(sim.stats().cycles >= 34);
    }
}
