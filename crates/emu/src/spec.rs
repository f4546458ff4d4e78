//! Speculative direct-execution (paper §3.2).
//!
//! [`SpecEmulator`] executes the target program functionally, in (predicted)
//! program order, producing the lQ/sQ/cQ records the timing simulators
//! consume. Conditional branches are followed in the *predicted* direction;
//! when the prediction is wrong, a register checkpoint is pushed to the bQ
//! and execution continues down the wrong path for real — stores record
//! their pre-store values so that [`SpecEmulator::rollback`] can restore
//! memory exactly when the µ-architecture simulator resolves the branch.

use crate::cpu::{Cpu, Effect};
use crate::predictor::BranchPredictor;
use crate::record::{CtrlKind, CtrlRec, LoadRec, StoreRec};
use crate::MAX_SPECULATION_DEPTH;
use fastsim_isa::{DecodedProgram, ExecClass, Op, Program, Reg};
use fastsim_mem::Memory;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Outcome of [`SpecEmulator::run_to_next_control`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Executed up to and including a conditional branch or indirect jump;
    /// the new control record (also appended to the cQ).
    Control(CtrlRec),
    /// Executed `halt` on the current path. If checkpoints are outstanding
    /// this may be a wrong-path halt that a later rollback will undo.
    Halted,
    /// The current path fetched outside the code segment and cannot
    /// continue. Legal only on a wrong path (the engine reports an error if
    /// it happens with no checkpoint outstanding).
    Blocked,
}

/// Error from the speculative emulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// More than the configured number of instructions executed without
    /// reaching a multi-target control transfer — the program is stuck in
    /// a straight-line or direct-jump-only infinite loop.
    Diverged {
        /// Program counter where the fuel ran out.
        pc: u32,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Diverged { pc } => {
                write!(f, "no conditional branch or indirect jump reached near {pc:#x}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A bQ entry: everything needed to roll the functional state back to the
/// point just after a mispredicted conditional branch executed.
#[derive(Clone, Debug)]
struct Checkpoint {
    /// Sequence number of the mispredicted branch's control record.
    ctrl_seq: u64,
    int_regs: [u32; 32],
    fp_regs: [f64; 32],
    /// Where fetch should continue once the branch resolves.
    correct_next: u32,
    /// Loads with `seq >=` this are wrong-path and must be discarded.
    load_seq: u64,
    /// Stores with `seq >=` this are wrong-path and must be undone.
    store_seq: u64,
    /// Length of the output sink at checkpoint time.
    out_len: usize,
}

/// Counters the speculative emulator collects.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpecStats {
    /// Instructions executed functionally, including wrong paths.
    pub insts_executed: u64,
    /// Of those, instructions executed on (later rolled back) wrong paths.
    pub wrong_path_insts: u64,
    /// Number of rollbacks performed.
    pub rollbacks: u64,
}

/// The speculative direct-execution engine.
///
/// Driven by the simulation engine through two entry points:
/// [`run_to_next_control`](SpecEmulator::run_to_next_control) (the paper's
/// "direct-execution continues to the next branch or indirect jump") and
/// [`rollback`](SpecEmulator::rollback) (the feedback path from the
/// µ-architecture simulator on a resolved misprediction).
#[derive(Clone, Debug)]
pub struct SpecEmulator {
    cpu: Cpu,
    mem: Memory,
    prog: Rc<DecodedProgram>,
    pred: BranchPredictor,
    lq: VecDeque<LoadRec>,
    sq: VecDeque<StoreRec>,
    cq: VecDeque<CtrlRec>,
    bq: Vec<Checkpoint>,
    load_seq: u64,
    store_seq: u64,
    ctrl_seq: u64,
    halted: bool,
    blocked: bool,
    output: Vec<u32>,
    stats: SpecStats,
    fuel_limit: u64,
}

impl SpecEmulator {
    /// Creates an emulator for `prog`, loading `image`'s data segments into
    /// a fresh memory and starting at the entry point.
    pub fn new(prog: Rc<DecodedProgram>, image: &Program) -> SpecEmulator {
        SpecEmulator::with_predictor(prog, image, BranchPredictor::new())
    }

    /// Creates an emulator with an explicitly sized branch predictor (for
    /// ablation studies; see [`BranchPredictor::with_entries`]).
    pub fn with_predictor(
        prog: Rc<DecodedProgram>,
        image: &Program,
        pred: BranchPredictor,
    ) -> SpecEmulator {
        let mut mem = Memory::new();
        for (addr, bytes) in &image.data {
            mem.write_slice(*addr, bytes);
        }
        SpecEmulator {
            cpu: Cpu::new(prog.entry()),
            mem,
            prog,
            pred,
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            cq: VecDeque::new(),
            bq: Vec::new(),
            load_seq: 0,
            store_seq: 0,
            ctrl_seq: 0,
            halted: false,
            blocked: false,
            output: Vec::new(),
            stats: SpecStats::default(),
            fuel_limit: 1 << 22,
        }
    }

    /// Overrides the straight-line fuel limit (instructions executed in one
    /// [`run_to_next_control`](SpecEmulator::run_to_next_control) call
    /// before reporting [`SpecError::Diverged`]).
    pub fn set_fuel_limit(&mut self, fuel: u64) {
        self.fuel_limit = fuel.max(1);
    }

    /// Current architectural state (registers and pc).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Target memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Values written by `out` instructions on the committed path.
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// Emulator counters.
    pub fn stats(&self) -> SpecStats {
        self.stats
    }

    /// Branch predictor statistics.
    pub fn predictor(&self) -> &BranchPredictor {
        &self.pred
    }

    /// Whether the program has halted with no outstanding speculation —
    /// i.e. the halt is architecturally final.
    pub fn finally_halted(&self) -> bool {
        self.halted && self.bq.is_empty()
    }

    /// Number of outstanding checkpoints (unresolved mispredicted
    /// branches).
    pub fn speculation_depth(&self) -> usize {
        self.bq.len()
    }

    // --- Queue access for the engine ------------------------------------

    /// Number of loads currently queued.
    pub fn lq_len(&self) -> usize {
        self.lq.len()
    }
    /// Number of stores currently queued.
    pub fn sq_len(&self) -> usize {
        self.sq.len()
    }
    /// Number of control records currently queued.
    pub fn cq_len(&self) -> usize {
        self.cq.len()
    }
    /// The load at head-relative index `i`.
    pub fn lq_get(&self, i: usize) -> Option<&LoadRec> {
        self.lq.get(i)
    }
    /// The store at head-relative index `i`.
    pub fn sq_get(&self, i: usize) -> Option<&StoreRec> {
        self.sq.get(i)
    }
    /// The control record at head-relative index `i`.
    pub fn cq_get(&self, i: usize) -> Option<&CtrlRec> {
        self.cq.get(i)
    }
    /// Pops the oldest load (its instruction retired).
    pub fn pop_load(&mut self) -> Option<LoadRec> {
        self.lq.pop_front()
    }
    /// Pops the oldest store (its instruction retired; the store is final).
    pub fn pop_store(&mut self) -> Option<StoreRec> {
        self.sq.pop_front()
    }
    /// Pops the oldest control record (its instruction retired).
    pub fn pop_ctrl(&mut self) -> Option<CtrlRec> {
        self.cq.pop_front()
    }

    /// Runs direct execution forward to the next conditional branch or
    /// indirect jump (inclusive), queueing load/store records along the
    /// way.
    ///
    /// # Errors
    ///
    /// [`SpecError::Diverged`] if the fuel limit is exhausted without
    /// reaching a multi-target control transfer.
    pub fn run_to_next_control(&mut self) -> Result<RunOutcome, SpecError> {
        if self.halted {
            return Ok(RunOutcome::Halted);
        }
        if self.blocked {
            return Ok(RunOutcome::Blocked);
        }
        let mut fuel = self.fuel_limit;
        loop {
            let pc = self.cpu.pc;
            let inst = match self.prog.fetch(pc) {
                Some(i) => *i,
                None => {
                    self.blocked = true;
                    return Ok(RunOutcome::Blocked);
                }
            };
            self.stats.insts_executed += 1;
            if !self.bq.is_empty() {
                self.stats.wrong_path_insts += 1;
            }
            match inst.exec_class() {
                ExecClass::Halt => {
                    self.halted = true;
                    return Ok(RunOutcome::Halted);
                }
                ExecClass::Jump => {
                    if inst.op == Op::Jal {
                        self.cpu.set_int(Reg::RA.index(), pc.wrapping_add(4));
                    }
                    self.cpu.pc = inst
                        .static_target(pc)
                        .expect("direct jumps have static targets");
                }
                ExecClass::Branch => {
                    let taken = self.cpu.branch_taken(&inst);
                    let predicted = self.pred.predict(pc);
                    self.pred.update(pc, taken);
                    let taken_target =
                        inst.static_target(pc).expect("branches have static targets");
                    let fall = pc.wrapping_add(4);
                    let actual_next = if taken { taken_target } else { fall };
                    let pred_next = if predicted { taken_target } else { fall };
                    let mispredicted = taken != predicted;
                    let rec = self.push_ctrl(CtrlRec {
                        seq: 0, // assigned by push_ctrl
                        pc,
                        kind: CtrlKind::CondBranch,
                        taken,
                        mispredicted,
                        target: taken_target,
                        next_fetch: pred_next,
                        correct_next: actual_next,
                        next_load_seq: self.load_seq,
                        next_store_seq: self.store_seq,
                    });
                    if mispredicted {
                        self.save_checkpoint(rec.seq, actual_next);
                    }
                    self.cpu.pc = pred_next;
                    return Ok(RunOutcome::Control(rec));
                }
                ExecClass::JumpInd => {
                    let actual = self.cpu.int(inst.rs1);
                    let predicted = self.pred.predict_indirect(pc);
                    self.pred.update_indirect(pc, actual);
                    if inst.op == Op::Jalr {
                        self.cpu.set_int(inst.rd, pc.wrapping_add(4));
                    }
                    let mispredicted = predicted != Some(actual);
                    let rec = self.push_ctrl(CtrlRec {
                        seq: 0,
                        pc,
                        kind: CtrlKind::IndirectJump,
                        taken: true,
                        mispredicted,
                        target: actual,
                        next_fetch: actual,
                        correct_next: actual,
                        next_load_seq: self.load_seq,
                        next_store_seq: self.store_seq,
                    });
                    self.cpu.pc = actual;
                    return Ok(RunOutcome::Control(rec));
                }
                _ => match self.cpu.exec(&inst, &mut self.mem) {
                    Effect::Compute => {}
                    Effect::Load { addr, width } => {
                        self.lq.push_back(LoadRec { seq: self.load_seq, addr, width });
                        self.load_seq += 1;
                    }
                    Effect::Store { addr, width, old } => {
                        self.sq
                            .push_back(StoreRec { seq: self.store_seq, addr, width, old });
                        self.store_seq += 1;
                    }
                    Effect::Output(v) => self.output.push(v),
                    Effect::Halt => unreachable!("halt handled above"),
                },
            }
            fuel -= 1;
            if fuel == 0 {
                return Err(SpecError::Diverged { pc: self.cpu.pc });
            }
        }
    }

    fn push_ctrl(&mut self, mut rec: CtrlRec) -> CtrlRec {
        rec.seq = self.ctrl_seq;
        self.ctrl_seq += 1;
        self.cq.push_back(rec);
        rec
    }

    fn save_checkpoint(&mut self, ctrl_seq: u64, correct_next: u32) {
        // +1: the engine keeps direct execution one control record ahead
        // of µ-architecture fetch, so one extra checkpoint can be live
        // beyond the pipeline's four unresolved branches.
        debug_assert!(
            self.bq.len() <= MAX_SPECULATION_DEPTH + 1,
            "bQ depth exceeded the processor model's speculation limit"
        );
        self.bq.push(Checkpoint {
            ctrl_seq,
            int_regs: self.cpu.int_regs(),
            fp_regs: self.cpu.fp_regs(),
            correct_next,
            load_seq: self.load_seq,
            store_seq: self.store_seq,
            out_len: self.output.len(),
        });
    }

    /// Rolls functional state back to the mispredicted branch whose control
    /// record has sequence number `ctrl_seq`, restoring registers from its
    /// bQ checkpoint, undoing wrong-path stores in reverse order, and
    /// truncating the wrong-path suffix of the lQ/sQ/cQ. Execution resumes
    /// at the corrected branch target.
    ///
    /// Returns the address fetch should continue at.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint exists for `ctrl_seq` — the µ-architecture
    /// may only roll back branches whose records were marked mispredicted.
    pub fn rollback(&mut self, ctrl_seq: u64) -> u32 {
        let pos = self
            .bq
            .iter()
            .position(|c| c.ctrl_seq == ctrl_seq)
            .unwrap_or_else(|| panic!("no checkpoint for control record {ctrl_seq}"));
        // The checkpoint and every younger one are discarded: move it out
        // of the bQ rather than copying it.
        self.bq.truncate(pos + 1);
        let cp = self.bq.pop().expect("checkpoint at `pos`");
        // Undo wrong-path stores, newest first (paper: "all pre-store
        // memory values following the mispredicted branch are restored, in
        // reverse order").
        while let Some(s) = self.sq.back() {
            if s.seq >= cp.store_seq {
                Cpu::undo_store(&mut self.mem, s.addr, s.width, s.old);
                self.sq.pop_back();
            } else {
                break;
            }
        }
        while matches!(self.lq.back(), Some(l) if l.seq >= cp.load_seq) {
            self.lq.pop_back();
        }
        while matches!(self.cq.back(), Some(c) if c.seq > ctrl_seq) {
            self.cq.pop_back();
        }
        self.cpu.restore_regs(cp.int_regs, cp.fp_regs);
        self.cpu.pc = cp.correct_next;
        self.output.truncate(cp.out_len);
        self.halted = false;
        self.blocked = false;
        self.stats.rollbacks += 1;
        cp.correct_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_isa::{Asm, Reg};

    fn emulator(build: impl FnOnce(&mut Asm)) -> SpecEmulator {
        let mut a = Asm::new();
        build(&mut a);
        let image = a.assemble().expect("test program assembles");
        let prog = Rc::new(image.predecode().expect("test program decodes"));
        SpecEmulator::new(prog, &image)
    }

    #[test]
    fn straightline_to_halt() {
        let mut e = emulator(|a| {
            a.addi(Reg::R1, Reg::R0, 5);
            a.addi(Reg::R2, Reg::R1, 5);
            a.out(Reg::R2);
            a.halt();
        });
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        assert!(e.finally_halted());
        assert_eq!(e.output(), &[10]);
    }

    #[test]
    fn loop_produces_control_records() {
        let mut e = emulator(|a| {
            a.addi(Reg::R1, Reg::R0, 3);
            a.label("top");
            a.subi(Reg::R1, Reg::R1, 1);
            a.bne(Reg::R1, Reg::R0, "top");
            a.halt();
        });
        // Three branch executions (taken, taken, not-taken)... but the
        // emulator follows predictions, so wrong paths interleave. Drive
        // it the way the engine would: roll back whenever a mispredicted
        // record is produced, immediately.
        let mut records = Vec::new();
        loop {
            match e.run_to_next_control().unwrap() {
                RunOutcome::Control(rec) => {
                    records.push(rec);
                    if rec.mispredicted {
                        e.rollback(rec.seq);
                    }
                }
                RunOutcome::Halted if e.finally_halted() => break,
                RunOutcome::Halted | RunOutcome::Blocked => {
                    panic!("wrong-path halt/block without outstanding rollback")
                }
            }
        }
        assert_eq!(records.len(), 3);
        assert!(records[0].taken);
        assert!(!records[2].taken);
        assert_eq!(e.cq_len(), 3);
    }

    #[test]
    fn misprediction_executes_wrong_path_and_rolls_back() {
        // Branch not-taken predicted (cold predictor predicts not-taken),
        // but actually taken: the emulator falls through into wrong-path
        // code that clobbers r5 and stores to memory, then rolls back.
        let mut e = emulator(|a| {
            a.addi(Reg::R1, Reg::R0, 1);
            a.addi(Reg::R5, Reg::R0, 111);
            a.li(Reg::R6, 0x0010_0000);
            a.sw(Reg::R5, Reg::R6, 0); // mem[0x100000] = 111 (correct path)
            a.bne(Reg::R1, Reg::R0, "target"); // taken, predicted NT
            // wrong path:
            a.addi(Reg::R5, Reg::R0, 999);
            a.sw(Reg::R5, Reg::R6, 0);
            a.out(Reg::R5);
            a.label("target");
            a.out(Reg::R5);
            a.halt();
        });
        let rec = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            other => panic!("expected control, got {other:?}"),
        };
        assert!(rec.mispredicted);
        assert!(rec.taken);
        assert_eq!(e.speculation_depth(), 1);
        // Let the wrong path run to its next control point (jump to
        // target then out/halt — direct execution keeps going).
        let after = e.run_to_next_control().unwrap();
        assert_eq!(after, RunOutcome::Halted, "wrong path reaches halt");
        assert!(!e.finally_halted(), "halt is speculative");
        // Wrong path executed: r5 clobbered, memory overwritten, output
        // polluted.
        assert_eq!(e.cpu().int(Reg::R5.index()), 999);
        assert_eq!(e.memory().read_u32(0x0010_0000), 999);
        // Roll back to the branch.
        let resume = e.rollback(rec.seq);
        assert_eq!(resume, rec.correct_next);
        assert_eq!(e.cpu().pc, rec.target);
        assert_eq!(e.cpu().int(Reg::R5.index()), 111, "register restored");
        assert_eq!(e.memory().read_u32(0x0010_0000), 111, "store undone");
        assert_eq!(e.speculation_depth(), 0);
        // Continue on the correct path.
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        assert!(e.finally_halted());
        assert_eq!(e.output(), &[111], "wrong-path output discarded");
        assert!(e.stats().wrong_path_insts > 0);
        assert_eq!(e.stats().rollbacks, 1);
    }

    #[test]
    fn nested_mispredictions_roll_back_in_any_resolution_order() {
        // Two consecutive mispredicted branches; rolling back the OLDER one
        // must discard the younger checkpoint and records.
        let mut e = emulator(|a| {
            a.addi(Reg::R1, Reg::R0, 1);
            a.bne(Reg::R1, Reg::R0, "t1"); // taken, predicted NT -> mispredict 1
            // wrong path 1:
            a.bne(Reg::R1, Reg::R0, "t2"); // also taken, predicted NT -> mispredict 2
            a.nop();
            a.label("t2");
            a.nop();
            a.halt();
            a.label("t1");
            a.out(Reg::R1);
            a.halt();
        });
        let r1 = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            o => panic!("{o:?}"),
        };
        assert!(r1.mispredicted);
        let r2 = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            o => panic!("{o:?}"),
        };
        assert!(r2.mispredicted);
        assert_eq!(e.speculation_depth(), 2);
        assert_eq!(e.cq_len(), 2);
        // Older branch resolves first: everything younger vanishes.
        e.rollback(r1.seq);
        assert_eq!(e.speculation_depth(), 0);
        assert_eq!(e.cq_len(), 1, "younger record discarded");
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        assert!(e.finally_halted());
        assert_eq!(e.output(), &[1]);
    }

    #[test]
    fn wrong_path_leaving_code_blocks() {
        // Mispredicted branch falls into a wild indirect jump region: the
        // wrong path jumps outside the code segment and blocks.
        let mut e = emulator(|a| {
            a.addi(Reg::R1, Reg::R0, 1);
            a.li(Reg::R7, 0x0900_0000); // far outside code
            a.bne(Reg::R1, Reg::R0, "ok"); // taken, predicted NT
            a.jr(Reg::R7); // wrong path: wild jump
            a.label("ok");
            a.halt();
        });
        let rec = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            o => panic!("{o:?}"),
        };
        assert!(rec.mispredicted);
        // Wrong path: the jr produces a control record to a wild target...
        let wild = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            o => panic!("{o:?}"),
        };
        assert_eq!(wild.target, 0x0900_0000);
        // ...and the next run blocks on the unfetchable address.
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Blocked);
        // Blocked state is sticky until rollback.
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Blocked);
        e.rollback(rec.seq);
        assert_eq!(e.cq_len(), 1, "wild jump record discarded");
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        assert!(e.finally_halted());
    }

    #[test]
    fn indirect_jump_records_target() {
        let mut e = emulator(|a| {
            a.call("sub");
            a.out(Reg::R2);
            a.halt();
            a.label("sub");
            a.addi(Reg::R2, Reg::R0, 7);
            a.ret();
        });
        // call is a direct jump (no record); the ret is indirect.
        let rec = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            o => panic!("{o:?}"),
        };
        assert_eq!(rec.kind, CtrlKind::IndirectJump);
        assert!(rec.mispredicted, "cold BTB misses");
        assert_eq!(rec.target, fastsim_isa::DEFAULT_CODE_BASE + 4);
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        assert_eq!(e.output(), &[7]);
    }

    #[test]
    fn diverged_loop_reports_error() {
        let mut e = emulator(|a| {
            a.label("spin");
            a.j("spin");
            a.halt();
        });
        e.set_fuel_limit(1000);
        assert_eq!(e.run_to_next_control(), Err(SpecError::Diverged { pc: 0x0001_0000 }));
    }

    #[test]
    fn queue_records_accumulate_and_pop() {
        let mut e = emulator(|a| {
            a.li(Reg::R1, 0x0010_0000);
            a.lw(Reg::R2, Reg::R1, 0);
            a.sw(Reg::R2, Reg::R1, 4);
            a.lw(Reg::R3, Reg::R1, 8);
            a.halt();
        });
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        assert_eq!(e.lq_len(), 2);
        assert_eq!(e.sq_len(), 1);
        assert_eq!(e.lq_get(0).unwrap().addr, 0x0010_0000);
        assert_eq!(e.lq_get(1).unwrap().addr, 0x0010_0008);
        assert_eq!(e.sq_get(0).unwrap().addr, 0x0010_0004);
        let l = e.pop_load().unwrap();
        assert_eq!(l.seq, 0);
        assert_eq!(e.lq_len(), 1);
    }

    #[test]
    fn jalr_with_same_source_and_dest() {
        // jalr r1, r1 must jump to the OLD r1.
        let mut e = emulator(|a| {
            a.li(Reg::R1, fastsim_isa::DEFAULT_CODE_BASE + 4 * 4); // "sub"
            a.jalr(Reg::R1, Reg::R1);
            a.halt();
            a.nop();
            // sub:
            a.out(Reg::R1);
            a.halt();
        });
        let rec = match e.run_to_next_control().unwrap() {
            RunOutcome::Control(r) => r,
            o => panic!("{o:?}"),
        };
        assert_eq!(rec.target, fastsim_isa::DEFAULT_CODE_BASE + 16);
        assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted);
        // r1 now holds the return address (pc of jalr + 4).
        assert_eq!(e.output(), &[fastsim_isa::DEFAULT_CODE_BASE + 3 * 4]);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use fastsim_isa::{Asm, Reg};
    use fastsim_prng::for_each_case;

    /// Builds a program whose first branch is always mispredicted (taken,
    /// cold predictor says not-taken) and whose wrong path performs an
    /// arbitrary mix of register writes, stores and outputs before the
    /// correct path resumes.
    fn program_with_wrong_path(ops: &[(u8, u8, i16)]) -> SpecEmulator {
        let mut a = Asm::new();
        a.li(Reg::R26, 0x0010_0000);
        a.addi(Reg::R1, Reg::R0, 1);
        a.bne(Reg::R1, Reg::R0, "correct"); // taken, predicted NT
        // Wrong path: arbitrary clobbering.
        for &(kind, r, imm) in ops {
            let r = Reg::new(1 + r % 20);
            match kind % 4 {
                0 => {
                    a.addi(r, r, imm as i32);
                }
                1 => {
                    a.sw(r, Reg::R26, (imm as i32) & 0x7fc);
                }
                2 => {
                    a.out(r);
                }
                _ => {
                    a.sb(r, Reg::R26, (imm as i32) & 0x7ff);
                }
            }
        }
        a.halt(); // wrong path ends in a speculative halt
        a.label("correct");
        a.out(Reg::R1);
        a.halt();
        let image = a.assemble().unwrap();
        let prog = Rc::new(image.predecode().unwrap());
        SpecEmulator::new(prog, &image)
    }

    /// Rollback restores registers, memory and output exactly, no matter
    /// what the wrong path did.
    #[test]
    fn random_rollback_restores_everything() {
        for_each_case(0x20115ac4, 64, |seed, rng| {
            let ops: Vec<(u8, u8, i16)> = (0..rng.range_usize(0..24))
                .map(|_| (rng.next_u8(), rng.next_u8(), rng.next_i16()))
                .collect();
            let mut e = program_with_wrong_path(&ops);
            let rec = match e.run_to_next_control().unwrap() {
                RunOutcome::Control(r) => r,
                o => panic!("expected control, got {o:?} (seed {seed:#x})"),
            };
            assert!(rec.mispredicted, "seed {seed:#x}");
            // Snapshot the pristine post-branch state.
            let cpu_before = e.cpu().clone();
            let mem_words: Vec<u32> =
                (0..512).map(|i| e.memory().read_u32(0x0010_0000 + i * 4)).collect();
            let out_before = e.output().to_vec();
            // Let the wrong path run to its end (halt or further control).
            let _ = e.run_to_next_control().unwrap();
            // Roll back and verify exact restoration.
            e.rollback(rec.seq);
            assert_eq!(e.cpu().int_regs(), cpu_before.int_regs(), "seed {seed:#x}");
            assert_eq!(e.cpu().fp_regs(), cpu_before.fp_regs(), "seed {seed:#x}");
            assert_eq!(e.cpu().pc, rec.correct_next, "seed {seed:#x}");
            for (i, w) in mem_words.iter().enumerate() {
                assert_eq!(e.memory().read_u32(0x0010_0000 + i as u32 * 4), *w, "seed {seed:#x}");
            }
            assert_eq!(e.output(), &out_before[..], "seed {seed:#x}");
            assert_eq!(e.speculation_depth(), 0, "seed {seed:#x}");
            // The correct path completes normally.
            assert_eq!(e.run_to_next_control().unwrap(), RunOutcome::Halted, "seed {seed:#x}");
            assert!(e.finally_halted(), "seed {seed:#x}");
        });
    }
}
