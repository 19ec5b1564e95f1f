//! Deterministic in-order architectural executor for RISC-V programs.
//!
//! [`RiscvMachine`] runs a [`RiscvProgram`] instruction by instruction and
//! emits the fully-resolved [`TraceInst`] stream the pipeline consumes:
//! branch outcomes, effective addresses and real operand values. It is
//! also the reference machine of `tests/riscv_diff.rs` — after a pipeline
//! run halts, its committed register file and memory image must be
//! bit-identical to this executor's end state.
//!
//! Memory is a sparse map of 32-bit words (byte/half accesses
//! read-modify-write their containing word) that starts all-zero, so
//! programs must initialize their own data with stores.

use std::sync::Arc;

use tv_prng::FastHashMap;

use super::isa::{
    load_from_word, store_into_word, word_addr, Action, Inst, RiscvProgram,
};
use crate::inst::{ArchReg, TraceInst};
use crate::source::WorkloadSource;

/// Upper bound on architectural steps before [`RiscvMachine::run_to_halt`]
/// declares the program runaway.
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// The in-order architectural executor.
#[derive(Debug, Clone)]
pub struct RiscvMachine {
    program: Arc<RiscvProgram>,
    regs: [u32; 32],
    /// Sparse word memory, keyed by word-aligned byte address.
    mem: FastHashMap<u32, u32>,
    pc: u32,
    seq: u64,
    halted: bool,
    /// The program counter walked outside the program without an `ecall`.
    fell_off: bool,
}

impl RiscvMachine {
    /// A reset machine at the program's base PC: registers and memory all
    /// zero.
    pub fn new(program: Arc<RiscvProgram>) -> Self {
        let pc = program.base();
        RiscvMachine {
            program,
            regs: [0; 32],
            mem: FastHashMap::default(),
            pc,
            seq: 0,
            halted: false,
            fell_off: false,
        }
    }

    /// The program under execution.
    pub fn program(&self) -> &Arc<RiscvProgram> {
        &self.program
    }

    /// Whether the program has halted (via `ecall`, or by walking off the
    /// program — see [`fell_off`](RiscvMachine::fell_off)).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the halt was a walk off the end of the program rather than
    /// an `ecall` (almost always an assembly bug).
    pub fn fell_off(&self) -> bool {
        self.fell_off
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.seq
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The architectural register file.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// The touched memory image as sorted `(word address, word)` pairs.
    pub fn mem_image(&self) -> Vec<(u32, u32)> {
        let mut image: Vec<(u32, u32)> = self.mem.iter().map(|(&a, &w)| (a, w)).collect();
        image.sort_unstable();
        image
    }

    fn reg(&self, idx: u8) -> u32 {
        self.regs[idx as usize]
    }

    fn set_reg(&mut self, idx: u8, value: u32) {
        if idx != 0 {
            self.regs[idx as usize] = value;
        }
    }

    fn load_word(&self, addr: u32) -> u32 {
        self.mem.get(&word_addr(addr)).copied().unwrap_or(0)
    }

    /// Executes one instruction and returns its resolved [`TraceInst`];
    /// `None` once the machine has halted. The halting `ecall` itself is
    /// emitted (as a no-operand ALU op) before the stream ends.
    pub fn step(&mut self) -> Option<TraceInst> {
        if self.halted {
            return None;
        }
        let Some(&inst) = self.program.inst_at(u64::from(self.pc)) else {
            // Fell off the program: halt without emitting.
            self.halted = true;
            self.fell_off = true;
            return None;
        };
        let pc = self.pc;
        let a = self.reg(inst.rs1);
        let b = self.reg(inst.rs2);

        let mut next_pc = pc.wrapping_add(4);
        let mut mem_addr = None;
        let mut taken = None;
        let mut target = None;
        match inst.eval(pc, a, b) {
            Action::Alu(v) => self.set_reg(inst.rd, v),
            Action::Load { addr, width, signed } => {
                mem_addr = Some(u64::from(addr));
                let v = load_from_word(self.load_word(addr), addr, width, signed);
                self.set_reg(inst.rd, v);
            }
            Action::Store { addr, width, data } => {
                mem_addr = Some(u64::from(addr));
                let wa = word_addr(addr);
                let word = store_into_word(self.load_word(addr), addr, width, data);
                self.mem.insert(wa, word);
            }
            Action::Branch { taken: t, target: tgt } => {
                taken = Some(t);
                if t {
                    target = Some(u64::from(tgt));
                    next_pc = tgt;
                }
            }
            Action::Jump { target: tgt, link } => {
                self.set_reg(inst.rd, link);
                taken = Some(true);
                target = Some(u64::from(tgt));
                next_pc = tgt;
            }
            Action::Halt => {
                self.halted = true;
            }
        }

        let trace = trace_inst(&inst, self.seq, pc, [a, b], mem_addr, taken, target);
        self.seq += 1;
        self.pc = next_pc;
        Some(trace)
    }

    /// Runs to the halting `ecall` (or the step limit) and returns the
    /// number of instructions executed.
    pub fn run_to_halt(&mut self, max_steps: u64) -> u64 {
        let start = self.seq;
        while !self.halted && self.seq - start < max_steps {
            let _ = self.step();
        }
        self.seq - start
    }
}

/// Renders one executed instruction as the pipeline's [`TraceInst`].
///
/// Source slots are positional — slot 0 is `rs1`, slot 1 is `rs2` — and a
/// slot is `None` when the instruction does not read it *or* when it reads
/// `x0` (whose value is always zero, matching the empty slot's semantics).
/// The destination is `None` for `rd = x0`.
fn trace_inst(
    inst: &Inst,
    seq: u64,
    pc: u32,
    operand_values: [u32; 2],
    mem_addr: Option<u64>,
    taken: Option<bool>,
    target: Option<u64>,
) -> TraceInst {
    let src = |used: bool, r: u8| {
        (used && r != 0).then(|| ArchReg::new(r))
    };
    TraceInst {
        seq,
        pc: u64::from(pc),
        op: inst.op.op_class(),
        srcs: [
            src(inst.op.uses_rs1(), inst.rs1),
            src(inst.op.uses_rs2(), inst.rs2),
        ],
        dst: (inst.op.writes_rd() && inst.rd != 0).then(|| ArchReg::new(inst.rd)),
        mem_addr,
        taken,
        target,
        operand_values: [u64::from(operand_values[0]), u64::from(operand_values[1])],
    }
}

impl WorkloadSource for RiscvMachine {
    fn next_inst(&mut self) -> Option<TraceInst> {
        self.step()
    }

    fn fork(&self) -> Box<dyn WorkloadSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::riscv::asm::assemble;

    fn run(src: &str) -> RiscvMachine {
        let program = Arc::new(assemble(src).expect("assembles"));
        let mut m = RiscvMachine::new(program);
        let steps = m.run_to_halt(1_000_000);
        assert!(m.halted(), "program must halt");
        assert!(!m.fell_off(), "program must halt via ecall");
        assert!(steps > 0);
        m
    }

    #[test]
    fn arithmetic_and_branches() {
        // sum 1..=10 into a0
        let m = run("
            li a0, 0
            li t0, 1
            li t1, 11
        loop:
            add a0, a0, t0
            addi t0, t0, 1
            bne t0, t1, loop
            ecall
        ");
        assert_eq!(m.regs()[10], 55);
    }

    #[test]
    fn memory_round_trip_and_subword() {
        let m = run("
            li t0, 0x2000
            li t1, 0x12345678
            sw t1, 0(t0)
            lw a0, 0(t0)
            lbu a1, 1(t0)
            lb a2, 3(t0)
            lhu a3, 2(t0)
            sb zero, 0(t0)
            lw a4, 0(t0)
            ecall
        ");
        assert_eq!(m.regs()[10], 0x1234_5678);
        assert_eq!(m.regs()[11], 0x56);
        assert_eq!(m.regs()[12], 0x12);
        assert_eq!(m.regs()[13], 0x1234);
        assert_eq!(m.regs()[14], 0x1234_5600);
        assert_eq!(m.mem_image(), vec![(0x2000, 0x1234_5600)]);
    }

    #[test]
    fn division_edge_cases_follow_riscv() {
        let m = run("
            li t0, -8
            li t1, 0
            div a0, t0, t1     # div by zero -> -1
            rem a1, t0, t1     # rem by zero -> dividend
            li t2, 0x80000000
            li t3, -1
            div a2, t2, t3     # overflow -> i32::MIN
            rem a3, t2, t3     # overflow -> 0
            ecall
        ");
        assert_eq!(m.regs()[10], u32::MAX);
        assert_eq!(m.regs()[11] as i32, -8);
        assert_eq!(m.regs()[12], 0x8000_0000);
        assert_eq!(m.regs()[13], 0);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let m = run("
            li a0, 5
            jal ra, double
            mv a1, a0
            ecall
        double:
            add a0, a0, a0
            ret
        ");
        assert_eq!(m.regs()[10], 10);
        assert_eq!(m.regs()[11], 10);
    }

    #[test]
    fn trace_stream_is_consistent_control_flow() {
        let program = Arc::new(
            assemble("
                li t0, 0
                li t1, 3
            loop:
                addi t0, t0, 1
                bne t0, t1, loop
                ecall
            ")
            .unwrap(),
        );
        let mut m = RiscvMachine::new(program);
        let mut prev: Option<TraceInst> = None;
        let mut seq = 0;
        while let Some(t) = m.step() {
            assert_eq!(t.seq, seq);
            seq += 1;
            if let Some(p) = prev {
                let expect = match p.taken {
                    Some(true) => p.target.expect("taken carries target"),
                    _ => p.next_pc(),
                };
                assert_eq!(t.pc, expect, "control flow inconsistent");
            }
            prev = Some(t);
        }
        assert!(m.halted());
        // Re-running a fresh machine yields the identical stream.
        let mut a = RiscvMachine::new(m.program().clone());
        let mut b = RiscvMachine::new(m.program().clone());
        loop {
            let (x, y) = (a.step(), b.step());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn x0_never_appears_as_operand_slot_or_dst() {
        let program = Arc::new(
            assemble("
                addi x0, x0, 7   # write to x0 is discarded
                add t0, zero, x0
                beq zero, zero, done
                nop
            done:
                ecall
            ")
            .unwrap(),
        );
        let mut m = RiscvMachine::new(program);
        while let Some(t) = m.step() {
            for s in t.srcs.iter().flatten() {
                assert!(!s.is_zero(), "x0 sources must be empty slots");
            }
            if let Some(d) = t.dst {
                assert!(!d.is_zero(), "x0 destinations must be None");
            }
        }
        assert_eq!(m.regs()[0], 0);
        assert_eq!(m.regs()[5], 0);
    }

    #[test]
    fn falling_off_the_program_halts_with_flag() {
        let program = Arc::new(assemble("nop\nnop\n").unwrap());
        let mut m = RiscvMachine::new(program);
        m.run_to_halt(100);
        assert!(m.halted());
        assert!(m.fell_off());
        assert_eq!(m.steps(), 2);
    }
}
