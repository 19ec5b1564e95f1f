//! In-order golden-model reference machine for the commit stream.
//!
//! The paper's claim is that violation-aware scheduling tolerates timing
//! violations *without corrupting architectural state* (§3.2–3.3). The
//! cycle-level simulator models faults as timing events; to prove a scheme
//! actually prevents silent data corruption we give every instruction a
//! deterministic *value* semantics and re-execute the committed stream on
//! an independent, trivially-correct in-order machine — the golden model —
//! checking each committed destination value and, at the end of a run, the
//! whole architectural register file.
//!
//! The value semantics ([`value_of`], [`initial_memory_value`]) is shared
//! verbatim by the pipeline's architectural value plane and the golden
//! model here: both are pure functions of the operand values, so any
//! corruption injected into a committed result propagates through
//! dependent instructions and memory on both sides identically — except
//! that the golden machine never corrupts. A single untolerated bit-flip
//! therefore diverges the two machines and stays visible until it is
//! overwritten, which is what gives the oracle its teeth.

use std::fmt;
use std::sync::Arc;

use tv_prng::{fast_map, FastHashMap};
use tv_workloads::riscv::{isa, RiscvProgram};
use tv_workloads::{OpClass, TraceInst};

/// Maximum number of mismatch samples retained for diagnostics.
const MAX_SAMPLES: usize = 8;

/// Deterministic result value of a register-writing (or store-data)
/// operation: a pure function of the op class, the static PC and the two
/// source operand values.
///
/// This is the single value semantics of the synthetic ISA — the pipeline's
/// value plane and the golden model both call it, so they agree exactly on
/// clean executions. The mixing ensures every output bit depends on every
/// input bit, so a corrupted operand yields a (practically always)
/// different result and corruption cannot silently mask itself.
pub fn value_of(op: OpClass, pc: u64, a: u64, b: u64) -> u64 {
    // Per-op salt keeps distinct op classes from colliding on identical
    // operands (e.g. a mul and an add of the same registers).
    let salt = match op {
        OpClass::IntAlu => 1,
        OpClass::IntMul => 2,
        OpClass::IntDiv => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::CondBranch => 6,
        OpClass::Jump => 7,
        OpClass::FpAlu => 8,
        OpClass::FpMul => 9,
    };
    mix(pc ^ salt_mul(salt), a, b)
}

/// Deterministic initial contents of a memory word never written before.
pub fn initial_memory_value(addr: u64) -> u64 {
    mix(0x6d65_6d5f_696e_6974, addr, 0)
}

fn salt_mul(salt: u64) -> u64 {
    salt.wrapping_mul(0x1656_67b1_9e37_79f9)
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ c.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sparse 64-bit word memory with deterministic initial contents.
///
/// Reads of never-written addresses return [`initial_memory_value`]
/// without populating the map, so memory footprint tracks the written
/// working set only.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    written: FastHashMap<u64, u64>,
}

impl SparseMemory {
    /// An empty memory (every address at its initial value).
    pub fn new() -> Self {
        SparseMemory { written: fast_map() }
    }

    /// The word at `addr`.
    pub fn read(&self, addr: u64) -> u64 {
        self.written
            .get(&addr)
            .copied()
            .unwrap_or_else(|| initial_memory_value(addr))
    }

    /// Stores `value` at `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        self.written.insert(addr, value);
    }

    /// The word at `addr` if it was ever written, without synthesizing an
    /// initial value. RISC-V semantics use this: real memory starts
    /// all-zero, so an unwritten word reads as `0`, not as the synthetic
    /// hash.
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.written.get(&addr).copied()
    }

    /// The written image as sorted `(address, word)` pairs.
    pub fn image(&self) -> Vec<(u64, u64)> {
        let mut image: Vec<(u64, u64)> = self.written.iter().map(|(&a, &w)| (a, w)).collect();
        image.sort_unstable();
        image
    }

    /// Number of distinct addresses written so far.
    pub fn written_words(&self) -> usize {
        self.written.len()
    }
}

/// Architectural effect of one committed instruction, as computed by a
/// [`Semantics`] from the instruction's operand values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitEffect {
    /// The instruction produces this destination (or link) value.
    Value(u64),
    /// The instruction stores `data` at `addr` (word-granular under
    /// RISC-V semantics: sub-word stores arrive pre-merged into their
    /// containing word).
    Store { addr: u64, data: u64 },
    /// No architectural value effect (branches, the halting `ecall`).
    None,
}

/// The value semantics of the simulated ISA.
///
/// The pipeline's value plane and the golden model share one `Semantics`
/// instance, so they agree exactly on clean executions — the plane merely
/// adds the fault model's corruption mask on top.
/// [`Synthetic`](Semantics::Synthetic) is the paper-study hash semantics
/// ([`value_of`]); [`Riscv`](Semantics::Riscv) executes the real RV32I+M
/// instruction at the committed PC.
#[derive(Debug, Clone, Default)]
pub enum Semantics {
    /// Hash-based synthetic values: [`value_of`] over 64-bit operands,
    /// memory with deterministic nonzero initial contents.
    #[default]
    Synthetic,
    /// Real RV32I+M execution of the given program: 32-bit values,
    /// word-granular memory starting all-zero.
    Riscv(Arc<RiscvProgram>),
}

impl Semantics {
    /// Width mask applied to every committed value (and corruption mask).
    pub fn mask(&self) -> u64 {
        match self {
            Semantics::Synthetic => u64::MAX,
            Semantics::Riscv(_) => 0xffff_ffff,
        }
    }

    /// Computes the architectural effect of committing `t` with operand
    /// values `a`/`b` (slot 0 / slot 1) against memory `mem`.
    ///
    /// Addresses are recomputed from the operand values — not taken from
    /// the trace — so a corrupted base register mis-addresses memory on
    /// the corrupted side exactly as real hardware would.
    ///
    /// # Panics
    ///
    /// Panics if a synthetic memory op carries no effective address, or if
    /// a RISC-V commit PC lies outside the program.
    pub fn effect(&self, t: &TraceInst, a: u64, b: u64, mem: &SparseMemory) -> CommitEffect {
        match self {
            Semantics::Synthetic => match t.op {
                OpClass::Load => {
                    let addr = t.mem_addr.expect("load carries an address");
                    CommitEffect::Value(mem.read(addr))
                }
                OpClass::Store => {
                    let addr = t.mem_addr.expect("store carries an address");
                    CommitEffect::Store {
                        addr,
                        data: value_of(OpClass::Store, t.pc, a, b),
                    }
                }
                op if op.writes_register() => CommitEffect::Value(value_of(op, t.pc, a, b)),
                _ => CommitEffect::None,
            },
            Semantics::Riscv(program) => {
                let inst = program
                    .inst_at(t.pc)
                    .expect("riscv commit PC lies inside the program");
                match inst.eval(t.pc as u32, a as u32, b as u32) {
                    isa::Action::Alu(v) => CommitEffect::Value(u64::from(v)),
                    isa::Action::Load { addr, width, signed } => {
                        let word = mem.get(u64::from(isa::word_addr(addr))).unwrap_or(0) as u32;
                        CommitEffect::Value(u64::from(isa::load_from_word(
                            word, addr, width, signed,
                        )))
                    }
                    isa::Action::Store { addr, width, data } => {
                        let wa = isa::word_addr(addr);
                        let old = mem.get(u64::from(wa)).unwrap_or(0) as u32;
                        CommitEffect::Store {
                            addr: u64::from(wa),
                            data: u64::from(isa::store_into_word(old, addr, width, data)),
                        }
                    }
                    isa::Action::Branch { .. } | isa::Action::Halt => CommitEffect::None,
                    // The link value is produced even for `rd = x0` (both
                    // sides then discard the register write identically).
                    isa::Action::Jump { link, .. } => CommitEffect::Value(u64::from(link)),
                }
            }
        }
    }
}

/// The in-order functional reference machine.
///
/// Executes [`TraceInst`]s architecturally: register reads from the
/// 32-entry architectural file (`r0` hard-wired to zero), loads/stores
/// against a [`SparseMemory`], results from [`value_of`]. No pipeline, no
/// renaming, no speculation — each `step` is obviously correct, which is
/// the whole point of a golden model.
#[derive(Debug, Clone)]
pub struct GoldenModel {
    semantics: Semantics,
    regs: [u64; 32],
    mem: SparseMemory,
}

impl Default for GoldenModel {
    fn default() -> Self {
        Self::new()
    }
}

impl GoldenModel {
    /// A reset machine under synthetic semantics: all registers zero,
    /// memory at initial values.
    pub fn new() -> Self {
        Self::with_semantics(Semantics::Synthetic)
    }

    /// A reset machine under the given value semantics.
    pub fn with_semantics(semantics: Semantics) -> Self {
        GoldenModel {
            semantics,
            regs: [0; 32],
            mem: SparseMemory::new(),
        }
    }

    /// Executes one instruction and returns its committed destination
    /// value: `Some` for register-writing ops (even when the destination
    /// is `r0`, whose write is then discarded), `None` for stores and
    /// control transfers.
    ///
    /// # Panics
    ///
    /// Panics if a memory op carries no effective address.
    pub fn step(&mut self, t: &TraceInst) -> Option<u64> {
        let a = t.srcs[0].map_or(0, |r| self.regs[r.index() as usize]);
        let b = t.srcs[1].map_or(0, |r| self.regs[r.index() as usize]);
        let value = match self.semantics.effect(t, a, b, &self.mem) {
            CommitEffect::Value(v) => Some(v),
            CommitEffect::Store { addr, data } => {
                self.mem.write(addr, data);
                None
            }
            CommitEffect::None => None,
        };
        if let (Some(v), Some(d)) = (value, t.dst) {
            if !d.is_zero() {
                self.regs[d.index() as usize] = v;
            }
        }
        value
    }

    /// The architectural register file.
    pub fn regs(&self) -> &[u64; 32] {
        &self.regs
    }

    /// The memory image.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }
}

/// One committed value that disagreed with the golden model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueMismatch {
    /// Dynamic sequence number of the disagreeing commit.
    pub seq: u64,
    /// Static PC of the instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// What the golden model says the commit should have produced.
    pub expected: Option<u64>,
    /// What the pipeline actually committed.
    pub got: Option<u64>,
}

impl fmt::Display for ValueMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn v(x: Option<u64>) -> String {
            x.map_or("none".into(), |x| format!("{x:#x}"))
        }
        write!(
            f,
            "seq={} pc={:#x} op={} expected={} got={}",
            self.seq,
            self.pc,
            self.op,
            v(self.expected),
            v(self.got)
        )
    }
}

/// Verdict of an oracle-checked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Committed instructions checked against the golden model.
    pub checked: u64,
    /// Commits whose destination value disagreed.
    pub value_mismatches: u64,
    /// Architectural registers whose final value disagreed.
    pub regfile_mismatches: u64,
    /// Up to `MAX_SAMPLES` earliest value mismatches, for diagnostics.
    pub first_mismatches: Vec<ValueMismatch>,
}

impl OracleReport {
    /// Whether the run committed oracle-clean architectural state.
    pub fn clean(&self) -> bool {
        self.value_mismatches == 0 && self.regfile_mismatches == 0
    }

    /// One-line diagnostic summary (no commas — CSV-friendly).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} checked; {} value mismatches; {} regfile mismatches",
            self.checked, self.value_mismatches, self.regfile_mismatches
        );
        if let Some(first) = self.first_mismatches.first() {
            s.push_str(&format!("; first {first}"));
        }
        s
    }
}

/// The streaming checker: a [`GoldenModel`] advanced in lock-step with the
/// pipeline's commit stream, counting disagreements.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    model: GoldenModel,
    checked: u64,
    value_mismatches: u64,
    samples: Vec<ValueMismatch>,
}

impl Oracle {
    /// A fresh oracle over a reset golden machine with synthetic
    /// semantics.
    pub fn new() -> Self {
        Self::with_semantics(Semantics::Synthetic)
    }

    /// A fresh oracle over a reset golden machine with the given value
    /// semantics.
    pub fn with_semantics(semantics: Semantics) -> Self {
        Oracle {
            model: GoldenModel::with_semantics(semantics),
            checked: 0,
            value_mismatches: 0,
            samples: Vec::new(),
        }
    }

    /// The golden machine being advanced (for end-state comparisons).
    pub fn model(&self) -> &GoldenModel {
        &self.model
    }

    /// Checks one commit: `committed` is the destination value the pipeline
    /// produced (`None` for stores/branches). Must be called in commit
    /// order — the golden machine advances one instruction per call.
    pub fn observe(&mut self, t: &TraceInst, committed: Option<u64>) {
        let expected = self.model.step(t);
        self.checked += 1;
        if expected != committed {
            self.value_mismatches += 1;
            if self.samples.len() < MAX_SAMPLES {
                self.samples.push(ValueMismatch {
                    seq: t.seq,
                    pc: t.pc,
                    op: t.op,
                    expected,
                    got: committed,
                });
            }
        }
    }

    /// Commits checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Final verdict, comparing the pipeline's architectural register file
    /// `committed_regs` against the golden machine's.
    pub fn report(&self, committed_regs: &[u64; 32]) -> OracleReport {
        let regfile_mismatches = self
            .model
            .regs()
            .iter()
            .zip(committed_regs.iter())
            .filter(|(g, c)| g != c)
            .count() as u64;
        OracleReport {
            checked: self.checked,
            value_mismatches: self.value_mismatches,
            regfile_mismatches,
            first_mismatches: self.samples.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_workloads::ArchReg;

    fn alu(seq: u64, pc: u64, dst: u8, srcs: [Option<u8>; 2]) -> TraceInst {
        TraceInst {
            seq,
            pc,
            op: OpClass::IntAlu,
            srcs: srcs.map(|s| s.map(ArchReg::new)),
            dst: Some(ArchReg::new(dst)),
            mem_addr: None,
            taken: None,
            target: None,
            operand_values: [0, 0],
        }
    }

    fn mem(seq: u64, pc: u64, op: OpClass, addr: u64, dst: Option<u8>, src: Option<u8>) -> TraceInst {
        TraceInst {
            seq,
            pc,
            op,
            srcs: [src.map(ArchReg::new), None],
            dst: dst.map(ArchReg::new),
            mem_addr: Some(addr),
            taken: None,
            target: None,
            operand_values: [0, 0],
        }
    }

    #[test]
    fn value_semantics_are_deterministic_and_input_sensitive() {
        let v = value_of(OpClass::IntAlu, 0x1000, 3, 4);
        assert_eq!(v, value_of(OpClass::IntAlu, 0x1000, 3, 4));
        assert_ne!(v, value_of(OpClass::IntAlu, 0x1000, 3, 5));
        assert_ne!(v, value_of(OpClass::IntAlu, 0x1004, 3, 4));
        assert_ne!(v, value_of(OpClass::IntMul, 0x1000, 3, 4));
        assert_eq!(initial_memory_value(64), initial_memory_value(64));
        assert_ne!(initial_memory_value(64), initial_memory_value(72));
    }

    #[test]
    fn golden_model_propagates_through_registers_and_memory() {
        let mut m = GoldenModel::new();
        let v1 = m.step(&alu(0, 0x1000, 1, [None, None])).unwrap();
        assert_eq!(m.regs()[1], v1);
        // r2 = f(r1): depends on the produced value
        let v2 = m.step(&alu(1, 0x1004, 2, [Some(1), None])).unwrap();
        assert_eq!(v2, value_of(OpClass::IntAlu, 0x1004, v1, 0));
        // store r2 to memory, load it back into r3
        assert_eq!(m.step(&mem(2, 0x1008, OpClass::Store, 0x80, None, Some(2))), None);
        let v3 = m.step(&mem(3, 0x100c, OpClass::Load, 0x80, Some(3), None)).unwrap();
        assert_eq!(v3, value_of(OpClass::Store, 0x1008, v2, 0));
        // unwritten memory reads its deterministic initial value
        let v4 = m.step(&mem(4, 0x1010, OpClass::Load, 0x9000, Some(4), None)).unwrap();
        assert_eq!(v4, initial_memory_value(0x9000));
        assert_eq!(m.memory().written_words(), 1);
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let mut m = GoldenModel::new();
        let v = m.step(&alu(0, 0x1000, 0, [None, None]));
        assert!(v.is_some(), "the op still produces a value");
        assert_eq!(m.regs()[0], 0, "r0 stays hard-wired zero");
    }

    #[test]
    fn oracle_is_clean_on_its_own_stream_and_catches_flips() {
        let insts = [
            alu(0, 0x1000, 1, [None, None]),
            alu(1, 0x1004, 2, [Some(1), None]),
            mem(2, 0x1008, OpClass::Store, 0x40, None, Some(2)),
            mem(3, 0x100c, OpClass::Load, 0x40, Some(3), Some(1)),
            alu(4, 0x1010, 4, [Some(3), Some(2)]),
        ];
        // clean: feed the pipeline-equivalent (a second golden machine)
        let mut pipe = GoldenModel::new();
        let mut oracle = Oracle::new();
        for t in &insts {
            let committed = pipe.step(t);
            oracle.observe(t, committed);
        }
        let report = oracle.report(pipe.regs());
        assert!(report.clean(), "{}", report.summary());
        assert_eq!(report.checked, 5);

        // corrupt: flip one committed value and re-check
        let mut pipe = GoldenModel::new();
        let mut oracle = Oracle::new();
        for t in &insts {
            let mut committed = pipe.step(t);
            if t.seq == 1 {
                committed = committed.map(|v| v ^ 0x100);
                // propagate the corruption architecturally, as the real
                // value plane would
                if let (Some(v), Some(d)) = (committed, t.dst) {
                    pipe.regs[d.index() as usize] = v;
                }
            }
            oracle.observe(t, committed);
        }
        let report = oracle.report(pipe.regs());
        assert!(!report.clean());
        assert!(report.value_mismatches >= 1);
        assert!(report.regfile_mismatches >= 1);
        let first = report.first_mismatches[0];
        assert_eq!(first.seq, 1);
        assert_ne!(first.expected, first.got);
        assert!(report.summary().contains("first seq=1"));
        assert!(!report.summary().contains(','), "summary is CSV-safe");
    }
}
