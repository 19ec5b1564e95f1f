//! RV32I(+M) instruction model: decode, encode, disassembly and semantics.
//!
//! The subset covers the integer core the frontend needs: register and
//! immediate ALU ops, the M-extension multiply/divide group, byte/half/word
//! loads and stores, conditional branches, `jal`/`jalr`, `lui`/`auipc` and
//! `ecall` (which this environment defines as *halt*). Every instruction
//! has a full 32-bit encoding and a pure [`Inst::eval`] semantics shared by
//! the standalone architectural executor and the pipeline's value plane, so
//! the two machines can only disagree when real corruption is injected.

use std::fmt;

use crate::inst::OpClass;

/// One RISC-V mnemonic of the supported RV32I+M subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the mnemonics are the documentation
pub enum Op {
    // R-type (opcode 0x33)
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    // M extension (opcode 0x33, funct7 0000001)
    Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu,
    // I-type ALU (opcode 0x13)
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    // Loads (opcode 0x03)
    Lb, Lh, Lw, Lbu, Lhu,
    // Stores (opcode 0x23)
    Sb, Sh, Sw,
    // Conditional branches (opcode 0x63)
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    // Control transfer + upper immediates
    Jal, Jalr, Lui, Auipc,
    // System: halt the program
    Ecall,
}

/// Encoding/operand format of an [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `op rd, rs1, rs2`
    R,
    /// `op rd, rs1, imm12`
    I,
    /// `op rd, rs1, shamt`
    Shift,
    /// `op rd, imm12(rs1)`
    Load,
    /// `op rs2, imm12(rs1)`
    Store,
    /// `op rs1, rs2, offset`
    Branch,
    /// `jal rd, offset`
    Jal,
    /// `jalr rd, rs1, imm12`
    Jalr,
    /// `op rd, imm20`
    Upper,
    /// `ecall`
    Sys,
}

impl Op {
    /// Every supported mnemonic (used by the round-trip property test).
    pub const ALL: [Op; 46] = [
        Op::Add, Op::Sub, Op::Sll, Op::Slt, Op::Sltu, Op::Xor, Op::Srl,
        Op::Sra, Op::Or, Op::And, Op::Mul, Op::Mulh, Op::Mulhsu, Op::Mulhu,
        Op::Div, Op::Divu, Op::Rem, Op::Remu, Op::Addi, Op::Slti, Op::Sltiu,
        Op::Xori, Op::Ori, Op::Andi, Op::Slli, Op::Srli, Op::Srai, Op::Lb,
        Op::Lh, Op::Lw, Op::Lbu, Op::Lhu, Op::Sb, Op::Sh, Op::Sw, Op::Beq,
        Op::Bne, Op::Blt, Op::Bge, Op::Bltu, Op::Bgeu, Op::Jal, Op::Jalr,
        Op::Lui, Op::Auipc, Op::Ecall,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "add", Op::Sub => "sub", Op::Sll => "sll",
            Op::Slt => "slt", Op::Sltu => "sltu", Op::Xor => "xor",
            Op::Srl => "srl", Op::Sra => "sra", Op::Or => "or",
            Op::And => "and", Op::Mul => "mul", Op::Mulh => "mulh",
            Op::Mulhsu => "mulhsu", Op::Mulhu => "mulhu", Op::Div => "div",
            Op::Divu => "divu", Op::Rem => "rem", Op::Remu => "remu",
            Op::Addi => "addi", Op::Slti => "slti", Op::Sltiu => "sltiu",
            Op::Xori => "xori", Op::Ori => "ori", Op::Andi => "andi",
            Op::Slli => "slli", Op::Srli => "srli", Op::Srai => "srai",
            Op::Lb => "lb", Op::Lh => "lh", Op::Lw => "lw", Op::Lbu => "lbu",
            Op::Lhu => "lhu", Op::Sb => "sb", Op::Sh => "sh", Op::Sw => "sw",
            Op::Beq => "beq", Op::Bne => "bne", Op::Blt => "blt",
            Op::Bge => "bge", Op::Bltu => "bltu", Op::Bgeu => "bgeu",
            Op::Jal => "jal", Op::Jalr => "jalr", Op::Lui => "lui",
            Op::Auipc => "auipc", Op::Ecall => "ecall",
        }
    }

    /// Operand/encoding format.
    pub fn format(self) -> Format {
        use Op::*;
        match self {
            Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Mul
            | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu => Format::R,
            Addi | Slti | Sltiu | Xori | Ori | Andi => Format::I,
            Slli | Srli | Srai => Format::Shift,
            Lb | Lh | Lw | Lbu | Lhu => Format::Load,
            Sb | Sh | Sw => Format::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => Format::Branch,
            Jal => Format::Jal,
            Jalr => Format::Jalr,
            Lui | Auipc => Format::Upper,
            Ecall => Format::Sys,
        }
    }

    /// The pipeline operation class this mnemonic maps onto.
    pub fn op_class(self) -> OpClass {
        use Op::*;
        match self {
            Mul | Mulh | Mulhsu | Mulhu => OpClass::IntMul,
            Div | Divu | Rem | Remu => OpClass::IntDiv,
            Lb | Lh | Lw | Lbu | Lhu => OpClass::Load,
            Sb | Sh | Sw => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => OpClass::CondBranch,
            Jal | Jalr => OpClass::Jump,
            // `ecall` retires on a simple-ALU lane like a no-op.
            _ => OpClass::IntAlu,
        }
    }

    /// Whether the instruction reads `rs1`.
    pub fn uses_rs1(self) -> bool {
        !matches!(self.format(), Format::Jal | Format::Upper | Format::Sys)
    }

    /// Whether the instruction reads `rs2`.
    pub fn uses_rs2(self) -> bool {
        matches!(self.format(), Format::R | Format::Store | Format::Branch)
    }

    /// Whether the instruction writes `rd`.
    pub fn writes_rd(self) -> bool {
        !matches!(
            self.format(),
            Format::Store | Format::Branch | Format::Sys
        )
    }
}

/// Memory access width of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemWidth {
    /// 8-bit access (`lb`/`lbu`/`sb`).
    Byte,
    /// 16-bit access (`lh`/`lhu`/`sh`).
    Half,
    /// 32-bit access (`lw`/`sw`).
    Word,
}

/// The word-aligned address containing `addr` (memory is kept as a sparse
/// map of 32-bit words; sub-word accesses read-modify-write their word).
pub fn word_addr(addr: u32) -> u32 {
    addr & !3
}

/// Byte shift of a sub-word access within its 32-bit word. Half accesses
/// ignore bit 0 and byte accesses use both low bits, so a misaligned
/// address wraps deterministically instead of trapping — both machines
/// share this function, so they stay bit-identical either way.
fn sub_shift(addr: u32, width: MemWidth) -> u32 {
    match width {
        MemWidth::Byte => (addr & 3) * 8,
        MemWidth::Half => (addr & 2) * 8,
        MemWidth::Word => 0,
    }
}

/// Extracts a load result from the 32-bit `word` holding it.
pub fn load_from_word(word: u32, addr: u32, width: MemWidth, signed: bool) -> u32 {
    let shift = sub_shift(addr, width);
    match (width, signed) {
        (MemWidth::Byte, false) => (word >> shift) & 0xff,
        (MemWidth::Byte, true) => ((word >> shift) & 0xff) as u8 as i8 as i32 as u32,
        (MemWidth::Half, false) => (word >> shift) & 0xffff,
        (MemWidth::Half, true) => ((word >> shift) & 0xffff) as u16 as i16 as i32 as u32,
        (MemWidth::Word, _) => word,
    }
}

/// Merges a store's `data` into the 32-bit `word` it lands in.
pub fn store_into_word(word: u32, addr: u32, width: MemWidth, data: u32) -> u32 {
    let shift = sub_shift(addr, width);
    match width {
        MemWidth::Byte => (word & !(0xff << shift)) | ((data & 0xff) << shift),
        MemWidth::Half => (word & !(0xffff << shift)) | ((data & 0xffff) << shift),
        MemWidth::Word => data,
    }
}

/// The architectural effect of one instruction, given its operand values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `rd` receives this value.
    Alu(u32),
    /// Load from `addr`; `rd` receives the extracted value.
    Load {
        /// Effective byte address.
        addr: u32,
        /// Access width.
        width: MemWidth,
        /// Sign-extend the loaded value.
        signed: bool,
    },
    /// Store `data` at `addr`.
    Store {
        /// Effective byte address.
        addr: u32,
        /// Access width.
        width: MemWidth,
        /// Value to store (low `width` bits significant).
        data: u32,
    },
    /// Conditional branch outcome.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
        /// Target PC when taken.
        target: u32,
    },
    /// Unconditional jump; `rd` receives `link`.
    Jump {
        /// Resolved target PC.
        target: u32,
        /// Return address (`pc + 4`).
        link: u32,
    },
    /// `ecall`: halt the program.
    Halt,
}

/// One decoded instruction.
///
/// `imm` is the sign-extended immediate; for `lui`/`auipc` it holds the raw
/// 20-bit field (`0..0x100000`), for shifts the 5-bit shift amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Mnemonic.
    pub op: Op,
    /// Destination register index (0 when unused).
    pub rd: u8,
    /// First source register index (0 when unused).
    pub rs1: u8,
    /// Second source register index (0 when unused).
    pub rs2: u8,
    /// Immediate (see type docs for per-format conventions).
    pub imm: i32,
}

/// Why a 32-bit word failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {:#010x} in the RV32I+M subset", self.word)
    }
}

impl std::error::Error for DecodeError {}

impl Inst {
    /// A canonical `nop` (`addi x0, x0, 0`).
    pub fn nop() -> Inst {
        Inst { op: Op::Addi, rd: 0, rs1: 0, rs2: 0, imm: 0 }
    }

    /// Encodes to the standard 32-bit RISC-V word.
    pub fn encode(&self) -> u32 {
        let rd = u32::from(self.rd) << 7;
        let rs1 = u32::from(self.rs1) << 15;
        let rs2 = u32::from(self.rs2) << 20;
        let f3 = |f: u32| f << 12;
        let f7 = |f: u32| f << 25;
        use Op::*;
        let (opcode, funct3, funct7) = match self.op {
            Add => (0x33, 0, 0), Sub => (0x33, 0, 0x20), Sll => (0x33, 1, 0),
            Slt => (0x33, 2, 0), Sltu => (0x33, 3, 0), Xor => (0x33, 4, 0),
            Srl => (0x33, 5, 0), Sra => (0x33, 5, 0x20), Or => (0x33, 6, 0),
            And => (0x33, 7, 0),
            Mul => (0x33, 0, 1), Mulh => (0x33, 1, 1), Mulhsu => (0x33, 2, 1),
            Mulhu => (0x33, 3, 1), Div => (0x33, 4, 1), Divu => (0x33, 5, 1),
            Rem => (0x33, 6, 1), Remu => (0x33, 7, 1),
            Addi => (0x13, 0, 0), Slti => (0x13, 2, 0), Sltiu => (0x13, 3, 0),
            Xori => (0x13, 4, 0), Ori => (0x13, 6, 0), Andi => (0x13, 7, 0),
            Slli => (0x13, 1, 0), Srli => (0x13, 5, 0), Srai => (0x13, 5, 0x20),
            Lb => (0x03, 0, 0), Lh => (0x03, 1, 0), Lw => (0x03, 2, 0),
            Lbu => (0x03, 4, 0), Lhu => (0x03, 5, 0),
            Sb => (0x23, 0, 0), Sh => (0x23, 1, 0), Sw => (0x23, 2, 0),
            Beq => (0x63, 0, 0), Bne => (0x63, 1, 0), Blt => (0x63, 4, 0),
            Bge => (0x63, 5, 0), Bltu => (0x63, 6, 0), Bgeu => (0x63, 7, 0),
            Jal => (0x6f, 0, 0), Jalr => (0x67, 0, 0),
            Lui => (0x37, 0, 0), Auipc => (0x17, 0, 0),
            Ecall => (0x73, 0, 0),
        };
        let imm = self.imm as u32;
        match self.op.format() {
            Format::R => opcode | rd | f3(funct3) | rs1 | rs2 | f7(funct7),
            Format::I | Format::Load | Format::Jalr => {
                opcode | rd | f3(funct3) | rs1 | (imm & 0xfff) << 20
            }
            Format::Shift => {
                opcode | rd | f3(funct3) | rs1 | (imm & 0x1f) << 20 | f7(funct7)
            }
            Format::Store => {
                opcode
                    | f3(funct3)
                    | rs1
                    | rs2
                    | (imm & 0x1f) << 7
                    | ((imm >> 5) & 0x7f) << 25
            }
            Format::Branch => {
                opcode
                    | f3(funct3)
                    | rs1
                    | rs2
                    | ((imm >> 11) & 1) << 7
                    | ((imm >> 1) & 0xf) << 8
                    | ((imm >> 5) & 0x3f) << 25
                    | ((imm >> 12) & 1) << 31
            }
            Format::Jal => {
                opcode
                    | rd
                    | ((imm >> 12) & 0xff) << 12
                    | ((imm >> 11) & 1) << 20
                    | ((imm >> 1) & 0x3ff) << 21
                    | ((imm >> 20) & 1) << 31
            }
            Format::Upper => opcode | rd | (imm & 0xfffff) << 12,
            Format::Sys => opcode,
        }
    }

    /// Decodes a standard 32-bit RISC-V word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the word is not a valid instruction of
    /// the supported subset.
    pub fn decode(word: u32) -> Result<Inst, DecodeError> {
        let err = Err(DecodeError { word });
        let opcode = word & 0x7f;
        let rd = ((word >> 7) & 0x1f) as u8;
        let funct3 = (word >> 12) & 7;
        let rs1 = ((word >> 15) & 0x1f) as u8;
        let rs2 = ((word >> 20) & 0x1f) as u8;
        let funct7 = word >> 25;
        let imm_i = (word as i32) >> 20;
        use Op::*;
        let (op, rd, rs1, rs2, imm) = match opcode {
            0x33 => {
                let op = match (funct7, funct3) {
                    (0, 0) => Add, (0x20, 0) => Sub, (0, 1) => Sll,
                    (0, 2) => Slt, (0, 3) => Sltu, (0, 4) => Xor,
                    (0, 5) => Srl, (0x20, 5) => Sra, (0, 6) => Or,
                    (0, 7) => And,
                    (1, 0) => Mul, (1, 1) => Mulh, (1, 2) => Mulhsu,
                    (1, 3) => Mulhu, (1, 4) => Div, (1, 5) => Divu,
                    (1, 6) => Rem, (1, 7) => Remu,
                    _ => return err,
                };
                (op, rd, rs1, rs2, 0)
            }
            0x13 => match funct3 {
                1 | 5 => {
                    let op = match (funct3, funct7) {
                        (1, 0) => Slli,
                        (5, 0) => Srli,
                        (5, 0x20) => Srai,
                        _ => return err,
                    };
                    (op, rd, rs1, 0, (rs2 as i32))
                }
                _ => {
                    let op = match funct3 {
                        0 => Addi, 2 => Slti, 3 => Sltiu,
                        4 => Xori, 6 => Ori, 7 => Andi,
                        _ => return err,
                    };
                    (op, rd, rs1, 0, imm_i)
                }
            },
            0x03 => {
                let op = match funct3 {
                    0 => Lb, 1 => Lh, 2 => Lw, 4 => Lbu, 5 => Lhu,
                    _ => return err,
                };
                (op, rd, rs1, 0, imm_i)
            }
            0x23 => {
                let op = match funct3 {
                    0 => Sb, 1 => Sh, 2 => Sw,
                    _ => return err,
                };
                let imm = ((word as i32) >> 25 << 5) | ((word >> 7) & 0x1f) as i32;
                (op, 0, rs1, rs2, imm)
            }
            0x63 => {
                let op = match funct3 {
                    0 => Beq, 1 => Bne, 4 => Blt, 5 => Bge, 6 => Bltu,
                    7 => Bgeu,
                    _ => return err,
                };
                let imm = ((word as i32) >> 31 << 12)
                    | (((word >> 7) & 1) << 11) as i32
                    | (((word >> 25) & 0x3f) << 5) as i32
                    | (((word >> 8) & 0xf) << 1) as i32;
                (op, 0, rs1, rs2, imm)
            }
            0x6f => {
                let imm = ((word as i32) >> 31 << 20)
                    | (((word >> 12) & 0xff) << 12) as i32
                    | (((word >> 20) & 1) << 11) as i32
                    | (((word >> 21) & 0x3ff) << 1) as i32;
                (Jal, rd, 0, 0, imm)
            }
            0x67 if funct3 == 0 => (Jalr, rd, rs1, 0, imm_i),
            0x37 => (Lui, rd, 0, 0, ((word >> 12) & 0xfffff) as i32),
            0x17 => (Auipc, rd, 0, 0, ((word >> 12) & 0xfffff) as i32),
            0x73 if word == 0x73 => (Ecall, 0, 0, 0, 0),
            _ => return err,
        };
        Ok(Inst { op, rd, rs1, rs2, imm })
    }

    /// Evaluates the instruction's architectural effect. Pure: given the
    /// same `(pc, rs1, rs2)` inputs it always yields the same [`Action`].
    pub fn eval(&self, pc: u32, rs1: u32, rs2: u32) -> Action {
        let imm = self.imm as u32;
        let simm = self.imm;
        use Op::*;
        let alu = |v: u32| Action::Alu(v);
        match self.op {
            Add => alu(rs1.wrapping_add(rs2)),
            Sub => alu(rs1.wrapping_sub(rs2)),
            Sll => alu(rs1 << (rs2 & 31)),
            Slt => alu(((rs1 as i32) < (rs2 as i32)) as u32),
            Sltu => alu((rs1 < rs2) as u32),
            Xor => alu(rs1 ^ rs2),
            Srl => alu(rs1 >> (rs2 & 31)),
            Sra => alu(((rs1 as i32) >> (rs2 & 31)) as u32),
            Or => alu(rs1 | rs2),
            And => alu(rs1 & rs2),
            Mul => alu(rs1.wrapping_mul(rs2)),
            Mulh => alu(((i64::from(rs1 as i32) * i64::from(rs2 as i32)) >> 32) as u32),
            Mulhsu => alu(((i64::from(rs1 as i32)).wrapping_mul(rs2 as i64) >> 32) as u32),
            Mulhu => alu(((u64::from(rs1) * u64::from(rs2)) >> 32) as u32),
            Div => alu(match (rs1 as i32, rs2 as i32) {
                (_, 0) => u32::MAX,
                (i32::MIN, -1) => i32::MIN as u32,
                (a, b) => (a / b) as u32,
            }),
            Divu => alu(if rs2 == 0 { u32::MAX } else { rs1 / rs2 }),
            Rem => alu(match (rs1 as i32, rs2 as i32) {
                (a, 0) => a as u32,
                (i32::MIN, -1) => 0,
                (a, b) => (a % b) as u32,
            }),
            Remu => alu(if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Addi => alu(rs1.wrapping_add(imm)),
            Slti => alu(((rs1 as i32) < simm) as u32),
            Sltiu => alu((rs1 < imm) as u32),
            Xori => alu(rs1 ^ imm),
            Ori => alu(rs1 | imm),
            Andi => alu(rs1 & imm),
            Slli => alu(rs1 << (imm & 31)),
            Srli => alu(rs1 >> (imm & 31)),
            Srai => alu(((rs1 as i32) >> (imm & 31)) as u32),
            Lui => alu(imm << 12),
            Auipc => alu(pc.wrapping_add(imm << 12)),
            Lb => self.load(rs1, MemWidth::Byte, true),
            Lh => self.load(rs1, MemWidth::Half, true),
            Lw => self.load(rs1, MemWidth::Word, false),
            Lbu => self.load(rs1, MemWidth::Byte, false),
            Lhu => self.load(rs1, MemWidth::Half, false),
            Sb => self.store(rs1, rs2, MemWidth::Byte),
            Sh => self.store(rs1, rs2, MemWidth::Half),
            Sw => self.store(rs1, rs2, MemWidth::Word),
            Beq => self.branch(pc, rs1 == rs2),
            Bne => self.branch(pc, rs1 != rs2),
            Blt => self.branch(pc, (rs1 as i32) < (rs2 as i32)),
            Bge => self.branch(pc, (rs1 as i32) >= (rs2 as i32)),
            Bltu => self.branch(pc, rs1 < rs2),
            Bgeu => self.branch(pc, rs1 >= rs2),
            Jal => Action::Jump {
                target: pc.wrapping_add(imm),
                link: pc.wrapping_add(4),
            },
            Jalr => Action::Jump {
                target: rs1.wrapping_add(imm) & !1,
                link: pc.wrapping_add(4),
            },
            Ecall => Action::Halt,
        }
    }

    fn branch(&self, pc: u32, taken: bool) -> Action {
        Action::Branch {
            taken,
            target: pc.wrapping_add(self.imm as u32),
        }
    }

    fn load(&self, rs1: u32, width: MemWidth, signed: bool) -> Action {
        Action::Load {
            addr: rs1.wrapping_add(self.imm as u32),
            width,
            signed,
        }
    }

    fn store(&self, rs1: u32, rs2: u32, width: MemWidth) -> Action {
        Action::Store {
            addr: rs1.wrapping_add(self.imm as u32),
            width,
            data: rs2,
        }
    }
}

impl fmt::Display for Inst {
    /// Canonical disassembly, re-parsable by the assembler (branch and
    /// jump offsets print as numeric byte offsets).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        let (rd, rs1, rs2, imm) = (self.rd, self.rs1, self.rs2, self.imm);
        match self.op.format() {
            Format::R => write!(f, "{m} x{rd}, x{rs1}, x{rs2}"),
            Format::I | Format::Shift => write!(f, "{m} x{rd}, x{rs1}, {imm}"),
            Format::Load => write!(f, "{m} x{rd}, {imm}(x{rs1})"),
            Format::Store => write!(f, "{m} x{rs2}, {imm}(x{rs1})"),
            Format::Branch => write!(f, "{m} x{rs1}, x{rs2}, {imm}"),
            Format::Jal => write!(f, "{m} x{rd}, {imm}"),
            Format::Jalr => write!(f, "{m} x{rd}, x{rs1}, {imm}"),
            Format::Upper => write!(f, "{m} x{rd}, {imm}"),
            Format::Sys => f.write_str(m),
        }
    }
}

/// A decoded program: a base PC plus a dense instruction sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiscvProgram {
    base: u32,
    insts: Vec<Inst>,
}

impl RiscvProgram {
    /// Wraps decoded instructions at `base` (must be 4-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics on a misaligned base.
    pub fn new(base: u32, insts: Vec<Inst>) -> Self {
        assert_eq!(base % 4, 0, "program base must be word-aligned");
        RiscvProgram { base, insts }
    }

    /// First instruction's PC.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The decoded instructions in PC order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The static instruction at `pc`, if the PC lies inside the program.
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        let pc = u32::try_from(pc).ok()?;
        if pc < self.base || pc % 4 != 0 {
            return None;
        }
        self.insts.get(((pc - self.base) / 4) as usize)
    }

    /// The 32-bit encoding of every instruction.
    pub fn encode_words(&self) -> Vec<u32> {
        self.insts.iter().map(Inst::encode).collect()
    }

    /// Decodes a word image back into a program.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`].
    pub fn decode_words(base: u32, words: &[u32]) -> Result<Self, DecodeError> {
        let insts = words
            .iter()
            .map(|&w| Inst::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(base, insts))
    }

    /// Canonical disassembly listing, one instruction per line.
    pub fn disassemble(&self) -> String {
        self.insts
            .iter()
            .map(|i| format!("{i}\n"))
            .collect()
    }
}
