//! Binary encoding of SpecRISC instructions and programs.
//!
//! A compact variable-length wire format: one opcode byte, then operands.
//! Register fields are one byte; immediates/offsets/targets are LEB128-
//! style varints. [`encode_program`]/[`decode_program`] serialize a whole
//! [`Program`] including data initializers, the fault handler and the MSR
//! file, so attack PoCs and generated workloads can be stored and shipped.
//!
//! ```
//! use nda_isa::{Asm, Reg};
//! use nda_isa::encode::{decode_program, encode_program};
//!
//! let mut asm = Asm::new();
//! asm.li(Reg::X2, 42).halt();
//! let prog = asm.assemble()?;
//! let bytes = encode_program(&prog);
//! let back = decode_program(&bytes)?;
//! assert_eq!(prog, back);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::inst::{AluOp, BranchCond, Inst, MemSize, Src2};
use crate::program::{DataInit, Program};
use crate::reg::Reg;
use std::error::Error;
use std::fmt;

/// Magic bytes identifying an encoded program.
pub const MAGIC: [u8; 4] = *b"SRS1";

/// Errors from [`decode`]/[`decode_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside an instruction or header.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Register byte out of range.
    BadRegister(u8),
    /// Sub-opcode (ALU op, condition, size) out of range.
    BadSubcode(u8),
    /// Program header magic mismatch.
    BadMagic,
    /// A delta-encoded code-pointer list sums past `u64::MAX`.
    AddressOverflow,
    /// A varint does not fit its field: an MSR index past `u16`, or an
    /// instruction index, count or length past `usize`.
    OutOfRange {
        /// The field being decoded.
        field: &'static str,
        /// The value the varint encodes.
        value: u64,
    },
    /// A varint that is not the shortest encoding of a 64-bit value: it
    /// sets bits past bit 63, or ends in a zero byte that pads a shorter
    /// form (`80 00` for 0).
    NonCanonicalVarint {
        /// Byte offset of the varint's first byte.
        at: usize,
    },
    /// A fault-handler presence byte other than 0 (none) or 1 (present).
    BadHandlerFlag(u8),
    /// A section count larger than the bytes left could hold, each
    /// element at its smallest encoding.
    CountPastInput {
        /// The count being decoded.
        field: &'static str,
        /// The count the varint encodes.
        count: u64,
        /// Bytes left after the count.
        left: usize,
    },
    /// Bytes after the last section.
    TrailingBytes {
        /// Byte offset of the first byte past the program.
        at: usize,
        /// How many bytes follow it.
        len: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            DecodeError::BadRegister(b) => write!(f, "register {b} out of range"),
            DecodeError::BadSubcode(b) => write!(f, "sub-opcode {b} out of range"),
            DecodeError::BadMagic => write!(f, "bad program magic"),
            DecodeError::AddressOverflow => write!(f, "code-pointer address overflows 64 bits"),
            DecodeError::OutOfRange { field, value } => write!(f, "{field} {value} out of range"),
            DecodeError::NonCanonicalVarint { at } => {
                write!(f, "non-canonical varint at byte {at}")
            }
            DecodeError::BadHandlerFlag(b) => {
                write!(f, "fault-handler flag {b} is neither 0 nor 1")
            }
            DecodeError::CountPastInput { field, count, left } => {
                write!(f, "{field} {count} exceeds the {left} bytes left")
            }
            DecodeError::TrailingBytes { at, len } => {
                write!(f, "trailing bytes after the program: {len} from byte {at}")
            }
        }
    }
}

impl Error for DecodeError {}

// Opcode space.
const OP_LI: u8 = 0x01;
const OP_ALU_RR: u8 = 0x02;
const OP_ALU_RI: u8 = 0x03;
const OP_LOAD: u8 = 0x04;
const OP_STORE: u8 = 0x05;
const OP_BRANCH: u8 = 0x06;
const OP_JMP: u8 = 0x07;
const OP_JMP_IND: u8 = 0x08;
const OP_CALL: u8 = 0x09;
const OP_CALL_IND: u8 = 0x0A;
const OP_RET: u8 = 0x0B;
const OP_RDCYCLE: u8 = 0x0C;
const OP_RDMSR: u8 = 0x0D;
const OP_CLFLUSH: u8 = 0x0E;
const OP_FENCE: u8 = 0x0F;
const OP_NOP: u8 = 0x10;
const OP_HALT: u8 = 0x11;
const OP_SPEC_OFF: u8 = 0x12;
const OP_SPEC_ON: u8 = 0x13;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A canonical varint: the shortest encoding of a 64-bit value, so every
/// accepted varint re-encodes to the bytes it came from.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let at = *pos;
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        // A tenth byte holds bit 63 alone; a zero byte past the first
        // pads a shorter form.
        if (shift == 63 && byte > 1) || (shift > 0 && byte == 0) {
            return Err(DecodeError::NonCanonicalVarint { at });
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A varint narrowed to its field's type, refused if it does not fit.
fn get_field<T: TryFrom<u64>>(
    buf: &[u8],
    pos: &mut usize,
    field: &'static str,
) -> Result<T, DecodeError> {
    let value = get_varint(buf, pos)?;
    T::try_from(value).map_err(|_| DecodeError::OutOfRange { field, value })
}

/// ZigZag for signed offsets.
fn put_svarint(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn get_svarint(buf: &[u8], pos: &mut usize) -> Result<i64, DecodeError> {
    let z = get_varint(buf, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

fn put_reg(out: &mut Vec<u8>, r: Reg) {
    out.push(r.index() as u8);
}

fn get_reg(buf: &[u8], pos: &mut usize) -> Result<Reg, DecodeError> {
    let b = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    if (b as usize) < crate::reg::NUM_REGS {
        Ok(Reg::from_index(b as usize))
    } else {
        Err(DecodeError::BadRegister(b))
    }
}

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Shl => 5,
        AluOp::Shr => 6,
        AluOp::Sar => 7,
        AluOp::Mul => 8,
        AluOp::Div => 9,
        AluOp::Rem => 10,
        AluOp::Slt => 11,
        AluOp::Sltu => 12,
    }
}

fn alu_from(code: u8) -> Result<AluOp, DecodeError> {
    Ok(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Shl,
        6 => AluOp::Shr,
        7 => AluOp::Sar,
        8 => AluOp::Mul,
        9 => AluOp::Div,
        10 => AluOp::Rem,
        11 => AluOp::Slt,
        12 => AluOp::Sltu,
        other => return Err(DecodeError::BadSubcode(other)),
    })
}

fn cond_code(c: BranchCond) -> u8 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
        BranchCond::Ltu => 4,
        BranchCond::Geu => 5,
    }
}

fn cond_from(code: u8) -> Result<BranchCond, DecodeError> {
    Ok(match code {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Ltu,
        5 => BranchCond::Geu,
        other => return Err(DecodeError::BadSubcode(other)),
    })
}

fn size_code(s: MemSize) -> u8 {
    match s {
        MemSize::B1 => 0,
        MemSize::B2 => 1,
        MemSize::B4 => 2,
        MemSize::B8 => 3,
    }
}

fn size_from(code: u8) -> Result<MemSize, DecodeError> {
    Ok(match code {
        0 => MemSize::B1,
        1 => MemSize::B2,
        2 => MemSize::B4,
        3 => MemSize::B8,
        other => return Err(DecodeError::BadSubcode(other)),
    })
}

/// Append the encoding of one instruction.
pub fn encode(inst: Inst, out: &mut Vec<u8>) {
    match inst {
        Inst::Li { rd, imm } => {
            out.push(OP_LI);
            put_reg(out, rd);
            put_varint(out, imm);
        }
        Inst::Alu { op, rd, rs1, src2 } => match src2 {
            Src2::Reg(rs2) => {
                out.push(OP_ALU_RR);
                out.push(alu_code(op));
                put_reg(out, rd);
                put_reg(out, rs1);
                put_reg(out, rs2);
            }
            Src2::Imm(imm) => {
                out.push(OP_ALU_RI);
                out.push(alu_code(op));
                put_reg(out, rd);
                put_reg(out, rs1);
                put_varint(out, imm);
            }
        },
        Inst::Load {
            rd,
            base,
            off,
            size,
        } => {
            out.push(OP_LOAD);
            out.push(size_code(size));
            put_reg(out, rd);
            put_reg(out, base);
            put_svarint(out, off);
        }
        Inst::Store {
            src,
            base,
            off,
            size,
        } => {
            out.push(OP_STORE);
            out.push(size_code(size));
            put_reg(out, src);
            put_reg(out, base);
            put_svarint(out, off);
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            out.push(OP_BRANCH);
            out.push(cond_code(cond));
            put_reg(out, rs1);
            put_reg(out, rs2);
            put_varint(out, target as u64);
        }
        Inst::Jmp { target } => {
            out.push(OP_JMP);
            put_varint(out, target as u64);
        }
        Inst::JmpInd { base } => {
            out.push(OP_JMP_IND);
            put_reg(out, base);
        }
        Inst::Call { target } => {
            out.push(OP_CALL);
            put_varint(out, target as u64);
        }
        Inst::CallInd { base } => {
            out.push(OP_CALL_IND);
            put_reg(out, base);
        }
        Inst::Ret => out.push(OP_RET),
        Inst::RdCycle { rd } => {
            out.push(OP_RDCYCLE);
            put_reg(out, rd);
        }
        Inst::RdMsr { rd, idx } => {
            out.push(OP_RDMSR);
            put_reg(out, rd);
            put_varint(out, idx as u64);
        }
        Inst::ClFlush { base, off } => {
            out.push(OP_CLFLUSH);
            put_reg(out, base);
            put_svarint(out, off);
        }
        Inst::Fence => out.push(OP_FENCE),
        Inst::Nop => out.push(OP_NOP),
        Inst::Halt => out.push(OP_HALT),
        Inst::SpecOff => out.push(OP_SPEC_OFF),
        Inst::SpecOn => out.push(OP_SPEC_ON),
    }
}

/// Decode one instruction starting at `pos`, advancing it.
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Inst, DecodeError> {
    let op = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    let sub = |pos: &mut usize| -> Result<u8, DecodeError> {
        let b = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        Ok(b)
    };
    Ok(match op {
        OP_LI => Inst::Li {
            rd: get_reg(buf, pos)?,
            imm: get_varint(buf, pos)?,
        },
        OP_ALU_RR => {
            let o = alu_from(sub(pos)?)?;
            Inst::Alu {
                op: o,
                rd: get_reg(buf, pos)?,
                rs1: get_reg(buf, pos)?,
                src2: Src2::Reg(get_reg(buf, pos)?),
            }
        }
        OP_ALU_RI => {
            let o = alu_from(sub(pos)?)?;
            Inst::Alu {
                op: o,
                rd: get_reg(buf, pos)?,
                rs1: get_reg(buf, pos)?,
                src2: Src2::Imm(get_varint(buf, pos)?),
            }
        }
        OP_LOAD => {
            let size = size_from(sub(pos)?)?;
            Inst::Load {
                rd: get_reg(buf, pos)?,
                base: get_reg(buf, pos)?,
                off: get_svarint(buf, pos)?,
                size,
            }
        }
        OP_STORE => {
            let size = size_from(sub(pos)?)?;
            Inst::Store {
                src: get_reg(buf, pos)?,
                base: get_reg(buf, pos)?,
                off: get_svarint(buf, pos)?,
                size,
            }
        }
        OP_BRANCH => {
            let cond = cond_from(sub(pos)?)?;
            Inst::Branch {
                cond,
                rs1: get_reg(buf, pos)?,
                rs2: get_reg(buf, pos)?,
                target: get_field(buf, pos, "branch target")?,
            }
        }
        OP_JMP => Inst::Jmp {
            target: get_field(buf, pos, "jump target")?,
        },
        OP_JMP_IND => Inst::JmpInd {
            base: get_reg(buf, pos)?,
        },
        OP_CALL => Inst::Call {
            target: get_field(buf, pos, "call target")?,
        },
        OP_CALL_IND => Inst::CallInd {
            base: get_reg(buf, pos)?,
        },
        OP_RET => Inst::Ret,
        OP_RDCYCLE => Inst::RdCycle {
            rd: get_reg(buf, pos)?,
        },
        OP_RDMSR => Inst::RdMsr {
            rd: get_reg(buf, pos)?,
            idx: get_field(buf, pos, "msr index")?,
        },
        OP_CLFLUSH => Inst::ClFlush {
            base: get_reg(buf, pos)?,
            off: get_svarint(buf, pos)?,
        },
        OP_FENCE => Inst::Fence,
        OP_NOP => Inst::Nop,
        OP_HALT => Inst::Halt,
        OP_SPEC_OFF => Inst::SpecOff,
        OP_SPEC_ON => Inst::SpecOn,
        other => return Err(DecodeError::BadOpcode(other)),
    })
}

/// Serialize a whole program (header, text, data, environment).
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, p.entry as u64);
    put_varint(&mut out, p.text_base);
    match p.fault_handler {
        Some(h) => {
            out.push(1);
            put_varint(&mut out, h as u64);
        }
        None => out.push(0),
    }
    put_varint(&mut out, p.insts.len() as u64);
    for &i in &p.insts {
        encode(i, &mut out);
    }
    put_varint(&mut out, p.data.len() as u64);
    for d in &p.data {
        put_varint(&mut out, d.addr);
        put_varint(&mut out, d.bytes.len() as u64);
        out.extend_from_slice(&d.bytes);
    }
    put_varint(&mut out, p.msr_values.len() as u64);
    for &(idx, v) in &p.msr_values {
        put_varint(&mut out, idx as u64);
        put_varint(&mut out, v);
    }
    put_varint(&mut out, p.msr_user_ok.len() as u64);
    for &idx in &p.msr_user_ok {
        put_varint(&mut out, idx as u64);
    }
    // Code-pointer provenance section (delta-encoded, strictly
    // increasing): which `Li` immediates are instruction indices.
    put_varint(&mut out, p.code_ptr_lis.len() as u64);
    let mut prev = 0u64;
    for &pc in &p.code_ptr_lis {
        put_varint(&mut out, pc as u64 - prev);
        prev = pc as u64;
    }
    // Data-segment code-pointer provenance (delta-encoded, strictly
    // increasing byte addresses): which 8-byte data words hold
    // instruction indices. Trailing section — absent in files written by
    // older encoders, which the decoder treats as empty.
    put_varint(&mut out, p.code_ptr_words.len() as u64);
    let mut prev = 0u64;
    for &addr in &p.code_ptr_words {
        put_varint(&mut out, addr - prev);
        prev = addr;
    }
    out
}

/// A section's element count, refused if the bytes left could not hold
/// that many elements of at least `min_size` bytes each.
fn get_count(
    buf: &[u8],
    pos: &mut usize,
    field: &'static str,
    min_size: usize,
) -> Result<usize, DecodeError> {
    let count = get_varint(buf, pos)?;
    let left = buf.len() - *pos;
    match usize::try_from(count) {
        Ok(n) if n <= left / min_size => Ok(n),
        _ => Err(DecodeError::CountPastInput { field, count, left }),
    }
}

/// The next entry of a delta-encoded list: `prev` plus the delta at `pos`.
fn next_address(prev: u64, buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    prev.checked_add(get_varint(buf, pos)?)
        .ok_or(DecodeError::AddressOverflow)
}

/// Deserialize a program produced by [`encode_program`].
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode_program(buf: &[u8]) -> Result<Program, DecodeError> {
    if buf.len() < 4 || buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut pos = 4;
    let entry = get_field(buf, &mut pos, "entry")?;
    let text_base = get_varint(buf, &mut pos)?;
    let has_handler = *buf.get(pos).ok_or(DecodeError::Truncated)?;
    pos += 1;
    let fault_handler = match has_handler {
        0 => None,
        1 => Some(get_field(buf, &mut pos, "fault handler")?),
        b => return Err(DecodeError::BadHandlerFlag(b)),
    };
    // Every count is checked against the bytes left, with each element's
    // smallest encoding, before anything is reserved for it.
    let n = get_count(buf, &mut pos, "instruction count", 1)?;
    let mut insts = Vec::with_capacity(n);
    for _ in 0..n {
        insts.push(decode(buf, &mut pos)?);
    }
    // A data initializer is at least an address and a length.
    let nd = get_count(buf, &mut pos, "data count", 2)?;
    let mut data = Vec::with_capacity(nd);
    for _ in 0..nd {
        let addr = get_varint(buf, &mut pos)?;
        let len: usize = get_field(buf, &mut pos, "data length")?;
        let end = pos.checked_add(len).ok_or(DecodeError::Truncated)?;
        let bytes = buf.get(pos..end).ok_or(DecodeError::Truncated)?.to_vec();
        pos = end;
        data.push(DataInit { addr, bytes });
    }
    let nm = get_count(buf, &mut pos, "msr value count", 2)?;
    let mut msr_values = Vec::with_capacity(nm);
    for _ in 0..nm {
        let idx = get_field(buf, &mut pos, "msr index")?;
        let v = get_varint(buf, &mut pos)?;
        msr_values.push((idx, v));
    }
    let no = get_count(buf, &mut pos, "msr user-ok count", 1)?;
    let mut msr_user_ok = Vec::with_capacity(no);
    for _ in 0..no {
        msr_user_ok.push(get_field(buf, &mut pos, "msr index")?);
    }
    let nc = get_count(buf, &mut pos, "code-pointer count", 1)?;
    let mut code_ptr_lis = Vec::with_capacity(nc);
    let mut prev = 0u64;
    for _ in 0..nc {
        prev = next_address(prev, buf, &mut pos)?;
        let pc = usize::try_from(prev).map_err(|_| DecodeError::OutOfRange {
            field: "code pointer",
            value: prev,
        })?;
        code_ptr_lis.push(pc);
    }
    // Trailing section added after the first format revision: files
    // written by older encoders simply end here.
    let mut code_ptr_words = Vec::new();
    if pos < buf.len() {
        let nw = get_count(buf, &mut pos, "code-pointer word count", 1)?;
        code_ptr_words.reserve(nw);
        let mut prev = 0u64;
        for _ in 0..nw {
            prev = next_address(prev, buf, &mut pos)?;
            code_ptr_words.push(prev);
        }
    }
    if pos < buf.len() {
        return Err(DecodeError::TrailingBytes {
            at: pos,
            len: buf.len() - pos,
        });
    }
    Ok(Program {
        insts,
        entry,
        data,
        fault_handler,
        msr_values,
        msr_user_ok,
        text_base,
        code_ptr_lis,
        code_ptr_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genprog::{generate, GenConfig};

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn svarint_roundtrip_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_svarint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_svarint(&out, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn every_opcode_roundtrips() {
        use crate::Reg::*;
        let insts = vec![
            Inst::Li {
                rd: X2,
                imm: u64::MAX,
            },
            Inst::Alu {
                op: AluOp::Mul,
                rd: X3,
                rs1: X4,
                src2: Src2::Reg(X5),
            },
            Inst::Alu {
                op: AluOp::Sar,
                rd: X3,
                rs1: X4,
                src2: Src2::Imm(63),
            },
            Inst::Load {
                rd: X6,
                base: X7,
                off: -8,
                size: MemSize::B2,
            },
            Inst::Store {
                src: X8,
                base: X9,
                off: 1 << 40,
                size: MemSize::B8,
            },
            Inst::Branch {
                cond: BranchCond::Ltu,
                rs1: X10,
                rs2: X11,
                target: 12345,
            },
            Inst::Jmp { target: 7 },
            Inst::JmpInd { base: X12 },
            Inst::Call { target: 0 },
            Inst::CallInd { base: X13 },
            Inst::Ret,
            Inst::RdCycle { rd: X14 },
            Inst::RdMsr {
                rd: X15,
                idx: u16::MAX,
            },
            Inst::ClFlush {
                base: X16,
                off: -4096,
            },
            Inst::Fence,
            Inst::Nop,
            Inst::Halt,
            Inst::SpecOff,
            Inst::SpecOn,
        ];
        let mut buf = Vec::new();
        for &i in &insts {
            encode(i, &mut buf);
        }
        let mut pos = 0;
        for &want in &insts {
            assert_eq!(decode(&buf, &mut pos).unwrap(), want);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn generated_programs_roundtrip() {
        for seed in 0..6 {
            let p = generate(seed, GenConfig::default());
            let bytes = encode_program(&p);
            let back = decode_program(&bytes).unwrap();
            assert_eq!(p, back, "seed {seed}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_program(b"nope"), Err(DecodeError::BadMagic));
        assert_eq!(decode_program(b""), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected_not_panicking() {
        let p = generate(3, GenConfig::default());
        let bytes = encode_program(&p);
        // Any prefix must fail cleanly, never panic.
        for cut in [4usize, 5, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_program(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A one-instruction program's bytes up to (not including) its data
    /// section.
    fn header_and_text() -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, 0); // entry
        put_varint(&mut bytes, crate::TEXT_BASE);
        bytes.push(0); // no fault handler
        put_varint(&mut bytes, 1);
        encode(Inst::Halt, &mut bytes);
        bytes
    }

    #[test]
    fn data_length_near_u64_max_is_truncation_not_overflow() {
        for len in [u64::MAX, u64::MAX - 3] {
            let mut bytes = header_and_text();
            put_varint(&mut bytes, 1); // one data init
            put_varint(&mut bytes, 0x1000);
            put_varint(&mut bytes, len);
            bytes.extend_from_slice(&[1, 2, 3, 4]);
            assert_eq!(decode_program(&bytes), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn code_pointer_deltas_past_u64_max_are_rejected() {
        // code_ptr_lis, then code_ptr_words: two deltas summing past
        // u64::MAX in each list.
        for words in [false, true] {
            let mut bytes = header_and_text();
            for _ in 0..3 {
                put_varint(&mut bytes, 0); // data, msr values, msr user-ok
            }
            if words {
                put_varint(&mut bytes, 0); // no code-pointer Li's
            }
            put_varint(&mut bytes, 2);
            put_varint(&mut bytes, u64::MAX);
            put_varint(&mut bytes, 1);
            assert_eq!(
                decode_program(&bytes),
                Err(DecodeError::AddressOverflow),
                "words {words}"
            );
        }
    }

    #[test]
    fn bytes_after_the_last_section_are_refused() {
        let p = generate(2, GenConfig::default());
        let bytes = encode_program(&p);
        assert_eq!(encode_program(&decode_program(&bytes).unwrap()), bytes);
        for tail in [&[0u8][..], &[0x11], &[0, 0, 0]] {
            let mut longer = bytes.clone();
            longer.extend_from_slice(tail);
            assert_eq!(
                decode_program(&longer),
                Err(DecodeError::TrailingBytes {
                    at: bytes.len(),
                    len: tail.len()
                })
            );
        }
    }

    #[test]
    fn a_fault_handler_flag_past_one_is_refused() {
        for flag in [0u8, 1, 2, 0xff] {
            let mut bytes = MAGIC.to_vec();
            put_varint(&mut bytes, 0); // entry
            put_varint(&mut bytes, crate::TEXT_BASE);
            bytes.push(flag);
            if flag != 0 {
                put_varint(&mut bytes, 0); // the handler
            }
            put_varint(&mut bytes, 1);
            encode(Inst::Halt, &mut bytes);
            bytes.extend_from_slice(&[0; 5]); // five empty sections
            let got = decode_program(&bytes);
            if flag > 1 {
                assert_eq!(got, Err(DecodeError::BadHandlerFlag(flag)));
            } else {
                assert_eq!(encode_program(&got.unwrap()), bytes, "flag {flag}");
            }
        }
    }

    /// A one-instruction program whose section `which` (0 data, 1 MSR
    /// values, 2 MSR user-ok, 3 code pointers, 4 code-pointer words)
    /// claims `count` elements, every other section empty.
    fn claimed_count_bytes(which: usize, count: u64) -> Vec<u8> {
        let mut bytes = header_and_text();
        for section in 0..5 {
            put_varint(&mut bytes, if section == which { count } else { 0 });
        }
        bytes
    }

    #[test]
    fn a_count_past_the_bytes_left_is_refused_before_reserving() {
        let fields = [
            "data count",
            "msr value count",
            "msr user-ok count",
            "code-pointer count",
            "code-pointer word count",
        ];
        // The bytes left after the count: the empty sections behind it.
        for (which, field) in fields.into_iter().enumerate() {
            let left = 4 - which;
            for count in [left as u64 + 1, 1 << 40, u64::MAX] {
                assert_eq!(
                    decode_program(&claimed_count_bytes(which, count)),
                    Err(DecodeError::CountPastInput { field, count, left }),
                    "{field} {count}"
                );
            }
        }
        // The instruction count, with nothing behind it.
        let mut bytes = header_and_text();
        bytes.pop(); // the `Halt`
        assert_eq!(
            decode_program(&bytes),
            Err(DecodeError::CountPastInput {
                field: "instruction count",
                count: 1,
                left: 0
            })
        );
        // A count the bytes left hold exactly is read on.
        let mut bytes = claimed_count_bytes(3, 3);
        bytes.pop(); // the word count, which follows the deltas
        bytes.extend_from_slice(&[2, 1, 1, 0]);
        let p = decode_program(&bytes).unwrap();
        assert_eq!(p.code_ptr_lis, vec![2, 3, 4]);
        assert_eq!(encode_program(&p), bytes);
    }

    /// `RdMsr x1, idx` as bytes.
    fn rdmsr_bytes(idx: u64) -> Vec<u8> {
        let mut bytes = vec![OP_RDMSR, 1];
        put_varint(&mut bytes, idx);
        bytes
    }

    #[test]
    fn rdmsr_index_past_u16_is_refused_not_narrowed() {
        for idx in [65_536, 65_538, u64::MAX] {
            let mut pos = 0;
            assert_eq!(
                decode(&rdmsr_bytes(idx), &mut pos),
                Err(DecodeError::OutOfRange {
                    field: "msr index",
                    value: idx
                })
            );
        }
    }

    /// A one-instruction program with one MSR value and one user-ok entry.
    fn msr_table_bytes(value_idx: u64, user_ok_idx: u64) -> Vec<u8> {
        let mut bytes = header_and_text();
        put_varint(&mut bytes, 0); // no data
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, value_idx);
        put_varint(&mut bytes, 7);
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, user_ok_idx);
        put_varint(&mut bytes, 0); // no code-pointer Li's
        put_varint(&mut bytes, 0); // no code-pointer words
        bytes
    }

    #[test]
    fn msr_table_indices_past_u16_are_refused_not_narrowed() {
        for (values, user_ok) in [(65_538, 1), (1, 65_538)] {
            assert_eq!(
                decode_program(&msr_table_bytes(values, user_ok)),
                Err(DecodeError::OutOfRange {
                    field: "msr index",
                    value: 65_538
                })
            );
        }
    }

    #[test]
    fn accepted_bytes_round_trip_at_the_field_limits() {
        for idx in [0, 65_535] {
            let bytes = rdmsr_bytes(idx);
            let mut pos = 0;
            let inst = decode(&bytes, &mut pos).unwrap();
            assert_eq!(pos, bytes.len());
            let mut again = Vec::new();
            encode(inst, &mut again);
            assert_eq!(again, bytes, "idx {idx}");
        }
        let bytes = msr_table_bytes(65_535, 65_535);
        assert_eq!(encode_program(&decode_program(&bytes).unwrap()), bytes);
        // The widest target the host's usize holds.
        let mut bytes = vec![OP_JMP];
        put_varint(&mut bytes, usize::MAX as u64);
        let mut pos = 0;
        let inst = decode(&bytes, &mut pos).unwrap();
        let mut again = Vec::new();
        encode(inst, &mut again);
        assert_eq!(again, bytes);
    }

    /// `bytes` read as one varint.
    fn varint(bytes: &[u8]) -> Result<u64, DecodeError> {
        let mut pos = 0;
        let v = get_varint(bytes, &mut pos)?;
        assert_eq!(pos, bytes.len(), "{bytes:02x?}");
        Ok(v)
    }

    #[test]
    fn varint_past_64_bits_is_refused_not_truncated() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(varint(&max), Ok(u64::MAX));
        // Bits 64..70 set in the tenth byte, or an eleventh byte to come.
        for last in [0x7f, 0x02, 0x03, 0x81] {
            max[9] = last;
            assert_eq!(
                varint(&max),
                Err(DecodeError::NonCanonicalVarint { at: 0 }),
                "{last:#04x}"
            );
        }
        // In an instruction, the offset names the varint's first byte.
        let mut bytes = vec![OP_JMP];
        bytes.extend_from_slice(&max);
        let mut pos = 0;
        assert_eq!(
            decode(&bytes, &mut pos),
            Err(DecodeError::NonCanonicalVarint { at: 1 })
        );
    }

    #[test]
    fn zero_padded_varints_are_refused() {
        for padded in [&[0x80, 0x00][..], &[0xff, 0x00], &[0x80, 0x80, 0x00]] {
            assert_eq!(
                varint(padded),
                Err(DecodeError::NonCanonicalVarint { at: 0 }),
                "{padded:02x?}"
            );
        }
        // A lone zero byte is the canonical 0; a zero after a continued
        // byte is padding wherever it falls.
        assert_eq!(varint(&[0x00]), Ok(0));
        assert_eq!(varint(&[0x80, 0x01]), Ok(128));
        let mut pos = 0;
        assert_eq!(
            decode(&[OP_JMP, 0x85, 0x00], &mut pos),
            Err(DecodeError::NonCanonicalVarint { at: 1 })
        );
    }

    #[test]
    fn every_accepted_varint_round_trips() {
        // Every one- and two-byte string, then the widest forms.
        let short = (0..=255u8)
            .map(|b| vec![b])
            .chain((0..=u16::MAX).map(|w| w.to_le_bytes().to_vec()));
        let wide = (0..10).map(|n| {
            let mut b = vec![0xff; n];
            b.push(0x01);
            b
        });
        let mut accepted = 0;
        for bytes in short.chain(wide) {
            let mut pos = 0;
            // Count the strings read as one whole varint.
            let Ok(v) = get_varint(&bytes, &mut pos) else {
                continue;
            };
            if pos < bytes.len() {
                continue;
            }
            accepted += 1;
            let mut again = Vec::new();
            put_varint(&mut again, v);
            assert_eq!(again, bytes, "{bytes:02x?}");
        }
        // 128 one-byte strings, 128 * 127 two-byte ones and the ten wide.
        assert_eq!(accepted, 128 + 128 * 127 + 10);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut pos = 0;
        assert_eq!(decode(&[0xEE], &mut pos), Err(DecodeError::BadOpcode(0xEE)));
    }

    #[test]
    fn bad_register_rejected() {
        // OP_RDCYCLE then register 200.
        let mut pos = 0;
        assert_eq!(
            decode(&[OP_RDCYCLE, 200], &mut pos),
            Err(DecodeError::BadRegister(200))
        );
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeError::Truncated,
            DecodeError::BadOpcode(1),
            DecodeError::BadRegister(99),
            DecodeError::BadSubcode(77),
            DecodeError::BadMagic,
            DecodeError::AddressOverflow,
            DecodeError::OutOfRange {
                field: "msr index",
                value: 65_538,
            },
            DecodeError::NonCanonicalVarint { at: 3 },
            DecodeError::BadHandlerFlag(2),
            DecodeError::CountPastInput {
                field: "data count",
                count: 9,
                left: 4,
            },
            DecodeError::TrailingBytes { at: 12, len: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
