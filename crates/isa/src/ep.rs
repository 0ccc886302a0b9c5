//! The event-processor instruction set (Table 2 of the paper).
//!
//! Eight instructions with 3-bit opcodes and variable word counts; each
//! "word" is one byte on the 8-bit data bus. The first word packs the
//! opcode into bits 7–5 and a 5-bit argument into bits 4–0:
//!
//! | Instruction | Words | First-word arg | Following words |
//! |---|---|---|---|
//! | `SWITCHON c`  | 1 | component id | — |
//! | `SWITCHOFF c` | 1 | component id | — |
//! | `READ a`      | 3 | — | addr lo, addr hi |
//! | `WRITE a`     | 3 | — | addr lo, addr hi |
//! | `WRITEI a, v` | 4 | — | addr lo, addr hi, value |
//! | `TRANSFER s, d, n` | 5 | length − 1 | src lo/hi, dst lo/hi |
//! | `TERMINATE`   | 1 | — | — |
//! | `WAKEUP v`    | 2 | — | µC vector index |
//!
//! **Deviation from Table 2**: the paper lists `WRITEI` as three words, but
//! a 16-bit address plus an 8-bit immediate cannot fit in two operand
//! words; we use four and document it in `DESIGN.md`. `TRANSFER` carries
//! its block length (1–32 bytes, matching the message processor's 32-byte
//! buffers) in the first-word argument field.

use crate::asm::{EncodeCtx, Isa, Tok};
use std::fmt;

/// Number of addressable power-controlled components (5-bit id).
pub const MAX_COMPONENTS: u8 = 32;

/// Maximum block length of one `TRANSFER` (32-byte message buffers).
pub const MAX_TRANSFER: u8 = 32;

/// Identifier of a power-controlled component (0–31).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u8);

impl ComponentId {
    /// A component id.
    ///
    /// # Errors
    ///
    /// Returns `None` if `id` is 32 or more (the field is 5 bits).
    pub fn new(id: u8) -> Option<ComponentId> {
        (id < MAX_COMPONENTS).then_some(ComponentId(id))
    }

    /// The raw 5-bit id.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// The 3-bit opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Turn a component on and wait for its ready handshake.
    SwitchOn = 0,
    /// Turn a component off.
    SwitchOff = 1,
    /// Read a bus location into the EP register.
    Read = 2,
    /// Write the EP register to a bus location.
    Write = 3,
    /// Write an immediate to a bus location.
    WriteI = 4,
    /// Transfer a block within the address space.
    Transfer = 5,
    /// End the ISR without waking the microcontroller.
    Terminate = 6,
    /// End the ISR and wake the microcontroller at a vector.
    Wakeup = 7,
}

impl Opcode {
    /// Decode from the top 3 bits of a first instruction word.
    ///
    /// High bits beyond the 3-bit field are silently masked off; callers
    /// that want garbage bits to surface as an error should use
    /// [`Opcode::try_from_bits`] instead (as [`Instruction::decode`]
    /// does).
    pub fn from_bits(bits: u8) -> Opcode {
        Opcode::try_from_bits(bits & 0b111).expect("masked to 3 bits")
    }

    /// Decode from a 3-bit field, rejecting values with garbage high
    /// bits instead of aliasing them onto a valid opcode.
    ///
    /// # Errors
    ///
    /// Returns `None` if `bits` does not fit in 3 bits.
    pub fn try_from_bits(bits: u8) -> Option<Opcode> {
        Some(match bits {
            0 => Opcode::SwitchOn,
            1 => Opcode::SwitchOff,
            2 => Opcode::Read,
            3 => Opcode::Write,
            4 => Opcode::WriteI,
            5 => Opcode::Transfer,
            6 => Opcode::Terminate,
            7 => Opcode::Wakeup,
            _ => return None,
        })
    }

    /// Instruction length in words (bytes) for this opcode.
    pub fn words(self) -> usize {
        match self {
            Opcode::SwitchOn | Opcode::SwitchOff | Opcode::Terminate => 1,
            Opcode::Wakeup => 2,
            Opcode::Read | Opcode::Write => 3,
            Opcode::WriteI => 4,
            Opcode::Transfer => 5,
        }
    }

    /// Canonical lowercase mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::SwitchOn => "switchon",
            Opcode::SwitchOff => "switchoff",
            Opcode::Read => "read",
            Opcode::Write => "write",
            Opcode::WriteI => "writei",
            Opcode::Transfer => "transfer",
            Opcode::Terminate => "terminate",
            Opcode::Wakeup => "wakeup",
        }
    }
}

/// A decoded event-processor instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Power a component on (blocks on the ready handshake).
    SwitchOn(ComponentId),
    /// Power a component off.
    SwitchOff(ComponentId),
    /// Load `[addr]` into the EP's single register.
    Read(u16),
    /// Store the EP register to `[addr]`.
    Write(u16),
    /// Store an immediate to `[addr]`.
    WriteI {
        /// Destination bus address.
        addr: u16,
        /// Immediate value.
        value: u8,
    },
    /// Copy `len` bytes from `src` to `dst` (1–32).
    Transfer {
        /// Source bus address of the first byte.
        src: u16,
        /// Destination bus address of the first byte.
        dst: u16,
        /// Block length in bytes (1–32).
        len: u8,
    },
    /// Finish the ISR; EP returns to `READY`.
    Terminate,
    /// Finish the ISR and wake the microcontroller at vector `v`.
    Wakeup(u8),
}

/// Error decoding an instruction from memory bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes available than the opcode's word count.
    Truncated {
        /// The opcode whose operands were missing.
        opcode: Opcode,
        /// Bytes that were available.
        have: usize,
    },
    /// The opcode field carried bits outside the 3-bit encoding.
    BadOpcode {
        /// The raw (unmasked) opcode field value.
        bits: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { opcode, have } => write!(
                f,
                "truncated {} instruction: need {} words, have {have}",
                opcode.mnemonic(),
                opcode.words()
            ),
            DecodeError::BadOpcode { bits } => {
                write!(f, "opcode field 0b{bits:b} does not fit in 3 bits")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error encoding an instruction into bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A `TRANSFER` block length outside `1..=32` (the field encodes
    /// `len − 1` in 5 bits, and zero-length blocks are meaningless).
    TransferLength {
        /// The rejected length.
        len: u8,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TransferLength { len } => {
                write!(f, "transfer length {len} out of range 1..={MAX_TRANSFER}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

impl Instruction {
    /// The instruction's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::SwitchOn(_) => Opcode::SwitchOn,
            Instruction::SwitchOff(_) => Opcode::SwitchOff,
            Instruction::Read(_) => Opcode::Read,
            Instruction::Write(_) => Opcode::Write,
            Instruction::WriteI { .. } => Opcode::WriteI,
            Instruction::Transfer { .. } => Opcode::Transfer,
            Instruction::Terminate => Opcode::Terminate,
            Instruction::Wakeup(_) => Opcode::Wakeup,
        }
    }

    /// Encoded length in words (= bytes).
    pub fn words(&self) -> usize {
        self.opcode().words()
    }

    /// Whether this instruction ends an ISR (Figure 2: `EXECUTE →
    /// READY` happens only for `WAKEUP` and `TERMINATE`).
    pub fn ends_isr(&self) -> bool {
        matches!(self, Instruction::Terminate | Instruction::Wakeup(_))
    }

    /// The component operand of `SWITCHON`/`SWITCHOFF`, if any.
    pub fn component(&self) -> Option<ComponentId> {
        match *self {
            Instruction::SwitchOn(c) | Instruction::SwitchOff(c) => Some(c),
            _ => None,
        }
    }

    /// The single bus address operand of `READ`/`WRITE`/`WRITEI`, if any
    /// (`TRANSFER` carries two addresses; see
    /// [`Instruction::transfer_args`]).
    pub fn addr(&self) -> Option<u16> {
        match *self {
            Instruction::Read(a) | Instruction::Write(a) => Some(a),
            Instruction::WriteI { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// The immediate operand of `WRITEI`, if any.
    pub fn immediate(&self) -> Option<u8> {
        match *self {
            Instruction::WriteI { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The `(src, dst, len)` operands of `TRANSFER`, if any.
    pub fn transfer_args(&self) -> Option<(u16, u16, u8)> {
        match *self {
            Instruction::Transfer { src, dst, len } => Some((src, dst, len)),
            _ => None,
        }
    }

    /// The µC vector operand of `WAKEUP`, if any.
    pub fn vector(&self) -> Option<u8> {
        match *self {
            Instruction::Wakeup(v) => Some(v),
            _ => None,
        }
    }

    /// Encode into bytes.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::TransferLength`] for a `TRANSFER` whose
    /// block length is outside `1..=32`.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        fn head(op: Opcode, arg: u8) -> u8 {
            debug_assert!(arg < 32);
            ((op as u8) << 5) | (arg & 0x1F)
        }
        Ok(match *self {
            Instruction::SwitchOn(c) => vec![head(Opcode::SwitchOn, c.raw())],
            Instruction::SwitchOff(c) => vec![head(Opcode::SwitchOff, c.raw())],
            Instruction::Read(a) => vec![head(Opcode::Read, 0), a as u8, (a >> 8) as u8],
            Instruction::Write(a) => vec![head(Opcode::Write, 0), a as u8, (a >> 8) as u8],
            Instruction::WriteI { addr, value } => vec![
                head(Opcode::WriteI, 0),
                addr as u8,
                (addr >> 8) as u8,
                value,
            ],
            Instruction::Transfer { src, dst, len } => {
                if !(1..=MAX_TRANSFER).contains(&len) {
                    return Err(EncodeError::TransferLength { len });
                }
                vec![
                    head(Opcode::Transfer, len - 1),
                    src as u8,
                    (src >> 8) as u8,
                    dst as u8,
                    (dst >> 8) as u8,
                ]
            }
            Instruction::Terminate => vec![head(Opcode::Terminate, 0)],
            Instruction::Wakeup(v) => vec![head(Opcode::Wakeup, 0), v],
        })
    }

    /// Decode one instruction from the front of `bytes`, returning it and
    /// its length.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if `bytes` is too short, or
    /// [`DecodeError::BadOpcode`] if the opcode field carries bits
    /// outside the 3-bit encoding (defensive; an in-range first word
    /// always yields a 3-bit field).
    pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), DecodeError> {
        let first = *bytes.first().ok_or(DecodeError::Truncated {
            opcode: Opcode::Terminate,
            have: 0,
        })?;
        let bits = first >> 5;
        let opcode = Opcode::try_from_bits(bits).ok_or(DecodeError::BadOpcode { bits })?;
        let arg = first & 0x1F;
        let n = opcode.words();
        if bytes.len() < n {
            return Err(DecodeError::Truncated {
                opcode,
                have: bytes.len(),
            });
        }
        let addr16 = |lo: u8, hi: u8| u16::from_le_bytes([lo, hi]);
        let insn = match opcode {
            Opcode::SwitchOn => Instruction::SwitchOn(ComponentId(arg)),
            Opcode::SwitchOff => Instruction::SwitchOff(ComponentId(arg)),
            Opcode::Read => Instruction::Read(addr16(bytes[1], bytes[2])),
            Opcode::Write => Instruction::Write(addr16(bytes[1], bytes[2])),
            Opcode::WriteI => Instruction::WriteI {
                addr: addr16(bytes[1], bytes[2]),
                value: bytes[3],
            },
            Opcode::Transfer => Instruction::Transfer {
                src: addr16(bytes[1], bytes[2]),
                dst: addr16(bytes[3], bytes[4]),
                len: arg + 1,
            },
            Opcode::Terminate => Instruction::Terminate,
            Opcode::Wakeup => Instruction::Wakeup(bytes[1]),
        };
        Ok((insn, n))
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::SwitchOn(c) => write!(f, "switchon {}", c.raw()),
            Instruction::SwitchOff(c) => write!(f, "switchoff {}", c.raw()),
            Instruction::Read(a) => write!(f, "read 0x{a:04X}"),
            Instruction::Write(a) => write!(f, "write 0x{a:04X}"),
            Instruction::WriteI { addr, value } => write!(f, "writei 0x{addr:04X}, {value}"),
            Instruction::Transfer { src, dst, len } => {
                write!(f, "transfer 0x{src:04X}, 0x{dst:04X}, {len}")
            }
            Instruction::Terminate => write!(f, "terminate"),
            Instruction::Wakeup(v) => write!(f, "wakeup {v}"),
        }
    }
}

/// Encode a sequence of instructions into a contiguous byte program.
///
/// # Errors
///
/// Returns the first [`EncodeError`] produced by any instruction.
pub fn encode_program(program: &[Instruction]) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(program.len() * 2);
    for insn in program {
        out.extend(insn.encode()?);
    }
    Ok(out)
}

/// Decode a contiguous byte program until `TERMINATE`/`WAKEUP` or the end.
///
/// # Errors
///
/// Returns an error if a trailing instruction is truncated.
pub fn decode_isr(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (insn, n) = Instruction::decode(&bytes[pos..])?;
        pos += n;
        let done = insn.ends_isr();
        out.push(insn);
        if done {
            break;
        }
    }
    Ok(out)
}

/// Structural decode of an ISR image, as produced by
/// [`decode_isr_meta`].
///
/// Unlike [`decode_isr`] this never fails: truncation and trailing
/// bytes are reported as metadata so analyzers can diagnose them with
/// byte offsets instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsrDecode {
    /// Decoded instructions with their byte offset from the ISR start.
    pub insns: Vec<(u16, Instruction)>,
    /// Bytes consumed by the decoded instructions.
    pub consumed: usize,
    /// Whether decoding stopped at a `TERMINATE`/`WAKEUP`.
    pub terminated: bool,
    /// Bytes left in the image after the terminator (unreachable tail),
    /// or after the truncation point if `truncated`.
    pub trailing: usize,
    /// Whether the final instruction's operand words ran off the end of
    /// the image before a terminator was seen.
    pub truncated: bool,
}

/// Decode an ISR image into instructions plus structural metadata.
///
/// Decoding walks from offset 0 and stops at the first
/// `TERMINATE`/`WAKEUP`, at the end of the image, or at a truncated
/// instruction — whichever comes first. The outcome is always a value;
/// see [`IsrDecode`] for how abnormal shapes are reported.
pub fn decode_isr_meta(bytes: &[u8]) -> IsrDecode {
    let mut insns = Vec::new();
    let mut pos = 0usize;
    let mut terminated = false;
    let mut truncated = false;
    while pos < bytes.len() {
        match Instruction::decode(&bytes[pos..]) {
            Ok((insn, n)) => {
                insns.push((pos as u16, insn));
                pos += n;
                if insn.ends_isr() {
                    terminated = true;
                    break;
                }
            }
            Err(_) => {
                truncated = true;
                break;
            }
        }
    }
    IsrDecode {
        insns,
        consumed: pos,
        terminated,
        trailing: bytes.len() - pos,
        truncated,
    }
}

/// The event-processor ISA, pluggable into [`crate::asm::Assembler`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EpIsa;

impl Isa for EpIsa {
    fn size(&self, mnemonic: &str, _operands: &[Vec<Tok>]) -> Result<usize, String> {
        let op = mnemonic_opcode(mnemonic)?;
        Ok(op.words())
    }

    fn encode(
        &self,
        mnemonic: &str,
        operands: &[Vec<Tok>],
        ctx: &EncodeCtx<'_>,
    ) -> Result<Vec<u8>, String> {
        let op = mnemonic_opcode(mnemonic)?;
        let expect = |n: usize| -> Result<(), String> {
            if operands.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "`{mnemonic}` takes {n} operand(s), got {}",
                    operands.len()
                ))
            }
        };
        let eval = |i: usize| ctx.eval(&operands[i]);
        let range = |v: i64, lo: i64, hi: i64, what: &str| -> Result<i64, String> {
            if (lo..=hi).contains(&v) {
                Ok(v)
            } else {
                Err(format!("{what} {v} out of range {lo}..={hi}"))
            }
        };
        let insn = match op {
            Opcode::SwitchOn | Opcode::SwitchOff => {
                expect(1)?;
                let c = range(eval(0)?, 0, 31, "component id")? as u8;
                let c = ComponentId::new(c).expect("range-checked");
                if op == Opcode::SwitchOn {
                    Instruction::SwitchOn(c)
                } else {
                    Instruction::SwitchOff(c)
                }
            }
            Opcode::Read | Opcode::Write => {
                expect(1)?;
                let a = range(eval(0)?, 0, 0xFFFF, "address")? as u16;
                if op == Opcode::Read {
                    Instruction::Read(a)
                } else {
                    Instruction::Write(a)
                }
            }
            Opcode::WriteI => {
                expect(2)?;
                Instruction::WriteI {
                    addr: range(eval(0)?, 0, 0xFFFF, "address")? as u16,
                    value: range(eval(1)?, -128, 255, "immediate")? as u8,
                }
            }
            Opcode::Transfer => {
                expect(3)?;
                Instruction::Transfer {
                    src: range(eval(0)?, 0, 0xFFFF, "source address")? as u16,
                    dst: range(eval(1)?, 0, 0xFFFF, "destination address")? as u16,
                    len: range(eval(2)?, 1, MAX_TRANSFER as i64, "transfer length")? as u8,
                }
            }
            Opcode::Terminate => {
                expect(0)?;
                Instruction::Terminate
            }
            Opcode::Wakeup => {
                expect(1)?;
                Instruction::Wakeup(range(eval(0)?, 0, 255, "vector")? as u8)
            }
        };
        insn.encode().map_err(|e| e.to_string())
    }
}

fn mnemonic_opcode(mnemonic: &str) -> Result<Opcode, String> {
    Ok(match mnemonic {
        "switchon" => Opcode::SwitchOn,
        "switchoff" => Opcode::SwitchOff,
        "read" => Opcode::Read,
        "write" => Opcode::Write,
        "writei" => Opcode::WriteI,
        "transfer" => Opcode::Transfer,
        "terminate" => Opcode::Terminate,
        "wakeup" => Opcode::Wakeup,
        other => return Err(format!("unknown event-processor mnemonic `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn word_counts_match_table2() {
        assert_eq!(Opcode::SwitchOn.words(), 1);
        assert_eq!(Opcode::SwitchOff.words(), 1);
        assert_eq!(Opcode::Read.words(), 3);
        assert_eq!(Opcode::Write.words(), 3);
        assert_eq!(Opcode::WriteI.words(), 4); // paper says 3; see DESIGN.md
        assert_eq!(Opcode::Transfer.words(), 5);
        assert_eq!(Opcode::Terminate.words(), 1);
        assert_eq!(Opcode::Wakeup.words(), 2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let prog = [
            Instruction::SwitchOn(ComponentId::new(4).unwrap()),
            Instruction::Read(0x1401),
            Instruction::SwitchOff(ComponentId::new(4).unwrap()),
            Instruction::Write(0x1210),
            Instruction::WriteI {
                addr: 0x1200,
                value: 1,
            },
            Instruction::Transfer {
                src: 0x1280,
                dst: 0x1340,
                len: 32,
            },
            Instruction::Wakeup(3),
            Instruction::Terminate,
        ];
        let bytes = encode_program(&prog).unwrap();
        let mut pos = 0;
        for want in &prog {
            let (got, n) = Instruction::decode(&bytes[pos..]).unwrap();
            assert_eq!(&got, want);
            assert_eq!(n, want.words());
            pos += n;
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn decode_isr_stops_at_terminator() {
        let bytes = encode_program(&[
            Instruction::Read(0x10),
            Instruction::Terminate,
            Instruction::Read(0x20), // unreachable tail
        ])
        .unwrap();
        let isr = decode_isr(&bytes).unwrap();
        assert_eq!(isr.len(), 2);
        assert!(isr[1].ends_isr());
    }

    #[test]
    fn truncated_decode_errors() {
        let bytes = encode_program(&[Instruction::Transfer {
            src: 1,
            dst: 2,
            len: 8,
        }])
        .unwrap();
        let err = Instruction::decode(&bytes[..3]).unwrap_err();
        assert!(err.to_string().contains("truncated transfer"));
        assert!(Instruction::decode(&[]).is_err());
    }

    #[test]
    fn component_id_bounds() {
        assert!(ComponentId::new(31).is_some());
        assert!(ComponentId::new(32).is_none());
        assert_eq!(ComponentId::new(7).unwrap().to_string(), "component#7");
    }

    #[test]
    fn zero_length_transfer_is_a_typed_encode_error() {
        let err = Instruction::Transfer {
            src: 0,
            dst: 0,
            len: 0,
        }
        .encode()
        .unwrap_err();
        assert_eq!(err, EncodeError::TransferLength { len: 0 });
        assert_eq!(err.to_string(), "transfer length 0 out of range 1..=32");
        // Over-long blocks are rejected the same way, and the error
        // propagates through `encode_program`.
        let err = encode_program(&[
            Instruction::Terminate,
            Instruction::Transfer {
                src: 0,
                dst: 0,
                len: 33,
            },
        ])
        .unwrap_err();
        assert_eq!(err, EncodeError::TransferLength { len: 33 });
    }

    #[test]
    fn try_from_bits_rejects_garbage_high_bits() {
        // All 3-bit values decode; anything wider is rejected instead of
        // aliasing onto `bits & 0b111`.
        for bits in 0u8..8 {
            let op = Opcode::try_from_bits(bits).expect("3-bit value");
            assert_eq!(op as u8, bits);
            assert_eq!(Opcode::from_bits(bits), op);
        }
        for bits in [0b1000u8, 0b1010, 0x80, 0xFF] {
            assert_eq!(Opcode::try_from_bits(bits), None);
        }
        // `decode` goes through the checked path (defensively — an
        // in-range first word always produces a 3-bit field).
        let err = DecodeError::BadOpcode { bits: 0b1010 };
        assert_eq!(
            err.to_string(),
            "opcode field 0b1010 does not fit in 3 bits"
        );
    }

    #[test]
    fn decode_isr_meta_reports_structure() {
        // Normal, terminated ISR with an unreachable tail.
        let bytes = encode_program(&[
            Instruction::Read(0x10),
            Instruction::Terminate,
            Instruction::Read(0x20),
        ])
        .unwrap();
        let meta = decode_isr_meta(&bytes);
        assert_eq!(meta.insns.len(), 2);
        assert_eq!(meta.insns[0].0, 0);
        assert_eq!(meta.insns[1], (3, Instruction::Terminate));
        assert!(meta.terminated);
        assert!(!meta.truncated);
        assert_eq!(meta.consumed, 4);
        assert_eq!(meta.trailing, 3);

        // Truncated final instruction.
        let meta = decode_isr_meta(&bytes[..2]);
        assert!(!meta.terminated);
        assert!(meta.truncated);
        assert_eq!(meta.insns.len(), 0);
        assert_eq!(meta.trailing, 2);

        // Runs off the end without a terminator.
        let open = encode_program(&[Instruction::Read(0x10)]).unwrap();
        let meta = decode_isr_meta(&open);
        assert!(!meta.terminated);
        assert!(!meta.truncated);
        assert_eq!(meta.trailing, 0);
        assert_eq!(meta.consumed, 3);
    }

    #[test]
    fn operand_accessors() {
        let c = ComponentId::new(4).unwrap();
        assert_eq!(Instruction::SwitchOn(c).component(), Some(c));
        assert_eq!(Instruction::SwitchOff(c).component(), Some(c));
        assert_eq!(Instruction::Terminate.component(), None);
        assert_eq!(Instruction::Read(0x1401).addr(), Some(0x1401));
        assert_eq!(Instruction::Write(0x1210).addr(), Some(0x1210));
        let wi = Instruction::WriteI {
            addr: 0x1200,
            value: 9,
        };
        assert_eq!(wi.addr(), Some(0x1200));
        assert_eq!(wi.immediate(), Some(9));
        let t = Instruction::Transfer {
            src: 0x1280,
            dst: 0x1340,
            len: 8,
        };
        assert_eq!(t.addr(), None);
        assert_eq!(t.transfer_args(), Some((0x1280, 0x1340, 8)));
        assert_eq!(Instruction::Wakeup(3).vector(), Some(3));
        assert_eq!(Instruction::Terminate.vector(), None);
    }

    #[test]
    fn assembles_figure5_style_isr() {
        // The sample-and-send ISR of Figure 5.
        let src = r#"
            .equ SENSOR, 4
            .equ MSGPROC, 2
            .equ ADC_DATA, 0x1401
            .equ MSG_DATA, 0x1210
            .equ MSG_CTRL, 0x1200
            .org 0x0200
        isr_timer:
            switchon  SENSOR
            read      ADC_DATA
            switchoff SENSOR
            switchon  MSGPROC
            write     MSG_DATA
            writei    MSG_CTRL, 1
            terminate
        "#;
        let img = Assembler::new(EpIsa).assemble(src).unwrap();
        assert_eq!(img.symbol("isr_timer"), Some(0x0200));
        let isr = decode_isr(&img.segments()[0].data).unwrap();
        assert_eq!(isr.len(), 7);
        assert_eq!(isr[0], Instruction::SwitchOn(ComponentId::new(4).unwrap()));
        assert_eq!(isr[1], Instruction::Read(0x1401));
        assert_eq!(
            isr[5],
            Instruction::WriteI {
                addr: 0x1200,
                value: 1
            }
        );
        assert_eq!(isr[6], Instruction::Terminate);
        // 1+3+1+1+3+4+1 = 14 bytes: the "180-byte memory footprint"
        // claim is plausible at this density.
        assert_eq!(img.byte_len(), 14);
    }

    #[test]
    fn assembler_rejects_bad_operands() {
        let a = Assembler::new(EpIsa);
        assert!(a.assemble("switchon 32").is_err());
        assert!(a.assemble("transfer 0, 1, 0").is_err());
        assert!(a.assemble("transfer 0, 1, 33").is_err());
        assert!(a.assemble("writei 0x10000, 0").is_err());
        assert!(a.assemble("terminate 1").is_err());
        assert!(a.assemble("frobnicate").is_err());
    }

    #[test]
    fn display_roundtrips_through_assembler() {
        let insns = [
            Instruction::SwitchOn(ComponentId::new(3).unwrap()),
            Instruction::Transfer {
                src: 0x1280,
                dst: 0x1340,
                len: 17,
            },
            Instruction::WriteI {
                addr: 0x1200,
                value: 9,
            },
            Instruction::Wakeup(2),
        ];
        let src: String = insns.iter().map(|i| format!("{i}\n")).collect();
        let img = Assembler::new(EpIsa).assemble(&src).unwrap();
        let decoded = decode_isr(&img.segments()[0].data).unwrap();
        assert_eq!(decoded.as_slice(), &insns);
    }
}
