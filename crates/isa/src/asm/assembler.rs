//! The ISA-generic two-pass assembler core.

use super::expr::EncodeCtx;
use super::lexer::{lex_line, Tok};
use super::AsmError;
use std::collections::BTreeMap;

/// Per-ISA sizing and encoding, plugged into the [`Assembler`].
///
/// Implementations exist for the event processor ([`crate::ep::EpIsa`]) and
/// the AVR subset (`ulp_mcu8::AvrIsa`).
pub trait Isa {
    /// Encoded size in bytes of `mnemonic` with the given operands.
    ///
    /// Called during pass 1, so it must not depend on symbol *values* —
    /// only on the mnemonic and operand shapes. Both ISAs in this workspace
    /// have fixed per-mnemonic sizes.
    fn size(&self, mnemonic: &str, operands: &[Vec<Tok>]) -> Result<usize, String>;

    /// Encode `mnemonic` with the given operands at `ctx.pc`.
    fn encode(
        &self,
        mnemonic: &str,
        operands: &[Vec<Tok>],
        ctx: &EncodeCtx<'_>,
    ) -> Result<Vec<u8>, String>;
}

/// A contiguous run of assembled bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Load address of the first byte.
    pub origin: u32,
    /// The bytes.
    pub data: Vec<u8>,
}

impl Segment {
    /// Address one past the last byte.
    pub fn end(&self) -> u32 {
        self.origin + self.data.len() as u32
    }
}

/// The output of assembly: segments plus the symbol table.
#[derive(Debug, Clone, Default)]
pub struct Image {
    segments: Vec<Segment>,
    symbols: BTreeMap<String, i64>,
}

impl Image {
    /// All segments, sorted by origin.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Value of a symbol (label or `.equ`), if defined.
    pub fn symbol(&self, name: &str) -> Option<i64> {
        self.symbols.get(name).copied()
    }

    /// The full symbol table.
    pub fn symbols(&self) -> &BTreeMap<String, i64> {
        &self.symbols
    }

    /// Total number of assembled bytes across all segments (the "code size"
    /// the paper reports: 11558 bytes for the Mica2 app vs 180 for theirs).
    pub fn byte_len(&self) -> usize {
        self.segments.iter().map(|s| s.data.len()).sum()
    }

    /// Render into a flat memory of `size` bytes, with `fill` elsewhere.
    ///
    /// # Errors
    ///
    /// Returns an error if any segment extends past `size`.
    pub fn flatten(&self, size: usize, fill: u8) -> Result<Vec<u8>, AsmError> {
        let mut mem = vec![fill; size];
        for seg in &self.segments {
            let end = seg.end() as usize;
            if end > size {
                return Err(AsmError::new(
                    0,
                    format!(
                        "segment at 0x{:04X}..0x{end:04X} exceeds memory size {size}",
                        seg.origin
                    ),
                ));
            }
            mem[seg.origin as usize..end].copy_from_slice(&seg.data);
        }
        Ok(mem)
    }
}

/// One parsed source line.
#[derive(Debug)]
struct Line {
    number: usize,
    labels: Vec<String>,
    body: Body,
}

#[derive(Debug)]
enum Body {
    Empty,
    Directive {
        name: String,
        operands: Vec<Vec<Tok>>,
    },
    Instruction {
        mnemonic: String,
        operands: Vec<Vec<Tok>>,
    },
}

/// The two-pass assembler. Construct with an [`Isa`] and call
/// [`assemble`](Assembler::assemble).
#[derive(Debug)]
pub struct Assembler<I> {
    isa: I,
}

impl<I: Isa> Assembler<I> {
    /// An assembler for the given instruction set.
    pub fn new(isa: I) -> Assembler<I> {
        Assembler { isa }
    }

    /// Assemble complete source text into an [`Image`].
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic, or encoding error, tagged with
    /// its source line.
    pub fn assemble(&self, source: &str) -> Result<Image, AsmError> {
        let lines = parse_lines(source)?;
        let mut symbols: BTreeMap<String, i64> = BTreeMap::new();

        // Pass 1: lay out, collecting label addresses and .equ values.
        self.layout(&lines, &mut symbols, None)?;

        // Pass 2: encode with the complete symbol table.
        let mut segments = Vec::new();
        self.layout(&lines, &mut symbols.clone(), Some(&mut segments))?;

        // The second layout re-derives symbols identically; keep pass-1's.
        let mut segments: Vec<Segment> = segments;
        segments.sort_by_key(|s| s.origin);
        for pair in segments.windows(2) {
            if pair[0].end() > pair[1].origin {
                return Err(AsmError::new(
                    0,
                    format!(
                        "overlapping segments at 0x{:04X} and 0x{:04X}",
                        pair[0].origin, pair[1].origin
                    ),
                ));
            }
        }
        Ok(Image { segments, symbols })
    }

    /// Shared pass body. With `emit: None` this is pass 1 (defines
    /// symbols); with `Some` it encodes into segments.
    fn layout(
        &self,
        lines: &[Line],
        symbols: &mut BTreeMap<String, i64>,
        mut emit: Option<&mut Vec<Segment>>,
    ) -> Result<(), AsmError> {
        let defining = emit.is_none();
        let mut lc: i64 = 0;
        let mut current: Option<Segment> = None;

        let flush = |current: &mut Option<Segment>, emit: &mut Option<&mut Vec<Segment>>| {
            if let (Some(seg), Some(out)) = (current.take(), emit.as_deref_mut()) {
                if !seg.data.is_empty() {
                    out.push(seg);
                }
            }
        };

        for line in lines {
            let err = |msg: String| AsmError::new(line.number, msg);
            for label in &line.labels {
                if defining && symbols.insert(label.clone(), lc).is_some() {
                    return Err(err(format!("duplicate symbol `{label}`")));
                }
            }
            match &line.body {
                Body::Empty => {}
                Body::Directive { name, operands } => match name.as_str() {
                    "org" => {
                        let target = eval_one(operands, symbols, lc, &err)?;
                        if !(0..=u32::MAX as i64).contains(&target) {
                            return Err(err(format!(".org target {target} out of range")));
                        }
                        flush(&mut current, &mut emit);
                        lc = target;
                    }
                    "equ" => {
                        // `.equ NAME, expr` or `.equ NAME = expr`
                        let toks = flatten_operands(operands);
                        let (sym, rest) = match toks.split_first() {
                            Some((Tok::Ident(s), rest)) => (s.clone(), rest),
                            _ => return Err(err(".equ requires a symbol name".into())),
                        };
                        let rest = match rest.split_first() {
                            Some((t, r)) if t.is_punct("=") => r,
                            _ => rest,
                        };
                        let ctx = EncodeCtx { symbols, pc: lc };
                        let value = ctx.eval(rest).map_err(&err)?;
                        if defining && symbols.insert(sym.clone(), value).is_some() {
                            return Err(err(format!("duplicate symbol `{sym}`")));
                        }
                    }
                    "db" => {
                        let mut bytes = Vec::new();
                        for op in operands {
                            if let [Tok::Str(s)] = op.as_slice() {
                                bytes.extend_from_slice(s.as_bytes());
                            } else {
                                let ctx = EncodeCtx { symbols, pc: lc };
                                let v = if defining {
                                    // Sizes only; value may use forward refs.
                                    ctx.eval(op).unwrap_or(0)
                                } else {
                                    ctx.eval(op).map_err(&err)?
                                };
                                if !defining && !(-128..=255).contains(&v) {
                                    return Err(err(format!(".db value {v} does not fit a byte")));
                                }
                                bytes.push(v as u8);
                            }
                        }
                        emit_bytes(&mut current, &mut lc, &bytes, emit.as_deref_mut());
                    }
                    "dw" => {
                        let mut bytes = Vec::new();
                        for op in operands {
                            let ctx = EncodeCtx { symbols, pc: lc };
                            let v = if defining {
                                ctx.eval(op).unwrap_or(0)
                            } else {
                                ctx.eval(op).map_err(&err)?
                            };
                            if !defining && !(-32768..=65535).contains(&v) {
                                return Err(err(format!(".dw value {v} does not fit 16 bits")));
                            }
                            bytes.push((v & 0xFF) as u8);
                            bytes.push(((v >> 8) & 0xFF) as u8);
                        }
                        emit_bytes(&mut current, &mut lc, &bytes, emit.as_deref_mut());
                    }
                    "space" => {
                        let n = eval_one(operands, symbols, lc, &err)?;
                        if !(0..=1 << 20).contains(&n) {
                            return Err(err(format!(".space count {n} out of range")));
                        }
                        let bytes = vec![0u8; n as usize];
                        emit_bytes(&mut current, &mut lc, &bytes, emit.as_deref_mut());
                    }
                    "align" => {
                        let n = eval_one(operands, symbols, lc, &err)?;
                        if n <= 0 || (n & (n - 1)) != 0 {
                            return Err(err(format!(".align requires a power of two, got {n}")));
                        }
                        let pad = (n - (lc % n)) % n;
                        let bytes = vec![0u8; pad as usize];
                        emit_bytes(&mut current, &mut lc, &bytes, emit.as_deref_mut());
                    }
                    other => return Err(err(format!("unknown directive `.{other}`"))),
                },
                Body::Instruction { mnemonic, operands } => {
                    let size = self.isa.size(mnemonic, operands).map_err(&err)?;
                    if defining {
                        lc += size as i64;
                    } else {
                        let ctx = EncodeCtx { symbols, pc: lc };
                        let bytes = self.isa.encode(mnemonic, operands, &ctx).map_err(&err)?;
                        if bytes.len() != size {
                            return Err(err(format!(
                                "ISA bug: `{mnemonic}` sized {size} but encoded {} bytes",
                                bytes.len()
                            )));
                        }
                        emit_bytes(&mut current, &mut lc, &bytes, emit.as_deref_mut());
                    }
                }
            }
        }
        flush(&mut current, &mut emit);
        Ok(())
    }
}

fn eval_one(
    operands: &[Vec<Tok>],
    symbols: &BTreeMap<String, i64>,
    lc: i64,
    err: &impl Fn(String) -> AsmError,
) -> Result<i64, AsmError> {
    if operands.len() != 1 {
        return Err(err(format!("expected 1 operand, got {}", operands.len())));
    }
    let ctx = EncodeCtx { symbols, pc: lc };
    ctx.eval(&operands[0]).map_err(err)
}

fn flatten_operands(operands: &[Vec<Tok>]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (i, op) in operands.iter().enumerate() {
        if i > 0 {
            out.push(Tok::Punct(","));
        }
        out.extend(op.iter().cloned());
    }
    // Remove the separating comma after the symbol name for `.equ N, v`.
    if out.len() >= 2 && out[1].is_punct(",") {
        out.remove(1);
    }
    out
}

fn emit_bytes(
    current: &mut Option<Segment>,
    lc: &mut i64,
    bytes: &[u8],
    emit: Option<&mut Vec<Segment>>,
) {
    if emit.is_some() {
        let seg = current.get_or_insert_with(|| Segment {
            origin: *lc as u32,
            data: Vec::new(),
        });
        seg.data.extend_from_slice(bytes);
    }
    *lc += bytes.len() as i64;
}

/// Split source into parsed lines: labels, directive/instruction, operands.
fn parse_lines(source: &str) -> Result<Vec<Line>, AsmError> {
    let mut out = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let mut toks = lex_line(raw).map_err(|e| AsmError::new(number, e))?;

        // Peel off leading `label:` pairs.
        let mut labels = Vec::new();
        while toks.len() >= 2 && toks[0].as_ident().is_some() && toks[1].is_punct(":") {
            labels.push(toks[0].as_ident().unwrap().to_string());
            toks.drain(..2);
        }

        let body = if toks.is_empty() {
            Body::Empty
        } else if toks[0].is_punct(".") {
            let name = match toks.get(1) {
                Some(Tok::Ident(s)) => s.to_ascii_lowercase(),
                other => {
                    return Err(AsmError::new(
                        number,
                        format!("expected directive name after '.', found {other:?}"),
                    ))
                }
            };
            Body::Directive {
                name,
                operands: split_operands(&toks[2..]),
            }
        } else if let Tok::Ident(m) = &toks[0] {
            Body::Instruction {
                mnemonic: m.to_ascii_lowercase(),
                operands: split_operands(&toks[1..]),
            }
        } else {
            return Err(AsmError::new(
                number,
                format!("expected mnemonic or directive, found {:?}", toks[0]),
            ));
        };
        out.push(Line {
            number,
            labels,
            body,
        });
    }
    Ok(out)
}

/// Split an operand token stream on top-level commas.
fn split_operands(toks: &[Tok]) -> Vec<Vec<Tok>> {
    if toks.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = Vec::new();
    for t in toks {
        match t {
            Tok::Punct("(") => {
                depth += 1;
                cur.push(t.clone());
            }
            Tok::Punct(")") => {
                depth = depth.saturating_sub(1);
                cur.push(t.clone());
            }
            Tok::Punct(",") if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(t.clone()),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy ISA: `byte e` emits one byte, `word e` emits a little-endian
    /// 16-bit word, `rel label` emits a signed byte displacement from the
    /// *next* instruction.
    struct ToyIsa;
    impl Isa for ToyIsa {
        fn size(&self, mnemonic: &str, _operands: &[Vec<Tok>]) -> Result<usize, String> {
            match mnemonic {
                "byte" | "rel" => Ok(1),
                "word" => Ok(2),
                other => Err(format!("unknown mnemonic `{other}`")),
            }
        }
        fn encode(
            &self,
            mnemonic: &str,
            operands: &[Vec<Tok>],
            ctx: &EncodeCtx<'_>,
        ) -> Result<Vec<u8>, String> {
            if operands.len() != 1 {
                return Err("expected 1 operand".into());
            }
            let v = ctx.eval(&operands[0])?;
            Ok(match mnemonic {
                "byte" => vec![v as u8],
                "word" => vec![v as u8, (v >> 8) as u8],
                "rel" => vec![(v - (ctx.pc + 1)) as u8],
                _ => unreachable!(),
            })
        }
    }

    fn asm(src: &str) -> Image {
        Assembler::new(ToyIsa).assemble(src).unwrap()
    }

    #[test]
    fn basic_layout_and_labels() {
        let img = asm("start: byte 1\n  word 0x1234\nend:");
        assert_eq!(img.symbol("start"), Some(0));
        assert_eq!(img.symbol("end"), Some(3));
        assert_eq!(img.segments()[0].data, vec![1, 0x34, 0x12]);
        assert_eq!(img.byte_len(), 3);
    }

    #[test]
    fn org_creates_segments() {
        let img = asm(".org 0x10\nbyte 1\n.org 0x20\nbyte 2");
        assert_eq!(img.segments().len(), 2);
        assert_eq!(img.segments()[0].origin, 0x10);
        assert_eq!(img.segments()[1].origin, 0x20);
        let flat = img.flatten(0x21, 0xFF).unwrap();
        assert_eq!(flat[0x10], 1);
        assert_eq!(flat[0x1F], 0xFF);
        assert_eq!(flat[0x20], 2);
    }

    #[test]
    fn forward_references_resolve() {
        let img = asm("word target\ntarget: byte 0xAA");
        assert_eq!(img.segments()[0].data, vec![2, 0, 0xAA]);
    }

    #[test]
    fn relative_branches_use_pc() {
        // rel at address 0 pointing at label 3: displacement 3 - 1 = 2.
        let img = asm("rel target\nbyte 0\nbyte 0\ntarget: byte 1");
        assert_eq!(img.segments()[0].data[0], 2);
    }

    #[test]
    fn equ_and_expressions() {
        let img = asm(".equ BASE, 0x1000\n.equ CTRL = BASE + 4\nword CTRL");
        assert_eq!(img.symbol("CTRL"), Some(0x1004));
        assert_eq!(img.segments()[0].data, vec![0x04, 0x10]);
    }

    #[test]
    fn db_dw_space_align() {
        let img = asm(".db 1, 2, \"ab\"\n.align 8\n.dw 0x0102\n.space 2\nl: byte 0");
        let d = &img.segments()[0].data;
        assert_eq!(&d[..4], &[1, 2, b'a', b'b']);
        assert_eq!(&d[8..10], &[0x02, 0x01]);
        assert_eq!(img.symbol("l"), Some(12));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = Assembler::new(ToyIsa).assemble("x: byte 1\nx: byte 2");
        assert!(e.unwrap_err().msg.contains("duplicate"));
    }

    #[test]
    fn unknown_mnemonic_rejected_with_line() {
        let e = Assembler::new(ToyIsa)
            .assemble("byte 1\nbogus 2")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn overlapping_segments_rejected() {
        let e = Assembler::new(ToyIsa)
            .assemble(".org 0x10\nword 0\n.org 0x11\nbyte 1")
            .unwrap_err();
        assert!(e.msg.contains("overlap"));
    }

    #[test]
    fn db_range_checked() {
        let e = Assembler::new(ToyIsa).assemble(".db 256").unwrap_err();
        assert!(e.msg.contains("fit a byte"));
        let e = Assembler::new(ToyIsa).assemble(".dw 65536").unwrap_err();
        assert!(e.msg.contains("fit 16 bits"));
    }

    #[test]
    fn flatten_rejects_oversize() {
        let img = asm(".org 0x100\nbyte 1");
        assert!(img.flatten(0x100, 0).is_err());
        assert!(img.flatten(0x101, 0).is_ok());
    }

    #[test]
    fn multiple_labels_one_line() {
        let img = asm("a: b: byte 7");
        assert_eq!(img.symbol("a"), Some(0));
        assert_eq!(img.symbol("b"), Some(0));
    }

    #[test]
    fn align_must_be_power_of_two() {
        let e = Assembler::new(ToyIsa).assemble(".align 3").unwrap_err();
        assert!(e.msg.contains("power of two"));
    }
}
