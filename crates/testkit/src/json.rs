//! The workspace's one JSON codec. Every writer quotes its strings
//! through [`write_str`] (or [`Quoted`] inside `format!`), the one escape
//! set. [`parse`] is a strict reader: the RFC 8259 grammar, no lone
//! surrogate escapes, nesting capped at [`MAX_DEPTH`], and a byte offset
//! in every [`Error`]. It is built from the pull primitives of
//! [`Reader`], which fixed-shape decoders use directly to borrow instead
//! of allocate.
//!
//! ```
//! use ulp_testkit::json::{parse, write_str, Value};
//! let mut doc = String::from("{\"name\":");
//! write_str(&mut doc, "a \"b\"\n");
//! doc.push('}');
//! assert_eq!(doc, r#"{"name":"a \"b\"\n"}"#);
//! let name = parse(&doc).unwrap().get("name").cloned();
//! assert_eq!(name, Some(Value::String("a \"b\"\n".into())));
//! assert_eq!(parse("[01]").unwrap_err().offset, 2);
//! ```

use std::borrow::Cow;
use std::fmt;

/// How deeply arrays and objects may nest (the workspace's own
/// documents nest at most four levels).
pub const MAX_DEPTH: usize = 128;

/// The one escaper: `s` quoted, with `\"`, `\\`, `\n`, `\r`, `\t`, and
/// `\u00XX` for the other control characters; everything else raw.
fn escape(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.write_str(&s[run..i])?;
        match short {
            "" => write!(out, "\\u{b:04x}")?,
            _ => out.write_str(short)?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Append `s` to `out` as a quoted JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    escape(out, s).expect("writing to a String cannot fail");
}

/// `s` as a quoted JSON string literal inside `format!`.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        escape(f, self.0)
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its exact source text, so no precision is lost.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if it is a plain non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }
}

/// What went wrong at an [`Error`]'s offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    Eof,
    /// A byte that cannot start a value.
    Unexpected,
    /// The given token was required.
    Expected(&'static str),
    /// A number with a superfluous leading zero (`01`, `-01`).
    LeadingZero,
    /// A number missing its fraction or exponent digits (`1.`, `1e`).
    BadNumber,
    /// An unknown escape or a malformed `\uXXXX`.
    BadEscape,
    /// A UTF-16 surrogate escape without its other half.
    LoneSurrogate,
    /// A raw control character inside a string.
    ControlChar,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Bytes after the value.
    Trailing,
}

/// A parse failure: what went wrong, and at which byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub kind: ErrorKind,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse `src` as exactly one JSON value, optionally padded by whitespace.
pub fn parse(src: &str) -> Result<Value, Error> {
    let mut r = Reader::new(src);
    r.ws();
    let value = r.value(0)?;
    r.ws();
    r.end()?;
    Ok(value)
}

/// A cursor over JSON text. The pull primitives read exactly at the
/// cursor and skip no whitespace unless asked ([`ws`](Reader::ws)).
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader { src, pos: 0 }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// `kind` at the cursor, or `Eof` past the end of input.
    fn fail(&self, kind: ErrorKind) -> Error {
        let end = self.pos >= self.src.len();
        let kind = if end { ErrorKind::Eof } else { kind };
        Error {
            offset: self.pos,
            kind,
        }
    }

    /// Skip whitespace.
    pub fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `byte` if it is next, and say whether it was.
    #[inline]
    pub fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    /// Consume exactly `text`, or fail at its first mismatching byte.
    #[inline]
    pub fn expect(&mut self, text: &'static str) -> Result<(), Error> {
        let rest = &self.src.as_bytes()[self.pos..];
        if rest.starts_with(text.as_bytes()) {
            self.pos += text.len();
            return Ok(());
        }
        self.pos += text.bytes().zip(rest).take_while(|(a, b)| a == *b).count();
        Err(self.fail(ErrorKind::Expected(text)))
    }

    /// Require the cursor to be at the end of the input.
    #[inline]
    pub fn end(&self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.fail(ErrorKind::Trailing)),
        }
    }

    /// Read a string literal, borrowed unless it holds an escape. Each
    /// run of plain bytes is scanned in one pass, and an escaped literal
    /// is unescaped into one allocation.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect("\"")?;
        let bytes = self.src.as_bytes();
        let mut unescaped = String::new();
        let mut run = self.pos;
        loop {
            self.pos += bytes[self.pos..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                .unwrap_or(bytes.len() - self.pos);
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => {
                    if unescaped.capacity() == 0 {
                        // No escape decodes to more bytes than it is
                        // written with, so the bytes up to the next `"`
                        // hold the literal unless it has an escaped quote.
                        let text = &bytes[run..];
                        unescaped
                            .reserve(text.iter().position(|&b| b == b'"').unwrap_or(text.len()));
                    }
                    unescaped.push_str(&self.src[run..self.pos]);
                    unescaped.push(self.escape()?);
                    run = self.pos;
                }
                // Past the end of input `fail` reports `Eof`.
                _ => return Err(self.fail(ErrorKind::ControlChar)),
            }
        }
        let tail = &self.src[run..self.pos];
        self.pos += 1;
        Ok(if unescaped.is_empty() {
            Cow::Borrowed(tail)
        } else {
            Cow::Owned(unescaped + tail)
        })
    }

    /// Decode the escape at the cursor, pairing UTF-16 surrogates.
    fn escape(&mut self) -> Result<char, Error> {
        let start = self.pos;
        self.pos += 2;
        let simple = match self.src.as_bytes().get(start + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.expect("\\u").is_ok() {
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                // A surrogate left unpaired is not a `char`.
                return char::from_u32(code).ok_or(Error {
                    offset: start,
                    kind: ErrorKind::LoneSurrogate,
                });
            }
            _ => {
                self.pos = start + 1;
                return Err(self.fail(ErrorKind::BadEscape));
            }
        };
        Ok(simple)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| (b as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.fail(ErrorKind::BadEscape))?;
            self.pos += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// Read a number's text: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    pub fn number(&mut self) -> Result<&'a str, Error> {
        let start = self.pos;
        self.eat(b'-');
        if self.eat(b'0') {
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.fail(ErrorKind::LeadingZero));
            }
        } else if !self.digits() {
            return Err(self.fail(ErrorKind::BadNumber));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.fail(ErrorKind::BadNumber));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.fail(ErrorKind::BadNumber));
            }
        }
        Ok(&self.src[start..self.pos])
    }

    /// Read comma-separated items up to `close`, past an opening bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(",")?;
            self.ws();
        }
    }

    /// Read one value nested `depth` levels deep.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if matches!(self.peek(), Some(b'[' | b'{')) && depth == MAX_DEPTH {
            return Err(self.fail(ErrorKind::TooDeep));
        }
        Ok(match self.peek() {
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.items(b']', |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.items(b'}', |r| {
                    let key = r.string()?.into_owned();
                    r.ws();
                    r.expect(":")?;
                    r.ws();
                    members.push((key, r.value(depth + 1)?));
                    Ok(())
                })?;
                Value::Object(members)
            }
            Some(b'"') => Value::String(self.string()?.into_owned()),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true))?,
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false))?,
            Some(b'n') => self.expect("null").map(|()| Value::Null)?,
            Some(b'-' | b'0'..=b'9') => Value::Number(self.number()?.to_string()),
            _ => return Err(self.fail(ErrorKind::Unexpected)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_fn, prop_assert_eq, props, Rng};

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            " [1, 2.5, -3e-2, \"a\\nb\", {\"k\": [true, false]}] ",
            "{\"a\":{},\"b\":[]}",
            "\"\\u00e9\"",
            "0",
            "-0",
            "0.5e+10",
            "1E-2",
            "\"\\ud83d\\ude00\"",
            "\"\\/\\b\\f\\r\\t\u{7f}\"",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        use ErrorKind::*;
        for (bad, offset, kind) in [
            ("", 0, Eof),
            ("[1,]", 3, Unexpected),
            ("{\"a\":}", 5, Unexpected),
            ("{\"a\" 1}", 5, Expected(":")),
            ("\"unterminated", 13, Eof),
            ("01x", 1, LeadingZero),
            ("01", 1, LeadingZero),
            ("-01", 2, LeadingZero),
            ("[00]", 2, LeadingZero),
            ("[1] tail", 4, Trailing),
            ("{\"a\":1,}", 7, Expected("\"")),
            ("\"\\q\"", 2, BadEscape),
            ("1.", 2, Eof),
            ("1.e3", 2, BadNumber),
            ("-", 1, Eof),
            ("+1", 0, Unexpected),
            ("\"\\ud800\"", 1, LoneSurrogate),
            ("\"\\udc00\"", 1, LoneSurrogate),
            ("\"\\ud800\\u0041\"", 1, LoneSurrogate),
            ("\"\\u00g0\"", 5, BadEscape),
            ("\"a\tb\"", 2, ControlChar),
            ("[1 2]", 3, Expected(",")),
            ("tru", 3, Eof),
            ("nul!", 3, Expected("null")),
            ("NaN", 0, Unexpected),
        ] {
            assert_eq!(parse(bad), Err(Error { offset, kind }), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert_eq!(
            parse(&deep),
            Err(Error {
                offset: MAX_DEPTH,
                kind: ErrorKind::TooDeep
            })
        );
        let limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&limit).is_ok());
        let over = format!("{{\"a\":{}}}", limit);
        assert_eq!(parse(&over).unwrap_err().kind, ErrorKind::TooDeep);
    }

    #[test]
    fn one_escape_set() {
        let mut out = String::new();
        write_str(&mut out, "q\"b\\n\nr\rt\tc\u{1}d\u{1f}e\u{7f} é ☃ 😀");
        assert_eq!(
            out,
            "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001d\\u001fe\u{7f} é ☃ 😀\""
        );
        assert_eq!(Quoted("a\rb").to_string(), "\"a\\rb\"");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new("\"plain é\"\"esc\\naped\"");
        assert!(matches!(r.string(), Ok(Cow::Borrowed("plain é"))));
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "esc\naped"));
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn pull_primitives_read_exactly_at_the_cursor() {
        let mut r = Reader::new("{\"n\":-1.5e3, \"m\":1}");
        r.expect("{\"n\":").unwrap();
        assert_eq!(r.number(), Ok("-1.5e3"));
        assert_eq!(
            r.expect(",\"m\""),
            Err(Error {
                offset: 12,
                kind: ErrorKind::Expected(",\"m\"")
            })
        );
        // A failed `expect` leaves the cursor at the mismatch.
        r.ws();
        r.expect("\"m\":").unwrap();
        let mut r = Reader::new("[]x");
        assert!(r.eat(b'[') && !r.eat(b'[') && r.eat(b']'));
        assert_eq!(
            r.end(),
            Err(Error {
                offset: 2,
                kind: ErrorKind::Trailing
            })
        );
    }

    #[test]
    fn value_accessors() {
        let v = parse("{\"id\":\"a\",\"n\":18446744073709551615,\"f\":1.0,\"neg\":-1,\"xs\":[1]}")
            .unwrap();
        assert_eq!(v.get("id"), Some(&Value::String("a".into())));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        assert_eq!(v.get("neg").and_then(Value::as_u64), None);
        assert_eq!(
            v.get("xs"),
            Some(&Value::Array(vec![Value::Number("1".into())]))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("id"), None);
    }

    /// Compact JSON for `v`, strings through the one escaper.
    fn write(out: &mut String, v: &Value) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Number(text) => out.push_str(text),
            Value::String(s) => write_str(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(out, item);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    write(out, value);
                }
                out.push('}');
            }
        }
    }

    fn arb_string(rng: &mut Rng) -> String {
        const POOL: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', '☃', '😀', '\u{2028}',
        ];
        let len = rng.gen_range(0usize..8);
        (0..len).map(|_| *rng.choose(POOL).unwrap()).collect()
    }

    fn arb_number(rng: &mut Rng) -> String {
        let x = f64::from_bits(rng.next_u64());
        let x = if x.is_finite() { x } else { 0.5 };
        match rng.gen_range(0u32..3) {
            0 => (rng.next_u64() as i64).to_string(),
            1 => x.to_string(),
            _ => format!("{x:e}"),
        }
    }

    fn arb_value(rng: &mut Rng, depth: u32) -> Value {
        let leaf = depth == 0 || rng.gen_bool(0.4);
        match rng.gen_range(0u32..if leaf { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Number(arb_number(rng)),
            3 => Value::String(arb_string(rng)),
            4 => Value::Array(
                (0..rng.gen_range(0usize..4))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0usize..4))
                    .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// `Reader::string` as it was before it scanned runs: one byte at a
    /// time, growing its buffer per escape.
    fn reference_string<'a>(r: &mut Reader<'a>) -> Result<Cow<'a, str>, Error> {
        r.expect("\"")?;
        let mut unescaped = String::new();
        let mut run = r.pos;
        loop {
            match r.peek() {
                Some(b'"') => break,
                Some(b'\\') => {
                    unescaped.push_str(&r.src[run..r.pos]);
                    unescaped.push(r.escape()?);
                    run = r.pos;
                }
                Some(0..=0x1f) | None => return Err(r.fail(ErrorKind::ControlChar)),
                Some(_) => r.pos += 1,
            }
        }
        let tail = &r.src[run..r.pos];
        r.pos += 1;
        Ok(if unescaped.is_empty() {
            Cow::Borrowed(tail)
        } else {
            Cow::Owned(unescaped + tail)
        })
    }

    /// `Reader::expect` as it was before its `starts_with` fast path.
    fn reference_expect(r: &mut Reader<'_>, text: &'static str) -> Result<(), Error> {
        let rest = &r.src.as_bytes()[r.pos..];
        let matched = text.bytes().zip(rest).take_while(|(a, b)| a == *b).count();
        r.pos += matched;
        if matched == text.len() {
            Ok(())
        } else {
            Err(r.fail(ErrorKind::Expected(text)))
        }
    }

    /// Text that starts like a string literal and goes on with the
    /// pieces the string reader branches on.
    fn arb_literal(rng: &mut Rng) -> String {
        const PIECES: &[&str] = &[
            "\"",
            "\\",
            "\\\\",
            "\\\"",
            "\\u",
            "\\n",
            "\\q",
            "d83d",
            "dc00",
            "00e9",
            "0041",
            "a",
            "é",
            "😀",
            "\u{1}",
            "\t",
            ",\"key\":",
            "\u{7f}",
        ];
        let mut text = String::from(if rng.gen_bool(0.9) { "\"" } else { "x" });
        for _ in 0..rng.gen_range(0usize..12) {
            text.push_str(rng.choose(PIECES).unwrap());
        }
        text
    }

    props! {
        /// The scanning string reader and the fast-path `expect` give
        /// the byte-at-a-time reference's result, borrowed or owned as
        /// it was, and leave the cursor where it left it, errors and
        /// their offsets included.
        #[test]
        fn reader_matches_the_byte_at_a_time_reference(src in from_fn(arb_literal)) {
            let (mut fast, mut slow) = (Reader::new(&src), Reader::new(&src));
            let (got, want) = (fast.string(), reference_string(&mut slow));
            let borrowed = |r: &Result<Cow<str>, Error>| matches!(r, Ok(Cow::Borrowed(_)));
            prop_assert_eq!(borrowed(&got), borrowed(&want));
            prop_assert_eq!((got, fast.pos), (want, slow.pos));
            for text in ["\"", "\"a", "\",\"key\":", "\"\\\\u"] {
                let (mut fast, mut slow) = (Reader::new(&src), Reader::new(&src));
                prop_assert_eq!(
                    (fast.expect(text), fast.pos),
                    (reference_expect(&mut slow, text), slow.pos)
                );
            }
        }

        /// The writer and the reader agree: any value survives a
        /// write-then-parse round trip unchanged.
        #[test]
        fn parse_inverts_write(v in from_fn(|rng: &mut Rng| arb_value(rng, 4))) {
            let mut doc = String::new();
            write(&mut doc, &v);
            prop_assert_eq!(parse(&doc), Ok(v.clone()));
        }
    }
}
