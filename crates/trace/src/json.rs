//! A dependency-free JSON value type, writer, and parser.
//!
//! The workspace builds offline with vendored crates only, so stats
//! serialization cannot use `serde`; this module hand-rolls the small
//! subset needed for experiment artifacts: construct a [`Json`] tree,
//! [`Json::dump`] it with stable key order (objects are ordered vectors,
//! not hash maps), and [`Json::parse`] it back.
//!
//! Numbers are stored as `f64`. Every counter in the simulator fits in 53
//! bits by an enormous margin (2^53 cycles at the budgets this repo runs
//! is out of reach), so u64 stats round-trip exactly.
//!
//! Both directions are linear in the document size, which matters for
//! checkpoints (hundreds of KiB, mostly 8 KiB hex page strings):
//!
//! * the parser copies each run of plain string bytes up to the next `"`
//!   or `\` in one step, and refuses documents nested deeper than
//!   [`MAX_DEPTH`] with a "nesting too deep" [`JsonError`] instead of
//!   overflowing the stack;
//! * the writer appends into one caller-owned buffer — numbers are
//!   formatted in place and unescaped string runs are copied whole — so
//!   [`Json::write_compact`] streams many records (a JSONL file) into a
//!   single `String` without a per-record allocation.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. Every artifact
/// in this repository nests fewer than ten levels; the cap only exists so
/// that hostile input returns an error rather than exhausting the stack.
pub const MAX_DEPTH: usize = 512;

/// A JSON value. Objects preserve insertion order so dumps are
/// byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs on integer exactness).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends (or replaces) `key` in an object; panics on non-objects.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Sets `key` in an object in place; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(fields) = self else {
            panic!("Json::set on non-object");
        };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
    }

    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an exact u64, if this is a non-negative
    /// integer below 2^53.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Encodes a full-width `u64` as a `"0x…"` lower-hex string.
    ///
    /// [`Json::Num`] is an `f64` and only exact below 2^53; checkpoint
    /// payloads (register values, branch history, cache tags) use the
    /// whole 64-bit range, so they round-trip through this string form.
    #[must_use]
    pub fn hex(value: u64) -> Json {
        Json::Str(format!("{value:#x}"))
    }

    /// Decodes a value produced by [`Json::hex`].
    #[must_use]
    pub fn as_hex_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.strip_prefix("0x").and_then(|h| u64::from_str_radix(h, 16).ok()),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no spaces or trailing newline —
    /// the JSONL form the event journal emits one record per line.
    #[must_use]
    pub fn dump_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the [`Json::dump_compact`] form to `out`, leaving what is
    /// already there untouched — the way to render many records (JSONL)
    /// into one buffer.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem, with a
    /// byte offset into the input. Nesting deeper than [`MAX_DEPTH`] is an
    /// error too.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; stats code should never produce them, but a
        // defensive null beats emitting an unparseable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        let start = out.len();
        write!(out, "{n}").expect("writing to a String cannot fail");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so `start..i` always falls
    // on char boundaries and multi-byte UTF-8 is copied through verbatim.
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let nested = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash in one
            // step. Both are ASCII, so the run ends on a char boundary and
            // multi-byte UTF-8 passes through whole.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run])
                .map_err(|_| self.err("invalid UTF-8 in string"))?;
            out.push_str(text);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1, // the backslash of an escape
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    self.pos += 1;
                    let hi = self.hex4()?;
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect \uDC00–\uDFFF next.
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return Err(self.err("unpaired surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code)
                    } else {
                        char::from_u32(hi)
                    };
                    out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                    continue;
                }
                _ => return Err(self.err("invalid escape")),
            }
            self.pos += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_stable_and_ordered() {
        let j = Json::object()
            .with("b", 2u64)
            .with("a", 1u64)
            .with("list", vec![Json::from(1u64), Json::Null, Json::from(true)]);
        let d1 = j.dump();
        let d2 = j.clone().dump();
        assert_eq!(d1, d2);
        // Insertion order preserved: "b" before "a".
        assert!(d1.find("\"b\"").unwrap() < d1.find("\"a\"").unwrap());
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big = 9_007_199_254_740_991u64; // 2^53 - 1
        let j = Json::object().with("cycles", big).with("neg", -42i64);
        let parsed = Json::parse(&j.dump()).unwrap();
        assert_eq!(parsed.get("cycles").unwrap().as_u64(), Some(big));
        assert_eq!(parsed.get("neg").unwrap().as_f64(), Some(-42.0));
    }

    #[test]
    fn floats_and_strings_round_trip() {
        let j = Json::object().with("ipc", 1.875).with("name", "dense \"quoted\"\nworkload\tπ");
        let parsed = Json::parse(&j.dump()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let doc = r#" { "a" : [ 1 , { "b" : null } , true ] , "c" : -1.5e2 } "#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("c").unwrap().as_f64(), Some(-150.0));
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "1 2", "{'a': 1}", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn dump_compact_is_single_line_and_parseable() {
        let j = Json::object()
            .with("event", "squash")
            .with("cycle", 100u64)
            .with("nested", Json::object().with("a", vec![Json::from(1u64), Json::from(2u64)]));
        let compact = j.dump_compact();
        assert_eq!(compact, r#"{"event":"squash","cycle":100,"nested":{"a":[1,2]}}"#);
        assert!(!compact.contains('\n'));
        assert_eq!(Json::parse(&compact).unwrap(), j);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut j = Json::object().with("k", 1u64);
        j.set("k", 2u64);
        assert_eq!(j.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(j.dump().matches("\"k\"").count(), 1);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for doc in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = Json::parse(&doc).expect_err("a million open brackets must be refused");
            assert_eq!(err.message, "nesting too deep");
        }
        // The cap itself is accepted, one more level is not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.message.as_str(), err.offset), ("nesting too deep", MAX_DEPTH));
    }

    #[test]
    fn escapes_and_multibyte_runs_serialize_exactly() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}hπ😀\u{7f}";
        let expected = r#""a\"b\\c\nd\re\tf\u0001g\u001fhπ😀"#.to_string() + "\u{7f}\"";
        assert_eq!(Json::from(s).dump_compact(), expected);
        assert_eq!(Json::parse(&expected).unwrap().as_str(), Some(s));
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let err = |doc: &str| Json::parse(doc).unwrap_err();
        assert_eq!(err(r#""abcπ"#), JsonError { message: "unterminated string".into(), offset: 6 });
        assert_eq!(err(r#""ab\q""#).message, "invalid escape");
        assert_eq!(err(r#""ab\q""#).offset, 4);
        assert_eq!(err(r#""\ud800x""#).message, "unpaired surrogate");
    }

    #[test]
    fn write_compact_appends_to_the_buffer() {
        let j = Json::object().with("n", 1.5).with("s", "x");
        let mut out = String::from("prefix|");
        j.write_compact(&mut out);
        assert_eq!(out, format!("prefix|{}", j.dump_compact()));
    }

    #[test]
    fn numbers_format_as_before() {
        let cases: [(f64, &str); 7] = [
            (0.0, "0"),
            (-42.0, "-42"),
            (1.875, "1.875"),
            (9_007_199_254_740_992.0, "9007199254740992.0"),
            (1e300, &format!("{}.0", 1e300)),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ];
        for (n, text) in cases {
            assert_eq!(Json::Num(n).dump_compact(), text, "{n}");
        }
    }

    #[test]
    fn hex_round_trips_the_full_u64_range() {
        for v in [0u64, 1, 0xFF, 1 << 53, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let j = Json::hex(v);
            assert_eq!(j.as_hex_u64(), Some(v), "value {v:#x}");
            // Survives a serialize/parse round trip too.
            let parsed = Json::parse(&j.dump()).unwrap();
            assert_eq!(parsed.as_hex_u64(), Some(v));
        }
        // Non-hex strings and numbers decode to None.
        assert_eq!(Json::from("17").as_hex_u64(), None);
        assert_eq!(Json::from(17u64).as_hex_u64(), None);
    }
}
