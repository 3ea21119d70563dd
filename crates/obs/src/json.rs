//! The workspace's one JSON codec: a reader for request bodies and
//! trace records, and the one string-escaping table every writer uses.
//!
//! The workspace has no serde (the build environment is offline), and
//! the payloads are small objects of strings, booleans, and numbers —
//! so this module hand-rolls exactly RFC 8259: full string escapes
//! (including `\uXXXX` with surrogate pairs), the strict number
//! grammar, booleans, null, arrays, and objects, with a depth bound so
//! an adversarial body cannot recurse the parser to death. Input size
//! is bounded upstream (the service's HTTP body cap).
//!
//! The writers that emit JSON (analyze, shred, lint, the obs exporters,
//! the service envelope) each keep their own pinned layout, but all of
//! them escape strings through [`write_str`] or its `format!`-side
//! twin [`quoted`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Nesting bound for arrays/objects: deeper input is rejected. The
/// service's own payloads nest three levels at most.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the service only uses small non-negative
    /// integers, but the parser accepts the full grammar).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`) so renderings are
    /// deterministic; duplicate keys keep the last occurrence.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this value is a non-negative
    /// integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object payload, if this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array payload, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// A parse failure: a message and the byte offset it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `src` as a single JSON value (trailing garbage is an error).
///
/// # Errors
///
/// [`JsonError`] with a byte offset on any grammar violation, non-UTF-8
/// escape, or nesting deeper than the fixed bound.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Skips a run of ASCII digits; whether the run was non-empty.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nests too deeply"));
        }
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, per RFC 8259:
    /// no leading zeros, and a `.` or exponent needs digits on both
    /// sides. A leading zero ends the integer part, so `01` fails as
    /// trailing input after `0`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat("-");
        if !self.eat("0") && !self.digits() {
            return Err(self.err("expected a digit"));
        }
        if self.eat(".") && !self.digits() {
            return Err(self.err("expected a digit after `.`"));
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.eat("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a') + 10,
                b'A'..=b'F' => u32::from(c - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Writes `s` as a JSON string literal (with quotes) onto `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Writing into a `String` cannot fail.
    let _ = escape_into(out, s);
    out.push('"');
}

/// `s` as a JSON string literal for `format!`-style writers: `{}`
/// renders exactly the bytes [`write_str`] appends.
pub fn quoted(s: &str) -> impl fmt::Display + '_ {
    struct Quoted<'a>(&'a str);
    impl fmt::Display for Quoted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_char('"')?;
            escape_into(f, self.0)?;
            f.write_char('"')
        }
    }
    Quoted(s)
}

/// The escaping table: writes the body of `s`'s string literal. `"`
/// and `\` get a backslash, `\n`/`\r`/`\t` their short forms, other
/// controls below U+0020 `\u00XX`; everything else (U+007F, U+2028,
/// astral characters) is copied through. Every escaped byte is ASCII,
/// so the unescaped runs between them split on char boundaries.
fn escape_into<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chrome_trace_events, SpanEvent};
    use proptest::prelude::*;

    #[test]
    fn parses_the_service_request_shape() {
        let v = parse(r#"{"dtd": "<!ELEMENT a (b)>", "stats": true, "threads": 4}"#)
            .expect("valid object");
        assert_eq!(
            v.get("dtd").and_then(Json::as_str),
            Some("<!ELEMENT a (b)>")
        );
        assert_eq!(v.get("stats").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("threads").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let mut lit = String::new();
        write_str(&mut lit, "a\"b\\c\nd\te\u{1}f — π");
        let back = parse(&lit).expect("rendered literal parses");
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}f — π"));
        // Surrogate-pair escape decodes to one scalar.
        let v = parse(r#""\ud83d\ude00""#).expect("surrogate pair");
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn escaping_table_bytes_are_pinned() {
        let mut lit = String::new();
        write_str(&mut lit, "a\"b\\c\nd");
        assert_eq!(lit, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(quoted("\r\t\u{1f}").to_string(), "\"\\r\\t\\u001f\"");
        // DEL, the line/paragraph separators, `/` and astral characters
        // are legal raw in a JSON string and pass through.
        assert_eq!(
            quoted("\u{7f}\u{2028}\u{2029}/😀").to_string(),
            "\"\u{7f}\u{2028}\u{2029}/😀\""
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "tru",
            "1 2",
            "nul",
            "\u{1}",
            // RFC 8259 numbers: no leading zeros, digits on both sides
            // of `.`, no bare leading `.`.
            "01",
            "-01",
            "00",
            "1.",
            "1.e3",
            "-.5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // Depth bound: 40 nested arrays exceed MAX_DEPTH.
        let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
        let e = parse(&deep).expect_err("too deep");
        assert!(e.message.contains("deeply"), "{e}");
    }

    #[test]
    fn numbers_cover_the_grammar() {
        assert_eq!(parse("-0.5e2").ok(), Some(Json::Num(-50.0)));
        assert_eq!(
            parse("18446744073709551615").expect("u64 max").as_u64(),
            None
        );
        assert_eq!(parse("7").expect("small int").as_u64(), Some(7));
        assert_eq!(parse("-1").expect("negative").as_u64(), None);
        assert_eq!(parse("1.5").expect("fractional").as_u64(), None);
    }

    /// Strings mixing everything the escaping table treats specially
    /// (quotes, backslashes, every control) with what it must copy
    /// through (U+007F, U+2028, astral characters, plain text).
    fn arb_text() -> impl Strategy<Value = String> {
        let scalar = |c: u32| char::from_u32(c).expect("a Unicode scalar value");
        let ch = prop_oneof![
            prop_oneof![Just('"'), Just('\\'), Just('/'), Just('é')],
            prop_oneof![Just('\u{7f}'), Just('\u{2028}'), Just('\u{2029}')],
            (0u32..0x20).prop_map(scalar),
            (0x20u32..0x7f).prop_map(scalar),
            (0x1_0000u32..0x11_0000).prop_map(scalar),
        ];
        prop::collection::vec(ch, 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    /// Every proper prefix of `doc` that stops before its closing `}`
    /// (or `"`) must be rejected, and must not panic the parser.
    fn prefixes_are_rejected(doc: &str) -> Result<(), TestCaseError> {
        prop_assert!(parse(doc).is_ok(), "the whole document parses: {doc:?}");
        let close = doc.trim_end().len() - 1;
        for (cut, _) in doc.char_indices().take_while(|&(at, _)| at < close) {
            let prefix = &doc[..cut];
            prop_assert!(parse(prefix).is_err(), "prefix parsed: {prefix:?}");
        }
        Ok(())
    }

    /// One array (`0`) or object (`1`) per entry of `kinds`, nested
    /// around a scalar.
    fn nested(kinds: &[u8]) -> String {
        let mut doc = String::new();
        for &k in kinds {
            doc.push_str(if k == 0 { "[" } else { "{\"k\":" });
        }
        doc.push('1');
        for &k in kinds.iter().rev() {
            doc.push(if k == 0 { ']' } else { '}' });
        }
        doc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse` inverts `write_str`, `quoted` renders the same bytes,
        /// and the literal cut before its closing quote is rejected.
        #[test]
        fn string_literals_round_trip(s in arb_text()) {
            let mut lit = String::new();
            write_str(&mut lit, &s);
            prop_assert_eq!(parse(&lit), Ok(Json::Str(s.clone())));
            prop_assert_eq!(quoted(&s).to_string(), lit);
            prefixes_are_rejected(&lit)?;
        }

        /// A request body cut anywhere before its closing brace is an
        /// error, never a panic or a shorter value.
        #[test]
        fn truncated_request_bodies_are_rejected(
            dtd in arb_text(),
            fds in arb_text(),
            threads in 0u64..1000,
        ) {
            let mut body = String::from("{\"dtd\": ");
            write_str(&mut body, &dtd);
            body.push_str(", \"fds\": ");
            write_str(&mut body, &fds);
            body.push_str(&format!(", \"threads\": {threads}, \"stats\": true, \"doc\": null}}"));
            prefixes_are_rejected(&body)?;
        }

        /// Same for a trace record: one Chrome complete event, with
        /// fractional-microsecond timestamps.
        #[test]
        fn truncated_trace_records_are_rejected(
            ts_ns in 0u64..1 << 40,
            dur_ns in 0u64..1 << 30,
            tid in 1u64..64,
        ) {
            let span = SpanEvent { name: "chase.run", cat: "implication", ts_ns, dur_ns, tid };
            prefixes_are_rejected(&chrome_trace_events(&[span]))?;
        }

        /// Nesting up to `MAX_DEPTH` levels parses; one more is rejected.
        #[test]
        fn nesting_is_bounded_at_max_depth(kinds in prop::collection::vec(0u8..2, MAX_DEPTH + 1)) {
            for depth in 0..=kinds.len() {
                let doc = nested(&kinds[..depth]);
                prop_assert_eq!(parse(&doc).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
            }
        }
    }
}
