//! A minimal JSON value, parser, and writer.
//!
//! The workspace's `serde` dependency is an offline no-op shim (see
//! `shims/README.md`), so the wire protocol carries its own JSON layer:
//! a recursive-descent parser with an explicit depth bound and a writer
//! that escapes exactly what RFC 8259 requires. Only what the protocol
//! needs is implemented — objects, arrays, strings, finite numbers,
//! booleans, null — and every parse failure carries a byte offset so a
//! malformed frame can be reported precisely.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]. Requests are flat
/// objects; anything deeper than this is an attack or a bug, and
/// unbounded depth would let a hostile frame overflow the parser stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite; the writer rejects NaN/∞).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last one wins on
    /// [`Json::get`] lookups is *not* the rule — first wins, see `get`).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed
/// at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup (first match). `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `n` as a JSON number. Integers render without a fraction;
/// non-finite values (which JSON cannot represent) render as `null`
/// rather than producing an unparseable document.
fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The number of bytes [`escape_into`] appends for `s`.
pub(crate) fn escaped_len(s: &str) -> usize {
    2 + s
        .chars()
        .map(|c| match c {
            '"' | '\\' | '\n' | '\r' | '\t' => 2,
            c if (c as u32) < 0x20 => 6,
            c => c.len_utf8(),
        })
        .sum::<usize>()
}

/// Parses one complete JSON document from `text`, rejecting trailing
/// non-whitespace.
///
/// # Errors
/// Returns [`JsonError`] with a byte offset for malformed input, depth
/// past [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_owned(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) { // tsg-lint: allow(index) — pos is bounded by bytes.len() in the scanner loop
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
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
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
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

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate halves are accepted individually
                            // and replaced — the protocol never emits
                            // them, and U+FFFD is safer than rejecting.
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume the run up to the next quote, backslash or
                    // control byte. Those are ASCII, so the run ends on a
                    // char boundary of the `&str` input, and only the run
                    // is validated, not the rest of the document.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|r| std::str::from_utf8(r).ok())
                        .ok_or_else(|| self.err("bad utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]) // tsg-lint: allow(index) — start and pos are cursors bounded by bytes.len()
            .map_err(|_| self.err("bad number"))?;
        let n: f64 = text.parse().map_err(|_| JsonError {
            msg: format!("bad number {text:?}"),
            at: start,
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                msg: format!("non-finite number {text:?}"),
                at: start,
            });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_flat_objects() {
        let text = r#"{"op":"mine","theta":0.25,"max_edges":3,"deep":[1,2,{"x":null}],"ok":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("mine"));
        assert_eq!(v.get("theta").and_then(Json::as_f64), Some(0.25));
        assert_eq!(v.get("max_edges").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f ü".into());
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert!(rendered.contains("\\u0001"));
        assert_eq!(
            parse(r#""A\/""#).unwrap(),
            Json::Str("A/".into())
        );
    }

    #[test]
    fn long_documents_parse_in_one_pass() {
        // Each string char once validated the whole remaining document,
        // which made this 1.3 MB array take minutes.
        let doc = format!("[{}]", vec![r#"{"key":"vé→𝄞"}"#; 100_000].join(","));
        let Json::Arr(items) = parse(&doc).unwrap() else {
            panic!("not an array")
        };
        assert_eq!(items.len(), 100_000);
        assert_eq!(
            items[99_999].get("key").and_then(Json::as_str),
            Some("vé→𝄞")
        );
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "01x", "\"unterminated",
            "{\"a\":1} trailing", "nan", "1e999",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.msg.is_empty(), "{bad:?}");
        }
        assert_eq!(parse("{,}").unwrap_err().at, 1);
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.msg.contains("deep"), "{err}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        parse(&ok).unwrap();
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-2.5).render(), "-2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(0.2).render(), "0.2");
    }

    #[test]
    fn first_key_wins_on_get() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    }
}
