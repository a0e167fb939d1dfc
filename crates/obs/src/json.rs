//! A minimal JSON reader/writer shared by the whole workspace.
//!
//! The offline container's serde shim carries no data format, so the workspace
//! ships its own small JSON implementation: enough of RFC 8259 to serialize and
//! parse sketch-spec documents, benchmark result files, and Chrome trace-event
//! exports (objects, arrays, strings with escapes, booleans, null, and numbers).
//! Unsigned integers are kept exact — Philox seeds are full-range `u64`s, which a
//! lossy `f64` number representation would corrupt.
//!
//! This module lives in `sketch-obs`, the bottom crate of the workspace, so both
//! the spec layer in `sketch-core` (which re-exports it as `spec::json`) and the
//! trace exporters in [`crate::export`] can use one implementation.

use std::fmt;

/// Error produced when a JSON document fails to parse.
///
/// `sketch-core` converts this into its workspace-wide `Error::InvalidParameter`
/// variant, preserving the message verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// The byte offset and detail, formatted as
    /// `JSON parse error at byte {pos}: {detail}`.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `usize`, when it is an exact unsigned integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a JSON document.
    ///
    /// Arrays and objects may nest at most 128 levels deep (serde_json's
    /// limit); a deeper document is a [`JsonError`], never a stack overflow.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Render as a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    // JSON has no Inf/NaN literals; degrade to null like serde_json.
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts (serde_json's
/// recursion limit).  The parser recurses once per level, so an unbounded
/// depth would let a hostile document overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: &str) -> JsonError {
        JsonError {
            message: format!("JSON parse error at byte {}: {detail}", self.pos),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one nesting level down, refusing to go
    /// deeper than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!(
                "nesting deeper than {MAX_DEPTH} levels of arrays and objects"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                            let unit = self.hex4(self.pos + 1)?;
                            if (0xD800..=0xDBFF).contains(&unit) {
                                // RFC 8259: non-BMP characters arrive as a UTF-16
                                // surrogate pair of two \uXXXX escapes.
                                if self.bytes.get(self.pos + 5).copied() == Some(b'\\')
                                    && self.bytes.get(self.pos + 6).copied() == Some(b'u')
                                {
                                    let low = self.hex4(self.pos + 7)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(
                                            self.err("expected low surrogate after high surrogate")
                                        );
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(code)
                                            .ok_or_else(|| self.err("invalid \\u code point"))?,
                                    );
                                    self.pos += 10;
                                } else {
                                    return Err(self.err("unpaired surrogate in \\u escape"));
                                }
                            } else if (0xDC00..=0xDFFF).contains(&unit) {
                                return Err(self.err("unpaired low surrogate in \\u escape"));
                            } else {
                                out.push(
                                    char::from_u32(unit)
                                        .ok_or_else(|| self.err("invalid \\u code point"))?,
                                );
                                self.pos += 4;
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte sequences included).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Read four hex digits starting at `start` as a UTF-16 code unit.
    fn hex4(&self, start: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(start..start + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("invalid \\u escape"));
        }
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(JsonValue::parse("-1.5").unwrap(), JsonValue::Float(-1.5));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(
            JsonValue::parse("\"hi\\n\\\"there\\\"\"").unwrap(),
            JsonValue::Str("hi\n\"there\"".into())
        );
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn objects_and_arrays_round_trip() {
        let text = r#"{"a": [1, 2.5, "x"], "b": {"c": null, "d": true}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.as_array()).unwrap().len(), 3);
        assert_eq!(
            v.get("b").and_then(|b| b.get("d")).unwrap().as_bool(),
            Some(true)
        );
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        let v = JsonValue::parse("\"\\u0041π\"").unwrap();
        assert_eq!(v.as_str(), Some("Aπ"));
        let round = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // U+1F600 as the standard UTF-16 escape pair.
        let v = JsonValue::parse("\"\\ud83d\\ude00!\"").unwrap();
        assert_eq!(v.as_str(), Some("😀!"));
        // Lone high, lone low, and a high followed by a non-low are all invalid.
        assert!(JsonValue::parse("\"\\ud83d\"").is_err());
        assert!(JsonValue::parse("\"\\ude00\"").is_err());
        assert!(JsonValue::parse("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "01a",
            "{\"a\":}",
            "1 2",
            "\"\\q\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = JsonValue::parse("{\"n\": 3}").unwrap();
        assert!(v.as_str().is_none());
        assert!(v.as_array().is_none());
        assert!(v.as_bool().is_none());
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert!(v.get("missing").is_none());
        assert!(JsonValue::Null.get("x").is_none());
    }

    #[test]
    fn floats_render_reparseably() {
        let v = JsonValue::Float(0.25);
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn nesting_depth_is_capped_with_a_typed_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        // A hostile document deep enough to overflow an unbounded recursion.
        let err = JsonValue::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.message().contains("deeper than 128"), "{err}");
        // Exactly the cap parses; one level more does not, whether the levels
        // are arrays or objects.
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}null{}",
            "{\"a\":".repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        );
        assert!(JsonValue::parse(&objects).is_ok());
        let deeper = format!("[{objects}]");
        assert!(JsonValue::parse(&deeper).is_err());
    }

    #[test]
    fn parse_errors_carry_the_byte_offset() {
        let err = JsonValue::parse("[1, }").unwrap_err();
        assert!(err.message().starts_with("JSON parse error at byte "));
        assert_eq!(err.to_string(), err.message());
    }
}
