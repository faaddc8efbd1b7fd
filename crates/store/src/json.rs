//! A hand-rolled JSON reader.
//!
//! The workspace builds offline against a no-op `serde` stub (see
//! `vendor/README.md`), so the one place that reads JSON — `benchmark/`,
//! for `BENCHMARK.json` and for the result line each of its runs prints —
//! does it through this small, dependency-free parser. [`parse`] reads any
//! JSON document into a [`JsonValue`] tree, preserving object key order;
//! nothing in the workspace writes JSON through this crate.

use crate::codec::DecodeError;

/// Deepest nesting of arrays and objects [`parse`] follows. It recurses
/// once per level, so without a bound a long run of `[` overflows the
/// stack instead of returning an error.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document. Objects preserve key order, so a reader can
/// report fields in the order the document lists them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; parsed as a finite `f64`, so integers are exact
    /// up to 53 bits.
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document into a [`JsonValue`].
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] for truncated input,
/// [`DecodeError::BadTag`] for an unexpected byte (reported as the
/// offending byte), [`DecodeError::TrailingBytes`] if anything but
/// whitespace follows the document, and [`DecodeError::Invalid`] for
/// arrays and objects nested more than 128 deep or a number too large for
/// a finite `f64`.
pub fn parse(text: &str) -> Result<JsonValue, DecodeError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, DecodeError> {
        let b = self.peek().ok_or(DecodeError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DecodeError> {
        let got = self.bump()?;
        if got == b {
            Ok(())
        } else {
            Err(DecodeError::BadTag(got))
        }
    }

    fn literal(&mut self, text: &[u8], v: JsonValue) -> Result<JsonValue, DecodeError> {
        if self.bytes.len() - self.pos < text.len() {
            return Err(DecodeError::UnexpectedEnd);
        }
        if &self.bytes[self.pos..self.pos + text.len()] != text {
            return Err(DecodeError::BadTag(self.bytes[self.pos]));
        }
        self.pos += text.len();
        Ok(v)
    }

    /// Parses the value at `pos`, which `depth` arrays and objects enclose.
    fn value(&mut self, depth: usize) -> Result<JsonValue, DecodeError> {
        match self.peek().ok_or(DecodeError::UnexpectedEnd)? {
            b'{' | b'[' if depth == MAX_DEPTH => {
                Err(DecodeError::Invalid("JSON nested deeper than 128 levels"))
            }
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.literal(b"true", JsonValue::Bool(true)),
            b'f' => self.literal(b"false", JsonValue::Bool(false)),
            b'n' => self.literal(b"null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            b => Err(DecodeError::BadTag(b)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, DecodeError> {
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
            self.skip_ws();
            let v = self.value(depth)?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(JsonValue::Object(fields)),
                b => return Err(DecodeError::BadTag(b)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, DecodeError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(JsonValue::Array(items)),
                b => return Err(DecodeError::BadTag(b)),
            }
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            let digit = (d as char).to_digit(16).ok_or(DecodeError::BadTag(d))?;
                            code = code * 16 + digit;
                        }
                        // Surrogates would need pairing; no document read
                        // here escapes anything beyond the basic plane.
                        out.push(char::from_u32(code).ok_or(DecodeError::BadUtf8)?);
                    }
                    b => return Err(DecodeError::BadTag(b)),
                },
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence
                    // is valid; copy its continuation bytes through.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump()?;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| DecodeError::BadUtf8)?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, DecodeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| DecodeError::BadUtf8)?;
        let n: f64 = text.parse().map_err(|_| DecodeError::BadTag(self.bytes[start]))?;
        // `str::parse` rounds an out-of-range literal to infinity; JSON
        // has no such number.
        if !n.is_finite() {
            return Err(DecodeError::Invalid("JSON number is not finite"));
        }
        Ok(JsonValue::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_a_literal_document() {
        let text = "{\"n\":3,\"ok\":true,\"rate\":1.500,\"bad\":null,\
                    \"name\":\"a\\\"b\\\\c\\nd\\u0001 ☃\",\"inner\":{\"k\":7},\
                    \"xs\":[1,\"two\",{\"three\":3},[[],[null]]],\"none\":{},\"empty\":[]}";
        let v = parse(text).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("rate").unwrap().as_u64(), None);
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd\u{1} ☃"));
        assert_eq!(v.get("inner").unwrap().get("k").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("xs"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::String("two".into()),
                JsonValue::Object(vec![("three".into(), JsonValue::Number(3.0))]),
                JsonValue::Array(vec![
                    JsonValue::Array(vec![]),
                    JsonValue::Array(vec![JsonValue::Null]),
                ]),
            ]))
        );
        assert_eq!(v.get("none"), Some(&JsonValue::Object(vec![])));
        assert_eq!(v.get("empty"), Some(&JsonValue::Array(vec![])));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").unwrap().get("k"), None);
        // Key order is the document's.
        match &v {
            JsonValue::Object(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    ["n", "ok", "rate", "bad", "name", "inner", "xs", "none", "empty"]
                );
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn parser_accepts_whitespace_and_negatives() {
        let v = parse(" { \"a\" : [ -1.5e2 , null , false ] } ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(-150.0),
                JsonValue::Null,
                JsonValue::Bool(false),
            ]))
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        // A lone surrogate is not a character.
        assert_eq!(parse("\"\\ud800\""), Err(DecodeError::BadUtf8));
        // Out of `f64`'s range is not a JSON number; the largest finite one is.
        assert!(matches!(parse("1e999"), Err(DecodeError::Invalid(_))));
        assert!(matches!(parse("[-1e999]"), Err(DecodeError::Invalid(_))));
        assert_eq!(parse("1.7976931348623157e308").unwrap().as_f64(), Some(f64::MAX));
        // Nesting is followed to `MAX_DEPTH` and refused beyond it, however
        // long the run of openers: an error, never a stack overflow.
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(matches!(parse(&nest(MAX_DEPTH + 1)), Err(DecodeError::Invalid(_))));
        assert!(matches!(parse(&"[".repeat(200_000)), Err(DecodeError::Invalid(_))));
        assert!(matches!(parse(&"{\"a\":".repeat(200_000)), Err(DecodeError::Invalid(_))));
    }
}
