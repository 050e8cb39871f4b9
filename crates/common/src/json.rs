//! A minimal JSON reader/writer.
//!
//! FHIR resources (§ IV: "the format standard of electronic medical
//! records … employing the nested record organization") are JSON
//! documents; interpreting them schema-on-read needs a JSON parser. This
//! is a small, from-scratch implementation of the JSON data model —
//! objects, arrays, strings (with the standard escapes), f64 numbers,
//! booleans, null — sufficient for the FHIR case study. It is *not* a
//! general-purpose replacement for serde_json: numbers are f64 only and
//! object key order follows insertion.

use crate::error::{RedeError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    /// Sorted map (canonical output ordering; FHIR consumers are
    /// order-insensitive).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Array element access.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array items, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Walk a dotted path of object keys (`"resource.code.coding"`).
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        let mut cur = self;
        for key in dotted.split('.') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// Build an object from pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for ch in s.chars() {
        match ch {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses
/// once per level and documents come from outside (lake record text), so
/// without a bound a long run of `[` overflows the stack — an abort, not an
/// error a caller can handle.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> RedeError {
        RedeError::Interpret(format!("json at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.nested(Parser::object),
            b'[' => self.nested(Parser::array),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.err(&format!("unexpected {:?}", other as char))),
        }
    }

    /// Parse one array or object, one level further in.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => match self.bump().ok_or_else(|| self.err("bad escape"))? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(self.err("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| self.err("non-ascii \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?,
                        );
                    }
                    other => return Err(self.err(&format!("bad escape \\{}", other as char))),
                },
                // Multibyte UTF-8: copy the full character.
                b if b < 0x80 => out.push(b as char),
                b => {
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let start = self.pos - 1;
                    if start + width > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + width])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = start + width;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(map)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Number(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, {"b": "c"}, null], "d": {"e": true}}"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.path("d.e"), Some(&Json::Bool(true)));
        assert_eq!(json.get("a").unwrap().at(0), Some(&Json::Number(1.0)));
        assert_eq!(
            json.get("a")
                .unwrap()
                .at(1)
                .unwrap()
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "plain",
            "with \"quotes\"",
            "line\nbreak\ttab",
            "emoji 🗾 ok",
            "back\\slash",
        ] {
            let doc = Json::String(s.to_string()).to_string();
            assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(s), "doc: {doc}");
        }
        assert_eq!(Json::parse(r#""é""#).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let json = Json::object([
            ("resourceType", Json::string("Bundle")),
            ("total", Json::Number(3.0)),
            (
                "entry",
                Json::Array(vec![Json::object([("id", Json::string("x"))]), Json::Null]),
            ),
        ]);
        let text = json.to_string();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        // Deep enough to abort the process before the bound existed.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let json = Json::parse(" {\n\t\"a\" :  [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(json.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn accessors_on_wrong_types_return_none() {
        let json = Json::parse("[1]").unwrap();
        assert!(json.get("x").is_none());
        assert!(json.as_str().is_none());
        assert!(json.as_f64().is_none());
        assert!(Json::Null.at(0).is_none());
        assert!(json.path("a.b").is_none());
    }
}
