//! A small recursive-descent JSON parser: the reading half of
//! [`json`](crate::json).
//!
//! The workspace emits JSON for tooling (outcome dumps, metrics records,
//! JSONL run logs) but until this module existed nothing in-tree could
//! consume it — round-trip tests, the `trajectory` merger and CI schema
//! checks all need a parser.  This one handles exactly standard JSON:
//! objects (key order preserved), arrays, strings with escapes, IEEE
//! numbers, booleans and `null`.
//!
//! ```
//! use unsnap_obs::reader::{parse, JsonValue};
//!
//! let v = parse(r#"{"name":"tiny","sweeps":12,"ok":true}"#).unwrap();
//! assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("tiny"));
//! assert_eq!(v.get("sweeps").and_then(JsonValue::as_usize), Some(12));
//! ```

use std::fmt;

/// A parsed JSON document.
///
/// Objects keep their fields in document order (a `Vec` of pairs, not a
/// map): the writer emits deterministic field order and the reader
/// preserves it, so round-tripped documents compare textually.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// workspace writer emits).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`, if this is a non-negative
    /// integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// True for `null` (the writer's encoding of non-finite floats).
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

impl fmt::Display for JsonValue {
    /// Re-serialise (compact form, same conventions as
    /// [`json`](crate::json) — field order preserved).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => write!(f, "{}", crate::json::number(*n)),
            JsonValue::String(s) => write!(f, "\"{}\"", crate::json::escape(s)),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", crate::json::escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error).  Errors carry the byte offset they occurred at.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(format!(
                                            "invalid low surrogate at byte {}",
                                            self.pos
                                        ));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(format!(
                                        "invalid unicode escape at byte {}",
                                        self.pos
                                    ))
                                }
                            }
                        }
                        other => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated unicode escape".to_string());
        }
        let hex =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|e| e.to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad hex at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{array_f64, JsonObject};

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("1.5e-3").unwrap(), JsonValue::Number(1.5e-3));
        assert_eq!(parse("-42").unwrap(), JsonValue::Number(-42.0));
        assert_eq!(
            parse(r#""a\nb""#).unwrap(),
            JsonValue::String("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures_preserving_field_order() {
        let v = parse(r#"{"b":[1,2,{"c":null}],"a":"x"}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert!(arr[2].get("c").unwrap().is_null());
        assert_eq!(v.get("a").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_the_writers_output() {
        let written = JsonObject::new()
            .field_str("name", "quick \"run\"")
            .field_usize("sweeps", 12)
            .field_f64("flux", 1.0 / 3.0)
            .field_bool("ok", true)
            .field_raw("hist", &array_f64(&[1.0, f64::NAN]))
            .finish();
        let v = parse(&written).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("quick \"run\""));
        assert_eq!(v.get("sweeps").unwrap().as_usize(), Some(12));
        assert_eq!(v.get("flux").unwrap().as_f64(), Some(1.0 / 3.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let hist = v.get("hist").unwrap().as_array().unwrap();
        assert_eq!(hist[0].as_f64(), Some(1.0));
        assert!(hist[1].is_null()); // NaN was written as null
                                    // Display re-serialises to the identical compact text.
        assert_eq!(v.to_string(), written);
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        // \uXXXX escapes, including a surrogate pair for U+1F600.
        assert_eq!(
            parse(r#""\u0041\u00e9""#).unwrap().as_str(),
            Some("A\u{e9}")
        );
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        // Raw multi-byte UTF-8 passes through untouched.
        assert_eq!(
            parse("\"plain ünïcode\"").unwrap().as_str(),
            Some("plain ünïcode")
        );
        // A lone high surrogate is not a character.
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("nul").is_err());
        let err = parse("[1,]").unwrap_err();
        assert!(err.contains("byte"), "error should locate itself: {err}");
    }

    #[test]
    fn numeric_accessors_guard_their_domains() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert!(parse("1099511627776").unwrap().as_u64().is_some());
        assert_eq!(parse("\"3\"").unwrap().as_f64(), None);
    }

    #[test]
    fn deeply_nested_values_parse_and_round_trip() {
        // 256 levels of alternating object/array nesting: the recursive
        // descent must neither reject nor corrupt a document this deep
        // (run-log event deltas nest phases inside records inside
        // frames, so depth is a real axis, if never this extreme).
        let depth = 256;
        let mut text = String::new();
        for _ in 0..depth {
            text.push_str(r#"{"inner":["#);
        }
        text.push_str("42");
        for _ in 0..depth {
            text.push_str("]}");
        }
        let v = parse(&text).unwrap();
        // Walk back down to the payload.
        let mut cursor = &v;
        for _ in 0..depth {
            cursor = &cursor.get("inner").unwrap().as_array().unwrap()[0];
        }
        assert_eq!(cursor.as_f64(), Some(42.0));
        // Display re-serialises to the identical text.
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn duplicate_keys_are_preserved_and_get_returns_the_first() {
        // The reader stores objects as ordered pairs, so duplicates are
        // representable; `get` resolves to the *first* occurrence — the
        // stable contract consumers (manifest parsing, event replay)
        // rely on when a log somehow carries a duplicated field.
        let v = parse(r#"{"outer":1,"outer":2,"flux":3}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(v.get("outer").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("flux").unwrap().as_f64(), Some(3.0));
        // Round-trip keeps both occurrences, in order.
        assert_eq!(v.to_string(), r#"{"outer":1,"outer":2,"flux":3}"#);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Fuzz-ish robustness: mutate random bytes of a writer-produced
        /// document into random printable ASCII and require the parser
        /// to return (Ok or Err) — never panic, hang or overflow.
        #[test]
        fn random_byte_mutations_error_not_panic(
            flips in proptest::collection::vec((0usize..512, 0x20usize..0x7f), 1..8),
        ) {
            let document = JsonObject::new()
                .field_str("name", "tiny")
                .field_f64("flux", 1.0 / 3.0)
                .field_raw("hist", &array_f64(&[1.0, f64::NAN, f64::INFINITY]))
                .field_bool("ok", true)
                .finish();
            let mut bytes = document.into_bytes();
            for (pos, replacement) in flips {
                let at = pos % bytes.len();
                bytes[at] = replacement as u8;
            }
            // Printable-ASCII substitutions keep the buffer valid UTF-8.
            let mutated = String::from_utf8(bytes).unwrap();
            let _ = parse(&mutated);
        }
    }
}
