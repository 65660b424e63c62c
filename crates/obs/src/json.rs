//! A minimal hand-rolled JSON writer.
//!
//! The build environment has no crates.io access, so outcome
//! serialisation for external tooling is done with this small,
//! dependency-free writer.  It covers exactly what the benchmark binaries
//! need — objects, arrays, strings, booleans, integers and IEEE doubles —
//! and nothing else.
//!
//! Numbers use Rust's shortest-round-trip `Display` for `f64`, so parsing
//! the emitted JSON recovers the exact bit pattern; non-finite values
//! (which JSON cannot represent) are emitted as `null`.
//!
//! ```
//! use unsnap_obs::json::JsonObject;
//!
//! let s = JsonObject::new()
//!     .field_str("name", "tiny")
//!     .field_usize("sweeps", 12)
//!     .field_f64("flux", 1.5)
//!     .finish();
//! assert_eq!(s, r#"{"name":"tiny","sweeps":12,"flux":1.5}"#);
//! ```

/// Escape a string for inclusion in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number (`null` for non-finite values, which
/// JSON has no encoding for).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Rust's Display for f64 is the shortest string that round-trips.
        let s = format!("{v}");
        // `Display` never emits an exponent for integral values, but it
        // also never emits a trailing `.0` — both are valid JSON.
        s
    } else {
        "null".to_string()
    }
}

/// Incremental writer for a JSON object.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Append a string field.
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Append an `f64` field (`null` when non-finite).
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&number(value));
        self
    }

    /// Append a `usize` field.
    pub fn field_usize(mut self, key: &str, value: usize) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Append a `u64` field.
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Append a boolean field.
    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Append an array-of-doubles field.
    pub fn field_f64_array(mut self, key: &str, values: &[f64]) -> Self {
        self.key(key);
        self.buf.push_str(&array_f64(values));
        self
    }

    /// Append an array-of-usize field.
    pub fn field_usize_array(mut self, key: &str, values: &[usize]) -> Self {
        self.key(key);
        self.buf.push_str(&array_usize(values));
        self
    }

    /// Append a field whose value is already-serialised JSON (a nested
    /// object or array).
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serialise a slice of doubles as a JSON array.
pub fn array_f64(values: &[f64]) -> String {
    let mut buf = String::from("[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&number(v));
    }
    buf.push(']');
    buf
}

/// Serialise a slice of usize as a JSON array.
fn array_usize(values: &[usize]) -> String {
    let mut buf = String::from("[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&v.to_string());
    }
    buf.push(']');
    buf
}

/// Serialise already-serialised JSON values as a JSON array.
pub fn array_raw<I: IntoIterator<Item = String>>(values: I) -> String {
    let mut buf = String::from("[");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&v);
    }
    buf.push(']');
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape("a\\b"), r"a\\b");
        assert_eq!(escape("line\nbreak\ttab"), r"line\nbreak\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain ünïcode"), "plain ünïcode");
    }

    #[test]
    fn numbers_round_trip_and_non_finite_become_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(0.1), "0.1");
        let v: f64 = number(1.0 / 3.0).parse().unwrap();
        assert_eq!(v, 1.0 / 3.0);
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn non_finite_values_stay_valid_json_in_arrays_and_objects() {
        // The satellite concern: residual histories containing NaN/±inf
        // must still serialise to parseable JSON.
        let arr = array_f64(&[1.0, f64::NAN, f64::INFINITY]);
        assert_eq!(arr, "[1,null,null]");
        let obj = JsonObject::new().field_f64("r", f64::NAN).finish();
        assert_eq!(obj, r#"{"r":null}"#);
        assert!(crate::reader::parse(&arr).is_ok());
        assert!(crate::reader::parse(&obj).is_ok());
    }

    #[test]
    fn objects_and_arrays_compose() {
        let inner = array_f64(&[1.0, 0.5]);
        let s = JsonObject::new()
            .field_str("k", "v")
            .field_bool("ok", true)
            .field_u64("n", 3)
            .field_raw("h", &inner)
            .finish();
        assert_eq!(s, r#"{"k":"v","ok":true,"n":3,"h":[1,0.5]}"#);
        assert_eq!(array_raw(vec!["1".to_string(), "{}".to_string()]), "[1,{}]");
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array_f64(&[]), "[]");
        assert_eq!(array_usize(&[]), "[]");
        assert_eq!(array_usize(&[3, 1, 4]), "[3,1,4]");
        assert_eq!(
            JsonObject::new().field_usize_array("r", &[2, 5]).finish(),
            r#"{"r":[2,5]}"#
        );
    }
}
