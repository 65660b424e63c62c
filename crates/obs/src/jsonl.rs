//! Line-oriented JSON (JSONL): the run-log format.
//!
//! A run log is one JSON document per line — append-friendly,
//! stream-parseable, and trivially mergeable, which is exactly what the
//! solver's event log writer needs.  The writer refuses nothing but newlines (a document
//! with an embedded newline would corrupt the framing, so it errors);
//! the readers parse each non-empty line with [`crate::reader`]
//! and report the 1-based line number on failure.
//!
//! ```
//! use unsnap_obs::jsonl::{read_str, JsonlWriter};
//!
//! let mut buf = Vec::new();
//! {
//!     let mut w = JsonlWriter::new(&mut buf);
//!     w.write_line(r#"{"sweep":1}"#).unwrap();
//!     w.write_line(r#"{"sweep":2}"#).unwrap();
//! }
//! let docs = read_str(std::str::from_utf8(&buf).unwrap()).unwrap();
//! assert_eq!(docs.len(), 2);
//! assert_eq!(docs[1].get("sweep").unwrap().as_usize(), Some(2));
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::reader::{self, JsonValue};

/// An append-only writer of one-JSON-document-per-line streams.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    inner: W,
}

impl JsonlWriter<BufWriter<File>> {
    /// Create (truncating) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlWriter<W> {
    /// Wrap any writer.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// Append one JSON document as a line.  `json` must be a complete
    /// single-line document (embedded newlines would break the framing).
    pub fn write_line(&mut self, json: &str) -> io::Result<()> {
        if json.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "JSONL documents must not contain newlines",
            ));
        }
        self.inner.write_all(json.as_bytes())?;
        self.inner.write_all(b"\n")
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: Write> Drop for JsonlWriter<W> {
    fn drop(&mut self) {
        let _ = self.inner.flush();
    }
}

/// Parse a JSONL string: one [`JsonValue`] per non-empty line.
pub fn read_str(text: &str) -> Result<Vec<JsonValue>, String> {
    let mut docs = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = reader::parse(line).map_err(|e| format!("line {}: {e}", index + 1))?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Read and parse a JSONL file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<JsonValue>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    read_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_reads_back() {
        let mut buf = Vec::new();
        {
            let mut w = JsonlWriter::new(&mut buf);
            w.write_line(r#"{"a":1}"#).unwrap();
            w.write_line("[true,null]").unwrap();
            w.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "{\"a\":1}\n[true,null]\n");
        let docs = read_str(&text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("a").unwrap().as_usize(), Some(1));
        assert_eq!(docs[1].as_array().unwrap()[0].as_bool(), Some(true));
    }

    #[test]
    fn rejects_embedded_newlines() {
        let mut w = JsonlWriter::new(Vec::new());
        assert!(w.write_line("{\n}").is_err());
    }

    #[test]
    fn blank_lines_are_skipped_and_errors_carry_line_numbers() {
        let docs = read_str("\n{\"a\":1}\n\n").unwrap();
        assert_eq!(docs.len(), 1);
        let err = read_str("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("unsnap-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        {
            let mut w = JsonlWriter::create(&path).unwrap();
            w.write_line(r#"{"run":1}"#).unwrap();
            w.write_line(r#"{"run":2}"#).unwrap();
        }
        let docs = read_file(&path).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].get("run").unwrap().as_usize(), Some(2));
        assert!(read_file(dir.join("missing.jsonl")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
