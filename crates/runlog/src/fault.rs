//! Fault injection for durability tests: writers that tear mid-write.
//!
//! [`FaultyWriter`] wraps any [`Write`] and fails after a byte budget,
//! optionally completing a *partial* write first — exactly the shape of
//! a crash landing mid-`write(2)`.  It lives in the library proper (not
//! behind `cfg(test)`) so integration tests and the durability smoke
//! binary can inject crashes without killing processes.
//!
//! [`SharedBuffer`] is the matching capture target: a clonable
//! `Vec<u8>` sink whose contents survive the writer being dropped, so a
//! test can inspect exactly which bytes hit "disk" before the crash.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A writer that tears after a fixed number of bytes.
///
/// Bytes up to the budget pass through to the inner writer; the write
/// that crosses the budget is *partially* applied (everything up to the
/// budget) and then reported as failed, and every later write fails
/// immediately.
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    budget: u64,
}

impl<W: Write> FaultyWriter<W> {
    /// A writer that tears after exactly `n_bytes` bytes have been
    /// written through it.
    pub fn crash_after(inner: W, n_bytes: u64) -> Self {
        Self {
            inner,
            budget: n_bytes,
        }
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("injected crash: write budget exhausted"));
        }
        let allowed = (self.budget as usize).min(buf.len());
        let written = self.inner.write(&buf[..allowed])?;
        self.budget -= written as u64;
        if written < buf.len() {
            // The torn write: part of the buffer landed, the rest never
            // will.  Report the failure now so the caller aborts instead
            // of retrying the remainder.
            Err(io::Error::other("injected crash: torn write"))
        } else {
            Ok(written)
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A clonable in-memory byte sink; clones share the same buffer.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("shared buffer lock").clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("shared buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tears_mid_write_and_stays_dead() {
        let sink = SharedBuffer::new();
        let mut w = FaultyWriter::crash_after(sink.clone(), 3);
        assert!(w.write_all(b"hello").is_err());
        assert_eq!(sink.bytes(), b"hel");
        assert!(w.write_all(b"x").is_err());
        assert_eq!(sink.bytes(), b"hel");
    }

    #[test]
    fn exact_budget_fails_only_on_the_next_write() {
        let sink = SharedBuffer::new();
        let mut w = FaultyWriter::crash_after(sink.clone(), 5);
        w.write_all(b"hello").unwrap();
        assert!(w.write_all(b"!").is_err());
        assert_eq!(sink.bytes(), b"hello");
    }
}
