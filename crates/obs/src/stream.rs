//! An in-memory, multi-consumer line stream for live telemetry.
//!
//! `unsnap-serve` streams a running solve's JSONL events to HTTP clients
//! while the solve is still producing them.  A channel hands each line
//! to one consumer once, so this module builds the one primitive the
//! server actually needs directly on `std::sync::{Mutex, Condvar}`: a
//! [`LineChannel`] that
//!
//! * accepts lines from one producer (via [`LineChannel::push`] or the
//!   [`std::io::Write`] adapter [`ChannelWriter`], which a
//!   `JsonlWriter` can sit on top of),
//! * retains every line, so a consumer attaching mid-run replays the
//!   full history before tailing (each job's event log is bounded by
//!   its iteration counts, so retention is the right trade here), and
//! * lets any number of consumers block with a timeout for lines past
//!   an offset ([`LineChannel::wait_at`]) — the shape an HTTP chunked
//!   responder needs: "give me everything after line `i`, or tell me
//!   the stream closed".
//!
//! Clones share the buffer; closing is idempotent and wakes every
//! waiter.
//!
//! ```
//! use unsnap_obs::stream::LineChannel;
//! use std::time::Duration;
//!
//! let channel = LineChannel::new();
//! channel.push("first");
//! let (lines, closed) = channel.wait_at(0, Duration::from_millis(1));
//! assert_eq!(lines, vec!["first".to_string()]);
//! assert!(!closed);
//! channel.close();
//! let (rest, closed) = channel.wait_at(1, Duration::from_millis(1));
//! assert!(rest.is_empty());
//! assert!(closed);
//! ```

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct StreamState {
    lines: Vec<String>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<StreamState>,
    cv: Condvar,
}

/// A shared, append-only line stream (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct LineChannel {
    shared: Arc<Shared>,
}

impl LineChannel {
    /// A fresh, open, empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one line and wake every waiter.  Pushing to a closed
    /// channel is a silent no-op (the producer lost the race against a
    /// cancel; dropping the tail is the intended outcome).
    pub fn push(&self, line: impl Into<String>) {
        let mut state = self.shared.state.lock().unwrap();
        if state.closed {
            return;
        }
        state.lines.push(line.into());
        drop(state);
        self.shared.cv.notify_all();
    }

    /// Close the stream: no further lines, every current and future
    /// waiter unblocks.  Idempotent.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.shared.cv.notify_all();
    }

    /// Whether the stream has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.state.lock().unwrap().closed
    }

    /// Lines accepted so far.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().lines.len()
    }

    /// `true` when no line has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every line accepted so far.
    pub fn snapshot(&self) -> Vec<String> {
        self.shared.state.lock().unwrap().lines.clone()
    }

    /// Block (up to `timeout`) until a line past index `from` exists or
    /// the stream closes; returns the lines from `from` onward (possibly
    /// empty on timeout) and whether the stream is closed.  The consumer
    /// loop is `from += returned.len()` until `closed`.
    pub fn wait_at(&self, from: usize, timeout: Duration) -> (Vec<String>, bool) {
        let state = self.shared.state.lock().unwrap();
        let (state, _timed_out) = self
            .shared
            .cv
            .wait_timeout_while(state, timeout, |s| s.lines.len() <= from && !s.closed)
            .unwrap();
        let lines = state.lines.get(from..).unwrap_or_default().to_vec();
        (lines, state.closed)
    }

    /// A [`std::io::Write`] adapter feeding this channel, one line per
    /// `\n`-terminated chunk — the glue that lets a `JsonlWriter` (or
    /// any line-oriented writer) stream straight into the channel.
    pub fn writer(&self) -> ChannelWriter {
        ChannelWriter {
            channel: self.clone(),
            buf: Vec::new(),
        }
    }
}

/// The [`std::io::Write`] adapter returned by [`LineChannel::writer`].
///
/// Bytes buffer until a `\n`, then the completed line (without the
/// terminator, lossily UTF-8-decoded) is pushed.  Dropping the writer
/// flushes an unterminated tail as a final line; it does **not** close
/// the channel — lifecycle stays with the owner, so a solve's writer
/// can be dropped while the server keeps the stream open for its own
/// status epilogue.
#[derive(Debug)]
pub struct ChannelWriter {
    channel: LineChannel,
    buf: Vec<u8>,
}

impl ChannelWriter {
    /// The channel this writer feeds.
    pub fn channel(&self) -> &LineChannel {
        &self.channel
    }
}

impl io::Write for ChannelWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &byte in buf {
            if byte == b'\n' {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.channel.push(line);
                self.buf.clear();
            } else {
                self.buf.push(byte);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for ChannelWriter {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let line = String::from_utf8_lossy(&self.buf).into_owned();
            self.channel.push(line);
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn push_snapshot_and_len() {
        let channel = LineChannel::new();
        assert!(channel.is_empty());
        channel.push("a");
        channel.push("b".to_string());
        assert_eq!(channel.len(), 2);
        assert_eq!(channel.snapshot(), vec!["a".to_string(), "b".to_string()]);
        assert!(!channel.is_closed());
    }

    #[test]
    fn wait_at_returns_immediately_when_lines_exist() {
        let channel = LineChannel::new();
        channel.push("x");
        channel.push("y");
        let (lines, closed) = channel.wait_at(1, Duration::from_secs(5));
        assert_eq!(lines, vec!["y".to_string()]);
        assert!(!closed);
    }

    #[test]
    fn wait_at_times_out_empty_on_a_quiet_stream() {
        let channel = LineChannel::new();
        let (lines, closed) = channel.wait_at(0, Duration::from_millis(10));
        assert!(lines.is_empty());
        assert!(!closed);
    }

    #[test]
    fn close_wakes_waiters_and_stops_pushes() {
        let channel = LineChannel::new();
        let waiter = {
            let channel = channel.clone();
            std::thread::spawn(move || channel.wait_at(0, Duration::from_secs(30)))
        };
        channel.close();
        let (lines, closed) = waiter.join().expect("waiter");
        assert!(lines.is_empty());
        assert!(closed);
        channel.push("too late");
        assert!(channel.is_empty());
        channel.close(); // idempotent
    }

    #[test]
    fn producer_and_consumer_stream_across_threads() {
        let channel = LineChannel::new();
        let producer = {
            let channel = channel.clone();
            std::thread::spawn(move || {
                for i in 0..5 {
                    channel.push(format!("line {i}"));
                }
                channel.close();
            })
        };
        let mut seen = Vec::new();
        loop {
            let (lines, closed) = channel.wait_at(seen.len(), Duration::from_secs(30));
            seen.extend(lines);
            if closed && seen.len() == channel.len() {
                break;
            }
        }
        producer.join().expect("producer");
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4], "line 4");
    }

    #[test]
    fn writer_splits_on_newlines_and_flushes_tail_on_drop() {
        let channel = LineChannel::new();
        {
            let mut writer = channel.writer();
            writer.write_all(b"one\ntw").unwrap();
            writer.write_all(b"o\ntail").unwrap();
            writer.flush().unwrap();
            assert_eq!(writer.channel().len(), 2);
        }
        // Drop flushed the unterminated tail but left the channel open.
        assert_eq!(
            channel.snapshot(),
            vec!["one".to_string(), "two".to_string(), "tail".to_string()]
        );
        assert!(!channel.is_closed());
    }
}
