//! The write side: [`CheckpointObserver`] streams a solve into a run
//! log.
//!
//! The observer plays two roles at once — it listens to the full
//! [`RunObserver`] stream (buffering events since the last frame as a
//! *delta*), and it acts as the checkpoint sink that serialises solver
//! state at outer-iteration boundaries.  Rust cannot lend one value
//! mutably through two parameters, so the two roles share state through
//! an `Rc<RefCell<…>>`: the observer half is passed as the observer (or
//! inside a [`TeeObserver`](unsnap_core::session::TeeObserver)), and
//! [`CheckpointObserver::sink`] hands out the sink half.  Events and
//! checkpoints both arrive synchronously on the driver thread, so the
//! single-threaded `RefCell` is sound.
//!
//! Frames are flushed as written: after a crash at *any* byte, the log
//! holds a valid prefix ending at the last flushed frame, which is
//! exactly what [`recover`](crate::recover::recover) restores.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

use unsnap_core::error::{Error, Result};
use unsnap_core::problem::Problem;
use unsnap_core::session::{EventLog, Lane, RunObserver, SolveEvent};
use unsnap_core::solver::{CheckpointSink, CheckpointView};
use unsnap_obs::json::JsonObject;

use crate::checkpoint;
use crate::frame::{self, TAG_CHECKPOINT, TAG_FINISHED, TAG_MANIFEST};
use crate::manifest::{Manifest, RunMode};
use crate::recover;

fn io_error(context: &str, err: std::io::Error) -> Error {
    Error::Execution {
        reason: format!("run log {context}: {err}"),
    }
}

struct CkInner {
    writer: Box<dyn Write>,
    /// Events since the last written frame.
    delta: EventLog,
    /// Prefix events replayed into this observer on resume; dropped
    /// from the front of the delta at the next frame write so already
    /// persisted events are not written twice.
    skip: usize,
    /// Write a checkpoint frame every `every` outer iterations.
    every: usize,
    /// The problem's outer-iteration budget (exhaustion finishes the
    /// run even without convergence).
    outer_iterations: usize,
    mode: RunMode,
    finished: bool,
}

impl CkInner {
    fn write_frame(&mut self, tag: u8, payload: &[u8]) -> Result<()> {
        let bytes = frame::frame_bytes(tag, payload);
        self.writer
            .write_all(&bytes)
            .map_err(|e| io_error("frame write failed", e))?;
        self.writer.flush().map_err(|e| io_error("flush failed", e))
    }

    /// Take the buffered delta, dropping any still-pending resume
    /// prefix from its front.
    fn drain_delta(&mut self) -> EventLog {
        let skip = std::mem::take(&mut self.skip);
        let mut delta = std::mem::take(&mut self.delta);
        if skip > 0 {
            delta.events.drain(..skip.min(delta.events.len()));
        }
        delta
    }

    fn finished_payload(outer_completed: usize, converged: bool) -> String {
        JsonObject::new()
            .field_usize("outer_completed", outer_completed)
            .field_bool("converged", converged)
            .finish()
    }

    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> Result<()> {
        let (found, expected) = (view.rank_stats.len(), self.mode.num_ranks());
        if found != expected {
            return Err(Error::Execution {
                reason: format!(
                    "run log was opened for a {} run ({expected} rank(s)) but received a \
                     checkpoint of {found} rank(s)",
                    self.mode.label()
                ),
            });
        }
        if self.finished {
            return Ok(());
        }
        if view.converged || view.outer_completed + 1 == self.outer_iterations {
            self.drain_delta();
            let payload = Self::finished_payload(view.outer_completed, view.converged);
            self.write_frame(TAG_FINISHED, payload.as_bytes())?;
            self.finished = true;
        } else if (view.outer_completed + 1).is_multiple_of(self.every) {
            let events = self.drain_delta();
            let payload = checkpoint::to_json(view, &events);
            self.write_frame(TAG_CHECKPOINT, payload.as_bytes())?;
        }
        Ok(())
    }
}

/// A [`RunObserver`] that persists the solve into a run log.
///
/// Pass the observer itself (usually teed with the caller's own
/// observer) to `run_observed_checkpointed` / `run_checkpointed`, and
/// pass [`CheckpointObserver::sink`] as the checkpoint sink of the same
/// call.
pub struct CheckpointObserver {
    inner: Rc<RefCell<CkInner>>,
}

/// The sink half of a [`CheckpointObserver`], for either driver.
pub struct CheckpointSinkHandle {
    inner: Rc<RefCell<CkInner>>,
}

impl CheckpointObserver {
    /// Start a fresh run log on an arbitrary writer (the test seam:
    /// pair it with [`FaultyWriter`](crate::fault::FaultyWriter) or
    /// [`SharedBuffer`](crate::fault::SharedBuffer)).
    ///
    /// Writes the header and the manifest frame immediately, so even a
    /// run that crashes before its first checkpoint leaves a
    /// recoverable (empty) log.
    pub fn with_writer(
        mut writer: Box<dyn Write>,
        problem: &Problem,
        mode: RunMode,
        every: usize,
    ) -> Result<Self> {
        if every == 0 {
            return Err(Error::invalid_problem(
                "checkpoint_iters",
                "checkpoint cadence must be at least 1",
            ));
        }
        let manifest = Manifest::new(problem.clone(), mode);
        writer
            .write_all(&frame::header_bytes())
            .map_err(|e| io_error("header write failed", e))?;
        let inner = Rc::new(RefCell::new(CkInner {
            writer,
            delta: EventLog::default(),
            skip: 0,
            every,
            outer_iterations: problem.outer_iterations,
            mode,
            finished: false,
        }));
        inner
            .borrow_mut()
            .write_frame(TAG_MANIFEST, manifest.to_json().as_bytes())?;
        Ok(Self { inner })
    }

    /// Start a fresh run log at `path` (truncating any existing file).
    pub fn create(
        path: impl AsRef<Path>,
        problem: &Problem,
        mode: RunMode,
        every: usize,
    ) -> Result<Self> {
        let file = File::create(path.as_ref()).map_err(|e| io_error("create failed", e))?;
        Self::with_writer(Box::new(file), problem, mode, every)
    }

    /// Re-open an interrupted run log for append.
    ///
    /// The torn tail (if any) is physically truncated away, and the
    /// observer arms itself to *skip* the recovered event prefix: the
    /// resume path replays that prefix into every observer (so caller
    /// streams are bit-for-bit complete), but those events are already
    /// persisted in earlier frames and must not be written twice.
    ///
    /// Fails on a completed log — there is nothing left to append, and
    /// re-running the tail would duplicate frames.
    pub fn resume(path: impl AsRef<Path>, every: usize) -> Result<Self> {
        let path = path.as_ref();
        let recovered = recover::recover(path)?;
        if recovered.completed {
            return Err(Error::Execution {
                reason: format!(
                    "run log {} records a completed run; nothing to resume",
                    path.display()
                ),
            });
        }
        if every == 0 {
            return Err(Error::invalid_problem(
                "checkpoint_iters",
                "checkpoint cadence must be at least 1",
            ));
        }
        let prefix_events = recovered
            .resume
            .as_ref()
            .map_or(0, |point| point.prefix.events.len());
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_error("open for append failed", e))?;
        file.set_len(recovered.valid_len)
            .map_err(|e| io_error("truncate failed", e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_error("seek failed", e))?;
        Ok(Self {
            inner: Rc::new(RefCell::new(CkInner {
                writer: Box::new(file),
                delta: EventLog::default(),
                skip: prefix_events,
                every,
                outer_iterations: recovered.manifest.problem.outer_iterations,
                mode: recovered.manifest.mode,
                finished: false,
            })),
        })
    }

    /// The checkpoint-sink half, sharing this observer's state.
    pub fn sink(&self) -> CheckpointSinkHandle {
        CheckpointSinkHandle {
            inner: Rc::clone(&self.inner),
        }
    }

    /// `true` once a finished frame has been written.
    pub fn finished(&self) -> bool {
        self.inner.borrow().finished
    }
}

impl RunObserver for CheckpointObserver {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        self.inner.borrow_mut().delta.on_event(lane, event);
    }
}

impl CheckpointSink for CheckpointSinkHandle {
    fn on_checkpoint(&mut self, view: &CheckpointView<'_>) -> Result<()> {
        self.inner.borrow_mut().checkpoint(view)
    }
}
