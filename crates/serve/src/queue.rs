//! The bounded job queue and its worker pool.
//!
//! Solve requests do not run on the connection thread: they enter a
//! bounded FIFO and a fixed pool of worker threads drains it, so a burst
//! of requests degrades into queueing latency instead of unbounded
//! concurrency.  Each worker runs one solve at a time through the
//! ordinary [`TransportSolver`] API; the solve itself forks a team of threads
//! once per sweep, as wide as the problem asks, exactly as a CLI run
//! would (`RAYON_NUM_THREADS` force-overrides every team's width, as in
//! the CI determinism matrix), so the worker count bounds *how many
//! solves* run concurrently, not how many threads a solve uses.  Between
//! sweeps a solve holds no thread but the worker's.
//!
//! A job moves through the state machine
//!
//! ```text
//! Resumable ──▶ Queued ──▶ Running ──▶ Done
//!    ▲            │           │  └───▶ Failed
//!    │(restart)   └───────────┴──────▶ Cancelled
//! ```
//!
//! * `Queued → Cancelled` is immediate (the entry leaves the FIFO);
//! * `Running → Cancelled` is cooperative: the job's
//!   [`CancelToken`] is raised and the solver observes it at its next
//!   outer-iteration boundary, surfacing
//!   [`Error::Cancelled`] — the worker then records the state and moves
//!   on to the next job, fully serviceable;
//! * `Done`, `Failed` and `Cancelled` are terminal.
//! * `Resumable` exists only on a queue started with a run-log
//!   directory ([`JobQueue::start_with_runlog`]): jobs checkpoint into
//!   `job-{id}.runlog` as they solve, and a restarted queue re-lists
//!   every interrupted (non-completed) log as a `Resumable` job.
//!   [`JobQueue::resume`] moves it back into the FIFO, where a worker
//!   restores the solver from the last intact checkpoint and finishes
//!   the run — bit-for-bit what the uninterrupted run would have
//!   produced.  `Done` jobs delete their log; cancelled and failed
//!   runs keep theirs so a restart can pick them back up.
//!
//! Every job owns a [`LineChannel`] of its JSONL solve events (fed by a
//! [`JsonlObserver`] during the run, closed with a final `job_done`
//! line), which is what `GET /v1/jobs/{id}/events` tails.  Submission
//! consults the [`ResultStore`] first: a hit births the job directly in
//! `Done` with the cached outcome bytes and no solver work at all.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use unsnap_core::cancel::CancelToken;
use unsnap_core::error::{Error, Result};
use unsnap_core::problem::Problem;
use unsnap_core::session::{JsonlObserver, TeeObserver};
use unsnap_core::solver::{SolveOutcome, TransportSolver};
use unsnap_obs::json::JsonObject;
use unsnap_obs::jsonl::JsonlWriter;
use unsnap_obs::metrics::{Determinism, Histogram, MetricsRegistry};
use unsnap_obs::stream::LineChannel;
use unsnap_runlog::{recover, reopen, CheckpointObserver, Reopened, RunMode};

use crate::store::ResultStore;

/// The counter of connections refused at the connection-handler cap.
const CONNECTIONS_REFUSED: &str = "serve_connections_refused";

/// The lifecycle state of a job (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Recovered from an interrupted run log at startup; waiting for a
    /// [`JobQueue::resume`] call to re-enter the FIFO.
    Resumable,
    /// Waiting in the FIFO.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished successfully; the outcome JSON is available.
    Done,
    /// The solve returned an error other than cancellation.
    Failed,
    /// Cancelled before or during the solve.
    Cancelled,
}

impl JobState {
    /// The wire label (`"queued"`, `"running"`, …).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            JobState::Resumable => "resumable",
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A point-in-time snapshot of one job, as the status endpoint reports
/// it.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job ID.
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Whether the outcome was served from the result cache.
    pub cached: bool,
    /// The canonical hash of the job's problem (the cache key).
    pub hash: u64,
    /// The rendered outcome JSON (`Done` jobs only), shared with the
    /// result cache and every hit on it.
    pub outcome_json: Option<Arc<str>>,
    /// The error display string (`Failed`/`Cancelled` jobs).
    pub error: Option<String>,
}

/// The receipt returned by [`JobQueue::submit`].
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// The new job's ID.
    pub id: u64,
    /// The canonical hash of the submitted problem.
    pub hash: u64,
    /// `true` when the result cache satisfied the request (the job is
    /// already `Done`).
    pub cached: bool,
    /// The job's state at submission (`Queued`, or `Done` on a hit).
    pub state: JobState,
}

#[derive(Debug)]
struct JobEntry {
    problem: Problem,
    state: JobState,
    cached: bool,
    hash: u64,
    outcome_json: Option<Arc<str>>,
    /// The run's span tree as Chrome `trace_event` JSON (`Done` jobs
    /// that actually solved; cache hits replay no work, so no trace).
    trace_json: Option<String>,
    error: Option<String>,
    cancel: CancelToken,
    events: LineChannel,
    /// `Some` once an interrupted run log exists for this job — the
    /// worker resumes from it instead of starting fresh.
    resume_log: Option<PathBuf>,
    /// When the job entered the queue — the anchor of the queue-wait
    /// and time-to-first-event latency histograms.
    submitted_at: Instant,
}

impl JobEntry {
    /// A job with nothing attached yet: no outcome, trace or error, a
    /// fresh cancel token and event stream, no run log to resume.
    fn new(problem: Problem, hash: u64, state: JobState) -> Self {
        Self {
            problem,
            state,
            cached: false,
            hash,
            outcome_json: None,
            trace_json: None,
            error: None,
            cancel: CancelToken::new(),
            events: LineChannel::new(),
            resume_log: None,
            submitted_at: Instant::now(),
        }
    }

    /// Cancel a job that never left the FIFO, closing its stream.
    fn cancel_queued(&mut self, reason: &str) {
        self.state = JobState::Cancelled;
        self.error = Some(reason.to_string());
        close_with_job_done(&self.events, JobState::Cancelled, false, None);
    }
}

/// Close a job's event stream with its final `job_done` line: the
/// terminal status, then `"cached":true` for a cache hit or the error of
/// a solve that failed or was cancelled.
fn close_with_job_done(events: &LineChannel, status: JobState, cached: bool, error: Option<&str>) {
    let mut line = JsonObject::new()
        .field_str("event", "job_done")
        .field_str("status", status.label());
    if cached {
        line = line.field_bool("cached", true);
    }
    if let Some(error) = error {
        line = line.field_str("error", error);
    }
    events.push(line.finish());
    events.close();
}

/// Durability settings shared by the workers.
#[derive(Debug, Clone)]
struct RunlogSettings {
    dir: PathBuf,
    every: usize,
}

impl RunlogSettings {
    fn job_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id}.runlog"))
    }
}

#[derive(Debug, Default)]
struct QueueState {
    next_id: u64,
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    shutdown: bool,
}

#[derive(Debug)]
struct QueueShared {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
    metrics: Mutex<MetricsRegistry>,
    store: Mutex<ResultStore>,
    runlog: Option<RunlogSettings>,
}

impl QueueShared {
    fn count(&self, name: &str) {
        self.metrics
            .lock()
            .unwrap()
            .counter_add(name, Determinism::Deterministic, 1);
    }

    /// Record one wall-clock latency sample into a histogram created on
    /// first touch with the standard latency bucket scale.
    fn observe_seconds(&self, name: &str, seconds: f64) {
        self.metrics.lock().unwrap().histogram_record(
            name,
            Determinism::WallClock,
            Histogram::latency_seconds,
            seconds,
        );
    }
}

/// The bounded FIFO + worker pool behind `POST /v1/solve` (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct JobQueue {
    shared: Arc<QueueShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobQueue {
    /// Start `workers` worker threads over a FIFO holding at most
    /// `capacity` queued jobs, with a result cache of `cache_capacity`
    /// outcomes.  With `runlog_dir` set, every
    /// job checkpoints into `{dir}/job-{id}.runlog` every
    /// `checkpoint_iters` outer iterations, and startup scans the
    /// directory for interrupted logs, re-listing each as a
    /// [`JobState::Resumable`] job (completed or unreadable logs are
    /// skipped).  Fails with [`Error::Execution`] when the directory
    /// cannot be created or scanned, and with
    /// [`Error::InvalidProblem`] on a zero cadence.
    pub fn start_with_runlog(
        workers: usize,
        capacity: usize,
        cache_capacity: usize,
        runlog_dir: Option<PathBuf>,
        checkpoint_iters: usize,
    ) -> Result<Self> {
        if checkpoint_iters == 0 {
            return Err(Error::invalid_problem(
                "checkpoint_iters",
                "checkpoint cadence must be at least 1",
            ));
        }
        let runlog = runlog_dir.map(|dir| RunlogSettings {
            dir,
            every: checkpoint_iters,
        });
        let mut state = QueueState {
            // Job IDs are client-facing (`/v1/jobs/{id}`); start at 1 so
            // the first submission matches the documented curl flow.
            next_id: 1,
            ..QueueState::default()
        };
        if let Some(settings) = &runlog {
            std::fs::create_dir_all(&settings.dir).map_err(|e| Error::Execution {
                reason: format!(
                    "cannot create run-log directory {}: {e}",
                    settings.dir.display()
                ),
            })?;
            for (id, problem, path) in scan_resumable(&settings.dir)? {
                state.next_id = state.next_id.max(id + 1);
                let hash = problem.canonical_hash();
                state.jobs.insert(
                    id,
                    JobEntry {
                        resume_log: Some(path),
                        ..JobEntry::new(problem, hash, JobState::Resumable)
                    },
                );
            }
        }
        // Listed from the start, so a scrape reads 0 rather than nothing.
        let mut registry = MetricsRegistry::new();
        registry.counter_add(CONNECTIONS_REFUSED, Determinism::Deterministic, 0);
        let shared = Arc::new(QueueShared {
            state: Mutex::new(state),
            cv: Condvar::new(),
            capacity,
            metrics: Mutex::new(registry),
            store: Mutex::new(ResultStore::new(cache_capacity)),
            runlog,
        });
        let workers = (0..workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("unsnap-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Self {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Submit a problem: cache hit → a job born `Done`; otherwise the
    /// job enters the FIFO, or the call fails with
    /// [`Error::Execution`] (HTTP 503) when the queue is full.
    pub fn submit(&self, problem: Problem) -> Result<SubmitReceipt> {
        let hash = problem.canonical_hash();
        let cached_json = self.shared.store.lock().unwrap().get(hash);
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown {
            return Err(Error::Execution {
                reason: "the job queue is shutting down".to_string(),
            });
        }

        if let Some(outcome_json) = cached_json {
            let id = state.next_id;
            state.next_id += 1;
            let entry = JobEntry {
                cached: true,
                outcome_json: Some(outcome_json),
                ..JobEntry::new(problem, hash, JobState::Done)
            };
            close_with_job_done(&entry.events, JobState::Done, true, None);
            state.jobs.insert(id, entry);
            drop(state);
            self.shared.count("serve_cache_hits");
            self.shared.count("serve_jobs_submitted");
            return Ok(SubmitReceipt {
                id,
                hash,
                cached: true,
                state: JobState::Done,
            });
        }

        if state.pending.len() >= self.shared.capacity {
            drop(state);
            self.shared.count("serve_queue_rejections");
            return Err(Error::Execution {
                reason: format!(
                    "job queue is full ({} queued, capacity {})",
                    self.shared.capacity, self.shared.capacity
                ),
            });
        }

        let id = state.next_id;
        state.next_id += 1;
        state
            .jobs
            .insert(id, JobEntry::new(problem, hash, JobState::Queued));
        state.pending.push_back(id);
        drop(state);
        self.shared.count("serve_cache_misses");
        self.shared.count("serve_jobs_submitted");
        self.shared.cv.notify_one();
        Ok(SubmitReceipt {
            id,
            hash,
            cached: false,
            state: JobState::Queued,
        })
    }

    /// Move a [`JobState::Resumable`] job back into the FIFO, where a
    /// worker restores the solver from its run log's last intact
    /// checkpoint and finishes the run.  Returns the `(before, after)`
    /// state pair, or `None` for an unknown ID; a job in any other
    /// state is left untouched (its state comes back unchanged).
    pub fn resume(&self, id: u64) -> Option<(JobState, JobState)> {
        let mut state = self.shared.state.lock().unwrap();
        let entry = state.jobs.get_mut(&id)?;
        if entry.state != JobState::Resumable {
            return Some((entry.state, entry.state));
        }
        entry.state = JobState::Queued;
        state.pending.push_back(id);
        drop(state);
        self.shared.count("serve_jobs_resumed");
        self.shared.cv.notify_one();
        Some((JobState::Resumable, JobState::Queued))
    }

    /// A snapshot of every job the queue knows about, ordered by ID
    /// (`GET /v1/jobs`) — including `Resumable` jobs recovered from a
    /// previous process's run logs.
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.shared.state.lock().unwrap();
        let mut ids: Vec<u64> = state.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|id| {
                let entry = &state.jobs[id];
                JobStatus {
                    id: *id,
                    state: entry.state,
                    cached: entry.cached,
                    hash: entry.hash,
                    outcome_json: entry.outcome_json.clone(),
                    error: entry.error.clone(),
                }
            })
            .collect()
    }

    /// A snapshot of one job, or `None` for an unknown ID.
    pub(crate) fn status(&self, id: u64) -> Option<JobStatus> {
        let state = self.shared.state.lock().unwrap();
        state.jobs.get(&id).map(|entry| JobStatus {
            id,
            state: entry.state,
            cached: entry.cached,
            hash: entry.hash,
            outcome_json: entry.outcome_json.clone(),
            error: entry.error.clone(),
        })
    }

    /// The live event stream of one job (a clone sharing the buffer), or
    /// `None` for an unknown ID.
    pub(crate) fn events(&self, id: u64) -> Option<LineChannel> {
        let state = self.shared.state.lock().unwrap();
        state.jobs.get(&id).map(|entry| entry.events.clone())
    }

    /// Request cancellation of a job.  Queued jobs cancel immediately;
    /// running jobs get their token raised and transition at the
    /// solver's next outer-iteration boundary; terminal jobs are left
    /// untouched.  Returns the `(before, after)` state pair of the
    /// request, or `None` for an unknown ID — the *before* state is what
    /// distinguishes "cancelled by this request" from "was already
    /// cancelled".
    pub fn cancel(&self, id: u64) -> Option<(JobState, JobState)> {
        let mut state = self.shared.state.lock().unwrap();
        let entry = state.jobs.get_mut(&id)?;
        match entry.state {
            JobState::Queued => {
                entry.cancel_queued("cancelled while queued");
                state.pending.retain(|queued| *queued != id);
                drop(state);
                self.shared.count("serve_jobs_cancelled");
                Some((JobState::Queued, JobState::Cancelled))
            }
            JobState::Running => {
                entry.cancel.cancel();
                Some((JobState::Running, JobState::Running))
            }
            terminal => Some((terminal, terminal)),
        }
    }

    /// Count one handled HTTP request (called by the router for every
    /// request, whatever its outcome).
    pub(crate) fn record_request(&self) {
        self.shared.count("serve_requests_total");
    }

    /// Count one connection the server refused because every connection
    /// handler was busy (`serve_connections_refused`; a full job queue is
    /// `serve_queue_rejections`).
    pub(crate) fn record_connection_refused(&self) {
        self.shared.count(CONNECTIONS_REFUSED);
    }

    /// The metrics registry snapshot as JSON (`/v1/metrics`).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.lock().unwrap().to_json()
    }

    /// The metrics registry snapshot in Prometheus text exposition
    /// format (`/v1/metrics?format=prometheus`).
    pub(crate) fn metrics_prometheus(&self) -> String {
        self.shared.metrics.lock().unwrap().to_prometheus()
    }

    /// A `Done` job's span tree as Chrome `trace_event` JSON
    /// (`GET /v1/jobs/{id}/trace`).  Outer `None` = unknown ID; inner
    /// `None` = no trace available (the job has not finished solving,
    /// or it was served from the result cache and replayed no work).
    pub(crate) fn trace_json(&self, id: u64) -> Option<Option<String>> {
        let state = self.shared.state.lock().unwrap();
        state.jobs.get(&id).map(|entry| entry.trace_json.clone())
    }

    /// One counter's current value (test and benchmark convenience).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.shared.metrics.lock().unwrap().counter(name)
    }

    /// Stop accepting work, raise every running job's cancel token,
    /// cancel (and close the streams of) still-queued jobs, close the
    /// streams of resumable ones, and join the workers.  Idempotent.
    pub(crate) fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            if state.shutdown {
                return;
            }
            state.shutdown = true;
            state.pending.clear();
            for entry in state.jobs.values_mut() {
                match entry.state {
                    JobState::Running => entry.cancel.cancel(),
                    JobState::Queued => entry.cancel_queued("cancelled by queue shutdown"),
                    // Nothing will run it in this process: end its tails.
                    JobState::Resumable => entry.events.close(),
                    _ => {}
                }
            }
        }
        self.shared.cv.notify_all();
        let workers: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().unwrap();
            guard.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Scan a run-log directory for interrupted jobs: every readable
/// `job-{id}.runlog` whose log is *not* completed, with its problem
/// rebuilt (and hash-verified) from the manifest frame.  Unreadable
/// logs and non-single-domain modes are skipped, not errors — a torn
/// manifest means there is nothing to resume.
fn scan_resumable(dir: &Path) -> Result<Vec<(u64, Problem, PathBuf)>> {
    let entries = std::fs::read_dir(dir).map_err(|e| Error::Execution {
        reason: format!("cannot scan run-log directory {}: {e}", dir.display()),
    })?;
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.strip_suffix(".runlog"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(recovered) = recover(entry.path()) else {
            continue;
        };
        if recovered.completed || recovered.manifest.mode != RunMode::Single {
            continue;
        }
        found.push((id, recovered.manifest.problem, entry.path()));
    }
    found.sort_unstable_by_key(|(id, ..)| *id);
    Ok(found)
}

/// Wraps the job's event writer and records the submit → first-byte
/// latency into the `serve_time_to_first_event_seconds` histogram on
/// the first successful write.  Cached jobs never run through a worker
/// and so never touch the histogram.
struct FirstEventProbe<'a, W: Write> {
    inner: W,
    shared: &'a QueueShared,
    submitted_at: Instant,
    fired: bool,
}

impl<W: Write> Write for FirstEventProbe<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        if !self.fired && written > 0 {
            self.fired = true;
            self.shared.observe_seconds(
                "serve_time_to_first_event_seconds",
                self.submitted_at.elapsed().as_secs_f64(),
            );
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Run one job to completion: solver construction (fresh, or restored
/// from an interrupted run log), the observed solve streaming JSONL
/// into the job's channel, and the error path.  With a run-log
/// directory configured the solve checkpoints as it goes; a successful
/// run deletes its log (nothing left to resume), any other exit keeps
/// it for the next restart.
///
/// Returns the outcome JSON, the solve's span tree rendered as Chrome
/// `trace_event` JSON (`GET /v1/jobs/{id}/trace`) and the outcome's
/// sweep count.
fn run_job(
    shared: &QueueShared,
    problem: &Problem,
    cancel: CancelToken,
    events: &LineChannel,
    id: u64,
    resume_log: Option<&Path>,
    submitted_at: Instant,
) -> Result<(String, String, u64)> {
    let mut jsonl = JsonlObserver::new(JsonlWriter::new(FirstEventProbe {
        inner: events.writer(),
        shared,
        submitted_at,
        fired: false,
    }));
    let Some(settings) = shared.runlog.as_ref() else {
        let mut solver = TransportSolver::new(problem)?;
        solver.set_cancel_token(cancel);
        let outcome = solver.run_observed(&mut jsonl)?;
        // Dropping the observer flushes its writer into the channel.
        drop(jsonl);
        return Ok(finished(&outcome));
    };

    let path = settings.job_path(id);
    let (mut solver, ckpt) = match resume_log {
        // On resume the solver replays the recovered event prefix into
        // the observer tee, so the JSONL stream a client tails is the
        // complete history, not just the tail after the crash.  Only
        // single-domain logs are listed resumable (`scan_resumable`).
        Some(log) => {
            let Reopened {
                manifest,
                resume,
                observer,
            } = reopen(log, settings.every)?;
            let mut solver = TransportSolver::new(&manifest.problem)?;
            if let Some(point) = resume {
                solver.resume_from(point)?;
            }
            (solver, observer)
        }
        None => (
            TransportSolver::new(problem)?,
            CheckpointObserver::create(&path, problem, RunMode::Single, settings.every)?,
        ),
    };
    solver.set_cancel_token(cancel);
    let mut sink = ckpt.sink();
    let mut ckpt = ckpt;
    let outcome = {
        let mut tee = TeeObserver::new(&mut jsonl, &mut ckpt);
        solver.run_checkpointed(&mut tee, &mut sink)?
    };
    drop(jsonl);
    drop(ckpt);
    // The run finished: its log records a completed run and can never
    // be resumed, so reclaim the disk space.
    let _ = std::fs::remove_file(resume_log.unwrap_or(&path));
    Ok(finished(&outcome))
}

/// What [`run_job`] hands back for a finished solve.
fn finished(outcome: &SolveOutcome) -> (String, String, u64) {
    (
        outcome.to_json(),
        outcome.trace.to_chrome_json(),
        outcome.sweep_count as u64,
    )
}

fn worker_loop(shared: &QueueShared) {
    loop {
        let (id, problem, cancel, events, resume_log, submitted_at) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(id) = state.pending.pop_front() {
                    let entry = state.jobs.get_mut(&id).expect("pending job exists");
                    entry.state = JobState::Running;
                    break (
                        id,
                        entry.problem.clone(),
                        entry.cancel.clone(),
                        entry.events.clone(),
                        entry.resume_log.clone(),
                        entry.submitted_at,
                    );
                }
                state = shared.cv.wait(state).unwrap();
            }
        };
        shared.observe_seconds(
            "serve_queue_wait_seconds",
            submitted_at.elapsed().as_secs_f64(),
        );

        let result = run_job(
            shared,
            &problem,
            cancel,
            &events,
            id,
            resume_log.as_deref(),
            submitted_at,
        );

        let (final_state, counter) = match &result {
            Ok(_) => (JobState::Done, "serve_jobs_completed"),
            Err(Error::Cancelled { .. }) => (JobState::Cancelled, "serve_jobs_cancelled"),
            Err(_) => (JobState::Failed, "serve_jobs_failed"),
        };
        // Counted before the job turns terminal, so that a client that
        // sees it finished reads counters that include it.
        shared.count(counter);
        if let Ok((_, _, sweeps)) = &result {
            // Deterministic work volume: lets a caller assert a cached
            // replay did *no* additional transport work.
            shared.metrics.lock().unwrap().counter_add(
                "serve_sweeps_total",
                Determinism::Deterministic,
                *sweeps,
            );
        }
        let mut state = shared.state.lock().unwrap();
        let entry = state.jobs.get_mut(&id).expect("running job exists");
        entry.state = final_state;
        match result {
            Ok((outcome_json, trace_json, _)) => {
                let outcome_json: Arc<str> = outcome_json.into();
                entry.outcome_json = Some(Arc::clone(&outcome_json));
                entry.trace_json = Some(trace_json);
                shared
                    .store
                    .lock()
                    .unwrap()
                    .insert(entry.hash, outcome_json);
                close_with_job_done(&events, final_state, false, None);
            }
            Err(error) => {
                let message = error.to_string();
                close_with_job_done(&events, final_state, false, Some(&message));
                entry.error = Some(message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny() -> Problem {
        Problem::tiny()
    }

    /// A problem whose solve takes long enough to cancel mid-run but
    /// finishes promptly once the token is observed (many outers of one
    /// cheap inner; tolerance 0 forces every iteration).
    fn slow() -> Problem {
        Problem {
            outer_iterations: 50_000,
            ..Problem::tiny()
        }
    }

    fn wait_terminal(queue: &JobQueue, id: u64) -> JobStatus {
        for _ in 0..600 {
            let status = queue.status(id).expect("job exists");
            if matches!(
                status.state,
                JobState::Done | JobState::Failed | JobState::Cancelled
            ) {
                return status;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn submit_solves_and_caches() {
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        let first = queue.submit(tiny()).unwrap();
        assert!(!first.cached);
        let status = wait_terminal(&queue, first.id);
        assert_eq!(status.state, JobState::Done);
        let outcome = status.outcome_json.expect("outcome rendered");
        assert!(outcome.contains("\"sweep_count\""));
        let sweeps_after_first = queue.counter("serve_sweeps_total").unwrap();
        assert!(sweeps_after_first > 0);

        // The identical problem replays from the cache: born Done, the
        // exact same bytes, and no additional transport work.
        let second = queue.submit(tiny()).unwrap();
        assert!(second.cached);
        assert_eq!(second.state, JobState::Done);
        assert_eq!(second.hash, first.hash);
        let replay = queue.status(second.id).unwrap();
        assert_eq!(replay.outcome_json.as_deref(), Some(&*outcome));
        assert_eq!(queue.counter("serve_cache_hits"), Some(1));
        assert_eq!(
            queue.counter("serve_sweeps_total").unwrap(),
            sweeps_after_first
        );
    }

    #[test]
    fn cache_hits_share_one_rendered_outcome() {
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        let miss = queue.submit(tiny()).unwrap();
        let solved = wait_terminal(&queue, miss.id).outcome_json.unwrap();
        let hits: Vec<Arc<str>> = (0..2)
            .map(|_| {
                let receipt = queue.submit(tiny()).unwrap();
                assert!(receipt.cached);
                queue.status(receipt.id).unwrap().outcome_json.unwrap()
            })
            .collect();
        assert!(
            Arc::ptr_eq(&hits[0], &hits[1]),
            "each hit copied the outcome"
        );
        assert!(Arc::ptr_eq(&hits[0], &solved));
    }

    #[test]
    fn solved_jobs_expose_traces_and_latency_histograms() {
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        let receipt = queue.submit(tiny()).unwrap();
        wait_terminal(&queue, receipt.id);

        // The finished job carries a Chrome trace_event profile rooted
        // at the driver-lane `solve` span.
        let trace = queue
            .trace_json(receipt.id)
            .unwrap()
            .expect("trace rendered");
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("solve"));

        // A cache hit replays no work, so it has no trace; an unknown
        // ID is distinguishable from that.
        let cached = queue.submit(tiny()).unwrap();
        assert!(cached.cached);
        assert_eq!(queue.trace_json(cached.id), Some(None));
        assert_eq!(queue.trace_json(9_999), None);

        // Both wall-clock latency histograms saw exactly the solved
        // job — the cache hit never entered the FIFO.
        let text = queue.metrics_prometheus();
        assert!(text.contains("serve_queue_wait_seconds_count{class=\"wallclock\"} 1\n"));
        assert!(text.contains("serve_time_to_first_event_seconds_count{class=\"wallclock\"} 1\n"));
    }

    #[test]
    fn events_stream_and_close() {
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        let receipt = queue.submit(tiny()).unwrap();
        let events = queue.events(receipt.id).expect("stream exists");
        let mut seen = Vec::new();
        loop {
            let (lines, closed) = events.wait_at(seen.len(), Duration::from_secs(30));
            seen.extend(lines);
            if closed && seen.len() == events.len() {
                break;
            }
        }
        assert!(seen.iter().any(|l| l.contains("outer_start")));
        assert!(seen.last().unwrap().contains("job_done"));
    }

    #[test]
    fn cancel_running_job_and_stay_serviceable() {
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        let receipt = queue.submit(slow()).unwrap();
        // Wait until the worker picks it up.
        for _ in 0..600 {
            if queue.status(receipt.id).unwrap().state == JobState::Running {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        queue.cancel(receipt.id).unwrap();
        let status = wait_terminal(&queue, receipt.id);
        assert_eq!(status.state, JobState::Cancelled);
        assert!(status.error.unwrap().contains("cancelled"));

        // The same worker must pick up and finish the next job.
        let next = queue.submit(tiny()).unwrap();
        let status = wait_terminal(&queue, next.id);
        assert_eq!(status.state, JobState::Done);
        assert_eq!(queue.counter("serve_jobs_cancelled"), Some(1));
    }

    #[test]
    fn cancel_queued_job_skips_the_solver() {
        // One worker pinned on a slow job; a queued job behind it
        // cancels immediately without ever running.
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        let blocker = queue.submit(slow()).unwrap();
        let queued = queue.submit(tiny()).unwrap();
        assert_eq!(
            queue.cancel(queued.id),
            Some((JobState::Queued, JobState::Cancelled))
        );
        // A second cancel reports the job was already terminal.
        assert_eq!(
            queue.cancel(queued.id),
            Some((JobState::Cancelled, JobState::Cancelled))
        );
        let status = queue.status(queued.id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(queue.events(queued.id).unwrap().is_closed());
        queue.cancel(blocker.id);
        wait_terminal(&queue, blocker.id);
    }

    #[test]
    fn full_queue_rejects_with_execution_error() {
        let queue = JobQueue::start_with_runlog(1, 1, 8, None, 1).unwrap();
        let blocker = queue.submit(slow()).unwrap();
        // Give the single worker time to take the blocker off the FIFO,
        // then fill the FIFO's single slot.
        for _ in 0..600 {
            if queue.status(blocker.id).unwrap().state == JobState::Running {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let queued = queue.submit(slow()).unwrap();
        let err = queue.submit(slow()).unwrap_err();
        assert!(matches!(err, Error::Execution { .. }));
        assert_eq!(queue.counter("serve_queue_rejections"), Some(1));
        queue.cancel(queued.id);
        queue.cancel(blocker.id);
        wait_terminal(&queue, blocker.id);
    }

    #[test]
    fn unknown_ids_are_none() {
        let queue = JobQueue::start_with_runlog(1, 8, 8, None, 1).unwrap();
        assert!(queue.status(99).is_none());
        assert!(queue.events(99).is_none());
        assert!(queue.cancel(99).is_none());
        assert!(queue.resume(99).is_none());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("unsnap-serve-runlog-{}-{tag}", std::process::id()))
    }

    /// Write a killed-mid-run single-domain log for `problem` as
    /// `job-{id}.runlog` under `dir`: run it to completion against an
    /// in-memory buffer, then keep only the first `keep_checkpoints`
    /// whole checkpoint frames (a deterministic stand-in for a SIGKILL).
    fn seed_interrupted_log(
        dir: &std::path::Path,
        id: u64,
        problem: &Problem,
        keep_checkpoints: usize,
    ) {
        use unsnap_runlog::{frame, SharedBuffer};
        let buffer = SharedBuffer::new();
        let observer =
            CheckpointObserver::with_writer(Box::new(buffer.clone()), problem, RunMode::Single, 1)
                .unwrap();
        let mut sink = observer.sink();
        let mut observer = observer;
        let mut solver = TransportSolver::new(problem).unwrap();
        solver.run_checkpointed(&mut observer, &mut sink).unwrap();
        let log = buffer.bytes();
        let cut = frame::scan(&log)
            .frames
            .iter()
            .filter(|f| f.tag == frame::TAG_CHECKPOINT)
            .nth(keep_checkpoints - 1)
            .expect("enough checkpoints to truncate at")
            .end_offset;
        std::fs::write(dir.join(format!("job-{id}.runlog")), &log[..cut]).unwrap();
    }

    #[test]
    fn interrupted_logs_are_listed_resumable_and_resume_to_done() {
        let dir = temp_dir("resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let problem = Problem {
            outer_iterations: 4,
            ..Problem::tiny()
        };
        seed_interrupted_log(&dir, 7, &problem, 2);

        // The uninterrupted run, for the determinism cross-check below.
        let reference = TransportSolver::new(&problem).unwrap().run().unwrap();

        let queue = JobQueue::start_with_runlog(1, 8, 8, Some(dir.clone()), 1).unwrap();
        let listed = queue.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, 7);
        assert_eq!(listed[0].state, JobState::Resumable);
        assert_eq!(listed[0].hash, problem.canonical_hash());

        // Fresh IDs continue past the recovered one.
        let fresh = queue.submit(tiny()).unwrap();
        assert_eq!(fresh.id, 8);
        wait_terminal(&queue, fresh.id);
        assert!(!dir.join("job-8.runlog").exists(), "done jobs delete logs");

        assert_eq!(
            queue.resume(7),
            Some((JobState::Resumable, JobState::Queued))
        );
        let status = wait_terminal(&queue, 7);
        assert_eq!(status.state, JobState::Done);
        assert!(!dir.join("job-7.runlog").exists());
        // Resuming a finished job reports its state unchanged.
        assert_eq!(queue.resume(7), Some((JobState::Done, JobState::Done)));

        // The resumed outcome carries the uninterrupted run's
        // deterministic fields (the bit-for-bit contract is pinned
        // exhaustively in tests/durability.rs; here we check the
        // service-level surface).
        let outcome = unsnap_obs::reader::parse(&status.outcome_json.unwrap()).unwrap();
        assert_eq!(
            outcome.get("sweep_count").and_then(|v| v.as_u64()),
            Some(reference.sweep_count as u64)
        );

        // The event stream replayed the pre-crash prefix: a client
        // tailing the resumed job still sees outer 0.
        let events = queue.events(7).unwrap();
        assert!(events.is_closed());
        let (lines, _) = events.wait_at(0, Duration::from_secs(1));
        assert!(lines.iter().any(|l| l.contains("\"outer\":0")));
        assert!(lines.last().unwrap().contains("job_done"));

        queue.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_durable_jobs_keep_their_log_for_the_next_restart() {
        let dir = temp_dir("cancel");
        let _ = std::fs::remove_dir_all(&dir);
        // A sparse cadence: `slow()` runs tens of thousands of cheap
        // outers, and a frame per outer would be all I/O.
        let queue = JobQueue::start_with_runlog(1, 8, 8, Some(dir.clone()), 25).unwrap();
        let receipt = queue.submit(slow()).unwrap();
        for _ in 0..600 {
            if queue.status(receipt.id).unwrap().state == JobState::Running {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Let a few outers (and so at least one checkpoint) land.
        std::thread::sleep(Duration::from_millis(200));
        queue.cancel(receipt.id).unwrap();
        let status = wait_terminal(&queue, receipt.id);
        assert_eq!(status.state, JobState::Cancelled);
        queue.shutdown();
        let log = dir.join(format!("job-{}.runlog", receipt.id));
        assert!(log.exists(), "cancelled durable jobs keep their log");

        // The restarted queue re-lists it, ready to resume.
        let restarted = JobQueue::start_with_runlog(1, 8, 8, Some(dir.clone()), 25).unwrap();
        let listed = restarted.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, receipt.id);
        assert_eq!(listed[0].state, JobState::Resumable);
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_checkpoint_cadence_is_rejected() {
        let err = JobQueue::start_with_runlog(1, 8, 8, Some(temp_dir("zero")), 0).unwrap_err();
        assert_eq!(err.invalid_field(), Some("checkpoint_iters"));
    }

    #[test]
    fn job_state_labels() {
        assert_eq!(JobState::Queued.label(), "queued");
        assert_eq!(JobState::Cancelled.label(), "cancelled");
    }
}
