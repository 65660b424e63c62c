//! # unsnap-serve
//!
//! Solver-as-a-service: a job-queued HTTP front-end for the UnSNAP
//! transport solver, with live residual streaming and a
//! content-addressed result cache.  Everything is hand-rolled over
//! `std::net` — the workspace vendors its dependencies, so there is no
//! async runtime; concurrency is a bounded worker pool for solves plus
//! a bounded pool of reused connection handlers, which is exactly the
//! right shape for a compute service whose unit of work is a
//! multi-second solve.
//!
//! ## Connections
//!
//! The accept thread hands each connection to an idle handler thread,
//! or spawns one while fewer than the cap are alive.  The cap is twice
//! the jobs the server holds at once, `2 × (queue_capacity + workers)`
//! (68 by default): room for a client tailing every job's events and as
//! many quick exchanges.  At the cap a connection is answered `503`
//! with the typed JSON error body and closed (counted in
//! `serve_connections_refused`).  At most `workers + 2` handlers wait
//! idle; a surplus one exits after its connection.
//!
//! A handler is held only while its client is there: reads and writes
//! time out after 30 s, and an idle event stream ends once its client
//! has hung up (see [`routes`]).  Shutdown cuts a stalled request head
//! at once and a response still being written after a 2 s grace.
//!
//! ## Module map
//!
//! * [`http`] — minimal HTTP/1.1: request parsing, fixed and chunked
//!   responses, a tiny blocking client for tests and the repository benchmark.
//! * [`wire`] — request-body parsing (named or inline problems, via
//!   [`unsnap_core::wire`]) and the typed-error → status mapping.
//! * [`queue`] — the bounded FIFO, the worker pool, and the job state
//!   machine (`Queued → Running → Done/Failed/Cancelled`, plus
//!   `Resumable` for jobs recovered from the run logs of a previous
//!   process when a `runlog_dir` is configured).
//! * [`store`] — the LRU result cache keyed by
//!   [`Problem::canonical_hash`](unsnap_core::problem::Problem::canonical_hash).
//! * [`cancel`] — the cancellation policy glue over
//!   [`unsnap_core::cancel`].
//! * [`routes`] — the route table tying the above to connections.
//!
//! ## Quickstart
//!
//! ```
//! use unsnap_serve::{ServeConfig, Server};
//!
//! // Port 0 = ephemeral (tests); the `serve` bin defaults to 8471.
//! let config = ServeConfig { port: 0, ..ServeConfig::default() };
//! let server = Server::start(&config).unwrap();
//! let response = unsnap_serve::http::request(
//!     server.addr(),
//!     "POST",
//!     "/v1/solve",
//!     Some(r#"{"problem": "tiny"}"#),
//! )
//! .unwrap();
//! assert_eq!(response.status, 202);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod http;
pub mod queue;
pub mod routes;
pub mod store;
pub mod wire;

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unsnap_core::error::{Error, Result};

pub use cancel::{CancelDisposition, CancelToken};
pub use queue::{JobQueue, JobState, JobStatus, SubmitReceipt};
pub use store::ResultStore;

/// Server configuration, overridable through the `UNSNAP_*` environment
/// family (see [`ServeConfig::from_env`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// Solver worker threads draining the job queue.
    pub workers: usize,
    /// Maximum number of jobs waiting in the FIFO (a full queue answers
    /// 503).
    pub queue_capacity: usize,
    /// Result-cache capacity in outcomes (0 disables caching).
    pub cache_capacity: usize,
    /// Directory for per-job run logs (`job-{id}.runlog`).  `Some`
    /// makes every job durable: solves checkpoint through
    /// `unsnap-runlog`, and a restarted server re-lists interrupted
    /// jobs as `resumable` (see [`JobState::Resumable`]).  `None`
    /// (the default) disables durability entirely.
    pub runlog_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence in outer iterations (only meaningful with
    /// `runlog_dir` set); the `UNSNAP_CHECKPOINT_ITERS` knob.
    pub checkpoint_iters: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 8471,
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 64,
            runlog_dir: None,
            checkpoint_iters: 1,
        }
    }
}

impl ServeConfig {
    /// The defaults with the `UNSNAP_PORT`, `UNSNAP_SERVE_WORKERS` and
    /// `UNSNAP_CACHE_CAPACITY` environment overrides applied, strictly: an
    /// unset variable keeps the default, a set but unparsable one is an
    /// [`Error::InvalidProblem`] naming the knob.  Worker counts must
    /// be at least 1; a cache capacity of 0 is legal (it disables
    /// caching).
    pub fn from_env() -> Result<Self> {
        let mut config = Self::default();
        if let Ok(raw) = std::env::var("UNSNAP_PORT") {
            config.port = raw
                .trim()
                .parse()
                .map_err(|e| Error::invalid_problem("port", format!("UNSNAP_PORT: {e}")))?;
        }
        if let Ok(raw) = std::env::var("UNSNAP_SERVE_WORKERS") {
            let workers: usize = raw.trim().parse().map_err(|e| {
                Error::invalid_problem("serve_workers", format!("UNSNAP_SERVE_WORKERS: {e}"))
            })?;
            if workers == 0 {
                return Err(Error::invalid_problem(
                    "serve_workers",
                    "UNSNAP_SERVE_WORKERS: worker count must be at least 1",
                ));
            }
            config.workers = workers;
        }
        if let Ok(raw) = std::env::var("UNSNAP_CACHE_CAPACITY") {
            config.cache_capacity = raw.trim().parse().map_err(|e| {
                Error::invalid_problem("cache_capacity", format!("UNSNAP_CACHE_CAPACITY: {e}"))
            })?;
        }
        if let Ok(raw) = std::env::var("UNSNAP_RUNLOG_DIR") {
            let trimmed = raw.trim();
            if trimmed.is_empty() {
                return Err(Error::invalid_problem(
                    "runlog_dir",
                    "UNSNAP_RUNLOG_DIR: directory path must be non-empty",
                ));
            }
            config.runlog_dir = Some(std::path::PathBuf::from(trimmed));
        }
        config.checkpoint_iters = unsnap_runlog::checkpoint_iters_from_env()?;
        Ok(config)
    }
}

/// How long a refused connection stays open after its `503`, so that
/// closing it over the request it sent, unread, is not a reset.
const REFUSAL_LINGER: Duration = Duration::from_millis(200);

/// How long shutdown lets busy handlers finish before it cuts their
/// connections; a client that stopped reading would otherwise hold its
/// handler in `write` until the write timeout.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// The connection handlers of one server: threads that serve one
/// connection at a time and, between connections, wait for the next.
#[derive(Debug)]
struct Handlers {
    state: Mutex<HandlerState>,
    wake: Condvar,
    /// Most handlers alive at once.
    cap: usize,
    /// Most handlers kept waiting between connections.
    keep_idle: usize,
}

#[derive(Debug, Default)]
struct HandlerState {
    /// Handlers spawned and not yet exited.
    alive: usize,
    /// Handlers ever spawned: the next handler's number.
    spawned: usize,
    /// Handlers blocked waiting for a connection.
    waiting: usize,
    /// Connections handed to waiting handlers, not yet taken.
    handed: VecDeque<TcpStream>,
    /// The connection each busy handler serves, by handler number, so
    /// that shutdown can end a read that a stalled client holds open.
    serving: HashMap<usize, Arc<TcpStream>>,
    stopping: bool,
    threads: Vec<JoinHandle<()>>,
}

impl HandlerState {
    /// Waiting handlers no handed connection is meant for.
    fn idle(&self) -> usize {
        self.waiting.saturating_sub(self.handed.len())
    }
}

/// Frees handler `number`'s slot however the handler ends, a panic
/// included.
struct Slot<'a> {
    handlers: &'a Handlers,
    number: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self
            .handlers
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.alive -= 1;
        state.serving.remove(&self.number);
        drop(state);
        // Shutdown waits for the last handler to leave.
        self.handlers.wake.notify_all();
    }
}

impl Handlers {
    fn new(config: &ServeConfig) -> Self {
        let workers = config.workers.max(1);
        Self {
            state: Mutex::new(HandlerState::default()),
            wake: Condvar::new(),
            cap: 2 * (config.queue_capacity + workers),
            keep_idle: workers + 2,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HandlerState> {
        self.state
            .lock()
            .expect("no handler panics while holding the handler state")
    }

    /// Give `stream` to an idle handler, or to a new one below the cap;
    /// at the cap, hand it back.
    fn dispatch(
        self: &Arc<Self>,
        stream: TcpStream,
        queue: &Arc<JobQueue>,
    ) -> Option<Arc<TcpStream>> {
        let mut state = self.lock();
        if state.idle() > 0 {
            state.handed.push_back(stream);
            drop(state);
            self.wake.notify_one();
            return None;
        }
        let conn = Arc::new(stream);
        if state.alive < self.cap && self.spawn(&mut state, &conn, queue) {
            return None;
        }
        Some(conn)
    }

    /// Start a handler whose first connection is `conn`; `false` when
    /// the OS refuses a thread.
    fn spawn(
        self: &Arc<Self>,
        state: &mut HandlerState,
        conn: &Arc<TcpStream>,
        queue: &Arc<JobQueue>,
    ) -> bool {
        for thread in state.threads.extract_if(.., |thread| thread.is_finished()) {
            // Already exited: a panic ended only its own connection.
            let _ = thread.join();
        }
        let number = state.spawned;
        let (handlers, first, queue) = (Arc::clone(self), Arc::clone(conn), Arc::clone(queue));
        let spawned = std::thread::Builder::new()
            .name("unsnap-serve-conn".to_string())
            .spawn(move || handlers.serve(number, first, &queue));
        let Ok(thread) = spawned else {
            return false;
        };
        state.spawned += 1;
        state.alive += 1;
        state.threads.push(thread);
        state.serving.insert(number, Arc::clone(conn));
        true
    }

    /// Handler `number`'s life: serve `first`, then every connection
    /// handed to it while it waits, until it is surplus or the server
    /// stops.
    fn serve(&self, number: usize, first: Arc<TcpStream>, queue: &JobQueue) {
        let _slot = Slot {
            handlers: self,
            number,
        };
        let mut conn = first;
        loop {
            routes::handle_connection(&conn, queue);
            let mut state = self.lock();
            state.serving.remove(&number);
            drop(conn); // the last reference: closes the connection
            if state.stopping || state.idle() >= self.keep_idle {
                return;
            }
            state.waiting += 1;
            state = self
                .wake
                .wait_while(state, |s| s.handed.is_empty() && !s.stopping)
                .expect("no handler panics while holding the handler state");
            state.waiting -= 1;
            let Some(stream) = state.handed.pop_front() else {
                return;
            };
            conn = Arc::new(stream);
            state.serving.insert(number, Arc::clone(&conn));
        }
    }

    /// Retire the waiting handlers and join every handler.  A read
    /// still waiting for a request ends at once, as if the client had
    /// hung up; busy handlers get [`SHUTDOWN_GRACE`] to finish their
    /// response, and then their connections are cut.
    fn shutdown(&self) {
        let mut state = self.lock();
        state.stopping = true;
        let reading = state.serving.values().map(|conn| &**conn);
        for conn in reading.chain(&state.handed) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        self.wake.notify_all();
        let (mut state, _) = self
            .wake
            .wait_timeout_while(state, SHUTDOWN_GRACE, |s| s.alive > 0)
            .expect("no handler panics while holding the handler state");
        for conn in state.serving.values() {
            // Ends a write blocked on a client that stopped reading.
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads = std::mem::take(&mut state.threads);
        drop(state);
        for thread in threads {
            // A handler that panicked has freed its slot; the panic
            // ended only its own connection.
            let _ = thread.join();
        }
    }
}

/// Hand every accepted connection to the handlers until `stop` is
/// raised.  A connection past the cap is answered `503` here, on the
/// accept thread, which never waits on it: the refused connection is
/// kept open for [`REFUSAL_LINGER`] (at most `cap` of them at once) and
/// closed by a later pass of the loop.
fn accept_loop(
    listener: &TcpListener,
    handlers: &Arc<Handlers>,
    queue: &Arc<JobQueue>,
    stop: &AtomicBool,
) {
    let mut refused: VecDeque<(Instant, Arc<TcpStream>)> = VecDeque::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        while refused
            .front()
            .is_some_and(|(at, _)| at.elapsed() >= REFUSAL_LINGER)
        {
            refused.pop_front();
        }
        let Some(conn) = handlers.dispatch(stream, queue) else {
            continue;
        };
        queue.record_connection_refused();
        routes::refuse_connection(&conn, handlers.cap);
        if refused.len() >= handlers.cap {
            refused.pop_front();
        }
        refused.push_back((Instant::now(), conn));
    }
}

/// A running `unsnap-serve` instance: an accept loop on 127.0.0.1, a
/// bounded pool of reused connection handlers (see [Connections](crate#connections)),
/// and the shared [`JobQueue`] behind them.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    queue: Arc<JobQueue>,
    handlers: Arc<Handlers>,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Bind, start the worker pool and the accept loop.  Binding
    /// failures surface as [`Error::Execution`].
    pub fn start(config: &ServeConfig) -> Result<Self> {
        let listener =
            TcpListener::bind(("127.0.0.1", config.port)).map_err(|e| Error::Execution {
                reason: format!("cannot bind 127.0.0.1:{}: {e}", config.port),
            })?;
        let addr = listener.local_addr().map_err(|e| Error::Execution {
            reason: format!("cannot read the bound address: {e}"),
        })?;
        let queue = Arc::new(JobQueue::start_with_runlog(
            config.workers,
            config.queue_capacity,
            config.cache_capacity,
            config.runlog_dir.clone(),
            config.checkpoint_iters,
        )?);
        let handlers = Arc::new(Handlers::new(config));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let queue = Arc::clone(&queue);
            let handlers = Arc::clone(&handlers);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("unsnap-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &handlers, &queue, &stop))
                .map_err(|e| Error::Execution {
                    reason: format!("cannot spawn the accept thread: {e}"),
                })?
        };
        Ok(Self {
            addr,
            queue,
            handlers,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared job queue (tests and the repository benchmark read
    /// counters through it directly).
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Stop the accept loop, shut the queue down (cancelling running
    /// jobs, which ends their event streams), then retire the idle
    /// connection handlers and join every handler; a request head still
    /// being read is cut short, not waited for, and a response still
    /// being written is cut off after a grace of 2 s.  Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.queue.shutdown();
        self.handlers.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_documented_values() {
        let config = ServeConfig::default();
        assert_eq!(config.port, 8471);
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_capacity, 32);
        assert_eq!(config.cache_capacity, 64);
    }

    #[test]
    fn from_env_validates_every_setting() {
        // Process-global env: this test owns the three serve variables
        // and removes them before returning.
        std::env::set_var("UNSNAP_PORT", "0");
        std::env::set_var("UNSNAP_SERVE_WORKERS", "3");
        std::env::set_var("UNSNAP_CACHE_CAPACITY", "0");
        let config = ServeConfig::from_env().unwrap();
        assert_eq!(config.port, 0);
        assert_eq!(config.workers, 3);
        assert_eq!(config.cache_capacity, 0);

        std::env::set_var("UNSNAP_PORT", "notaport");
        let err = ServeConfig::from_env().unwrap_err();
        assert_eq!(err.invalid_field(), Some("port"));
        std::env::set_var("UNSNAP_PORT", "0");

        for bad in ["0", "-1", "many"] {
            std::env::set_var("UNSNAP_SERVE_WORKERS", bad);
            let err = ServeConfig::from_env().unwrap_err();
            assert_eq!(err.invalid_field(), Some("serve_workers"), "'{bad}'");
        }
        std::env::set_var("UNSNAP_SERVE_WORKERS", "3");

        std::env::set_var("UNSNAP_CACHE_CAPACITY", "soon");
        let err = ServeConfig::from_env().unwrap_err();
        assert_eq!(err.invalid_field(), Some("cache_capacity"));
        std::env::set_var("UNSNAP_CACHE_CAPACITY", "0");

        std::env::set_var("UNSNAP_RUNLOG_DIR", "/tmp/unsnap-logs");
        std::env::set_var("UNSNAP_CHECKPOINT_ITERS", "3");
        let config = ServeConfig::from_env().unwrap();
        assert_eq!(
            config.runlog_dir.as_deref(),
            Some(std::path::Path::new("/tmp/unsnap-logs"))
        );
        assert_eq!(config.checkpoint_iters, 3);

        std::env::set_var("UNSNAP_RUNLOG_DIR", "  ");
        let err = ServeConfig::from_env().unwrap_err();
        assert_eq!(err.invalid_field(), Some("runlog_dir"));
        std::env::remove_var("UNSNAP_RUNLOG_DIR");

        std::env::set_var("UNSNAP_CHECKPOINT_ITERS", "0");
        let err = ServeConfig::from_env().unwrap_err();
        assert_eq!(err.invalid_field(), Some("checkpoint_iters"));
        std::env::remove_var("UNSNAP_CHECKPOINT_ITERS");

        std::env::remove_var("UNSNAP_PORT");
        std::env::remove_var("UNSNAP_SERVE_WORKERS");
        std::env::remove_var("UNSNAP_CACHE_CAPACITY");
        assert_eq!(ServeConfig::from_env().unwrap(), ServeConfig::default());
    }

    /// The tests that start a server take turns, so that the connection
    /// threads one of them counts are its own.
    static ONE_SERVER: Mutex<()> = Mutex::new(());

    /// Threads of this process whose name is the connection handlers'
    /// (`/proc` shows the first 15 bytes of a name); `None` off Linux.
    fn connection_threads() -> Option<usize> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .flatten()
                .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
                .filter(|name| {
                    let name = name.trim_end();
                    !name.is_empty() && "unsnap-serve-conn".starts_with(name)
                })
                .count(),
        )
    }

    #[test]
    fn server_starts_and_shuts_down_cleanly() {
        let _turn = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
        let config = ServeConfig {
            port: 0,
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(&config).unwrap();
        assert_ne!(server.addr().port(), 0);
        for _ in 0..3 {
            let response = http::request(server.addr(), "GET", "/v1/metrics", None)
                .expect("metrics reachable");
            assert_eq!(response.status, 200);
        }
        assert!(server.handlers.lock().alive >= 1);
        server.shutdown();
        server.shutdown(); // idempotent
        assert_eq!(server.handlers.lock().alive, 0);
        // A joined thread can stay listed for a moment while the kernel
        // reaps it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while connection_threads().is_some_and(|left| left > 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "connection handlers outlived shutdown"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn a_panicking_handler_frees_its_slot() {
        let handlers = Handlers::new(&ServeConfig::default());
        handlers.lock().alive = 1;
        let joined = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _slot = Slot {
                        handlers: &handlers,
                        number: 0,
                    };
                    panic!("a handler bug");
                })
                .join()
        });
        assert!(joined.is_err());
        assert_eq!(handlers.lock().alive, 0);
    }

    #[test]
    fn shutdown_cuts_a_response_its_client_stopped_reading() {
        use std::io::Write;

        let handlers = Arc::new(Handlers::new(&ServeConfig::default()));
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = Arc::new(listener.accept().unwrap().0);
        // A busy handler writing a body larger than both socket buffers
        // to a client that never reads: its write blocks.
        let (ended, written) = std::sync::mpsc::channel();
        let handler = {
            let (handlers, conn) = (Arc::clone(&handlers), Arc::clone(&conn));
            std::thread::spawn(move || {
                let _slot = Slot {
                    handlers: &handlers,
                    number: 0,
                };
                let _ = ended.send((&*conn).write_all(&vec![b'x'; 16 << 20]));
            })
        };
        {
            let mut state = handlers.lock();
            state.alive = 1;
            state.serving.insert(0, conn);
            state.threads.push(handler);
        }
        std::thread::sleep(Duration::from_millis(200));
        let begun = Instant::now();
        handlers.shutdown();
        assert!(
            begun.elapsed() < SHUTDOWN_GRACE + Duration::from_secs(5),
            "shutdown waited {:?}",
            begun.elapsed()
        );
        assert_eq!(handlers.lock().alive, 0);
        assert!(
            written.recv().unwrap().is_err(),
            "the write outlived shutdown"
        );
        drop(client);
    }

    #[test]
    fn live_handlers_never_exceed_the_cap() {
        use std::io::Write;

        let _turn = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
        let config = ServeConfig {
            port: 0,
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(&config).unwrap();
        let cap = server.handlers.cap;
        assert_eq!(cap, 4, "2 × (queue_capacity + workers)");
        // Half a request head each, then silence: every one holds a
        // handler until its read times out or the client goes away.
        let stalled: Vec<TcpStream> = (0..cap + 2)
            .map(|_| {
                let mut stream = TcpStream::connect(server.addr()).unwrap();
                stream.write_all(b"GET /v1/jobs HTTP/1.1\r\nHo").unwrap();
                stream
            })
            .collect();
        // The accept thread takes connections in order: the last of them
        // is dispatched once both surplus ones have been refused.
        let probe = http::request(server.addr(), "GET", "/v1/metrics", None).unwrap();
        assert_eq!(probe.status, 503);
        assert_eq!(server.queue().counter("serve_connections_refused"), Some(3));
        assert_eq!(server.handlers.lock().alive, cap);
        // A new thread names itself once it runs, a moment after it is
        // counted alive.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while let Some(threads) = connection_threads() {
            assert!(threads <= cap, "{threads} handlers for a cap of {cap}");
            if threads == cap {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "only {threads} named handlers"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Shutdown does not wait out the stalled reads' 30 s timeout.
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        assert_eq!(server.handlers.lock().alive, 0);
        assert!(server.handlers.lock().serving.is_empty());
        drop(stalled);
    }
}
