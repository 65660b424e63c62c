//! # unsnap-serve
//!
//! Solver-as-a-service: a job-queued HTTP front-end for the UnSNAP
//! transport solver, with live residual streaming and a
//! content-addressed result cache.  Everything is hand-rolled over
//! `std::net` — the workspace vendors its dependencies, so there is no
//! async runtime; concurrency is a bounded worker pool plus a thread
//! per connection, which is exactly the right shape for a compute
//! service whose unit of work is a multi-second solve.
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

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

/// A running `unsnap-serve` instance: an accept loop on 127.0.0.1, a
/// thread per connection, and the shared [`JobQueue`] behind them.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    queue: Arc<JobQueue>,
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
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("unsnap-serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let queue = Arc::clone(&queue);
                        // One thread per connection: requests are either
                        // quick JSON exchanges or a deliberate long-lived
                        // event tail; the solver work itself is bounded
                        // by the worker pool, not by connection count.
                        let _ = std::thread::Builder::new()
                            .name("unsnap-serve-conn".to_string())
                            .spawn(move || routes::handle_connection(stream, &queue));
                    }
                })
                .map_err(|e| Error::Execution {
                    reason: format!("cannot spawn the accept thread: {e}"),
                })?
        };
        Ok(Self {
            addr,
            queue,
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
    /// jobs) and join the server threads.  Idempotent.
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

    #[test]
    fn server_starts_and_shuts_down_cleanly() {
        let config = ServeConfig {
            port: 0,
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(&config).unwrap();
        assert_ne!(server.addr().port(), 0);
        let response =
            http::request(server.addr(), "GET", "/v1/metrics", None).expect("metrics reachable");
        assert_eq!(response.status, 200);
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
