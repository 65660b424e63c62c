//! Durable runs: a write-ahead run log with checkpoint/restart.
//!
//! A solve that may be interrupted — a long paper-scale run, a serve
//! job, a machine about to lose its allocation — streams its state into
//! a compact append-only *run log*: a manifest frame pinning the exact
//! problem (canonical wire JSON plus FNV-1a hash, and the fingerprint of
//! the wire schema it was written under), followed by checkpoint frames
//! at outer-iteration boundaries (global scalar flux φ, the face traces
//! of the angular flux across the cuts between ranks, the driver's and
//! each rank's accumulated statistics, and the observer-event delta
//! since the previous frame — one payload, decoded straight into a
//! [`ResumePoint`](unsnap_core::solver::ResumePoint), for both solver
//! paths).  That is everything an iteration boundary hands on: a sweep
//! overwrites every entry of a domain's own angular flux before reading
//! it, so only what crosses a cut is state, and a single-domain frame
//! holds no angular flux at all.  Every frame is length-prefixed and
//! checksummed; recovery scans to the last intact frame and discards the
//! torn tail, so a crash at *any* byte leaves a resumable log.  A log
//! written by another format version, or under another problem schema,
//! is refused with an error naming both.
//!
//! The resume determinism contract: checkpoint → crash → resume yields
//! an outcome **bit-for-bit identical** to the uninterrupted run —
//! flux, iteration counts, deterministic metrics, and the observer
//! event stream — at every thread width, on both the single-domain
//! [`TransportSolver`](unsnap_core::solver::TransportSolver) and the
//! block-Jacobi path.  `tests/durability.rs` pins the contract with
//! crash-and-resume fault injection (see [`fault`]) and an
//! every-byte-offset truncation property.
//!
//! ```no_run
//! use unsnap_core::problem::Problem;
//! use unsnap_core::solver::TransportSolver;
//! use unsnap_runlog::{reopen, CheckpointObserver, Reopened, RunMode};
//!
//! # fn main() -> unsnap_core::error::Result<()> {
//! // First attempt: checkpoint every outer iteration.
//! let problem = Problem::from_name("quickstart").unwrap();
//! let observer = CheckpointObserver::create("run.log", &problem, RunMode::Single, 1)?;
//! let mut sink = observer.sink();
//! let mut observer = observer;
//! let mut solver = TransportSolver::new(&problem)?;
//! // …crashes mid-run…
//! let _ = solver.run_checkpointed(&mut observer, &mut sink);
//!
//! // After the crash: reopen the log, build the driver its manifest
//! // names, install the resume point and continue to the identical
//! // outcome.  A block-Jacobi log (`RunMode::Jacobi { npx, npy }`)
//! // continues the same way in a `BlockJacobiSolver`.
//! let Reopened { manifest, resume, observer } = reopen("run.log", 1)?;
//! assert_eq!(manifest.mode, RunMode::Single);
//! let mut solver = TransportSolver::new(&manifest.problem)?;
//! if let Some(point) = resume {
//!     solver.resume_from(point)?;
//! }
//! let mut sink = observer.sink();
//! let mut observer = observer;
//! let outcome = solver.run_checkpointed(&mut observer, &mut sink)?;
//! # let _ = outcome;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod fault;
pub mod frame;
pub mod manifest;
pub mod recover;
pub mod writer;

pub use fault::{FaultyWriter, SharedBuffer};
pub use manifest::{Manifest, RunMode};
pub use recover::{recover, recover_bytes, Recovered};
pub use writer::{reopen, CheckpointObserver, CheckpointSinkHandle, Reopened};

use unsnap_core::error::{Error, Result};

/// Environment knob selecting the checkpoint cadence (write a
/// checkpoint frame every N outer iterations; default 1).
pub const CHECKPOINT_ITERS_ENV: &str = "UNSNAP_CHECKPOINT_ITERS";

/// Read [`CHECKPOINT_ITERS_ENV`], defaulting to 1 (checkpoint every
/// outer iteration) and rejecting zero or garbage.
pub fn checkpoint_iters_from_env() -> Result<usize> {
    match std::env::var(CHECKPOINT_ITERS_ENV) {
        Err(std::env::VarError::NotPresent) => Ok(1),
        Err(e) => Err(Error::invalid_problem(
            "checkpoint_iters",
            format!("{CHECKPOINT_ITERS_ENV}: {e}"),
        )),
        Ok(text) => match text.trim().parse::<usize>() {
            Ok(0) => Err(Error::invalid_problem(
                "checkpoint_iters",
                format!("{CHECKPOINT_ITERS_ENV}: cadence must be at least 1, got 0"),
            )),
            Ok(n) => Ok(n),
            Err(e) => Err(Error::invalid_problem(
                "checkpoint_iters",
                format!("{CHECKPOINT_ITERS_ENV}: {e}"),
            )),
        },
    }
}
