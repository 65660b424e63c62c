//! Resume entry points: rebuild a solver from a recovered run log and
//! continue it.
//!
//! The determinism contract: a run that checkpoints, crashes and
//! resumes produces a [`SolveOutcome`](unsnap_core::solver::SolveOutcome)
//! — flux, iteration counts, deterministic metrics and observer event
//! stream — bit-for-bit identical to the same run left uninterrupted,
//! at every thread width and on both solver paths.  It holds because a
//! checkpoint captures *exactly* the state that survives an
//! outer-iteration boundary (φ, the angular flux of the halo cells of a
//! block-Jacobi run, accumulated statistics), everything else —
//! including each domain's own angular flux, which its next sweep
//! writes before reading — is deterministically rebuilt, and the
//! persisted event prefix is
//! replayed into the fresh observers before the first resumed
//! iteration.

use std::path::Path;

use unsnap_comm::jacobi::BlockJacobiSolver;
use unsnap_core::error::{Error, Result};
use unsnap_core::session::Session;
use unsnap_mesh::Decomposition2D;

use crate::manifest::RunMode;
use crate::recover::{recover, Recovered};

fn refusal(path: &Path, why: &str) -> Error {
    Error::Execution {
        reason: format!("run log {} {why}", path.display()),
    }
}

/// Recover the log at `path` for a resume entry point: an unreadable log
/// or a completed run is an error.
fn recover_unfinished(path: &Path) -> Result<Recovered> {
    let recovered = recover(path)?;
    if recovered.completed {
        let why = "records a completed run; re-solve instead of resuming";
        return Err(refusal(path, why));
    }
    Ok(recovered)
}

/// Extension constructor: `Session::resume(path)`.
///
/// Import the trait, then call it like an inherent method.  A log with
/// a manifest but no checkpoint yet resumes as a fresh run — by the
/// determinism contract the outcome is identical either way.
pub trait SessionResume: Sized {
    /// Rebuild a single-domain session from the run log at `path`,
    /// positioned to continue from its last intact checkpoint.
    fn resume(path: impl AsRef<Path>) -> Result<Self>;
}

impl SessionResume for Session {
    fn resume(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let recovered = recover_unfinished(path)?;
        if let RunMode::Jacobi { npx, npy } = recovered.manifest.mode {
            let why = format!("records a {npx}x{npy} block-Jacobi run; use resume_block_jacobi");
            return Err(refusal(path, &why));
        }
        let mut session = Session::new(&recovered.manifest.problem)?;
        if let Some(point) = recovered.resume {
            session.solver_mut().resume_from(point)?;
        }
        Ok(session)
    }
}

/// Rebuild a block-Jacobi solver from the run log at `path`, positioned
/// to continue from its last intact checkpoint.
pub fn resume_block_jacobi(path: impl AsRef<Path>) -> Result<BlockJacobiSolver> {
    let path = path.as_ref();
    let recovered = recover_unfinished(path)?;
    let RunMode::Jacobi { npx, npy } = recovered.manifest.mode else {
        let why = "records a single-domain run; use Session::resume";
        return Err(refusal(path, why));
    };
    let decomposition = Decomposition2D::try_new(npx, npy)
        .map_err(|e| refusal(path, &format!("names an invalid process grid: {e}")))?;
    let mut solver = BlockJacobiSolver::new(&recovered.manifest.problem, decomposition)?;
    if let Some(point) = recovered.resume {
        solver.resume_from(point)?;
    }
    Ok(solver)
}
