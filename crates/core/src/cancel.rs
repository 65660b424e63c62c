//! Cooperative cancellation of in-flight solves.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between the party
//! driving a solve (a server worker, a bench harness, a test) and the
//! party that may want to stop it (a request handler, a signal handler).
//! The solver polls the token at **outer-iteration boundaries** —
//! `run_outers` checks it just before it emits
//! [`SolveEvent::OuterStart`](crate::session::SolveEvent::OuterStart) —
//! so cancellation never tears a sweep in half: the flux state is always a
//! consistent "as of outer iteration `k`" snapshot when the solve bails
//! out with [`Error::Cancelled`](crate::error::Error::Cancelled).
//!
//! The token is *advisory*: nothing is interrupted preemptively, and a
//! solve that is between outer boundaries (inside a sweep or a Krylov
//! iteration) finishes that outer before observing the flag.  That makes
//! cancellation latency one outer iteration — bounded and cheap for the
//! iteration structures the workspace runs (many outers of few inners),
//! and it keeps the determinism contract intact: a solve either
//! completes bit-for-bit identically, or reports exactly which outer it
//! stopped at.
//!
//! ```
//! use unsnap_core::cancel::CancelToken;
//! use unsnap_core::error::Error;
//! use unsnap_core::{Problem, TransportSolver};
//!
//! let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
//! let token = CancelToken::new();
//! solver.set_cancel_token(token.clone());
//! token.cancel(); // cancelled before the first outer even starts
//! assert!(matches!(
//!     solver.run(),
//!     Err(Error::Cancelled { outer: 0 })
//! ));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cooperative cancellation flag.
///
/// Clones share one underlying flag; cancelling any clone cancels them
/// all.  See the [module docs](self) for the polling contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation.  Idempotent; takes effect at the solve's
    /// next outer-iteration boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancelToken::new();
        let remote = token.clone();
        std::thread::spawn(move || remote.cancel())
            .join()
            .expect("cancel thread");
        assert!(token.is_cancelled());
    }
}
