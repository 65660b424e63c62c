//! The server's cancellation policy over the core [`CancelToken`].
//!
//! `DELETE /v1/jobs/{id}` means different things depending on where the
//! job is in its lifecycle, and the response should say which happened.
//! This module names the three dispositions and derives them from the
//! *prior* state [`JobQueue::cancel`](crate::queue::JobQueue::cancel)
//! reports for the request (the prior state is what distinguishes
//! "cancelled by this request" from "was already cancelled"):
//!
//! | job was…  | what happens                                           | disposition |
//! |-----------|--------------------------------------------------------|-------------|
//! | queued    | removed from the FIFO, terminal immediately            | [`Immediate`](CancelDisposition::Immediate) |
//! | running   | its [`CancelToken`] is raised; the solver observes it at the next outer-iteration boundary | [`Requested`](CancelDisposition::Requested) |
//! | terminal  | nothing — `Done`/`Failed`/`Cancelled` are final        | [`AlreadyTerminal`](CancelDisposition::AlreadyTerminal) |
//! | resumable | nothing — the job is not running; leave its run log be (a job that should never resume is simply never resumed) | [`NotCancellable`](CancelDisposition::NotCancellable) |
//!
//! The *cooperative* half of the contract lives in
//! [`unsnap_core::cancel`]: tokens are polled only at outer-iteration
//! boundaries, so a cancelled solve always leaves a consistent flux
//! snapshot and the worker thread survives to take the next job.

pub use unsnap_core::cancel::CancelToken;

use crate::queue::JobState;

/// What a `DELETE /v1/jobs/{id}` actually did (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelDisposition {
    /// The job was still queued: it is `Cancelled` now.
    Immediate,
    /// The job was running: cancellation lands at the solver's next
    /// outer-iteration boundary.
    Requested,
    /// The job was already terminal; nothing changed.
    AlreadyTerminal,
    /// The job was `Resumable` (recovered from a run log, not running):
    /// there is nothing to cancel, and its log is left untouched.
    NotCancellable,
}

impl CancelDisposition {
    /// Derive the disposition from the state a job was in when the
    /// cancel request arrived.
    pub(crate) fn from_prior_state(before: JobState) -> Self {
        match before {
            JobState::Queued => CancelDisposition::Immediate,
            JobState::Running => CancelDisposition::Requested,
            JobState::Resumable => CancelDisposition::NotCancellable,
            JobState::Done | JobState::Failed | JobState::Cancelled => {
                CancelDisposition::AlreadyTerminal
            }
        }
    }

    /// The wire label of the disposition.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            CancelDisposition::Immediate => "cancelled",
            CancelDisposition::Requested => "cancel-requested",
            CancelDisposition::AlreadyTerminal => "already-terminal",
            CancelDisposition::NotCancellable => "not-cancellable",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispositions_match_the_state_machine() {
        assert_eq!(
            CancelDisposition::from_prior_state(JobState::Queued),
            CancelDisposition::Immediate
        );
        assert_eq!(
            CancelDisposition::from_prior_state(JobState::Running),
            CancelDisposition::Requested
        );
        for terminal in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            assert_eq!(
                CancelDisposition::from_prior_state(terminal),
                CancelDisposition::AlreadyTerminal
            );
        }
        assert_eq!(
            CancelDisposition::from_prior_state(JobState::Resumable),
            CancelDisposition::NotCancellable
        );
        assert_eq!(CancelDisposition::Immediate.label(), "cancelled");
    }
}
