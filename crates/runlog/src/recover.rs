//! The read side: scan a run log, discard the torn tail, and rebuild
//! resume state.
//!
//! Recovery is a straight-line state machine over the frame stream:
//!
//! ```text
//!   header ──ok──▶ expect manifest ──'M'──▶ collect checkpoints
//!     │                  │                    │        │
//!    bad              not 'M'            'C' frame  'F' frame
//!     │                  │                (decode,   (mark run
//!     ▼                  ▼                 append)    completed)
//!    Err                Err                   │
//!                                     first defect: stop, keep
//!                                     the intact prefix, report
//!                                     `truncated`
//! ```
//!
//! The resume point is the *last* intact checkpoint; the replay prefix
//! is the concatenation of every intact checkpoint's event delta.  A
//! log whose tail is torn mid-frame simply resumes one checkpoint
//! earlier — a torn frame is never accepted, and arbitrary input is
//! never a panic (the durability suite proves both at every byte
//! offset).

use std::path::Path;

use unsnap_comm::jacobi::JacobiResumePoint;
use unsnap_core::error::{Error, Result};
use unsnap_core::solver::ResumePoint;
use unsnap_obs::reader;

use crate::checkpoint;
use crate::frame::{self, TAG_CHECKPOINT, TAG_FINISHED, TAG_MANIFEST};
use crate::manifest::{Manifest, RunMode};

/// Everything recovered from one run log.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The decoded, hash-verified manifest.
    pub manifest: Manifest,
    /// Number of intact checkpoint frames.
    pub checkpoints: usize,
    /// `true` when a finished frame survived — the run completed and
    /// there is nothing to resume.
    pub completed: bool,
    /// Length in bytes of the valid prefix (header + intact frames);
    /// re-opening for append truncates the file to this.
    pub valid_len: u64,
    /// `true` when a torn tail was discarded.
    pub truncated: bool,
    /// Resume state for a single-domain log with ≥ 1 checkpoint.
    pub single: Option<ResumePoint>,
    /// Resume state for a block-Jacobi log with ≥ 1 checkpoint.
    pub jacobi: Option<JacobiResumePoint>,
}

fn decode_error(frame_index: usize, detail: String) -> Error {
    Error::Execution {
        reason: format!("run log frame {frame_index} is checksummed but undecodable: {detail}"),
    }
}

/// Recover from an in-memory log image (the pure core of [`recover`]).
pub fn recover_bytes(bytes: &[u8]) -> Result<Recovered> {
    let scan = frame::scan(bytes);
    if !frame::header_ok(bytes) {
        return Err(Error::Execution {
            reason: "not an UnSNAP run log (missing or damaged header)".into(),
        });
    }
    let mut frames = scan.frames.iter();
    let Some(first) = frames.next() else {
        return Err(Error::Execution {
            reason: "run log holds no intact manifest frame".into(),
        });
    };
    if first.tag != TAG_MANIFEST {
        return Err(Error::Execution {
            reason: format!(
                "run log opens with frame tag {:?}, expected the manifest",
                first.tag as char
            ),
        });
    }
    let manifest_text = std::str::from_utf8(first.payload)
        .map_err(|e| decode_error(0, format!("manifest is not UTF-8: {e}")))?;
    let manifest_value =
        reader::parse(manifest_text).map_err(|e| decode_error(0, format!("bad JSON: {e}")))?;
    let manifest = Manifest::from_json(&manifest_value).map_err(|e| decode_error(0, e))?;

    let mut completed = false;
    let mut singles = Vec::new();
    let mut jacobis = Vec::new();
    for (index, f) in frames.enumerate() {
        match f.tag {
            TAG_FINISHED => {
                completed = true;
            }
            TAG_CHECKPOINT => {
                let text = std::str::from_utf8(f.payload)
                    .map_err(|e| decode_error(index + 1, format!("not UTF-8: {e}")))?;
                let value = reader::parse(text)
                    .map_err(|e| decode_error(index + 1, format!("bad JSON: {e}")))?;
                match manifest.mode {
                    RunMode::Single => singles.push(
                        checkpoint::single_from_json(&value)
                            .map_err(|e| decode_error(index + 1, e))?,
                    ),
                    RunMode::Jacobi { npx, npy } => jacobis.push(
                        checkpoint::jacobi_from_json(&value, npx.saturating_mul(npy))
                            .map_err(|e| decode_error(index + 1, e))?,
                    ),
                }
            }
            // `scan` only yields known tags; the manifest tag mid-file
            // would mean two manifests — treat as undecodable.
            _ => {
                return Err(decode_error(
                    index + 1,
                    format!("unexpected frame tag {:?}", f.tag as char),
                ))
            }
        }
    }
    let checkpoints = singles.len() + jacobis.len();
    Ok(Recovered {
        manifest,
        checkpoints,
        completed,
        valid_len: scan.valid_len as u64,
        truncated: scan.truncated,
        single: checkpoint::fold_single(singles),
        jacobi: checkpoint::fold_jacobi(jacobis),
    })
}

/// Read and recover the run log at `path`.
pub fn recover(path: impl AsRef<Path>) -> Result<Recovered> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| Error::Execution {
        reason: format!("cannot read run log {}: {e}", path.display()),
    })?;
    recover_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_core::problem::Problem;

    fn manifest_only() -> Vec<u8> {
        manifest_for(RunMode::Single)
    }

    fn manifest_for(mode: RunMode) -> Vec<u8> {
        let manifest = Manifest::new(Problem::tiny(), mode);
        let mut bytes = frame::header_bytes();
        bytes.extend_from_slice(&frame::frame_bytes(
            TAG_MANIFEST,
            manifest.to_json().as_bytes(),
        ));
        bytes
    }

    #[test]
    fn a_manifest_only_log_recovers_with_no_resume_point() {
        let bytes = manifest_only();
        let recovered = recover_bytes(&bytes).expect("recovers");
        assert_eq!(recovered.checkpoints, 0);
        assert!(!recovered.completed);
        assert!(!recovered.truncated);
        assert!(recovered.single.is_none());
        assert!(recovered.jacobi.is_none());
        assert_eq!(recovered.valid_len, bytes.len() as u64);
    }

    #[test]
    fn torn_tails_are_errors_or_shorter_prefixes_never_panics() {
        let bytes = manifest_only();
        for cut in 0..bytes.len() {
            // Must not panic; a cut below the manifest end is an error,
            // at the boundary it recovers cleanly.
            let _ = recover_bytes(&bytes[..cut]);
        }
    }

    #[test]
    fn a_checkpoint_frame_in_the_wrong_mode_is_an_error() {
        let mut bytes = manifest_only();
        // A jacobi payload in a single-mode log: decodes as JSON but
        // misses the single-checkpoint fields.
        bytes.extend_from_slice(&frame::frame_bytes(TAG_CHECKPOINT, b"{\"outer_next\":1}"));
        let err = recover_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("undecodable"), "{err}");
    }

    #[test]
    fn a_rank_the_run_cannot_have_is_a_typed_error() {
        use unsnap_comm::jacobi::JacobiCheckpointView;
        use unsnap_core::session::{EventLog, Lane, SolveEvent};
        use unsnap_core::solver::{CheckpointView, RunStats};

        let stats = RunStats::default();
        let on_rank = |rank| EventLog {
            events: vec![(Lane::Rank(rank), SolveEvent::OuterStart { outer: 0 })],
        };
        let with_checkpoint = |mode, payload: String| {
            let mut bytes = manifest_for(mode);
            bytes.extend_from_slice(&frame::frame_bytes(TAG_CHECKPOINT, payload.as_bytes()));
            recover_bytes(&bytes)
        };

        // A single-domain run has no rank lanes at all.
        let view = CheckpointView {
            outer_completed: 0,
            converged: false,
            phi: &[],
            psi: &[],
            stats: &stats,
        };
        let payload = checkpoint::single_to_json(&view, &on_rank(0));
        let err = with_checkpoint(RunMode::Single, payload).unwrap_err();
        assert!(err.to_string().contains("names rank 0"), "{err}");

        // A 2x2 run has ranks 0..4; `usize::MAX` would overflow the
        // per-lane tables the prefix is replayed into.
        let view = JacobiCheckpointView {
            outer_completed: 0,
            converged: false,
            inners_run: 1,
            sweep_seconds: 0.0,
            convergence_history: &[],
            phi: &[],
            psi: &[],
            rank_stats: vec![&stats; 4],
        };
        let grid = RunMode::Jacobi { npx: 2, npy: 2 };
        let payload = |rank| checkpoint::jacobi_to_json(&view, &on_rank(rank));
        let point = with_checkpoint(grid, payload(3)).unwrap().jacobi.unwrap();
        assert_eq!(point.prefix, on_rank(3));
        for rank in [4, usize::MAX] {
            let err = with_checkpoint(grid, payload(rank)).unwrap_err();
            assert!(err.to_string().contains("undecodable"), "{err}");
            assert!(err.to_string().contains("the run has 4 rank(s)"), "{err}");
        }
    }

    #[test]
    fn finished_frames_mark_completion() {
        let mut bytes = manifest_only();
        bytes.extend_from_slice(&frame::frame_bytes(
            TAG_FINISHED,
            b"{\"outer_completed\":3,\"converged\":true}",
        ));
        let recovered = recover_bytes(&bytes).expect("recovers");
        assert!(recovered.completed);
    }
}
