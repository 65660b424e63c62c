//! The read side: scan a run log, discard the torn tail, and rebuild
//! resume state.
//!
//! Recovery is a straight-line state machine over the frame stream:
//!
//! ```text
//!   header ──ok──▶ expect manifest ──'M'──▶ collect checkpoints
//!     │                  │                    │        │
//!  bad magic or       not 'M', or         'C' frame  'F' frame
//!  other version      another schema      (decode,   (mark run
//!     ▼                  ▼                 append)    completed)
//!    Err                Err                   │
//!                                     first defect: stop, keep
//!                                     the intact prefix, report
//!                                     `truncated`
//! ```
//!
//! The resume point is the *last* intact checkpoint; the replay prefix
//! is the concatenation of every intact checkpoint's event delta.  A
//! manifest whose schema fingerprint is not this build's
//! ([`wire::schema_fingerprint`](unsnap_core::wire::schema_fingerprint))
//! is refused as written under another problem schema, before its
//! problem is parsed.  A
//! log whose tail is torn mid-frame simply resumes one checkpoint
//! earlier — a torn frame is never accepted, and arbitrary input is
//! never a panic (the durability suite proves both at every byte
//! offset).

use std::path::Path;

use unsnap_core::error::{Error, Result};
use unsnap_core::solver::ResumePoint;
use unsnap_obs::reader;

use crate::checkpoint;
use crate::frame::{self, TAG_CHECKPOINT, TAG_FINISHED, TAG_MANIFEST};
use crate::manifest::Manifest;

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
    /// Resume state, for a log with ≥ 1 checkpoint.
    pub resume: Option<ResumePoint>,
}

pub(crate) fn decode_error(frame_index: usize, detail: String) -> Error {
    Error::Execution {
        reason: format!("run log frame {frame_index} is checksummed but undecodable: {detail}"),
    }
}

/// Recover from an in-memory log image (the pure core of [`recover`]).
pub fn recover_bytes(bytes: &[u8]) -> Result<Recovered> {
    let refusal = match frame::header_version(bytes) {
        Some(frame::FORMAT_VERSION) => None,
        Some(found) => Some(format!(
            "run log has format version {found}; this build reads only version {}",
            frame::FORMAT_VERSION
        )),
        None => Some("not an UnSNAP run log (missing or damaged header)".into()),
    };
    if let Some(reason) = refusal {
        return Err(Error::Execution { reason });
    }
    let scan = frame::scan(bytes);
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
    let manifest = Manifest::from_json(&manifest_value)?;

    let mut completed = false;
    let mut checkpoints = 0;
    let mut resume: Option<ResumePoint> = None;
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
                let mut point = checkpoint::from_json(&value, manifest.mode.num_ranks())
                    .map_err(|e| decode_error(index + 1, e))?;
                if let Some(mut previous) = resume.take() {
                    previous.prefix.events.append(&mut point.prefix.events);
                    point.prefix = previous.prefix;
                }
                resume = Some(point);
                checkpoints += 1;
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
    Ok(Recovered {
        manifest,
        checkpoints,
        completed,
        valid_len: scan.valid_len as u64,
        resume,
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
    use crate::manifest::RunMode;
    use unsnap_core::problem::Problem;

    fn manifest_only() -> Vec<u8> {
        manifest_for(RunMode::Single)
    }

    fn manifest_for(mode: RunMode) -> Vec<u8> {
        let manifest = Manifest {
            problem: Problem::tiny(),
            mode,
        };
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
        assert!(recovered.resume.is_none());
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

    /// Recover a log of `mode` holding one checkpoint frame of `payload`.
    fn with_checkpoint(mode: RunMode, payload: &str) -> Result<Recovered> {
        let mut bytes = manifest_for(mode);
        bytes.extend_from_slice(&frame::frame_bytes(TAG_CHECKPOINT, payload.as_bytes()));
        recover_bytes(&bytes)
    }

    /// A checkpoint payload of `num_ranks` ranks whose event delta names
    /// `rank`.
    fn payload_naming(num_ranks: usize, rank: usize) -> String {
        use unsnap_core::session::{EventLog, Lane, SolveEvent};
        use unsnap_core::solver::{CheckpointView, RunStats};

        let view = CheckpointView {
            outer_completed: 0,
            converged: false,
            phi: &[],
            halo: &[],
            stats: &RunStats::default(),
            rank_stats: &vec![RunStats::default(); num_ranks],
        };
        let events = EventLog {
            events: vec![(Lane::Rank(rank), SolveEvent::OuterStart { outer: 0 })],
        };
        checkpoint::to_json(&view, &events)
    }

    #[test]
    fn a_checkpoint_frame_in_the_wrong_mode_is_an_error() {
        // Decodes as JSON but misses the checkpoint fields.
        let err = with_checkpoint(RunMode::Single, "{\"outer_next\":1}").unwrap_err();
        assert!(err.to_string().contains("undecodable"), "{err}");
        // A well-formed payload of another rank count than the manifest's
        // grid: a block-Jacobi frame in a single-domain log and back.
        let grid = RunMode::Jacobi { npx: 2, npy: 2 };
        for (mode, num_ranks) in [(RunMode::Single, 4), (grid, 0), (grid, 2)] {
            let err = with_checkpoint(mode, &payload_naming(num_ranks, 0)).unwrap_err();
            assert!(err.to_string().contains("undecodable"), "{err}");
            assert!(err.to_string().contains("rank(s)"), "{err}");
        }
    }

    #[test]
    fn a_rank_the_run_cannot_have_is_a_typed_error() {
        // A single-domain run has no rank lanes at all.
        let err = with_checkpoint(RunMode::Single, &payload_naming(0, 0)).unwrap_err();
        assert!(err.to_string().contains("names rank 0"), "{err}");

        // A 2x2 run has ranks 0..4; `usize::MAX` would overflow the
        // per-lane tables the prefix is replayed into.
        let grid = RunMode::Jacobi { npx: 2, npy: 2 };
        let recovered = with_checkpoint(grid, &payload_naming(4, 3)).unwrap();
        let events = recovered.resume.unwrap().prefix.events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, unsnap_core::session::Lane::Rank(3));
        for rank in [4, usize::MAX] {
            let err = with_checkpoint(grid, &payload_naming(4, rank)).unwrap_err();
            assert!(err.to_string().contains("undecodable"), "{err}");
            assert!(err.to_string().contains("the run has 4 rank(s)"), "{err}");
        }
    }

    #[test]
    fn a_log_of_another_format_version_says_so() {
        // Intact magic, another version, then perfectly valid frames: the
        // error names both versions instead of "not a run log".
        for found in [1u32, 2, 3, 4, 5, 7] {
            let mut bytes = frame::MAGIC.to_vec();
            bytes.extend_from_slice(&found.to_le_bytes());
            bytes.extend_from_slice(&manifest_only()[frame::HEADER_LEN..]);
            bytes.extend_from_slice(&frame::frame_bytes(
                TAG_CHECKPOINT,
                payload_naming(0, 0).as_bytes(),
            ));
            let err = recover_bytes(&bytes).unwrap_err();
            assert!(matches!(err, Error::Execution { .. }), "{err:?}");
            let text = err.to_string();
            assert!(text.contains(&format!("format version {found}")), "{text}");
            let current = format!("version {}", frame::FORMAT_VERSION);
            assert!(text.contains(&current), "{text}");
            // Every truncation of it is still an error, never a panic.
            for cut in 0..bytes.len() {
                assert!(recover_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
        // A damaged magic is still "not a run log".
        let mut bytes = manifest_only();
        bytes[0] ^= 0xff;
        let err = recover_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("not an UnSNAP run log"), "{err}");
    }

    #[test]
    fn a_future_manifest_under_a_current_header_says_so() {
        // The header is this build's and the frame is intact, but the
        // manifest inside it was written by a later format.
        let manifest = Manifest {
            problem: Problem::tiny(),
            mode: RunMode::Single,
        }
        .to_json();
        let current = format!("\"format_version\":{}", frame::FORMAT_VERSION);
        let future = manifest.replace(&current, "\"format_version\":7");
        assert_ne!(future, manifest, "fixture must actually edit the version");
        let mut bytes = frame::header_bytes();
        bytes.extend_from_slice(&frame::frame_bytes(TAG_MANIFEST, future.as_bytes()));
        let text = recover_bytes(&bytes).unwrap_err().to_string();
        assert!(text.contains("format version 7"), "{text}");
        let reads = format!("this build reads {}", frame::FORMAT_VERSION);
        assert!(text.contains(&reads), "{text}");
    }

    #[test]
    fn checkpoints_append_their_prefixes_and_resume_from_the_last() {
        use unsnap_core::session::{EventLog, Lane, SolveEvent};
        use unsnap_core::solver::{CheckpointView, RunStats};

        let mut bytes = manifest_only();
        for outer in 0..2 {
            let phi = [outer as f64];
            let view = CheckpointView {
                outer_completed: outer,
                converged: false,
                phi: &phi,
                halo: &[],
                stats: &RunStats::default(),
                rank_stats: &[],
            };
            let delta = EventLog {
                events: vec![(Lane::Driver, SolveEvent::OuterStart { outer })],
            };
            let payload = checkpoint::to_json(&view, &delta);
            bytes.extend_from_slice(&frame::frame_bytes(TAG_CHECKPOINT, payload.as_bytes()));
        }
        let recovered = recover_bytes(&bytes).expect("recovers");
        assert_eq!(recovered.checkpoints, 2);
        let point = recovered.resume.expect("a resume point");
        assert_eq!((point.outer_next, point.phi), (2, vec![1.0]));
        let outers = point.prefix.on_lane(Lane::Driver, |e| match *e {
            SolveEvent::OuterStart { outer } => Some(outer),
            _ => None,
        });
        assert_eq!(outers, vec![0, 1]);
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
