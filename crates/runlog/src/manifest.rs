//! The manifest frame: frame 0 of every run log.
//!
//! It pins the exact problem (canonical wire JSON plus its FNV-1a
//! hash), the iteration strategy and the execution mode (single-domain
//! or block-Jacobi with its process grid), so a resume can verify it is
//! continuing *the same run* before restoring any state.

use unsnap_core::problem::Problem;
use unsnap_core::wire;
use unsnap_obs::json::JsonObject;
use unsnap_obs::reader::JsonValue;

use crate::frame::FORMAT_VERSION;

/// How the logged run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One [`TransportSolver`](unsnap_core::solver::TransportSolver)
    /// over the whole mesh.
    Single,
    /// A [`BlockJacobiSolver`](unsnap_comm::jacobi::BlockJacobiSolver)
    /// over an `npx × npy` process grid.
    Jacobi {
        /// Subdomain count along x.
        npx: usize,
        /// Subdomain count along y.
        npy: usize,
    },
}

impl RunMode {
    /// The wire label (`"single"` / `"jacobi"`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            RunMode::Single => "single",
            RunMode::Jacobi { .. } => "jacobi",
        }
    }

    /// Entries in every checkpoint's `rank_stats`: `npx · npy`, or `0`
    /// for a single-domain run (which has no rank lanes at all).
    pub fn num_ranks(self) -> usize {
        match self {
            RunMode::Single => 0,
            RunMode::Jacobi { npx, npy } => npx.saturating_mul(npy),
        }
    }
}

/// The decoded manifest frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The problem being solved, rebuilt from its canonical wire form.
    pub problem: Problem,
    /// `problem.canonical_hash()`, as stored in the frame.
    pub problem_hash: u64,
    /// Execution mode of the logged run.
    pub mode: RunMode,
}

impl Manifest {
    /// A manifest pinning `problem` under `mode`.
    pub(crate) fn new(problem: Problem, mode: RunMode) -> Self {
        let problem_hash = problem.canonical_hash();
        Self {
            problem,
            problem_hash,
            mode,
        }
    }

    /// Encode as the manifest frame payload.
    ///
    /// Hashes are serialised as 16-digit hex *strings*: the JSON reader
    /// parses numbers as `f64`, which cannot hold a full `u64`.
    pub(crate) fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .field_usize("format_version", FORMAT_VERSION as usize)
            .field_str("mode", self.mode.label());
        if let RunMode::Jacobi { npx, npy } = self.mode {
            obj = obj.field_usize("npx", npx).field_usize("npy", npy);
        }
        obj.field_str("strategy", self.problem.strategy.label())
            .field_raw("problem", &wire::problem_to_json(&self.problem))
            .field_str("problem_hash", &format!("{:016x}", self.problem_hash))
            .finish()
    }

    /// Decode a manifest frame payload, verifying the stored problem
    /// hash against a recomputed `canonical_hash()`.
    pub(crate) fn from_json(value: &JsonValue) -> Result<Self, String> {
        let version = value
            .get("format_version")
            .and_then(JsonValue::as_usize)
            .ok_or("manifest missing format_version")?;
        if version != FORMAT_VERSION as usize {
            return Err(format!(
                "unsupported run-log format version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let mode = match value.get("mode").and_then(JsonValue::as_str) {
            Some("single") => RunMode::Single,
            Some("jacobi") => RunMode::Jacobi {
                npx: value
                    .get("npx")
                    .and_then(JsonValue::as_usize)
                    .ok_or("jacobi manifest missing npx")?,
                npy: value
                    .get("npy")
                    .and_then(JsonValue::as_usize)
                    .ok_or("jacobi manifest missing npy")?,
            },
            other => return Err(format!("manifest mode {other:?} unknown")),
        };
        let problem_value = value.get("problem").ok_or("manifest missing problem")?;
        let problem = wire::problem_from_json_str(&problem_value.to_string())
            .map_err(|e| format!("manifest problem does not build: {e}"))?;
        let stored = value
            .get("problem_hash")
            .and_then(JsonValue::as_str)
            .ok_or("manifest missing problem_hash")?;
        let stored =
            u64::from_str_radix(stored, 16).map_err(|e| format!("bad problem_hash: {e}"))?;
        let recomputed = problem.canonical_hash();
        if stored != recomputed {
            return Err(format!(
                "manifest hash mismatch: stored {stored:016x}, recomputed {recomputed:016x}"
            ));
        }
        Ok(Self {
            problem,
            problem_hash: stored,
            mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_obs::reader;

    #[test]
    fn single_manifest_round_trips() {
        let problem = Problem::tiny();
        let manifest = Manifest::new(problem.clone(), RunMode::Single);
        let parsed = reader::parse(&manifest.to_json()).expect("valid JSON");
        let back = Manifest::from_json(&parsed).expect("decodes");
        assert_eq!(back, manifest);
        assert_eq!(back.problem, problem);
    }

    #[test]
    fn jacobi_manifest_keeps_the_grid() {
        let manifest = Manifest::new(Problem::tiny(), RunMode::Jacobi { npx: 2, npy: 3 });
        let parsed = reader::parse(&manifest.to_json()).expect("valid JSON");
        let back = Manifest::from_json(&parsed).expect("decodes");
        assert_eq!(back.mode, RunMode::Jacobi { npx: 2, npy: 3 });
    }

    #[test]
    fn tampered_problems_fail_the_hash_check() {
        let manifest = Manifest::new(Problem::tiny(), RunMode::Single);
        let tampered = manifest.to_json().replace("\"nx\":3", "\"nx\":4");
        assert_ne!(
            tampered,
            manifest.to_json(),
            "fixture must actually edit nx"
        );
        let parsed = reader::parse(&tampered).expect("valid JSON");
        let err = Manifest::from_json(&parsed).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }
}
