//! The manifest frame: frame 0 of every run log.
//!
//! It pins the exact problem (canonical wire JSON plus its FNV-1a
//! hash), the wire schema that JSON was written under
//! ([`wire::schema_fingerprint`]) and the execution mode (single-domain
//! or block-Jacobi with its process grid), so a resume can verify it is
//! continuing *the same run* before restoring any state.

use unsnap_core::error::{Error, Result};
use unsnap_core::problem::Problem;
use unsnap_core::wire;
use unsnap_obs::json::JsonObject;
use unsnap_obs::reader::JsonValue;

use crate::frame::FORMAT_VERSION;
use crate::recover::decode_error;

/// How the logged run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One [`TransportSolver`](unsnap_core::solver::TransportSolver)
    /// over the whole mesh.
    Single,
    /// A `BlockJacobiSolver` over an `npx × npy` process grid.
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
    /// The problem being solved, rebuilt from its canonical wire form
    /// and checked against the `canonical_hash()` stored beside it.
    pub problem: Problem,
    /// Execution mode of the logged run.
    pub mode: RunMode,
}

impl Manifest {
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
        obj.field_str("schema", &format!("{:016x}", wire::schema_fingerprint()))
            .field_raw("problem", &wire::problem_to_json(&self.problem))
            .field_str(
                "problem_hash",
                &format!("{:016x}", self.problem.canonical_hash()),
            )
            .finish()
    }

    /// Decode a manifest frame payload, verifying the stored problem
    /// hash against a recomputed `canonical_hash()`.  A manifest of
    /// another format version or problem schema is refused by name
    /// before its problem is parsed; any other defect is undecodable.
    pub(crate) fn from_json(value: &JsonValue) -> Result<Self> {
        let refused = |reason: String| Error::Execution { reason };
        let stored_hex = |key: &str| -> Result<u64> {
            let text = value
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| decode_error(0, format!("manifest missing {key}")))?;
            u64::from_str_radix(text, 16).map_err(|e| decode_error(0, format!("bad {key}: {e}")))
        };
        let version = value
            .get("format_version")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| decode_error(0, "manifest missing format_version".into()))?;
        if version != FORMAT_VERSION as usize {
            return Err(refused(format!(
                "run-log manifest has format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let (schema, current) = (stored_hex("schema")?, wire::schema_fingerprint());
        if schema != current {
            return Err(refused(format!(
                "run log was written under problem schema {schema:016x}, but this build's \
                 problem schema is {current:016x}: the problem schema changed, so the logged \
                 problem cannot be rebuilt; re-solve instead of resuming"
            )));
        }
        Self::decode(value, stored_hex("problem_hash")?).map_err(|e| decode_error(0, e))
    }

    /// The manifest fields under a known format and schema.
    fn decode(value: &JsonValue, stored: u64) -> std::result::Result<Self, String> {
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
        let recomputed = problem.canonical_hash();
        if stored != recomputed {
            return Err(format!(
                "manifest hash mismatch: stored {stored:016x}, recomputed {recomputed:016x}"
            ));
        }
        Ok(Self { problem, mode })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_obs::reader;

    #[test]
    fn single_manifest_round_trips() {
        let problem = Problem::tiny();
        let manifest = Manifest {
            problem: problem.clone(),
            mode: RunMode::Single,
        };
        let parsed = reader::parse(&manifest.to_json()).expect("valid JSON");
        let back = Manifest::from_json(&parsed).expect("decodes");
        assert_eq!(back, manifest);
        assert_eq!(back.problem, problem);
    }

    #[test]
    fn jacobi_manifest_keeps_the_grid() {
        let manifest = Manifest {
            problem: Problem::tiny(),
            mode: RunMode::Jacobi { npx: 2, npy: 3 },
        };
        let parsed = reader::parse(&manifest.to_json()).expect("valid JSON");
        let back = Manifest::from_json(&parsed).expect("decodes");
        assert_eq!(back.mode, RunMode::Jacobi { npx: 2, npy: 3 });
    }

    #[test]
    fn tampered_problems_fail_the_hash_check() {
        let manifest = Manifest {
            problem: Problem::tiny(),
            mode: RunMode::Single,
        };
        let tampered = manifest.to_json().replace("\"nx\":3", "\"nx\":4");
        assert_ne!(
            tampered,
            manifest.to_json(),
            "fixture must actually edit nx"
        );
        let parsed = reader::parse(&tampered).expect("valid JSON");
        let err = Manifest::from_json(&parsed).unwrap_err().to_string();
        assert!(err.contains("hash mismatch"), "{err}");
    }
}
