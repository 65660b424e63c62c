//! Typed failure modes of the simulated communication layer.
//!
//! `unsnap-comm` sits *above* `unsnap-core` in the dependency graph, so
//! the conversion into the workspace-wide error type lives here: a
//! [`CommError`] turns into
//! [`unsnap_core::error::Error::Comm`] via `From`, which lets `?`
//! propagate communication failures out of the distributed solvers.

use std::fmt;

use unsnap_core::error::Error;

/// Errors produced by the halo wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A wire buffer too short to hold a halo-message header.
    TruncatedMessage {
        /// Bytes present in the buffer.
        bytes: usize,
        /// Minimum bytes a header needs.
        minimum: usize,
    },
    /// A halo payload whose length disagrees with its header.
    PayloadLengthMismatch {
        /// Values the header promised.
        expected_values: usize,
        /// Bytes actually present after the header.
        payload_bytes: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::TruncatedMessage { bytes, minimum } => write!(
                f,
                "halo message too short: {bytes} bytes, header needs {minimum}"
            ),
            CommError::PayloadLengthMismatch {
                expected_values,
                payload_bytes,
            } => write!(
                f,
                "halo payload length mismatch: expected {expected_values} values, \
                 have {payload_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for Error {
    fn from(e: CommError) -> Self {
        Error::Comm {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = CommError::TruncatedMessage {
            bytes: 7,
            minimum: 48,
        };
        assert!(e.to_string().contains("7 bytes"));
        assert!(e.to_string().contains("48"));
        let e = CommError::PayloadLengthMismatch {
            expected_values: 8,
            payload_bytes: 40,
        };
        assert!(e.to_string().contains("8 values"));
    }

    #[test]
    fn converts_into_the_workspace_error() {
        let e: Error = CommError::TruncatedMessage {
            bytes: 2,
            minimum: 48,
        }
        .into();
        assert!(matches!(e, Error::Comm { .. }));
        assert!(e.to_string().contains("2 bytes"));
    }
}
