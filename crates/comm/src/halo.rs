//! The wire form of one halo face: [`HaloMessage`] and its byte packing.
//!
//! In a distributed run a halo exchange is a message per cut face — the
//! node values of the outgoing angular flux on that face, for one angle
//! and group — and [`HaloMessage::pack`] / [`HaloMessage::unpack`] are
//! that message as little-endian bytes, with the length checks an input
//! boundary needs.
//!
//! No solve path sends one.  The ranks of
//! [`BlockJacobiSolver`](crate::jacobi::BlockJacobiSolver) share an
//! address space, so its exchange is each rank copying the node blocks
//! of the cells it exports into the shared
//! [`HaloFlux`](unsnap_core::domain::HaloFlux) once every rank of the
//! iteration is done — whole cells rather than faces, which is what the
//! sweep kernel gathers from.  The packing stays as the measured cost of
//! the wire form (the repository benchmark's `comm.halo.pack_ns`).

use crate::error::CommError;

/// One packed halo message: the flux node values of one face of one cell
/// for one (angle, group) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloMessage {
    /// Sending rank.
    pub from_rank: usize,
    /// Global cell id of the *sending* cell.
    pub cell: usize,
    /// Face index of the sending cell.
    pub face: usize,
    /// Angle index the data belongs to.
    pub angle: usize,
    /// Energy group the data belongs to.
    pub group: usize,
    /// Node values on the face (face-local canonical order).
    pub values: Vec<f64>,
}

impl HaloMessage {
    /// Serialise to a wire buffer (little-endian `u64` header fields, then
    /// the `f64` values).
    pub fn pack(&self) -> Vec<u8> {
        let header = [
            self.from_rank,
            self.cell,
            self.face,
            self.angle,
            self.group,
            self.values.len(),
        ];
        let mut buf = Vec::with_capacity(8 * (header.len() + self.values.len()));
        for field in header {
            buf.extend_from_slice(&(field as u64).to_le_bytes());
        }
        for v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Deserialise from a wire buffer.
    pub fn unpack(buf: impl AsRef<[u8]>) -> Result<Self, CommError> {
        let buf = buf.as_ref();
        if buf.len() < 48 {
            return Err(CommError::TruncatedMessage {
                bytes: buf.len(),
                minimum: 48,
            });
        }
        let mut words = buf
            .chunks_exact(8)
            .map(|w| w.try_into().expect("8-byte chunk"));
        let mut field = || u64::from_le_bytes(words.next().expect("six header words")) as usize;
        let (from_rank, cell, face, angle, group, len) =
            (field(), field(), field(), field(), field(), field());
        let payload_bytes = buf.len() - 48;
        if len.checked_mul(8) != Some(payload_bytes) {
            return Err(CommError::PayloadLengthMismatch {
                expected_values: len,
                payload_bytes,
            });
        }
        Ok(Self {
            from_rank,
            cell,
            face,
            angle,
            group,
            values: words.map(f64::from_le_bytes).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> HaloMessage {
        HaloMessage {
            from_rank: 2,
            cell: 17,
            face: 3,
            angle: 5,
            group: 1,
            values: vec![0.5, -1.25, 3.0, 4.75],
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let m = sample_message();
        let packed = m.pack();
        let unpacked = HaloMessage::unpack(packed).unwrap();
        assert_eq!(unpacked, m);
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(HaloMessage::unpack([1, 2, 3]).is_err());
        // Correct header but truncated payload.
        let mut m = sample_message();
        m.values = vec![1.0; 4];
        let mut packed = m.pack();
        packed.truncate(packed.len() - 8);
        assert!(HaloMessage::unpack(packed).is_err());
    }
}
