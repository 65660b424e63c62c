//! Explicit halo exchange between rank subdomains.
//!
//! The block-Jacobi global schedule needs one halo exchange per iteration:
//! every rank sends, for every halo face it owns, the node values of the
//! outgoing angular flux on that face, and receives the matching values
//! from the neighbouring rank.  In a real distributed run this is an MPI
//! message; here the "network" is a set of `std::sync::mpsc` channels (one
//! mailbox per rank) and the payloads are packed into little-endian byte
//! buffers the same way a wire format would be.
//!
//! The [`BlockJacobiSolver`](crate::jacobi::BlockJacobiSolver) itself reads
//! lagged flux values directly from the shared previous-iteration array —
//! algorithmically identical and cheaper in a shared-memory simulation —
//! but the tests in this module exercise the packed exchange end-to-end so
//! the communication layer is known to work when the mini-app is hooked up
//! to a real transport.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

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

/// A set of per-rank mailboxes connected all-to-all.
pub struct HaloExchange {
    senders: Vec<Sender<Vec<u8>>>,
    /// A `Receiver` is not `Sync`; the exchange is shared across threads.
    receivers: Vec<Mutex<Receiver<Vec<u8>>>>,
}

impl HaloExchange {
    /// Create mailboxes for `num_ranks` ranks.
    pub fn new(num_ranks: usize) -> Self {
        let mut senders = Vec::with_capacity(num_ranks);
        let mut receivers = Vec::with_capacity(num_ranks);
        for _ in 0..num_ranks {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Mutex::new(rx));
        }
        Self { senders, receivers }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.senders.len()
    }

    /// Send a packed halo message to `to_rank`.
    pub fn send(&self, to_rank: usize, message: &HaloMessage) -> Result<(), CommError> {
        self.senders
            .get(to_rank)
            .ok_or(CommError::RankOutOfRange {
                rank: to_rank,
                num_ranks: self.num_ranks(),
            })?
            .send(message.pack())
            .map_err(|_| CommError::ChannelClosed { rank: to_rank })
    }

    /// Drain every message waiting in `rank`'s mailbox.
    pub fn drain(&self, rank: usize) -> Result<Vec<HaloMessage>, CommError> {
        let rx = self.receivers.get(rank).ok_or(CommError::RankOutOfRange {
            rank,
            num_ranks: self.num_ranks(),
        })?;
        let rx = rx
            .lock()
            .expect("no thread panics while holding a mailbox lock");
        let mut out = Vec::new();
        while let Ok(buf) = rx.try_recv() {
            out.push(HaloMessage::unpack(buf)?);
        }
        Ok(out)
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

    #[test]
    fn exchange_delivers_to_the_right_mailbox() {
        let ex = HaloExchange::new(3);
        assert_eq!(ex.num_ranks(), 3);
        let m = sample_message();
        ex.send(1, &m).unwrap();
        ex.send(1, &m).unwrap();
        ex.send(2, &m).unwrap();
        assert_eq!(ex.drain(0).unwrap().len(), 0);
        let at1 = ex.drain(1).unwrap();
        assert_eq!(at1.len(), 2);
        assert_eq!(at1[0], m);
        assert_eq!(ex.drain(2).unwrap().len(), 1);
        // Draining again finds nothing.
        assert_eq!(ex.drain(1).unwrap().len(), 0);
    }

    #[test]
    fn sending_to_missing_rank_errors() {
        let ex = HaloExchange::new(1);
        assert!(ex.send(5, &sample_message()).is_err());
        assert!(ex.drain(9).is_err());
    }

    #[test]
    fn exchange_works_across_threads() {
        let ex = std::sync::Arc::new(HaloExchange::new(2));
        let ex2 = ex.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..10 {
                let mut m = sample_message();
                m.cell = i;
                ex2.send(1, &m).unwrap();
            }
        });
        handle.join().unwrap();
        let received = ex.drain(1).unwrap();
        assert_eq!(received.len(), 10);
        let cells: Vec<usize> = received.iter().map(|m| m.cell).collect();
        assert_eq!(cells, (0..10).collect::<Vec<_>>());
    }
}
