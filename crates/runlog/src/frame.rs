//! The on-disk frame format: a fixed header followed by length-prefixed,
//! checksummed frames.
//!
//! ```text
//! ┌──────────────────────────────┐
//! │ magic  "UNSNAPRL"   (8 bytes)│  file header
//! │ format version u32 LE        │
//! ├──────────────────────────────┤
//! │ tag  u8  ('M'/'C'/'F')       │  frame 0 (always a manifest)
//! │ len  u32 LE                  │
//! │ payload  (len bytes, JSON)   │
//! │ FNV-1a64 u64 LE              │  over tag ‖ len ‖ payload
//! ├──────────────────────────────┤
//! │ …more frames…                │
//! └──────────────────────────────┘
//! ```
//!
//! The checksum is the same FNV-1a (64-bit) that
//! [`Problem::canonical_hash`](unsnap_core::problem::Problem::canonical_hash)
//! uses, computed over the tag byte, the four length bytes and the
//! payload — so a torn length prefix is caught, not just a torn payload.
//!
//! [`scan`] walks a byte buffer frame by frame and stops at the first
//! defect (short header, truncated frame, checksum mismatch, unknown
//! tag).  Everything before the defect is intact; everything from it on
//! is a torn tail the recovery layer logically discards.  A scan never
//! panics on any input.

/// Magic bytes opening every run log.
pub const MAGIC: &[u8; 8] = b"UNSNAPRL";

/// The current format version (bumped on any incompatible layout
/// change; recovery refuses other versions rather than misparsing).
/// Version 2 gave the checkpoint frame one payload for both execution
/// modes (`rank_stats` always present, block-Jacobi halo accounting
/// folded into `stats`).  Version 3 dropped the per-bucket event from
/// the checkpoint's event prefix and gave `sweep` its `buckets` count:
/// a version-2 prefix replays events no observer knows.  Version 4 keeps
/// only what an iteration boundary hands on — the checkpoint's angular
/// flux is the `halo` of a block-Jacobi run and nothing on one domain —
/// and stores events in the encoding `JsonlObserver` streams: a
/// version-3 frame has neither key.  Version 5 keeps the same keys, but a
/// block-Jacobi `halo` holds the face traces a downwind rank reads rather
/// than the whole node blocks of every cell on a cut: a version-4 halo
/// has another length and another order.
pub const FORMAT_VERSION: u32 = 5;

/// Total header length: magic plus version.
pub const HEADER_LEN: usize = MAGIC.len() + 4;

/// Frame tag: the manifest (problem + mode), always frame 0.
pub const TAG_MANIFEST: u8 = b'M';
/// Frame tag: a checkpoint fragment.
pub const TAG_CHECKPOINT: u8 = b'C';
/// Frame tag: the finished marker (the run completed; nothing to
/// resume).
pub const TAG_FINISHED: u8 = b'F';

/// FNV-1a 64-bit over `bytes` — the workspace's canonical content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The checksum of a frame: FNV-1a over tag, length prefix and payload.
fn frame_checksum(tag: u8, payload: &[u8]) -> u64 {
    let mut prefix = [0u8; 5];
    prefix[0] = tag;
    prefix[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut hash = fnv1a(&prefix);
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in payload {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Serialise the file header.
pub fn header_bytes() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Serialise one frame (tag, length prefix, payload, checksum).
pub fn frame_bytes(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 + payload.len() + 8);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(tag, payload).to_le_bytes());
    out
}

/// One intact frame yielded by [`scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The frame tag (one of the `TAG_*` constants).
    pub tag: u8,
    /// The frame payload (JSON text for every current tag).
    pub payload: &'a [u8],
    /// Byte offset one past this frame's checksum — the length of the
    /// valid prefix ending with this frame.
    pub end_offset: usize,
}

/// The result of walking a buffer: every intact frame in order, plus
/// whether a torn tail (or a bad header) was found after them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome<'a> {
    /// Intact frames, in file order.
    pub frames: Vec<Frame<'a>>,
    /// Length of the valid prefix in bytes (header plus intact frames);
    /// re-opening for append truncates to this.
    pub valid_len: usize,
    /// `true` when bytes after the valid prefix were discarded (a torn
    /// frame, garbage, or a damaged header).
    pub truncated: bool,
}

/// The format version the buffer's header names — which may not be
/// [`FORMAT_VERSION`] — or `None` when the buffer does not open with an
/// intact magic and version field.
pub fn header_version(bytes: &[u8]) -> Option<u32> {
    let version = bytes.get(MAGIC.len()..HEADER_LEN)?;
    bytes
        .starts_with(MAGIC)
        .then(|| u32::from_le_bytes(version.try_into().expect("4-byte slice")))
}

/// Walk `bytes` and return every intact frame before the first defect.
///
/// Never panics; arbitrary input (including an empty or truncated
/// buffer) yields an empty frame list with `truncated` set.
pub fn scan(bytes: &[u8]) -> ScanOutcome<'_> {
    if header_version(bytes) != Some(FORMAT_VERSION) {
        return ScanOutcome {
            frames: Vec::new(),
            valid_len: 0,
            truncated: !bytes.is_empty(),
        };
    }
    let mut frames = Vec::new();
    let mut offset = HEADER_LEN;
    loop {
        if offset == bytes.len() {
            // Clean end of file.
            return ScanOutcome {
                frames,
                valid_len: offset,
                truncated: false,
            };
        }
        // A frame needs at least tag + length + checksum.
        let Some(rest) = bytes.get(offset..) else {
            break;
        };
        if rest.len() < 1 + 4 + 8 {
            break;
        }
        let tag = rest[0];
        if tag != TAG_MANIFEST && tag != TAG_CHECKPOINT && tag != TAG_FINISHED {
            break;
        }
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
        let Some(payload) = rest.get(5..5 + len) else {
            break;
        };
        let Some(checksum_bytes) = rest.get(5 + len..5 + len + 8) else {
            break;
        };
        let stored = u64::from_le_bytes(checksum_bytes.try_into().expect("8-byte slice"));
        if stored != frame_checksum(tag, payload) {
            break;
        }
        offset += 5 + len + 8;
        frames.push(Frame {
            tag,
            payload,
            end_offset: offset,
        });
    }
    let valid_len = frames.last().map_or(HEADER_LEN, |f| f.end_offset);
    ScanOutcome {
        frames,
        valid_len,
        truncated: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<u8> {
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&frame_bytes(TAG_MANIFEST, b"{\"m\":1}"));
        bytes.extend_from_slice(&frame_bytes(TAG_CHECKPOINT, b"{\"c\":1}"));
        bytes.extend_from_slice(&frame_bytes(TAG_CHECKPOINT, b"{\"c\":2}"));
        bytes
    }

    #[test]
    fn round_trips_intact_logs() {
        let bytes = sample_log();
        let scan = scan(&bytes);
        assert!(!scan.truncated);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[0].tag, TAG_MANIFEST);
        assert_eq!(scan.frames[1].payload, b"{\"c\":1}");
        assert_eq!(scan.frames[2].end_offset, bytes.len());
    }

    #[test]
    fn every_truncation_yields_an_intact_prefix() {
        let bytes = sample_log();
        let full = scan(&bytes);
        for cut in 0..bytes.len() {
            let partial = scan(&bytes[..cut]);
            assert!(partial.frames.len() <= full.frames.len());
            // Every surviving frame is byte-identical to the original.
            for (kept, original) in partial.frames.iter().zip(&full.frames) {
                assert_eq!(kept, original, "cut at {cut}");
            }
            // A cut strictly inside the buffer is always reported torn
            // unless it lands exactly on a frame boundary.
            let on_boundary =
                cut == 0 || cut == HEADER_LEN || full.frames.iter().any(|f| f.end_offset == cut);
            assert_eq!(partial.truncated, !on_boundary && cut > 0, "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_bytes_never_extend_the_prefix() {
        let bytes = sample_log();
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x5a;
            let scanned = scan(&evil);
            // Corruption can only lose frames, never invent them.
            assert!(scanned.frames.len() <= 3, "flip at {i}");
            assert!(scanned.valid_len <= bytes.len());
        }
    }

    #[test]
    fn unknown_tags_stop_the_scan() {
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&frame_bytes(TAG_MANIFEST, b"{}"));
        bytes.extend_from_slice(&frame_bytes(b'Z', b"{}"));
        let scanned = scan(&bytes);
        assert_eq!(scanned.frames.len(), 1);
        assert!(scanned.truncated);
    }
}
