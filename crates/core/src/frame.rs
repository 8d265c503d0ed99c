//! The record frame both logs write — the WAL and the value log — and the
//! one scanner that reads a log's blocks back.
//!
//! A frame is `[marker, varint payload length, checksum32(payload) as 4
//! little-endian bytes, payload]`. Each log names its own non-zero
//! markers, and frames are packed into the log's blocks. A block can end
//! in zeros where a sync left it (`WritableFile::sync`), so the scanner
//! reads a zero byte at a frame boundary as "the rest of this block is
//! padding" and resumes at the next block.
//!
//! A scan ends in one of three ways. The bytes run out at a frame
//! boundary: a clean end. A frame runs past the bytes: [`Damage::Torn`],
//! the tail a crash cut off or no sync covered. A byte where a marker
//! belongs that is none of the log's, or a payload that fails its
//! checksum: [`Damage::Corrupt`].

use std::sync::Arc;

use lsm_storage::{FileId, IoCategory, StorageDevice};

use crate::entry::{get_varint, put_varint};
use crate::integrity::checksum32;

/// Bytes of a frame's checksum.
const SUM_LEN: usize = 4;

/// Why a frame could not be read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Damage {
    /// The frame runs past the end of the bytes.
    Torn,
    /// A marker the log does not use, or a checksum mismatch.
    Corrupt,
}

/// One intact frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Frame<'a> {
    /// Byte offset of the frame's marker.
    pub at: usize,
    /// The whole frame's length in bytes.
    pub len: usize,
    /// Which of the log's frames this is.
    pub marker: u8,
    /// The payload, its checksum verified.
    pub payload: &'a [u8],
}

/// Appends one frame of a `payload_len`-byte payload, which `payload`
/// writes straight into `out`; the checksum is patched in after it lands,
/// so no intermediate buffer exists.
pub(crate) fn put_frame(out: &mut Vec<u8>, marker: u8, payload_len: usize, payload: impl FnOnce(&mut Vec<u8>)) {
    out.push(marker);
    put_varint(out, payload_len as u64);
    out.extend_from_slice(&[0; SUM_LEN]);
    let start = out.len();
    payload(out);
    debug_assert_eq!(out.len() - start, payload_len);
    let sum = checksum32(&out[start..]).to_le_bytes();
    out[start - SUM_LEN..start].copy_from_slice(&sum);
}

/// Bytes [`put_frame`] appends for a `payload_len`-byte payload.
pub(crate) fn frame_len(payload_len: usize) -> usize {
    1 + crate::entry::varint_len(payload_len as u64) + SUM_LEN + payload_len
}

/// Decodes the frame at byte `at` of `bytes` if its marker is one of
/// `markers`.
pub(crate) fn decode<'a>(bytes: &'a [u8], at: usize, markers: &[u8]) -> Result<Frame<'a>, Damage> {
    let rest = bytes.get(at..).unwrap_or_default();
    let (&marker, header) = rest.split_first().ok_or(Damage::Torn)?;
    if !markers.contains(&marker) {
        return Err(Damage::Corrupt);
    }
    let (payload_len, n) = get_varint(header).ok_or(Damage::Torn)?;
    let start = 1 + n + SUM_LEN;
    let len = usize::try_from(payload_len)
        .ok()
        .and_then(|p| start.checked_add(p))
        .filter(|&len| len <= rest.len())
        .ok_or(Damage::Torn)?;
    let sum = u32::from_le_bytes(rest[1 + n..start].try_into().expect("a 4-byte checksum"));
    let payload = &rest[start..len];
    if checksum32(payload) != sum {
        return Err(Damage::Corrupt);
    }
    Ok(Frame { at, len, marker, payload })
}

/// The frames packed into a log's bytes, in order: each intact frame, then,
/// unless the bytes end cleanly, the [`Damage`] that stopped the scan, and
/// nothing after it.
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    block_size: usize,
    markers: &'a [u8],
    at: usize,
}

impl<'a> Frames<'a> {
    /// Scans `bytes`, laid out in `block_size`-byte blocks from its start,
    /// for frames marked with one of `markers`.
    pub(crate) fn new(bytes: &'a [u8], block_size: usize, markers: &'a [u8]) -> Self {
        Frames { bytes, block_size, markers, at: 0 }
    }

    /// Starts the scan at byte `at`, a frame boundary, instead of 0.
    pub(crate) fn starting_at(mut self, at: usize) -> Self {
        self.at = at;
        self
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<Frame<'a>, Damage>;

    fn next(&mut self) -> Option<Self::Item> {
        while *self.bytes.get(self.at)? == 0 {
            // the zeros closing a synced block: resume at the next one
            self.at = (self.at / self.block_size + 1) * self.block_size;
        }
        let frame = decode(self.bytes, self.at, self.markers);
        self.at = match frame {
            Ok(f) => f.at + f.len,
            Err(_) => self.bytes.len(),
        };
        Some(frame)
    }
}

/// Whether file `id` is a log of `markers` holding a record: its first
/// frame is one of theirs, intact. The orphan sweep's one probe, for both
/// logs; the checksum keeps a table, a manifest or a log of other markers
/// from passing for one, and a file whose first byte is none of
/// `markers` is not read past its first block.
pub(crate) fn holds_frames(device: &Arc<dyn StorageDevice>, id: FileId, markers: &[u8]) -> bool {
    let first = device.read(id, 0, 1, IoCategory::Misc);
    let bytes = || device.len_blocks(id).and_then(|n| device.read(id, 0, n, IoCategory::Misc));
    first.is_ok_and(|b| b.first().is_some_and(|m| markers.contains(m)))
        && bytes().is_ok_and(|b| matches!(Frames::new(&b, device.block_size(), markers).next(), Some(Ok(_))))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u8 = 0xA1;
    const B: u8 = 0xB2;

    fn framed(marker: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, marker, payload.len(), |out| out.extend_from_slice(payload));
        assert_eq!(out.len(), frame_len(payload.len()));
        out
    }

    #[test]
    fn frames_roundtrip_across_padded_blocks() {
        let bs = 64;
        let mut log = framed(A, b"first");
        log.extend(framed(B, &[7; 200])); // spans blocks
        log.resize(log.len().next_multiple_of(bs), 0); // a synced block's zeros
        log.extend(framed(A, b""));
        let got: Vec<_> = Frames::new(&log, bs, &[A, B]).collect::<Result<_, _>>().unwrap();
        assert_eq!(got.iter().map(|f| (f.marker, f.payload)).collect::<Vec<_>>(), [
            (A, &b"first"[..]),
            (B, &[7; 200][..]),
            (A, &b""[..]),
        ]);
        assert_eq!(got[2].at, 256);
        assert_eq!(got[1].at, got[0].len);
        assert_eq!(decode(&log, got[1].at, &[B]), Ok(got[1]));
    }

    #[test]
    fn a_cut_frame_is_torn_and_a_bad_one_corrupt() {
        let log = framed(A, &[9; 40]);
        for cut in 1..log.len() {
            assert_eq!(decode(&log[..cut], 0, &[A]), Err(Damage::Torn), "cut at {cut}");
        }
        assert_eq!(decode(&log, 0, &[B]), Err(Damage::Corrupt), "a marker the log does not use");
        assert_eq!(decode(&log, log.len(), &[A]), Err(Damage::Torn));
        let mut flipped = log.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(decode(&flipped, 0, &[A]), Err(Damage::Corrupt));
        // a hostile length neither overflows nor allocates
        let mut huge = vec![A];
        put_varint(&mut huge, u64::MAX);
        huge.extend_from_slice(&[0; 8]);
        assert_eq!(decode(&huge, 0, &[A]), Err(Damage::Torn));
    }

    #[test]
    fn the_scan_stops_at_the_first_damage() {
        let mut log = framed(A, b"kept");
        let second = log.len();
        log.extend(framed(A, b"lost"));
        log.extend(framed(A, b"after"));
        log[second + 7] ^= 1;
        let got: Vec<_> = Frames::new(&log, 4096, &[A]).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].unwrap().payload, b"kept");
        assert_eq!(got[1], Err(Damage::Corrupt));
    }
}
