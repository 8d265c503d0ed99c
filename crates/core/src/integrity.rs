//! Integrity: the one checksum every sealed on-device structure carries.
//!
//! Data blocks, the table's meta / point-filter / range-filter sections
//! (each filter partition separately), the frames of both logs (WAL
//! records and groups, value-log records) and the record files (the
//! manifest, the server's shard map) are all covered by [`checksum32`].
//! Blocks, sections and records store it as a 4-byte little-endian
//! trailer ([`seal`] / [`unseal`]); log frames store it in their header
//! (`frame.rs`).
//!
//! Verification happens exactly where bytes leave the device — a
//! `Table::read_data_block` miss, `Table::open`, a filter-partition miss,
//! WAL replay, a value-log read or GC scan, a record-file scan — and
//! *before* anything is admitted to the block cache, so a cache hit is
//! hash-free and a transiently flipped read can never be served twice.

use lsm_filters::hash::hash64;

/// Bytes [`seal`] appends.
pub(crate) const TRAILER_LEN: usize = 4;

/// The integrity checksum: the low 32 bits of the filters' xxhash64-style
/// hash, which consumes 32 bytes per step in four independent lanes. This
/// is an on-device format: the known-answer test below pins it.
pub(crate) fn checksum32(bytes: &[u8]) -> u32 {
    hash64(bytes) as u32
}

/// Appends the checksum of everything in `buf` as its trailer.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let sum = checksum32(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Verifies a [`seal`]ed buffer and returns the bytes the trailer covers;
/// `None` when it is shorter than a trailer or the checksum mismatches.
pub(crate) fn unseal(sealed: &[u8]) -> Option<&[u8]> {
    let (body, trailer) = sealed.split_last_chunk::<TRAILER_LEN>()?;
    (checksum32(body) == u32::from_le_bytes(*trailer)).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn known_answer_pins_the_on_device_format() {
        // If this fails, `lsm_filters::hash::hash64` changed — and with it
        // every block, table section and log frame already on a device.
        assert_eq!(checksum32(&pattern(100)), 0x170F_E531);
        // the empty input's value is XXH64's own published one
        assert_eq!(checksum32(&[]), 0x51D8_E999);
    }

    #[test]
    fn seal_unseal_roundtrip() {
        for len in [0usize, 1, 31, 32, 4096] {
            let body = pattern(len);
            let mut sealed = body.clone();
            seal(&mut sealed);
            assert_eq!(sealed.len(), len + TRAILER_LEN);
            assert_eq!(unseal(&sealed), Some(body.as_slice()), "len {len}");
        }
    }

    #[test]
    fn unseal_rejects_inputs_shorter_than_the_trailer() {
        for len in 0..TRAILER_LEN {
            assert_eq!(unseal(&vec![0u8; len]), None, "len {len}");
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_changes_the_checksum() {
        // 0..=96 crosses the 32-byte lane loop and its 8/4/1-byte tails
        for len in 0..=96usize {
            let data = pattern(len);
            let sum = checksum32(&data);
            for bit in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum32(&flipped), sum, "len {len} bit {bit}");
            }
            if len > 0 {
                assert_ne!(checksum32(&data[..len - 1]), sum, "len {len} truncated");
            }
        }
    }
}
