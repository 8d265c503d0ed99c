//! Xor filter (Graf & Lemire), a static Bloom-filter replacement.
//!
//! Stores one fingerprint slot per ~1.23 keys in three segments; a query
//! xors three slots and compares against the key's fingerprint. Space is
//! ~9.84 bits/key at an ~0.39% FPR with 8-bit fingerprints — smaller than a
//! Bloom filter of equal FPR, at the cost of a build that needs the whole
//! key set at once (a perfect match for immutable LSM runs, per the
//! tutorial's observation that immutability enables static structures).

use crate::hash::{hash64, mix64};
use crate::traits::PointFilter;

/// An 8-bit-fingerprint xor filter.
#[derive(Clone, Debug)]
pub struct XorFilter {
    slots: Vec<u8>,
    seed: u64,
    segment_len: usize,
    num_keys: usize,
}

impl XorFilter {
    /// Builds over `keys`. Duplicate keys are deduplicated by hash.
    pub fn build(keys: &[&[u8]]) -> Self {
        let mut hashes: Vec<u64> = keys.iter().map(|k| hash64(k)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        Self::build_from_hashes(&hashes)
    }

    /// Builds from pre-hashed, deduplicated keys.
    pub fn build_from_hashes(hashes: &[u64]) -> Self {
        let n = hashes.len();
        if n == 0 {
            return XorFilter {
                slots: vec![0; 3],
                seed: 0,
                segment_len: 1,
                num_keys: 0,
            };
        }
        let capacity = ((1.23 * n as f64).ceil() as usize + 32).div_ceil(3) * 3;
        let segment_len = capacity / 3;
        let mut seed = 0x8af3_1d7e_u64;
        loop {
            if let Some(slots) = Self::try_construct(hashes, seed, segment_len) {
                return XorFilter {
                    slots,
                    seed,
                    segment_len,
                    num_keys: n,
                };
            }
            seed = mix64(seed);
        }
    }

    #[inline]
    fn idx(h: u64, seed: u64, seg: usize, segment_len: usize) -> usize {
        let hh = mix64(h ^ seed.wrapping_add(seg as u64 * 0x9E37_79B9));
        seg * segment_len + (((hh as u128 * segment_len as u128) >> 64) as usize)
    }

    #[inline]
    fn fingerprint_of(h: u64, seed: u64) -> u8 {
        let f = (mix64(h ^ seed) >> 32) as u8;
        if f == 0 {
            1
        } else {
            f
        }
    }

    fn try_construct(hashes: &[u64], seed: u64, segment_len: usize) -> Option<Vec<u8>> {
        let capacity = segment_len * 3;
        // peeling: count keys per slot, repeatedly remove slots with count 1
        let mut count = vec![0u32; capacity];
        let mut xor_acc = vec![0u64; capacity];
        for &h in hashes {
            for seg in 0..3 {
                let i = Self::idx(h, seed, seg, segment_len);
                count[i] += 1;
                xor_acc[i] ^= h;
            }
        }
        let mut stack: Vec<(usize, u64)> = Vec::with_capacity(hashes.len());
        let mut queue: Vec<usize> = (0..capacity).filter(|&i| count[i] == 1).collect();
        while let Some(i) = queue.pop() {
            if count[i] != 1 {
                continue;
            }
            let h = xor_acc[i];
            stack.push((i, h));
            for seg in 0..3 {
                let j = Self::idx(h, seed, seg, segment_len);
                count[j] -= 1;
                xor_acc[j] ^= h;
                if count[j] == 1 {
                    queue.push(j);
                }
            }
        }
        if stack.len() != hashes.len() {
            return None; // peeling failed; retry with a new seed
        }
        let mut slots = vec![0u8; capacity];
        for &(i, h) in stack.iter().rev() {
            let fp = Self::fingerprint_of(h, seed);
            let mut v = fp;
            for seg in 0..3 {
                let j = Self::idx(h, seed, seg, segment_len);
                if j != i {
                    v ^= slots[j];
                }
            }
            slots[i] = v;
        }
        Some(slots)
    }

    /// Probes with a precomputed base hash.
    pub fn may_contain_hash(&self, h: u64) -> bool {
        if self.num_keys == 0 {
            return false;
        }
        let fp = Self::fingerprint_of(h, self.seed);
        let mut v = 0u8;
        for seg in 0..3 {
            v ^= self.slots[Self::idx(h, self.seed, seg, self.segment_len)];
        }
        v == fp
    }

    /// The seed the successful construction used.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl PointFilter for XorFilter {
    fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(hash64(key))
    }

    fn size_bits(&self) -> usize {
        self.slots.len() * 8
    }

    fn num_keys(&self) -> usize {
        self.num_keys
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.slots.len());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.num_keys as u32).to_le_bytes());
        out.extend_from_slice(&(self.segment_len as u32).to_le_bytes());
        out.extend_from_slice(&self.slots);
        out
    }
}

impl XorFilter {
    /// Deserializes a filter produced by [`PointFilter::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 {
            return None;
        }
        let seed = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let num_keys = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        let segment_len = u32::from_le_bytes(bytes[12..16].try_into().ok()?) as usize;
        let slots = bytes[16..].to_vec();
        if slots.len() != segment_len * 3 {
            return None;
        }
        Some(XorFilter {
            slots,
            seed,
            segment_len,
            num_keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::empirical_fpr;

    fn keys(range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        range.map(|i| format!("key{i:08}").into_bytes()).collect()
    }

    fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(|k| k.as_slice()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let present = keys(0..20_000);
        let f = XorFilter::build(&refs(&present));
        for k in &present {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn fpr_close_to_theory() {
        let present = keys(0..20_000);
        let absent = keys(100_000..160_000);
        let f = XorFilter::build(&refs(&present));
        let fpr = empirical_fpr(&f, &absent);
        // 8-bit fingerprints: theoretical FPR = 1/256 ≈ 0.39%
        assert!(fpr < 0.012, "fpr {fpr}");
    }

    #[test]
    fn space_is_about_9_84_bits_per_key() {
        let present = keys(0..50_000);
        let f = XorFilter::build(&refs(&present));
        let bpk = f.bits_per_key();
        assert!((9.5..10.5).contains(&bpk), "bits/key {bpk}");
    }

    #[test]
    fn handles_duplicates() {
        let mut present = keys(0..100);
        present.extend(keys(0..100));
        let f = XorFilter::build(&refs(&present));
        for k in &present {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = XorFilter::build(&[]);
        assert!(!f.may_contain(b"x"));
        assert_eq!(f.num_keys(), 0);
    }

    #[test]
    fn single_key() {
        let f = XorFilter::build(&[b"only".as_slice()]);
        assert!(f.may_contain(b"only"));
        let absent = keys(0..2000);
        let fpr = empirical_fpr(&f, &absent);
        assert!(fpr < 0.02, "{fpr}");
    }

    #[test]
    fn serialization_roundtrip() {
        let present = keys(0..5000);
        let f = XorFilter::build(&refs(&present));
        let g = XorFilter::from_bytes(&f.to_bytes()).unwrap();
        for k in keys(0..10_000) {
            assert_eq!(f.may_contain(&k), g.may_contain(&k));
        }
        assert_eq!(f.seed(), g.seed());
    }

    #[test]
    fn from_bytes_rejects_bad_length() {
        let present = keys(0..100);
        let f = XorFilter::build(&refs(&present));
        let mut bytes = f.to_bytes();
        bytes.pop();
        assert!(XorFilter::from_bytes(&bytes).is_none());
    }
}
