//! 64-bit hashing for filters.
//!
//! All filters in this crate share one seeded 64-bit hash over byte keys
//! (an xxhash64-style mix) and derive their per-probe hashes via the
//! Kirsch–Mitzenmacher double-hashing schema `h_i = h1 + i*h2`, which the
//! tutorial cites (Zhu et al., DAMON '21) as the standard way to share hash
//! computation across probes.

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().unwrap()) as u64
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// Seeded 64-bit hash of `data` (xxhash64-style construction).
pub fn hash64_seed(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(rest));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h = (h ^ (byte as u64).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// Unseeded convenience wrapper around [`hash64_seed`].
///
/// `lsm-core` seals every data block, table section and WAL frame with
/// the low 32 bits of this function, so its output is an on-device format:
/// an edit that changes it makes existing files unreadable, and
/// `lsm-core`'s `integrity` known-answer test fails to say so.
pub fn hash64(data: &[u8]) -> u64 {
    hash64_seed(data, 0)
}

/// Splits one 64-bit hash into the `(h1, h2)` pair for double hashing.
/// `h2` is forced odd so the probe sequence covers all slots of
/// power-of-two tables.
#[inline]
pub fn double_hash_pair(h: u64) -> (u64, u64) {
    let h1 = h;
    let h2 = (h >> 33) | 1;
    (h1, h2)
}

/// `i`-th probe of the Kirsch–Mitzenmacher sequence.
#[inline]
pub fn nth_probe(h1: u64, h2: u64, i: u64) -> u64 {
    h1.wrapping_add(i.wrapping_mul(h2))
}

/// Cheap bijective 64-bit finalizer (splitmix64) for re-mixing derived
/// values (e.g., cuckoo fingerprints to alternate buckets).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(b"hello"), hash64(b"hello"));
        assert_eq!(hash64_seed(b"hello", 7), hash64_seed(b"hello", 7));
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(hash64_seed(b"hello", 0), hash64_seed(b"hello", 1));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash64(b"hello"), hash64(b"hellp"));
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_ne!(hash64(b"a"), hash64(b"aa"));
    }

    #[test]
    fn all_length_paths_covered() {
        // exercise <4, 4..8, 8..32, >=32 byte code paths
        for len in [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 64, 100] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let h = hash64(&data);
            // re-hash must agree
            assert_eq!(h, hash64(&data), "len {len}");
        }
    }

    #[test]
    fn avalanche_is_reasonable() {
        // flipping one input bit should flip ~32 of 64 output bits on average
        let base = b"the quick brown fox jumps over!!";
        let h0 = hash64(base);
        let mut total = 0u32;
        let mut count = 0u32;
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.to_vec();
                m[byte] ^= 1 << bit;
                total += (h0 ^ hash64(&m)).count_ones();
                count += 1;
            }
        }
        let avg = total as f64 / count as f64;
        assert!((24.0..40.0).contains(&avg), "avalanche avg {avg}");
    }

    #[test]
    fn double_hash_h2_is_odd() {
        for i in 0..1000u64 {
            let (_, h2) = double_hash_pair(mix64(i));
            assert_eq!(h2 & 1, 1);
        }
    }

    #[test]
    fn probe_sequence_covers_power_of_two_table() {
        // with odd stride, 16 probes into a 16-slot table hit all slots
        let (h1, h2) = double_hash_pair(hash64(b"key"));
        let mut seen = [false; 16];
        for i in 0..16 {
            seen[(nth_probe(h1, h2, i) % 16) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mix64_is_injective_on_sample() {
        use std::collections::HashSet;
        let vals: HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(vals.len(), 10_000);
    }

    #[test]
    fn distribution_into_buckets_is_uniformish() {
        const N: usize = 40_000;
        const B: usize = 64;
        let mut counts = [0usize; B];
        for i in 0..N {
            let key = format!("user{i:08}");
            counts[(hash64(key.as_bytes()) % B as u64) as usize] += 1;
        }
        let expected = N / B;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected as f64 * 0.7 && (c as f64) < expected as f64 * 1.3,
                "bucket {b} count {c} vs expected {expected}"
            );
        }
    }
}
