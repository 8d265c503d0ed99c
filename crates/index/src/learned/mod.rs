//! Learned index over sorted runs (tutorial Module II.4).
//!
//! The model treats keys as `u64`s (via a monotone 8-byte-prefix map for
//! byte keys) and predicts the *block index* of a key with a bounded error
//! `ε`; the reader then searches at most `2ε + 1` blocks — usually a much
//! smaller in-memory structure than fence pointers, which the tutorial
//! (citing Google's production study) highlights as the learned-index win
//! for immutable LSM runs.

pub mod pla;

/// Monotone map from byte keys to the u64 model domain (first 8 bytes,
/// big-endian, zero padded).
pub fn key_to_u64(key: &[u8]) -> u64 {
    key_to_u64_skipping(key, 0)
}

/// Like [`key_to_u64`] but over `key[skip..]`. The learned index strips
/// the common prefix of a run's fences before mapping, so long shared
/// prefixes (e.g. `user00000…`) don't collapse every key onto one model
/// point. The map stays monotone for all keys sharing the stripped
/// prefix, which every key inside the run's `[min, max]` range does.
pub fn key_to_u64_skipping(key: &[u8], skip: usize) -> u64 {
    let tail = key.get(skip..).unwrap_or(&[]);
    let mut buf = [0u8; 8];
    let n = tail.len().min(8);
    buf[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(buf)
}

/// Longest common prefix length of a sorted key list (= lcp of first and
/// last element).
pub fn common_prefix_len(keys: &[Vec<u8>]) -> usize {
    match (keys.first(), keys.last()) {
        (Some(a), Some(b)) => a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_monotone() {
        let mut keys: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("{:010}", i * 977).into_bytes())
            .collect();
        keys.sort();
        for w in keys.windows(2) {
            assert!(key_to_u64(&w[0]) <= key_to_u64(&w[1]));
        }
    }

    #[test]
    fn short_keys_pad_with_zeros() {
        assert!(key_to_u64(b"a") < key_to_u64(b"aa"));
        assert_eq!(key_to_u64(b""), 0);
    }
}
