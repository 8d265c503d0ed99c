//! Fence pointers: the classic LSM block index (tutorial Module II.1).
//!
//! Stores the *last* key of every data block. A lookup binary-searches the
//! fences and reads exactly one block — turning the per-run storage search
//! from O(log blocks) I/Os into one I/O, which is the reason every LSM
//! engine ships them (they are a special form of Moerkotte's Zonemaps /
//! small materialized aggregates).
//!
//! Layout: instead of a `Vec<Vec<u8>>` (one heap object and one pointer
//! chase per probed fence), the keys live concatenated in a single byte
//! buffer addressed by a `u32` offset array, with an 8-byte big-endian
//! prefix of each key pre-extracted into a contiguous `u64` array. The
//! binary search compares register-width prefixes with no indirection and
//! touches actual key bytes only on a prefix tie — the cache-friendly
//! fence layout production engines use.
//!
//! The 8 bytes are taken *after* the prefix every fence shares (first
//! fence vs. last): keys such as `user000000012345` all open with the
//! same bytes, and prefixes cut from byte 0 would tie on every step. A
//! probe that does not carry the shared prefix lies below or above every
//! fence, which one compare decides.

use std::cmp::Ordering;

use crate::traits::BlockLocator;

/// Big-endian 8-byte prefix, zero-padded: preserves byte-wise key order,
/// so `prefix(a) < prefix(b)` implies `a < b` and only equal prefixes
/// need a full compare.
fn prefix8(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Fence pointers over one sorted run.
#[derive(Clone, Debug)]
pub struct FencePointers {
    /// First key of the run (min key), for range pruning.
    first_key: Vec<u8>,
    /// Concatenated last-key bytes of every block, in block order.
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` bounds key `i`; length is `blocks + 1`.
    offsets: Vec<u32>,
    /// Length of the prefix every fence shares: `bytes[..shared]`.
    shared: usize,
    /// Big-endian prefix of the 8 bytes after the shared prefix of each
    /// key — the binary search's hot array.
    prefixes: Vec<u64>,
}

impl FencePointers {
    /// Builds from the last key of each block plus the run's first key.
    pub fn new(first_key: Vec<u8>, last_keys: Vec<Vec<u8>>) -> Self {
        debug_assert!(last_keys.windows(2).all(|w| w[0] <= w[1]), "fences must be sorted");
        let total: usize = last_keys.iter().map(|k| k.len()).sum();
        let mut bytes = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(last_keys.len() + 1);
        let mut prefixes = Vec::with_capacity(last_keys.len());
        // every key between the first and the last fence shares their
        // common prefix, so the fences in between do too
        let shared = match (last_keys.first(), last_keys.last()) {
            (Some(a), Some(b)) => a.iter().zip(b).take_while(|(x, y)| x == y).count(),
            _ => 0,
        };
        offsets.push(0u32);
        for k in &last_keys {
            bytes.extend_from_slice(k);
            offsets.push(bytes.len() as u32);
            prefixes.push(prefix8(&k[shared..]));
        }
        FencePointers {
            first_key,
            bytes,
            offsets,
            shared,
            prefixes,
        }
    }

    fn key_at(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// First fence index whose key is ≥ `key` (i.e. the block that would
    /// hold `key`); `num_blocks()` when every fence is smaller.
    fn lower_bound(&self, key: &[u8]) -> usize {
        let n = self.prefixes.len();
        // the fences' shared prefix, if any, decides a probe that lacks it
        let head = &key[..key.len().min(self.shared)];
        match head.cmp(&self.bytes[..self.shared]) {
            Ordering::Less => return 0,
            Ordering::Greater => return n,
            Ordering::Equal => {}
        }
        let kp = prefix8(&key[self.shared..]);
        let mut lo = 0usize;
        let mut len = n;
        while len > 0 {
            let half = len / 2;
            let mid = lo + half;
            // register-width compare on the contiguous prefix array;
            // key bytes are touched only when the prefixes tie
            let fence_is_less = match self.prefixes[mid].cmp(&kp) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => self.key_at(mid) < key,
            };
            if fence_is_less {
                lo = mid + 1;
                len -= half + 1;
            } else {
                len = half;
            }
        }
        lo
    }

    /// The run's smallest key.
    pub fn first_key(&self) -> &[u8] {
        &self.first_key
    }

    /// The run's largest key.
    pub fn last_key(&self) -> Option<&[u8]> {
        let n = self.prefixes.len();
        (n > 0).then(|| self.key_at(n - 1))
    }

    /// Whether `key` falls outside `[first_key, last_key]`.
    pub fn out_of_range(&self, key: &[u8]) -> bool {
        match self.last_key() {
            None => true,
            Some(last) => key < self.first_key.as_slice() || key > last,
        }
    }
}

impl BlockLocator for FencePointers {
    fn locate(&self, key: &[u8]) -> Option<usize> {
        if self.out_of_range(key) {
            return None;
        }
        // first block whose last key ≥ key holds the key if present
        let idx = self.lower_bound(key);
        (idx < self.prefixes.len()).then_some(idx)
    }

    fn locate_lower_bound(&self, key: &[u8]) -> Option<usize> {
        let idx = self.lower_bound(key);
        (idx < self.prefixes.len()).then_some(idx)
    }

    fn num_blocks(&self) -> usize {
        self.prefixes.len()
    }

    fn size_bits(&self) -> usize {
        // per-key bytes + a u32 length, plus the first key and its two
        // length fields
        let bytes = self.bytes.len() + 4 * self.prefixes.len();
        (bytes + self.first_key.len() + 8) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten blocks; block i covers keys [i*100, i*100+99].
    fn sample() -> FencePointers {
        let last_keys = (0..10)
            .map(|i| format!("{:06}", i * 100 + 99).into_bytes())
            .collect();
        FencePointers::new(b"000000".to_vec(), last_keys)
    }

    #[test]
    fn locates_containing_block() {
        let f = sample();
        assert_eq!(f.locate(b"000000"), Some(0));
        assert_eq!(f.locate(b"000099"), Some(0));
        assert_eq!(f.locate(b"000100"), Some(1));
        assert_eq!(f.locate(b"000523"), Some(5));
        assert_eq!(f.locate(b"000999"), Some(9));
    }

    #[test]
    fn out_of_range_is_pruned() {
        let f = sample();
        assert_eq!(f.locate(b"001000"), None);
        assert!(f.out_of_range(b"001000"));
        assert!(!f.out_of_range(b"000500"));
        // below the first key: technically out of range
        let g = FencePointers::new(b"000100".to_vec(), vec![b"000199".to_vec()]);
        assert_eq!(g.locate(b"000050"), None);
    }

    #[test]
    fn lower_bound_for_scans() {
        let f = sample();
        assert_eq!(f.locate_lower_bound(b"000000"), Some(0));
        assert_eq!(f.locate_lower_bound(b"000150"), Some(1));
        assert_eq!(f.locate_lower_bound(b"000999"), Some(9));
        assert_eq!(f.locate_lower_bound(b"001000"), None);
        // a key below the run's range starts at block 0
        assert_eq!(f.locate_lower_bound(b""), Some(0));
    }

    #[test]
    fn boundary_exactness() {
        // key equal to a block's last key must land in that block, not the next
        let f = sample();
        assert_eq!(f.locate(b"000299"), Some(2));
        assert_eq!(f.locate(b"000300"), Some(3));
    }

    #[test]
    fn empty_run() {
        let f = FencePointers::new(vec![], vec![]);
        assert_eq!(f.locate(b"x"), None);
        assert_eq!(f.locate_lower_bound(b"x"), None);
        assert_eq!(f.num_blocks(), 0);
        assert!(f.out_of_range(b"anything"));
    }

    #[test]
    fn size_scales_with_blocks() {
        let f = sample();
        let one = FencePointers::new(b"000000".to_vec(), vec![b"000099".to_vec()]);
        assert!(f.size_bits() > one.size_bits() * 4);
    }

    #[test]
    fn keys_sharing_an_8_byte_prefix_still_order_correctly() {
        // all fences share the first 8 bytes: every probe is a prefix tie,
        // forcing the memcmp fallback
        let last_keys: Vec<Vec<u8>> = (0..16u32)
            .map(|i| format!("sameprefix{i:04}").into_bytes())
            .collect();
        let f = FencePointers::new(b"sameprefix0000".to_vec(), last_keys.clone());
        for (i, k) in last_keys.iter().enumerate() {
            assert_eq!(f.locate(k), Some(i), "exact fence key {i}");
        }
        assert_eq!(f.locate(b"sameprefix0007x"), Some(8));
        assert_eq!(f.locate(b"sameprefix9999"), None);
    }

    /// Every fence opens with the same 10 bytes (`user000000`, the shape
    /// of this repo's workload keys): `locate` and the lower bound must
    /// answer as a linear scan over the fences does, for probes below,
    /// inside and above the run, and for probes that leave the shared
    /// prefix on either side or stop inside it.
    #[test]
    fn a_shared_prefix_answers_as_a_linear_model() {
        let fences: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("user000000{:06}", 10_000 + i * 24_000).into_bytes())
            .collect();
        let first = b"user000000005000".to_vec();
        let f = FencePointers::new(first.clone(), fences.clone());
        assert_eq!(f.shared, 10);
        let linear_lower = |k: &[u8]| fences.iter().position(|fence| fence.as_slice() >= k);
        let linear_locate = |k: &[u8]| {
            if k < first.as_slice() || k > fences.last().unwrap().as_slice() {
                None
            } else {
                linear_lower(k)
            }
        };
        let mut probes: Vec<Vec<u8>> = (0..1_000_000u32)
            .step_by(997)
            .map(|i| format!("user000000{i:06}").into_bytes())
            .collect();
        probes.extend(fences.iter().cloned());
        probes.extend(fences.iter().map(|k| [k.as_slice(), b"\0"].concat()));
        for outside in [
            &b""[..],
            b"a",
            b"user",
            b"user00000",
            b"user000000",
            b"user0000000",
            b"user00000/999999",
            b"user000001",
            b"user000001000000",
            b"user0000009",
            b"user1",
            b"zzz",
            b"user000000\xff",
        ] {
            probes.push(outside.to_vec());
        }
        for k in &probes {
            assert_eq!(f.locate(k), linear_locate(k), "locate {:?}", String::from_utf8_lossy(k));
            assert_eq!(f.locate_lower_bound(k), linear_lower(k), "lower bound {:?}", String::from_utf8_lossy(k));
        }
    }

    #[test]
    fn short_keys_and_prefix_padding() {
        // keys shorter than 8 bytes exercise the zero-padded prefix path;
        // "ab" must sort before "ab\0...\0nonzero" style neighbors
        let f = FencePointers::new(
            b"a".to_vec(),
            vec![b"ab".to_vec(), b"abc".to_vec(), b"b".to_vec()],
        );
        assert_eq!(f.locate(b"ab"), Some(0));
        assert_eq!(f.locate(b"abb"), Some(1));
        assert_eq!(f.locate(b"abc"), Some(1));
        assert_eq!(f.locate(b"abd"), Some(2));
        assert_eq!(f.locate(b"b"), Some(2));
    }
}
