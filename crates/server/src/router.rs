//! Shard routing over independent `Db` instances: FNV hash partitioning
//! or range partitioning driven by a versioned [`ShardMap`].
//!
//! Each shard is a fully independent engine on its own device: its own
//! memtable, WAL, levels, and background workers. Under **hash** routing
//! a key's home shard is `fnv1a(key) % shards`, so writes spread
//! uniformly regardless of key skew — but every range scan must consult
//! every shard and k-way merge the results. Under **range** routing each
//! shard owns a contiguous key range from the map: point ops route by
//! `owner_index`, and a range scan visits *only the shards whose ranges
//! intersect the request*, in key order, concatenating per-shard results
//! with no merge at all (the partition is ordered). Every per-shard scan
//! is also **clamped** to the shard's owned range — that clamp is what
//! makes a split donor's stale copy of a moved-away range invisible, so
//! live migration never has to delete from the donor.

use lsm_core::Db;
use lsm_storage::StorageResult;

use crate::shardmap::ShardMap;

/// FNV-1a over the key, reduced mod `shards`. Stable across runs and
/// processes (the protocol does not carry shard ids; clients never need
/// to know the layout).
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// How a [`ShardSet`] maps keys to shards.
pub enum Routing {
    /// FNV-1a hash partitioning (static topology).
    Hash,
    /// Range partitioning: shard `i` owns the map's entry `i` range.
    Range(ShardMap),
}

/// A set of independent shard engines addressed by key.
pub struct ShardSet {
    shards: Vec<Db>,
    routing: Routing,
}

impl ShardSet {
    /// Wraps `shards` (must be non-empty) under hash routing.
    pub fn new(shards: Vec<Db>) -> Self {
        assert!(!shards.is_empty(), "a shard set needs at least one shard");
        ShardSet {
            shards,
            routing: Routing::Hash,
        }
    }

    /// Wraps `shards` under range routing: `shards[i]` serves `map`
    /// entry `i`. The counts must agree and the map must be a valid
    /// partition.
    pub fn with_map(shards: Vec<Db>, map: ShardMap) -> Self {
        assert_eq!(
            shards.len(),
            map.len(),
            "shard engines and map entries must correspond 1:1"
        );
        map.check_partition().expect("shard map is a partition");
        ShardSet {
            shards,
            routing: Routing::Range(map),
        }
    }

    /// The shard map, when range-routed.
    pub fn map(&self) -> Option<&ShardMap> {
        match &self.routing {
            Routing::Hash => None,
            Routing::Range(map) => Some(map),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True only for an (invalid) empty set; present for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard index owning `key`.
    pub fn shard_index(&self, key: &[u8]) -> usize {
        match &self.routing {
            Routing::Hash => shard_of(key, self.shards.len()),
            Routing::Range(map) => map.owner_index(key),
        }
    }

    /// The engine at `idx`.
    pub fn db(&self, idx: usize) -> &Db {
        &self.shards[idx]
    }

    /// All shard engines, index order.
    pub fn dbs(&self) -> &[Db] {
        &self.shards
    }

    /// Routed point lookup.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.shards[self.shard_index(key)].get(key)
    }

    /// Routed point lookup through a borrowed view: `f` runs on the value
    /// bytes in place (memtable arena or cached block), so the server can
    /// copy them straight into a wire buffer with no intermediate `Vec`.
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> StorageResult<Option<R>> {
        self.shards[self.shard_index(key)].get_with(key, f)
    }

    /// The intersection of `[start, end)` with shard `idx`'s owned range
    /// under range routing — the clamp that hides a donor's stale copy of
    /// a range that migrated away.
    fn clamp<'a>(
        map: &'a ShardMap,
        idx: usize,
        start: &'a [u8],
        end: &'a [u8],
    ) -> (&'a [u8], &'a [u8]) {
        let (lo, hi) = map.range_of(idx);
        let s = if start < lo { lo } else { start };
        let e = match hi {
            Some(h) if h < end => h,
            _ => end,
        };
        (s, e)
    }

    /// The one cross-shard scan: calls `f(key, value)` for each entry of
    /// `[start, end)` in key order, up to `limit`, and returns how many
    /// were visited. Range routing visits only the owning shards, in
    /// partition order, each scan clamped to its shard's range — ordered
    /// concatenation, no merge. Hash routing with one shard streams
    /// straight off the engine's merge cursor; with more, every shard's
    /// first `limit` entries are materialized and k-way merged — correct
    /// because the global first `limit` are a subset of their union.
    pub fn scan_with(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        if limit == 0 || start >= end {
            return Ok(0);
        }
        match &self.routing {
            Routing::Range(map) => {
                let mut n = 0usize;
                for idx in map.overlapping(start, end) {
                    let (s, e) = Self::clamp(map, idx, start, end);
                    n += self.shards[idx].scan_with(s, e, limit - n, &mut f)?;
                    if n >= limit {
                        break;
                    }
                }
                Ok(n)
            }
            Routing::Hash if self.shards.len() == 1 => {
                self.shards[0].scan_with(start, end, limit, f)
            }
            Routing::Hash => {
                let per_shard = self
                    .shards
                    .iter()
                    .map(|db| db.scan(start.to_vec()..end.to_vec(), limit))
                    .collect::<StorageResult<Vec<_>>>()?;
                // shards partition the keyspace disjointly, so no key
                // appears twice and ties cannot happen
                let mut cursors = vec![0usize; per_shard.len()];
                let mut n = 0usize;
                while n < limit {
                    let best = (0..per_shard.len())
                        .filter(|&s| cursors[s] < per_shard[s].len())
                        .min_by(|&a, &b| {
                            per_shard[a][cursors[a]].0.cmp(&per_shard[b][cursors[b]].0)
                        });
                    let Some(s) = best else { break };
                    let (k, v) = &per_shard[s][cursors[s]];
                    f(k, v);
                    cursors[s] += 1;
                    n += 1;
                }
                Ok(n)
            }
        }
    }

    /// [`ShardSet::scan_with`], collected into owned pairs.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(start, end, limit, |k, v| out.push((k.to_vec(), v.to_vec())))?;
        Ok(out)
    }

    /// Flushes every shard to quiescence (graceful-drain step).
    pub fn flush_all(&self) -> StorageResult<()> {
        for db in &self.shards {
            db.flush_all()?;
        }
        Ok(())
    }

    /// Consumes the set, returning the shard engines.
    pub fn into_dbs(self) -> Vec<Db> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::LsmConfig;

    fn shard_set(n: usize) -> ShardSet {
        ShardSet::new(
            (0..n)
                .map(|_| Db::open_in_memory(LsmConfig::small_for_tests()).unwrap())
                .collect(),
        )
    }

    fn range_set(n: usize) -> ShardSet {
        ShardSet::with_map(
            (0..n)
                .map(|_| Db::open_in_memory(LsmConfig::small_for_tests()).unwrap())
                .collect(),
            ShardMap::uniform(n),
        )
    }

    #[test]
    fn hashing_is_stable_and_spreads() {
        assert_eq!(shard_of(b"key", 4), shard_of(b"key", 4));
        let mut hits = [0usize; 4];
        for i in 0..4000u32 {
            hits[shard_of(format!("user{i:08}").as_bytes(), 4)] += 1;
        }
        for (s, &h) in hits.iter().enumerate() {
            assert!(
                (700..1300).contains(&h),
                "shard {s} got {h} of 4000 keys — hash is badly skewed"
            );
        }
    }

    #[test]
    fn routed_roundtrip() {
        let set = shard_set(3);
        for i in 0..500u32 {
            let key = format!("k{i:05}").into_bytes();
            set.db(set.shard_index(&key))
                .put(key, format!("v{i}").into_bytes())
                .unwrap();
        }
        for i in 0..500u32 {
            assert_eq!(
                set.get(format!("k{i:05}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn cross_shard_scan_stitches_in_key_order() {
        let set = shard_set(4);
        for i in 0..300u32 {
            let key = format!("s{i:05}").into_bytes();
            set.db(set.shard_index(&key)).put(key, vec![0u8; 4]).unwrap();
        }
        let got = set.scan(b"s00050", b"s00150", 40).unwrap();
        assert_eq!(got.len(), 40);
        for (i, (k, _)) in got.iter().enumerate() {
            assert_eq!(k, format!("s{:05}", 50 + i).as_bytes(), "entry {i} out of order");
        }
        // unlimited-enough scan sees the whole range, still ordered
        let all = set.scan(b"s00000", b"s00300", 1000).unwrap();
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        // degenerate ranges
        assert!(set.scan(b"z", b"a", 10).unwrap().is_empty());
        assert!(set.scan(b"a", b"z", 0).unwrap().is_empty());
    }

    #[test]
    fn range_routing_roundtrip_and_ordered_scans() {
        let set = range_set(4);
        for i in 0..300u32 {
            // single-byte prefix spreads keys across the uniform map
            let key = vec![(i % 256) as u8, (i / 256) as u8, i as u8];
            set.db(set.shard_index(&key)).put(key, vec![b'v']).unwrap();
        }
        let all = set.scan(&[], &[0xFF, 0xFF, 0xFF, 0xFF], 1000).unwrap();
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "concat out of order");
        let mut streamed = Vec::new();
        let n = set
            .scan_with(&[], &[0xFF, 0xFF, 0xFF, 0xFF], 1000, |k, v| {
                streamed.push((k.to_vec(), v.to_vec()));
            })
            .unwrap();
        assert_eq!(n, 300);
        assert_eq!(streamed, all, "streamed scan must match owned scan");
    }

    /// The satellite regression: a range scan must touch only the shards
    /// whose ranges intersect the request, not every shard.
    #[test]
    fn range_scans_route_only_to_owning_shards() {
        let set = range_set(4);
        for b in 0u16..=255 {
            set.db(set.shard_index(&[b as u8]))
                .put(vec![b as u8], vec![b as u8])
                .unwrap();
        }
        let before: Vec<u64> = set.dbs().iter().map(|d| d.stats().snapshot().scans).collect();
        // [16, 32) lies entirely inside shard 0's range [0, 64)
        let got = set.scan(&[16], &[32], 100).unwrap();
        assert_eq!(got.len(), 16);
        let after: Vec<u64> = set.dbs().iter().map(|d| d.stats().snapshot().scans).collect();
        let touched: Vec<usize> = (0..4).filter(|&i| after[i] > before[i]).collect();
        assert_eq!(touched, vec![0], "single-shard range scanned shards {touched:?}");

        // a two-shard range touches exactly those two
        let before = after;
        let got = set.scan(&[60], &[70], 100).unwrap();
        assert_eq!(got.len(), 10);
        let after: Vec<u64> = set.dbs().iter().map(|d| d.stats().snapshot().scans).collect();
        let touched: Vec<usize> = (0..4).filter(|&i| after[i] > before[i]).collect();
        assert_eq!(touched, vec![0, 1], "boundary-straddling scan routed to {touched:?}");

        // streaming path obeys the same routing
        let before = after;
        let n = set.scan_with(&[200], &[210], 100, |_, _| {}).unwrap();
        assert_eq!(n, 10);
        let after: Vec<u64> = set.dbs().iter().map(|d| d.stats().snapshot().scans).collect();
        let touched: Vec<usize> = (0..4).filter(|&i| after[i] > before[i]).collect();
        assert_eq!(touched, vec![3], "scan_with routed to {touched:?}");
    }

    /// Stale out-of-range data on a shard (a split donor's leftover copy)
    /// must be invisible to range-routed reads.
    #[test]
    fn clamped_scans_hide_out_of_range_shard_data() {
        let set = range_set(2);
        // shard 0 owns [0, 128) but holds a stale copy of key [200]
        set.db(0).put(vec![10], b"mine".to_vec()).unwrap();
        set.db(0).put(vec![200], b"stale".to_vec()).unwrap();
        set.db(1).put(vec![200], b"fresh".to_vec()).unwrap();
        assert_eq!(set.get(&[200]).unwrap(), Some(b"fresh".to_vec()));
        let all = set.scan(&[], &[0xFF], 100).unwrap();
        assert_eq!(
            all,
            vec![(vec![10], b"mine".to_vec()), (vec![200], b"fresh".to_vec())],
            "stale donor copy leaked into the scan"
        );
        let mut streamed = Vec::new();
        set.scan_with(&[], &[0xFF], 100, |k, v| streamed.push((k.to_vec(), v.to_vec())))
            .unwrap();
        assert_eq!(streamed, all);
    }
}
