//! Property-based invariants for the cache layer: capacity is never
//! exceeded, removal really removes, and a cached value is always the last
//! value inserted for its key — for every eviction policy.

use proptest::collection::vec;
use proptest::prelude::*;

use lsm_cache::{CacheKey, CachePolicy, ShardedCache};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u8, u8),
    Get(u8, u8),
    Remove(u8, u8),
    InvalidateFile(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>(), 1u8..32).prop_map(|(f, b, c)| Op::Insert(f % 4, b, c)),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(f, b)| Op::Get(f % 4, b)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(f, b)| Op::Remove(f % 4, b)),
        1 => any::<u8>().prop_map(|f| Op::InvalidateFile(f % 4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_invariants_hold_for_all_policies(
        ops in vec(arb_op(), 1..400),
        policy_idx in 0usize..4,
    ) {
        let policy = CachePolicy::ALL[policy_idx];
        let cache: ShardedCache<(u8, u8, u8)> = ShardedCache::new(policy, 512, 2);
        let mut last: std::collections::HashMap<CacheKey, (u8, u8, u8)> =
            std::collections::HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(f, b, c) => {
                    let k = CacheKey::new(*f as u64, *b as u64);
                    cache.insert(k, (*f, *b, *c), *c as usize);
                    last.insert(k, (*f, *b, *c));
                }
                Op::Get(f, b) => {
                    let k = CacheKey::new(*f as u64, *b as u64);
                    if let Some(v) = cache.get(&k) {
                        // a hit must return the last inserted value
                        prop_assert_eq!(Some(&v), last.get(&k));
                    }
                }
                Op::Remove(f, b) => {
                    let k = CacheKey::new(*f as u64, *b as u64);
                    cache.remove(&k);
                    last.remove(&k);
                }
                Op::InvalidateFile(f) => {
                    cache.invalidate_file(*f as u64, 255);
                    last.retain(|k, _| k.file != *f as u64);
                }
            }
            prop_assert!(
                cache.used() <= cache.capacity(),
                "{}: used {} > capacity {}",
                policy.label(),
                cache.used(),
                cache.capacity()
            );
        }
        // after an invalidate_file, nothing from that file remains
        cache.invalidate_file(0, 255);
        for b in 0..=255u8 {
            prop_assert!(cache.get(&CacheKey::new(0, b as u64)).is_none());
        }
    }
}

/// Concurrent safety: every key has a single writer thread, so a hit must
/// return *exactly* the value that thread last inserted — any other value
/// means entries bled across keys or shards. Runs under real eviction
/// pressure, with one thread invalidating a shared file the whole time.
mod concurrent {
    use super::*;

    const THREADS: u64 = 8;
    const ROUNDS: u64 = 2_000;
    const BLOCKS_PER_THREAD: u64 = 64;
    /// File id all threads write to (in disjoint block ranges) while
    /// thread 0 keeps invalidating it wholesale.
    const SHARED_FILE: u64 = 99;

    fn encode(file: u64, block: u64, generation: u64) -> u64 {
        (file << 48) | (block << 24) | generation
    }

    #[test]
    fn concurrent_single_writer_keys_never_bleed() {
        for policy in CachePolicy::ALL {
            // capacity well below the working set: eviction is constant
            let cache: ShardedCache<u64> = ShardedCache::new(policy, 4096, 4);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let cache = &cache;
                    scope.spawn(move || {
                        // last value inserted per owned block, private and
                        // shared file alike; None after a remove
                        let mut last = std::collections::HashMap::new();
                        for round in 0..ROUNDS {
                            let block = round % BLOCKS_PER_THREAD;
                            // disjoint block ranges keep the shared file
                            // single-writer per key too
                            let (file, blk) = if round % 3 == 0 {
                                (SHARED_FILE, t * BLOCKS_PER_THREAD + block)
                            } else {
                                (t, block)
                            };
                            let key = CacheKey::new(file, blk);
                            match round % 5 {
                                4 => {
                                    cache.remove(&key);
                                    last.remove(&key);
                                }
                                _ => {
                                    let v = encode(file, blk, round);
                                    cache.insert(key, v, 8);
                                    last.insert(key, v);
                                }
                            }
                            if let Some(got) = cache.get(&key) {
                                // a concurrent invalidate_file may have
                                // dropped the entry (miss), but a hit has
                                // exactly one legal value
                                assert_eq!(
                                    Some(&got),
                                    last.get(&key),
                                    "{}: thread {t} round {round} read a value it never wrote",
                                    policy.label()
                                );
                            }
                            assert!(
                                cache.used() <= cache.capacity(),
                                "{}: capacity exceeded under concurrency",
                                policy.label()
                            );
                            if t == 0 && round % 64 == 63 {
                                cache.invalidate_file(
                                    SHARED_FILE,
                                    THREADS * BLOCKS_PER_THREAD,
                                );
                            }
                        }
                    });
                }
            });
            // single-threaded again: a full invalidate leaves no trace of
            // the shared file, and the cache is still coherent
            cache.invalidate_file(SHARED_FILE, THREADS * BLOCKS_PER_THREAD);
            for blk in 0..THREADS * BLOCKS_PER_THREAD {
                assert_eq!(
                    cache.get(&CacheKey::new(SHARED_FILE, blk)),
                    None,
                    "{}: shared file survived invalidation",
                    policy.label()
                );
            }
            assert!(cache.used() <= cache.capacity(), "{}", policy.label());
        }
    }
}
