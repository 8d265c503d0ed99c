//! Property-based model checking: arbitrary operation sequences against a
//! `BTreeMap` reference model, across several engine configurations. The
//! engine must agree with the model on every get and scan, for every
//! layout and granularity.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use lsm_core::{
    CompactionGranularity, Db, FilePicker, FilterKind, IndexKind, LsmConfig, MergeLayout,
};

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u16, usize),
    Flush,
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        3 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => (any::<u16>(), any::<u16>(), 1usize..40).prop_map(|(a, b, l)| Op::Scan(a % 512, b % 512, l)),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn key(i: u16) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

fn value(v: u8) -> Vec<u8> {
    vec![v; 3 + (v as usize % 5)]
}

fn run_against_model(cfg: LsmConfig, ops: &[Op]) {
    let db = Db::open_in_memory(cfg).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    // halfway through, pin a snapshot and remember the model state; the
    // snapshot must still serve that exact state after all remaining ops
    type Pinned = (lsm_core::Snapshot, BTreeMap<Vec<u8>, Vec<u8>>);
    let mut pinned: Option<Pinned> = None;
    let half = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        if i == half {
            pinned = Some((db.snapshot().unwrap(), model.clone()));
        }
        match op {
            Op::Put(k, v) => {
                db.put(key(*k), value(*v)).unwrap();
                model.insert(key(*k), value(*v));
            }
            Op::Delete(k) => {
                db.delete(key(*k)).unwrap();
                model.remove(&key(*k));
            }
            Op::Get(k) => {
                assert_eq!(
                    db.get(&key(*k)).unwrap(),
                    model.get(&key(*k)).cloned(),
                    "get({k}) diverged"
                );
            }
            Op::Scan(a, b, limit) => {
                let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
                let got = db.scan(key(lo)..key(hi), *limit).unwrap();
                let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key(lo)..key(hi))
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, expect, "scan({lo}..{hi}, {limit}) diverged");
            }
            Op::Flush => db.flush().unwrap(),
            Op::Compact => db.compact().unwrap(),
        }
    }
    if let Some((snap, snap_model)) = pinned {
        for k in (0..512u16).step_by(3) {
            assert_eq!(
                snap.get(&key(k)).unwrap(),
                snap_model.get(&key(k)).cloned(),
                "snapshot get({k}) diverged"
            );
        }
        let got = snap.scan(key(0)..key(u16::MAX), usize::MAX).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            snap_model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, expect, "snapshot scan diverged");
    }
    // final full audit
    for k in 0..512u16 {
        assert_eq!(db.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
    }
    let got = db.scan(key(0)..key(u16::MAX), usize::MAX).unwrap();
    let expect: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(got, expect, "final full scan diverged");
}

fn tiny(layout: MergeLayout, granularity: CompactionGranularity) -> LsmConfig {
    LsmConfig {
        layout,
        granularity,
        buffer_bytes: 1 << 10, // tiny buffer: lots of flushes/compactions
        block_size: 256,
        target_table_bytes: 1 << 10,
        size_ratio: 3,
        l0_run_cap: 2,
        cache_bytes: 16 << 10,
        ..LsmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leveled_matches_model(ops in vec(arb_op(), 1..250)) {
        run_against_model(
            tiny(MergeLayout::Leveled, CompactionGranularity::Full),
            &ops,
        );
    }

    #[test]
    fn tiered_matches_model(ops in vec(arb_op(), 1..250)) {
        run_against_model(
            tiny(MergeLayout::Tiered, CompactionGranularity::Full),
            &ops,
        );
    }

    #[test]
    fn lazy_leveled_matches_model(ops in vec(arb_op(), 1..250)) {
        run_against_model(
            tiny(MergeLayout::LazyLeveled, CompactionGranularity::Full),
            &ops,
        );
    }

    #[test]
    fn partial_compaction_matches_model(ops in vec(arb_op(), 1..250)) {
        run_against_model(
            tiny(
                MergeLayout::Leveled,
                CompactionGranularity::Partial(FilePicker::MinOverlap),
            ),
            &ops,
        );
    }

    #[test]
    fn learned_index_matches_model(ops in vec(arb_op(), 1..200)) {
        let mut cfg = tiny(MergeLayout::Leveled, CompactionGranularity::Full);
        cfg.index = IndexKind::Pla { epsilon: 2 };
        run_against_model(cfg, &ops);
    }

    #[test]
    fn cuckoo_filter_matches_model(ops in vec(arb_op(), 1..200)) {
        let mut cfg = tiny(MergeLayout::Tiered, CompactionGranularity::Full);
        cfg.filter = FilterKind::Cuckoo;
        run_against_model(cfg, &ops);
    }

    #[test]
    fn partitioned_filters_match_model(ops in vec(arb_op(), 1..200)) {
        let mut cfg = tiny(MergeLayout::Leveled, CompactionGranularity::Full);
        cfg.partitioned_filters = true;
        run_against_model(cfg, &ops);
    }
}

// ---------------------------------------------------------------------------
// Concurrent differential test (`Threaded` mode): writer threads over
// disjoint key stripes and reader threads race against background flush
// and compaction. In flight, each writer asserts read-your-writes on its
// own stripe and readers assert snapshot-consistency invariants (values
// match their keys, per-key generations never run backwards, scans stay
// sorted). After the threads join, the engine must agree exactly with a
// mutex-protected `BTreeMap` oracle.
// ---------------------------------------------------------------------------

mod concurrent {
    use std::collections::{BTreeMap, HashMap};
    use std::sync::{Arc, Mutex};

    use lsm_core::{BackgroundMode, Db, LsmConfig};

    const WRITERS: usize = 4;
    const WRITER_OPS: usize = 10_000;
    const READERS: usize = 2;
    const READER_OPS: usize = 6_000; // total ops ≥ 50k across all threads
    const KEYS_PER_WRITER: u64 = 2_000;

    fn stripe_key(t: usize, r: u64) -> Vec<u8> {
        format!("w{t}-k{r:05}").into_bytes()
    }

    /// Value = key + generation, so any observed value is self-describing:
    /// a reader can check it belongs to the key it came from and extract
    /// the write generation without consulting shared state.
    fn gen_value(t: usize, r: u64, generation: u64) -> Vec<u8> {
        format!("w{t}-k{r:05}#g{generation:08}").into_bytes()
    }

    fn parse_gen(v: &[u8]) -> u64 {
        let s = std::str::from_utf8(v).expect("value must be utf8");
        let (_, g) = s.split_once("#g").expect("value must carry a generation");
        g.parse().expect("generation must be digits")
    }

    fn lcg(x: u64) -> u64 {
        x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
    }

    /// Per-reader monotonicity: a later observation of a key must carry a
    /// generation ≥ any earlier one (the key's single writer only counts
    /// up, and versions are installed in order).
    fn check_monotone(seen: &mut HashMap<Vec<u8>, u64>, key: Vec<u8>, generation: u64) {
        let prev = seen.entry(key.clone()).or_insert(generation);
        assert!(
            *prev <= generation,
            "key {:?} went backwards: gen {generation} after {prev}",
            String::from_utf8_lossy(&key)
        );
        *prev = generation;
    }

    #[test]
    fn concurrent_writers_and_readers_match_model() {
        let cfg = LsmConfig {
            background: BackgroundMode::Threaded,
            background_workers: 2,
            buffer_bytes: 8 << 10, // small buffer: constant flush pressure
            block_size: 512,
            target_table_bytes: 16 << 10,
            size_ratio: 4,
            l0_run_cap: 2,
            cache_bytes: 64 << 10,
            ..LsmConfig::default()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        let oracle: Arc<Mutex<BTreeMap<Vec<u8>, Vec<u8>>>> =
            Arc::new(Mutex::new(BTreeMap::new()));

        let mut handles = Vec::new();
        for t in 0..WRITERS {
            let db = db.clone();
            let oracle = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                let mut rng = lcg(0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1));
                let mut last: HashMap<u64, Option<u64>> = HashMap::new();
                for op in 0..WRITER_OPS {
                    rng = lcg(rng);
                    let r = (rng >> 33) % KEYS_PER_WRITER;
                    let generation = op as u64;
                    if op % 7 == 3 {
                        db.delete(stripe_key(t, r)).unwrap();
                        oracle.lock().unwrap().remove(&stripe_key(t, r));
                        last.insert(r, None);
                    } else {
                        db.put(stripe_key(t, r), gen_value(t, r, generation)).unwrap();
                        oracle
                            .lock()
                            .unwrap()
                            .insert(stripe_key(t, r), gen_value(t, r, generation));
                        last.insert(r, Some(generation));
                    }
                    if op % 16 == 0 {
                        // read-your-writes: nobody else touches this stripe
                        let expect =
                            last[&r].map(|generation| gen_value(t, r, generation));
                        assert_eq!(
                            db.get(&stripe_key(t, r)).unwrap(),
                            expect,
                            "writer {t} lost its own write to k{r:05} at op {op}"
                        );
                    }
                }
            }));
        }
        for rt in 0..READERS {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = lcg(0xdeadbeefcafef00du64.wrapping_add(rt as u64));
                let mut seen: HashMap<Vec<u8>, u64> = HashMap::new();
                for op in 0..READER_OPS {
                    rng = lcg(rng);
                    let t = (rng >> 60) as usize % WRITERS;
                    let r = (rng >> 20) % KEYS_PER_WRITER;
                    if op % 32 == 31 {
                        let lo = stripe_key(t, r);
                        let hi = stripe_key(t, (r + 40).min(KEYS_PER_WRITER));
                        let got = db.scan(lo..hi, 64).unwrap();
                        for w in got.windows(2) {
                            assert!(w[0].0 < w[1].0, "scan keys out of order");
                        }
                        for (k, v) in got {
                            assert!(
                                v.starts_with(&k),
                                "scan returned a value from another key"
                            );
                            check_monotone(&mut seen, k, parse_gen(&v));
                        }
                    } else if let Some(v) = db.get(&stripe_key(t, r)).unwrap() {
                        let k = stripe_key(t, r);
                        assert!(v.starts_with(&k), "get returned a torn value");
                        check_monotone(&mut seen, k, parse_gen(&v));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // quiesce, then the engine must agree with the oracle exactly
        db.wait_background_idle();
        let model = oracle.lock().unwrap();
        let got = db.scan(b"w".to_vec()..b"x".to_vec(), usize::MAX).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got.len(), expect.len(), "full scan entry count diverged");
        assert_eq!(got, expect, "full scan diverged from oracle");
        for t in 0..WRITERS {
            for r in 0..KEYS_PER_WRITER {
                let k = stripe_key(t, r);
                assert_eq!(
                    db.get(&k).unwrap(),
                    model.get(&k).cloned(),
                    "key w{t}-k{r:05} diverged from oracle"
                );
            }
        }
    }
}
