//! Transactions over the wire: serializability proven differentially.
//!
//! The centerpiece drives N concurrent TCP clients through random
//! optimistic transactions over a *shared* (contended) key pool and then
//! replays every committed transaction's write-set **in commit-stamp
//! order** against a `BTreeMap` oracle — the replay must reproduce the
//! server's final scanned state exactly. That is the definition of
//! serializability made executable: stamp order is a serial order that
//! explains the final state.
//!
//! A proptest model-checks adversarial interleavings on one shard: three
//! connections plus direct (non-transactional) writes, with the model
//! predicting every read result *and* every commit/conflict outcome
//! (first-committer-wins against a version counter). Committed
//! transactions serialize; conflicted and aborted ones leave zero trace.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use lsm_core::LsmConfig;
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{
    Client, ReplicationRole, Request, Response, ServerConfig, ShardMap, TxnCommitStatus,
};
use proptest::prelude::*;

type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;
/// `(commit stamp, write-set)` per committed transaction; a `None` value
/// is a delete.
type CommitHistory = Vec<(u64, Vec<(Vec<u8>, Option<Vec<u8>>)>)>;

fn wal_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    }
}

/// `shards` hash-routed standalone shards over [`wal_cfg`].
fn standalone(shards: usize) -> Cluster {
    let role = ReplicationRole::None;
    Cluster::start(Layout::Hash(shards), role, wal_cfg(), ServerConfig::default())
}

/// Deterministic xorshift; identical op sequences across runs and modes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn txn_commit_is_atomic_and_isolated() {
    let mut cluster = standalone(2);
    let mut a = cluster.client();
    let mut b = cluster.client();
    a.put(b"acct-x", b"100").unwrap();
    a.put(b"acct-y", b"0").unwrap();

    a.txn_begin().unwrap();
    assert_eq!(a.txn_get(b"acct-x").unwrap(), Some(b"100".to_vec()));
    a.txn_put(b"acct-x", b"60").unwrap();
    a.txn_put(b"acct-y", b"40").unwrap();
    // read-your-own-writes inside the transaction
    assert_eq!(a.txn_get(b"acct-x").unwrap(), Some(b"60".to_vec()));
    // isolation: nothing visible to another connection before commit
    assert_eq!(b.get(b"acct-x").unwrap(), Some(b"100".to_vec()));
    assert_eq!(b.get(b"acct-y").unwrap(), Some(b"0".to_vec()));

    let stamp = match a.txn_commit().unwrap() {
        TxnCommitStatus::Committed(s) => s,
        other => panic!("clean commit conflicted: {other:?}"),
    };
    assert!(stamp > 0, "non-empty commit draws a real stamp");
    // atomicity: both writes land together
    assert_eq!(b.get(b"acct-x").unwrap(), Some(b"60".to_vec()));
    assert_eq!(b.get(b"acct-y").unwrap(), Some(b"40".to_vec()));
    cluster.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn first_committer_wins_and_loser_leaves_no_trace() {
    let mut cluster = standalone(2);
    let mut a = cluster.client();
    let mut b = cluster.client();
    a.put(b"fcw-key", b"v0").unwrap();

    a.txn_begin().unwrap();
    b.txn_begin().unwrap();
    assert_eq!(a.txn_get(b"fcw-key").unwrap(), Some(b"v0".to_vec()));
    assert_eq!(b.txn_get(b"fcw-key").unwrap(), Some(b"v0".to_vec()));
    a.txn_put(b"fcw-key", b"from-a").unwrap();
    b.txn_put(b"fcw-key", b"from-b").unwrap();
    b.txn_put(b"fcw-other", b"side-effect").unwrap();

    assert!(matches!(
        a.txn_commit().unwrap(),
        TxnCommitStatus::Committed(_)
    ));
    match b.txn_commit().unwrap() {
        TxnCommitStatus::Conflict(key) => assert_eq!(key, b"fcw-key".to_vec()),
        other => panic!("second committer must conflict, got {other:?}"),
    }
    // the loser's whole write-set vanished, including untouched keys
    assert_eq!(a.get(b"fcw-key").unwrap(), Some(b"from-a".to_vec()));
    assert_eq!(a.get(b"fcw-other").unwrap(), None);
    // and the connection is free for a fresh transaction that succeeds
    b.txn_begin().unwrap();
    b.txn_put(b"fcw-key", b"retry").unwrap();
    assert!(matches!(
        b.txn_commit().unwrap(),
        TxnCommitStatus::Committed(_)
    ));
    assert_eq!(a.get(b"fcw-key").unwrap(), Some(b"retry".to_vec()));
    cluster.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn snapshot_reads_ignore_later_writes_but_validation_sees_them() {
    let mut cluster = standalone(1);
    let mut a = cluster.client();
    let mut b = cluster.client();
    a.put(b"snap-k", b"old").unwrap();

    a.txn_begin().unwrap();
    assert_eq!(a.txn_get(b"snap-k").unwrap(), Some(b"old".to_vec()));
    b.put(b"snap-k", b"new").unwrap();
    // snapshot isolation: the transaction keeps seeing its snapshot
    assert_eq!(a.txn_get(b"snap-k").unwrap(), Some(b"old".to_vec()));
    // first-committer-wins applies to read-only transactions too: the
    // read has been invalidated, so this cannot serialize after b's put
    match a.txn_commit().unwrap() {
        TxnCommitStatus::Conflict(key) => assert_eq!(key, b"snap-k".to_vec()),
        other => panic!("stale read-only txn must conflict, got {other:?}"),
    }
    cluster.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn abort_discards_everything_and_is_idempotent() {
    let mut cluster = standalone(2);
    let mut c = cluster.client();
    // aborting with no transaction open is Ok
    c.txn_abort().unwrap();
    c.txn_begin().unwrap();
    c.txn_put(b"ab-1", b"x").unwrap();
    c.txn_put(b"ab-2", b"y").unwrap();
    c.txn_abort().unwrap();
    assert_eq!(c.get(b"ab-1").unwrap(), None);
    assert_eq!(c.get(b"ab-2").unwrap(), None);
    // txn ops after the abort answer NO_TXN
    assert_eq!(
        c.call(&Request::TxnPut {
            key: b"ab-3".to_vec(),
            value: b"z".to_vec(),
        })
        .unwrap(),
        Response::NoTxn
    );
    // a dropped connection mid-transaction also leaves zero trace
    let mut d = cluster.client();
    d.txn_begin().unwrap();
    d.txn_put(b"ab-dropped", b"gone").unwrap();
    drop(d);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(c.get(b"ab-dropped").unwrap(), None);
    cluster.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn begin_while_active_is_an_error_and_empty_commit_stamps_zero() {
    let mut cluster = standalone(1);
    let mut c = cluster.client();
    c.txn_begin().unwrap();
    let err = c.txn_begin().unwrap_err();
    assert!(
        err.to_string().contains("already active"),
        "unexpected error: {err}"
    );
    // the original transaction survived the refused begin
    assert_eq!(c.txn_commit().unwrap(), TxnCommitStatus::Committed(0));
    cluster.server.take().unwrap().shutdown().unwrap();
}

/// One client's transactional workload over the shared contended pool.
/// Returns the committed history: `(stamp, write-set)` per commit.
fn txn_workload(
    mut c: Client,
    thread: u64,
    txns: usize,
) -> CommitHistory {
    let mut rng = Rng(0x51CC ^ (thread << 20) | 1);
    let key = |i: u64| format!("x{:03}", i % 48).into_bytes();
    let mut committed = Vec::new();
    for n in 0..txns {
        c.txn_begin().expect("begin");
        let mut writes: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for _ in 0..(1 + rng.next() % 4) {
            let k = key(rng.next());
            match rng.next() % 4 {
                0 => {
                    c.txn_get(&k).expect("txn get");
                }
                1 => {
                    c.txn_delete(&k).expect("txn delete");
                    writes.retain(|(wk, _)| wk != &k);
                    writes.push((k, None));
                }
                _ => {
                    let v = format!("t{thread}n{n}r{}", rng.next() % 1000).into_bytes();
                    c.txn_put(&k, &v).expect("txn put");
                    writes.retain(|(wk, _)| wk != &k);
                    writes.push((k, Some(v)));
                }
            }
        }
        match c.txn_commit().expect("commit rpc") {
            TxnCommitStatus::Committed(stamp) => {
                assert!(stamp > 0, "non-empty commit must draw a real stamp");
                committed.push((stamp, writes));
            }
            TxnCommitStatus::Conflict(_) => {} // lost the race; no trace
        }
    }
    committed
}

#[test]
fn concurrent_txns_replayed_in_stamp_order_match_final_state() {
    // 3 hash shards: transactions freely span shards (standalone hash
    // routing supports cross-shard commits)
    let mut cluster = standalone(3);
    let addr = cluster.addr();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let c = Client::connect(addr).expect("connect");
                txn_workload(c, t, 120)
            })
        })
        .collect();
    let mut history: CommitHistory = Vec::new();
    for t in threads {
        history.extend(t.join().expect("client thread panicked"));
    }
    assert!(
        history.len() >= 100,
        "contention ate almost everything: only {} commits",
        history.len()
    );

    // stamps are the serialization order: unique, and replaying the
    // committed write-sets in stamp order reproduces the final state
    let stamps: HashSet<u64> = history.iter().map(|(s, _)| *s).collect();
    assert_eq!(stamps.len(), history.len(), "commit stamps must be unique");
    history.sort_unstable_by_key(|(s, _)| *s);
    let mut oracle = Oracle::new();
    for (_, writes) in &history {
        for (k, v) in writes {
            match v {
                Some(v) => {
                    oracle.insert(k.clone(), v.clone());
                }
                None => {
                    oracle.remove(k);
                }
            }
        }
    }
    let mut c = cluster.client();
    let got = c.scan(b"x", b"y", 1_000_000).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(
        got, want,
        "replaying committed txns by stamp must reproduce the final state"
    );

    // the server accounted every attempt as exactly one commit or conflict
    drop(c);
    let server = cluster.server.take().unwrap();
    let snap = server.metrics().snapshot();
    let commits = snap.counters.get("server.txn_commits").copied().unwrap();
    let conflicts = snap.counters.get("server.txn_conflicts").copied().unwrap();
    assert_eq!(commits, history.len() as u64);
    assert_eq!(commits + conflicts, 4 * 120);
    server.shutdown().unwrap();
}

#[test]
fn idle_txn_times_out_releasing_its_snapshot() {
    let cfg = ServerConfig {
        txn_idle_timeout: Duration::from_millis(40),
        ..ServerConfig::default()
    };
    let mut cluster = Cluster::start(Layout::Hash(1), ReplicationRole::None, wal_cfg(), cfg);
    let mut c = cluster.client();
    c.txn_begin().unwrap();
    c.txn_put(b"stall-k", b"never-lands").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // the sweeper reaped the transaction: the next op is a typed NO_TXN,
    // not a hang, and the buffered write left no trace
    assert_eq!(
        c.call(&Request::TxnCommit).unwrap(),
        Response::NoTxn,
        "stalled txn must be reaped, not committed"
    );
    assert_eq!(c.get(b"stall-k").unwrap(), None);
    // the connection recovers: a fresh transaction commits normally
    c.txn_begin().unwrap();
    c.txn_put(b"stall-k", b"landed").unwrap();
    assert!(matches!(
        c.txn_commit().unwrap(),
        TxnCommitStatus::Committed(_)
    ));
    drop(c);
    let server = cluster.server.take().unwrap();
    let snap = server.metrics().snapshot();
    let timeouts = snap.counters.get("server.txn_timeouts").copied().unwrap();
    assert!(timeouts >= 1, "sweeper never fired: {timeouts}");
    server.shutdown().unwrap();
}

#[test]
fn elastic_refuses_cross_shard_but_commits_single_shard() {
    let cluster = Cluster::start(
        Layout::Elastic(ShardMap::uniform(2), None),
        ReplicationRole::None,
        wal_cfg(),
        ServerConfig::default(),
    );
    let mut c = cluster.client();
    let (_, entries) = c.shard_map().unwrap();
    assert_eq!(entries.len(), 2);
    // keys on both sides of the split point span shards
    let split = entries[1].1.clone();
    let mut lo = Vec::new(); // before the split: first shard
    lo.extend_from_slice(b"\x00lo");
    let mut hi = split.clone(); // at/after the split: second shard
    hi.extend_from_slice(b"hi");

    c.txn_begin().unwrap();
    c.txn_put(&lo, b"a").unwrap();
    c.txn_put(&hi, b"b").unwrap();
    let err = c.txn_commit().unwrap_err();
    assert!(
        err.to_string().contains("cross-shard"),
        "unexpected error: {err}"
    );
    // refusal aborted the transaction; neither write landed
    assert_eq!(c.get(&lo).unwrap(), None);
    assert_eq!(c.get(&hi).unwrap(), None);

    // single-shard transactions work on elastic servers
    c.txn_begin().unwrap();
    c.txn_put(&lo, b"a2").unwrap();
    assert!(matches!(
        c.txn_commit().unwrap(),
        TxnCommitStatus::Committed(_)
    ));
    assert_eq!(c.get(&lo).unwrap(), Some(b"a2".to_vec()));
}

// ---------------------------------------------------------------------
// Model-checked adversarial interleavings (single shard, exact oracle)
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    Begin(usize),
    Get(usize, u8),
    Put(usize, u8, u8),
    Delete(usize, u8),
    Commit(usize),
    Abort(usize),
    DirectPut(u8, u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let client = 0..3usize;
    let key = 0..6u8;
    prop_oneof![
        2 => client.clone().prop_map(Step::Begin),
        2 => (client.clone(), key.clone()).prop_map(|(c, k)| Step::Get(c, k)),
        2 => (client.clone(), key.clone(), any::<u8>()).prop_map(|(c, k, v)| Step::Put(c, k, v)),
        1 => (client.clone(), key.clone()).prop_map(|(c, k)| Step::Delete(c, k)),
        3 => client.clone().prop_map(Step::Commit),
        1 => client.clone().prop_map(Step::Abort),
        1 => (key, any::<u8>()).prop_map(|(k, v)| Step::DirectPut(k, v)),
    ]
}

/// The model's view of one open transaction. The server begins the
/// engine sub-transaction lazily, on the first operation that touches
/// its shard — so the snapshot and the validation floor are captured at
/// *first touch*, not at TXN_BEGIN. The model mirrors that.
struct ModelTxn {
    /// `(snapshot of committed state, write-version)` at first touch.
    touched: Option<(Oracle, u64)>,
    read_set: HashSet<Vec<u8>>,
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
}

impl ModelTxn {
    /// Captures the snapshot + floor on the transaction's first op.
    fn touch(&mut self, committed: &Oracle, version: u64) -> &mut (Oracle, u64) {
        self.touched
            .get_or_insert_with(|| (committed.clone(), version))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adversarial_interleavings_match_the_occ_model(
        steps in proptest::collection::vec(step_strategy(), 1..60),
    ) {
        let mk = |k: u8| vec![b'm', k];
        let mv = |v: u8| vec![b'v', v];
        let mut cluster = standalone(1);
        let mut clients: Vec<Client> = (0..3).map(|_| cluster.client()).collect();
        let mut direct = cluster.client();

        let mut committed = Oracle::new();
        let mut versions: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut version: u64 = 0;
        let mut txns: Vec<Option<ModelTxn>> = (0..3).map(|_| None).collect();

        for step in &steps {
            match *step {
                Step::Begin(c) => {
                    if txns[c].is_some() {
                        prop_assert!(clients[c].txn_begin().is_err());
                    } else {
                        clients[c].txn_begin().unwrap();
                        txns[c] = Some(ModelTxn {
                            touched: None,
                            read_set: HashSet::new(),
                            writes: BTreeMap::new(),
                        });
                    }
                }
                Step::Get(c, k) => {
                    let got = clients[c].call(&Request::TxnGet { key: mk(k) }).unwrap();
                    match &mut txns[c] {
                        Some(t) => {
                            let snap_val = t.touch(&committed, version).0.get(&mk(k)).cloned();
                            let want = t.writes.get(&mk(k)).cloned().unwrap_or(snap_val);
                            t.read_set.insert(mk(k));
                            let want = match want {
                                Some(v) => Response::Value(v),
                                None => Response::NotFound,
                            };
                            prop_assert_eq!(got, want, "txn read diverged from model");
                        }
                        None => prop_assert_eq!(got, Response::NoTxn),
                    }
                }
                Step::Put(c, k, v) => {
                    let got = clients[c]
                        .call(&Request::TxnPut { key: mk(k), value: mv(v) })
                        .unwrap();
                    match &mut txns[c] {
                        Some(t) => {
                            prop_assert_eq!(got, Response::Ok);
                            t.touch(&committed, version);
                            t.writes.insert(mk(k), Some(mv(v)));
                        }
                        None => prop_assert_eq!(got, Response::NoTxn),
                    }
                }
                Step::Delete(c, k) => {
                    let got = clients[c].call(&Request::TxnDelete { key: mk(k) }).unwrap();
                    match &mut txns[c] {
                        Some(t) => {
                            prop_assert_eq!(got, Response::Ok);
                            t.touch(&committed, version);
                            t.writes.insert(mk(k), None);
                        }
                        None => prop_assert_eq!(got, Response::NoTxn),
                    }
                }
                Step::Commit(c) => {
                    let got = clients[c].call(&Request::TxnCommit).unwrap();
                    match txns[c].take() {
                        Some(t) => {
                            let floor = t.touched.as_ref().map(|(_, v)| *v);
                            if floor.is_none() {
                                // never touched a shard: nothing to commit
                                prop_assert_eq!(got, Response::TxnCommitted { stamp: 0 });
                            } else if t.read_set.iter().any(|k| {
                                versions.get(k).copied().unwrap_or(0) > floor.unwrap()
                            }) {
                                // first-committer-wins: some read was
                                // invalidated after the snapshot
                                prop_assert!(
                                    matches!(got, Response::TxnConflict { .. }),
                                    "model says conflict, server said {:?}",
                                    got
                                );
                            } else {
                                prop_assert!(
                                    matches!(got, Response::TxnCommitted { stamp } if stamp > 0),
                                    "model says commit, server said {:?}",
                                    got
                                );
                                for (k, v) in t.writes {
                                    version += 1;
                                    versions.insert(k.clone(), version);
                                    match v {
                                        Some(v) => {
                                            committed.insert(k, v);
                                        }
                                        None => {
                                            committed.remove(&k);
                                        }
                                    }
                                }
                            }
                        }
                        None => prop_assert_eq!(got, Response::NoTxn),
                    }
                }
                Step::Abort(c) => {
                    clients[c].txn_abort().unwrap();
                    txns[c] = None;
                }
                Step::DirectPut(k, v) => {
                    direct.put(&mk(k), &mv(v)).unwrap();
                    version += 1;
                    versions.insert(mk(k), version);
                    committed.insert(mk(k), mv(v));
                }
            }
        }
        // final state: exactly the committed writes, nothing else
        let got = direct.scan(b"m", b"n", 1_000_000).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            committed.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want, "final state diverged from the OCC model");
        drop(clients);
        drop(direct);
        cluster.server.take().unwrap().shutdown().unwrap();
    }
}
