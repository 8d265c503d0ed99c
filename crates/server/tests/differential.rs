//! Differential testing of the serving layer against a `BTreeMap`
//! oracle, plus the kill-the-server recovery test.
//!
//! Concurrent clients drive the loopback server with deterministic
//! workloads over disjoint key prefixes; each connection checks its own
//! reads against its own oracle (per-connection read-your-writes makes
//! that exact even while other connections mutate other prefixes and
//! background maintenance runs). Afterward the merged oracle must match
//! a global cross-shard scan — the stitched merge over hash shards must
//! reconstruct one ordered keyspace.
//!
//! The crash test wraps every shard device in a `FaultDevice`, collects
//! write acks, kills the device cold (every subsequent I/O fails, so not
//! even drop-time tail syncs can cheat), and reopens the shards: every
//! acknowledged write must be there, because an ack implies the batch
//! was WAL-synced before the reply was sent.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{Client, ReplicationRole, Request, Response, Server, ServerConfig, ShardSet};
use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, MemDevice, StorageDevice};

type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;

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

/// One connection's workload over its own key prefix: pipelined writes,
/// differential gets, differential prefix scans.
fn client_workload(mut c: Client, thread: usize, ops: usize) -> Oracle {
    let mut oracle = Oracle::new();
    let mut rng = Rng(0x9E3779B9 ^ (thread as u64) << 16 | 1);
    let key = |i: u64| format!("t{thread}-{i:05}").into_bytes();
    let mut inflight: Vec<(u64, bool)> = Vec::new(); // (id, expect_ok)
    for n in 0..ops {
        let i = rng.next() % 120;
        match rng.next() % 10 {
            0..=5 => {
                let v = format!("v{thread}-{n}-{}", rng.next() % 1000).into_bytes();
                let id = c
                    .send(&Request::Put {
                        key: key(i),
                        value: v.clone(),
                    })
                    .unwrap();
                inflight.push((id, true));
                oracle.insert(key(i), v);
            }
            6 => {
                let id = c.send(&Request::Delete { key: key(i) }).unwrap();
                inflight.push((id, true));
                oracle.remove(&key(i));
            }
            7..=8 => {
                // read-your-writes: pipelined writes above must be visible
                let got = c.get(&key(i)).unwrap();
                assert_eq!(
                    got,
                    oracle.get(&key(i)).cloned(),
                    "thread {thread} op {n}: get diverged from oracle"
                );
            }
            _ => {
                let lo = key(rng.next() % 100);
                let hi = key(100 + rng.next() % 20);
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(lo.clone()..hi.clone())
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                let got = c.scan(&lo, &hi, 10_000).unwrap();
                assert_eq!(got, want, "thread {thread} op {n}: scan diverged");
            }
        }
        // bound client-side bookkeeping; the server enforces its own cap
        if inflight.len() >= 16 {
            for (id, expect_ok) in inflight.drain(..) {
                let resp = c.wait_for(id).unwrap();
                assert_eq!(resp == Response::Ok, expect_ok, "write {id} failed: {resp:?}");
            }
        }
    }
    for (id, _) in inflight.drain(..) {
        assert_eq!(c.wait_for(id).unwrap(), Response::Ok);
    }
    oracle
}

#[test]
fn concurrent_clients_match_oracle_and_scans_stitch() {
    let mut cluster = standalone(3);
    let addr = cluster.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let c = Client::connect(addr).expect("connect");
                client_workload(c, t, 400)
            })
        })
        .collect();
    let mut merged = Oracle::new();
    for t in threads {
        merged.extend(t.join().expect("client thread panicked"));
    }

    // global cross-shard scan must equal the merged oracle exactly
    let mut c = cluster.client();
    let got = c.scan(b"t", b"u", 1_000_000).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = merged.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(got.len(), want.len(), "stitched scan lost or invented entries");
    assert_eq!(got, want, "stitched scan diverged from oracle");

    // graceful shutdown, then the engines agree with the oracle directly
    drop(c);
    let dbs = cluster.server.take().unwrap().shutdown().unwrap();
    let set = ShardSet::new(dbs);
    for (k, v) in merged.iter().take(200) {
        assert_eq!(set.get(k).unwrap().as_ref(), Some(v), "post-shutdown divergence");
    }
}

#[test]
fn admission_control_sheds_instead_of_wedging() {
    // shed line of zero: every write is refused with a typed Busy
    let server_cfg = ServerConfig {
        shed_l0_runs: Some(0),
        ..ServerConfig::default()
    };
    let mut cluster = Cluster::start(Layout::Hash(2), ReplicationRole::None, wal_cfg(), server_cfg);
    let mut c = cluster.client();
    match c.call(&Request::Put {
        key: b"shed-key".to_vec(),
        value: b"v".to_vec(),
    }) {
        Ok(Response::Busy) => {}
        other => panic!("expected Busy from admission control, got {other:?}"),
    }
    // reads still work while writes shed
    assert_eq!(c.get(b"shed-key").unwrap(), None);
    let server = cluster.server.take().unwrap();
    let sheds = server.metrics().snapshot().counters.get("server.sheds").copied();
    assert_eq!(sheds, Some(1));
    server.shutdown().unwrap();
}

/// The default shed line is the engine's *live* stall line: a retune
/// that moves `l0_stall_runs` moves the point where the server sheds.
#[test]
fn shed_line_follows_a_retuned_stall_line() {
    // Inline, with the L0 trigger above the stall line: three flushes
    // hold L0 at three runs and nothing compacts them away
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        l0_run_cap: 8,
        l0_slowdown_runs: 2,
        l0_stall_runs: 3,
        ..wal_cfg()
    };
    let db = Db::open_in_memory(cfg.clone()).unwrap();
    for i in 0..3u8 {
        db.put(vec![b'a', i], b"v".to_vec()).unwrap();
        db.flush().unwrap();
    }
    assert_eq!(db.l0_run_count(), 3);
    let server = Server::start(vec![db.clone()], ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let put = |c: &mut Client, key: &[u8]| {
        c.call(&Request::Put {
            key: key.to_vec(),
            value: b"v".to_vec(),
        })
        .unwrap()
    };
    assert_eq!(put(&mut c, b"at-boot-line"), Response::Busy);
    db.set_config(LsmConfig {
        l0_stall_runs: 6,
        ..cfg.clone()
    })
    .unwrap();
    assert_eq!(put(&mut c, b"under-raised-line"), Response::Ok);
    db.set_config(cfg).unwrap();
    assert_eq!(put(&mut c, b"at-lowered-line"), Response::Busy);
    assert_eq!(db.l0_run_count(), 3);
    drop(c);
    drop(db);
    server.shutdown().unwrap();
}

#[test]
fn kill_the_server_preserves_every_acked_write() {
    let cfg = wal_cfg();
    let faults: Vec<Arc<FaultDevice>> = (0..3)
        .map(|s| {
            let mem: Arc<dyn StorageDevice> =
                Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
            Arc::new(FaultDevice::new(mem, 0xC0A5 + s))
        })
        .collect();
    let dbs: Vec<Db> = faults
        .iter()
        .map(|f| Db::open(Arc::clone(f) as Arc<dyn StorageDevice>, cfg.clone()).unwrap())
        .collect();
    let server = Server::start(dbs, ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    // pipelined writes; track exactly which were acknowledged Ok
    let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..300u32 {
        let k = format!("ck{i:05}").into_bytes();
        let v = format!("cv{i}").into_bytes();
        let id = c
            .send(&Request::Put {
                key: k.clone(),
                value: v.clone(),
            })
            .unwrap();
        ids.push((id, k, v));
        if ids.len() == 8 {
            for (id, k, v) in ids.drain(..) {
                if c.wait_for(id).unwrap() == Response::Ok {
                    acked.push((k, v));
                }
            }
        }
    }
    for (id, k, v) in ids.drain(..) {
        if c.wait_for(id).unwrap() == Response::Ok {
            acked.push((k, v));
        }
    }
    assert_eq!(acked.len(), 300, "healthy server should ack everything");

    // kill: every device op from here on fails — the abort path, drop-time
    // tail syncs, everything. Only what an ack already implied survives.
    for f in &faults {
        f.schedule(f.ops_performed(), FaultKind::Crash);
    }
    drop(c);
    let dbs = server.abort();
    drop(dbs);

    for f in &faults {
        f.heal();
    }
    let reopened: Vec<Db> = faults
        .iter()
        .map(|f| {
            Db::open(Arc::clone(f) as Arc<dyn StorageDevice>, cfg.clone())
                .expect("shard must reopen cleanly after a crash")
        })
        .collect();
    let set = ShardSet::new(reopened);
    for (k, v) in &acked {
        assert_eq!(
            set.get(k).unwrap().as_ref(),
            Some(v),
            "acked write {} lost in the crash",
            String::from_utf8_lossy(k)
        );
    }
    // and the cluster keeps working after recovery
    let all = set.scan(b"ck", b"cl", 10_000).unwrap();
    assert_eq!(all.len(), 300);
}
