//! E24 — optimistic transaction throughput and conflict rate vs
//! contention skew.
//!
//! Four client connections each run read-modify-write transactions over
//! the wire against a two-shard hash-routed server: begin, read two
//! zipf-drawn keys, overwrite both, commit. The zipf skew is the swept
//! axis — uniform traffic almost never collides on a 10k-key pool, while
//! `theta = 1.4` concentrates most transactions on a handful of keys, so
//! first-committer-wins validation kills an increasing share of commits.
//!
//! Reported per skew level: committed-transaction throughput, the
//! conflict rate (`conflicts / attempts`), and commit latency from the
//! server's own `txn_commit_ns` histogram. Conflicted transactions are
//! *not* retried — the point is to measure the validation pressure
//! itself, not a retry policy. Expected shape: throughput falls and the
//! conflict rate climbs monotonically with skew; at uniform skew the
//! conflict rate should be near zero, proving validation is not charging
//! innocent transactions.

use std::sync::Arc;
use std::time::Instant;

use lsm_bench::*;
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_server::{Client, Server, ServerConfig, TxnCommitStatus};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};
use lsm_workload::{encode_key, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARDS: usize = 2;
const CONNS: usize = 4;
const KEY_SPACE: u64 = 10_000;
/// Keys read-then-written per transaction.
const RMW_KEYS: usize = 2;

fn shard_config() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        wal: true,
        ..base_config()
    }
}

fn open_shards(n: usize) -> Vec<Db> {
    let cfg = shard_config();
    (0..n)
        .map(|_| {
            let dev: Arc<dyn StorageDevice> =
                Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
            Db::open(dev, cfg.clone()).unwrap()
        })
        .collect()
}

/// One connection's slice: `txns` RMW transactions, zipf-keyed.
/// Returns `(committed, conflicted)`.
fn drive(addr: std::net::SocketAddr, conn: u64, theta: f64, txns: u64) -> (u64, u64) {
    let mut c = Client::connect(addr).expect("bench client connect");
    let zipf = ZipfSampler::new(KEY_SPACE, theta.max(1e-3));
    let mut rng = StdRng::seed_from_u64(0xE24_0001 ^ (conn << 32) ^ theta.to_bits());
    let (mut committed, mut conflicted) = (0u64, 0u64);
    for n in 0..txns {
        c.txn_begin().expect("txn begin");
        for _ in 0..RMW_KEYS {
            let key = encode_key(zipf.sample(&mut rng) - 1);
            let cur = c.txn_get(&key).expect("txn get");
            let mut next = cur.unwrap_or_default();
            next.extend_from_slice(format!("+c{conn}n{n}").as_bytes());
            next.truncate(64);
            c.txn_put(&key, &next).expect("txn put");
        }
        match c.txn_commit().expect("txn commit rpc") {
            TxnCommitStatus::Committed(_) => committed += 1,
            TxnCommitStatus::Conflict(_) => conflicted += 1,
        }
    }
    (committed, conflicted)
}

struct RunResult {
    committed_per_s: f64,
    committed: u64,
    conflicted: u64,
    conflict_rate: f64,
    commit_p50_us: f64,
    commit_p99_us: f64,
}

fn run_level(theta: f64, total_txns: u64) -> RunResult {
    let server =
        Server::start(open_shards(SHARDS), ServerConfig::default()).expect("start server");
    let addr = server.addr();
    // preload so every transactional read hits a real value
    let mut loader = Client::connect(addr).expect("loader connect");
    for i in 0..KEY_SPACE {
        loader
            .put(&encode_key(i), format!("seed{i}").as_bytes())
            .expect("preload put");
    }
    drop(loader);

    let per_conn = (total_txns / CONNS as u64).max(1);
    let start = Instant::now();
    let drivers: Vec<_> = (0..CONNS)
        .map(|t| std::thread::spawn(move || drive(addr, t as u64, theta, per_conn)))
        .collect();
    let (mut committed, mut conflicted) = (0u64, 0u64);
    for d in drivers {
        let (ok, lost) = d.join().expect("driver thread");
        committed += ok;
        conflicted += lost;
    }
    let wall = start.elapsed().as_secs_f64();

    let snap = server.metrics().snapshot();
    let commit_hist = snap.histograms.get("server.txn_commit_ns");
    let (p50, p99) = commit_hist.map(|h| (h.p50(), h.p99())).unwrap_or((0, 0));
    drop(server.shutdown().expect("graceful shutdown"));

    let attempts = committed + conflicted;
    RunResult {
        committed_per_s: committed as f64 / wall,
        committed,
        conflicted,
        conflict_rate: conflicted as f64 / attempts.max(1) as f64,
        commit_p50_us: p50 as f64 / 1e3,
        commit_p99_us: p99 as f64 / 1e3,
    }
}

fn main() {
    // a transaction is 2 RMW round-trips + commit; scale the count down
    // from the raw-op budget so E24 runs in the same ballpark as E20-E23
    let txns = (bench_n() / 8).max(CONNS as u64);
    let levels: [(f64, &str); 4] = [
        (0.001, "uniform"),
        (0.8, "zipf-0.8"),
        (0.99, "zipf-0.99"),
        (1.4, "zipf-1.4"),
    ];

    println!(
        "E24: optimistic transactions — {txns} RMW txns per skew level \
         ({RMW_KEYS} read-modify-writes each), {CONNS} connections, \
         {SHARDS} hash shards, {KEY_SPACE}-key pool\n"
    );
    let t = TablePrinter::new(&[
        "contention",
        "txns/s",
        "committed",
        "conflicted",
        "conflict %",
        "commit p50 us",
        "commit p99 us",
    ]);
    let mut rates = Vec::new();
    for (theta, label) in levels {
        let r = run_level(theta, txns);
        t.print(&[
            label.to_string(),
            format!("{:.0}", r.committed_per_s),
            r.committed.to_string(),
            r.conflicted.to_string(),
            format!("{:.1}", r.conflict_rate * 100.0),
            format!("{:.0}", r.commit_p50_us),
            format!("{:.0}", r.commit_p99_us),
        ]);
        rates.push((label, r.conflict_rate));
    }

    println!("\nexpected shape: the conflict rate climbs monotonically with skew");
    println!("(first-committer-wins kills the loser of every same-key race) while");
    println!("committed throughput falls — conflicted work is wasted validation.");
    println!("uniform traffic over a 10k-key pool should conflict near 0%, the");
    println!("proof that validation charges only genuine read-write races.");
}
