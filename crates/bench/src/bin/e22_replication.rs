//! E22 — replication: read scaling across a replica set, quorum-write
//! cost, and failover time.
//!
//! Three measurements over the `lsm-server` replication stack (real TCP
//! loopback, real threads, [`WallLatencyDevice`] disks):
//!
//! 1. **Read scaling** (1 node → 3 nodes): load `n` keys through the
//!    primary with `ack_quorum = replicas` (every acked write is applied
//!    *and synced* on every replica before the client sees `Ok`), then
//!    offer an open-loop Poisson GET load well above one node's service
//!    capacity. Each node serves its connections from its own disk, so a
//!    3-node set (primary + 2 replicas) approaches 3× the acked read
//!    throughput of the primary alone — the replica-set read story.
//!    Latency is measured from the *scheduled* arrival, so the 1-node
//!    backlog shows up as the p99 cliff it really is.
//!
//! 2. **Quorum-write cost**: the load phase itself is the measurement —
//!    with replicas, every group-commit batch waits for the slowest
//!    replica's apply+sync before acking, so load throughput vs the
//!    1-node run prices the quorum, and `server.repl_ack_ns` p99 is the
//!    per-batch replication lag.
//!
//! 3. **Failover**: kill the primary (abort — no drain), promote a
//!    replica ([`promote_replica`] replays its WAL tail and adopts the
//!    replication watermark), and time abort → first acked write on the
//!    promoted server: the write-unavailability window.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_bench::*;
use lsm_core::{BackgroundMode, LsmConfig};
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{
    promote_replica, Client, PrimaryReplication, ReplicationRole, Request, Response, ServerConfig,
};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice, WallLatencyDevice};
use lsm_workload::{encode_key, Arrivals, OpenLoopSchedule};

/// Service lanes per node: each node is read through this many
/// connections, and a connection's reads execute sequentially in its
/// reader thread — so a node's read capacity is `lanes / read-cost`,
/// and adding replicas adds lanes backed by *their own* disks.
const CONNS_PER_NODE: usize = 2;

/// The modeled disk behind every node (same as E20): reads cost tens of
/// microseconds of real wall time, writes hundreds.
fn disk_profile() -> DeviceProfile {
    DeviceProfile {
        random_read_ns: 20_000,
        random_write_ns: 250_000,
        read_block_ns: 1_000,
        write_block_ns: 2_000,
    }
}

fn node_config() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        wal: true, // replication ships the WAL's contents; it must exist
        ..base_config()
    }
}

fn node_device() -> Arc<dyn StorageDevice> {
    let cfg = node_config();
    let mem: Arc<dyn StorageDevice> =
        Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    Arc::new(WallLatencyDevice::new(mem, disk_profile()))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p) as usize]
}

/// Starts one single-shard node on its own modeled disk, serving as
/// `role`; the cluster keeps the disk, so a replica can be promoted.
fn start_node(role: ReplicationRole, server_cfg: ServerConfig) -> Cluster {
    let mut node = Cluster::new(node_config(), |_| node_device());
    node.serve(Layout::Hash(1), role, server_cfg).expect("start node");
    node
}

fn start_replica() -> Cluster {
    let server_cfg = ServerConfig {
        shed_l0_runs: Some(usize::MAX),
        ..ServerConfig::default()
    };
    start_node(ReplicationRole::Replica, server_cfg)
}

/// Loads `n` distinct keys through one pipelined connection (closed
/// loop, window 32). With replicas, each batch's ack waits for the
/// quorum, so the returned wall time prices quorum writes.
fn load_keys(addr: SocketAddr, n: u64) -> f64 {
    let mut c = Client::connect(addr).expect("load client connect");
    let start = Instant::now();
    let mut pending: Vec<u64> = Vec::with_capacity(32);
    for i in 0..n {
        let id = c
            .send(&Request::Put {
                key: encode_key(i),
                value: value_of(i, 64),
            })
            .expect("load send");
        pending.push(id);
        if pending.len() >= 32 {
            for id in pending.drain(..) {
                match c.wait_for(id).expect("load ack") {
                    Response::Ok => {}
                    other => panic!("load put rejected: {other:?}"),
                }
            }
        }
    }
    for id in pending.drain(..) {
        match c.wait_for(id).expect("load ack") {
            Response::Ok => {}
            other => panic!("load put rejected: {other:?}"),
        }
    }
    start.elapsed().as_secs_f64()
}

/// Drives one read connection at its share of the open-loop schedule:
/// uniform GETs over the loaded keyspace, window-16 pipeline, latency
/// from the scheduled arrival. Returns (latencies ns, hits, misses).
fn drive_reads(
    addr: SocketAddr,
    conn: u64,
    arrivals: Vec<u64>,
    keyspace: u64,
    start: Instant,
) -> (Vec<u64>, u64, u64) {
    const WINDOW: usize = 16;
    let mut c = Client::connect(addr).expect("read client connect");
    let mut pending: HashMap<u64, u64> = HashMap::new();
    let mut lats = Vec::with_capacity(arrivals.len());
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut state = conn.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut recv_one = |c: &mut Client, pending: &mut HashMap<u64, u64>| {
        let (rid, resp) = c.recv().expect("read recv");
        let done = start.elapsed().as_nanos() as u64;
        if let Some(at) = pending.remove(&rid) {
            lats.push(done.saturating_sub(at));
        }
        match resp {
            Response::Value(_) => hits += 1,
            _ => misses += 1,
        }
    };
    for &at in &arrivals {
        loop {
            let now = start.elapsed().as_nanos() as u64;
            if now >= at {
                break;
            }
            std::thread::sleep(Duration::from_nanos((at - now).min(500_000)));
        }
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let id = state.wrapping_mul(0x2545F4914F6CDD1D) % keyspace;
        let rid = c.send(&Request::Get { key: encode_key(id) }).expect("read send");
        pending.insert(rid, at);
        while pending.len() >= WINDOW {
            recv_one(&mut c, &mut pending);
        }
    }
    while !pending.is_empty() {
        recv_one(&mut c, &mut pending);
    }
    (lats, hits, misses)
}

struct ClusterResult {
    load_kops: f64,
    read_kops: f64,
    p50_ms: f64,
    p99_ms: f64,
    misses: u64,
    repl_ack_p99_us: f64,
    /// abort → first acked write on the promoted replica (replica runs only).
    failover_ms: Option<f64>,
    adopted_seq: u64,
}

/// One full cluster run: start `replicas` replica nodes and a primary
/// with `ack_quorum = replicas`, load `n` keys, saturate the read path
/// across all nodes, then (with replicas) kill the primary and promote.
fn run_cluster(replicas: usize, n: u64, rate_per_sec: f64) -> ClusterResult {
    let mut replica_nodes: Vec<Cluster> = (0..replicas).map(|_| start_replica()).collect();
    let role = if replicas == 0 {
        ReplicationRole::None
    } else {
        ReplicationRole::Primary(PrimaryReplication {
            replicas: replica_nodes.iter().map(Cluster::addr).collect(),
            ack_quorum: replicas,
            ack_timeout_ms: 10_000,
            drain_timeout_ms: 5_000,
        })
    };
    let server_cfg = ServerConfig {
        pipeline_depth: 32,
        shed_l0_runs: Some(usize::MAX),
        ..ServerConfig::default()
    };
    let primary = start_node(role, server_cfg).server.take().unwrap();

    let load_secs = load_keys(primary.addr(), n);

    // every node — primary included — serves CONNS_PER_NODE read lanes
    let mut node_addrs = vec![primary.addr()];
    node_addrs.extend(replica_nodes.iter().map(Cluster::addr));
    let conns = node_addrs.len() * CONNS_PER_NODE;
    let per_conn = (n / conns as u64).max(1);
    let start = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|t| {
            let addr = node_addrs[t % node_addrs.len()];
            let arrivals =
                OpenLoopSchedule::new(rate_per_sec / conns as f64, Arrivals::Poisson, 131 + t as u64)
                    .take(per_conn as usize);
            std::thread::spawn(move || drive_reads(addr, t as u64, arrivals, n, start))
        })
        .collect();
    let mut lats = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for d in drivers {
        let (l, h, m) = d.join().expect("read driver");
        lats.extend(l);
        hits += h;
        misses += m;
    }
    let read_wall = start.elapsed().as_secs_f64();
    lats.sort_unstable();

    let repl_ack_p99_us = primary.metrics().repl_ack_ns.snapshot().p99() as f64 / 1000.0;

    // failover: abort the primary mid-flight, promote replica 0, and
    // time the write-unavailability window to the first acked PUT
    let (failover_ms, adopted_seq) = if replicas > 0 {
        let t0 = Instant::now();
        drop(primary.abort());
        let mut node = replica_nodes.remove(0);
        drop(node.server.take().unwrap().abort());
        let recovered = node.reopen().expect("reopen replica").expect("replica shard");
        let promoted = promote_replica(recovered, ServerConfig::default()).expect("promotion");
        let mut c = Client::connect(promoted.server.addr()).expect("connect promoted");
        c.put(b"e22-failover-sentinel", b"promoted").expect("promoted write");
        let window = t0.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(
            c.get(b"e22-failover-sentinel").expect("promoted read"),
            Some(b"promoted".to_vec())
        );
        drop(c);
        drop(promoted.server.shutdown().expect("promoted shutdown"));
        (Some(window), promoted.adopted_seq)
    } else {
        drop(primary.shutdown().expect("primary shutdown"));
        (None, 0)
    };
    for mut node in replica_nodes {
        let server = node.server.take().unwrap();
        drop(server.shutdown().expect("replica shutdown"));
    }

    ClusterResult {
        load_kops: n as f64 / load_secs / 1000.0,
        read_kops: (hits + misses) as f64 / read_wall / 1000.0,
        p50_ms: percentile(&lats, 0.50) as f64 / 1e6,
        p99_ms: percentile(&lats, 0.99) as f64 / 1e6,
        misses,
        repl_ack_p99_us,
        failover_ms,
        adopted_seq,
    }
}

fn main() {
    let n = bench_n();
    // offered well above one node's read capacity (two ~25–40 µs lanes),
    // so the 1-node run saturates and the 3-node run absorbs the load
    let rate = 150_000.0;

    println!("E22: replication — {n} keys loaded, open-loop GETs at {rate:.0}/s offered\n");
    let t = TablePrinter::new(&[
        "nodes",
        "read kops/s",
        "p50 ms",
        "p99 ms",
        "misses",
        "load kops/s",
        "repl p99 us",
        "failover ms",
    ]);
    let mut by_nodes = Vec::new();
    for replicas in [0usize, 2] {
        let nodes = replicas + 1;
        let r = run_cluster(replicas, n, rate);
        assert_eq!(r.misses, 0, "every acked key must be readable on every node");
        if replicas > 0 {
            assert!(r.adopted_seq > 0, "promotion must adopt a replicated watermark");
        }
        t.print(&[
            nodes.to_string(),
            format!("{:.1}", r.read_kops),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p99_ms),
            r.misses.to_string(),
            format!("{:.1}", r.load_kops),
            format!("{:.0}", r.repl_ack_p99_us),
            r.failover_ms.map_or("-".into(), |ms| format!("{ms:.0}")),
        ]);
        by_nodes.push((nodes, r.read_kops));
    }
    if let (Some((_, t1)), Some((_, t3))) = (by_nodes.first(), by_nodes.last()) {
        println!("\n  1 → 3 node read speedup: {:.2}x", t3 / t1);
    }

    println!("\nexpected shape: reads scale because each node answers its own");
    println!("connections from its own disk — the 1-node run saturates two");
    println!("service lanes and its open-loop p99 explodes into backlog,");
    println!("while 3 nodes serve six lanes and hold latency near the disk");
    println!("cost (≥1.7x acked reads at 3 nodes). The price appears in the");
    println!("load column: with ack_quorum = 2, every group-commit batch");
    println!("waits for both replicas' apply+sync, so quorum writes cost a");
    println!("replication round-trip (repl p99). Failover is the promotion");
    println!("cost: WAL-tail replay plus server start, a bounded write-");
    println!("unavailability window with zero acked-write loss (misses = 0).");
}
