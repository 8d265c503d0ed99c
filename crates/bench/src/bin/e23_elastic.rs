//! E23 — elastic range sharding vs static topologies under a shifting
//! hotspot.
//!
//! One open-loop Poisson workload — 80% puts / 20% short scans whose
//! keys concentrate (90%) in a contiguous hot window that jumps to a
//! far-away region of the keyspace twice per run — is offered at the
//! same rate to three four-shard topologies:
//!
//! 1. **hash4** — the static FNV hash router. Point writes scatter
//!    evenly (hash is immune to key skew), but every scan must visit
//!    *all* shards and k-way merge, paying four shards' worth of read
//!    I/O per scan.
//! 2. **range4** — a static range map. Scans touch only the owning
//!    shard(s), but the hot window lands on one shard, which serializes
//!    ~90% of the writes behind a single WAL.
//! 3. **elastic** — the same range map plus the rebalancer: per-shard
//!    write-rate gauges trigger online splits of whichever shard the
//!    hot window currently occupies (up to 8 shards), migrating half
//!    its range to a fresh engine while serving continues.
//!
//! Latency is measured from the *scheduled* arrival (coordinated
//! omission stays in the numbers), on a [`WallLatencyDevice`] so WAL
//! appends and reads cost real wall time per shard, like independent
//! disks. Expected shape: range4 beats hash4 on scans but loses its
//! advantage to write queueing on the hot shard; elastic keeps the scan
//! routing *and* splits the hot range, so it should post the best p99.
//! Smoke-scale runs (`LSM_BENCH_N` small) are too short for scan cost
//! to accumulate, so their ordering is noise; the full-scale numbers
//! live in EXPERIMENTS.md.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_bench::*;
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_server::{
    Client, ElasticOptions, RebalancePolicy, ReplicationRole, Request, Response, Server,
    ServerConfig, ShardMap, Topology,
};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice, WallLatencyDevice};
use lsm_workload::hotspot::{HotspotSpec, ShiftingHotspot};
use lsm_workload::{decode_key, encode_key, Arrivals, OpMix, OpenLoopSchedule, Operation};

/// The modeled disk behind every shard: appends and reads cost real
/// (slept) wall time, so shards behave like independent devices.
fn disk_profile() -> DeviceProfile {
    DeviceProfile {
        random_read_ns: 20_000,
        random_write_ns: 250_000,
        read_block_ns: 1_000,
        write_block_ns: 2_000,
    }
}

fn shard_config() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        wal: true,
        ..base_config()
    }
}

fn shard_device() -> Arc<dyn StorageDevice> {
    let cfg = shard_config();
    let mem: Arc<dyn StorageDevice> =
        Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    Arc::new(WallLatencyDevice::new(mem, disk_profile()))
}

fn open_shards(n: usize) -> Vec<Db> {
    (0..n)
        .map(|_| Db::open(shard_device(), shard_config()).unwrap())
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Topo {
    Hash4,
    Range4,
    Elastic,
}

impl Topo {
    fn tag(self) -> &'static str {
        match self {
            Topo::Hash4 => "hash4",
            Topo::Range4 => "range4",
            Topo::Elastic => "elastic",
        }
    }
}

const START_SHARDS: usize = 4;
const KEY_SPACE: u64 = 200_000;
const SCAN_SPAN: u64 = 2_000;

fn hotspot_spec(total_ops: u64, conns: u64, seed: u64) -> HotspotSpec {
    HotspotSpec {
        key_space: KEY_SPACE,
        hot_fraction: 0.9,
        hot_width: 8_000,
        // three windows per run; window position is a pure function of
        // the phase, so every connection chases the same hot range
        phase_ops: (total_ops / conns / 3).max(1),
        mix: OpMix {
            insert: 0.8,
            update: 0.0,
            read: 0.0,
            scan: 0.2,
            delete: 0.0,
            rmw: 0.0,
        },
        value_len: 64,
        scan_len: 100,
        seed,
    }
}

/// Drives one connection: shifting-hotspot ops at scheduled open-loop
/// arrivals, at most `window` unacknowledged. Returns (latencies ns
/// from scheduled arrival, oks, errors).
fn drive(
    addr: SocketAddr,
    conn: u64,
    arrivals: Vec<u64>,
    window: usize,
    start: Instant,
) -> (Vec<u64>, u64, u64) {
    let mut c = Client::connect(addr).expect("bench client connect");
    let mut gen = ShiftingHotspot::new(hotspot_spec(
        arrivals.len() as u64,
        1,
        0xE23_0001 + conn,
    ));
    let mut pending: HashMap<u64, u64> = HashMap::new();
    let mut lats = Vec::with_capacity(arrivals.len());
    let (mut oks, mut errs) = (0u64, 0u64);
    let mut recv_one = |c: &mut Client, pending: &mut HashMap<u64, u64>| {
        let (rid, resp) = c.recv().expect("bench recv");
        let done = start.elapsed().as_nanos() as u64;
        if let Some(at) = pending.remove(&rid) {
            lats.push(done.saturating_sub(at));
        }
        match resp {
            Response::Ok | Response::Entries(_) => oks += 1,
            _ => errs += 1,
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
        let req = match gen.next_op() {
            Operation::Put { key, value } => Request::Put { key, value },
            Operation::Scan { start: lo, limit } => {
                let id = decode_key(&lo).unwrap_or(0);
                Request::Scan {
                    start: lo,
                    end: encode_key(id + SCAN_SPAN),
                    limit: limit as u32,
                }
            }
            // the put/scan mix generates no gets, deletes, or rmws
            Operation::Get { key } | Operation::Delete { key } => Request::Get { key },
            Operation::ReadModifyWrite { key, .. } => Request::Get { key },
        };
        let rid = c.send(&req).expect("bench send");
        pending.insert(rid, at);
        while pending.len() >= window {
            recv_one(&mut c, &mut pending);
        }
    }
    while !pending.is_empty() {
        recv_one(&mut c, &mut pending);
    }
    (lats, oks, errs)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p) as usize]
}

struct RunResult {
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    oks: u64,
    errs: u64,
    shards_final: usize,
    map_version: u64,
}

fn run_topology(topo: Topo, conns: usize, window: usize, total_ops: u64, rate: f64) -> RunResult {
    let server_cfg = ServerConfig {
        pipeline_depth: window.max(1),
        // compare completed work, not refused work
        shed_l0_runs: Some(usize::MAX),
        ..ServerConfig::default()
    };
    let elastic = (topo != Topo::Hash4).then(|| ElasticOptions {
        map: ShardMap::uniform(START_SHARDS),
        meta_dev: Arc::new(MemDevice::new(
            shard_config().block_size,
            DeviceProfile::free(),
        )),
        factory: Box::new(|_shard_id| shard_device()),
        policy: (topo == Topo::Elastic).then_some(RebalancePolicy {
            interval_ms: 50,
            split_puts_per_interval: 600,
            merge_puts_per_interval: 20,
            max_shards: 8,
            min_shards: START_SHARDS,
        }),
    });
    let topology = Topology {
        shards: open_shards(START_SHARDS),
        elastic,
        role: ReplicationRole::None,
    };
    let server = Server::serve(topology, server_cfg).expect("start topology");
    let addr = server.addr();
    let per_conn = (total_ops / conns as u64).max(1);
    let start = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|t| {
            let arrivals =
                OpenLoopSchedule::new(rate / conns as f64, Arrivals::Poisson, 0xE23 + t as u64)
                    .take(per_conn as usize);
            std::thread::spawn(move || drive(addr, t as u64, arrivals, window, start))
        })
        .collect();
    let mut lats = Vec::new();
    let (mut oks, mut errs) = (0u64, 0u64);
    for d in drivers {
        let (l, o, e) = d.join().expect("driver thread");
        lats.extend(l);
        oks += o;
        errs += e;
    }
    let wall = start.elapsed().as_secs_f64();
    lats.sort_unstable();

    let (shards_final, map_version) = server
        .shard_map()
        .map(|m| (m.len(), m.version))
        .unwrap_or((START_SHARDS, 0));
    drop(server.shutdown().expect("graceful shutdown"));

    RunResult {
        throughput: oks as f64 / wall,
        p50_ms: percentile(&lats, 0.50) as f64 / 1e6,
        p99_ms: percentile(&lats, 0.99) as f64 / 1e6,
        oks,
        errs,
        shards_final,
        map_version,
    }
}

fn main() {
    let n = bench_n();
    let conns = 4;
    let window = 16;
    let rate = 40_000.0;

    println!(
        "E23: elastic range sharding — {n} shifting-hotspot ops per topology, \
         {conns} connections, offered {:.0} kops/s\n",
        rate / 1000.0
    );
    let t = TablePrinter::new(&[
        "topology",
        "kops/s",
        "p50 ms",
        "p99 ms",
        "acked",
        "errors",
        "shards",
        "map ver",
    ]);
    let mut results = Vec::new();
    for topo in [Topo::Hash4, Topo::Range4, Topo::Elastic] {
        let r = run_topology(topo, conns, window, n, rate);
        t.print(&[
            topo.tag().to_string(),
            format!("{:.1}", r.throughput / 1000.0),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p99_ms),
            r.oks.to_string(),
            r.errs.to_string(),
            r.shards_final.to_string(),
            r.map_version.to_string(),
        ]);
        results.push((topo, r));
    }
    if let (Some((_, hash)), Some((_, elastic))) = (
        results.iter().find(|(t, _)| *t == Topo::Hash4),
        results.iter().find(|(t, _)| *t == Topo::Elastic),
    ) {
        println!(
            "\n  hash4 → elastic p99: {:.2} ms → {:.2} ms ({:.2}x)",
            hash.p99_ms,
            elastic.p99_ms,
            hash.p99_ms / elastic.p99_ms.max(1e-9)
        );
    }

    println!("\nexpected shape: hash4 pays every scan four shards of read I/O");
    println!("(a scan must visit all shards and k-way merge); range topologies");
    println!("route each scan to the 1-2 shards owning the window. range4 gives");
    println!("that back on writes — the hot window lands on one shard and ~90%");
    println!("of the puts queue behind its single WAL. elastic keeps the scan");
    println!("routing and splits whichever shard the window occupies (watch the");
    println!("map-ver column advance), so it should post the best p99 at full");
    println!("scale. Smoke-scale runs are too short for scan cost to");
    println!("accumulate, so their ordering is noise.");
}
