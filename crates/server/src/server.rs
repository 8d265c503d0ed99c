//! The TCP server: accept loop, per-connection reader/writer threads,
//! bounded pipelining, admission control, elastic topology, and graceful
//! drain.
//!
//! ## Thread model
//!
//! One accept thread polls a non-blocking listener. Each accepted
//! connection gets a **reader** thread (decodes frames, executes reads,
//! routes writes to the owning shard's group committer) and a **writer**
//! thread (serializes response frames from an mpsc channel onto the
//! socket). Write completions are callbacks fired by the committer, so a
//! connection can keep `pipeline_depth` writes in flight while the
//! reader keeps decoding — that queue depth is precisely what the
//! group-commit batcher converts into batch size. An elastic server adds
//! one **rebalancer** thread that watches per-shard write rates and
//! triggers splits and merges (see [`RebalancePolicy`]).
//!
//! ## Ordering contract
//!
//! Responses carry the request id and may arrive out of order across
//! *different* operation kinds (a pipelined write's ack can overtake
//! nothing, but a later read's reply can overtake an earlier write's
//! ack is *not* possible either: reads wait). Concretely, each
//! connection gets **read-your-writes**: a GET/SCAN blocks until every
//! write this connection has submitted is acked, so a client that
//! pipelines `PUT k` then issues `GET k` observes its own write.
//!
//! ## Routing topology
//!
//! The shard set, the per-shard committers, and the shed lines live in
//! one [`Topology`] behind an `RwLock`. Every request touches it through
//! a read lock held for just the routing decision and the engine call;
//! a migration cut-over takes the write lock, which is what makes a
//! shard-map flip atomic with respect to every connection: no request
//! can route between the metadata write and the in-memory swap, and a
//! scan never sees two map versions. Read-your-writes survives the flip
//! because a write submitted under the old map is drained into the
//! recipient (via the migration tap and a committer barrier) *before*
//! the write lock is released.
//!
//! ## Admission control
//!
//! Before queueing a write, the reader checks the target shard's
//! [`l0_run_count`](lsm_core::DbCore::l0_run_count) — the same lock-free
//! gauge the engine's own backpressure bands read. At or past the shed
//! line (default: the shard's `l0_stall_runs`) the server answers
//! [`Response::Busy`] instead of queueing, so a wedged shard surfaces as
//! fast typed pushback at the edge rather than a writer thread blocked
//! deep inside the engine. Below the shed line, the engine's own
//! slowdown band still applies inside `write_batch` — the server sheds
//! where the engine would stall, and delays where it would slow down.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use lsm_core::Db;
use lsm_obs::EventKind;
use lsm_storage::{FileId, StorageDevice, StorageResult};

use crate::batcher::{GroupCommitter, TxnCommitReq, TxnOutcome, WriteOutcome, WriteReq};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    begin_entries_response, encode_response_into, encode_value_response_into, peek_request_id,
    FrameReader, RequestRef, Response, WriteOp, MAX_FRAME_BYTES,
};
use crate::replication::{ReplicaState, ReplicationRole, Replicator};
use crate::router::ShardSet;
use crate::shardmap::{find_cluster_meta, write_cluster_meta, ShardMap};

/// Pool of response-frame buffers shared by a connection's reader, its
/// write-completion callbacks, and its writer thread. A buffer makes one
/// round trip — taken, filled with a frame, sent to the writer, written,
/// returned — so a connection in steady state encodes every response into
/// recycled memory instead of allocating a `Vec` per reply.
struct BufPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

/// Buffers retained per connection; more in flight than this (deep write
/// pipelines) fall back to fresh allocations that the pool then absorbs.
const POOL_MAX_BUFS: usize = 64;
/// A buffer that grew past this (a huge scan) is dropped rather than
/// pooled, so one outlier response can't pin megabytes per connection.
const POOL_MAX_BUF_BYTES: usize = 64 * 1024;

impl BufPool {
    fn new() -> Arc<Self> {
        Arc::new(BufPool {
            bufs: Mutex::new(Vec::new()),
        })
    }

    fn take(&self) -> Vec<u8> {
        self.bufs.lock().unwrap().pop().unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_BUF_BYTES {
            return;
        }
        buf.clear();
        let mut g = self.bufs.lock().unwrap();
        if g.len() < POOL_MAX_BUFS {
            g.push(buf);
        }
    }
}

/// Serving-layer knobs (the engine's own knobs stay in `LsmConfig`).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum writes a connection may have in flight before its reader
    /// blocks; this queue depth is what group commit batches.
    pub pipeline_depth: usize,
    /// Shed writes (reply `Busy`) when the target shard's L0 run count
    /// reaches this; `None` derives each shard's line from its
    /// `l0_stall_runs`.
    pub shed_l0_runs: Option<usize>,
    /// Per-frame payload cap.
    pub max_frame_bytes: usize,
    /// Replication role: standalone, shipping primary, or read-only
    /// replica.
    pub role: ReplicationRole,
    /// Abort a connection's open transaction after this long without any
    /// txn request on it, releasing its snapshot pin (so a stalled client
    /// cannot block memtable releases or value-log GC forever). The
    /// client's next txn op answers `NO_TXN`.
    pub txn_idle_timeout: Duration,
    /// `Some` runs a self-tuner per shard. Tuners are *pulled*: each
    /// `TUNE_STATUS` request ticks every shard's tuner once, so tuning
    /// cadence is the caller's choice and stays deterministic (no timer
    /// thread).
    pub tuner: Option<lsm_tuner::TunerConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pipeline_depth: 32,
            shed_l0_runs: None,
            max_frame_bytes: MAX_FRAME_BYTES,
            role: ReplicationRole::None,
            txn_idle_timeout: Duration::from_secs(10),
            tuner: None,
        }
    }
}

/// When to split a hot shard and when to merge cold neighbours, judged
/// every `interval_ms` from the per-shard engine stats the obs layer
/// already maintains.
#[derive(Clone, Debug)]
pub struct RebalancePolicy {
    /// Sampling period for per-shard write-rate deltas.
    pub interval_ms: u64,
    /// Split the hottest shard when its puts-per-interval reach this.
    pub split_puts_per_interval: u64,
    /// Merge two adjacent shards when *both* stay at or under this.
    pub merge_puts_per_interval: u64,
    /// Never split past this many shards.
    pub max_shards: usize,
    /// Never merge below this many shards.
    pub min_shards: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            interval_ms: 50,
            split_puts_per_interval: 2_000,
            merge_puts_per_interval: 20,
            max_shards: 8,
            min_shards: 1,
        }
    }
}

/// Maps a stable shard id to the storage device its engine lives on.
/// Called for every shard a split creates; the caller keeps the device
/// registry so a crash test can reopen the same devices.
pub type ShardDeviceFactory = Box<dyn Fn(u64) -> Arc<dyn StorageDevice> + Send + Sync>;

/// Wiring for an elastic (range-routed, split/merge-capable) server.
pub struct ElasticOptions {
    /// Device holding the cluster-metadata (shard map) file.
    pub meta_dev: Arc<dyn StorageDevice>,
    /// Supplies a device for each freshly-named shard.
    pub factory: ShardDeviceFactory,
    /// Automatic rebalancing; `None` = splits/merges only on explicit
    /// [`Server::split_shard`] / [`Server::merge_shards`] calls.
    pub policy: Option<RebalancePolicy>,
}

/// The routable state every request goes through: the shard engines,
/// their committers, and their shed lines, index-aligned. Swapped as a
/// unit (under the write lock) at a migration cut-over.
pub(crate) struct Topology {
    pub(crate) shards: ShardSet,
    pub(crate) committers: Vec<Arc<GroupCommitter>>,
    /// Per-shard shed line.
    pub(crate) shed_l0: Vec<usize>,
}

/// Elastic-mode state hanging off the server.
pub(crate) struct ElasticCtx {
    pub(crate) meta_dev: Arc<dyn StorageDevice>,
    /// Current cluster-metadata file (superseded on every flip).
    pub(crate) meta_file: Mutex<Option<FileId>>,
    pub(crate) factory: ShardDeviceFactory,
    /// Serializes migrations: one split or merge at a time.
    pub(crate) mig_lock: Mutex<()>,
}

pub(crate) struct ServerInner {
    pub(crate) topo: RwLock<Topology>,
    pub(crate) cfg: ServerConfig,
    pub(crate) draining: AtomicBool,
    next_conn: AtomicU64,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Primary role: the replication log + shipper pool.
    replicator: Option<Arc<Replicator>>,
    /// Replica role: the serialized apply path.
    replica: Option<ReplicaState>,
    /// `Some` when the server is elastic.
    pub(crate) elastic: Option<ElasticCtx>,
    /// Every connection's transaction slot, keyed by connection id, so
    /// the idle-txn sweeper can reap stalled transactions while their
    /// reader threads are parked on the socket.
    txns: Mutex<HashMap<u64, Arc<Mutex<TxnSlot>>>>,
    /// Per-shard self-tuners (`cfg.tuner` is `Some`), ticked by
    /// `TUNE_STATUS` requests. Index-aligned with the shard set; rebuilt
    /// (tuning history reset) when a split/merge changes the topology.
    tuners: Mutex<Vec<lsm_tuner::Tuner>>,
}

/// A connection's open transaction: its shard-map version at begin plus
/// one lazily-created engine sub-transaction per shard its keys routed
/// to. Dropping it releases every snapshot pin and validation floor.
struct ConnTxn {
    /// Shard-map version when the txn began (0 = hash-routed); any flip
    /// since then aborts the txn with a conflict.
    map_version: u64,
    /// Sub-transaction per routed shard index.
    parts: HashMap<usize, lsm_core::Txn>,
}

/// The per-connection transaction slot, shared between the reader thread
/// and the sweeper.
enum TxnSlot {
    /// No transaction open.
    Idle,
    /// An open transaction and the last time a txn request touched it.
    Active {
        txn: ConnTxn,
        last_active: Instant,
    },
    /// Reaped by the sweeper: the next txn op answers `NoTxn` and resets
    /// the slot to `Idle`.
    TimedOut,
}

/// A running server. [`Server::shutdown`] drains gracefully;
/// [`Server::abort`] stops without flushing (a crash stand-in for
/// recovery tests). Both return the shard engines.
pub struct Server {
    /// `None` once serving has stopped (shutdown, abort, or drop).
    inner: Option<Arc<ServerInner>>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    rebalancer: Option<std::thread::JoinHandle<()>>,
    sweeper: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

impl Server {
    /// Binds `127.0.0.1:0` and starts serving `shards` under FNV hash
    /// routing (static topology).
    pub fn start(shards: Vec<Db>, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::launch(shards, None, cfg, None, None)
    }

    /// Binds `127.0.0.1:0` and starts serving `shards` under range
    /// routing: `shards[i]` owns `map` entry `i`. The map is persisted
    /// to the cluster-metadata device (superseding any older version
    /// found there), and splits/merges become available — automatic when
    /// `elastic.policy` is set, and always via [`Server::split_shard`] /
    /// [`Server::merge_shards`]. Elastic topology does not compose with
    /// replication roles yet: any role but `None` is `InvalidInput`.
    pub fn start_elastic(
        shards: Vec<Db>,
        map: ShardMap,
        elastic: ElasticOptions,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        if !matches!(cfg.role, ReplicationRole::None) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "elastic topology does not compose with replication roles",
            ));
        }
        // make the starting map the durable newest: adopt the file when
        // it already encodes exactly this map, supersede it otherwise
        let meta_file = match find_cluster_meta(&elastic.meta_dev).map_err(io_err)? {
            Some((fid, m)) if m == map => Some(fid),
            other => Some(
                write_cluster_meta(&elastic.meta_dev, &map, other.map(|(fid, _)| fid))
                    .map_err(io_err)?,
            ),
        };
        let policy = elastic.policy.clone();
        let ctx = ElasticCtx {
            meta_dev: elastic.meta_dev,
            meta_file: Mutex::new(meta_file),
            factory: elastic.factory,
            mig_lock: Mutex::new(()),
        };
        Server::launch(shards, Some(map), cfg, Some(ctx), policy)
    }

    fn launch(
        shards: Vec<Db>,
        map: Option<ShardMap>,
        cfg: ServerConfig,
        elastic: Option<ElasticCtx>,
        policy: Option<RebalancePolicy>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::new();
        let shed_l0: Vec<usize> = shards
            .iter()
            .map(|db| cfg.shed_l0_runs.unwrap_or(db.config().l0_stall_runs))
            .collect();
        // a primary's replication log starts at the highest sequence the
        // shards already applied — 0 for a fresh node, the adopted
        // watermark for a promoted replica (all shards advance in
        // lockstep, so the max is the freshest recovered lower bound)
        let replicator = match &cfg.role {
            ReplicationRole::Primary(prim) => {
                let base = shards.iter().map(|db| db.applied_seq()).max().unwrap_or(0);
                Some(Replicator::start(base, prim.clone(), Arc::clone(&metrics)))
            }
            _ => None,
        };
        let committers: Vec<Arc<GroupCommitter>> = shards
            .iter()
            .map(|db| {
                Arc::new(GroupCommitter::start(
                    db.clone(),
                    Arc::clone(&metrics),
                    replicator.clone(),
                ))
            })
            .collect();
        let shards = match map {
            Some(map) => ShardSet::with_map(shards, map),
            None => ShardSet::new(shards),
        };
        let replica = match &cfg.role {
            ReplicationRole::Replica => Some(ReplicaState::new(&shards)),
            _ => None,
        };
        let tuners = Mutex::new(build_tuners(&cfg.tuner, shards.dbs()));
        let inner = Arc::new(ServerInner {
            topo: RwLock::new(Topology {
                shards,
                committers,
                shed_l0,
            }),
            cfg,
            draining: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            metrics,
            replicator,
            replica,
            elastic,
            txns: Mutex::new(HashMap::new()),
            tuners,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let accept = {
            let inner = Arc::clone(&inner);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("lsm-server-accept".into())
                .spawn(move || accept_loop(listener, inner, conns))
                .expect("spawn accept thread")
        };
        let rebalancer = policy.map(|policy| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("lsm-server-rebalance".into())
                .spawn(move || rebalance_loop(inner, policy))
                .expect("spawn rebalancer thread")
        });
        let sweeper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("lsm-server-txn-sweeper".into())
                .spawn(move || txn_sweeper_loop(inner))
                .expect("spawn txn sweeper thread")
        };
        Ok(Server {
            inner: Some(inner),
            addr,
            accept: Some(accept),
            rebalancer,
            sweeper: Some(sweeper),
            conns,
        })
    }

    /// The bound address (`127.0.0.1:<ephemeral port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the server metrics; survives shutdown, so a
    /// harness can snapshot after the server is gone.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.inner.as_ref().expect("server running").metrics)
    }

    /// The live shard map (`None` when hash-routed or stopped).
    pub fn shard_map(&self) -> Option<ShardMap> {
        self.inner.as_ref()?.topo.read().unwrap().shards.map().cloned()
    }

    /// Splits shard `idx` at `boundary` — or, when `None`, at the
    /// donor's suggested fence-pointer median — migrating the right half
    /// to a freshly-named shard while serving continues. Returns the new
    /// shard's stable id. Elastic servers only.
    pub fn split_shard(&self, idx: usize, boundary: Option<Vec<u8>>) -> Result<u64, String> {
        let inner = self.inner.as_ref().ok_or("server stopped")?;
        crate::migrate::split_shard(inner, idx, boundary)
    }

    /// Merges shard `idx + 1` into shard `idx`, migrating its range and
    /// retiring it. Returns the absorbed shard's stable id. Elastic
    /// servers only.
    pub fn merge_shards(&self, idx: usize) -> Result<u64, String> {
        let inner = self.inner.as_ref().ok_or("server stopped")?;
        crate::migrate::merge_shards(inner, idx)
    }

    /// Stops accepting, lets in-flight requests finish, commits every
    /// queued write, waits for replicas to ack every published batch
    /// (bounded), flushes all shards to quiescence, and returns the
    /// shard engines.
    pub fn shutdown(mut self) -> StorageResult<Vec<Db>> {
        let (topo, metrics) = self.stop_serving(true).expect("server already stopped");
        metrics.event(EventKind::ServerDrain {
            phase: "flush",
            connections: 0,
        });
        topo.shards.flush_all()?;
        metrics.event(EventKind::ServerDrain {
            phase: "done",
            connections: 0,
        });
        Ok(topo.shards.into_dbs())
    }

    /// Stops serving *without* flushing the shards or waiting on replica
    /// acks — the in-process stand-in for killing the server: whatever
    /// the WAL sync policy made durable is all a reopen gets.
    pub fn abort(mut self) -> Vec<Db> {
        self.stop_serving(false)
            .expect("server already stopped")
            .0
            .shards
            .into_dbs()
    }

    /// Common teardown: refuse new connections, join every connection
    /// (readers finish their in-flight work against still-live
    /// committers), join the rebalancer (any migration it is mid-way
    /// through completes first), commit the committers' remaining
    /// queues, then stop the shipper pool. Idempotent; `None` after the
    /// first call.
    ///
    /// With `drain_replicas`, the shippers first get a bounded window to
    /// collect replica acks for every published batch. The committers
    /// are already down at that point, so the published set is final —
    /// without this barrier, a batch could be committed + client-acked
    /// (quorum 0, or a lag timeout) yet still be unshipped when the
    /// shippers die, and a post-shutdown failover would lose it.
    fn stop_serving(&mut self, drain_replicas: bool) -> Option<(Topology, Arc<ServerMetrics>)> {
        let inner = self.inner.take()?;
        inner.metrics.event(EventKind::ServerDrain {
            phase: "begin",
            connections: inner.metrics.connections.get().max(0) as u64,
        });
        inner.draining.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        loop {
            let handles: Vec<_> = self.conns.lock().unwrap().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        if let Some(h) = self.rebalancer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        let inner = match Arc::try_unwrap(inner) {
            Ok(inner) => inner,
            Err(_) => unreachable!("all server threads joined but inner still shared"),
        };
        let topo = inner.topo.into_inner().unwrap();
        for c in &topo.committers {
            c.shutdown();
        }
        if let Some(rep) = &inner.replicator {
            if drain_replicas {
                let phase = if rep.drain() { "repl_acked" } else { "repl_timeout" };
                inner.metrics.event(EventKind::ServerDrain {
                    phase,
                    connections: 0,
                });
            }
            rep.stop();
        }
        Some((topo, inner.metrics))
    }
}

impl Drop for Server {
    /// A dropped server still tears down cleanly (no flush, no replica
    /// drain — those are what [`Server::shutdown`] adds).
    fn drop(&mut self) {
        let _ = self.stop_serving(false);
    }
}

/// Watches per-shard write-rate deltas and splits the hottest shard or
/// merges the coldest adjacent pair under [`RebalancePolicy`]. Runs
/// until drain; a failed attempt (no interior split candidate yet, a
/// concurrent explicit migration) just waits for the next tick.
fn rebalance_loop(inner: Arc<ServerInner>, policy: RebalancePolicy) {
    // previous puts reading per stable shard id (ids survive re-indexing)
    let mut last: HashMap<u64, u64> = HashMap::new();
    while !inner.draining.load(Ordering::Acquire) {
        let mut slept = 0u64;
        while slept < policy.interval_ms && !inner.draining.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(policy.interval_ms.clamp(1, 5)));
            slept += policy.interval_ms.clamp(1, 5);
        }
        if inner.draining.load(Ordering::Acquire) {
            break;
        }
        // sample (index, stable id, total puts) under a short read lock
        let sample: Vec<(usize, u64, u64)> = {
            let topo = inner.topo.read().unwrap();
            let Some(map) = topo.shards.map() else { return };
            map.entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.shard_id, topo.shards.db(i).stats().snapshot().puts))
                .collect()
        };
        // a shard seen for the first time contributes delta 0 this tick
        let deltas: Vec<(usize, u64)> = sample
            .iter()
            .map(|&(i, id, puts)| (i, puts.saturating_sub(*last.get(&id).unwrap_or(&puts))))
            .collect();
        last = sample.iter().map(|&(_, id, puts)| (id, puts)).collect();
        let n = deltas.len();
        if n < policy.max_shards {
            if let Some(&(idx, d)) = deltas.iter().max_by_key(|&&(_, d)| d) {
                if d >= policy.split_puts_per_interval
                    && crate::migrate::split_shard(&inner, idx, None).is_ok()
                {
                    continue;
                }
            }
        }
        if n > policy.min_shards {
            // coldest adjacent pair where both sides are idle enough
            let best = deltas
                .windows(2)
                .filter(|w| {
                    w[0].1 <= policy.merge_puts_per_interval
                        && w[1].1 <= policy.merge_puts_per_interval
                })
                .min_by_key(|w| w[0].1 + w[1].1)
                .map(|w| w[0].0);
            if let Some(idx) = best {
                let _ = crate::migrate::merge_shards(&inner, idx);
            }
        }
    }
}

/// Reaps transactions idle past `txn_idle_timeout`: the slot flips to
/// `TimedOut` (dropping the `ConnTxn` releases its snapshot pins and
/// validation floors immediately), `server.txn_timeouts` counts it, and
/// the connection's next txn op answers `NoTxn`. Runs until drain.
fn txn_sweeper_loop(inner: Arc<ServerInner>) {
    let timeout = inner.cfg.txn_idle_timeout;
    while !inner.draining.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
        let slots: Vec<Arc<Mutex<TxnSlot>>> =
            inner.txns.lock().unwrap().values().cloned().collect();
        for slot in slots {
            let mut g = slot.lock().unwrap();
            if let TxnSlot::Active { last_active, .. } = &*g {
                if last_active.elapsed() >= timeout {
                    *g = TxnSlot::TimedOut;
                    inner.metrics.txn_timeouts.inc();
                }
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<ServerInner>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !inner.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
                inner.metrics.accepts.inc();
                inner.metrics.connections.add(1);
                inner.metrics.event(EventKind::ServerAccept { conn: conn_id });
                let inner2 = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name(format!("lsm-server-conn-{conn_id}"))
                    .spawn(move || {
                        serve_conn(inner2, stream, conn_id);
                    })
                    .expect("spawn connection reader");
                conns.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection state shared between the reader and write callbacks.
struct ConnState {
    /// Writes submitted to a committer but not yet acked.
    pending: Mutex<usize>,
    cv: Condvar,
}

impl ConnState {
    fn wait_until(&self, limit: usize) {
        let mut g = self.pending.lock().unwrap();
        while *g > limit {
            let (g2, _) = self.cv.wait_timeout(g, Duration::from_millis(50)).unwrap();
            g = g2;
        }
    }

    fn incr(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn decr(&self) {
        let mut g = self.pending.lock().unwrap();
        *g = g.saturating_sub(1);
        drop(g);
        self.cv.notify_all();
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<Vec<u8>>, pool: Arc<BufPool>) {
    let mut w = BufWriter::new(stream);
    while let Ok(frame) = rx.recv() {
        let ok = w.write_all(&frame).is_ok();
        pool.put(frame);
        if !ok {
            break;
        }
        // coalesce whatever else is queued before paying the flush
        let mut dead = false;
        while let Ok(next) = rx.try_recv() {
            let ok = w.write_all(&next).is_ok();
            pool.put(next);
            if !ok {
                dead = true;
                break;
            }
        }
        if dead || w.flush().is_err() {
            break;
        }
    }
    // wake the reader out of its timeout loop if we died first
    let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
}

fn serve_conn(inner: Arc<ServerInner>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let (resp_tx, resp_rx) = channel::<Vec<u8>>();
    let pool = BufPool::new();
    let writer = {
        let ws = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                inner.metrics.connections.add(-1);
                return;
            }
        };
        let pool = Arc::clone(&pool);
        std::thread::Builder::new()
            .name("lsm-server-conn-writer".into())
            .spawn(move || writer_loop(ws, resp_rx, pool))
            .expect("spawn connection writer")
    };
    let state = Arc::new(ConnState {
        pending: Mutex::new(0),
        cv: Condvar::new(),
    });
    // the txn slot is registered so the sweeper can reap it while this
    // thread is parked on the socket
    let txn_slot = Arc::new(Mutex::new(TxnSlot::Idle));
    inner
        .txns
        .lock()
        .unwrap()
        .insert(conn_id, Arc::clone(&txn_slot));
    let mut reader = FrameReader::new(stream, inner.cfg.max_frame_bytes);
    loop {
        let keep_waiting = || !inner.draining.load(Ordering::Acquire);
        match reader.next_frame_ref(keep_waiting) {
            Ok(Some(payload)) => {
                if !handle_frame(&inner, &state, &resp_tx, &pool, &txn_slot, payload) {
                    break;
                }
            }
            Ok(None) => break, // clean EOF or drain at a frame boundary
            Err(e) => {
                // framing is unrecoverable: best-effort typed error, close
                inner.metrics.malformed.inc();
                let mut buf = pool.take();
                encode_response_into(&mut buf, 0, &Response::Error(e.to_string()));
                let _ = resp_tx.send(buf);
                break;
            }
        }
    }
    // a dead connection abandons its transaction: dropping the slot's
    // ConnTxn releases every snapshot pin and floor
    inner.txns.lock().unwrap().remove(&conn_id);
    *txn_slot.lock().unwrap() = TxnSlot::Idle;
    // finish in-flight writes so their acks reach the wire before close
    state.wait_until(0);
    drop(resp_tx); // writer drains and exits once callbacks release theirs
    let _ = writer.join();
    inner.metrics.connections.add(-1);
}

/// One tuner per shard engine, each with a distinct (but deterministic)
/// seed so exact-cost ties don't march every shard to the same design.
fn build_tuners(cfg: &Option<lsm_tuner::TunerConfig>, dbs: &[Db]) -> Vec<lsm_tuner::Tuner> {
    match cfg {
        None => Vec::new(),
        Some(tc) => dbs
            .iter()
            .enumerate()
            .map(|(i, db)| {
                let mut tc = tc.clone();
                tc.seed = tc.seed.wrapping_add(i as u64);
                lsm_tuner::Tuner::new(db.clone(), tc)
            })
            .collect(),
    }
}

/// Encodes `resp` into a pooled buffer and queues it for the writer.
fn send_pooled(resp_tx: &Sender<Vec<u8>>, pool: &BufPool, id: u64, resp: &Response) -> bool {
    let mut buf = pool.take();
    encode_response_into(&mut buf, id, resp);
    resp_tx.send(buf).is_ok()
}

/// Handles one well-framed payload. Returns `false` to close the
/// connection.
fn handle_frame(
    inner: &Arc<ServerInner>,
    state: &Arc<ConnState>,
    resp_tx: &Sender<Vec<u8>>,
    pool: &Arc<BufPool>,
    txn_slot: &Arc<Mutex<TxnSlot>>,
    payload: &[u8],
) -> bool {
    inner.metrics.requests.inc();
    let (id, req) = match crate::protocol::decode_request_ref(payload) {
        Ok(ok) => ok,
        Err(e) => {
            // the frame boundary is intact, so the connection survives a
            // payload the decoder rejects — reply typed, keep reading
            inner.metrics.malformed.inc();
            let id = peek_request_id(payload).unwrap_or(0);
            return send_pooled(resp_tx, pool, id, &Response::Error(e.to_string()));
        }
    };
    if inner.draining.load(Ordering::Acquire) {
        return send_pooled(resp_tx, pool, id, &Response::ShuttingDown);
    }
    match req {
        RequestRef::Get { key } => {
            state.wait_until(0); // read-your-writes
            let t0 = inner.metrics.now_ns();
            // the value bytes go straight from the engine's borrowed view
            // (cached block / memtable arena) into the wire buffer; the
            // routing read lock pins one map version for the lookup
            let mut buf = pool.take();
            let topo = inner.topo.read().unwrap();
            match topo
                .shards
                .get_with(key, |v| encode_value_response_into(&mut buf, id, v))
            {
                Ok(Some(())) => {}
                Ok(None) => encode_response_into(&mut buf, id, &Response::NotFound),
                Err(e) => {
                    buf.clear();
                    encode_response_into(&mut buf, id, &Response::Error(e.to_string()));
                }
            }
            drop(topo);
            inner.metrics.get_ns.record(inner.metrics.now_ns().saturating_sub(t0));
            resp_tx.send(buf).is_ok()
        }
        RequestRef::Scan { start, end, limit } => {
            state.wait_until(0);
            let t0 = inner.metrics.now_ns();
            // stream entries off the merge cursor into the wire buffer;
            // the count is patched in when the scan completes. One read
            // lock for the whole scan = one map version for the whole
            // scan, so a concurrent flip cannot tear it
            let max = inner.cfg.max_frame_bytes;
            let mut buf = pool.take();
            let mut enc = begin_entries_response(&mut buf, id, max);
            let topo = inner.topo.read().unwrap();
            let err = match topo
                .shards
                .scan_with(start, end, limit as usize, |k, v| enc.push(k, v))
            {
                Ok(_) if enc.finish() => None,
                // the client would drop the connection over a frame past
                // its cap; a typed error costs only this reply
                Ok(_) => Some(format!(
                    "scan reply exceeds the {max}-byte frame cap; lower the limit or narrow the range"
                )),
                Err(e) => Some(e.to_string()),
            };
            if let Some(msg) = err {
                buf.clear();
                encode_response_into(&mut buf, id, &Response::Error(msg));
            }
            drop(topo);
            inner.metrics.scan_ns.record(inner.metrics.now_ns().saturating_sub(t0));
            resp_tx.send(buf).is_ok()
        }
        RequestRef::Stats => {
            let json = inner
                .metrics
                .snapshot()
                .to_json_line_tagged(&[("scope", "server")]);
            send_pooled(resp_tx, pool, id, &Response::Stats(json))
        }
        RequestRef::ShardMap => {
            // hash-routed servers report version 0 with no entries
            let topo = inner.topo.read().unwrap();
            let resp = match topo.shards.map() {
                Some(m) => Response::ShardMap {
                    version: m.version,
                    entries: m
                        .entries
                        .iter()
                        .map(|e| (e.shard_id, e.start.clone()))
                        .collect(),
                },
                None => Response::ShardMap {
                    version: 0,
                    entries: Vec::new(),
                },
            };
            drop(topo);
            send_pooled(resp_tx, pool, id, &resp)
        }
        RequestRef::TuneStatus => {
            // pull-model tuning: the request itself is the tick, so the
            // decision sequence is a deterministic function of the
            // request stream (no timer thread to race)
            let resp = if inner.cfg.tuner.is_none() {
                Response::TuneStatus(Vec::new())
            } else {
                let topo = inner.topo.read().unwrap();
                let mut tuners = inner.tuners.lock().unwrap();
                // a split/merge since the last tick leaves stale engine
                // handles behind; restart tuning on the new topology
                let stale = tuners.len() != topo.shards.dbs().len()
                    || tuners
                        .iter()
                        .zip(topo.shards.dbs())
                        .any(|(t, db)| !t.db().same_engine(db));
                if stale {
                    *tuners = build_tuners(&inner.cfg.tuner, topo.shards.dbs());
                }
                let entries = tuners
                    .iter_mut()
                    .enumerate()
                    .map(|(i, t)| {
                        t.tick();
                        (i as u64, t.status_json())
                    })
                    .collect();
                drop(topo);
                Response::TuneStatus(entries)
            };
            send_pooled(resp_tx, pool, id, &resp)
        }
        RequestRef::Put { key, value } => {
            if inner.replica.is_some() {
                // a replica takes writes only through the replication
                // stream; clients must write to the primary
                return send_pooled(
                    resp_tx,
                    pool,
                    id,
                    &Response::Error("replica is read-only".into()),
                );
            }
            // the single copy on the write path: key/value leave the read
            // buffer here to cross into the committer's queue
            let op = WriteOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            };
            submit_write(inner, state, resp_tx, pool, id, op)
        }
        RequestRef::Delete { key } => {
            if inner.replica.is_some() {
                return send_pooled(
                    resp_tx,
                    pool,
                    id,
                    &Response::Error("replica is read-only".into()),
                );
            }
            let op = WriteOp::Delete { key: key.to_vec() };
            submit_write(inner, state, resp_tx, pool, id, op)
        }
        RequestRef::ReplSubscribe { .. } => {
            // the reply tells the shipper where to start: our watermark
            match &inner.replica {
                Some(r) => send_pooled(
                    resp_tx,
                    pool,
                    id,
                    &Response::ReplAck { seq: r.applied() },
                ),
                None => send_pooled(
                    resp_tx,
                    pool,
                    id,
                    &Response::Error("not a replica".into()),
                ),
            }
        }
        RequestRef::ReplBatch { seq, ops } => match &inner.replica {
            Some(r) => {
                let t0 = inner.metrics.now_ns();
                let topo = inner.topo.read().unwrap();
                let resp = match r.apply_batch(&topo.shards, seq, ops) {
                    Ok(watermark) => Response::ReplAck { seq: watermark },
                    Err(e) => {
                        inner.metrics.malformed.inc();
                        Response::Error(e.to_string())
                    }
                };
                drop(topo);
                inner
                    .metrics
                    .put_ns
                    .record(inner.metrics.now_ns().saturating_sub(t0));
                send_pooled(resp_tx, pool, id, &resp)
            }
            None => send_pooled(
                resp_tx,
                pool,
                id,
                &Response::Error("not a replica".into()),
            ),
        },
        RequestRef::TxnBegin => {
            if inner.replica.is_some() {
                return send_pooled(
                    resp_tx,
                    pool,
                    id,
                    &Response::Error("replica is read-only".into()),
                );
            }
            // read-your-writes: the snapshot must cover every write this
            // connection has already been acked for
            state.wait_until(0);
            let mut g = txn_slot.lock().unwrap();
            if matches!(&*g, TxnSlot::Active { .. }) {
                drop(g);
                return send_pooled(
                    resp_tx,
                    pool,
                    id,
                    &Response::Error("transaction already active on this connection".into()),
                );
            }
            let map_version = {
                let topo = inner.topo.read().unwrap();
                topo.shards.map().map_or(0, |m| m.version)
            };
            *g = TxnSlot::Active {
                txn: ConnTxn {
                    map_version,
                    parts: HashMap::new(),
                },
                last_active: Instant::now(),
            };
            drop(g);
            inner.metrics.txn_begins.inc();
            send_pooled(resp_tx, pool, id, &Response::Ok)
        }
        RequestRef::TxnGet { key } => {
            let mut g = txn_slot.lock().unwrap();
            match &mut *g {
                TxnSlot::Active { txn: ct, last_active } => {
                    *last_active = Instant::now();
                    let topo = inner.topo.read().unwrap();
                    let resp = match txn_route(inner, ct, &topo, key) {
                        Ok(shard) => match txn_shard(ct, &topo, shard)
                            .and_then(|t| t.get(key))
                        {
                            Ok(Some(v)) => Response::Value(v),
                            Ok(None) => Response::NotFound,
                            Err(e) => Response::Error(e.to_string()),
                        },
                        Err(resp) => {
                            *g = TxnSlot::Idle; // map flip: abort the txn
                            resp
                        }
                    };
                    drop(g);
                    send_pooled(resp_tx, pool, id, &resp)
                }
                TxnSlot::TimedOut => {
                    *g = TxnSlot::Idle;
                    drop(g);
                    send_pooled(resp_tx, pool, id, &Response::NoTxn)
                }
                TxnSlot::Idle => {
                    drop(g);
                    send_pooled(resp_tx, pool, id, &Response::NoTxn)
                }
            }
        }
        RequestRef::TxnPut { key, value } => {
            txn_buffer(inner, txn_slot, resp_tx, pool, id, key, Some(value))
        }
        RequestRef::TxnDelete { key } => {
            txn_buffer(inner, txn_slot, resp_tx, pool, id, key, None)
        }
        RequestRef::TxnCommit => txn_commit(inner, state, resp_tx, pool, txn_slot, id),
        RequestRef::TxnAbort => {
            // idempotent: aborting with nothing open is still Ok
            let mut g = txn_slot.lock().unwrap();
            let was = std::mem::replace(&mut *g, TxnSlot::Idle);
            drop(g);
            drop(was); // releases the snapshot pins, if any
            send_pooled(resp_tx, pool, id, &Response::Ok)
        }
    }
}

/// Routes `key` for an open transaction: the shard index under the
/// current map, or the typed conflict reply when the shard map has
/// flipped since the transaction began (its routing assumptions — and
/// possibly its sub-transactions' engines — are stale).
fn txn_route(
    inner: &Arc<ServerInner>,
    ct: &ConnTxn,
    topo: &Topology,
    key: &[u8],
) -> Result<usize, Response> {
    let version = topo.shards.map().map_or(0, |m| m.version);
    if version != ct.map_version {
        inner.metrics.txn_conflicts.inc();
        return Err(Response::TxnConflict { key: key.to_vec() });
    }
    Ok(topo.shards.shard_index(key))
}

/// The transaction's sub-txn for `shard`, beginning one on first touch.
fn txn_shard<'a>(
    ct: &'a mut ConnTxn,
    topo: &Topology,
    shard: usize,
) -> lsm_storage::StorageResult<&'a mut lsm_core::Txn> {
    use std::collections::hash_map::Entry;
    match ct.parts.entry(shard) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(v) => Ok(v.insert(topo.shards.db(shard).begin_txn()?)),
    }
}

/// Buffers a transactional put (`Some`) or delete (`None`). The ack only
/// means "buffered in the transaction" — durability comes at commit.
fn txn_buffer(
    inner: &Arc<ServerInner>,
    txn_slot: &Arc<Mutex<TxnSlot>>,
    resp_tx: &Sender<Vec<u8>>,
    pool: &Arc<BufPool>,
    id: u64,
    key: &[u8],
    value: Option<&[u8]>,
) -> bool {
    let mut g = txn_slot.lock().unwrap();
    match &mut *g {
        TxnSlot::Active { txn: ct, last_active } => {
            *last_active = Instant::now();
            let topo = inner.topo.read().unwrap();
            let resp = match txn_route(inner, ct, &topo, key) {
                Ok(shard) => match txn_shard(ct, &topo, shard) {
                    Ok(t) => {
                        match value {
                            Some(v) => t.put(key.to_vec(), v.to_vec()),
                            None => t.delete(key.to_vec()),
                        }
                        Response::Ok
                    }
                    Err(e) => Response::Error(e.to_string()),
                },
                Err(resp) => {
                    *g = TxnSlot::Idle;
                    resp
                }
            };
            drop(g);
            send_pooled(resp_tx, pool, id, &resp)
        }
        TxnSlot::TimedOut => {
            *g = TxnSlot::Idle;
            drop(g);
            send_pooled(resp_tx, pool, id, &Response::NoTxn)
        }
        TxnSlot::Idle => {
            drop(g);
            send_pooled(resp_tx, pool, id, &Response::NoTxn)
        }
    }
}

/// Executes TXN_COMMIT: takes the transaction out of the slot, re-checks
/// the shard map and admission control, then hands the parts to a
/// committer thread — the owning shard's for a single-shard transaction
/// (the fast path: its commit serializes with that shard's batches, so
/// migration taps and replication stay in commit order), or the
/// lowest-involved shard's for a cross-shard one. Cross-shard commits
/// are refused on elastic or replicated servers, where out-of-band
/// engine applies would race the tap tee / publish ordering.
fn txn_commit(
    inner: &Arc<ServerInner>,
    state: &Arc<ConnState>,
    resp_tx: &Sender<Vec<u8>>,
    pool: &Arc<BufPool>,
    txn_slot: &Arc<Mutex<TxnSlot>>,
    id: u64,
) -> bool {
    state.wait_until(inner.cfg.pipeline_depth.saturating_sub(1));
    let t0 = inner.metrics.now_ns();
    let ct = {
        let mut g = txn_slot.lock().unwrap();
        match std::mem::replace(&mut *g, TxnSlot::Idle) {
            TxnSlot::Active { txn, .. } => txn,
            TxnSlot::TimedOut | TxnSlot::Idle => {
                drop(g);
                return send_pooled(resp_tx, pool, id, &Response::NoTxn);
            }
        }
    };
    if ct.parts.is_empty() {
        // a transaction that neither read nor wrote serializes anywhere;
        // stamp 0 marks "empty" (real stamps start at 1)
        inner.metrics.txn_commits.inc();
        inner
            .metrics
            .txn_commit_ns
            .record(inner.metrics.now_ns().saturating_sub(t0));
        return send_pooled(resp_tx, pool, id, &Response::TxnCommitted { stamp: 0 });
    }
    let topo = inner.topo.read().unwrap();
    // the map must not have flipped: shard indices captured by the
    // sub-txns would be stale
    let version = topo.shards.map().map_or(0, |m| m.version);
    if version != ct.map_version {
        drop(topo);
        drop(ct); // releases pins + floors
        inner.metrics.txn_conflicts.inc();
        return send_pooled(
            resp_tx,
            pool,
            id,
            &Response::TxnConflict { key: Vec::new() },
        );
    }
    let mut shards: Vec<usize> = ct.parts.keys().copied().collect();
    shards.sort_unstable();
    if shards.len() > 1 && (inner.replicator.is_some() || inner.elastic.is_some()) {
        drop(topo);
        drop(ct);
        return send_pooled(
            resp_tx,
            pool,
            id,
            &Response::Error(
                "cross-shard transactions are not supported on elastic or replicated servers"
                    .into(),
            ),
        );
    }
    // admission control, same shed line as plain writes, per shard
    for &s in &shards {
        let l0 = topo.shards.db(s).l0_run_count();
        if l0 >= topo.shed_l0[s] {
            drop(topo);
            // the transaction survives a shed: the client may retry the
            // commit after backing off
            *txn_slot.lock().unwrap() = TxnSlot::Active {
                txn: ct,
                last_active: Instant::now(),
            };
            inner.metrics.sheds.inc();
            inner.metrics.event(EventKind::ServerShed {
                shard: s as u32,
                l0_runs: l0 as u64,
            });
            return send_pooled(resp_tx, pool, id, &Response::Busy);
        }
    }
    let target = shards[0];
    let parts: Vec<lsm_core::TxnPart> = {
        let mut by_shard: Vec<(usize, lsm_core::Txn)> = ct.parts.into_iter().collect();
        by_shard.sort_unstable_by_key(|(s, _)| *s);
        by_shard.into_iter().map(|(_, t)| t.into_part()).collect()
    };
    state.incr();
    inner.metrics.inflight.add(1);
    let metrics = Arc::clone(&inner.metrics);
    let state2 = Arc::clone(state);
    let resp_tx2 = resp_tx.clone();
    let pool2 = Arc::clone(pool);
    let submitted = topo.committers[target].submit_txn(TxnCommitReq {
        parts,
        done: Box::new(move |outcome| {
            let resp = match outcome {
                TxnOutcome::Committed(stamp) => {
                    metrics.txn_commits.inc();
                    Response::TxnCommitted { stamp }
                }
                TxnOutcome::CommittedLag(_) => {
                    // durable + committed locally; the client learns the
                    // redundancy guarantee was not met in time
                    metrics.txn_commits.inc();
                    Response::ReplicaLag
                }
                TxnOutcome::Conflict(c) => {
                    metrics.txn_conflicts.inc();
                    Response::TxnConflict { key: c.key }
                }
                TxnOutcome::Err(e) => Response::Error(e.to_string()),
            };
            metrics
                .txn_commit_ns
                .record(metrics.now_ns().saturating_sub(t0));
            metrics.inflight.add(-1);
            let _ = send_pooled(&resp_tx2, &pool2, id, &resp);
            state2.decr();
        }),
    });
    drop(topo);
    submitted || !inner.draining.load(Ordering::Acquire)
}

fn submit_write(
    inner: &Arc<ServerInner>,
    state: &Arc<ConnState>,
    resp_tx: &Sender<Vec<u8>>,
    pool: &Arc<BufPool>,
    id: u64,
    op: WriteOp,
) -> bool {
    // bounded pipelining: cap this connection's in-flight writes. Waits
    // happen BEFORE the routing lock so a slow connection can never
    // stall a migration cut-over
    state.wait_until(inner.cfg.pipeline_depth.saturating_sub(1));
    // route + shed + submit under one read lock: the write lands in the
    // committer of the map version it was routed by, and the cut-over
    // barrier (which needs the write lock first) is guaranteed to drain
    // it into the recipient
    let topo = inner.topo.read().unwrap();
    let shard = topo.shards.shard_index(op.key());
    // admission control: shed where the engine would hard-stall
    let l0 = topo.shards.db(shard).l0_run_count();
    if l0 >= topo.shed_l0[shard] {
        drop(topo);
        inner.metrics.sheds.inc();
        inner.metrics.event(EventKind::ServerShed {
            shard: shard as u32,
            l0_runs: l0 as u64,
        });
        return send_pooled(resp_tx, pool, id, &Response::Busy);
    }
    state.incr();
    inner.metrics.inflight.add(1);
    let is_delete = matches!(op, WriteOp::Delete { .. });
    let metrics = Arc::clone(&inner.metrics);
    let state2 = Arc::clone(state);
    let resp_tx2 = resp_tx.clone();
    let pool2 = Arc::clone(pool);
    let t0 = metrics.now_ns();
    let submitted = topo.committers[shard].submit(WriteReq {
        op,
        done: Box::new(move |outcome| {
            let resp = match outcome {
                WriteOutcome::Ok => Response::Ok,
                WriteOutcome::ReplicaLag => Response::ReplicaLag,
                WriteOutcome::Err(e) => Response::Error(e.to_string()),
            };
            let h = if is_delete { &metrics.delete_ns } else { &metrics.put_ns };
            h.record(metrics.now_ns().saturating_sub(t0));
            metrics.inflight.add(-1);
            // the connection may already be gone; the ack bookkeeping
            // must still run so drains observe pending == 0
            let _ = send_pooled(&resp_tx2, &pool2, id, &resp);
            state2.decr();
        }),
    });
    drop(topo);
    // on a shut-down committer the callback already fired with an error
    submitted || !inner.draining.load(Ordering::Acquire)
}
