//! The TCP server: accept loop, per-connection reader/writer threads,
//! bounded pipelining, admission control, elastic topology, and graceful
//! drain.
//!
//! ## Thread model
//!
//! One accept thread polls a non-blocking listener, and joins the
//! connections that have finished each time it accepts one. Each
//! accepted connection gets a **reader** thread and a **writer** thread.
//! The reader decodes frames, answers every request it can answer itself
//! (reads, scans, stats, errors, `Busy`, the synchronous txn replies)
//! into one per-connection output buffer, and hands every PUT, DELETE and
//! TXN_COMMIT to a shard's group committer as one commit request, through
//! one function (`Conn::commit`: shed check, in-flight bookkeeping, one
//! callback that maps the outcome to the reply). It reads whatever the
//! socket has ready, so a pipelined burst arrives in one call, and writes
//! the burst's replies in one call once its last buffered frame is
//! answered: a served GET touches only the reader thread. The writer
//! carries only the replies that complete asynchronously — write acks,
//! quorum acks, txn commits — which committer callbacks queue on an
//! mpsc channel, since a committer must never block on a slow client's
//! socket; it coalesces whatever is queued into one write. Both write
//! whole frames under one per-connection socket lock. A connection can
//! keep `pipeline_depth` writes in flight while the reader keeps
//! decoding, and a GET stops the reader only when its own key has a
//! write pending, so in a mixed burst the writes reach the committer
//! together: that queue depth is what the group-commit batcher converts
//! into batch size. An elastic server adds one **rebalancer** thread
//! that watches per-shard write rates and triggers splits and merges
//! (see [`RebalancePolicy`]).
//!
//! ## Ordering contract
//!
//! Responses carry the request id and may arrive in any order: the
//! reader's replies and the writer's acks interleave frame by frame.
//! Each connection gets **read-your-writes, per key**: a GET blocks
//! until every write this connection has submitted *to its key* is
//! acked (and every transaction commit it has submitted, since a commit
//! may write any key), so a client that pipelines `PUT k` then `GET k`
//! observes its own write (even if the GET's reply reaches it before
//! the PUT's ack), while a `GET j` in the same burst is answered at
//! once. SCAN and TXN_BEGIN read a range or a snapshot, so they wait for
//! all of the connection's writes. The reader tracks pending keys by
//! 64-bit FNV-1a fingerprint (`Pending`). That is safe because a key
//! with a pending write always has its fingerprint in the set: a
//! collision can only make a GET wait for a write it did not need, never
//! skip one it did. Before any wait the reader writes the replies it has
//! already answered, so none of them waits behind a commit.
//!
//! ## Backpressure
//!
//! A client must read replies while it pipelines. The reader writes
//! replies on its own thread, so a client that only sends fills the
//! socket buffers and then stalls its own connection (TCP backpressure);
//! per-connection buffering stays bounded by the socket buffers plus
//! about 64 KiB of answered replies instead of growing with the
//! pipeline. The replication shipper is such a client: it reads acks
//! once it has `MAX_UNACKED_BATCHES` batches in flight.
//!
//! A socket write blocks for at most 25 ms (the socket's write timeout,
//! equal to its read timeout). Both threads write through one helper
//! that keeps a timed-out write's progress and resumes it, so a slow
//! reader is still served whole; once the server drains, the helper gives
//! up instead, so a client that stopped reading cannot keep
//! [`Server::shutdown`] from joining its threads.
//!
//! ## Topology
//!
//! [`Server::serve`] starts a server from one [`Topology`] value (shards,
//! hash or elastic routing, replication role); [`Server::start`] is its
//! hash-routed standalone preset. Every shard, at launch and as a split's
//! recipient, gets its write path from one helper (a committer publishing
//! to the node's replicator, and a shed line), so an elastic primary
//! ships every batch. A replica with elastic routing is refused: its
//! applies bypass the committers a migration taps.
//!
//! The live shard set and the per-shard write paths sit in one route
//! table behind an `RwLock`. Every request touches it through a read lock
//! held for just the routing decision and the engine call; a migration
//! cut-over takes the write lock, which is what makes a shard-map flip
//! atomic with respect to every connection: no request can route between
//! the metadata write and the in-memory swap, and a scan never sees two
//! map versions. Read-your-writes survives the flip because a write
//! submitted under the old map is drained into the recipient (via the
//! migration tap and a committer barrier) *before* the write lock is
//! released. On a replicated primary that barrier includes the donor's
//! pending quorum waits, so a cut-over can hold the write lock for up to
//! `ack_timeout_ms` per batch queued on the donor.
//!
//! ## Admission control
//!
//! Before queueing a write, the reader checks the target shard's
//! [`l0_run_count`](lsm_core::DbCore::l0_run_count) — the same lock-free
//! gauge the engine's own backpressure bands read. At or past the shed
//! line (default: the shard's live `l0_stall_runs`) the server answers
//! [`Response::Busy`] instead of queueing, so a wedged shard surfaces as
//! fast typed pushback at the edge rather than a writer thread blocked
//! deep inside the engine. Below the shed line, the engine's own
//! slowdown band still applies inside `write_batch_mut` — the server sheds
//! where the engine would stall, and delays where it would slow down.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use lsm_core::manifest::{find_records, write_record};
use lsm_core::Db;
use lsm_obs::EventKind;
use lsm_storage::{FileId, StorageDevice, StorageResult};

use crate::batcher::{CommitOutcome, CommitReq, GroupCommitter};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    begin_entries_response, encode_response_into, encode_value_response_into, peek_request_id,
    FrameReader, RequestRef, Response, WriteOp, MAX_FRAME_BYTES,
};
use crate::replication::{ReplicaState, ReplicationRole, Replicator};
use crate::router::{fnv1a, ShardSet};
use crate::shardmap::{ShardMap, CLUSTER_META_MAGIC};

/// Serving-layer knobs (the engine's own knobs stay in `LsmConfig`).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum writes a connection may have in flight before its reader
    /// blocks; this queue depth is what group commit batches.
    pub pipeline_depth: usize,
    /// Shed writes (reply `Busy`) when the target shard's L0 run count
    /// reaches this; `None` follows each shard's live `l0_stall_runs`.
    pub shed_l0_runs: Option<usize>,
    /// Per-frame payload cap.
    pub max_frame_bytes: usize,
    /// Abort a connection's open transaction after this long without any
    /// txn request on it, releasing its snapshots (so a stalled client
    /// cannot hold write buffers, superseded tables or the value logs GC
    /// collected forever: GC runs, but their files wait for it). The
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

/// What a server serves: its shard engines, how keys route to them, and
/// the node's replication role. Partitioning and replication are
/// independent fields; [`Server::serve`] refuses only a `Replica` with
/// elastic routing.
pub struct Topology {
    /// The shard engines; under elastic routing `shards[i]` owns map
    /// entry `i`.
    pub shards: Vec<Db>,
    /// `Some` routes by the range map it carries and enables splits and
    /// merges; `None` routes by FNV hash over a static shard count.
    pub elastic: Option<ElasticOptions>,
    /// Standalone, shipping primary, or read-only replica.
    pub role: ReplicationRole,
}

/// Wiring for elastic (range-routed, split/merge-capable) routing.
pub struct ElasticOptions {
    /// The starting shard map. It is persisted to `meta_dev` (superseding
    /// any older version found there) before the server serves.
    pub map: ShardMap,
    /// Device holding the cluster-metadata (shard map) file.
    pub meta_dev: Arc<dyn StorageDevice>,
    /// Supplies a device for each freshly-named shard.
    pub factory: ShardDeviceFactory,
    /// Automatic rebalancing; `None` = splits/merges only on explicit
    /// [`Server::split_shard`] / [`Server::merge_shards`] calls.
    pub policy: Option<RebalancePolicy>,
}

/// One shard's write path: its group committer and the
/// [`ServerConfig::shed_l0_runs`] override of its shed line.
pub(crate) struct Lane {
    pub(crate) committer: Arc<GroupCommitter>,
    pub(crate) shed_l0: Option<usize>,
}

impl Lane {
    /// The L0 run count at which `db`'s writes shed: the override, else
    /// the engine's live `l0_stall_runs`, so a retuned stall line moves
    /// the shed line with it.
    pub(crate) fn shed_line(&self, db: &Db) -> usize {
        self.shed_l0.unwrap_or_else(|| db.l0_thresholds().1)
    }
}

/// Starts `db`'s write path — the one way a shard gets one, at launch and
/// as a split's recipient: a committer that publishes every batch to the
/// node's replicator (if any), and the shed-line override.
pub(crate) fn lane(
    db: &Db,
    cfg: &ServerConfig,
    metrics: &Arc<ServerMetrics>,
    replicator: &Option<Arc<Replicator>>,
) -> Lane {
    Lane {
        committer: Arc::new(GroupCommitter::start(
            db.clone(),
            Arc::clone(metrics),
            replicator.clone(),
        )),
        shed_l0: cfg.shed_l0_runs,
    }
}

/// The routable state every request goes through: the shard engines and
/// their write paths, index-aligned. Swapped as a unit (under the write
/// lock) at a migration cut-over.
pub(crate) struct RouteTable {
    pub(crate) shards: ShardSet,
    pub(crate) lanes: Vec<Lane>,
}

/// Elastic-mode state hanging off the server.
pub(crate) struct ElasticCtx {
    pub(crate) meta_dev: Arc<dyn StorageDevice>,
    /// Current cluster-metadata file (superseded on every flip).
    pub(crate) meta_file: Mutex<FileId>,
    pub(crate) factory: ShardDeviceFactory,
    /// Serializes migrations: one split or merge at a time.
    pub(crate) mig_lock: Mutex<()>,
}

pub(crate) struct ServerInner {
    pub(crate) routes: RwLock<RouteTable>,
    pub(crate) cfg: ServerConfig,
    pub(crate) draining: AtomicBool,
    next_conn: AtomicU64,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Primary role: the replication log + shipper pool.
    pub(crate) replicator: Option<Arc<Replicator>>,
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
    /// routing, standalone: the [`Server::serve`] preset for a static
    /// node.
    pub fn start(shards: Vec<Db>, cfg: ServerConfig) -> std::io::Result<Server> {
        let topology = Topology {
            shards,
            elastic: None,
            role: ReplicationRole::None,
        };
        Server::serve(topology, cfg)
    }

    /// Binds `127.0.0.1:0` and starts serving `topology`. With elastic
    /// routing its map is first made the newest on the cluster-metadata
    /// device, and splits/merges become available — automatic when
    /// `policy` is set, and always via [`Server::split_shard`] /
    /// [`Server::merge_shards`]. A `Replica` with elastic routing is
    /// `InvalidInput`: a replica applies shipped ops straight to its
    /// engines, bypassing the committers a migration taps.
    pub fn serve(topology: Topology, cfg: ServerConfig) -> std::io::Result<Server> {
        if topology.elastic.is_some() && matches!(topology.role, ReplicationRole::Replica) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a replica cannot be elastic: its applies bypass the committers a migration taps",
            ));
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (shards, elastic, policy) = match topology.elastic {
            None => (ShardSet::new(topology.shards), None, None),
            Some(opts) => {
                // make the starting map the durable newest: adopt the file
                // when it already encodes exactly this map, supersede it
                // otherwise (a damaged newest file too)
                let found = find_records(&opts.meta_dev, CLUSTER_META_MAGIC, ShardMap::from_bytes)
                    .map_err(io_err)?;
                let meta_file = match found.into_iter().next() {
                    Some((fid, Ok(m))) if m == opts.map => fid,
                    other => write_record(
                        &opts.meta_dev,
                        &opts.map.to_bytes(),
                        other.map(|(fid, _)| fid),
                    )
                    .map_err(io_err)?,
                };
                let ctx = ElasticCtx {
                    meta_dev: opts.meta_dev,
                    meta_file: Mutex::new(meta_file),
                    factory: opts.factory,
                    mig_lock: Mutex::new(()),
                };
                (ShardSet::with_map(topology.shards, opts.map), Some(ctx), opts.policy)
            }
        };
        let metrics = ServerMetrics::new();
        // a primary's replication log starts at the highest sequence the
        // shards already applied — 0 for a fresh node, the adopted
        // watermark for a promoted replica (all shards advance in
        // lockstep, so the max is the freshest recovered lower bound)
        let (replicator, replica) = match topology.role {
            ReplicationRole::None => (None, None),
            ReplicationRole::Primary(prim) => {
                let base = shards.dbs().iter().map(|db| db.applied_seq()).max().unwrap_or(0);
                let rep = Replicator::start(base, prim, Arc::clone(&metrics));
                (Some(rep), None)
            }
            ReplicationRole::Replica => (None, Some(ReplicaState::new(&shards))),
        };
        let lanes = shards
            .dbs()
            .iter()
            .map(|db| lane(db, &cfg, &metrics, &replicator))
            .collect();
        let tuners = Mutex::new(build_tuners(&cfg.tuner, shards.dbs()));
        let inner = Arc::new(ServerInner {
            routes: RwLock::new(RouteTable { shards, lanes }),
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
        self.inner.as_ref()?.routes.read().unwrap().shards.map().cloned()
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
        let (routes, metrics) = self.stop_serving(true).expect("server already stopped");
        metrics.event(EventKind::ServerDrain {
            phase: "flush",
            connections: 0,
        });
        routes.shards.flush_all()?;
        metrics.event(EventKind::ServerDrain {
            phase: "done",
            connections: 0,
        });
        Ok(routes.shards.into_dbs())
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
    fn stop_serving(&mut self, drain_replicas: bool) -> Option<(RouteTable, Arc<ServerMetrics>)> {
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
        let routes = inner.routes.into_inner().unwrap();
        for lane in &routes.lanes {
            lane.committer.shutdown();
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
        Some((routes, inner.metrics))
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
            let routes = inner.routes.read().unwrap();
            let Some(map) = routes.shards.map() else { return };
            map.entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.shard_id, routes.shards.db(i).stats().snapshot().puts))
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
/// `TimedOut` (dropping the `ConnTxn` releases its snapshots and
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
                let mut conns = conns.lock().unwrap();
                // join the finished connections: a long-running server holds
                // a handle per live connection, not per connection it served
                for finished in conns.extract_if(.., |h| h.is_finished()) {
                    let _ = finished.join();
                }
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One submission a connection has in flight, as [`Pending`] counts it.
#[derive(Clone, Copy, Debug)]
enum InFlight {
    /// A PUT or DELETE, by its key's FNV-1a fingerprint.
    Write(u64),
    /// A transaction commit, which may write any key.
    TxnCommit,
}

/// A connection's in-flight submissions, as its reader's waits need
/// them: one fingerprint per pending PUT/DELETE (a key written twice is
/// in it twice, so at most `pipeline_depth` entries and a scan that
/// allocates nothing once warm) and the count of pending txn commits.
#[derive(Debug, Default)]
struct Pending {
    keys: Vec<u64>,
    txns: usize,
}

impl Pending {
    /// Everything in flight: bounded by `pipeline_depth`, drained on close.
    fn total(&self) -> usize {
        self.keys.len() + self.txns
    }

    fn add(&mut self, w: InFlight) {
        match w {
            InFlight::Write(fp) => self.keys.push(fp),
            InFlight::TxnCommit => self.txns += 1,
        }
    }

    fn retire(&mut self, w: InFlight) {
        match w {
            InFlight::Write(fp) => {
                let i = self.keys.iter().position(|&k| k == fp);
                self.keys.swap_remove(i.expect("a retired write was added"));
            }
            InFlight::TxnCommit => self.txns -= 1,
        }
    }

    /// Whether a GET of the key fingerprinted `fp` must wait: a write to
    /// it (or to a colliding key), or any txn commit, is pending.
    fn blocks_get(&self, fp: u64) -> bool {
        self.txns > 0 || self.keys.contains(&fp)
    }
}

/// Per-connection state shared between the reader and write callbacks.
struct ConnState {
    /// Submissions handed to a committer but not yet acked.
    pending: Mutex<Pending>,
    /// Signalled whenever a submission retires.
    cv: Condvar,
    /// Replies completed on a committer thread, to the writer thread.
    resp_tx: Sender<(u64, Response)>,
}

impl ConnState {
    /// Blocks while `busy` holds of the pending set.
    fn wait_while(&self, busy: impl Fn(&Pending) -> bool) {
        let mut g = self.pending.lock().unwrap();
        while busy(&g) {
            g = self.cv.wait_timeout(g, Duration::from_millis(50)).unwrap().0;
        }
    }

    fn add(&self, w: InFlight) {
        self.pending.lock().unwrap().add(w);
    }

    /// Queues a committer's reply for the writer thread and retires its
    /// submission. The connection may already be gone; the bookkeeping
    /// still runs so a drain observes an empty set.
    fn complete(&self, id: u64, resp: Response, w: InFlight) {
        let _ = self.resp_tx.send((id, resp));
        self.pending.lock().unwrap().retire(w);
        self.cv.notify_all();
    }
}

/// How long one socket write may block, and how often a connection's
/// threads look up from a blocked read: the socket's read and write
/// timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_millis(25);

/// Writes `buf` whole under the socket lock, so frames never interleave.
/// A write that times out (the client is not reading) keeps what it sent
/// and resumes, until the server drains: then it gives up, so a stalled
/// client cannot park a thread that shutdown joins. `false` once the
/// socket failed or was given up.
fn write_out(sock: &Mutex<TcpStream>, buf: &[u8], draining: &AtomicBool) -> bool {
    let timed_out = |e: &std::io::Error| {
        matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
    };
    let mut sock = sock.lock().unwrap();
    let mut rest = buf;
    while !rest.is_empty() {
        match sock.write(rest) {
            Ok(0) => return false,
            Ok(n) => rest = &rest[n..],
            Err(e) if timed_out(&e) && !draining.load(Ordering::Acquire) => {}
            Err(_) => return false,
        }
    }
    true
}

/// Writes the replies committer callbacks queue: whatever is queued is
/// encoded into one reused buffer and written in one call.
fn writer_loop(
    inner: Arc<ServerInner>,
    sock: Arc<Mutex<TcpStream>>,
    rx: Receiver<(u64, Response)>,
) {
    let mut batch = Vec::new();
    while let Ok((id, resp)) = rx.recv() {
        batch.clear();
        encode_response_into(&mut batch, id, &resp);
        while let Ok((id, resp)) = rx.try_recv() {
            encode_response_into(&mut batch, id, &resp);
        }
        if !write_out(&sock, &batch, &inner.draining) {
            break;
        }
    }
    // wake the reader out of its timeout loop if we died first
    let _ = sock.lock().unwrap().shutdown(std::net::Shutdown::Both);
}

fn serve_conn(inner: Arc<ServerInner>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let sock = match stream.try_clone() {
        Ok(s) => Arc::new(Mutex::new(s)),
        Err(_) => {
            inner.metrics.connections.add(-1);
            return;
        }
    };
    let (resp_tx, resp_rx) = channel::<(u64, Response)>();
    let writer = {
        let inner = Arc::clone(&inner);
        let sock = Arc::clone(&sock);
        std::thread::Builder::new()
            .name("lsm-server-conn-writer".into())
            .spawn(move || writer_loop(inner, sock, resp_rx))
            .expect("spawn connection writer")
    };
    // the txn slot is registered so the sweeper can reap it while this
    // thread is parked on the socket
    let txn_slot = Arc::new(Mutex::new(TxnSlot::Idle));
    inner
        .txns
        .lock()
        .unwrap()
        .insert(conn_id, Arc::clone(&txn_slot));
    let mut conn = Conn {
        inner: Arc::clone(&inner),
        state: Arc::new(ConnState {
            pending: Mutex::default(),
            cv: Condvar::new(),
            resp_tx,
        }),
        txn_slot,
        out: Vec::new(),
        sock,
        alive: true,
    };
    let mut reader = FrameReader::new(stream, inner.cfg.max_frame_bytes);
    loop {
        let keep_waiting = || !inner.draining.load(Ordering::Acquire);
        match reader.next_frame_ref(keep_waiting) {
            Ok(Some(payload)) => {
                if !conn.handle_frame(payload) {
                    break;
                }
                // a burst's replies go out together once its last buffered
                // frame is answered, or sooner once they fill OUT_KEEP_BYTES
                let flush = !reader.frame_buffered() || conn.out.len() >= OUT_KEEP_BYTES;
                if flush && !conn.flush() {
                    break;
                }
            }
            Ok(None) => break, // clean EOF or drain at a frame boundary
            Err(e) => {
                // framing is unrecoverable: best-effort typed error, close
                inner.metrics.malformed.inc();
                conn.reply(0, &Response::Error(e.to_string()));
                break;
            }
        }
    }
    conn.flush();
    // a dead connection abandons its transaction: dropping the slot's
    // ConnTxn releases every snapshot pin and floor
    inner.txns.lock().unwrap().remove(&conn_id);
    *conn.txn_slot.lock().unwrap() = TxnSlot::Idle;
    // finish in-flight writes so their acks reach the wire before close
    conn.state.wait_while(|p| p.total() > 0);
    drop(conn); // the writer drains and exits once callbacks release theirs
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

/// A connection as its reader thread sees it. Every reply the reader
/// computes is appended to `out`, which reaches the socket in one write
/// per drained burst; only replies completed by a committer go through
/// the writer thread.
struct Conn {
    inner: Arc<ServerInner>,
    state: Arc<ConnState>,
    txn_slot: Arc<Mutex<TxnSlot>>,
    /// Replies answered on this thread and not yet written.
    out: Vec<u8>,
    /// The socket's write half, shared with the writer thread.
    sock: Arc<Mutex<TcpStream>>,
    /// `false` once a socket write failed.
    alive: bool,
}

/// `out` is flushed once it holds this much, and keeps this capacity
/// across flushes; one outsized reply (a huge scan) must not pin its
/// buffer for the connection's lifetime.
const OUT_KEEP_BYTES: usize = 64 * 1024;

impl Conn {
    /// Appends `resp` to the replies awaiting the next flush.
    fn reply(&mut self, id: u64, resp: &Response) {
        encode_response_into(&mut self.out, id, resp);
    }

    /// Writes every reply answered so far in one socket call. `false`
    /// once the socket has failed.
    fn flush(&mut self) -> bool {
        if self.alive && !self.out.is_empty() {
            self.alive = write_out(&self.sock, &self.out, &self.inner.draining);
        }
        self.out.clear();
        self.out.shrink_to(OUT_KEEP_BYTES);
        self.alive
    }

    /// Blocks while `busy` holds of this connection's pending set,
    /// writing the replies already answered first, so none of them waits
    /// behind a commit. With nothing pending it never waits (and a GET
    /// hashes nothing).
    fn wait_while(&mut self, busy: impl Fn(&Pending) -> bool) {
        let must_wait = {
            let p = self.state.pending.lock().unwrap();
            p.total() > 0 && busy(&p)
        };
        if must_wait {
            self.flush();
            self.state.wait_while(busy);
        }
    }

    /// Handles one well-framed payload. Returns `false` to close the
    /// connection.
    fn handle_frame(&mut self, payload: &[u8]) -> bool {
        self.inner.metrics.requests.inc();
        let (id, req) = match crate::protocol::decode_request_ref(payload) {
            Ok(ok) => ok,
            Err(e) => {
                // the frame boundary is intact, so the connection survives a
                // payload the decoder rejects — reply typed, keep reading
                self.inner.metrics.malformed.inc();
                let id = peek_request_id(payload).unwrap_or(0);
                self.reply(id, &Response::Error(e.to_string()));
                return true;
            }
        };
        if self.inner.draining.load(Ordering::Acquire) {
            self.reply(id, &Response::ShuttingDown);
            return true;
        }
        match req {
            // a replica takes writes only through the replication stream;
            // clients must write to the primary
            RequestRef::Put { .. } | RequestRef::Delete { .. } | RequestRef::TxnBegin
                if self.inner.replica.is_some() =>
            {
                self.reply(id, &Response::Error("replica is read-only".into()))
            }
            RequestRef::Get { key } => {
                // read-your-writes for this key only
                self.wait_while(|p| p.blocks_get(fnv1a(key)));
                let metrics = &self.inner.metrics;
                let t0 = metrics.now_ns();
                // the value bytes go straight from the engine's borrowed view
                // (cached block / memtable arena) into the wire buffer; the
                // routing read lock pins one map version for the lookup
                let mark = self.out.len();
                let out = &mut self.out;
                let routes = self.inner.routes.read().unwrap();
                match routes
                    .shards
                    .get_with(key, |v| encode_value_response_into(out, id, v))
                {
                    Ok(Some(())) => {}
                    Ok(None) => encode_response_into(out, id, &Response::NotFound),
                    Err(e) => {
                        out.truncate(mark);
                        encode_response_into(out, id, &Response::Error(e.to_string()));
                    }
                }
                drop(routes);
                metrics.get_ns.record(metrics.now_ns().saturating_sub(t0));
            }
            RequestRef::Scan { start, end, limit } => {
                // a range may hold any pending key
                self.wait_while(|p| p.total() > 0);
                let metrics = &self.inner.metrics;
                let t0 = metrics.now_ns();
                // stream entries off the merge cursor into the wire buffer;
                // the count is patched in when the scan completes. One read
                // lock for the whole scan = one map version for the whole
                // scan, so a concurrent flip cannot tear it
                let max = self.inner.cfg.max_frame_bytes;
                let mark = self.out.len();
                let mut enc = begin_entries_response(&mut self.out, id, max);
                let routes = self.inner.routes.read().unwrap();
                let err = match routes
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
                drop(routes);
                if let Some(msg) = err {
                    self.out.truncate(mark);
                    encode_response_into(&mut self.out, id, &Response::Error(msg));
                }
                metrics.scan_ns.record(metrics.now_ns().saturating_sub(t0));
            }
            RequestRef::Stats => {
                let json = self
                    .inner
                    .metrics
                    .snapshot()
                    .to_json_line_tagged(&[("scope", "server")]);
                self.reply(id, &Response::Stats(json))
            }
            RequestRef::ShardMap => {
                // hash-routed servers report version 0 with no entries
                let routes = self.inner.routes.read().unwrap();
                let resp = match routes.shards.map() {
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
                drop(routes);
                self.reply(id, &resp)
            }
            RequestRef::TuneStatus => {
                let resp = Response::TuneStatus(self.tune_status());
                self.reply(id, &resp)
            }
            RequestRef::Put { key, value } => {
                // the single copy on the write path: key/value leave the read
                // buffer here to cross into the committer's queue
                let op = WriteOp::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                };
                return self.submit_write(id, op);
            }
            RequestRef::Delete { key } => {
                return self.submit_write(id, WriteOp::Delete { key: key.to_vec() });
            }
            RequestRef::ReplSubscribe { .. } => {
                // the reply tells the shipper where to start: our watermark
                let resp = match &self.inner.replica {
                    Some(r) => Response::ReplAck { seq: r.applied() },
                    None => Response::Error("not a replica".into()),
                };
                self.reply(id, &resp)
            }
            RequestRef::ReplBatch { seq, ops } => {
                let resp = match &self.inner.replica {
                    Some(r) => {
                        let metrics = &self.inner.metrics;
                        let t0 = metrics.now_ns();
                        let routes = self.inner.routes.read().unwrap();
                        let resp = match r.apply_batch(&routes.shards, seq, ops) {
                            Ok(watermark) => Response::ReplAck { seq: watermark },
                            Err(e) => {
                                metrics.malformed.inc();
                                Response::Error(e.to_string())
                            }
                        };
                        drop(routes);
                        metrics.put_ns.record(metrics.now_ns().saturating_sub(t0));
                        resp
                    }
                    None => Response::Error("not a replica".into()),
                };
                self.reply(id, &resp)
            }
            RequestRef::TxnBegin => {
                // read-your-writes: the snapshot must cover every write this
                // connection has submitted
                self.wait_while(|p| p.total() > 0);
                let resp = self.txn_begin();
                self.reply(id, &resp)
            }
            RequestRef::TxnGet { key } => {
                let resp = self.txn_op(key, |t| match t.get(key) {
                    Ok(Some(v)) => Response::Value(v),
                    Ok(None) => Response::NotFound,
                    Err(e) => Response::Error(e.to_string()),
                });
                self.reply(id, &resp)
            }
            // the ack only means "buffered in the transaction" —
            // durability comes at commit
            RequestRef::TxnPut { key, value } => {
                let resp = self.txn_op(key, |t| {
                    t.put(key.to_vec(), value.to_vec());
                    Response::Ok
                });
                self.reply(id, &resp)
            }
            RequestRef::TxnDelete { key } => {
                let resp = self.txn_op(key, |t| {
                    t.delete(key.to_vec());
                    Response::Ok
                });
                self.reply(id, &resp)
            }
            RequestRef::TxnCommit => return self.txn_commit(id),
            RequestRef::TxnAbort => {
                // idempotent: aborting with nothing open is still Ok; the
                // old slot (dropped after the lock) releases any pins
                let was = std::mem::replace(&mut *self.txn_slot.lock().unwrap(), TxnSlot::Idle);
                drop(was);
                self.reply(id, &Response::Ok)
            }
        }
        true
    }

    /// Pull-model tuning: the request itself is the tick, so the decision
    /// sequence is a deterministic function of the request stream (no
    /// timer thread to race). Empty when the server runs without a tuner.
    fn tune_status(&self) -> Vec<(u64, String)> {
        if self.inner.cfg.tuner.is_none() {
            return Vec::new();
        }
        let routes = self.inner.routes.read().unwrap();
        let mut tuners = self.inner.tuners.lock().unwrap();
        // a split/merge since the last tick leaves stale engine handles
        // behind; restart tuning on the new topology
        let stale = tuners.len() != routes.shards.dbs().len()
            || tuners
                .iter()
                .zip(routes.shards.dbs())
                .any(|(t, db)| !t.db().same_engine(db));
        if stale {
            *tuners = build_tuners(&self.inner.cfg.tuner, routes.shards.dbs());
        }
        tuners
            .iter_mut()
            .enumerate()
            .map(|(i, t)| {
                t.tick();
                (i as u64, t.status_json())
            })
            .collect()
    }

    /// Opens a transaction on this connection at the current map version.
    fn txn_begin(&self) -> Response {
        let mut g = self.txn_slot.lock().unwrap();
        if matches!(&*g, TxnSlot::Active { .. }) {
            return Response::Error("transaction already active on this connection".into());
        }
        let map_version = {
            let routes = self.inner.routes.read().unwrap();
            routes.shards.map().map_or(0, |m| m.version)
        };
        *g = TxnSlot::Active {
            txn: ConnTxn {
                map_version,
                parts: HashMap::new(),
            },
            last_active: Instant::now(),
        };
        self.inner.metrics.txn_begins.inc();
        Response::Ok
    }

    /// Runs `op` on the open transaction's sub-txn for `key`'s shard:
    /// `NoTxn` with none open, and the conflict reply (aborting the
    /// transaction) when the shard map flipped since it began.
    fn txn_op(&self, key: &[u8], op: impl FnOnce(&mut lsm_core::Txn) -> Response) -> Response {
        let mut g = self.txn_slot.lock().unwrap();
        match &mut *g {
            TxnSlot::Active { txn: ct, last_active } => {
                *last_active = Instant::now();
                let routes = self.inner.routes.read().unwrap();
                match txn_route(&self.inner, ct, &routes, key) {
                    Ok(shard) => match txn_shard(ct, &routes, shard) {
                        Ok(t) => op(t),
                        Err(e) => Response::Error(e.to_string()),
                    },
                    Err(resp) => {
                        *g = TxnSlot::Idle; // map flip: abort the txn
                        resp
                    }
                }
            }
            TxnSlot::TimedOut => {
                *g = TxnSlot::Idle;
                Response::NoTxn
            }
            TxnSlot::Idle => Response::NoTxn,
        }
    }

    /// Executes TXN_COMMIT: takes the transaction out of the slot,
    /// re-checks the shard map and admission control, then hands the parts
    /// to a committer thread — the owning shard's for a single-shard
    /// transaction (the fast path: its commit serializes with that shard's
    /// batches, so migration taps and replication stay in commit order), or
    /// the lowest-involved shard's for a cross-shard one. Cross-shard
    /// commits are refused on elastic or replicated servers, where
    /// out-of-band engine applies would race the tap tee / publish
    /// ordering.
    fn txn_commit(&mut self, id: u64) -> bool {
        self.wait_for_room();
        let inner = Arc::clone(&self.inner);
        let t0 = inner.metrics.now_ns();
        let taken = std::mem::replace(&mut *self.txn_slot.lock().unwrap(), TxnSlot::Idle);
        let TxnSlot::Active { txn: ct, .. } = taken else {
            self.reply(id, &Response::NoTxn);
            return true;
        };
        if ct.parts.is_empty() {
            // a transaction that neither read nor wrote serializes anywhere;
            // stamp 0 marks "empty" (real stamps start at 1)
            inner.metrics.txn_commits.inc();
            inner
                .metrics
                .txn_commit_ns
                .record(inner.metrics.now_ns().saturating_sub(t0));
            self.reply(id, &Response::TxnCommitted { stamp: 0 });
            return true;
        }
        let routes = inner.routes.read().unwrap();
        // the map must not have flipped: shard indices captured by the
        // sub-txns would be stale
        let version = routes.shards.map().map_or(0, |m| m.version);
        if version != ct.map_version {
            drop(routes);
            drop(ct); // releases pins + floors
            inner.metrics.txn_conflicts.inc();
            self.reply(id, &Response::TxnConflict { key: Vec::new() });
            return true;
        }
        let mut shards: Vec<usize> = ct.parts.keys().copied().collect();
        shards.sort_unstable();
        if shards.len() > 1 && (inner.replicator.is_some() || inner.elastic.is_some()) {
            drop(routes);
            drop(ct);
            self.reply(
                id,
                &Response::Error(
                    "cross-shard transactions are not supported on elastic or replicated servers"
                        .into(),
                ),
            );
            return true;
        }
        let mut ct = Some(ct);
        let go_on = self.commit(id, &routes, &shards, || {
            let mut parts = ct.take().expect("the request is built once").parts;
            let parts = shards.iter().map(|s| parts.remove(s).expect("a part per shard"));
            CommitReq::Txn(parts.map(lsm_core::Txn::into_part).collect())
        });
        drop(routes);
        if let Some(txn) = ct {
            // shed: the transaction survives, so the client may retry the
            // commit after backing off
            *self.txn_slot.lock().unwrap() = TxnSlot::Active {
                txn,
                last_active: Instant::now(),
            };
        }
        go_on
    }

    /// PUT/DELETE: routes `op` by its key and commits it.
    fn submit_write(&mut self, id: u64, op: WriteOp) -> bool {
        self.wait_for_room();
        let inner = Arc::clone(&self.inner);
        // route + shed + submit under one read lock: the write lands in the
        // committer of the map version it was routed by, and the cut-over
        // barrier (which needs the write lock first) is guaranteed to drain
        // it into the recipient
        let routes = inner.routes.read().unwrap();
        let shard = routes.shards.shard_index(op.key());
        self.commit(id, &routes, &[shard], || CommitReq::Write(op))
    }

    /// Bounded pipelining: waits until this connection may put one more
    /// commit in flight. Called BEFORE the routing lock is taken, so a
    /// slow connection can never stall a migration cut-over.
    fn wait_for_room(&mut self) {
        let limit = self.inner.cfg.pipeline_depth.saturating_sub(1);
        self.wait_while(|p| p.total() > limit);
    }

    /// The one way a commit request reaches a committer, for PUT, DELETE
    /// and TXN_COMMIT alike. Answers `Busy` without building the request
    /// when any of `shards` is at its shed line (admission control: shed
    /// where the engine would hard-stall). Otherwise builds it, counts it
    /// in flight, and queues it on the committer of `shards[0]`; its
    /// callback maps the outcome to the reply and records the latency.
    /// Returns `false` to close the connection: the committer is shut
    /// down because the server drains.
    fn commit(
        &mut self,
        id: u64,
        routes: &RouteTable,
        shards: &[usize],
        req: impl FnOnce() -> CommitReq,
    ) -> bool {
        let metrics = Arc::clone(&self.inner.metrics);
        for &s in shards {
            let db = routes.shards.db(s);
            let l0 = db.l0_run_count();
            if l0 >= routes.lanes[s].shed_line(db) {
                metrics.sheds.inc();
                metrics.event(EventKind::ServerShed {
                    shard: s as u32,
                    l0_runs: l0 as u64,
                });
                self.reply(id, &Response::Busy);
                return true;
            }
        }
        let req = req();
        let (w, latency) = match &req {
            CommitReq::Write(op @ WriteOp::Put { .. }) => {
                (InFlight::Write(fnv1a(op.key())), &metrics.put_ns)
            }
            CommitReq::Write(op) => (InFlight::Write(fnv1a(op.key())), &metrics.delete_ns),
            CommitReq::Txn(_) => (InFlight::TxnCommit, &metrics.txn_commit_ns),
        };
        let latency = Arc::clone(latency);
        self.state.add(w);
        metrics.inflight.add(1);
        let state = Arc::clone(&self.state);
        let t0 = metrics.now_ns();
        let submitted = routes.lanes[shards[0]].committer.submit(req, move |outcome| {
            let resp = match outcome {
                CommitOutcome::Committed(None) => Response::Ok,
                CommitOutcome::Committed(Some(stamp)) => Response::TxnCommitted { stamp },
                CommitOutcome::ReplicaLag => Response::ReplicaLag,
                CommitOutcome::Conflict(c) => Response::TxnConflict { key: c.key },
                CommitOutcome::Err(e) => Response::Error(e.to_string()),
            };
            latency.record(metrics.now_ns().saturating_sub(t0));
            metrics.inflight.add(-1);
            state.complete(id, resp, w);
        });
        // on a shut-down committer the callback already fired with an error
        submitted || !self.inner.draining.load(Ordering::Acquire)
    }
}

/// Routes `key` for an open transaction: the shard index under the
/// current map, or the typed conflict reply when the shard map has
/// flipped since the transaction began (its routing assumptions — and
/// possibly its sub-transactions' engines — are stale).
fn txn_route(
    inner: &Arc<ServerInner>,
    ct: &ConnTxn,
    routes: &RouteTable,
    key: &[u8],
) -> Result<usize, Response> {
    let version = routes.shards.map().map_or(0, |m| m.version);
    if version != ct.map_version {
        inner.metrics.txn_conflicts.inc();
        return Err(Response::TxnConflict { key: key.to_vec() });
    }
    Ok(routes.shards.shard_index(key))
}

/// The transaction's sub-txn for `shard`, beginning one on first touch.
fn txn_shard<'a>(
    ct: &'a mut ConnTxn,
    routes: &RouteTable,
    shard: usize,
) -> lsm_storage::StorageResult<&'a mut lsm_core::Txn> {
    use std::collections::hash_map::Entry;
    match ct.parts.entry(shard) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(v) => Ok(v.insert(routes.shards.db(shard).begin_txn()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{encode_request, Request};
    use lsm_core::LsmConfig;

    fn one_shard_server() -> (Server, Db) {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let server = Server::start(vec![db.clone()], ServerConfig::default()).unwrap();
        (server, db)
    }

    #[test]
    fn finished_connections_are_joined_as_new_ones_arrive() {
        let (server, _db) = one_shard_server();
        for i in 0..200u32 {
            // a round trip: the connection was accepted and served
            let mut c = Client::connect(server.addr()).unwrap();
            c.put(format!("c{i}").as_bytes(), b"v").unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.conns.lock().unwrap().iter().all(|h| h.is_finished()) {
            assert!(Instant::now() < deadline, "closed connections never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut live = Client::connect(server.addr()).unwrap();
        assert_eq!(live.get(b"c199").unwrap(), Some(b"v".to_vec()));
        let held = server.conns.lock().unwrap().len();
        assert_eq!(held, 1, "the accept loop keeps handles only for live connections");
    }

    #[test]
    fn a_client_that_stops_reading_cannot_wedge_shutdown() {
        let (server, db) = one_shard_server();
        db.put(b"big".to_vec(), vec![7; 512 * 1024]).unwrap();
        // GETs of a 512 KiB value, and no reads: once their replies fill
        // the socket buffers the server's reader parks writing, stops
        // reading, and the client's own writes stall in turn
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
        let burst: Vec<u8> = (0..1000)
            .flat_map(|id| encode_request(id, &Request::Get { key: b"big" }))
            .collect();
        let stalled = (0..2000).any(|_| sock.write_all(&burst).is_err());
        assert!(stalled, "the server kept reading a client that reads nothing");
        let (tx, rx) = channel();
        let stopper = std::thread::spawn(move || {
            let _ = server.shutdown();
            let _ = tx.send(());
        });
        let returned = rx.recv_timeout(Duration::from_secs(5)).is_ok();
        drop(sock); // frees a server that did wedge, so its shutdown ends
        stopper.join().unwrap();
        assert!(returned, "shutdown waited on a client that stopped reading");
    }

    fn put_k() -> InFlight {
        InFlight::Write(fnv1a(b"k"))
    }

    #[test]
    fn a_get_waits_while_any_write_to_its_key_is_pending() {
        let mut p = Pending::default();
        p.add(put_k());
        p.add(put_k());
        p.retire(put_k());
        assert!(p.blocks_get(fnv1a(b"k")), "one of two PUTs to k is still pending");
        assert!(!p.blocks_get(fnv1a(b"j")), "nothing is pending for j");
        p.retire(put_k());
        assert!(!p.blocks_get(fnv1a(b"k")));
    }

    #[test]
    fn a_fingerprint_collision_only_makes_a_get_wait() {
        // keys a and b forced to one fingerprint: the set cannot tell them
        // apart, so it errs towards waiting, and retiring a's write never
        // retires b's
        const SHARED: u64 = 0x5eed;
        let (a, b) = (InFlight::Write(SHARED), InFlight::Write(SHARED));
        let mut p = Pending::default();
        p.add(a);
        assert!(p.blocks_get(SHARED), "GET b waits for a's write: a wait, not a wrong read");
        p.add(b);
        p.retire(a);
        assert!(p.blocks_get(SHARED), "b's write is still pending");
        p.retire(b);
        assert!(!p.blocks_get(SHARED));
    }

    #[test]
    fn a_pending_txn_commit_makes_every_get_wait() {
        let mut p = Pending::default();
        p.add(InFlight::TxnCommit);
        for key in [&b"k"[..], b"j", b""] {
            assert!(p.blocks_get(fnv1a(key)), "{key:?}");
        }
        p.retire(InFlight::TxnCommit);
        assert!(!p.blocks_get(fnv1a(b"k")));
    }

    #[test]
    fn the_total_drains_to_zero_as_completions_arrive() {
        let (resp_tx, resp_rx) = channel();
        let state = Arc::new(ConnState {
            pending: Mutex::default(),
            cv: Condvar::new(),
            resp_tx,
        });
        let subs: Vec<InFlight> = (0..16u64)
            .map(|i| match i % 4 {
                0 => InFlight::TxnCommit,
                1 => put_k(),
                _ => InFlight::Write(fnv1a(&i.to_le_bytes())),
            })
            .collect();
        for &w in &subs {
            state.add(w);
        }
        let completer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                for (id, w) in (0..).zip(subs.into_iter().rev()) {
                    std::thread::sleep(Duration::from_millis(1));
                    state.complete(id, Response::Ok, w);
                }
            })
        };
        state.wait_while(|p| p.total() > 0);
        completer.join().unwrap();
        let p = state.pending.lock().unwrap();
        assert_eq!((p.keys.len(), p.txns), (0, 0));
        assert_eq!(resp_rx.try_iter().count(), 16, "every reply was queued");
    }
}
