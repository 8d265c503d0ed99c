//! The two served workloads: YCSB request streams over TCP loopback into
//! an in-process `lsm_server::Server` (its threads are the system under
//! test; load comes from this process's two generator connections).
//!
//! - `served-read-hot` — YCSB-C, one shard, whole data set cache-resident:
//!   the engine answers in a microsecond or two, so the serving stack is
//!   nearly all of every request.
//! - `served-mixed` — YCSB-A over two shards with the WAL on: the same
//!   serving layer with the group-commit batcher, flushes and merges
//!   running beside the reads.
//!
//! Each window is the same two phases in both modes, after a discarded
//! warm-up, and each phase is a **fixed op count** (`Spec::*_ops_per_s`,
//! frozen, × the phase length), so a faster server finishes sooner and the
//! bytes written — `write_amp`, `space_amp` — do not depend on its speed.
//! `closed`: 2 connections × window 16, callers wait for replies — gives
//! `throughput_kops`. `depth1`: one connection, one request in flight,
//! nothing queues — gives the end-to-end latencies and
//! `server.conn.rtt_depth1_us`. `--trace 1` adds a third, `paced`:
//! open-loop Poisson arrivals at a fixed rate under capacity, latency
//! stamped from the *scheduled* send time — the loaded view, too noisy on
//! this box to gate (`get_p50_us` … `put_p99_us`). Closed-loop latency at
//! window 16 is only Little's law restated, so nothing reads it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_core::{BackgroundMode, Db, LsmConfig, WriteBatch};
use lsm_server::protocol::{
    decode_request, decode_request_ref, decode_response, encode_request, encode_response_into,
    encode_value_response_into, FrameReader, Request, RequestRef, Response, MAX_FRAME_BYTES,
};
use lsm_server::{shard_of, Server, ServerConfig, ShardSet};
use lsm_storage::StorageDevice;
use lsm_workload::{
    decode_key, encode_key, keyspace::make_value, Arrivals, OpenLoopSchedule, Operation,
    WorkloadGenerator, YcsbWorkload,
};

use crate::common::*;
use crate::hist::{self, Hist};
use crate::probes;
use crate::trace::Tracer;

const CONNS: usize = 2;
const WINDOW: usize = 16;
/// A reply later than this is a failed op (and ends its connection).
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// A paced send later than this counts into `bench.gen.late_frac`.
const LATE_NS: u64 = 1_000_000;
/// Pre-generated ops per connection; a phase longer than this cycles
/// through them again.
const POOL: u64 = 1 << 17;
/// Slices per phase: the window's slices split between its two phases.
const PHASE_SLICES: usize = SLICES / 2;
/// Ops of the staged replay, once untraced and once traced.
const REPLAY_OPS: u64 = 150_000;

pub struct Spec {
    pub ycsb: YcsbWorkload,
    pub records: u64,
    pub shards: usize,
    pub cache_bytes: usize,
    /// Ops per second of phase, all connections together, for the `closed`
    /// and the `depth1` phase: what this server completed at the commit
    /// that added the benchmark, frozen.
    pub closed_ops_per_s: u64,
    pub depth1_ops_per_s: u64,
    /// Offered rate of the `paced` phase, all connections together: about
    /// a third of closed-loop capacity at the commit that froze it.
    pub paced_ops_per_s: f64,
}

pub const READ_HOT: Spec = Spec {
    ycsb: YcsbWorkload::C,
    records: 200_000,
    shards: 1,
    cache_bytes: 256 << 20,
    closed_ops_per_s: 72_000,
    depth1_ops_per_s: 48_000,
    paced_ops_per_s: 30_000.0,
};

pub const MIXED: Spec = Spec {
    ycsb: YcsbWorkload::A,
    records: 200_000,
    shards: 2,
    cache_bytes: 8 << 20,
    closed_ops_per_s: 72_000,
    depth1_ops_per_s: 40_000,
    paced_ops_per_s: 25_000.0,
};

// ---------------------------------------------------------------------
// Pre-generated, pre-encoded request streams
// ---------------------------------------------------------------------

/// One connection's requests, encoded as wire frames back to back. A
/// send copies the frame and patches its request id to the op's sequence
/// number, so a reply's id names the op (and its expected answer).
struct Pool {
    frames: Vec<u8>,
    /// `frames[starts[i]..starts[i + 1]]` is op `i`.
    starts: Vec<u32>,
    ids: Vec<u32>,
    is_put: Vec<bool>,
    gen_ns: u64,
}

impl Pool {
    fn generate(spec: &Spec, records: u64, seed: u64, conn: usize, len: u64) -> Pool {
        let t0 = Instant::now();
        let mut gen = WorkloadGenerator::new(
            spec.ycsb
                .spec(records, seed.wrapping_add(conn as u64 * 7919)),
        );
        let mut p = Pool {
            frames: Vec::new(),
            starts: vec![0],
            ids: Vec::new(),
            is_put: Vec::new(),
            gen_ns: 0,
        };
        for _ in 0..len {
            let (req, key_id, is_put) = match gen.next_op() {
                Operation::Get { key } => {
                    let id = decode_key(&key).expect("generated key");
                    (Request::Get { key }, id, false)
                }
                Operation::Put { key, value } => {
                    let id = decode_key(&key).expect("generated key");
                    (Request::Put { key, value }, id, true)
                }
                other => panic!("YCSB-{} produced {other:?}", spec.ycsb.label()),
            };
            p.frames.extend_from_slice(&encode_request(0, &req));
            p.starts.push(p.frames.len() as u32);
            p.ids.push(key_id as u32);
            p.is_put.push(is_put);
        }
        p.gen_ns = t0.elapsed().as_nanos() as u64;
        p
    }

    fn index(&self, seq: u64) -> usize {
        seq as usize % self.ids.len()
    }

    fn frame(&self, seq: u64) -> &[u8] {
        let i = self.index(seq);
        &self.frames[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    fn send(&self, seq: u64, scratch: &mut Vec<u8>, stream: &mut TcpStream) -> std::io::Result<()> {
        scratch.clear();
        scratch.extend_from_slice(self.frame(seq));
        scratch[4..12].copy_from_slice(&seq.to_le_bytes());
        stream.write_all(scratch)
    }
}

// ---------------------------------------------------------------------
// The benchmark's own pipelined client
// ---------------------------------------------------------------------

/// Receiving half: buffers whatever the socket has and hands out one
/// decoded reply at a time, so one `read` can serve many replies.
struct Replies {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Replies {
    /// Next reply in arrival order; `Err` on time-out, EOF or a frame
    /// that does not decode.
    fn next(&mut self) -> std::io::Result<(u64, Response)> {
        loop {
            let have = &self.buf[self.head..self.tail];
            if have.len() >= 4 {
                let len = u32::from_le_bytes(have[..4].try_into().expect("4 bytes")) as usize;
                if len == 0 || len > MAX_FRAME_BYTES {
                    return Err(std::io::Error::other("bad reply frame length"));
                }
                if have.len() >= 4 + len {
                    let reply = decode_response(&have[4..4 + len])
                        .map_err(|e| std::io::Error::other(e.to_string()));
                    self.head += 4 + len;
                    return reply;
                }
                if self.buf.len() < 4 + len {
                    self.buf.resize(4 + len, 0);
                }
            }
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            match self.stream.read(&mut self.buf[self.tail..])? {
                0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                n => self.tail += n,
            }
        }
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, Replies) {
    let stream = TcpStream::connect(addr).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = stream.try_clone().expect("clone socket");
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    let replies = Replies {
        stream: reader,
        buf: vec![0; 64 << 10],
        head: 0,
        tail: 0,
    };
    (stream, replies)
}

/// One connection's tallies for one phase, by slice.
struct Tally {
    attempted: u64,
    failed: u64,
    wrong_bytes: u64,
    /// Ops answered, and answered right.
    done: u64,
    get: Vec<Hist>,
    put: Vec<Hist>,
    /// Key ids of acknowledged PUTs, in order.
    acked: Vec<u32>,
    /// Paced only: how late each send left, and the most requests in
    /// flight when a reply of each slice landed.
    lag: Hist,
    late: u64,
    in_flight: Vec<u64>,
}

impl Tally {
    fn new(slices: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            wrong_bytes: 0,
            done: 0,
            get: vec![Hist::default(); slices],
            put: vec![Hist::default(); slices],
            acked: Vec::new(),
            lag: Hist::default(),
            late: 0,
            in_flight: vec![0; slices],
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_bytes += other.wrong_bytes;
        self.done += other.done;
        self.acked.extend(other.acked);
        self.late += other.late;
        self.lag.merge(&other.lag);
        for i in 0..self.get.len() {
            self.get[i].merge(&other.get[i]);
            self.put[i].merge(&other.put[i]);
            self.in_flight[i] += other.in_flight[i];
        }
    }

    /// Every key is loaded and never deleted, so a GET must return the
    /// key's insert value or its update value, and a PUT must be
    /// acknowledged. Refusals and errors are failed ops; any other answer
    /// is wrong bytes. Returns whether the op completed correctly.
    fn judge(&mut self, pool: &Pool, seq: u64, resp: &Response) -> bool {
        let i = pool.index(seq);
        match (pool.is_put[i], resp) {
            (false, Response::Value(v)) if value_matches_either(pool.ids[i] as u64, v) => {
                return true
            }
            (true, Response::Ok) => {
                self.acked.push(pool.ids[i]);
                return true;
            }
            (
                _,
                Response::Busy | Response::Error(_) | Response::ShuttingDown | Response::ReplicaLag,
            ) => {}
            _ => self.wrong_bytes += 1,
        }
        self.failed += 1;
        false
    }
}

/// Closed loop on one connection: keep `window` requests in flight, send
/// the next as each reply lands, until `ops` have been sent and answered.
/// Latency here is send → reply; slice `i` holds the `i`-th part of the
/// ops. Returns the next unused sequence number.
fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    first_seq: u64,
    window: usize,
    ops: u64,
    slices: usize,
) -> (Tally, u64) {
    let (mut stream, mut replies) = connect(addr);
    let mut t = Tally::new(slices);
    let mut scratch = Vec::new();
    let mut sent_at = vec![0u64; window];
    let (mut next, mut in_flight, mut received) = (first_seq, 0usize, 0u64);
    let start = Instant::now();
    loop {
        while in_flight < window && t.attempted < ops {
            sent_at[next as usize % window] = start.elapsed().as_nanos() as u64;
            pool.send(next, &mut scratch, &mut stream).expect("send");
            next += 1;
            in_flight += 1;
            t.attempted += 1;
        }
        if in_flight == 0 {
            break;
        }
        let Ok((seq, resp)) = replies.next() else {
            t.failed += in_flight as u64; // timed out or torn: everything in flight missed
            break;
        };
        in_flight -= 1;
        let now = start.elapsed().as_nanos() as u64;
        let s = (received * slices as u64 / ops) as usize;
        received += 1;
        if t.judge(pool, seq, &resp) {
            t.done += 1;
            let kind = if pool.is_put[pool.index(seq)] {
                &mut t.put
            } else {
                &mut t.get
            };
            kind[s].record(now - sent_at[seq as usize % window]);
        }
    }
    (t, next)
}

/// Open loop on one connection. The sender thread sleeps until each
/// scheduled arrival and sends regardless of replies; this thread blocks
/// on the socket and stamps each reply as it lands, against the op's
/// *scheduled* time. (One thread with a read time-out cannot pace: socket
/// time-outs round up to scheduler ticks, which are milliseconds.)
fn paced(
    addr: SocketAddr,
    pool: &Pool,
    first_seq: u64,
    sched_ns: &[u64],
    slices: usize,
    slice: Duration,
) -> Tally {
    let (mut stream, mut replies) = connect(addr);
    let sent = AtomicU64::new(0);
    let mut t = Tally::new(slices);
    t.attempted = sched_ns.len() as u64;
    let start = Instant::now();
    let since_start = || start.elapsed().as_nanos() as u64;
    let (lag, late) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let (mut lag, mut late) = (Hist::default(), 0u64);
            let mut scratch = Vec::new();
            for (i, &at) in sched_ns.iter().enumerate() {
                let now = since_start();
                if now < at {
                    std::thread::sleep(Duration::from_nanos(at - now));
                }
                let behind = since_start().saturating_sub(at);
                lag.record(behind);
                late += (behind > LATE_NS) as u64;
                if pool
                    .send(first_seq + i as u64, &mut scratch, &mut stream)
                    .is_err()
                {
                    break; // the receiver meets the dead socket and counts the misses
                }
                sent.store(i as u64 + 1, Ordering::Relaxed);
            }
            (lag, late)
        });
        let mut received = 0u64;
        while received < sched_ns.len() as u64 {
            let Ok((seq, resp)) = replies.next() else {
                t.failed += sched_ns.len() as u64 - received;
                break;
            };
            let arrived = since_start();
            received += 1;
            let at = sched_ns[(seq - first_seq) as usize];
            let s = ((at / slice.as_nanos() as u64) as usize).min(slices - 1);
            let behind = sent.load(Ordering::Relaxed).saturating_sub(received);
            t.in_flight[s] = t.in_flight[s].max(behind);
            if t.judge(pool, seq, &resp) {
                t.done += 1;
                let kind = if pool.is_put[pool.index(seq)] {
                    &mut t.put
                } else {
                    &mut t.get
                };
                kind[s].record(arrived.saturating_sub(at));
            }
        }
        sender.join().expect("paced sender")
    });
    t.lag = lag;
    t.late = late;
    t
}

extern "C" {
    /// glibc: `int sched_setaffinity(pid_t, size_t, const cpu_set_t *)`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns afterwards, to one
/// CPU. Returns whether the kernel accepted the mask.
fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64 % 16] = 1 << (cpu % 64);
    // SAFETY: `mask` is 128 readable bytes, the size passed; pid 0 names
    // the calling thread; the call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Runs `f(conn)` on one thread per connection and folds the tallies.
fn on_all_conns(slices: usize, f: impl Fn(usize) -> Tally + Sync) -> Tally {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn({
                    let f = &f;
                    move || f(c)
                })
            })
            .collect();
        let mut all = Tally::new(slices);
        for h in handles {
            all.absorb(h.join().expect("generator thread"));
        }
        all
    })
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

struct Cluster {
    dbs: Vec<Db>,
    devs: Vec<Arc<dyn StorageDevice>>,
    cfg: LsmConfig,
    server: Server,
}

/// Loads the records straight into the shard engines (hash-routed as the
/// server will route), flushes and settles them, touches every key once
/// so the caches hold what they can, then starts the server.
fn set_up(spec: &Spec, records: u64) -> Cluster {
    let cfg = engine_config(BackgroundMode::Threaded, 1, spec.cache_bytes);
    let (dbs, devs): (Vec<Db>, Vec<_>) = (0..spec.shards).map(|_| open_db(&cfg)).unzip();
    for id in scattered(records, LOAD_SEED) {
        let key = encode_key(id);
        dbs[shard_of(&key, spec.shards)]
            .put(key, make_value(id, VALUE_LEN))
            .expect("load put");
    }
    for db in &dbs {
        db.flush_all().expect("flush after load");
        db.wait_background_idle();
    }
    for id in 0..records {
        let key = encode_key(id);
        let hit = dbs[shard_of(&key, spec.shards)].get_with(&key, |v| value_matches(id, v));
        assert_eq!(
            hit.expect("warm get"),
            Some(true),
            "loaded key {id} must read back"
        );
    }
    let server = Server::start(dbs.clone(), ServerConfig::default()).expect("start server");
    Cluster {
        dbs,
        devs,
        cfg,
        server,
    }
}

// ---------------------------------------------------------------------
// The traced run: a single-threaded staged replay with TCP bypassed
// ---------------------------------------------------------------------

/// The bytes "on the wire" between the replay's client and server halves.
#[derive(Clone, Default)]
struct Wire(Rc<RefCell<VecDeque<u8>>>);

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().read(buf)
    }
}

/// Opens and closes spans when tracing, and does nothing when not, so the
/// traced and untraced replays run the same code.
struct Stages<'a> {
    tracer: Option<&'a mut Tracer>,
    op: u64,
}

impl Stages<'_> {
    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        self.tracer
            .as_mut()
            .map_or(0, |t| t.open(name, parent, self.op))
    }

    fn close(&mut self, id: u32) {
        if let Some(t) = self.tracer.as_mut() {
            t.close(id);
        }
    }
}

/// Replays ops `seqs` of `pool` through the same public functions the
/// server's connection threads call, in the same order, on this thread:
/// client encode → frame + request decode → route → engine → response
/// encode → client decode. Returns (seconds, tally).
fn staged_replay(
    pool: &Pool,
    seqs: std::ops::Range<u64>,
    shards: &ShardSet,
    tracer: Option<&mut Tracer>,
) -> (f64, Tally) {
    let wire = Wire::default();
    let mut reader = FrameReader::new(wire.clone(), MAX_FRAME_BYTES);
    let mut st = Stages { tracer, op: 0 };
    let mut t = Tally::new(1);
    let mut out = Vec::with_capacity(256);
    let mut batch = WriteBatch::new();
    let t0 = Instant::now();
    for seq in seqs {
        // the client's input is a request value, not bytes
        let (_, request) = decode_request(&pool.frame(seq)[4..]).expect("pool frame");
        st.op = seq;
        t.attempted += 1;
        let root = st.open("op", 0);

        let s = st.open("bench.client.encode", root);
        let frame = encode_request(seq, &request);
        st.close(s);
        wire.0.borrow_mut().extend(&frame);

        let s = st.open("server.protocol.decode", root);
        let payload = reader
            .next_frame_ref(|| false)
            .expect("frame")
            .expect("one frame on the wire");
        let (id, req) = decode_request_ref(payload).expect("request");
        st.close(s);

        out.clear();
        let failed = match req {
            RequestRef::Get { key } => {
                let s = st.open("server.router.route", root);
                let db = shards.db(shards.shard_index(key));
                st.close(s);
                let g = st.open("core.db.get", root);
                let found = db.get_with(key, |v| {
                    let e = st.open("server.protocol.encode", g);
                    encode_value_response_into(&mut out, id, v);
                    st.close(e);
                });
                st.close(g);
                if !matches!(found, Ok(Some(()))) {
                    let e = st.open("server.protocol.encode", root);
                    encode_response_into(&mut out, id, &Response::NotFound);
                    st.close(e);
                }
                found.is_err()
            }
            RequestRef::Put { key, value } => {
                let s = st.open("server.router.route", root);
                let db = shards.db(shards.shard_index(key));
                st.close(s);
                // what the group committer does for a batch of one
                let w = st.open("core.db.write_batch", root);
                batch.clear();
                batch.put(key.to_vec(), value.to_vec());
                let wrote = db.write_batch_mut(&mut batch);
                st.close(w);
                let y = st.open("core.db.sync", root);
                let synced = db.sync();
                st.close(y);
                let e = st.open("server.protocol.encode", root);
                encode_response_into(&mut out, id, &Response::Ok);
                st.close(e);
                wrote.is_err() || synced.is_err()
            }
            other => panic!("replay of {other:?} is not part of any served workload"),
        };

        let s = st.open("bench.client.decode", root);
        let (got_id, resp) = decode_response(&out[4..]).expect("response");
        st.close(s);
        st.close(root);
        if failed || got_id != seq {
            t.failed += 1;
        } else {
            t.judge(pool, seq, &resp);
        }
    }
    (t0.elapsed().as_secs_f64(), t)
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// The `paced` phase on every connection, `PHASE_SLICES × slice` long.
fn paced_phase(
    spec: &Spec,
    addr: SocketAddr,
    pools: &[Pool],
    first_seq: u64,
    seed: u64,
    slice: Duration,
) -> Tally {
    let end_ns = slice.as_nanos() as u64 * PHASE_SLICES as u64;
    let scheds: Vec<Vec<u64>> = (0..CONNS)
        .map(|c| {
            let rate = spec.paced_ops_per_s / CONNS as f64;
            let mut s = OpenLoopSchedule::new(rate, Arrivals::Poisson, seed.wrapping_add(c as u64));
            std::iter::repeat_with(|| s.next_arrival_ns())
                .take_while(|&at| at < end_ns)
                .collect()
        })
        .collect();
    on_all_conns(PHASE_SLICES, |c| {
        paced(addr, &pools[c], first_seq, &scheds[c], PHASE_SLICES, slice)
    })
}

fn shut_down(cluster: Cluster) -> (Vec<Db>, Vec<Arc<dyn StorageDevice>>) {
    let Cluster {
        dbs, devs, server, ..
    } = cluster;
    drop(dbs); // the server hands back the only handles
    (server.shutdown().expect("graceful shutdown"), devs)
}

pub fn run(spec: &Spec, name: &str, plan: &Plan) -> Outcome {
    let records = plan.scaled(spec.records);
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // Client and server share one CPU. On this two-vCPU sandbox a wake-up
    // that crosses CPUs costs ~70 us and varies from run to run, which
    // buries every change to the code; on one CPU a round trip is ~20 us
    // and repeats to the microsecond. Threads started later inherit this.
    let cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    if !pin_to_cpu(cpu) {
        notes.push("could not pin to one CPU; expect noisier numbers".into());
    }

    let t0 = Instant::now();
    let cluster = set_up(spec, records);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let (addr, dbs, cfg) = (
        cluster.server.addr(),
        cluster.dbs.clone(),
        cluster.cfg.clone(),
    );

    let pools: Vec<Pool> = (0..CONNS)
        .map(|c| Pool::generate(spec, records, plan.seed, c, plan.scaled(POOL)))
        .collect();
    // every phase is a fixed op count: the frozen rate × the phase length
    let phase_s = plan.window_s / 2.0;
    let phase_ops = |per_s: u64| ((per_s as f64 * phase_s * plan.scale) as u64).max(64);
    let per_conn = phase_ops(spec.closed_ops_per_s) / CONNS as u64;

    // discarded warm-up, then the closed phase continues the same streams
    let warm = on_all_conns(1, |c| {
        closed_loop(addr, &pools[c], 0, WINDOW, per_conn / 10, 1).0
    });
    let next_seq = warm.attempted; // past anything either connection used
    let before = Snap::take(&dbs);
    let t0 = Instant::now();
    let closed = on_all_conns(1, |c| {
        closed_loop(addr, &pools[c], next_seq, WINDOW, per_conn, 1).0
    });
    let closed_ns = t0.elapsed().as_nanos() as u64;
    let next_seq = next_seq + closed.attempted;

    // latency: one request in flight, so the round trip is the request's
    // own path and repeats; `--trace 1` adds the loaded view at a fixed
    // offered rate
    let (depth1, next_seq) = closed_loop(
        addr,
        &pools[0],
        next_seq,
        1,
        phase_ops(spec.depth1_ops_per_s),
        PHASE_SLICES,
    );
    let paced = plan.trace.then(|| {
        let slice = Duration::from_secs_f64(plan.traced_s / PHASE_SLICES as f64);
        paced_phase(spec, addr, &pools, next_seq, plan.seed, slice)
    });
    let next_seq = next_seq + paced.as_ref().map_or(0, |p| p.attempted);
    for db in &dbs {
        db.flush_all().expect("final flush"); // space and write-amp without a WAL tail of random length
        db.wait_background_idle();
    }
    let after = Snap::take(&dbs);

    let latency = paced.as_ref().unwrap_or(&depth1);
    let parts = [Some(&closed), Some(&depth1), paced.as_ref()];
    let sum = |f: fn(&Tally) -> u64| parts.iter().flatten().map(|t| f(t)).sum::<u64>();
    let mut w = Window {
        done: closed.done,
        wall_ns: closed_ns,
        summary: hist::Summary::QuietQuartile,
        get: latency.get.clone(),
        put: latency.put.clone(),
        scan: Vec::new(),
        attempted: sum(|t| t.attempted),
        failed: sum(|t| t.failed),
        wrong_bytes: sum(|t| t.wrong_bytes),
    };
    latency_notes(&w, &mut notes);
    notes.push(format!(
        "closed: {} ops, {CONNS} conns x window {WINDOW}; depth1: {} ops in {PHASE_SLICES} slices; latencies above from {}; {records} records on {} shard(s); all threads on cpu {cpu}",
        closed.attempted,
        depth1.attempted,
        if plan.trace { "paced" } else { "depth1" },
        spec.shards
    ));

    if let Some(paced) = &paced {
        // an open loop that cannot hold its rate measured its own queue
        let late_frac = ratio(paced.late, paced.attempted);
        let backlog = &paced.in_flight;
        let typical = hist::median(&backlog.iter().map(|&n| n as f64).collect::<Vec<_>>());
        let growing = *backlog.last().expect("slices") as f64 > 4.0 * typical + 64.0;
        notes.push(format!(
            "paced generator: {} ops/s offered, lag p50={:.1}us p99={:.1}us late_frac={late_frac:.5} in_flight_by_slice={backlog:?}",
            spec.paced_ops_per_s,
            paced.lag.quantile(0.5) / 1e3,
            paced.lag.quantile(0.99) / 1e3,
        ));
        if late_frac > 0.01 || growing {
            // not failed ops: the latencies, stamped from the schedule,
            // already carry the delay; this says why they are high
            notes.push("PACED PHASE DEGRADED: over 1 % of sends left late, or the backlog was still growing at the end".into());
        }
        let server = &cluster.server;

        per_layer_from_counters(&w, &after.since(&before), &after, cfg.block_size, &mut m);
        m.set("bench.gen.lag_p99_us", paced.lag.quantile(0.99) / 1e3);
        m.set("bench.gen.late_frac", late_frac);
        let gen_ns: u64 = pools.iter().map(|p| p.gen_ns).sum();
        m.set(
            "bench.gen.ns_per_op",
            ratio(gen_ns, CONNS as u64 * pools[0].ids.len() as u64),
        );

        // the server's own view of the same window
        let sm = server.metrics();
        let (get_h, put_h, batch_h) = (
            sm.get_ns.snapshot(),
            sm.put_ns.snapshot(),
            sm.batch_ops.snapshot(),
        );
        m.set("server.get_service_mean_ns", get_h.mean());
        m.set("server.put_service_mean_ns", put_h.mean());
        m.set("server.batcher.batch_ops_mean", batch_h.mean());
        m.set("server.requests", sm.requests.get() as f64);
        m.set("server.sheds", sm.sheds.get() as f64);
        m.set("server.malformed", sm.malformed.get() as f64);
        let d = after.since(&before);
        m.set(
            "server.batcher.wal_appends_per_put",
            ratio(d.db(|s| s.wal_appends), d.db(|s| s.puts)),
        );

        // one request at a time over the real socket: every round trip
        // of the depth1 phase, summarised as the gated latencies are
        let round_trips = Window {
            get: depth1.get.clone(),
            put: depth1.put.clone(),
            ..Window::default()
        }
        .all_ops();
        let rtt_us = w.quantile_us(&round_trips, 0.5);
        m.set("server.conn.rtt_depth1_us", rtt_us);
        notes.push(format!(
            "depth-1 round trips: n={} p50={rtt_us:.2}us",
            depth1.done
        ));

        // the same requests with TCP bypassed: first untraced for the
        // overhead baseline, then with a span around every stage
        let shards = ShardSet::new(dbs.clone());
        let n = plan.scaled(REPLAY_OPS);
        let (plain_s, plain) = staged_replay(&pools[0], next_seq..next_seq + n, &shards, None);
        let mut tracer = Tracer::new();
        let (traced_s, traced) = staged_replay(
            &pools[0],
            next_seq + n..next_seq + 2 * n,
            &shards,
            Some(&mut tracer),
        );
        m.set("bench.trace.overhead_frac", 1.0 - plain_s / traced_s);
        // per stage: mean duration and mean self time, less the two clock
        // reads every span includes
        let empty = Tracer::calibrate_empty_span_ns();
        let summary = tracer.summary();
        let stage = |name: &str, own: bool| match summary.get(name) {
            Some(&(n, total, own_ns)) => {
                ((if own { own_ns } else { total }) as f64 / n as f64 - empty).max(0.0)
            }
            None => 0.0,
        };
        m.set(
            "server.protocol.decode_ns",
            stage("server.protocol.decode", false),
        );
        m.set(
            "server.protocol.encode_ns",
            stage("server.protocol.encode", false),
        );
        m.set(
            "server.router.route_ns",
            stage("server.router.route", false),
        );
        m.set(
            "bench.client.encode_ns",
            stage("bench.client.encode", false),
        );
        m.set(
            "bench.client.decode_ns",
            stage("bench.client.decode", false),
        );
        // engine time inside a served request (the GET span's children are
        // the server's encode, so its self time is the engine's)
        m.set("core.db.get_ns", stage("core.db.get", true));
        m.set(
            "core.db.put_ns",
            stage("core.db.write_batch", false) + stage("core.db.sync", false),
        );
        // what the socket, wake-ups and thread hand-offs add to the stages
        let staged_us: f64 = summary
            .iter()
            .filter(|(name, _)| **name != "op")
            .map(|(_, &(spans, _, own))| (own as f64 - spans as f64 * empty).max(0.0))
            .sum::<f64>()
            / n as f64
            / 1e3;
        m.set("server.conn.residual_us", rtt_us - staged_us);
        notes.push(format!(
            "staged replay: {n} ops, {staged_us:.2}us of stages per op"
        ));

        // the committer's unit of work at the batch size the window saw:
        // legitimate update-PUTs, assembled outside the timed span
        let per_batch = (batch_h.mean().round() as u64).max(1);
        let mut batch = WriteBatch::new();
        let mut commit_ns = Vec::new();
        for i in 0..512 {
            batch.clear();
            for id in (i * per_batch..(i + 1) * per_batch).map(|id| id % records) {
                batch.put(encode_key(id), make_value(id ^ 0xDEAD, VALUE_LEN));
            }
            let span = tracer.open("probe.server.batcher.commit", 0, i);
            dbs[0].write_batch_mut(&mut batch).expect("commit");
            dbs[0].sync().expect("sync");
            commit_ns.push(tracer.close(span) as f64 - empty);
        }
        m.set("server.batcher.commit_ns", hist::median(&commit_ns));

        probes::scans(&dbs[0], records, plan, &mut tracer, &mut m);
        probes::components(&cfg, records, plan, &mut tracer, &mut m);

        drop((shards, dbs));
        let last: Vec<u32> = closed
            .acked
            .iter()
            .chain(&depth1.acked)
            .chain(&paced.acked)
            .rev()
            .take(10_000)
            .copied()
            .collect();
        let (served, devs) = shut_down(cluster);
        let lost =
            probes::recover_and_compact(served.into_iter().zip(devs).collect(), &mut m, |dbs| {
                let lost = |id: u32| {
                    let key = encode_key(id as u64);
                    let got = dbs[shard_of(&key, dbs.len())]
                        .get_with(&key, |v| value_matches_either(id as u64, v));
                    !matches!(got, Ok(Some(true)))
                };
                last.iter().filter(|&&id| lost(id)).count() as u64
            });
        for part in [&plain, &traced] {
            w.attempted += part.attempted;
            w.failed += part.failed;
            w.wrong_bytes += part.wrong_bytes;
        }
        notes.push(format!(
            "checks: replay {}/{} traced {}/{} recovered-lost {}/{}",
            plain.failed,
            plain.attempted,
            traced.failed,
            traced.attempted,
            lost,
            last.len()
        ));
        w.attempted += last.len() as u64;
        w.failed += lost;
        w.wrong_bytes += lost;
        probes::finish_trace(&tracer, name, plan, &mut m, &mut notes);
    } else {
        end_to_end_from_window(&w, &mut m);
        m.set("write_amp", write_amp(&after, cfg.block_size));
        m.set("space_amp", space_amp(&cluster.devs, records));
        m.set("peak_heap_mb", peak_heap_mb());
        // the other set-ups, after everything that reads memory or timing
        drop(dbs);
        shut_down(cluster);
        for _ in 1..SETUP_REPEATS {
            let t0 = Instant::now();
            let again = set_up(spec, records);
            setup_s.push(t0.elapsed().as_secs_f64());
            shut_down(again);
        }
        m.set("setup_s", hist::median(&setup_s));
    }

    Outcome {
        attempted: w.attempted,
        failed: w.failed,
        correct: w.wrong_bytes == 0,
        metrics: m,
        notes,
    }
}
