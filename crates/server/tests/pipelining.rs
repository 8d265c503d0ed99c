//! Pipelined traffic on one connection: replies the reader answers in
//! place, the acks the writer thread carries, and the backpressure
//! contract between them.
//!
//! Replies may arrive in any order (they are matched by id), but
//! read-your-writes must hold for every GET in a burst, a GET must wait
//! only for writes to its own key, a burst must be answered without the
//! client sending anything more, and a client that reads while it
//! pipelines must get every reply however much it sends.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lsm_core::LsmConfig;
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{
    decode_response, encode_request, FrameReader, PrimaryReplication, ReplicationRole, Request,
    Response, ServerConfig, MAX_FRAME_BYTES,
};
use proptest::prelude::*;

/// How long a write's ack waits for the quorum on
/// [`primary_with_an_unreachable_replica`].
const ACK_TIMEOUT: Duration = Duration::from_secs(3);

fn cluster() -> Cluster {
    let cfg = LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    };
    Cluster::start(Layout::Hash(2), ReplicationRole::None, cfg, ServerConfig::default())
}

fn put(key: &[u8], value: &[u8]) -> Request {
    Request::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    }
}

fn get(key: &[u8]) -> Request {
    Request::Get { key: key.to_vec() }
}

fn delete(key: &[u8]) -> Request {
    Request::Delete { key: key.to_vec() }
}

/// A one-shard primary whose one replica never answers: every write's
/// ack waits out [`ACK_TIMEOUT`], and so does every read that waits for
/// that write.
fn primary_with_an_unreachable_replica() -> Cluster {
    let nobody = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let role = ReplicationRole::Primary(PrimaryReplication {
        replicas: vec![nobody],
        ack_quorum: 1,
        ack_timeout_ms: ACK_TIMEOUT.as_millis() as u64,
        drain_timeout_ms: 50,
    });
    let cfg = LsmConfig::small_for_tests();
    Cluster::start(Layout::Hash(1), role, cfg, ServerConfig::default())
}

/// A raw connection whose reads fail, rather than hang, once a reply is
/// overdue.
struct Wire {
    tx: TcpStream,
    rx: FrameReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let tx = TcpStream::connect(addr).unwrap();
        tx.set_nodelay(true).unwrap();
        let rx = tx.try_clone().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(25))).unwrap();
        Wire {
            tx,
            rx: FrameReader::new(rx, MAX_FRAME_BYTES),
        }
    }

    /// Writes `reqs`, numbered from `first`, in one `write_all`.
    fn send(&mut self, first: u64, reqs: &[Request]) {
        let bytes: Vec<u8> = (first..)
            .zip(reqs)
            .flat_map(|(id, r)| encode_request(id, r))
            .collect();
        self.tx.write_all(&bytes).unwrap();
    }

    /// The next reply to arrive, within `within`.
    fn recv(&mut self, within: Duration) -> (u64, Response) {
        let deadline = Instant::now() + within;
        let payload = self
            .rx
            .next_frame_ref(|| Instant::now() < deadline)
            .unwrap()
            .expect("a reply before the deadline");
        decode_response(payload).unwrap()
    }

    /// Sends `reqs` as one burst and collects one reply per request by id.
    fn burst(&mut self, first: u64, reqs: &[Request]) -> HashMap<u64, Response> {
        self.send(first, reqs);
        let replies: HashMap<u64, Response> = (0..reqs.len())
            .map(|_| self.recv(Duration::from_secs(10)))
            .collect();
        assert_eq!(replies.len(), reqs.len(), "one reply per id");
        replies
    }
}

#[test]
fn every_pipelined_get_reads_its_own_preceding_put() {
    let mut cluster = cluster();
    let mut w = Wire::connect(cluster.addr());
    // one write: a GET ahead of any PUT, 64 PUT/GET pairs, a missing key;
    // every reply must arrive with nothing more sent
    let mut reqs = vec![get(b"k")];
    reqs.extend((0..64).flat_map(|i| [put(b"k", format!("v{i}").as_bytes()), get(b"k")]));
    reqs.push(get(b"absent"));
    let replies = w.burst(1, &reqs);
    assert_eq!(replies[&1], Response::NotFound, "GET before any PUT");
    for i in 0..64u64 {
        assert_eq!(replies[&(2 * i + 2)], Response::Ok, "PUT #{i}");
        assert_eq!(
            replies[&(2 * i + 3)],
            Response::Value(format!("v{i}").into_bytes()),
            "GET #{i} must see the PUT just before it"
        );
    }
    assert_eq!(replies[&130], Response::NotFound, "GET of a missing key");
    cluster.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn replies_answered_before_a_read_your_writes_wait_do_not_wait_for_the_commit() {
    let mut cluster = primary_with_an_unreachable_replica();
    let mut w = Wire::connect(cluster.addr());
    w.send(10, &[get(b"x"), put(b"y", b"1"), get(b"y")]);
    assert_eq!(
        w.recv(ACK_TIMEOUT / 2),
        (10, Response::NotFound),
        "GET x was answered before the wait, so it must not wait for the ack"
    );
    let rest: HashMap<u64, Response> = (0..2).map(|_| w.recv(ACK_TIMEOUT * 3)).collect();
    assert_eq!(rest[&11], Response::ReplicaLag);
    assert_eq!(rest[&12], Response::Value(b"1".to_vec()));
    drop(cluster.server.take().unwrap().abort());
}

#[test]
fn a_get_of_another_key_does_not_wait_for_a_pending_write() {
    let mut cluster = primary_with_an_unreachable_replica();
    let mut w = Wire::connect(cluster.addr());
    let sent = Instant::now();
    w.send(
        20,
        &[put(b"y", b"1"), get(b"x"), delete(b"z"), get(b"w"), get(b"y")],
    );
    let first: HashMap<u64, Response> = (0..2).map(|_| w.recv(ACK_TIMEOUT / 2)).collect();
    assert_eq!(
        first,
        HashMap::from([(21, Response::NotFound), (23, Response::NotFound)]),
        "GET x and GET w have no pending write, so neither waits for an ack"
    );
    let mut rest = HashMap::new();
    let mut get_y_after = Duration::ZERO;
    for _ in 0..3 {
        let (id, resp) = w.recv(ACK_TIMEOUT * 3);
        if id == 24 {
            get_y_after = sent.elapsed();
        }
        rest.insert(id, resp);
    }
    assert_eq!(rest[&20], Response::ReplicaLag, "PUT y");
    assert_eq!(rest[&22], Response::ReplicaLag, "DELETE z");
    assert_eq!(rest[&24], Response::Value(b"1".to_vec()), "GET y reads its own PUT");
    assert!(
        get_y_after >= ACK_TIMEOUT,
        "GET y was answered after {get_y_after:?}, before PUT y's ack could exist"
    );
    drop(cluster.server.take().unwrap().abort());
}

#[test]
fn a_client_that_reads_while_it_pipelines_gets_every_reply() {
    const BYTES: usize = 4 << 20;
    let mut cluster = cluster();
    let mut w = Wire::connect(cluster.addr());
    assert_eq!(w.burst(1, &[put(b"hot", b"value")])[&1], Response::Ok);
    let n = (BYTES / encode_request(0, &get(b"hot")).len() + 1) as u64;
    let first = 1_000_000u64;
    let mut tx = w.tx.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let mut chunk = Vec::new();
        let mut id = first;
        while id < first + n {
            chunk.clear();
            for _ in 0..4096.min(first + n - id) {
                chunk.extend_from_slice(&encode_request(id, &get(b"hot")));
                id += 1;
            }
            tx.write_all(&chunk).unwrap();
        }
    });
    for want in first..first + n {
        let (id, resp) = w.recv(Duration::from_secs(10));
        assert_eq!(id, want, "a GET-only stream is answered in order");
        assert_eq!(resp, Response::Value(b"value".to_vec()));
    }
    sender.join().unwrap();
    // the connection is still healthy
    let replies = w.burst(2, &[put(b"after", b"x"), get(b"after")]);
    assert_eq!(replies[&3], Response::Value(b"x".to_vec()));
    cluster.server.take().unwrap().shutdown().unwrap();
}

/// One pipelined request and what the model expects of it.
#[derive(Clone, Copy, Debug)]
enum Op {
    Put(u8),
    Delete(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0u8..4).prop_map(|(kind, key)| match kind {
        0 => Op::Put(key),
        1 => Op::Delete(key),
        _ => Op::Get(key),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bursts of PUT/DELETE/GET over four keys on two shards, each sent
    /// in one write: GETs land both on keys with a write in flight and on
    /// keys without one, and every GET must read the latest earlier write
    /// to its key on this connection (`NotFound` after a DELETE).
    #[test]
    fn pipelined_gets_read_the_latest_earlier_write_to_their_key(
        bursts in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..40), 1..4),
    ) {
        let mut cluster = cluster();
        let mut w = Wire::connect(cluster.addr());
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        let mut next_id = 1u64;
        let key = |k: u8| [b'p', b'k', b'0' + k];
        for (b, burst) in bursts.iter().enumerate() {
            let mut reqs = Vec::new();
            let mut want = Vec::new();
            for (i, &op) in burst.iter().enumerate() {
                match op {
                    Op::Put(k) => {
                        let value = format!("v{b}-{i}").into_bytes();
                        reqs.push(put(&key(k), &value));
                        model.insert(k, value);
                        want.push(Response::Ok);
                    }
                    Op::Delete(k) => {
                        reqs.push(delete(&key(k)));
                        model.remove(&k);
                        want.push(Response::Ok);
                    }
                    Op::Get(k) => {
                        reqs.push(get(&key(k)));
                        want.push(match model.get(&k) {
                            Some(v) => Response::Value(v.clone()),
                            None => Response::NotFound,
                        });
                    }
                }
            }
            let replies = w.burst(next_id, &reqs);
            for (id, (op, want)) in (next_id..).zip(burst.iter().zip(want)) {
                prop_assert_eq!(&replies[&id], &want, "burst {} request {:?} (id {})", b, op, id);
            }
            next_id += reqs.len() as u64;
        }
        cluster.server.take().unwrap().shutdown().unwrap();
    }
}
