//! Malformed-frame fuzzing against a live loopback server.
//!
//! The invariant under test: no byte sequence a client can send —
//! truncated frames, oversized or zero length prefixes, garbage
//! payloads, or random splices of valid traffic — may panic the server,
//! corrupt a shard, or wedge the connection in an undefined state. Every
//! outcome must be either a typed [`Response::Error`] reply (payload
//! decodable as a frame but not as a request) or a clean connection
//! close (framing unrecoverable). After every attack the same server
//! must still serve correct data to a well-behaved client.

use std::io::Write;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use lsm_core::LsmConfig;
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{ReplicationRole, Request, Response, ServerConfig};

fn small_cluster() -> Cluster {
    let cfg = LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    };
    // tight frame cap so oversize prefixes are easy to generate
    let server_cfg = ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    Cluster::start(Layout::Hash(2), ReplicationRole::None, cfg, server_cfg)
}

/// Seeds a little data, fires `attack` bytes at the server on a raw
/// connection, then proves the server still serves the seeded data.
fn attack_then_verify(attack: &[u8]) {
    let mut cluster = small_cluster();
    let mut good = cluster.client();
    for i in 0..20u32 {
        good.put(format!("fz{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }

    {
        let mut evil = cluster.client();
        let stream = evil.stream_mut();
        let _ = stream.write_all(attack);
        let _ = stream.flush();
        // whatever happens — typed error reply, or the server closing the
        // connection — the evil client must observe it without the server
        // process being harmed; drain with a timeout so a reply-less
        // close also terminates promptly
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut sink = [0u8; 1024];
        use std::io::Read;
        for _ in 0..64 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    // the server survived: the original connection still works and the
    // shard contents are intact
    for i in (0..20u32).step_by(7) {
        assert_eq!(
            good.get(format!("fz{i:03}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "shard data corrupted after attack"
        );
    }
    let entries = good.scan(b"fz", b"fz999", 100).unwrap();
    assert_eq!(entries.len(), 20);
    let dbs = cluster.server.take().unwrap().shutdown().unwrap();
    assert_eq!(dbs.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary garbage bytes never harm the server.
    #[test]
    fn random_bytes_never_panic_the_server(bytes in vec(any::<u8>(), 0..600)) {
        attack_then_verify(&bytes);
    }

    /// A syntactically valid length prefix announcing an oversized,
    /// zero, or truncated frame leads to a clean close, not a wedge.
    #[test]
    fn hostile_length_prefixes_close_cleanly(
        len in prop_oneof![
            Just(0u32),                    // zero-length frame
            4097u32..=u32::MAX,            // above the 4096 cap
            1u32..=4096,                   // valid length, truncated body
        ],
        body in vec(any::<u8>(), 0..64),
    ) {
        let mut attack = len.to_le_bytes().to_vec();
        // deliver fewer bytes than announced whenever len > body.len():
        // the reader must park, then cleanly abandon the partial frame
        attack.extend_from_slice(&body);
        attack_then_verify(&attack);
    }

    /// A well-framed payload with a corrupted interior gets a typed
    /// error reply and the connection survives for the next request.
    #[test]
    fn corrupt_payload_in_valid_frame_gets_typed_error(
        payload in vec(any::<u8>(), 1..128),
    ) {
        let mut cluster = small_cluster();
        let mut c = cluster.client();
        c.put(b"anchor", b"still-here").unwrap();

        // frame is sound (length matches), interior is garbage
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        c.stream_mut().write_all(&frame).unwrap();

        match c.recv() {
            Ok((_id, resp)) => {
                // decodable garbage must decode to a *real* request only if
                // it really was one; anything else is a typed error
                if lsm_server::decode_request(&payload).is_err() {
                    prop_assert!(
                        matches!(resp, Response::Error(_)),
                        "expected typed error, got {resp:?}"
                    );
                    // the connection survived payload-level garbage
                    prop_assert_eq!(c.get(b"anchor").unwrap(), Some(b"still-here".to_vec()));
                }
            }
            Err(_) => {
                // only acceptable if the payload truly decoded as a request
                // whose execution closed the stream — which none do; but a
                // valid-looking GET would have replied. Treat close as a
                // failure unless the payload decoded to a valid request
                // (e.g. random bytes that happen to spell one).
                prop_assert!(
                    lsm_server::decode_request(&payload).is_ok(),
                    "connection closed on a well-framed payload"
                );
            }
        }
        cluster.server.take().unwrap().shutdown().unwrap();
    }
}

/// Deterministic regression cases that have bitten real codecs.
#[test]
fn classic_framing_attacks() {
    // 1. empty write then immediate close
    attack_then_verify(b"");
    // 2. exactly one length byte
    attack_then_verify(&[0x10]);
    // 3. three of four length bytes
    attack_then_verify(&[0x10, 0x00, 0x00]);
    // 4. u32::MAX length prefix
    attack_then_verify(&u32::MAX.to_le_bytes());
    // 5. valid frame followed by a truncated one
    let mut bytes = lsm_server::encode_request(9, &Request::Get { key: b"fz001".to_vec() });
    bytes.extend_from_slice(&[0xFF, 0x00]);
    attack_then_verify(&bytes);
}

/// A pipelined mix of valid and payload-corrupt frames: every valid
/// request is answered, every corrupt one draws a typed error, and the
/// connection survives the whole exchange.
#[test]
fn interleaved_valid_and_corrupt_frames() {
    let mut cluster = small_cluster();
    let mut c = cluster.client();

    let mut expected_errors = 0u32;
    let mut valid_ids = Vec::new();
    for i in 0..12u32 {
        if i % 3 == 2 {
            // well-framed, bad opcode 0xEE
            let mut payload = (1000 + i as u64).to_le_bytes().to_vec();
            payload.push(0xEE);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            c.stream_mut().write_all(&frame).unwrap();
            expected_errors += 1;
        } else {
            valid_ids.push(
                c.send(&Request::Put {
                    key: format!("mix{i:02}").into_bytes(),
                    value: vec![b'x'; 8],
                })
                .unwrap(),
            );
        }
    }
    let mut errors = 0u32;
    let mut oks = 0u32;
    for _ in 0..12 {
        match c.recv().unwrap().1 {
            Response::Ok => oks += 1,
            Response::Error(_) => errors += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(errors, expected_errors);
    assert_eq!(oks, valid_ids.len() as u32);
    assert_eq!(c.get(b"mix00").unwrap(), Some(vec![b'x'; 8]));
    cluster.server.take().unwrap().shutdown().unwrap();
}
