//! TUNE_STATUS wire op: per-shard self-tuner status over the protocol.
//!
//! Tuners are pull-model — each TUNE_STATUS request ticks every shard's
//! tuner once — so these tests drive tuning entirely from the client
//! side: write traffic, tick, and observe the staged retunes through
//! the reported effective configuration.

use lsm_core::LsmConfig;
use lsm_server::harness::{Cluster, Layout};
use lsm_server::server::ServerConfig;
use lsm_server::ReplicationRole;
use lsm_tuner::TunerConfig;

fn wal_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    }
}

/// `shards` hash-routed standalone shards over [`wal_cfg`].
fn standalone(shards: usize) -> Cluster {
    let role = ReplicationRole::None;
    Cluster::start(
        Layout::Hash(shards),
        role,
        wal_cfg(),
        ServerConfig::default(),
    )
}

#[test]
fn tune_status_empty_without_tuner() {
    let mut cluster = standalone(2);
    let mut c = cluster.client();
    assert_eq!(c.tune_status().unwrap(), Vec::new());
    cluster.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn tune_status_reports_and_retunes_per_shard() {
    let server_cfg = ServerConfig {
        tuner: Some(TunerConfig {
            min_ops_per_tick: 100,
            ..TunerConfig::default()
        }),
        ..ServerConfig::default()
    };
    let mut cluster = Cluster::start(
        Layout::Hash(2),
        ReplicationRole::None,
        wal_cfg(),
        server_cfg,
    );
    let mut c = cluster.client();

    // before any traffic: one entry per shard, no decisions yet
    let initial = c.tune_status().unwrap();
    assert_eq!(initial.len(), 2);
    for (shard, json) in &initial {
        assert!(*shard < 2);
        lsm_obs::json::validate_json(json).unwrap_or_else(|e| panic!("shard {shard}: {e}: {json}"));
        assert!(json.contains("\"decisions\":0"), "{json}");
    }

    // write-heavy traffic across both shards (hash routing spreads it),
    // then tick until a decision lands
    let mut decided = false;
    for round in 0..6 {
        for i in 0..2_000u64 {
            let key = format!("tune-{round}-{i:08}");
            c.put(key.as_bytes(), &[7u8; 48]).unwrap();
        }
        let status = c.tune_status().unwrap();
        assert_eq!(status.len(), 2);
        if status.iter().any(|(_, j)| !j.contains("\"decisions\":0")) {
            decided = true;
            break;
        }
    }
    assert!(decided, "no shard retuned under sustained write-heavy load");
    cluster.server.take().unwrap().shutdown().unwrap();
}
