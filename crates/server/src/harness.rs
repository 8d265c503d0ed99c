//! Deterministic in-process test harness: a loopback server over
//! in-memory shard devices.
//!
//! The harness keeps the `Arc` handles to every shard's device, so a
//! test can [`Server::abort`] the server (the in-process stand-in for
//! `kill -9`), drop the engines, and reopen the same devices with
//! [`reopen_shards`] to prove recovery — exactly the lifecycle a real
//! deployment gets from persistent disks, minus the filesystem.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use lsm_core::{Db, LsmConfig};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice, StorageResult};

use crate::client::Client;
use crate::replication::{PrimaryReplication, ReplicationRole};
use crate::server::{ElasticOptions, RebalancePolicy, Server, ServerConfig};
use crate::shardmap::{find_cluster_meta, ShardMap};

/// A running loopback cluster plus the handles tests need to poke it.
pub struct TestCluster {
    /// The server; take it out (`Option::take`) to shut down or abort.
    pub server: Option<Server>,
    /// Per-shard devices, kept alive across a server abort for reopen.
    pub devices: Vec<Arc<dyn StorageDevice>>,
    /// The engine config every shard was opened with.
    pub cfg: LsmConfig,
}

/// Opens one engine per device (crash-recovering whatever the device
/// holds) — the reopen half of a kill-the-server test.
pub fn reopen_shards(
    devices: &[Arc<dyn StorageDevice>],
    cfg: &LsmConfig,
) -> StorageResult<Vec<Db>> {
    devices
        .iter()
        .map(|d| Db::open(Arc::clone(d), cfg.clone()))
        .collect()
}

/// Starts a cluster of `shards` fresh in-memory shards.
pub fn start_cluster(shards: usize, cfg: LsmConfig, server_cfg: ServerConfig) -> TestCluster {
    let devices: Vec<Arc<dyn StorageDevice>> = (0..shards)
        .map(|_| {
            Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()))
                as Arc<dyn StorageDevice>
        })
        .collect();
    let dbs = reopen_shards(&devices, &cfg).expect("open fresh shards");
    let server = Server::start(dbs, server_cfg).expect("start loopback server");
    TestCluster {
        server: Some(server),
        devices,
        cfg,
    }
}

impl TestCluster {
    /// The loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// A fresh client connection.
    pub fn client(&self) -> Client {
        Client::connect(self.addr()).expect("connect loopback client")
    }

    /// Reopens every shard from the kept devices (after an abort).
    pub fn reopen(&self) -> StorageResult<Vec<Db>> {
        reopen_shards(&self.devices, &self.cfg)
    }
}

/// Shared shard-id → device registry for elastic clusters. The server's
/// device factory inserts every shard it creates, so after an abort the
/// test can reopen exactly the shards the (possibly rebalanced) map
/// names.
pub type ShardDeviceRegistry = Arc<Mutex<HashMap<u64, Arc<dyn StorageDevice>>>>;

/// A running elastic (range-routed) loopback cluster.
pub struct ElasticCluster {
    /// The server; take it out (`Option::take`) to shut down or abort.
    pub server: Option<Server>,
    /// Every shard device ever created, keyed by stable shard id.
    pub devices: ShardDeviceRegistry,
    /// The cluster-metadata device holding the persisted shard map.
    pub meta_dev: Arc<dyn StorageDevice>,
    /// The engine config every shard was opened with.
    pub cfg: LsmConfig,
}

/// A [`crate::server::ShardDeviceFactory`] that mints fresh in-memory
/// devices and records them in `registry` under the new shard's id.
pub fn registry_factory(
    registry: ShardDeviceRegistry,
    block_size: usize,
) -> crate::server::ShardDeviceFactory {
    Box::new(move |shard_id| {
        let dev: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(block_size, DeviceProfile::free()));
        registry
            .lock()
            .unwrap()
            .insert(shard_id, Arc::clone(&dev));
        dev
    })
}

/// Starts an elastic cluster serving `map` over fresh in-memory shard
/// devices (one per map entry, registered by shard id) plus a fresh
/// metadata device.
pub fn start_elastic_cluster(
    map: ShardMap,
    cfg: LsmConfig,
    server_cfg: ServerConfig,
    policy: Option<RebalancePolicy>,
) -> ElasticCluster {
    let registry: ShardDeviceRegistry = Arc::new(Mutex::new(HashMap::new()));
    let factory = registry_factory(Arc::clone(&registry), cfg.block_size);
    let dbs: Vec<Db> = map
        .entries
        .iter()
        .map(|e| Db::open(factory(e.shard_id), cfg.clone()).expect("open fresh shard"))
        .collect();
    let meta_dev: Arc<dyn StorageDevice> =
        Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    let server = Server::start_elastic(
        dbs,
        map,
        ElasticOptions {
            meta_dev: Arc::clone(&meta_dev),
            factory,
            policy,
        },
        server_cfg,
    )
    .expect("start elastic loopback server");
    ElasticCluster {
        server: Some(server),
        devices: registry,
        meta_dev,
        cfg,
    }
}

/// Recovers an elastic cluster's durable state after an abort: reads
/// the newest parseable shard map from `meta_dev` and reopens each
/// mapped shard from `registry` (map order). Shards named by the map
/// but missing from the registry panic — the registry is supposed to
/// hold every device the factory ever handed out.
pub fn reopen_elastic(
    registry: &ShardDeviceRegistry,
    meta_dev: &Arc<dyn StorageDevice>,
    cfg: &LsmConfig,
) -> StorageResult<(ShardMap, Vec<Db>)> {
    let (_fid, map) = find_cluster_meta(meta_dev)?
        .expect("elastic cluster metadata survived the crash");
    let reg = registry.lock().unwrap();
    let dbs: StorageResult<Vec<Db>> = map
        .entries
        .iter()
        .map(|e| {
            let dev = reg
                .get(&e.shard_id)
                .unwrap_or_else(|| panic!("no device registered for shard {}", e.shard_id));
            Db::open(Arc::clone(dev), cfg.clone())
        })
        .collect();
    Ok((map, dbs?))
}

impl ElasticCluster {
    /// The loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// A fresh client connection.
    pub fn client(&self) -> Client {
        Client::connect(self.addr()).expect("connect loopback client")
    }

    /// Recovers the durable map + shards from the kept devices.
    pub fn reopen(&self) -> StorageResult<(ShardMap, Vec<Db>)> {
        reopen_elastic(&self.devices, &self.meta_dev, &self.cfg)
    }
}

/// A primary plus N replica servers, each over its own in-memory
/// devices, wired together over loopback.
pub struct ReplicatedCluster {
    /// The writable primary.
    pub primary: TestCluster,
    /// The read-only replicas, in replica-id order.
    pub replicas: Vec<TestCluster>,
}

/// Starts `n_replicas` replica servers, then a primary configured to
/// ship to all of them with the given `ack_quorum`. Every node runs
/// `shards` shards of the same `cfg` (replication routes by the same
/// FNV partition, so shard counts must match).
pub fn start_replicated_cluster(
    shards: usize,
    n_replicas: usize,
    cfg: LsmConfig,
    server_cfg: ServerConfig,
    ack_quorum: usize,
) -> ReplicatedCluster {
    let replicas: Vec<TestCluster> = (0..n_replicas)
        .map(|_| {
            let mut rc = server_cfg.clone();
            rc.role = ReplicationRole::Replica;
            start_cluster(shards, cfg.clone(), rc)
        })
        .collect();
    let mut pc = server_cfg;
    pc.role = ReplicationRole::Primary(PrimaryReplication {
        replicas: replicas.iter().map(TestCluster::addr).collect(),
        ack_quorum,
        ..PrimaryReplication::default()
    });
    let primary = start_cluster(shards, cfg, pc);
    ReplicatedCluster { primary, replicas }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_cfg() -> LsmConfig {
        LsmConfig {
            wal: true,
            ..LsmConfig::small_for_tests()
        }
    }

    #[test]
    fn loopback_roundtrip_and_graceful_shutdown() {
        let mut cluster = start_cluster(2, wal_cfg(), ServerConfig::default());
        let mut c = cluster.client();
        for i in 0..50u32 {
            c.put(format!("hk{i:04}").as_bytes(), format!("hv{i}").as_bytes())
                .unwrap();
        }
        assert_eq!(c.get(b"hk0007").unwrap(), Some(b"hv7".to_vec()));
        assert_eq!(c.get(b"hk9999").unwrap(), None);
        c.delete(b"hk0007").unwrap();
        assert_eq!(c.get(b"hk0007").unwrap(), None);
        let entries = c.scan(b"hk0010", b"hk0020", 100).unwrap();
        assert_eq!(entries.len(), 10);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let stats = c.stats().unwrap();
        assert!(stats.contains("server.requests"), "stats JSON: {stats}");
        lsm_obs::json::validate_json(&stats).unwrap_or_else(|e| panic!("{e}: {stats}"));
        drop(c);
        let dbs = cluster.server.take().unwrap().shutdown().unwrap();
        assert_eq!(dbs.len(), 2);
        // shutdown flushed: every memtable is empty, data still readable
        let total: usize = dbs
            .iter()
            .map(|db| db.scan(b"hk".to_vec()..b"hl".to_vec(), 1000).unwrap().len())
            .sum();
        assert_eq!(total, 49);
    }

    #[test]
    fn pipelined_writes_then_read_your_writes() {
        use crate::protocol::{Request, Response};
        let mut cluster = start_cluster(2, wal_cfg(), ServerConfig::default());
        let mut c = cluster.client();
        let ids: Vec<u64> = (0..64u32)
            .map(|i| {
                c.send(&Request::Put {
                    key: format!("pk{i:04}").into_bytes(),
                    value: format!("pv{i}").into_bytes(),
                })
                .unwrap()
            })
            .collect();
        // read-your-writes: this GET must observe the pipelined PUT even
        // though we have not collected its ack yet
        let got = c.get(b"pk0063").unwrap();
        assert_eq!(got, Some(b"pv63".to_vec()));
        for id in ids {
            assert_eq!(c.wait_for(id).unwrap(), Response::Ok);
        }
        let dbs = cluster.server.take().unwrap().shutdown().unwrap();
        // pipelining depth > 1 means group commit had material to batch
        let appends: u64 = dbs.iter().map(|db| db.stats().snapshot().wal_appends).sum();
        assert!(
            appends < 64,
            "64 pipelined puts took {appends} WAL appends — no group commit"
        );
    }

    #[test]
    fn oversized_scan_reply_is_a_typed_error_and_the_connection_survives() {
        // one buffer holds every write, so no flush can shed a put
        let cfg = LsmConfig {
            buffer_bytes: 4 << 20,
            ..wal_cfg()
        };
        let cluster = start_cluster(1, cfg, ServerConfig::default());
        let mut c = cluster.client();
        let value = vec![b'v'; 1000];
        for i in 0..1200u32 {
            c.put(format!("k{i:05}").as_bytes(), &value).unwrap();
        }
        // ≈ 1.2 MB of entries: past the 1 MiB frame cap either side holds
        let err = c.scan(b"k", b"l", 10_000).unwrap_err();
        assert!(err.to_string().contains("frame cap"), "{err}");
        // the same connection keeps serving
        assert_eq!(c.get(b"k00007").unwrap(), Some(value));
        assert_eq!(c.scan(b"k", b"l", 10).unwrap().len(), 10);
    }

    #[test]
    fn elastic_start_with_a_replication_role_is_invalid_input() {
        let cfg = wal_cfg();
        let db = Db::open_in_memory(cfg.clone()).unwrap();
        let meta_dev: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
        let elastic = ElasticOptions {
            meta_dev,
            factory: registry_factory(ShardDeviceRegistry::default(), cfg.block_size),
            policy: None,
        };
        let server_cfg = ServerConfig {
            role: ReplicationRole::Replica,
            ..ServerConfig::default()
        };
        let err = Server::start_elastic(vec![db], ShardMap::uniform(1), elastic, server_cfg)
            .err()
            .expect("a replication role must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
