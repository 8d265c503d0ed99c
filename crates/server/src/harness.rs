//! Deterministic in-process test harness: loopback nodes over shard
//! devices the harness keeps.
//!
//! A [`Cluster`] is one node — a server plus every device its shards ever
//! lived on, registered by stable shard id — and starts from a [`Layout`]
//! and a role, the same data a [`Topology`] carries. A test can
//! [`Server::abort`] the server (the in-process stand-in for `kill -9`),
//! drop the engines, and [`Cluster::reopen`] the same devices to prove
//! recovery — exactly the lifecycle a real deployment gets from
//! persistent disks, minus the filesystem. A replicated deployment is
//! several clusters: start the replicas, then a primary whose role names
//! their addresses.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use lsm_core::manifest::find_record;
use lsm_core::{Db, LsmConfig};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice, StorageResult};

use crate::client::Client;
use crate::replication::ReplicationRole;
use crate::server::{
    ElasticOptions, RebalancePolicy, Server, ServerConfig, ShardDeviceFactory, Topology,
};
use crate::shardmap::{ShardMap, CLUSTER_META_MAGIC};

/// Every shard device a cluster created, by stable shard id.
pub type ShardDeviceRegistry = Arc<Mutex<HashMap<u64, Arc<dyn StorageDevice>>>>;

/// The shards a [`Cluster`] starts with and how keys route to them.
pub enum Layout {
    /// `n` hash-routed shards with ids `0..n`.
    Hash(usize),
    /// One shard per map entry, range-routed and elastic, rebalanced
    /// automatically when a policy is given.
    Elastic(ShardMap, Option<RebalancePolicy>),
}

/// One loopback node and the devices it can be recovered from.
pub struct Cluster {
    /// The server; take it out (`Option::take`) to shut down or abort.
    pub server: Option<Server>,
    /// Every shard device the cluster created, by stable shard id.
    pub devices: ShardDeviceRegistry,
    /// Holds an elastic cluster's shard map. In memory by default;
    /// replace it before [`Cluster::serve`] to put the map elsewhere.
    pub meta_dev: Arc<dyn StorageDevice>,
    /// The engine config every shard is opened with.
    pub cfg: LsmConfig,
    mint: Arc<dyn Fn(u64) -> Arc<dyn StorageDevice> + Send + Sync>,
    elastic: bool,
}

impl Cluster {
    /// Starts `layout` over fresh in-memory devices, serving as `role`.
    pub fn start(
        layout: Layout,
        role: ReplicationRole,
        cfg: LsmConfig,
        server_cfg: ServerConfig,
    ) -> Cluster {
        let block_size = cfg.block_size;
        let mut cluster = Cluster::new(cfg, move |_| {
            Arc::new(MemDevice::new(block_size, DeviceProfile::free())) as Arc<dyn StorageDevice>
        });
        cluster
            .serve(layout, role, server_cfg)
            .expect("start loopback cluster");
        cluster
    }

    /// A cluster with no server yet, whose shard `id` lives on
    /// `mint(id)`: called once per shard, at start and for every split's
    /// recipient.
    pub fn new(
        cfg: LsmConfig,
        mint: impl Fn(u64) -> Arc<dyn StorageDevice> + Send + Sync + 'static,
    ) -> Cluster {
        Cluster {
            server: None,
            devices: ShardDeviceRegistry::default(),
            meta_dev: Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free())),
            cfg,
            mint: Arc::new(mint),
            elastic: false,
        }
    }

    /// Opens `layout`'s shards on freshly minted devices and serves them
    /// as `role`.
    pub fn serve(
        &mut self,
        layout: Layout,
        role: ReplicationRole,
        server_cfg: ServerConfig,
    ) -> std::io::Result<()> {
        let (ids, elastic): (Vec<u64>, _) = match layout {
            Layout::Hash(n) => ((0..n as u64).collect(), None),
            Layout::Elastic(map, policy) => (
                map.entries.iter().map(|e| e.shard_id).collect(),
                Some((map, policy)),
            ),
        };
        self.elastic = elastic.is_some();
        let factory = self.factory();
        let shards = ids
            .into_iter()
            .map(|id| Db::open(factory(id), self.cfg.clone()))
            .collect::<StorageResult<Vec<Db>>>()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let elastic = elastic.map(|(map, policy)| ElasticOptions {
            map,
            meta_dev: Arc::clone(&self.meta_dev),
            factory,
            policy,
        });
        let topology = Topology {
            shards,
            elastic,
            role,
        };
        self.server = Some(Server::serve(topology, server_cfg)?);
        Ok(())
    }

    /// Mints through `mint` and registers each device by shard id.
    fn factory(&self) -> ShardDeviceFactory {
        let (mint, registry) = (Arc::clone(&self.mint), Arc::clone(&self.devices));
        Box::new(move |id| {
            let dev = mint(id);
            registry.lock().unwrap().insert(id, Arc::clone(&dev));
            dev
        })
    }

    /// The loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// A fresh client connection.
    pub fn client(&self) -> Client {
        Client::connect(self.addr()).expect("connect loopback client")
    }

    /// Recovers the topology the devices hold, each engine
    /// crash-recovering from its device: when elastic, the newest shard
    /// intact map on `meta_dev` (`Corruption` when every map there is
    /// damaged) and the shards it names; when hash-routed, every
    /// registered shard in id order. No device records a role, so the
    /// topology comes back standalone (set `role` to restart a primary)
    /// with no rebalancing policy. `None` when the devices hold no
    /// topology: no shard was ever opened, or an elastic cluster's first
    /// map never became durable. A shard the map names but the registry
    /// lacks panics: the registry holds every device ever minted.
    pub fn reopen(&self) -> StorageResult<Option<Topology>> {
        let (ids, elastic): (Vec<u64>, _) = if self.elastic {
            let found = find_record(&self.meta_dev, CLUSTER_META_MAGIC, ShardMap::from_bytes)?;
            let Some((_, map)) = found else {
                return Ok(None);
            };
            let ids = map.entries.iter().map(|e| e.shard_id).collect();
            let opts = ElasticOptions {
                map,
                meta_dev: Arc::clone(&self.meta_dev),
                factory: self.factory(),
                policy: None,
            };
            (ids, Some(opts))
        } else {
            let mut ids: Vec<u64> = self.devices.lock().unwrap().keys().copied().collect();
            ids.sort_unstable();
            (ids, None)
        };
        if ids.is_empty() {
            return Ok(None);
        }
        let registry = self.devices.lock().unwrap();
        let shards = ids
            .iter()
            .map(|id| {
                let dev = registry
                    .get(id)
                    .unwrap_or_else(|| panic!("no device registered for shard {id}"));
                Db::open(Arc::clone(dev), self.cfg.clone())
            })
            .collect::<StorageResult<Vec<Db>>>()?;
        Ok(Some(Topology {
            shards,
            elastic,
            role: ReplicationRole::None,
        }))
    }
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

    fn standalone(shards: usize, cfg: LsmConfig) -> Cluster {
        let role = ReplicationRole::None;
        Cluster::start(Layout::Hash(shards), role, cfg, ServerConfig::default())
    }

    #[test]
    fn loopback_roundtrip_and_graceful_shutdown() {
        let mut cluster = standalone(2, wal_cfg());
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
        let mut cluster = standalone(2, wal_cfg());
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
    fn gets_of_other_keys_leave_a_burst_of_puts_to_group_commit() {
        use crate::protocol::{decode_response, encode_request, FrameReader, Request, Response};
        use crate::router::shard_of;
        use lsm_storage::WallLatencyDevice;
        use std::io::Write;
        // every device write on shard 0 takes 10 ms of wall time, so the
        // reader has decoded the whole burst long before its first commit
        // returns. The GETs go to shard 1: `Db::sync` holds the engine's
        // write lock across the device write, so a GET on the committing
        // shard would wait out each sync and race the committer for the
        // next PUT, and the batch sizes would depend on the scheduler
        let cfg = wal_cfg();
        let mem: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
        let slow = DeviceProfile {
            random_write_ns: 10_000_000,
            ..DeviceProfile::free()
        };
        let slow_dev = Arc::new(WallLatencyDevice::new(mem, slow));
        let committing = Db::open(slow_dev, cfg.clone()).unwrap();
        let reading = Db::open_in_memory(cfg).unwrap();
        let server = Server::start(vec![committing, reading], ServerConfig::default()).unwrap();
        let on_shard = |shard: usize, prefix: &'static str| {
            (0u32..)
                .map(move |i| format!("{prefix}{i:03}").into_bytes())
                .filter(move |k| shard_of(k, 2) == shard)
        };
        let mut burst = Vec::new();
        let pairs = on_shard(0, "k").zip(on_shard(1, "unrelated")).take(32);
        for (i, (key, other)) in (0u64..).zip(pairs) {
            let put = Request::Put {
                key,
                value: b"v".to_vec(),
            };
            burst.extend(encode_request(2 * i, &put));
            burst.extend(encode_request(2 * i + 1, &Request::Get { key: other }));
        }
        let mut tx = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut rx = FrameReader::new(tx.try_clone().unwrap(), crate::MAX_FRAME_BYTES);
        tx.write_all(&burst).unwrap();
        for _ in 0..64 {
            let (id, resp) = decode_response(rx.next_frame_ref(|| true).unwrap().unwrap()).unwrap();
            let want = if id % 2 == 0 { Response::Ok } else { Response::NotFound };
            assert_eq!(resp, want, "request {id}");
        }
        let dbs = server.shutdown().unwrap();
        assert_eq!(dbs[0].stats().snapshot().puts, 32, "every PUT went to shard 0");
        let appends = dbs[0].stats().snapshot().wal_appends;
        assert!(
            appends <= 4,
            "32 PUTs interleaved with GETs of other keys took {appends} WAL appends"
        );
    }

    #[test]
    fn oversized_scan_reply_is_a_typed_error_and_the_connection_survives() {
        // one buffer holds every write, so no flush can shed a put
        let cfg = LsmConfig {
            buffer_bytes: 4 << 20,
            ..wal_cfg()
        };
        let cluster = standalone(1, cfg);
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
    fn a_replica_with_elastic_routing_is_invalid_input() {
        let cfg = wal_cfg();
        let cluster = Cluster::new(cfg.clone(), |_| unreachable!("no split runs"));
        let topology = Topology {
            shards: vec![Db::open_in_memory(cfg).unwrap()],
            elastic: Some(ElasticOptions {
                map: ShardMap::uniform(1),
                meta_dev: Arc::clone(&cluster.meta_dev),
                factory: cluster.factory(),
                policy: None,
            }),
            role: ReplicationRole::Replica,
        };
        let err = Server::serve(topology, ServerConfig::default())
            .err()
            .expect("a replica must not route elastically");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
