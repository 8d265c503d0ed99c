//! Promotion: turning a dead primary's replica into the new primary.
//!
//! The promotion path is deliberately the crash-recovery path. A
//! replica's engines already hold everything the primary shipped —
//! batches in their WALs (synced before each ack) plus whatever flushes
//! persisted — so promotion is:
//!
//! 1. stop the replica's server (if still running);
//! 2. reopen every shard from its device — `Db::open` replays the WAL
//!    tail, exactly as after a crash ([`Cluster::reopen`] does this for
//!    a harness node);
//! 3. adopt the **max** of the shards' recovered `applied_seq`
//!    watermarks as the committed replication sequence. Max is correct
//!    because all shards advance their watermark in lockstep on every
//!    applied batch, so any one shard's persisted watermark is a lower
//!    bound on what the whole node applied — and the freshest lower
//!    bound is the max. Data above the adopted watermark (applied but
//!    not yet captured by a manifest write) is still present via WAL
//!    replay; the watermark only governs where a *new* replication log
//!    starts.
//! 4. serve the recovered shards in the topology's new role. If it is
//!    `Primary`, [`Server::serve`] seeds its replication log at the
//!    adopted sequence automatically (the log base is always the max
//!    shard watermark at startup).
//!
//! Every write the old primary quorum-acked was, by definition, applied
//! and synced on `ack_quorum` replicas before the client saw `OK` — so
//! promoting any replica in the quorum preserves every acked write.
//!
//! [`Cluster::reopen`]: crate::harness::Cluster::reopen

use lsm_obs::EventKind;

use crate::server::{Server, ServerConfig, Topology};

/// The result of promoting a replica.
pub struct Promotion {
    /// The new server, accepting writes.
    pub server: Server,
    /// The replication sequence the node adopted as committed.
    pub adopted_seq: u64,
}

/// Starts a new server over a stopped replica's recovered shards — the
/// failover path. `topology.shards` are the replica's engines reopened
/// from its devices; `topology.role` is the new role (standalone, or
/// primary over the surviving replicas).
pub fn promote_replica(topology: Topology, server_cfg: ServerConfig) -> std::io::Result<Promotion> {
    let adopted_seq = topology
        .shards
        .iter()
        .map(|db| db.applied_seq())
        .max()
        .unwrap_or(0);
    let server = Server::serve(topology, server_cfg)?;
    server.metrics().event(EventKind::Failover { adopted_seq });
    Ok(Promotion {
        server,
        adopted_seq,
    })
}
