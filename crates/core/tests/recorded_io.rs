//! The `Inline` schedule's device I/O, pinned op by op.
//!
//! A recording device logs every op the engine issues — its kind, file
//! id, block offset, block count and category — while one small `Inline`
//! script runs flushes, multi-level compactions, key-value separation,
//! sharded merges, an online retune and a major compaction. The log's
//! digest is a known answer: a change to *how* maintenance is scheduled
//! (who runs a flush, when a WAL rotates, in which order queued work
//! drains) must leave it exactly where it is, because under `Inline`
//! every experiment and every engine workload sees those ops.

use std::sync::{Arc, Mutex};

use lsm_core::config::KvSeparation;
use lsm_core::stats::DbStatsSnapshot;
use lsm_core::{BackgroundMode, Db, EventKind, LsmConfig, MergeLayout};
use lsm_storage::{
    DeviceProfile, FileId, IoCategory, IoStats, LatencyModel, MemDevice, StorageDevice,
    StorageResult,
};

/// Forwards every op to a [`MemDevice`] and appends one fixed-width
/// record per op to a log: kind, file id, block offset, block count and
/// category.
struct Recorder {
    inner: MemDevice,
    log: Mutex<Vec<u8>>,
}

impl Recorder {
    fn note(&self, kind: u8, file: FileId, at: u64, blocks: u64, cat: Option<IoCategory>) {
        let mut log = self.log.lock().unwrap();
        log.push(kind);
        log.extend_from_slice(&file.0.to_le_bytes());
        log.extend_from_slice(&at.to_le_bytes());
        log.extend_from_slice(&blocks.to_le_bytes());
        log.push(cat.map_or(u8::MAX, |c| c as u8));
    }

    fn blocks(&self, len: usize) -> u64 {
        len.div_ceil(self.inner.block_size()) as u64
    }
}

impl StorageDevice for Recorder {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
    fn latency(&self) -> &LatencyModel {
        self.inner.latency()
    }
    fn create(&self) -> StorageResult<FileId> {
        let file = self.inner.create()?;
        self.note(b'c', file, 0, 0, None);
        Ok(file)
    }
    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        self.note(b'w', file, at, self.blocks(data.len()), Some(cat));
        self.inner.write(file, at, data, cat)
    }
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.note(b's', file, 0, 0, None);
        self.inner.sync(file)
    }
    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.note(b'e', file, 0, 0, None);
        self.inner.seal(file)
    }
    fn read_into(
        &self,
        file: FileId,
        at: u64,
        buf: &mut [u8],
        cat: IoCategory,
    ) -> StorageResult<()> {
        self.note(b'r', file, at, self.blocks(buf.len()), Some(cat));
        self.inner.read_into(file, at, buf, cat)
    }
    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        self.inner.len_blocks(file)
    }
    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.note(b'd', file, 0, 0, None);
        self.inner.delete(file)
    }
    fn live_files(&self) -> Vec<FileId> {
        self.inner.live_files()
    }
    fn live_blocks(&self) -> u64 {
        self.inner.live_blocks()
    }
}

/// 512-byte blocks, a 2 KiB write buffer and 2 KiB tables, separated
/// values from 48 bytes and merges split into up to four shards,
/// scheduled `Inline`.
fn cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 2 << 10,
        target_table_bytes: 2 << 10,
        kv_separation: Some(KvSeparation {
            min_value_bytes: 48,
        }),
        max_subcompactions: 4,
        background: BackgroundMode::Inline,
        ..LsmConfig::small_for_tests()
    }
}

/// Ops `range` of the script: 2,000 keys, values of 20–119 bytes (about
/// three in four separated), a delete every ninth op.
fn ops(db: &Db, range: std::ops::Range<u64>) {
    for i in range {
        let key = format!("key{:05}", (i * 7_919) % 2_000).into_bytes();
        if i % 9 == 4 {
            db.delete(key).unwrap();
        } else {
            let len = 20 + ((i * 37) % 100) as usize;
            db.put(key, vec![b'a' + (i % 26) as u8; len]).unwrap();
        }
    }
}

/// What one run of the script leaves: its device ops (26 bytes each),
/// the engine's counters, the levels occupied before the major
/// compaction, and the sharded merges' shard count.
struct Run {
    log: Vec<u8>,
    stats: DbStatsSnapshot,
    levels: usize,
    shards: usize,
}

fn run_script() -> Run {
    let rec = Arc::new(Recorder {
        inner: MemDevice::new(512, DeviceProfile::free()),
        log: Mutex::new(Vec::new()),
    });
    let db = Db::open(rec.clone(), cfg()).unwrap();
    ops(&db, 0..1_500);
    db.flush().unwrap();
    for i in (0..2_000).step_by(37) {
        db.get(format!("key{i:05}").as_bytes()).unwrap();
    }
    // a retune whose compaction waits for the next flush's cascade
    let retuned = LsmConfig {
        size_ratio: 2,
        bits_per_key: 6.0,
        ..cfg()
    };
    db.set_config(retuned).unwrap();
    ops(&db, 1_500..3_000);
    db.scan(b"key00400".to_vec()..b"key00520".to_vec(), usize::MAX)
        .unwrap();
    db.compact().unwrap();
    let levels = db
        .level_summary()
        .iter()
        .filter(|(runs, _, _)| *runs > 0)
        .count();
    // tiering at T = 4, then every run into one
    db.set_config(LsmConfig {
        layout: MergeLayout::Tiered,
        ..cfg()
    })
    .unwrap();
    ops(&db, 3_000..3_600);
    db.major_compact().unwrap();
    ops(&db, 3_600..3_660);
    db.sync().unwrap();
    let stats = db.stats().snapshot();
    let shards = db
        .drain_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SubcompactionEnd { .. }))
        .count();
    drop(db);
    let log = rec.log.lock().unwrap().clone();
    Run {
        log,
        stats,
        levels,
        shards,
    }
}

/// The digest of the script's device ops under `Inline`, computed when
/// `Inline` still flushed and compacted under the writer's held guard.
const IO_DIGEST: u64 = 0x8226_d154_11ef_7bfa;

#[test]
fn inline_maintenance_io_matches_its_known_answer_digest() {
    let Run {
        log,
        stats,
        levels,
        shards,
    } = run_script();
    let digest = lsm_filters::hash::hash64(&log);
    eprintln!(
        "recorded {} device ops: {} flushes, {} compactions ({} frontier installs, \
         {shards} merge shards), {levels} levels before the major compaction, \
         digest {digest:#018x}",
        log.len() / 26,
        stats.flushes,
        stats.compactions,
        stats.frontier_installs,
    );
    assert!(stats.flushes >= 10, "{} flushes", stats.flushes);
    assert!(stats.compactions >= 6, "{} compactions", stats.compactions);
    assert!(
        levels >= 3,
        "the script must compact across levels ({levels} occupied)"
    );
    assert!(stats.vlog_values > 0, "no value was separated");
    assert!(shards >= 2, "no merge ran sharded");
    assert_eq!(
        run_script().log,
        log,
        "two runs of one Inline script issued different ops"
    );
    assert_eq!(digest, IO_DIGEST, "the Inline schedule's device ops moved");
}
