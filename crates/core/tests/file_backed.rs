//! The engine on a real filesystem: the `FileDevice` substrate must carry
//! the same semantics as the in-memory device, including recovery from
//! actual on-disk files across process-equivalent reopens.

use std::sync::{Arc, Mutex};

use lsm_core::{Db, LsmConfig};
use lsm_storage::{
    DeviceProfile, FileDevice, FileId, IoCategory, IoStats, LatencyModel, StorageDevice, StorageResult,
};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lsm-file-backed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 8 << 10,
        block_size: 512,
        target_table_bytes: 16 << 10,
        size_ratio: 4,
        ..LsmConfig::default()
    }
}

#[test]
fn file_backed_engine_end_to_end() {
    let dir = tmpdir("e2e");
    {
        let device: Arc<dyn StorageDevice> =
            Arc::new(FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap());
        let db = Db::open(device, cfg()).unwrap();
        for i in 0..3000u32 {
            db.put(
                format!("user{i:08}").into_bytes(),
                format!("value-{i}").into_bytes(),
            )
            .unwrap();
        }
        for i in (0..3000u32).step_by(5) {
            db.delete(format!("user{i:08}").into_bytes()).unwrap();
        }
        assert_eq!(
            db.get(b"user00000007").unwrap(),
            Some(b"value-7".to_vec())
        );
        assert_eq!(db.get(b"user00000005").unwrap(), None);
    }
    // "process restart": a fresh device over the same directory
    let device: Arc<dyn StorageDevice> =
        Arc::new(FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap());
    let db = Db::open(device, cfg()).unwrap();
    for i in (1..3000u32).step_by(17) {
        let expect = if i % 5 == 0 {
            None
        } else {
            Some(format!("value-{i}").into_bytes())
        };
        assert_eq!(db.get(format!("user{i:08}").as_bytes()).unwrap(), expect, "key {i}");
    }
    // scans survive too
    let got = db
        .scan(b"user00000100".to_vec()..b"user00000120".to_vec(), 100)
        .unwrap();
    assert_eq!(got.len(), 16, "20 keys minus 4 deleted multiples of 5");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_backed_obsolete_files_are_deleted_from_disk() {
    let dir = tmpdir("gc");
    let device: Arc<dyn StorageDevice> =
        Arc::new(FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap());
    let db = Db::open(Arc::clone(&device), cfg()).unwrap();
    for round in 0..4u32 {
        for i in 0..1500u32 {
            db.put(
                format!("user{i:08}").into_bytes(),
                format!("r{round}-{i}").into_bytes(),
            )
            .unwrap();
        }
    }
    db.major_compact().unwrap();
    // quiesce before auditing the directory: in `Threaded` mode a worker
    // may still be unlinking obsolete files
    db.wait_background_idle();
    // compaction must physically delete superseded files: the directory's
    // live footprint stays within a small multiple of the logical data
    let live_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let logical: u64 = 1500 * 24;
    assert!(
        live_bytes < logical * 20,
        "directory holds {live_bytes} bytes for {logical} logical"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One write or barrier, as a [`Recorder`] saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Write(FileId, IoCategory),
    Barrier(FileId),
}

/// Forwards every op to a [`FileDevice`] and logs its writes and barriers
/// in order.
struct Recorder {
    inner: FileDevice,
    log: Mutex<Vec<Op>>,
}

impl Recorder {
    fn note(&self, op: Op) {
        self.log.lock().unwrap().push(op);
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
        self.inner.create()
    }
    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        self.inner.write(file, at, data, cat)?;
        self.note(Op::Write(file, cat));
        Ok(())
    }
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.inner.sync(file)?;
        self.note(Op::Barrier(file));
        Ok(())
    }
    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.inner.seal(file)
    }
    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        self.inner.read_into(file, at, buf, cat)
    }
    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        self.inner.len_blocks(file)
    }
    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.inner.delete(file)
    }
    fn live_files(&self) -> Vec<FileId> {
        self.inner.live_files()
    }
    fn live_blocks(&self) -> u64 {
        self.inner.live_blocks()
    }
}

/// An acked `Db::sync` on a `FileDevice` has put a durability barrier on
/// the WAL after the WAL's last write: the acked records would survive a
/// power loss, not only a process crash.
#[test]
fn an_acked_sync_ends_in_a_barrier_after_the_last_wal_write() {
    let dir = tmpdir("barrier");
    let rec = Arc::new(Recorder {
        inner: FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap(),
        log: Mutex::new(Vec::new()),
    });
    let db = Db::open(rec.clone(), cfg()).unwrap();
    for (round, puts) in [1u32, 3, 40, 1].into_iter().enumerate() {
        for i in 0..puts {
            db.put(format!("key{round}-{i:04}").into_bytes(), vec![b'v'; 60]).unwrap();
        }
        db.sync().unwrap();
        let log = rec.log.lock().unwrap();
        let last_wal_write = log.iter().rposition(|op| matches!(op, Op::Write(_, IoCategory::Wal)));
        let last_wal_write = last_wal_write.expect("the puts reached the WAL");
        let Op::Write(wal, _) = log[last_wal_write] else { unreachable!() };
        assert!(
            log[last_wal_write..].contains(&Op::Barrier(wal)),
            "round {round}: no barrier on the WAL {wal} after its last write: {:?}",
            &log[last_wal_write..]
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
