//! Readers overlap maintenance under either schedule. Under `Inline` the
//! writer that fills the buffer runs the flush and the compaction it
//! queued, but only after it has dropped the write guard: a `get` or a
//! `scan` on another thread answers while that writer's merge is parked
//! inside a device write.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::{
    DeviceProfile, FileId, IoCategory, IoStats, LatencyModel, MemDevice, StorageDevice,
    StorageResult,
};

/// How long the test waits for the merge to park, and for the reader to
/// answer while it is parked.
const WAIT: Duration = Duration::from_secs(10);

#[derive(Default)]
struct GateState {
    /// The thread whose merge is parked.
    armed: Option<ThreadId>,
    /// The armed thread read a data block: a merge is reading its inputs
    /// (a flush reads nothing).
    merging: bool,
    parked: bool,
    released: bool,
}

/// A [`MemDevice`] that parks the armed thread's first data-block write
/// after a data-block read — a merge writing its first output — until
/// the test releases it.
struct Gate {
    inner: MemDevice,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().armed = Some(thread::current().id());
    }

    fn is_armed_thread(state: &GateState) -> bool {
        state.armed == Some(thread::current().id())
    }

    /// Whether the merge parked within `WAIT`.
    fn wait_parked(&self) -> bool {
        let deadline = Instant::now() + WAIT;
        let mut state = self.state.lock().unwrap();
        while !state.parked {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            state = self.cv.wait_timeout(state, left).unwrap().0;
        }
        true
    }

    fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.cv.notify_all();
    }
}

/// Releases the gate however the test ends, so the parked writer can
/// finish.
struct ReleaseOnDrop<'a>(&'a Gate);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

impl StorageDevice for Gate {
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
        let mut state = self.state.lock().unwrap();
        if cat == IoCategory::Data
            && state.merging
            && !state.parked
            && Self::is_armed_thread(&state)
        {
            state.parked = true;
            self.cv.notify_all();
            while !state.released {
                state = self.cv.wait(state).unwrap();
            }
        }
        drop(state);
        self.inner.write(file, at, data, cat)
    }
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.inner.sync(file)
    }
    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.inner.seal(file)
    }
    fn read_into(
        &self,
        file: FileId,
        at: u64,
        buf: &mut [u8],
        cat: IoCategory,
    ) -> StorageResult<()> {
        if cat == IoCategory::Data {
            let mut state = self.state.lock().unwrap();
            if Self::is_armed_thread(&state) {
                state.merging = true;
            }
        }
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

fn key(i: u32) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

/// A `get` and a `scan` on a second thread complete while an `Inline`
/// writer's merge is parked inside a device write. With maintenance run
/// under the writer's held guard they would wait for the merge.
#[test]
fn an_inline_reader_is_not_blocked_by_a_parked_merge() {
    let gate = Arc::new(Gate {
        inner: MemDevice::new(512, DeviceProfile::free()),
        state: Mutex::new(GateState::default()),
        cv: Condvar::new(),
    });
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        // every merge input read reaches the device
        cache_bytes: 0,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open(gate.clone(), cfg).unwrap();
    // fill L0 to its run cap: the next flush queues a merge
    let mut next = 0;
    while db.level_summary().first().map_or(0, |l| l.0) < db.config().l0_run_cap {
        db.put(key(next), value(next)).unwrap();
        next += 1;
    }
    let _release = ReleaseOnDrop(&gate);
    let writer = {
        let (db, gate) = (db.clone(), Arc::clone(&gate));
        thread::spawn(move || {
            gate.arm();
            let compactions = db.stats().snapshot().compactions;
            let mut i = next;
            while db.stats().snapshot().compactions == compactions {
                db.put(key(i), value(i)).unwrap();
                i += 1;
            }
        })
    };
    assert!(
        gate.wait_parked(),
        "the writer's merge never reached a device write"
    );
    let (tx, rx) = mpsc::channel();
    let reader = {
        let db = db.clone();
        thread::spawn(move || {
            let got = db.get(&key(3)).unwrap();
            let rows = db.scan(key(0)..key(10), usize::MAX).unwrap();
            let _ = tx.send((got, rows));
        })
    };
    let answered = rx.recv_timeout(WAIT);
    gate.release();
    writer.join().unwrap();
    reader.join().unwrap();
    let (got, rows) = answered.expect("a reader waited for an Inline merge to finish");
    assert_eq!(got, Some(value(3)));
    let expected: Vec<_> = (0..10).map(|i| (key(i), value(i))).collect();
    assert_eq!(rows, expected);
}
