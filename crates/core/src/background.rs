//! Background maintenance: the worker pool behind
//! [`BackgroundMode::Threaded`](crate::config::BackgroundMode).
//!
//! The pool drains two job kinds: **flush** (persist the frozen immutable
//! memtable as an L0 table) and **compact** (run the compaction cascade
//! picked by the existing planner to quiescence). Jobs are queued by the
//! write path (memtable freeze) and by flush completion; a dedupe flag
//! keeps at most one compact job queued or running, which preserves the
//! single-compactor invariant the version-install rebase relies on.
//!
//! Lock hierarchy (outermost first): `DbCore::compaction_lock` →
//! `DbCore::inner` → `BgState::q`. Condition-variable waits hold only the
//! innermost queue mutex, and every wait uses a bounded timeout so a
//! missed notification degrades to a short delay, never a hang.
//!
//! The primitives are `std::sync` (`Mutex` + `Condvar`); the offline
//! `parking_lot` shim has no `Condvar`, and poisoning is stripped so a
//! panicking worker cannot wedge the engine.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

use lsm_storage::StorageError;

use crate::db::DbCore;

/// One unit of background work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Job {
    /// Persist the frozen immutable memtable as an L0 table.
    Flush,
    /// Run the compaction cascade to quiescence.
    Compact,
}

/// One sub-compaction shard, boxed for the queue. Tasks own everything
/// they touch (`Arc` clones), so workers need no engine reference to run
/// them.
pub(crate) type ShardTask = Box<dyn FnOnce() + Send + 'static>;

/// What a worker pulled off the queue.
enum Work {
    Job(Job),
    Shard(ShardTask),
}

/// Completion tracker for one batch of shard tasks.
struct ShardBatch {
    remaining: Mutex<usize>,
    done_cv: Condvar,
}

/// Decrements the batch counter on drop, so a panicking shard task still
/// releases the coordinator instead of wedging it.
struct ShardDoneGuard {
    batch: Arc<ShardBatch>,
}

impl Drop for ShardDoneGuard {
    fn drop(&mut self) {
        let mut n = self
            .batch
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *n -= 1;
        drop(n);
        self.batch.done_cv.notify_all();
    }
}

/// Queue state shared by user handles and workers.
#[derive(Default)]
pub(crate) struct BgQueue {
    jobs: VecDeque<Job>,
    /// Sub-compaction shards awaiting a thread. Workers prefer these over
    /// whole jobs (a shard is part of an already-running compaction, so
    /// finishing it unblocks more than starting new work would).
    shard_tasks: VecDeque<ShardTask>,
    /// Jobs popped but not yet completed.
    inflight: usize,
    /// A freeze happened and its flush has not completed yet. Writers
    /// needing the immutable slot wait on `done_cv` for this to clear.
    flush_pending: bool,
    /// A compact job is queued or running (dedupe flag).
    compact_scheduled: bool,
    /// Compact jobs are held in the queue (test hook; flushes still run).
    paused_compaction: bool,
    shutdown: bool,
    /// First background error, surfaced once on the next maintenance call.
    error: Option<StorageError>,
    /// Sticky: a background job failed at some point.
    failed: bool,
}

/// Condvar-based scheduler state. Shared via its own `Arc` so idle
/// workers can wait on it without keeping the engine alive.
#[derive(Default)]
pub(crate) struct BgState {
    q: Mutex<BgQueue>,
    /// Workers wait here for runnable jobs.
    work_cv: Condvar,
    /// Writers/quiescers wait here for progress (flush done, L0 drained).
    done_cv: Condvar,
}

fn lock(q: &Mutex<BgQueue>) -> MutexGuard<'_, BgQueue> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

impl BgState {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Marks a freeze and queues its flush. The caller guarantees the
    /// immutable slot was empty, so at most one flush is ever pending.
    pub(crate) fn enqueue_flush(&self) {
        let mut q = lock(&self.q);
        q.flush_pending = true;
        q.jobs.push_back(Job::Flush);
        drop(q);
        self.work_cv.notify_all();
    }

    /// Queues a compact job unless one is already queued or running.
    pub(crate) fn schedule_compact(&self) {
        let mut q = lock(&self.q);
        if q.compact_scheduled || q.shutdown {
            return;
        }
        q.compact_scheduled = true;
        q.jobs.push_back(Job::Compact);
        drop(q);
        self.work_cv.notify_all();
    }

    /// Re-queues a compact job that observed the pause flag mid-run; the
    /// dedupe flag stays set (the job is still "scheduled").
    fn requeue_compact(&self) {
        let mut q = lock(&self.q);
        q.jobs.push_back(Job::Compact);
    }

    /// Clears the compact dedupe flag when the cascade reaches
    /// quiescence. Returns `true` if the caller should re-check the
    /// planner (a flush may have landed during the final iteration).
    fn compact_finished(&self) -> bool {
        let mut q = lock(&self.q);
        q.compact_scheduled = false;
        true
    }

    /// Takes the stored background error, if any. The `failed` flag stays
    /// sticky so later calls still refuse cheaply.
    pub(crate) fn take_error(&self) -> Option<StorageError> {
        let mut q = lock(&self.q);
        match q.error.take() {
            Some(e) => Some(e),
            None if q.failed => Some(StorageError::Corruption(
                "a background maintenance job failed earlier".into(),
            )),
            None => None,
        }
    }

    pub(crate) fn has_failed(&self) -> bool {
        lock(&self.q).failed
    }

    /// Records a *foreground* failure as the sticky engine error. Used
    /// when a fallible step between freezing the memtable and enqueuing
    /// its flush dies: the immutable slot is occupied but no flush will
    /// ever drain it, so waiters must bail on `failed` instead of
    /// blocking (or spinning) on a drain that cannot come.
    pub(crate) fn record_failure(&self, e: StorageError) {
        let mut q = lock(&self.q);
        q.failed = true;
        if q.error.is_none() {
            q.error = Some(e);
        }
        drop(q);
        self.done_cv.notify_all();
    }

    pub(crate) fn pause_compaction(&self) {
        lock(&self.q).paused_compaction = true;
    }

    pub(crate) fn resume_compaction(&self) {
        lock(&self.q).paused_compaction = false;
        self.work_cv.notify_all();
    }

    /// Clears `flush_pending` after an explicit (foreground) flush drained
    /// the immutable memtable, so stalled writers stop waiting for the
    /// queued background job.
    pub(crate) fn flush_drained(&self) {
        lock(&self.q).flush_pending = false;
        self.done_cv.notify_all();
    }

    /// Wakes everyone waiting for progress (version installed, L0 changed).
    pub(crate) fn notify_progress(&self) {
        self.done_cv.notify_all();
    }

    /// Blocks until the pending flush completes (or shutdown/failure).
    pub(crate) fn wait_flush_drained(&self) {
        let mut q = lock(&self.q);
        while q.flush_pending && !q.shutdown && !q.failed {
            let (g, _) = self
                .done_cv
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            q = g;
        }
    }

    /// Blocks until `cond()` holds (or shutdown/failure). `cond` must not
    /// take any engine lock above the queue mutex in the hierarchy.
    pub(crate) fn wait_progress_until(&self, cond: impl Fn() -> bool) {
        let mut q = lock(&self.q);
        while !cond() && !q.shutdown && !q.failed {
            let (g, _) = self
                .done_cv
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            q = g;
        }
    }

    /// Blocks until no job is queued, running, or pending.
    pub(crate) fn wait_idle(&self) {
        let mut q = lock(&self.q);
        while !q.shutdown && (!q.jobs.is_empty() || q.inflight > 0 || q.flush_pending) {
            // a failed flush never clears flush_pending; don't wait on it
            if q.failed && q.jobs.is_empty() && q.inflight == 0 {
                break;
            }
            let (g, _) = self
                .done_cv
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            q = g;
        }
    }

    /// Runs a batch of sub-compaction shard tasks, fanning them out across
    /// the worker pool, and returns once every task has finished.
    ///
    /// The calling thread (the compaction coordinator) **helps**: it pops
    /// and runs queued shard tasks itself while waiting. That makes the
    /// batch deadlock-free by construction — even with every worker busy
    /// (or a one-worker pool whose only worker *is* the coordinator), the
    /// coordinator alone drains the queue. Shutdown mid-batch is likewise
    /// safe: workers stop taking shard tasks, and the coordinator finishes
    /// the remainder before returning.
    pub(crate) fn run_shard_batch(&self, tasks: Vec<ShardTask>) {
        let batch = Arc::new(ShardBatch {
            remaining: Mutex::new(tasks.len()),
            done_cv: Condvar::new(),
        });
        {
            let mut q = lock(&self.q);
            for task in tasks {
                let guard = ShardDoneGuard {
                    batch: Arc::clone(&batch),
                };
                q.shard_tasks.push_back(Box::new(move || {
                    let _guard = guard;
                    task();
                }));
            }
        }
        self.work_cv.notify_all();
        loop {
            let task = lock(&self.q).shard_tasks.pop_front();
            match task {
                Some(t) => t(),
                None => {
                    let n = batch
                        .remaining
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if *n == 0 {
                        return;
                    }
                    // bounded wait: a worker may still be mid-shard
                    let (n, _) = batch
                        .done_cv
                        .wait_timeout(n, Duration::from_millis(20))
                        .unwrap_or_else(PoisonError::into_inner);
                    if *n == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Signals shutdown and wakes every waiter. Called by `DbCore::drop`.
    pub(crate) fn begin_shutdown(&self) {
        lock(&self.q).shutdown = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Pops the next runnable work item; blocks while none is runnable.
    /// Returns `None` on shutdown. Shard tasks take priority (they belong
    /// to a compaction already in flight); flushes always run; compact
    /// jobs are skipped while compaction is paused.
    fn next_work(&self) -> Option<Work> {
        let mut q = lock(&self.q);
        loop {
            if q.shutdown {
                return None;
            }
            if let Some(t) = q.shard_tasks.pop_front() {
                return Some(Work::Shard(t));
            }
            let runnable = q
                .jobs
                .iter()
                .position(|j| *j == Job::Flush || !q.paused_compaction);
            if let Some(idx) = runnable {
                let job = q.jobs.remove(idx).unwrap();
                q.inflight += 1;
                return Some(Work::Job(job));
            }
            let (g, _) = self
                .work_cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            q = g;
        }
    }

    /// Records a job's completion: clears per-job flags, stores the first
    /// error, and wakes progress waiters.
    fn complete(&self, job: Job, result: Result<(), StorageError>) {
        let mut q = lock(&self.q);
        q.inflight -= 1;
        if job == Job::Flush {
            q.flush_pending = false;
        }
        if let Err(e) = result {
            q.failed = true;
            if q.error.is_none() {
                q.error = Some(e);
            }
        }
        drop(q);
        self.done_cv.notify_all();
    }
}

/// Worker thread body. Holds only a `Weak` engine reference while idle,
/// so dropping the last user handle shuts the pool down; a strong
/// reference is taken per job. If the last handle drops *during* a job,
/// `DbCore::drop` runs on this worker thread — its join loop skips the
/// current thread to avoid self-join.
pub(crate) fn worker_loop(bg: Arc<BgState>, core: Weak<DbCore>) {
    while let Some(work) = bg.next_work() {
        let job = match work {
            // shard tasks are self-contained (they own their inputs); run
            // and go back for more without touching the engine
            Work::Shard(t) => {
                t();
                continue;
            }
            Work::Job(job) => job,
        };
        let Some(db) = core.upgrade() else {
            bg.complete(job, Ok(()));
            return;
        };
        let result = match job {
            Job::Flush => {
                db.obs().bg_flush_jobs.inc();
                db.run_flush()
            }
            Job::Compact => {
                db.obs().bg_compact_jobs.inc();
                run_compact_job(&bg, &db)
            }
        };
        bg.complete(job, result);
        drop(db);
    }
}

/// Runs the compaction cascade to quiescence, re-queuing itself if paused
/// and closing the finished-vs-new-flush race by re-checking the planner
/// after clearing the dedupe flag.
fn run_compact_job(bg: &BgState, db: &DbCore) -> Result<(), StorageError> {
    if lock(&bg.q).paused_compaction {
        bg.requeue_compact();
        return Ok(());
    }
    db.compact_to_quiescence(|| lock(&bg.q).paused_compaction || lock(&bg.q).shutdown)?;
    if lock(&bg.q).paused_compaction {
        bg.requeue_compact();
        return Ok(());
    }
    bg.compact_finished();
    if db.compaction_needed() {
        bg.schedule_compact();
    }
    Ok(())
}
