//! The maintenance queue: flush and compaction jobs, and the threads
//! that drain it.
//!
//! There is one maintenance path. A full write buffer is frozen and its
//! **flush** (persist the frozen buffer as an L0 table) is queued; a
//! finished flush, a retune and L0 backpressure queue a **compact** job
//! (run the planner's cascade to quiescence), deduplicated so at most one
//! is queued or running, which keeps the single-compactor invariant the
//! version-install rebase relies on. Whoever pops a job runs it, exactly
//! once:
//! - [`BackgroundMode::Threaded`](crate::config::BackgroundMode) starts
//!   workers that pop jobs as they come;
//! - [`BackgroundMode::Inline`](crate::config::BackgroundMode) starts
//!   none: the thread that queued the work drains it before returning
//!   (`BgState::run_unattended`), and a caller that waits on queued
//!   work nobody else will run runs it itself (`BgState::wait_until`).
//!
//! Jobs pop shard tasks first, then a flush, then a compaction, so a
//! compaction a retune queued ahead of a flush still runs after it — in
//! the single-threaded `Inline` case that is the order the writer's own
//! flush and cascade always ran in.
//!
//! Lock hierarchy (outermost first): `DbCore::gc_lock` →
//! `DbCore::compaction_lock` → `DbCore::inner` → `BgState::q`. Condition-variable waits hold only the
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

/// One unit of maintenance work.
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
    /// Sub-compaction shards awaiting a thread. They pop before whole
    /// jobs (a shard is part of an already-running compaction, so
    /// finishing it unblocks more than starting new work would).
    shard_tasks: VecDeque<ShardTask>,
    /// Jobs popped but not yet completed.
    inflight: usize,
    /// Flushes queued since open, and flushes completed (run, failed or
    /// not): a caller that froze a buffer waits for `flushes_done` to
    /// reach the count its freeze returned.
    flushes_queued: u64,
    flushes_done: u64,
    /// A compact job is queued or running (dedupe flag).
    compact_scheduled: bool,
    /// Compact jobs are held in the queue (test hook; flushes still run).
    paused_compaction: bool,
    shutdown: bool,
    /// First maintenance error, surfaced once on the next maintenance call.
    error: Option<StorageError>,
    /// Sticky: a job failed at some point. No job runs after it.
    failed: bool,
}

impl BgQueue {
    /// Every flush queued so far has completed.
    pub(crate) fn flushed(&self, ticket: u64) -> bool {
        self.flushes_done >= ticket
    }

    /// No job is queued or running.
    pub(crate) fn idle(&self) -> bool {
        self.jobs.is_empty() && self.inflight == 0
    }

    /// Position of the next job to run: a flush, else a compaction unless
    /// paused; none once a job has failed or at shutdown.
    fn runnable(&self) -> Option<usize> {
        if self.failed || self.shutdown {
            return None;
        }
        self.jobs
            .iter()
            .position(|j| *j == Job::Flush)
            .or_else(|| self.jobs.iter().position(|_| !self.paused_compaction))
    }

    /// Pops the next work item (see [`BgQueue::runnable`]), counting a
    /// job as in flight.
    fn pop(&mut self) -> Option<Work> {
        if let Some(t) = self.shard_tasks.pop_front() {
            return Some(Work::Shard(t));
        }
        let job = self.jobs.remove(self.runnable()?)?;
        self.inflight += 1;
        Some(Work::Job(job))
    }
}

/// Condvar-based scheduler state. Shared via its own `Arc` so idle
/// workers can wait on it without keeping the engine alive.
#[derive(Default)]
pub(crate) struct BgState {
    q: Mutex<BgQueue>,
    /// Workers wait here for runnable jobs.
    work_cv: Condvar,
    /// Waiters wait here for progress (a job done, L0 drained).
    done_cv: Condvar,
    /// Worker threads draining the queue: 0 under `Inline`, where the
    /// threads that queue and wait on work run it.
    workers: usize,
}

fn lock(q: &Mutex<BgQueue>) -> MutexGuard<'_, BgQueue> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

impl BgState {
    /// A queue drained by `workers` threads (0: by its callers).
    pub(crate) fn new(workers: usize) -> Self {
        BgState {
            workers,
            ..Self::default()
        }
    }

    /// Queues the flush of a buffer just frozen and returns its ticket
    /// for [`BgQueue::flushed`]. The caller guarantees the frozen slot
    /// was empty, so at most one flush is ever pending.
    pub(crate) fn enqueue_flush(&self) -> u64 {
        let mut q = lock(&self.q);
        q.flushes_queued += 1;
        q.jobs.push_back(Job::Flush);
        let ticket = q.flushes_queued;
        drop(q);
        self.work_cv.notify_all();
        ticket
    }

    /// The ticket of the last flush queued: once it is done, every buffer
    /// frozen so far is in a table.
    pub(crate) fn flush_ticket(&self) -> u64 {
        lock(&self.q).flushes_queued
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

    /// Clears the compact dedupe flag when the cascade reaches quiescence.
    fn compact_finished(&self) {
        lock(&self.q).compact_scheduled = false;
    }

    /// Takes the stored maintenance error, if any. The `failed` flag stays
    /// sticky so later calls still refuse cheaply.
    pub(crate) fn take_error(&self) -> Option<StorageError> {
        let mut q = lock(&self.q);
        match q.error.take() {
            Some(e) => Some(e),
            None if q.failed => Some(StorageError::Corruption(
                "a maintenance job failed earlier".into(),
            )),
            None => None,
        }
    }

    pub(crate) fn pause_compaction(&self) {
        lock(&self.q).paused_compaction = true;
    }

    pub(crate) fn resume_compaction(&self) {
        lock(&self.q).paused_compaction = false;
        self.work_cv.notify_all();
    }

    /// Wakes everyone waiting for progress (version installed, L0 changed).
    pub(crate) fn notify_progress(&self) {
        self.done_cv.notify_all();
    }

    /// Blocks until `done` holds on the queue, a job has failed with none
    /// still running, or shutdown. With no workers the calling thread runs
    /// the runnable work itself, since nobody else will, and returns once
    /// none is left and no other caller is mid-job: nothing can change
    /// then. `done` runs under the queue mutex and must not take any
    /// engine lock.
    pub(crate) fn wait_until(&self, db: &DbCore, done: impl Fn(&BgQueue) -> bool) {
        let mut q = lock(&self.q);
        loop {
            if done(&q) || q.shutdown || (q.failed && q.inflight == 0) {
                return;
            }
            if self.workers == 0 {
                match q.pop() {
                    Some(work) => {
                        drop(q);
                        self.run(db, work);
                        q = lock(&self.q);
                        continue;
                    }
                    None if q.inflight == 0 => return,
                    None => {}
                }
            }
            q = self
                .done_cv
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The `Inline` drain: with no workers, runs every runnable queued
    /// job on the calling thread. A no-op when workers drain the queue.
    pub(crate) fn run_unattended(&self, db: &DbCore) {
        if self.workers == 0 {
            self.wait_until(db, |q| q.runnable().is_none());
        }
    }

    /// Gives maintenance `delay` to gain on a writer in the L0 slowdown
    /// band: the workers' time, or — with none — the queued work, run on
    /// the writer.
    pub(crate) fn yield_to_maintenance(&self, db: &DbCore, delay: Duration) {
        if self.workers == 0 {
            self.run_unattended(db);
        } else {
            std::thread::sleep(delay);
        }
    }

    /// Runs a batch of sub-compaction shard tasks, fanning them out across
    /// the worker pool, and returns once every task has finished.
    ///
    /// The calling thread (the compaction coordinator) **helps**: it pops
    /// and runs queued shard tasks itself while waiting. That makes the
    /// batch deadlock-free by construction — even with every worker busy
    /// (or no workers at all, where the coordinator runs the shards in
    /// queue order, one after another), the coordinator alone drains the
    /// queue. Shutdown mid-batch is likewise safe: workers stop taking
    /// shard tasks, and the coordinator finishes the remainder before
    /// returning.
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

    /// A worker's next work item; blocks while none is runnable. Returns
    /// `None` on shutdown.
    fn next_work(&self) -> Option<Work> {
        let mut q = lock(&self.q);
        loop {
            if q.shutdown {
                return None;
            }
            if let Some(work) = q.pop() {
                return Some(work);
            }
            q = self
                .work_cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Runs one popped work item; shard tasks are self-contained (they
    /// own their inputs).
    fn run(&self, db: &DbCore, work: Work) {
        match work {
            Work::Shard(t) => t(),
            Work::Job(job) => self.run_job(db, job),
        }
    }

    /// Runs one popped job and records its completion.
    fn run_job(&self, db: &DbCore, job: Job) {
        let result = match job {
            Job::Flush => {
                db.obs().bg_flush_jobs.inc();
                db.run_flush()
            }
            Job::Compact => {
                db.obs().bg_compact_jobs.inc();
                run_compact_job(self, db)
            }
        };
        self.complete(job, result);
    }

    /// Records a job's completion: counts a flush done, stores the first
    /// error, and wakes progress waiters.
    fn complete(&self, job: Job, result: Result<(), StorageError>) {
        let mut q = lock(&self.q);
        q.inflight -= 1;
        if job == Job::Flush {
            q.flushes_done += 1;
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
        bg.run_job(&db, job);
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
