//! Compaction on the engine side: planning against the current version,
//! running the merge, and installing the outputs.
//!
//! One cascade serves every caller — the compact job, whichever thread
//! pops it (a worker, or under `Inline` the writer that queued it), and
//! `compact`/`major_compact` on the calling thread. It holds
//! `compaction_lock` throughout and takes `inner` only to plan and to
//! install, so the merges run with no engine lock and readers overlap
//! them under both schedules.
//!
//! ## One install routine, at a moving frontier
//!
//! A merge installs its progress as it goes, not only at its end. Each
//! time the cut loop seals an output table whose largest key is `f` and
//! some input lies wholly at or below `f`, [`DbCore::install_merge`]
//! swaps in a version where
//! - the outputs sealed so far sit where the final install puts them;
//! - every input whose keys are all ≤ `f` has left (marked obsolete and
//!   cache-invalidated, so its file is deleted once the merge's own
//!   cursor and any snapshot let go of it);
//! - every input that straddles `f` stays with a floor `f`: no reader
//!   sees its keys ≤ `f`, which the outputs now answer for. Without the
//!   clip an input could bring back a key whose tombstone the merge
//!   garbage-collected into an earlier output.
//!
//! and persists the manifest, floors included. The final install is the
//! same routine with no frontier: every remaining input leaves. Every
//! compaction shape and [`DbCore::major_compact`] go through it, so the
//! device holds the live data plus at most one straddling input per run
//! and the table being built, not the whole merge twice.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use lsm_cache::{plan_prefetch, PrefetchCandidate};
use lsm_obs::EventKind;
use lsm_storage::{StorageError, StorageResult};

use super::{heat_key, DbCore, Inner};
use crate::compaction::exec::{merge_run_tables, MergeResult, OnSeal};
use crate::compaction::picker::pick_file;
use crate::compaction::subcompact;
use crate::compaction::{self, CompactionTask};
use crate::config::CompactionGranularity;
use crate::sstable::Table;
use crate::version::{RunTable, SortedRun, Version};

/// A compaction resolved to concrete inputs, ready to merge. Built under
/// the write lock; the merge itself runs without it.
struct PreparedCompaction {
    level: usize,
    target: usize,
    bits: f64,
    /// The inputs with their floors, youngest first; the merge takes
    /// them over when it starts.
    inputs: Vec<RunTable>,
    drop_tombstones: bool,
    apply: CompactionApply,
    /// Trace pairing id (the `CompactionStart` was emitted at prepare
    /// time; the final install emits the matching end).
    trace_id: u64,
    /// Input accounting captured at prepare time, repeated in the end
    /// event so each event stands alone.
    input_tables: u64,
    input_entries: u64,
    input_bytes: u64,
    /// Engine clock at prepare time, for the compaction-latency histogram.
    started_ns: u64,
}

/// How a merge's outputs are spliced into the target level.
enum CompactionApply {
    /// Replace the target level with one run: surviving target tables +
    /// outputs, sorted by key.
    ReplaceTargetRun,
    /// Prepend the outputs as the target level's youngest run (tiering).
    AppendRun,
    /// The outputs become the target level's oldest run: they replace the
    /// merged runs of the level itself (in-place merge) or every run of
    /// the tree (major compaction).
    InPlace,
}

/// Which install [`DbCore::install_merge`] makes.
enum Install<'a> {
    /// Mid-merge: the newest sealed output ends at this key.
    Frontier(&'a [u8]),
    /// The merge is done: every remaining input leaves.
    Final(&'a MergeResult),
}

/// A merge's progress as its installs see it.
struct Progress {
    /// Inputs still in the current version.
    remaining: Vec<Arc<Table>>,
    /// Every output sealed so far, in key order.
    outputs: Vec<Arc<Table>>,
    /// How many of `outputs` the current version holds.
    installed: usize,
}

/// Every table of `runs` with its floor, youngest run first.
fn all_tables(runs: &[SortedRun]) -> Vec<RunTable> {
    runs.iter().flat_map(SortedRun::run_tables).collect()
}

/// Smallest min key and largest max key across `tables`.
fn key_span(tables: &[RunTable]) -> (Vec<u8>, Vec<u8>) {
    let lo = tables.iter().map(|t| &t.table.meta().min_key).min();
    let hi = tables.iter().map(|t| &t.table.meta().max_key).max();
    (lo.cloned().unwrap_or_default(), hi.cloned().unwrap_or_default())
}

impl DbCore {
    /// Current L0 run count from the lock-free backpressure gauge. This
    /// is the signal the engine's own slowdown/stall bands key off
    /// ([`crate::LsmConfig::l0_slowdown_runs`] / [`crate::LsmConfig::l0_stall_runs`]);
    /// it is exposed so admission control can shed load *before* a
    /// writer blocks inside the engine.
    pub fn l0_run_count(&self) -> usize {
        self.l0_runs.load(Ordering::Acquire)
    }

    /// Runs the compaction cascade to quiescence without flushing, on the
    /// calling thread.
    pub fn compact(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        self.compact_to_quiescence(|| false)
    }

    /// Major compaction: flushes, then merges *everything* into a single
    /// run at the bottom level, garbage-collecting all tombstones and
    /// obsolete versions. The classic "full compaction" maintenance knob.
    pub fn major_compact(&self) -> StorageResult<()> {
        self.flush()?;
        let _c = self.compaction_lock.lock();
        let prep = {
            let version = Arc::clone(&self.inner.read().version);
            let Some(last) = version.last_occupied_level() else {
                return Ok(());
            };
            let inputs: Vec<RunTable> = version.levels.iter().flat_map(|l| all_tables(&l.runs)).collect();
            if inputs.len() <= 1 && version.total_runs() <= 1 {
                return Ok(());
            }
            let bits = self.bits_for_level(&version, last);
            // a version handle held across the merge would keep every input
            drop(version);
            self.start_compaction(0, last, bits, inputs, true, CompactionApply::InPlace)
        };
        self.run_compaction(prep)
    }

    /// Holds queued compactions (flushes still run). Paired with
    /// [`DbCore::resume_compaction`]; a test hook for building L0
    /// pressure deterministically. With no workers a writer that would
    /// wait on a held compaction goes on instead.
    pub fn pause_compaction(&self) {
        self.bg.pause_compaction();
    }

    /// Releases [`DbCore::pause_compaction`].
    pub fn resume_compaction(&self) {
        self.bg.resume_compaction();
    }

    /// Whether the planner sees work to do (used by the compact job to
    /// close the quiesce-vs-new-flush race).
    pub(crate) fn compaction_needed(&self) -> bool {
        let cfg = self.effective_config();
        let inner = self.inner.read();
        compaction::plan(&inner.version, &cfg).is_some()
    }

    /// The compaction cascade: plan → prepare → merge → install until the
    /// planner is satisfied, taking `inner` only briefly around each plan
    /// and each install; the merges themselves run without any engine
    /// lock. `stop` is polled between steps so a pause/shutdown aborts
    /// promptly. Serialized by `compaction_lock`.
    pub(crate) fn compact_to_quiescence(&self, stop: impl Fn() -> bool) -> StorageResult<()> {
        let _c = self.compaction_lock.lock();
        // a generous bound: each step strictly reduces pressure, so hitting
        // it means a planner bug, not a big workload
        for _ in 0..10_000 {
            if stop() {
                return Ok(());
            }
            // re-read per step so a retune staged mid-cascade is
            // picked up by the next planning pass
            let cfg = self.effective_config();
            let prep = {
                let mut inner = self.inner.write();
                match compaction::plan(&inner.version, &cfg) {
                    Some(task) => self.prepare_compaction(&mut inner, task)?,
                    None => None,
                }
            };
            let Some(prep) = prep else {
                return Ok(());
            };
            self.run_compaction(prep)?;
            self.bg.notify_progress();
        }
        Err(StorageError::Corruption(
            "compaction cascade failed to converge".into(),
        ))
    }

    /// Runs `prep`'s merge and installs it: at each frontier the merge
    /// reaches (see the module docs), then once more at its end. Takes
    /// the engine lock for each install only.
    fn run_compaction(&self, mut prep: PreparedCompaction) -> StorageResult<()> {
        let inputs = std::mem::take(&mut prep.inputs);
        let mut progress = Progress {
            remaining: inputs.iter().map(|t| Arc::clone(&t.table)).collect(),
            outputs: Vec::new(),
            installed: 0,
        };
        let result = self.execute_merge(&prep, inputs, &mut |sealed| {
            progress.outputs.push(Arc::clone(sealed));
            let frontier = sealed.meta().max_key.as_slice();
            // a frontier that releases no input would cost a manifest
            // write and free nothing
            if progress.remaining.iter().any(|t| t.meta().max_key.as_slice() <= frontier) {
                let mut inner = self.inner.write();
                self.install_merge(&mut inner, &prep, &mut progress, Install::Frontier(frontier))?;
            }
            Ok(())
        })?;
        let mut inner = self.inner.write();
        self.install_merge(&mut inner, &prep, &mut progress, Install::Final(&result))
    }

    /// The merge itself: serial `merge_run_tables` when
    /// `max_subcompactions` is 1 (or no boundary exists), otherwise the
    /// sharded path — its shards queued as tasks on the maintenance
    /// queue, fanned out across the workers or, with none, run one after
    /// another by this thread (same shards, same bytes). Emits per-shard
    /// `SubcompactionStart`/`End` events around the fan-out. Both paths
    /// report the same seals to `on_seal`.
    fn execute_merge(
        &self,
        prep: &PreparedCompaction,
        inputs: Vec<RunTable>,
        on_seal: OnSeal<'_>,
    ) -> StorageResult<MergeResult> {
        let boundaries = if self.cfg.max_subcompactions > 1 {
            let tables: Vec<Arc<Table>> = inputs.iter().map(|t| Arc::clone(&t.table)).collect();
            subcompact::shard_boundaries(&tables, self.cfg.max_subcompactions)
        } else {
            Vec::new()
        };
        if boundaries.is_empty() {
            // one shard ≡ the legacy serial path, I/O pattern included
            return merge_run_tables(
                &self.device,
                &self.cfg,
                self.cfg.index,
                prep.bits,
                inputs,
                prep.drop_tombstones,
                on_seal,
            );
        }
        let shards = boundaries.len() + 1;
        let ids: Vec<u64> = (0..shards)
            .map(|_| self.obs.next_subcompaction_id())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            self.obs.event(EventKind::SubcompactionStart {
                id: *id,
                compaction: prep.trace_id,
                shard: i as u32,
                shards: shards as u32,
            });
        }
        let sharded = subcompact::merge_tables_sharded_with(
            &self.device,
            &self.cfg,
            self.cfg.index,
            prep.bits,
            inputs,
            prep.drop_tombstones,
            &boundaries,
            &self.bg,
            on_seal,
        )?;
        for (i, (id, acc)) in ids.iter().zip(&sharded.shards).enumerate() {
            self.obs.event(EventKind::SubcompactionEnd {
                id: *id,
                compaction: prep.trace_id,
                shard: i as u32,
                input_entries: acc.entries_in,
                entries_written: acc.entries_written,
                tombstones_dropped: acc.tombstones_dropped,
                versions_dropped: acc.versions_dropped,
            });
        }
        Ok(sharded.merge)
    }

    /// Resolves a planned task into concrete inputs against the current
    /// version. Pure bookkeeping — no table I/O. Returns `None` when the
    /// task turns out to be vacuous.
    fn prepare_compaction(
        &self,
        inner: &mut Inner,
        task: CompactionTask,
    ) -> StorageResult<Option<PreparedCompaction>> {
        let version = Arc::clone(&inner.version);
        let level = task.level();
        let target = match task {
            CompactionTask::MergeInPlace { .. } => level,
            _ => level + 1,
        };
        let bits = self.bits_for_level(&version, target);
        // every task but a partial one consumes its whole source level
        let mut inputs: Vec<RunTable> = match task {
            CompactionTask::PartialIntoNext { .. } => Vec::new(),
            _ => all_tables(&version.levels[level].runs),
        };
        let drop_tombstones;
        let apply;
        match task {
            CompactionTask::MergeIntoNext { .. } => {
                let (lo, hi) = key_span(&inputs);
                match version.levels.get(target).map_or(&[][..], |l| &l.runs) {
                    // a single-run target keeps its non-overlapping tables
                    [] => {}
                    [run] => {
                        let range = run.overlapping_range(&lo, Some(&hi));
                        inputs.extend(range.map(|i| run.run_table(i)));
                    }
                    // transient multi-run target: fold everything in
                    runs => inputs.extend(all_tables(runs)),
                }
                drop_tombstones = compaction::may_drop_tombstones(&version, target, true);
                apply = CompactionApply::ReplaceTargetRun;
            }
            CompactionTask::AppendToNext { .. } => {
                drop_tombstones = compaction::may_drop_tombstones(&version, target, false)
                    && version.levels.get(target).is_none_or(|l| l.is_empty());
                apply = CompactionApply::AppendRun;
            }
            CompactionTask::MergeInPlace { .. } => {
                drop_tombstones = compaction::may_drop_tombstones(&version, level, true);
                apply = CompactionApply::InPlace;
            }
            CompactionTask::PartialIntoNext { .. } => {
                let CompactionGranularity::Partial(picker) = self.cfg.granularity else {
                    return Err(StorageError::Corruption(
                        "partial task without partial granularity".into(),
                    ));
                };
                let run = version.levels[level]
                    .runs
                    .first()
                    .cloned()
                    .unwrap_or_default();
                if run.tables.is_empty() {
                    return Ok(None);
                }
                if inner.rr_cursors.len() <= level {
                    inner.rr_cursors.resize(level + 1, 0);
                }
                let next_run = version.levels.get(target).and_then(|l| l.runs.first());
                let idx = pick_file(picker, &run, next_run, &mut inner.rr_cursors[level]);
                let victim = run.run_table(idx);
                if let Some(trun) = next_run {
                    let meta = victim.table.meta();
                    let range = trun.overlapping_range(&meta.min_key, Some(&meta.max_key));
                    inputs.extend(range.map(|i| trun.run_table(i)));
                }
                inputs.insert(0, victim);
                drop_tombstones = compaction::may_drop_tombstones(&version, target, true);
                apply = CompactionApply::ReplaceTargetRun;
            }
        }
        Ok(Some(self.start_compaction(level, target, bits, inputs, drop_tombstones, apply)))
    }

    /// Opens a compaction's trace: stamps the clock, totals the inputs,
    /// emits `CompactionStart`, and returns the job ready to merge.
    fn start_compaction(
        &self,
        level: usize,
        target: usize,
        bits: f64,
        inputs: Vec<RunTable>,
        drop_tombstones: bool,
        apply: CompactionApply,
    ) -> PreparedCompaction {
        let trace_id = self.obs.next_compaction_id();
        let input_tables = inputs.len() as u64;
        let input_entries: u64 = inputs.iter().map(|t| t.table.meta().num_entries).sum();
        let input_bytes: u64 = inputs.iter().map(|t| t.table.data_bytes()).sum();
        let started_ns = self.obs.now_ns();
        self.obs.event(EventKind::CompactionStart {
            id: trace_id,
            level: level as u32,
            target: target as u32,
            input_tables,
            input_entries,
            input_bytes,
        });
        PreparedCompaction {
            level,
            target,
            bits,
            inputs,
            drop_tombstones,
            apply,
            trace_id,
            input_tables,
            input_entries,
            input_bytes,
            started_ns,
        }
    }

    /// The one install routine of every merge (see the module docs):
    /// builds the merge's next version by *rebasing* onto the current one
    /// and swaps it in. Every input the frontier has passed (all of them,
    /// at the [`Install::Final`]) and every output an earlier install put
    /// in is filtered out wherever it sits; the inputs that straddle the
    /// frontier are clipped; surviving runs are kept in order; and the
    /// outputs sealed so far are spliced per the task shape. With no
    /// concurrent version changes (a single-threaded `Inline` run) the
    /// final install is exactly the direct splice; otherwise runs flushed
    /// to L0 during the merge survive untouched — the single-compactor
    /// invariant (`compaction_lock`) guarantees nothing else moved — and
    /// the value logs are the current version's, whatever GC did meanwhile.
    fn install_merge(
        &self,
        inner: &mut Inner,
        prep: &PreparedCompaction,
        progress: &mut Progress,
        install: Install<'_>,
    ) -> StorageResult<()> {
        let frontier = match install {
            Install::Frontier(f) => Some(f),
            Install::Final(result) => {
                progress.outputs.clone_from(&result.tables);
                None
            }
        };
        let (released, remaining): (Vec<_>, Vec<_>) = std::mem::take(&mut progress.remaining)
            .into_iter()
            .partition(|t| frontier.is_none_or(|f| t.meta().max_key.as_slice() <= f));
        progress.remaining = remaining;
        let gone: HashSet<u64> = released
            .iter()
            .chain(&progress.outputs[..progress.installed])
            .map(|t| t.id())
            .collect();
        let remaining: HashSet<u64> = progress.remaining.iter().map(|t| t.id()).collect();
        let cur = &inner.version;
        let mut new_version = Version { levels: Vec::new(), vlogs: cur.vlogs.clone() };
        new_version.ensure_levels(cur.levels.len().max(prep.target + 1));
        for (i, level) in cur.levels.iter().enumerate() {
            for run in &level.runs {
                let kept: Vec<RunTable> = run
                    .run_tables()
                    .filter(|t| !gone.contains(&t.table.id()))
                    .map(|mut t| {
                        if let Some(f) = frontier.filter(|_| remaining.contains(&t.table.id())) {
                            t.clip(f);
                        }
                        t
                    })
                    .collect();
                if !kept.is_empty() {
                    new_version.levels[i].runs.push(SortedRun::from_run_tables(kept));
                }
            }
        }
        let outputs = &progress.outputs;
        let target = &mut new_version.levels[prep.target].runs;
        match prep.apply {
            CompactionApply::ReplaceTargetRun if target.len() <= 1 => {
                let mut tables: Vec<RunTable> = target.iter().flat_map(SortedRun::run_tables).collect();
                target.clear();
                tables.extend(outputs.iter().cloned().map(RunTable::from));
                tables.sort_by(|a, b| a.lower().cmp(&b.lower()));
                if !tables.is_empty() {
                    target.push(SortedRun::from_run_tables(tables));
                }
            }
            // a transient multi-run target (every run of it an input) keeps
            // its clipped runs beside the outputs until the frontier passes
            // them; at the final install none is left
            CompactionApply::ReplaceTargetRun | CompactionApply::AppendRun => {
                if !outputs.is_empty() {
                    target.insert(0, SortedRun::from_tables(outputs.clone()));
                }
            }
            CompactionApply::InPlace => {
                // outputs merge the *oldest* runs of the level, so they go
                // after any runs flushed while the merge ran
                if !outputs.is_empty() {
                    target.push(SortedRun::from_tables(outputs.clone()));
                }
            }
        }
        progress.installed = progress.outputs.len();

        match install {
            Install::Frontier(_) => self.obs.stats.frontier_installs.inc(),
            Install::Final(result) => {
                self.obs.stats.largest_compaction_entries.record_max(result.entries_written);
                self.obs.stats.compactions.inc();
                self.obs.stats.compaction_entries.add(result.entries_written);
                self.obs.stats.tombstones_dropped.add(result.tombstones_dropped);
                self.obs.stats.versions_dropped.add(result.versions_dropped);
            }
        }
        self.install_version(inner, new_version);
        self.persist_manifest(inner)?;
        if let Install::Final(result) = install {
            self.obs.event(EventKind::CompactionEnd {
                id: prep.trace_id,
                level: prep.level as u32,
                target: prep.target as u32,
                input_tables: prep.input_tables,
                input_entries: prep.input_entries,
                input_bytes: prep.input_bytes,
                output_tables: result.tables.len() as u64,
                entries_written: result.entries_written,
                output_bytes: result.output_bytes,
                tombstones_dropped: result.tombstones_dropped,
                versions_dropped: result.versions_dropped,
            });
            self.obs
                .compaction_ns
                .record(self.obs.now_ns().saturating_sub(prep.started_ns));
        }
        // invalidate cached blocks of the passed inputs and mark them
        // obsolete: their files are physically deleted when the last
        // reference (the merge's cursor, a snapshot or an in-flight
        // iterator) drops
        for t in &released {
            if let Some(cache) = &self.cache {
                t.invalidate_cached(cache);
            }
            t.mark_obsolete(&self.obs.superseded_bytes);
        }
        if let Install::Final(result) = install {
            self.prefetch_outputs(&result.tables)?;
        }
        Ok(())
    }

    /// Leaper-style prefetch: re-admits the hot blocks of a merge's new
    /// tables into the cache, when configured.
    fn prefetch_outputs(&self, tables: &[Arc<Table>]) -> StorageResult<()> {
        let Some(cache) = self.cache.as_ref().filter(|_| self.cfg.prefetch_after_compaction) else {
            return Ok(());
        };
        let mut candidates = Vec::new();
        for t in tables {
            let meta = t.meta();
            let mut prev_fence: Option<&[u8]> = None;
            for (i, fence) in meta.fences.iter().enumerate() {
                let min_key = prev_fence.unwrap_or(meta.min_key.as_slice());
                candidates.push(PrefetchCandidate {
                    file: t.id(),
                    block: i as u64,
                    min_key: heat_key(min_key),
                    max_key: heat_key(fence),
                });
                prev_fence = Some(fence.as_slice());
            }
        }
        let plan = {
            let heat = self.heat.lock();
            plan_prefetch(&heat, &candidates, 0.90, 256)
        };
        for key in plan {
            if let Some(t) = tables.iter().find(|t| t.id() == key.file) {
                t.read_data_block(key.block as usize, Some(cache))?;
                self.obs.stats.prefetched_blocks.inc();
            }
        }
        Ok(())
    }
}
