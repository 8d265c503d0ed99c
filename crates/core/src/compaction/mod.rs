//! Compaction: planning (which level, which shape of merge), file picking
//! (partial compaction), and merge execution — the compaction primitives
//! of Sarkar et al. that tutorial Module I.2 builds on:
//! *trigger* ([`plan`]), *data layout* ([`crate::config::MergeLayout`]),
//! *granularity* ([`crate::config::CompactionGranularity`]), and *data
//! movement policy* ([`picker`]).

pub mod exec;
pub mod picker;
pub mod subcompact;

use crate::config::LsmConfig;
use crate::version::Version;

/// A planned compaction step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionTask {
    /// Merge every run of `level` with the overlapping tables of the
    /// single run in `level + 1` (leveled target).
    MergeIntoNext {
        /// Source level.
        level: usize,
    },
    /// Merge every run of `level` into one new run appended to `level + 1`
    /// (tiered target) — no data from `level + 1` is rewritten.
    AppendToNext {
        /// Source level.
        level: usize,
    },
    /// Merge the runs of `level` into a single run in place (major
    /// compaction of the last level).
    MergeInPlace {
        /// The level.
        level: usize,
    },
    /// Move one picked table from `level`'s run into `level + 1`
    /// (partial compaction).
    PartialIntoNext {
        /// Source level.
        level: usize,
    },
}

impl CompactionTask {
    /// The source level of the task.
    pub fn level(&self) -> usize {
        match *self {
            CompactionTask::MergeIntoNext { level }
            | CompactionTask::AppendToNext { level }
            | CompactionTask::MergeInPlace { level }
            | CompactionTask::PartialIntoNext { level } => level,
        }
    }
}

/// The compaction trigger: finds the shallowest level violating its run
/// cap or byte capacity and plans one step. Returns `None` when the tree
/// satisfies every constraint. Callers loop until `None` (each step can
/// create a violation one level deeper — the compaction cascade).
pub fn plan(version: &Version, cfg: &LsmConfig) -> Option<CompactionTask> {
    let last = version.last_occupied_level()?;
    let t = cfg.size_ratio;
    for i in 0..=last {
        let level = &version.levels[i];
        if level.is_empty() {
            continue;
        }
        let cap_runs = if i == 0 {
            cfg.l0_run_cap
        } else {
            cfg.layout.run_cap(i, last + 1, t)
        };
        let over_runs = level.runs.len() > cap_runs;
        let over_bytes = level.bytes() > cfg.level_capacity_bytes(i);
        if !over_runs && !over_bytes {
            continue;
        }
        // the target's layout decides merge-vs-append
        let target_cap = cfg.layout.run_cap(i + 1, (last + 1).max(i + 2), t);
        let target_tiered = target_cap > 1;
        if over_runs && i == last && cap_runs == 1 && level.runs.len() > 1 {
            return Some(CompactionTask::MergeInPlace { level: i });
        }
        if over_bytes && !over_runs && i != 0 {
            if cap_runs == 1 {
                if let crate::config::CompactionGranularity::Partial(_) = cfg.granularity {
                    return Some(CompactionTask::PartialIntoNext { level: i });
                }
            }
            return Some(if target_tiered {
                CompactionTask::AppendToNext { level: i }
            } else {
                CompactionTask::MergeIntoNext { level: i }
            });
        }
        return Some(if target_tiered {
            CompactionTask::AppendToNext { level: i }
        } else {
            CompactionTask::MergeIntoNext { level: i }
        });
    }
    None
}

/// Whether tombstones may be garbage-collected by a merge whose output
/// lands at `target_level`: allowed iff nothing deeper holds data and the
/// merge consumes every run that could contain older versions of the
/// merged keys.
pub fn may_drop_tombstones(version: &Version, target_level: usize, consumes_whole_target: bool) -> bool {
    let deeper_empty = version
        .levels
        .iter()
        .skip(target_level + 1)
        .all(|l| l.is_empty());
    let target_single_run = version
        .levels
        .get(target_level)
        .is_none_or(|l| l.runs.iter().filter(|r| !r.is_empty()).count() <= 1);
    deeper_empty && (consumes_whole_target || target_single_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompactionGranularity, FilePicker, MergeLayout};

    // Plan logic is exercised end-to-end through `Db` tests; here we cover
    // the pure decision function with synthetic versions built from real
    // tiny tables.
    use crate::entry::ValueKind;
    use crate::sstable::{Table, TableBuilder};
    use crate::version::SortedRun;
    use lsm_index::IndexKind;
    use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};
    use std::sync::Arc;

    fn tiny_table(tag: usize, n: usize) -> Arc<Table> {
        let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let cfg = LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        };
        let mut b = TableBuilder::new(dev, &cfg, 10.0).unwrap();
        for i in 0..n {
            b.add(
                format!("t{tag:02}k{i:06}").as_bytes(),
                i as u64,
                ValueKind::Put,
                &[0u8; 64],
            )
            .unwrap();
        }
        let (f, _) = b.finish().unwrap();
        Table::open(f, IndexKind::Fence).unwrap()
    }

    fn version_with(l0_runs: usize, per_run_entries: usize) -> Version {
        let mut v = Version::new();
        v.ensure_levels(4);
        for r in 0..l0_runs {
            v.levels[0]
                .runs
                .push(SortedRun::single(tiny_table(r, per_run_entries)));
        }
        v
    }

    fn cfg(layout: MergeLayout) -> LsmConfig {
        LsmConfig {
            layout,
            l0_run_cap: 2,
            size_ratio: 4,
            buffer_bytes: 4 << 10,
            block_size: 512,
            ..LsmConfig::small_for_tests()
        }
    }

    #[test]
    fn no_violation_no_plan() {
        let v = version_with(1, 10);
        assert_eq!(plan(&v, &cfg(MergeLayout::Leveled)), None);
    }

    #[test]
    fn l0_over_runs_plans_merge_into_next_for_leveled() {
        let v = version_with(3, 10);
        assert_eq!(
            plan(&v, &cfg(MergeLayout::Leveled)),
            Some(CompactionTask::MergeIntoNext { level: 0 })
        );
    }

    #[test]
    fn l0_over_runs_plans_append_for_tiered() {
        let v = version_with(3, 10);
        assert_eq!(
            plan(&v, &cfg(MergeLayout::Tiered)),
            Some(CompactionTask::AppendToNext { level: 0 })
        );
    }

    #[test]
    fn lazy_leveling_appends_until_last_level() {
        // lazy: level 1 is the last occupied → target of L0 is leveled
        let mut v = version_with(3, 10);
        v.levels[1].runs.push(SortedRun::single(tiny_table(9, 10)));
        let task = plan(&v, &cfg(MergeLayout::LazyLeveled)).unwrap();
        assert_eq!(task, CompactionTask::MergeIntoNext { level: 0 });
    }

    #[test]
    fn size_violation_with_partial_granularity() {
        let mut config = cfg(MergeLayout::Leveled);
        config.granularity = CompactionGranularity::Partial(FilePicker::RoundRobin);
        config.buffer_bytes = 512; // level 1 capacity = 512 * 4 = 2 KiB
        let mut v = Version::new();
        v.ensure_levels(3);
        // a single large run at level 1, over its byte budget
        v.levels[1].runs.push(SortedRun::from_tables(vec![tiny_table(0, 300)]));
        let task = plan(&v, &config).unwrap();
        assert_eq!(task, CompactionTask::PartialIntoNext { level: 1 });
    }

    #[test]
    fn last_level_run_cap_violation_merges_in_place() {
        let mut v = Version::new();
        v.ensure_levels(2);
        // two runs in level 1, which lazy-leveling wants single-run
        v.levels[1].runs.push(SortedRun::single(tiny_table(0, 200)));
        v.levels[1].runs.push(SortedRun::single(tiny_table(1, 200)));
        let mut config = cfg(MergeLayout::LazyLeveled);
        config.buffer_bytes = 1 << 20; // no byte violation
        let task = plan(&v, &config).unwrap();
        assert_eq!(task, CompactionTask::MergeInPlace { level: 1 });
    }

    #[test]
    fn tombstone_drop_rules() {
        let mut v = Version::new();
        v.ensure_levels(4);
        v.levels[1].runs.push(SortedRun::single(tiny_table(0, 10)));
        // target 2, nothing deeper → allowed
        assert!(may_drop_tombstones(&v, 2, true));
        // target 0 but level 1 has data → not allowed
        assert!(!may_drop_tombstones(&v, 0, true));
        // deeper data present
        v.levels[3].runs.push(SortedRun::single(tiny_table(1, 10)));
        assert!(!may_drop_tombstones(&v, 2, true));
        // appending a run to a multi-run last level without consuming it
        let mut v2 = Version::new();
        v2.ensure_levels(2);
        v2.levels[1].runs.push(SortedRun::single(tiny_table(2, 10)));
        v2.levels[1].runs.push(SortedRun::single(tiny_table(3, 10)));
        assert!(!may_drop_tombstones(&v2, 1, false));
        assert!(may_drop_tombstones(&v2, 1, true));
    }

    #[test]
    fn task_level_accessor() {
        assert_eq!(CompactionTask::MergeIntoNext { level: 3 }.level(), 3);
        assert_eq!(CompactionTask::MergeInPlace { level: 1 }.level(), 1);
    }
}
