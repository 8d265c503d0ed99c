//! The experiment registry: the tutorial's tradeoff curves, one entry per
//! experiment of DESIGN.md's index, grouped in one file per tutorial
//! module. Every entry runs `BackgroundMode::Inline` on the simulated
//! device, so its counted columns repeat exactly and its expected shape
//! can be asserted — see [`Report::claim`] and [`Report::gap`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Report, Scale};

mod filters;
mod index;
mod layout;
mod memory;
mod tuning;

/// One tradeoff curve of the tutorial.
pub struct Experiment {
    /// Registry id (`e01`…), the name the binary takes on its command line.
    pub id: &'static str,
    /// The tutorial module whose claim it regenerates.
    pub module: &'static str,
    pub title: &'static str,
    pub run: fn(Scale, &mut Report),
}

/// Every experiment, in the order of DESIGN.md's index.
pub const ALL: &[Experiment] = &[
    Experiment { id: "e01", module: "I.2", title: "the read/write tradeoff: merge policy × size ratio", run: layout::e01 },
    Experiment { id: "e02", module: "II.2", title: "Bloom bits/key sweep; partitioned filters", run: filters::e02 },
    Experiment { id: "e03", module: "II.5", title: "Monkey vs uniform filter allocation", run: filters::e03 },
    Experiment { id: "e04", module: "II.2", title: "the point-filter zoo", run: filters::e04 },
    Experiment { id: "e05", module: "II.3", title: "range filters vs range length", run: filters::e05 },
    Experiment { id: "e06", module: "II.1", title: "cache policies and compaction invalidation", run: memory::e06 },
    Experiment { id: "e07", module: "II.5", title: "buffer-vs-filter memory split", run: memory::e07 },
    Experiment { id: "e08", module: "I.2", title: "compaction granularity and file picking", run: layout::e08 },
    Experiment { id: "e09", module: "I.2", title: "hybrid shapes: the Dostoevsky cost triangle", run: layout::e09 },
    Experiment { id: "e10", module: "II.4", title: "fence pointers vs learned indexes", run: index::e10 },
    Experiment { id: "e11", module: "III.1", title: "navigating the design space with cost models", run: tuning::e11 },
    Experiment { id: "e12", module: "III.2", title: "robust tuning under workload drift", run: tuning::e12 },
    Experiment { id: "e13", module: "I.2", title: "key-value separation", run: layout::e13 },
    Experiment { id: "e14", module: "II.4", title: "the in-block hash index", run: index::e14 },
    Experiment { id: "e15", module: "II.2", title: "ElasticBF: hotness-aware filter units", run: filters::e15 },
    Experiment { id: "e16", module: "II.4", title: "access granularity: the block size", run: index::e16 },
    Experiment { id: "e17", module: "II.4", title: "restart interval: prefix compression", run: index::e17 },
    Experiment { id: "e18", module: "I.2", title: "write-stall tail latencies", run: layout::e18 },
];

/// Runs the experiments named in `ids` (all of them when `ids` is empty)
/// and returns their reports in registry order. Two run at a time: each
/// owns its devices and its simulated clock, so the tracked numbers do
/// not depend on what runs beside them.
pub fn run(scale: Scale, ids: &[String]) -> Result<Vec<Report>, String> {
    if let Some(unknown) = ids.iter().find(|id| ALL.iter().all(|e| e.id != id.as_str())) {
        let known: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        return Err(format!("unknown experiment {unknown:?}; the registry has {}", known.join(" ")));
    }
    let selected: Vec<&Experiment> = ALL
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id))
        .collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(e) = selected.get(i) else { return done };
            let mut report = Report::new(e.id, scale);
            report.line(format!("== {} · Module {} · {} ==", e.id, e.module, e.title));
            let started = std::time::Instant::now();
            (e.run)(scale, &mut report);
            report.wall(format!("ran in {:.1} s", started.elapsed().as_secs_f64()));
            done.push((i, report));
        }
    };
    let mut reports: Vec<(usize, Report)> = std::thread::scope(|s| {
        let workers = [s.spawn(worker), s.spawn(worker)];
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("an experiment panicked"))
            .collect()
    });
    reports.sort_by_key(|(i, _)| *i);
    Ok(reports.into_iter().map(|(_, r)| r).collect())
}

/// The closing lines of a run: how many claims were checked and skipped,
/// every registered gap, every failure.
pub fn summary(reports: &[Report]) -> String {
    let sum = |f: fn(&Report) -> usize| reports.iter().map(f).sum::<usize>();
    let failures: Vec<&String> = reports.iter().flat_map(Report::failures).collect();
    let gaps: Vec<&String> = reports.iter().flat_map(Report::gaps).collect();
    let mut out = format!(
        "== summary ==\n{} experiments, {} claims checked, {} failed, {} skipped at reduced scale, {} gaps\n",
        reports.len(),
        sum(Report::checked),
        failures.len(),
        sum(Report::skipped),
        gaps.len(),
    );
    for line in gaps.into_iter().chain(failures) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Whether `xs` strictly rises from each element to the next.
fn rising(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Whether `xs` strictly falls from each element to the next.
fn falling(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] > w[1])
}

/// Whether `a` is within `frac` of `b` (relative to `b`).
fn within(a: f64, b: f64, frac: f64) -> bool {
    (a - b).abs() <= frac * b.abs()
}

/// `xs` joined for a claim's measured text.
fn join(xs: &[f64], decimals: usize) -> String {
    let cells: Vec<String> = xs.iter().map(|x| format!("{x:.decimals$}")).collect();
    cells.join(", ")
}
