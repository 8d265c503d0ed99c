//! Runs the experiment registry at full scale: `experiments [id…]` (all of
//! them when no id is given). Stdout is the tracked
//! `results/experiments.txt` — tables, claim verdicts and the summary;
//! wall-clock observations go to stderr. Exits non-zero when a claim
//! fails.

use lsm_bench::{experiments, Scale};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let reports = experiments::run(Scale::Full, &ids).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for report in &reports {
        println!("{}", report.render());
        eprint!("{}", report.wall_clock());
    }
    print!("{}", experiments::summary(&reports));
    if reports.iter().any(|r| r.failed()) {
        std::process::exit(1);
    }
}
