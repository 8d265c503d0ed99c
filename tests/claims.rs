//! The tutorial's tradeoff curves as gated assertions: every experiment of
//! the registry (`lsm_bench::experiments::ALL`) runs at the reduced scale
//! and every claim it registers must hold. A failure names the experiment
//! and cites the tutorial module whose curve bent; the full-scale tables
//! are `results/experiments.txt`, regenerated and diffed by
//! `scripts/verify.sh`.

use lsm_bench::{experiments, Scale};

#[test]
fn every_registered_claim_holds_at_reduced_scale() {
    let reports = experiments::run(Scale::Reduced, &[]).unwrap();
    println!("{}", experiments::summary(&reports));
    assert_eq!(reports.len(), experiments::ALL.len());
    for (report, experiment) in reports.iter().zip(experiments::ALL) {
        assert!(report.checked() > 0, "{} checked no claim at reduced scale", experiment.id);
    }
    // a bent curve is shown with the table it was read from
    let bent: Vec<&str> = reports.iter().filter(|r| r.failed()).map(|r| r.render()).collect();
    assert!(bent.is_empty(), "{} experiments have failed claims:\n{}", bent.len(), bent.join("\n"));
}
