//! The tutorial's tradeoff curves as gated assertions: every experiment of
//! the registry (`lsm_bench::experiments::ALL`) runs at the reduced scale
//! and every claim it registers must hold. A failure names the experiment
//! and cites the tutorial module whose curve bent; the full-scale tables
//! are `results/experiments.txt`, regenerated and diffed by
//! `scripts/verify.sh`.

use lsm_bench::{experiments, Scale};
use lsm_design_space::core::{
    CachePolicy, FilePicker, FilterKind, IndexKind, MergeLayout, RangeFilterKind,
};

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

    // DESIGN.md's knob table says every variant of a config enum is told
    // from its neighbours by an experiment: each label is a word of some report
    let mut labels: Vec<&str> = Vec::new();
    labels.extend(FilterKind::ALL.map(|k| k.label()));
    labels.extend(CachePolicy::ALL.map(|p| p.label()));
    labels.extend(FilePicker::ALL.map(|p| p.label()));
    let hybrid = MergeLayout::Hybrid(vec![]);
    labels.extend([MergeLayout::Leveled, MergeLayout::Tiered, MergeLayout::LazyLeveled, hybrid].map(|l| l.label()));
    labels.extend(
        [IndexKind::Fence, IndexKind::Sparse { rate: 1 }, IndexKind::Pla { epsilon: 1 }].map(|i| i.label()),
    );
    labels.extend(
        [
            RangeFilterKind::PrefixBloom { prefix_len: 1 },
            RangeFilterKind::Surf { suffix_bits: 0 },
            RangeFilterKind::Rosetta,
            RangeFilterKind::Snarf,
        ]
        .map(|f| f.label()),
    );
    let words: std::collections::HashSet<&str> = reports
        .iter()
        .flat_map(|r| r.render().split(|c: char| !c.is_alphanumeric() && c != '-'))
        .collect();
    labels.retain(|l| !words.contains(l));
    assert!(labels.is_empty(), "config enum variants that no experiment reports: {labels:?}");
}
