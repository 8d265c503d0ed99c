//! Module III — tuning: model-guided navigation of the design space (E11)
//! and robust tuning under workload drift (E12). Every workload is
//! synthesized as a deterministic trace and recovered through the *shared*
//! estimator ([`lsm_tuner::WorkloadEstimate`], the code path the online
//! tuner runs over metrics deltas), so the navigator here consumes exactly
//! what the self-tuner would.

use lsm_model::navigator::Environment;
use lsm_model::robust::{robust_navigate, WorkloadNeighborhood};
use lsm_model::{navigate, DesignSpace, MergePolicy, WorkloadProfile};

use crate::*;

fn environment(n: u64) -> Environment {
    Environment {
        num_entries: n,
        entry_bytes: MODEL_ENTRY_BYTES as u64,
        entries_per_block: 1024 / MODEL_ENTRY_BYTES as u64,
        total_memory_bytes: 256 << 10,
    }
}

/// A small candidate grid, kept coarse so every cell can be measured.
fn design_space() -> DesignSpace {
    DesignSpace {
        policies: vec![MergePolicy::Leveling, MergePolicy::Tiering, MergePolicy::LazyLeveling],
        size_ratios: vec![4, 8],
        buffer_fractions: vec![0.25],
        try_monkey: false,
    }
}

fn profile(writes: f64, point_reads: f64, range_reads: f64, range_entries: f64) -> WorkloadProfile {
    WorkloadProfile {
        writes,
        point_reads: point_reads / 2.0,
        empty_point_reads: point_reads / 2.0,
        range_reads,
        range_entries,
    }
}

/// E11 — the analytical navigator ranks a candidate grid per workload, then
/// every candidate is *built and measured* on the same trace.
pub fn e11(scale: Scale, r: &mut Report) {
    let n = scale.pick(50_000u64, 4_000);
    let ops = scale.pick(20_000u64, 1_500);
    r.line(format!("{n} keys, {ops}-operation traces"));
    let workloads = [
        ("write-heavy", profile(0.9, 0.1, 0.0, 0.0)),
        ("read-heavy", profile(0.1, 0.9, 0.0, 0.0)),
        ("scan-heavy", profile(0.2, 0.2, 0.6, 200.0)),
    ];
    let mut regrets = Vec::new();
    let mut picked_worst = Vec::new();
    let mut estimate_error = 0.0f64;
    for (name, intended) in workloads {
        r.line(format!("workload: {name}"));
        let trace = synth_trace(&intended, ops, n, 64);
        let est = estimate_of(&trace);
        let w = est.profile();
        let ranked = navigate(&design_space(), &environment(n), &w);
        let measured: Vec<f64> = ranked.iter().map(|c| measured_trace_cost(c, &trace, n)).collect();
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .zip(&measured)
            .map(|(c, &m)| {
                vec![
                    c.design.policy.label().to_string(),
                    c.design.size_ratio.to_string(),
                    format!("{:.4}", c.cost),
                    f3(m),
                ]
            })
            .collect();
        r.table(&["design", "T", "model cost", "measured blk/op"], &rows);
        let best = (0..measured.len()).min_by(|&a, &b| measured[a].total_cmp(&measured[b])).unwrap();
        let worst = measured.iter().copied().fold(f64::MIN, f64::max);
        let regret = measured[0] / measured[best] - 1.0;
        r.line(format!(
            "  estimated mix: {:.0}% writes / {:.0}% reads / {:.0}% scans ({:.0}% of lookups empty)",
            w.writes * 100.0,
            (w.point_reads + w.empty_point_reads) * 100.0,
            w.range_reads * 100.0,
            est.empty_read_fraction() * 100.0,
        ));
        r.line(format!(
            "  model picked {} ({:.3} blk/op); measured best {} ({:.3}); regret {:.1}%\n",
            ranked[0].design.policy.label(),
            measured[0],
            ranked[best].design.policy.label(),
            measured[best],
            regret * 100.0
        ));
        regrets.push((name, regret));
        picked_worst.push(measured[0] == worst);
        let reads = |p: &WorkloadProfile| p.point_reads + p.empty_point_reads;
        for (estimated, synthesized) in [
            (w.writes, intended.writes),
            (reads(&w), reads(&intended)),
            (w.range_reads, intended.range_reads),
            (est.empty_read_fraction(), 0.5),
        ] {
            estimate_error = estimate_error.max((estimated - synthesized).abs());
        }
    }
    let cite = "Module III.1";
    let show = |regret: f64| format!("regret {:.1} %", regret * 100.0);
    r.claim(
        cite,
        "the shared estimator recovers each synthesized mix (every class and the empty-lookup share within 1 pp)",
        estimate_error <= 0.01,
        format!("largest error {:.2} pp", estimate_error * 100.0),
    );
    // the candidates only separate in a tree of three or more levels: below
    // that their measured costs tie and the ranking claims are noise
    r.claim_at_full_scale(
        cite,
        "on the write-heavy workload the model's pick is the measured optimum (regret at most 1 %)",
        regrets[0].1 <= 0.01,
        show(regrets[0].1),
    );
    r.claim_at_full_scale(
        cite,
        "on the scan-heavy workload the model's pick is the measured optimum (regret at most 1 %)",
        regrets[2].1 <= 0.01,
        show(regrets[2].1),
    );
    r.claim_at_full_scale(
        cite,
        "the model's pick is never the measured-worst design",
        !picked_worst.contains(&true),
        format!("picked the worst on {} of 3 workloads", picked_worst.iter().filter(|&&w| w).count()),
    );
    r.gap(
        cite,
        "the model's pick has single-digit regret on every workload",
        regrets.iter().all(|&(_, regret)| regret < 0.10),
        regrets
            .iter()
            .map(|&(name, regret)| format!("{name} {:.1} %", regret * 100.0))
            .collect::<Vec<_>>()
            .join(", "),
        "on the read-heavy mix the model's top four candidates are within 4 % of each other; \
         measured compaction dynamics, which the worst-case model ignores, break the tie",
    );
}

/// E12 — the nominal navigator tunes for the expected workload, the robust
/// one minimizes worst-case modeled cost over a drift neighborhood; both
/// tunings are then measured as forecast and under drift (Endure).
pub fn e12(scale: Scale, r: &mut Report) {
    let n = scale.pick(50_000u64, 16_000);
    let ops = scale.pick(15_000u64, 2_000);
    r.line(format!("{n} keys, {ops}-operation traces"));
    // expectation: write-heavy with occasional scans; reality may drift
    // toward the scans (tiering's weak spot)
    let intended = profile(0.93, 0.06, 0.01, 300.0);
    let center = estimate_of(&synth_trace(&intended, ops, n, 64)).profile();
    let neighborhood = WorkloadNeighborhood::new(center, 0.6);
    let (robust, nominal) = robust_navigate(&design_space(), &environment(n), &neighborhood);
    r.line(format!(
        "nominal tuning: {} T={}   robust tuning: {} T={}",
        nominal.design.policy.label(),
        nominal.design.size_ratio,
        robust.design.policy.label(),
        robust.design.size_ratio
    ));
    let observed = [
        ("as forecast (93% writes)", intended),
        ("drift: balanced", profile(0.5, 0.3, 0.2, 300.0)),
        ("drift: scan-heavy (15% writes)", profile(0.15, 0.2, 0.65, 300.0)),
    ];
    let mut rows = Vec::new();
    let mut cost = Vec::new();
    for (name, w) in observed {
        let trace = synth_trace(&w, ops, n, 64);
        let (cn, cr) = (measured_trace_cost(&nominal, &trace, n), measured_trace_cost(&robust, &trace, n));
        rows.push(vec![name.to_string(), f3(cn), f3(cr)]);
        cost.push((cn, cr));
    }
    r.table(&["observed workload", "nominal blk/op", "robust blk/op"], &rows);
    let worst_nominal = cost.iter().map(|c| c.0).fold(0.0, f64::max);
    let worst_robust = cost.iter().map(|c| c.1).fold(0.0, f64::max);
    r.line(format!("worst case: nominal {worst_nominal:.3} vs robust {worst_robust:.3} blk/op\n"));
    // "Towards Flexibility and Robustness of LSM Trees" (PAPERS.md)
    let cite = "Module III.2 (Endure)";
    r.claim(
        cite,
        "the nominal tuning wins when the forecast holds",
        cost[0].0 < cost[0].1,
        format!("{:.3} vs {:.3} blk/op", cost[0].0, cost[0].1),
    );
    // a 0.5 % margin at full scale; smaller trees land on either side of it
    r.claim_at_full_scale(
        cite,
        "the robust tuning's worst case over the drift is no worse than the nominal's",
        worst_robust <= worst_nominal,
        format!(
            "{worst_robust:.3} vs {worst_nominal:.3} blk/op (margin {:.2} %)",
            (1.0 - worst_robust / worst_nominal) * 100.0
        ),
    );
}
