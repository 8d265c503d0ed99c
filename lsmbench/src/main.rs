//! `lsmbench` — the repo's perf ledger. One process runs one workload:
//!
//! ```text
//! lsmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures a shorter untraced window for the per-op and
//! counter metrics, then a traced run and the component probes for the
//! per-layer ones. It prints every metric as `name value unit`, and as its
//! last line one JSON object (`correct`, `attempted`, `failed`, `metrics`).
//! See README.md beside this package for what each workload and metric is.

mod common;
mod engine;
mod hist;
mod names;
mod probes;
mod served;
mod trace;

use common::{Outcome, Plan};

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

fn run(workload: &str, plan: &Plan) -> Option<Outcome> {
    Some(match workload {
        names::SERVED_READ_HOT => served::run(&served::READ_HOT, workload, plan),
        names::SERVED_MIXED => served::run(&served::MIXED, workload, plan),
        names::ENGINE_READ_COLD => engine::run(&engine::READ_COLD, workload, plan),
        names::ENGINE_WRITE_SCAN => engine::run(&engine::WRITE_SCAN, workload, plan),
        _ => return None,
    })
}

/// The metric list this mode must print, in ledger order.
fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &names::PER_LAYER
    } else {
        &names::END_TO_END
    }
}

/// The last line: exactly the keys the driver reads, values with all
/// their digits.
fn json_line(out: &Outcome, trace: bool) -> String {
    for name in out.metrics.0.keys() {
        let known = names::END_TO_END
            .iter()
            .chain(&names::PER_LAYER)
            .any(|(n, _)| n == name);
        assert!(
            known,
            "metric {name} is not in the ledger's vocabulary (names.rs)"
        );
    }
    let metrics: Vec<String> = expected(trace)
        .iter()
        .map(|(name, unit)| {
            // a per-layer metric this op mix cannot produce reads 0
            let v = out.metrics.0.get(name).copied().unwrap_or(0.0);
            assert!(
                trace || v > 0.0,
                "end-to-end metric {name} must be measured and non-zero"
            );
            assert!(v.is_finite(), "metric {name} is not a number");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: lsmbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names::WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].iter().position(|t| t == value).map(|t| t == 1),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let plan = Plan::new(seed, seconds, trace);
    let (stolen_before, t0) = (common::stolen_cpu_s(), std::time::Instant::now());
    let Some(mut out) = run(&workload, &plan) else {
        usage()
    };
    if let (Some(before), Some(after)) = (stolen_before, common::stolen_cpu_s()) {
        out.notes.push(format!(
            "hypervisor stole {:.2}s of CPU during this {:.1}s run",
            after - before,
            t0.elapsed().as_secs_f64()
        ));
    }

    println!(
        "# lsmbench workload={workload} seed={seed} seconds={seconds} trace={}",
        trace as u8
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, unit) in expected(trace) {
        println!(
            "{name} {} {unit}",
            out.metrics.0.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "failed_frac {} ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", json_line(&out, trace));
    if !out.correct {
        eprintln!("lsmbench: an answer carried wrong bytes");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"<key>": "<value>"` string pair of `json`, in file order.
    fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        json.match_indices(&pat)
            .map(|(at, _)| {
                let rest = &json[at + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn names_equal_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let metrics = names::END_TO_END.iter().chain(&names::PER_LAYER);
        let want_names: Vec<&str> = names::WORKLOADS
            .iter()
            .copied()
            .chain(metrics.clone().map(|m| m.0))
            .collect();
        assert_eq!(string_fields(json, "name"), want_names);
        assert_eq!(
            string_fields(json, "unit"),
            metrics.map(|m| m.1).collect::<Vec<_>>()
        );
    }

    /// All four workloads, both modes, at 1/200 scale: every metric name
    /// the ledger declares is emitted, nothing fails, nothing is wrong.
    #[test]
    fn smoke_all_workloads_at_small_scale() {
        for workload in names::WORKLOADS {
            for trace in [false, true] {
                let plan = Plan {
                    scale: 0.005,
                    out_dir: None,
                    ..Plan::new(7, 0.6, trace)
                };
                let out = run(workload, &plan).expect("known workload");
                assert!(out.correct, "{workload} trace={trace}: wrong bytes");
                assert_eq!(out.failed, 0, "{workload} trace={trace}: failed ops");
                assert!(out.attempted > 0);
                let line = json_line(&out, trace);
                for (name, _) in expected(trace) {
                    assert!(
                        line.contains(&format!("\"{name}\": {{")),
                        "{workload}: {name} missing"
                    );
                }
            }
        }
    }
}
