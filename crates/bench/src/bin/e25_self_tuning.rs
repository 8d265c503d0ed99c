//! E25 — self-driving tuning under workload drift (tutorial Module
//! III; Monkey + Dostoevsky + Endure closed into an online loop).
//!
//! A `MixShift` workload flips its operation mix at fixed op counts —
//! write-heavy → read-heavy → scan-heavy — so every *static*
//! configuration is wrong for at least one phase: tiering pays in the
//! read and scan phases, leveling pays in the write phase, and a fixed
//! filter budget is either wasted early or missing late. The adaptive
//! engine runs the same schedule with an [`lsm_tuner::Tuner`] ticked
//! every few thousand operations; it estimates the live mix from the
//! metrics registry, re-navigates the design space, and actuates by
//! installing a whole new config (`Db::set_config`; staged, never eager
//! rewrites).
//!
//! Expected shape: each static engine wins (or nearly wins) its home
//! phase, but the adaptive engine's *total* cost beats every static
//! config — the whole point of self-driving tuning. The retune trail
//! (policy switches, bloom reallocations, predicted vs observed gain)
//! is printed.

use lsm_bench::*;
use lsm_core::{Db, EventKind, FilterAllocation, LsmConfig, MergeLayout};
use lsm_obs::Event;
use lsm_tuner::{Tuner, TunerConfig};
use lsm_workload::mixshift::{MixShift, MixShiftSpec};
use lsm_workload::{encode_key, Operation};

fn spec(phase_ops: u64, key_space: u64) -> MixShiftSpec {
    let mut s = MixShiftSpec::default();
    for p in &mut s.phases {
        p.ops = phase_ops;
    }
    s.key_space = key_space;
    s
}

/// The online tuner over the bench geometry: memory budget covers the
/// 64 KiB write buffer plus a filter budget worth fighting over.
fn tuner_cfg(db: &Db) -> TunerConfig {
    TunerConfig {
        min_gain_milli: 30,
        cooldown_ticks: 1,
        min_ops_per_tick: 150,
        seed: 0,
        ..TunerConfig::for_db(db, MODEL_ENTRY_BYTES as u64, 128 << 10)
    }
}

fn apply(db: &Db, op: &Operation, key_space: u64) {
    match op {
        Operation::Put { key, value } => db.put(key.clone(), value.clone()).unwrap(),
        Operation::Delete { key } => db.delete(key.clone()).unwrap(),
        Operation::Get { key } => {
            db.get(key).unwrap();
        }
        Operation::Scan { start, limit } => {
            let mut end = encode_key(key_space * 2);
            end.push(b'z');
            db.scan(start.clone()..end, *limit).unwrap();
        }
        Operation::ReadModifyWrite { key, value } => {
            db.get(key).unwrap();
            db.put(key.clone(), value.clone()).unwrap();
        }
    }
}

struct RunResult {
    per_phase: Vec<f64>,
    total: f64,
    decisions: u64,
    events: Vec<Event>,
}

/// Runs the full MixShift schedule on one engine. `adaptive` attaches a
/// tuner ticked every `tick_every` ops; statics run the identical
/// stream untouched.
fn run_engine(
    cfg: LsmConfig,
    adaptive: bool,
    phase_ops: u64,
    key_space: u64,
    tick_every: u64,
) -> RunResult {
    let db = Db::open_in_memory(cfg).unwrap();
    let mut tuner = adaptive.then(|| Tuner::new(db.clone(), tuner_cfg(&db)));
    let mut gen = MixShift::new(spec(phase_ops, key_space));
    let mut per_phase = Vec::new();
    let mut io_prev = db.io_stats();
    for _ in 0..3 {
        for i in 0..phase_ops {
            apply(&db, &gen.next_op(), key_space);
            if (i + 1) % tick_every == 0 {
                if let Some(t) = tuner.as_mut() {
                    t.tick();
                }
            }
        }
        db.wait_background_idle();
        let io = db.io_stats();
        let d = io.delta_since(&io_prev);
        per_phase
            .push((d.total_read_blocks() + d.total_written_blocks()) as f64 / phase_ops as f64);
        io_prev = io;
    }
    let total = per_phase.iter().sum::<f64>() / 3.0;
    RunResult {
        per_phase,
        total,
        decisions: tuner.as_ref().map_or(0, |t| t.decisions()),
        events: db.drain_events(),
    }
}

fn main() {
    // this experiment asserts its own expected shape (adaptive beats
    // every static, with at least one policy switch), which only holds
    // once the tree is deep enough for layout to matter — so the scale
    // floors at DEFAULT_N instead of degrading under small LSM_BENCH_N
    let n = bench_n().max(DEFAULT_N);
    let phase_ops = (n / 4).max(1_500);
    let key_space = n.max(2_000);
    let tick_every = (phase_ops / 8).max(250);
    println!(
        "E25: self-driving tuning under MixShift drift — {key_space} key space, \
         3 phases x {phase_ops} ops, tuner ticked every {tick_every} ops\n"
    );

    let statics: Vec<(&str, LsmConfig)> = vec![
        ("static leveled T=4", base_config()),
        ("static tiered T=4", LsmConfig {
            layout: MergeLayout::Tiered,
            ..base_config()
        }),
        ("static lazy-leveled T=4", LsmConfig {
            layout: MergeLayout::LazyLeveled,
            ..base_config()
        }),
        ("static leveled monkey b=16", LsmConfig {
            bits_per_key: 16.0,
            filter_allocation: FilterAllocation::Monkey,
            ..base_config()
        }),
    ];

    let t = TablePrinter::new(&[
        "engine",
        "write blk/op",
        "read blk/op",
        "scan blk/op",
        "total blk/op",
    ]);
    let mut best_static = f64::INFINITY;
    for (label, cfg) in &statics {
        let r = run_engine(cfg.clone(), false, phase_ops, key_space, tick_every);
        t.print(&[
            label.to_string(),
            f3(r.per_phase[0]),
            f3(r.per_phase[1]),
            f3(r.per_phase[2]),
            f3(r.total),
        ]);
        best_static = best_static.min(r.total);
    }
    let adaptive = run_engine(base_config(), true, phase_ops, key_space, tick_every);
    t.print(&[
        "adaptive (tuner)".to_string(),
        f3(adaptive.per_phase[0]),
        f3(adaptive.per_phase[1]),
        f3(adaptive.per_phase[2]),
        f3(adaptive.total),
    ]);

    println!("\nretune trail ({} decisions):", adaptive.decisions);
    let mut policy_switches = 0usize;
    let mut bloom_reallocs = 0usize;
    let mut audits = 0usize;
    for e in &adaptive.events {
        match &e.kind {
            EventKind::Retune {
                decision,
                knob,
                from,
                to,
                predicted_gain_milli,
            } => {
                if *knob == "layout" {
                    policy_switches += 1;
                }
                if *knob == "bloom_bits" {
                    bloom_reallocs += 1;
                }
                println!(
                    "  #{decision} {knob}: {from} -> {to}  (predicted {:+.1}%)",
                    *predicted_gain_milli as f64 / 10.0
                );
            }
            EventKind::RetuneObserved {
                decision,
                knob,
                predicted_gain_milli,
                observed_gain_milli,
            } => {
                audits += 1;
                println!(
                    "  #{decision} {knob}: observed {:+.1}% vs predicted {:+.1}%",
                    *observed_gain_milli as f64 / 10.0,
                    *predicted_gain_milli as f64 / 10.0
                );
            }
            _ => {}
        }
    }

    println!(
        "\nadaptive {:.3} blk/op vs best static {:.3} blk/op ({:+.1}%)",
        adaptive.total,
        best_static,
        (adaptive.total - best_static) / best_static * 100.0
    );
    assert!(
        policy_switches >= 1,
        "adaptive run never switched merge policy"
    );
    assert!(
        bloom_reallocs >= 1,
        "adaptive run never reallocated its filter budget"
    );
    assert!(audits >= 1, "no observed-gain audit landed");
    assert!(
        adaptive.total < best_static,
        "adaptive ({:.3} blk/op) must beat every static config (best {best_static:.3})",
        adaptive.total
    );
    println!("expected shape: each static wins its home phase, but only the");
    println!("self-tuning engine is cheapest across the whole drift schedule.");
}
