//! The tuning loop: metrics → estimate → model → actuation.
//!
//! A [`Tuner`] owns a [`Db`] handle and is *ticked* at points the caller
//! chooses (every N operations in a bench, on a `TUNE_STATUS` request in
//! the server). A tick never spawns threads and never consults wall
//! time, so under `BackgroundMode::Inline` the whole decision sequence
//! is a deterministic function of (workload, seed) — two identical runs
//! retune identically, byte for byte.
//!
//! Each tick:
//!
//! 1. snapshots the engine's metrics and diffs them against the
//!    previous tick ([`WorkloadEstimate::from_metrics_snapshot`]);
//! 2. if an actuation is pending audit, emits
//!    [`EventKind::RetuneObserved`] comparing the measured blocks/op
//!    against the model's prediction;
//! 3. runs the estimate through the navigator over the configured
//!    [`DesignSpace`] and compares the winner against the design of the
//!    engine's config in force ([`lsm_core::DbCore::effective_config`]);
//! 4. builds the next config — the one in force with the winner applied
//!    — and installs it whole through [`lsm_core::DbCore::set_config`],
//!    but only if the predicted relative gain clears the hysteresis
//!    threshold AND the cooldown has expired — the two guards that make
//!    oscillation impossible: a flip back is only considered
//!    `cooldown_ticks` later, and then only if the model predicts it
//!    wins by the same margin it just lost.
//!
//! Every actuation emits one [`EventKind::Retune`] per knob that differs
//! between the two configs into the engine's own event ring, so the
//! audit trail rides the existing observability pipeline.

use lsm_core::{Db, EventKind, FilterAllocation, LsmConfig, MergeLayout};
use lsm_model::navigator::Environment;
use lsm_model::{navigate, Candidate, CostModel, DesignSpace, LsmDesign, MergePolicy};
use lsm_obs::json::JsonObj;
use lsm_obs::MetricsSnapshot;

use crate::estimator::WorkloadEstimate;

/// Tuning-loop policy knobs.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Candidate grid the navigator searches each tick.
    pub space: DesignSpace,
    /// Environment constants (entry size, block fan-in, memory budget).
    /// `num_entries` is treated as a floor; the live entry count from the
    /// engine's counters replaces it once larger.
    pub env: Environment,
    /// Hysteresis: actuate only when the predicted relative gain is at
    /// least this many per-mille (e.g. 50 = 5%).
    pub min_gain_milli: i64,
    /// Ticks to hold still after an actuation (also the audit window).
    pub cooldown_ticks: u32,
    /// Ticks with fewer operations than this are ignored entirely.
    pub min_ops_per_tick: u64,
    /// Deterministic tie-break among exactly-equal-cost candidates.
    pub seed: u64,
}

impl Default for TunerConfig {
    /// Geometry-agnostic defaults: the three canonical policies × a
    /// coarse size-ratio grid, a small pinned buffer fraction, and a
    /// modest memory budget. Prefer [`TunerConfig::for_db`] when an
    /// engine handle is available — it pins the buffer fraction to the
    /// engine's real (non-resizable) buffer.
    fn default() -> Self {
        TunerConfig {
            space: DesignSpace {
                policies: vec![
                    MergePolicy::Leveling,
                    MergePolicy::Tiering,
                    MergePolicy::LazyLeveling,
                ],
                size_ratios: vec![2, 4, 6, 8, 10],
                buffer_fractions: vec![0.05],
                try_monkey: true,
            },
            env: Environment {
                num_entries: 10_000,
                entry_bytes: 80,
                entries_per_block: 12,
                total_memory_bytes: 64 << 10,
            },
            min_gain_milli: 50,
            cooldown_ticks: 2,
            min_ops_per_tick: 200,
            seed: 0,
        }
    }
}

impl TunerConfig {
    /// A config derived from the engine's own geometry: the buffer
    /// fraction is pinned to the engine's actual buffer (the memtable
    /// cannot be resized online), leaving layout, size ratio, and filter
    /// memory as the searched axes.
    pub fn for_db(db: &Db, entry_bytes: u64, total_memory_bytes: u64) -> Self {
        let cfg = db.config();
        let frac = (cfg.buffer_bytes as f64 / total_memory_bytes.max(1) as f64).clamp(0.01, 0.95);
        TunerConfig {
            space: DesignSpace {
                policies: vec![
                    MergePolicy::Leveling,
                    MergePolicy::Tiering,
                    MergePolicy::LazyLeveling,
                ],
                size_ratios: vec![2, 4, 6, 8, 10],
                buffer_fractions: vec![frac],
                try_monkey: true,
            },
            env: Environment {
                num_entries: 10_000,
                entry_bytes: entry_bytes.max(1),
                entries_per_block: (cfg.block_size as u64 / entry_bytes.max(1)).max(1),
                total_memory_bytes,
            },
            min_gain_milli: 50,
            cooldown_ticks: 2,
            min_ops_per_tick: 200,
            seed: 0,
        }
    }
}

/// What a tick did (primarily for tests and logging; the authoritative
/// audit trail is the engine's event ring).
#[derive(Clone, Debug, PartialEq)]
pub enum TickOutcome {
    /// Too few operations in the window to estimate.
    Insufficient,
    /// Holding still inside a post-retune cooldown.
    CoolingDown,
    /// Estimated and navigated, but no candidate cleared the hysteresis
    /// threshold over the current design.
    Held {
        /// Best predicted relative gain seen, in per-mille.
        predicted_gain_milli: i64,
    },
    /// Actuated a retune.
    Retuned {
        /// Decision ordinal (matches the emitted `Retune` events).
        decision: u64,
        /// Knobs that changed.
        knobs: Vec<&'static str>,
        /// Predicted relative gain, in per-mille.
        predicted_gain_milli: i64,
    },
}

/// A retune awaiting its observed-gain audit.
#[derive(Clone, Debug)]
struct PendingAudit {
    decision: u64,
    knob: &'static str,
    predicted_gain_milli: i64,
    /// Measured blocks/op over the window *before* actuation.
    baseline_blocks_per_op: f64,
    /// Ticks left before the audit fires (lets the new config take
    /// effect through at least one maintenance cycle).
    ticks_left: u32,
}

/// One applied decision, kept for `status_json`.
#[derive(Clone, Debug)]
struct RetuneRecord {
    decision: u64,
    knobs: Vec<&'static str>,
    predicted_gain_milli: i64,
    observed_gain_milli: Option<i64>,
}

/// The self-tuner for one engine. See the module docs for the loop.
pub struct Tuner {
    cfg: TunerConfig,
    db: Db,
    last_snapshot: Option<MetricsSnapshot>,
    last_estimate: WorkloadEstimate,
    cooldown: u32,
    ticks: u64,
    decisions: u64,
    pending: Vec<PendingAudit>,
    history: Vec<RetuneRecord>,
}

impl Tuner {
    /// Creates a tuner steering `db`.
    pub fn new(db: Db, cfg: TunerConfig) -> Self {
        Tuner {
            cfg,
            db,
            last_snapshot: None,
            last_estimate: WorkloadEstimate::default(),
            cooldown: 0,
            ticks: 0,
            decisions: 0,
            pending: Vec::new(),
            history: Vec::new(),
        }
    }

    /// The engine this tuner steers.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The most recent workload estimate.
    pub fn estimate(&self) -> &WorkloadEstimate {
        &self.last_estimate
    }

    /// Decisions actuated so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Runs one tick of the loop. Deterministic given the engine's
    /// metrics state and the tuner seed.
    pub fn tick(&mut self) -> TickOutcome {
        self.ticks += 1;
        let snapshot = self.db.metrics();
        let delta = match &self.last_snapshot {
            Some(prev) => snapshot.delta_since(prev),
            None => snapshot.clone(),
        };
        let live_entries = snapshot
            .counters
            .get("db.puts")
            .copied()
            .unwrap_or(0)
            .saturating_sub(snapshot.counters.get("db.deletes").copied().unwrap_or(0));
        self.last_snapshot = Some(snapshot);
        let estimate = WorkloadEstimate::from_metrics_snapshot(&delta);
        let ops = estimate.total_ops();
        if ops < self.cfg.min_ops_per_tick {
            return TickOutcome::Insufficient;
        }
        let blocks_per_op = Self::blocks_per_op(&delta, ops);
        self.last_estimate = estimate.clone();
        self.audit(blocks_per_op);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return TickOutcome::CoolingDown;
        }
        // --- model pass -------------------------------------------------
        let env = Environment {
            num_entries: live_entries.max(self.cfg.env.num_entries),
            ..self.cfg.env
        };
        let profile = estimate.profile();
        let effective = self.db.effective_config();
        let current = Self::design_of(&effective, env.entry_bytes);
        let current_cost =
            CostModel::new(current, env.num_entries, env.entries_per_block).workload_cost(&profile);
        let ranked = navigate(&self.cfg.space, &env, &profile);
        let chosen = Self::break_ties(&ranked, self.cfg.seed);
        let gain = if current_cost > 0.0 {
            (current_cost - chosen.cost) / current_cost
        } else {
            0.0
        };
        let gain_milli = (gain * 1000.0).round() as i64;
        if gain_milli < self.cfg.min_gain_milli {
            return TickOutcome::Held {
                predicted_gain_milli: gain_milli,
            };
        }
        // --- actuation --------------------------------------------------
        let next = Self::plan_update(&effective, &chosen.design, profile.writes);
        let labels = Self::knob_labels(&effective, &next);
        // an empty diff: the winner is the design we already run (e.g.
        // only the un-actuatable buffer axis differs); a rejected install
        // should not happen with the planned config, but never poisons
        // the loop
        if labels.is_empty() || self.db.set_config(next).is_err() {
            return TickOutcome::Held {
                predicted_gain_milli: gain_milli,
            };
        }
        self.decisions += 1;
        let decision = self.decisions;
        let knobs: Vec<&'static str> = labels.iter().map(|(knob, ..)| *knob).collect();
        for (knob, from, to) in labels {
            self.db.record_event(EventKind::Retune {
                decision,
                knob,
                from,
                to,
                predicted_gain_milli: gain_milli,
            });
        }
        self.pending.push(PendingAudit {
            decision,
            knob: knobs[0],
            predicted_gain_milli: gain_milli,
            baseline_blocks_per_op: blocks_per_op,
            ticks_left: self.cfg.cooldown_ticks.max(1),
        });
        self.history.push(RetuneRecord {
            decision,
            knobs: knobs.clone(),
            predicted_gain_milli: gain_milli,
            observed_gain_milli: None,
        });
        self.cooldown = self.cfg.cooldown_ticks;
        TickOutcome::Retuned {
            decision,
            knobs,
            predicted_gain_milli: gain_milli,
        }
    }

    /// Emits due `RetuneObserved` audits against this tick's measurement.
    fn audit(&mut self, blocks_per_op: f64) {
        let mut due = Vec::new();
        self.pending.retain_mut(|p| {
            if p.ticks_left > 1 {
                p.ticks_left -= 1;
                true
            } else {
                due.push(p.clone());
                false
            }
        });
        for p in due {
            let observed = if p.baseline_blocks_per_op > 0.0 {
                ((p.baseline_blocks_per_op - blocks_per_op) / p.baseline_blocks_per_op * 1000.0)
                    .round() as i64
            } else {
                0
            };
            self.db.record_event(EventKind::RetuneObserved {
                decision: p.decision,
                knob: p.knob,
                predicted_gain_milli: p.predicted_gain_milli,
                observed_gain_milli: observed,
            });
            if let Some(r) = self.history.iter_mut().find(|r| r.decision == p.decision) {
                r.observed_gain_milli = Some(observed);
            }
        }
    }

    /// Total device blocks moved per operation over a metrics delta.
    fn blocks_per_op(delta: &MetricsSnapshot, ops: u64) -> f64 {
        let blocks: u64 = delta
            .counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("io.")
                    && (name.ends_with(".read_blocks") || name.ends_with(".written_blocks"))
            })
            .map(|(_, v)| v)
            .sum();
        blocks as f64 / ops.max(1) as f64
    }

    /// The cost-model view of a running configuration.
    fn design_of(cfg: &LsmConfig, entry_bytes: u64) -> LsmDesign {
        let policy = match &cfg.layout {
            MergeLayout::Leveled => MergePolicy::Leveling,
            MergeLayout::Tiered => MergePolicy::Tiering,
            MergeLayout::LazyLeveled => MergePolicy::LazyLeveling,
            // hybrid has no closed form; leveling is the conservative read
            MergeLayout::Hybrid(_) => MergePolicy::Leveling,
        };
        LsmDesign {
            policy,
            size_ratio: cfg.size_ratio as u64,
            buffer_entries: (cfg.buffer_bytes as u64 / entry_bytes.max(1)).max(1),
            bits_per_key: cfg.bits_per_key,
            monkey: cfg.filter_allocation == FilterAllocation::Monkey,
        }
    }

    /// Picks from the ranked candidates, breaking *exact* cost ties with
    /// the seed (stable sort already makes the order deterministic; the
    /// seed only rotates among candidates the model cannot distinguish).
    fn break_ties(ranked: &[Candidate], seed: u64) -> Candidate {
        let best = ranked[0];
        let ties = ranked
            .iter()
            .take_while(|c| (c.cost - best.cost).abs() < 1e-12)
            .count();
        ranked[(seed % ties as u64) as usize]
    }

    /// The config that moves `current` toward `target`, including L0
    /// thresholds derived from the modeled write fraction: write-heavy
    /// phases earn more L0 slack before the engine pushes back;
    /// read-heavy phases keep L0 shallow so lookups probe fewer runs.
    fn plan_update(current: &LsmConfig, target: &LsmDesign, writes_frac: f64) -> LsmConfig {
        let mut next = current.clone();
        next.layout = match target.policy {
            MergePolicy::Leveling => MergeLayout::Leveled,
            MergePolicy::Tiering => MergeLayout::Tiered,
            MergePolicy::LazyLeveling => MergeLayout::LazyLeveled,
        };
        next.size_ratio = target.size_ratio as usize;
        let target_alloc = if target.monkey {
            FilterAllocation::Monkey
        } else {
            FilterAllocation::Uniform
        };
        // the model may award very generous per-key budgets in small
        // environments; the engine caps filters at 64 bits/key
        let target_bits = target.bits_per_key.clamp(0.0, 64.0);
        let bits_changed = (current.bits_per_key - target_bits).abs() >= 0.25;
        if bits_changed || current.filter_allocation != target_alloc {
            next.bits_per_key = target_bits;
            next.filter_allocation = target_alloc;
        }
        let slack = 1 + (writes_frac.clamp(0.0, 1.0) * 6.0).round() as usize;
        next.l0_slowdown_runs = current.l0_run_cap + slack;
        next.l0_stall_runs = next.l0_slowdown_runs + slack.max(2);
        next
    }

    /// `(knob, from, to)` labels of the tuner knobs that differ between
    /// two configs, in event-trail order.
    fn knob_labels(current: &LsmConfig, next: &LsmConfig) -> Vec<(&'static str, String, String)> {
        let bloom = |c: &LsmConfig| {
            let alloc = match c.filter_allocation {
                FilterAllocation::Uniform => "uniform",
                FilterAllocation::Monkey => "monkey",
            };
            format!("{:.1}/{alloc}", c.bits_per_key)
        };
        let l0 = |c: &LsmConfig| format!("{}/{}", c.l0_slowdown_runs, c.l0_stall_runs);
        let mut out = Vec::new();
        if current.layout != next.layout {
            out.push(("layout", format!("{:?}", current.layout), format!("{:?}", next.layout)));
        }
        if current.size_ratio != next.size_ratio {
            out.push(("size_ratio", current.size_ratio.to_string(), next.size_ratio.to_string()));
        }
        if current.bits_per_key != next.bits_per_key
            || current.filter_allocation != next.filter_allocation
        {
            out.push(("bloom_bits", bloom(current), bloom(next)));
        }
        if current.l0_slowdown_runs != next.l0_slowdown_runs
            || current.l0_stall_runs != next.l0_stall_runs
        {
            out.push(("l0_thresholds", l0(current), l0(next)));
        }
        out
    }

    /// One-line JSON status: tick/decision counters, the live estimate,
    /// and the engine's config in force — what `TUNE_STATUS` returns per
    /// shard.
    pub fn status_json(&self) -> String {
        let e = &self.last_estimate;
        let effective = self.db.effective_config();
        let observed: Vec<String> = self
            .history
            .iter()
            .map(|r| {
                let knobs = r
                    .knobs
                    .iter()
                    .map(|k| format!("\"{k}\""))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"decision\":{},\"knobs\":[{knobs}],\"predicted_gain_milli\":{},\"observed_gain_milli\":{}}}",
                    r.decision,
                    r.predicted_gain_milli,
                    r.observed_gain_milli
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "null".into()),
                )
            })
            .collect();
        JsonObj::new()
            .u64("ticks", self.ticks)
            .u64("decisions", self.decisions)
            .u64("cooldown", self.cooldown as u64)
            .u64("est_writes", e.writes)
            .u64("est_point_reads", e.point_reads)
            .u64("est_empty_point_reads", e.empty_point_reads)
            .u64("est_range_reads", e.range_reads)
            .u64(
                "est_empty_read_frac_milli",
                (e.empty_read_fraction() * 1000.0).round() as u64,
            )
            .u64("est_skew_milli", (e.skew * 1000.0).round() as u64)
            .str("layout", &format!("{:?}", effective.layout))
            .u64("size_ratio", effective.size_ratio as u64)
            .raw("bits_per_key", &format!("{:.3}", effective.bits_per_key))
            .u64("l0_slowdown_runs", effective.l0_slowdown_runs as u64)
            .u64("l0_stall_runs", effective.l0_stall_runs as u64)
            .raw("retunes", &format!("[{}]", observed.join(",")))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::LsmConfig;
    use lsm_workload::encode_key;

    fn tuner_for(db: &Db) -> Tuner {
        // a tight memory budget keeps modeled bits/key in a realistic
        // range, so filter quality actually differentiates the designs
        let mut cfg = TunerConfig::for_db(db, 80, 20 << 10);
        cfg.min_ops_per_tick = 100;
        Tuner::new(db.clone(), cfg)
    }

    fn write_burst(db: &Db, n: u64, tag: u64) {
        for i in 0..n {
            db.put(encode_key(tag * 1_000_000 + i), vec![7u8; 48]).unwrap();
        }
    }

    fn read_burst(db: &Db, n: u64) {
        for i in 0..n {
            db.get(&encode_key(i % 500)).unwrap();
            // absent key: drives the empty-read fraction up
            let mut k = encode_key(i % 500);
            k.push(b'!');
            db.get(&k).unwrap();
        }
    }

    #[test]
    fn write_heavy_workload_steers_away_from_leveling() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let mut tuner = tuner_for(&db);
        write_burst(&db, 3_000, 0);
        let out = tuner.tick();
        match out {
            TickOutcome::Retuned { ref knobs, .. } => {
                assert!(knobs.contains(&"layout"), "{out:?}");
                let layout = db.effective_config().layout.clone();
                assert_ne!(layout, MergeLayout::Leveled, "{out:?}");
            }
            other => panic!("expected a retune, got {other:?}"),
        }
        let events = db.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Retune { .. })));
    }

    #[test]
    fn hysteresis_and_cooldown_prevent_oscillation() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let mut tuner = tuner_for(&db);
        write_burst(&db, 2_000, 0);
        assert!(matches!(tuner.tick(), TickOutcome::Retuned { .. }));
        // identical traffic again: cooldown holds first, and any later
        // decision must be a *forward* adaptation (the data volume keeps
        // growing), never a flip back to a layout the tuner just left
        for tag in 1..6 {
            write_burst(&db, 2_000, tag);
            tuner.tick();
        }
        let layout_moves: Vec<(String, String)> = db
            .drain_events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Retune { knob: "layout", from, to, .. } => {
                    Some((from.clone(), to.clone()))
                }
                _ => None,
            })
            .collect();
        for pair in layout_moves.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "discontinuous moves: {layout_moves:?}");
            assert_ne!(pair[1].1, pair[0].0, "flip-flop: {layout_moves:?}");
        }
        // and cooldown bounds the rate: at most one decision per
        // (1 + cooldown) ticks
        assert!(tuner.decisions() <= 2, "too many retunes: {layout_moves:?}");
    }

    #[test]
    fn too_little_traffic_is_ignored() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let mut tuner = tuner_for(&db);
        write_burst(&db, 10, 0);
        assert_eq!(tuner.tick(), TickOutcome::Insufficient);
    }

    #[test]
    fn observed_gain_audit_lands_in_the_event_ring() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let mut tuner = tuner_for(&db);
        write_burst(&db, 3_000, 0);
        // each tick observes a quiescent tree, so the observed window is
        // the same under threaded background work as inline
        db.wait_background_idle();
        assert!(matches!(tuner.tick(), TickOutcome::Retuned { .. }));
        db.drain_events();
        // drained after every tick: under threaded background work the
        // next burst's stall events can push an older audit out of the
        // bounded ring
        let mut events = Vec::new();
        for tag in 1..4 {
            write_burst(&db, 2_000, tag);
            db.wait_background_idle();
            tuner.tick();
            events.extend(db.drain_events());
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::RetuneObserved { .. })),
            "audit event missing: {events:?}"
        );
    }

    #[test]
    fn read_heavy_phase_tightens_l0_thresholds() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let mut tuner = tuner_for(&db);
        // a sharper trigger so the phase change overcomes the (already
        // decent) write-phase design within this short run
        tuner.cfg.min_gain_milli = 20;
        write_burst(&db, 2_000, 0);
        let mut outcomes = vec![format!("{:?}", tuner.tick())];
        // burn through cooldown with read traffic, then observe a
        // read-phase decision
        for _ in 0..4 {
            read_burst(&db, 1_000);
            outcomes.push(format!("{:?}", tuner.tick()));
        }
        let eff = db.effective_config();
        let base = db.config();
        // read-heavy: slack shrinks toward 1, so thresholds sit at or
        // below the write-phase ones and the layout is read-optimized
        assert!(
            eff.l0_slowdown_runs <= base.l0_run_cap + 2,
            "thresholds {}/{} after {outcomes:?}",
            eff.l0_slowdown_runs,
            eff.l0_stall_runs
        );
        assert_ne!(eff.layout, MergeLayout::Tiered, "{outcomes:?}");
    }

    #[test]
    fn status_json_is_valid() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let mut tuner = tuner_for(&db);
        write_burst(&db, 2_000, 0);
        tuner.tick();
        let status = tuner.status_json();
        lsm_obs::json::validate_json(&status).unwrap();
        assert!(status.contains("\"decisions\":1"));
    }

    #[test]
    fn decisions_are_deterministic_across_runs() {
        // Determinism covers the event stream (seq numbers, observed
        // gains), which only holds when background work runs inline —
        // pin the mode rather than following LSM_BACKGROUND.
        let run = || {
            let cfg = LsmConfig {
                background: lsm_core::BackgroundMode::Inline,
                ..LsmConfig::small_for_tests()
            };
            let db = Db::open_in_memory(cfg).unwrap();
            let mut tuner = tuner_for(&db);
            let mut log = Vec::new();
            for tag in 0..3 {
                write_burst(&db, 2_000, tag);
                log.push(format!("{:?}", tuner.tick()));
            }
            for _ in 0..3 {
                read_burst(&db, 1_500);
                log.push(format!("{:?}", tuner.tick()));
            }
            let events: Vec<String> = db
                .drain_events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::Retune { .. } | EventKind::RetuneObserved { .. }
                    )
                })
                .map(|e| e.to_json_line())
                .collect();
            (log, events)
        };
        assert_eq!(run(), run());
    }
}
