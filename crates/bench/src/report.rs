//! What one experiment reports: its tables, and the claims those tables
//! must satisfy. This is the one table printer and the one place a claim
//! is written, so the shape an experiment is expected to have sits beside
//! the code that produced the numbers and is checked every time it runs.

use std::fmt::Write;

/// How much data an experiment loads. `Full` is the scale of the tracked
/// tables in `results/experiments.txt`; `Reduced` keeps every sweep axis
/// and shrinks N and the probe counts, so the whole registry fits inside
/// tier-1 `cargo test`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    #[default]
    Full,
    Reduced,
}

impl Scale {
    /// The value of a size parameter at this scale.
    pub fn pick<T>(self, full: T, reduced: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Reduced => reduced,
        }
    }
}

/// The output of one experiment run. [`Report::render`] holds counted and
/// simulated-clock numbers only, so it repeats byte for byte; wall-clock
/// observations go to [`Report::wall_clock`] and are never asserted.
#[derive(Debug, Default)]
pub struct Report {
    id: &'static str,
    scale: Scale,
    text: String,
    wall: String,
    checked: usize,
    skipped: usize,
    gaps: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    pub fn new(id: &'static str, scale: Scale) -> Self {
        Report { id, scale, ..Report::default() }
    }

    /// Appends one line of prose (set-up parameters, a derived figure).
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Appends an aligned table, columns as wide as their widest cell.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
        for row in rows {
            assert_eq!(row.len(), header.len(), "{}: ragged table row {row:?}", self.id);
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        let head = crate::row(&header, &widths);
        let rule = "-".repeat(head.chars().count());
        self.line("");
        self.line(head);
        self.line(rule);
        for row in rows {
            self.line(crate::row(row, &widths));
        }
        self.line("");
    }

    /// Records a wall-clock observation: printed to stderr by the binary,
    /// absent from [`Report::render`].
    pub fn wall(&mut self, text: impl AsRef<str>) {
        let _ = writeln!(self.wall, "{}: {}", self.id, text.as_ref());
    }

    /// A shape this experiment must have: `statement` is the tutorial's
    /// claim, `cite` where it makes it, `measured` the numbers `holds` was
    /// computed from. A claim that does not hold fails the run.
    pub fn claim(&mut self, cite: &str, statement: &str, holds: bool, measured: String) {
        self.checked += 1;
        if holds {
            self.verdict("[ok]", cite, statement, &measured);
        } else {
            let line = self.verdict("[FAILED]", cite, statement, &measured);
            self.failures.push(line);
        }
    }

    /// A [`claim`](Report::claim) about a tree deeper than the reduced
    /// scale builds: checked at [`Scale::Full`], skipped (and counted as
    /// skipped) at [`Scale::Reduced`].
    pub fn claim_at_full_scale(&mut self, cite: &str, statement: &str, holds: bool, measured: String) {
        if self.scale == Scale::Full {
            self.claim(cite, statement, holds, measured);
        } else {
            self.skipped += 1;
            self.verdict("[skipped at reduced scale]", cite, statement, &measured);
        }
    }

    /// A tutorial shape this engine does *not* reproduce, with the reason
    /// (`why`). Judged at [`Scale::Full`], where the tracked numbers come
    /// from: a gap that starts holding there fails too, so it is promoted
    /// to a claim rather than forgotten.
    pub fn gap(&mut self, cite: &str, statement: &str, holds: bool, measured: String, why: &str) {
        if holds && self.scale == Scale::Full {
            self.checked += 1;
            let promote = format!("this gap now holds, promote to claim: {statement}");
            let line = self.verdict("[FAILED]", cite, &promote, &measured);
            self.failures.push(line);
        } else {
            let line = self.verdict("[gap]", cite, statement, &format!("{measured}; why: {why}"));
            self.gaps.push(line);
        }
    }

    fn verdict(&mut self, tag: &str, cite: &str, statement: &str, measured: &str) -> String {
        self.line(format!("{tag} {cite}: {statement} — measured: {measured}"));
        format!("{} {tag} {cite}: {statement} — measured: {measured}", self.id)
    }

    /// The tracked text: tables and verdicts, no wall-clock cell.
    pub fn render(&self) -> &str {
        &self.text
    }

    /// Wall-clock observations, one per line, for stderr.
    pub fn wall_clock(&self) -> &str {
        &self.wall
    }

    /// Whether any claim failed (or any gap started to hold).
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The failed verdicts, each prefixed with the experiment id.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The registered gaps, each prefixed with the experiment id.
    pub fn gaps(&self) -> &[String] {
        &self.gaps
    }

    /// Claims evaluated (held or failed).
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// Full-scale-only claims skipped at the reduced scale.
    pub fn skipped(&self) -> usize {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_claim_fails_the_report_and_says_so() {
        let mut r = Report::new("e00", Scale::Reduced);
        r.claim("Module I.2", "leveling writes more than tiering", true, "15.29 vs 3.00".into());
        assert!(!r.failed());
        r.claim("Module I.2", "tiering reads more than leveling", false, "0.010 vs 0.010".into());
        assert!(r.failed());
        assert_eq!(r.checked(), 2);
        let last = r.render().lines().last().unwrap();
        assert!(last.starts_with("[FAILED] Module I.2: tiering reads more"), "{last}");
        assert!(r.failures()[0].starts_with("e00 [FAILED] Module I.2"), "{:?}", r.failures());
    }

    #[test]
    fn a_gap_that_holds_must_be_promoted() {
        let mut r = Report::new("e00", Scale::Full);
        r.gap("Module II.5", "a U-curve", false, "40.9, 46.6, 35.6".into(), "level geometry jumps");
        assert!(!r.failed());
        assert_eq!((r.gaps().len(), r.checked()), (1, 0));
        assert!(r.render().starts_with("[gap] Module II.5: a U-curve"), "{}", r.render());
        assert!(r.render().contains("why: level geometry jumps"));
        r.gap("Module II.5", "a U-curve", true, "46.6, 35.6, 40.9".into(), "level geometry jumps");
        assert!(r.failed());
        assert!(r.failures()[0].contains("promote to claim: a U-curve"), "{:?}", r.failures());
        // the tracked numbers are full-scale: a shallower tree promotes nothing
        let mut reduced = Report::new("e00", Scale::Reduced);
        reduced.gap("Module II.5", "a U-curve", true, "3, 2, 3".into(), "level geometry jumps");
        assert!(!reduced.failed());
    }

    #[test]
    fn a_full_scale_claim_is_skipped_and_counted_at_reduced_scale() {
        let mut r = Report::new("e00", Scale::Reduced);
        r.claim_at_full_scale("Module I.2", "three-way ordering", false, "2 levels".into());
        assert!(!r.failed());
        assert_eq!((r.checked(), r.skipped()), (0, 1));
        assert!(r.render().starts_with("[skipped at reduced scale] Module I.2: three-way"));
        let mut full = Report::new("e00", Scale::Full);
        full.claim_at_full_scale("Module I.2", "three-way ordering", false, "2 levels".into());
        assert!(full.failed());
        assert_eq!((full.checked(), full.skipped()), (1, 0));
    }

    #[test]
    fn rendering_repeats_and_holds_no_wall_clock_cell() {
        let build = |wall_ns: u64| {
            let mut r = Report::new("e00", Scale::Full);
            r.line("80000 keys");
            r.table(&["index", "point IO"], &[vec!["fence".into(), "1.010".into()]]);
            r.wall(format!("fence get {wall_ns} ns"));
            r.claim("Module II.4", "one block per get", true, "1.010".into());
            r
        };
        let (a, b) = (build(2579), build(3107));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), a.render());
        assert!(!a.render().contains("2579") && !a.render().contains(" ns"));
        assert_eq!(a.wall_clock(), "e00: fence get 2579 ns\n");
        assert!(a.render().contains("index  point IO\n---------------\nfence     1.010\n"), "{}", a.render());
    }
}
