//! Spans recorded by the benchmark around its calls into each layer
//! (spans inside the program are a later issue). Kept in a `Vec` and
//! written out once, after measuring, as one JSON object per line.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Spans of one request share this.
    pub op: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a span now; returns its id for [`Tracer::close`] and for
    /// children to name as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    /// Ends span `id` now; returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        now - span.start_ns
    }

    /// What an empty span measures: the cost of the two clock reads that
    /// every span's duration includes. Subtracted from per-stage means.
    pub fn calibrate_empty_span_ns() -> f64 {
        let mut t = Tracer::new();
        for i in 0..20_000 {
            let id = t.open("calibrate", 0, i);
            t.close(id);
        }
        let mut d: Vec<u64> = t.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        d.sort_unstable();
        d[d.len() / 2] as f64
    }

    /// Per span name: (count, total duration, total self time), where a
    /// span's self time is its duration minus its children's durations.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(kids);
        }
        out
    }

    /// Writes every `probe.*` span and the first `max_op_spans` others.
    pub fn write_jsonl(&self, path: &std::path::Path, max_op_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut op_spans = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if !s.name.starts_with("probe.") {
                op_spans += 1;
                if op_spans > max_op_spans {
                    continue;
                }
            }
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.spans.push(Span {
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: 0,
            op: 7,
        });
        t.spans.push(Span {
            name: "a",
            start_ns: 10,
            end_ns: 40,
            parent: 1,
            op: 7,
        });
        t.spans.push(Span {
            name: "b",
            start_ns: 40,
            end_ns: 90,
            parent: 1,
            op: 7,
        });
        t.spans.push(Span {
            name: "a",
            start_ns: 45,
            end_ns: 55,
            parent: 3,
            op: 7,
        });
        let s = t.summary();
        assert_eq!(s["op"], (1, 100, 20));
        assert_eq!(s["a"], (2, 40, 40));
        assert_eq!(s["b"], (1, 50, 40));
    }
}
