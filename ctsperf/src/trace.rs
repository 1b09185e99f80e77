//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry point. They stay in memory until the run ends, then go
//! out as JSON lines plus a self/total/count table.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are milliseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: Option<usize>,
    pub parent: Option<usize>,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Milliseconds from the trace epoch to `t`.
    pub fn at_ms(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }

    /// Records an interval whose bounds the caller measured; returns its id
    /// for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: Option<usize>,
        parent: Option<usize>,
        start_ms: f64,
        end_ms: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ms,
            end_ms,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ms();
        let out = f();
        let end = self.now_ms();
        (out, self.record(name, op_id, parent, start, end))
    }

    /// Ends span `id` now: a parent is recorded before its children run
    /// and closed after them.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ms = self.now_ms();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children of one span may overlap).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(f64, f64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ms.max(s.start_ms), c.end_ms.min(s.end_ms))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut cur: Option<(f64, f64)> = None;
                for (a, b) in iv {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.ms() - covered).max(0.0)
            })
            .collect()
    }

    /// Per span name: (count, total ms, self ms), ordered by name.
    pub fn table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut rows: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, self_ms) in self.spans.iter().zip(self.self_ms()) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ms();
            row.2 += self_ms;
        }
        rows
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"start_ms\":{},\"end_ms\":{}}}",
                s.name,
                opt(s.op_id),
                opt(s.parent),
                s.start_ms,
                s.end_ms
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let root = t.record("op", Some(0), None, 0.0, 10.0);
        t.record("a", Some(0), Some(root), 1.0, 4.0);
        t.record("b", Some(0), Some(root), 3.0, 6.0); // overlaps a
        t.record("c", Some(0), Some(root), 8.0, 12.0); // runs past the parent
        let s = t.self_ms();
        assert!((s[root] - 3.0).abs() < 1e-12, "{}", s[root]);
        assert!((s[1] - 3.0).abs() < 1e-12);
        let table = t.table();
        assert_eq!(table["op"].0, 1);
        assert!((table["op"].1 - 10.0).abs() < 1e-12);
    }
}
