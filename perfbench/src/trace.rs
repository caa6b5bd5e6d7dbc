//! The benchmark's span recorder: spans taken around calls into each
//! layer's public functions, kept in memory, reduced to per-name self time,
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// An in-memory span log for one thread of the benchmark.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, parented to the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.scope(name, |_| f())
    }

    /// Like [`span`](Self::span), for a body that records child spans
    /// itself through the recorder it is handed.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end = self.now();
        self.open.pop();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        self_times(&self.spans)
    }

    /// Appends the spans as JSON lines to `path`, tagged with `label`.
    pub fn write_jsonl(&self, path: &Path, label: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{label}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of each span — its duration minus the part of it that its
/// children cover — summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut totals = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        // Union of the children's intervals, clipped to the parent.
        let mut covered = 0;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *totals.entry(s.name.clone()).or_insert(0) += (s.end - s.start).saturating_sub(covered);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("trial", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union 10..50
            span("a", 60, 70, Some(0)),
            span("leaf", 62, 65, Some(3)),
            span("trial", 200, 210, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["trial"], (100 - 50) + 10);
        assert_eq!(t["a"], 20 + 7);
        assert_eq!(t["b"], 30);
        assert_eq!(t["leaf"], 3);
        // Self times add up to the roots' durations, plus the 10 ns that
        // the overlapping siblings a and b both claim.
        assert_eq!(t.values().sum::<u64>(), 110 + 10);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::new();
        let v = rec.scope("root", |rec| {
            rec.span("child", || 7) + rec.span("child", || 1)
        });
        assert_eq!(v, 8);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let root = spans[0].end - spans[0].start;
        assert_eq!(rec.self_times().values().sum::<u64>(), root);
    }
}
