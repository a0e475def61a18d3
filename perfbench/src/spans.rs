//! The benchmark's own in-memory span recorder (traced runs only).
//!
//! Spans wrap the public calls the benchmark makes into each crate; the
//! timings the program already returns (`queue_wait`, `solve_time`,
//! `track.*`, tree job records) become synthetic child spans and
//! counters. Nothing is recorded inside the program. Spans stay in
//! memory and are written out once, when the run ends.

use minijson::{object, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Operation index in the workload's op list.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// Per-name aggregate: count, total and self time (span minus the part
/// of it its children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed span durations, ms.
    pub total_ms: f64,
    /// Summed self times, ms.
    pub self_ms: f64,
}

/// Thread-safe span and counter store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Records a measured call; returns its id for child spans.
    pub fn record(
        &self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        })
    }

    /// Records a duration the program reported as a child of `parent`,
    /// placed `offset` after the parent's start.
    pub fn child(
        &self,
        name: &'static str,
        parent: usize,
        offset: Duration,
        len: Duration,
    ) -> usize {
        let (op, start_ns) = {
            let spans = self.spans.lock().expect("span store poisoned by a panic");
            (spans[parent].op, spans[parent].start_ns)
        };
        let start_ns = start_ns + offset.as_nanos() as u64;
        self.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + len.as_nanos() as u64,
        })
    }

    /// Adds `v` to the named counter.
    pub fn count(&self, name: &'static str, v: f64) {
        *self
            .counters
            .lock()
            .expect("counter store poisoned by a panic")
            .entry(name)
            .or_insert(0.0) += v;
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += (dur - covered) as f64 / 1e6;
        }
        out
    }

    /// Every span, counter and per-name self time as one JSON document.
    pub fn to_json(&self) -> Value {
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                object([
                    ("name", Value::from(name)),
                    ("count", Value::from(t.count)),
                    ("total_ms", Value::Number(t.total_ms)),
                    ("self_ms", Value::Number(t.self_ms)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .lock()
            .expect("counter store poisoned by a panic")
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Number(*v)))
            .collect();
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panic")
            .iter()
            .map(|s| {
                object([
                    ("name", Value::from(s.name)),
                    ("op", Value::from(s.op)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("start_us", Value::Number(s.start_ns as f64 / 1e3)),
                    ("end_us", Value::Number(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        object([
            ("self_time", Value::Array(self_times)),
            ("counters", Value::Object(counters)),
            ("spans", Value::Array(spans)),
        ])
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Recorder::default();
        let t0 = rec.origin;
        let ms = Duration::from_millis;
        let root = rec.record("op", 0, None, t0, t0 + ms(10));
        // Overlapping children cover [1, 6] ms: 5 ms.
        rec.child("a", root, ms(1), ms(4));
        rec.child("b", root, ms(3), ms(3));
        let t = rec.self_times();
        assert!((t["op"].self_ms - 5.0).abs() < 1e-9, "{:?}", t["op"]);
        assert!((t["a"].self_ms - 4.0).abs() < 1e-9);
        assert_eq!(t["op"].count, 1);
    }
}
