//! In-memory spans the benchmark records around its calls into each
//! layer. Spans stay in memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`lint.static`, `prover`, …); `op` for an op's root.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// Enclosing span, by index.
    pub parent: Option<usize>,
    /// Start, as an offset from the tracer's origin.
    pub start: Duration,
    /// End, as an offset from the tracer's origin.
    pub end: Duration,
}

/// A span recorder. A disabled tracer records nothing, so the untraced
/// path runs the same code minus the recording.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`end`](Tracer::end). `None` when the tracer is disabled.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span [`begin`](Tracer::begin) opened; spans close
    /// innermost first.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span nested in the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span timed elsewhere, for ops that overlap (farm jobs
    /// in flight together). Returns its index, for children.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus the part its children
    /// cover.
    #[must_use]
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Total self time per span name.
    #[must_use]
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_default() += t;
        }
        out
    }

    /// The layer ledger: the share of root-span time that child spans
    /// account for.
    #[must_use]
    pub fn attributed_share(&self) -> f64 {
        let (mut total, mut unattributed) = (Duration::ZERO, Duration::ZERO);
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.parent.is_none() {
                total += s.end - s.start;
                unattributed += own;
            }
        }
        1.0 - unattributed.as_secs_f64() / total.as_secs_f64()
    }

    /// Every span, one JSON object per line.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_the_ledger_counts_them() {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let root = tr.record("op", 0, None, t0, t0 + ms(10));
        tr.record("a", 0, Some(root), t0, t0 + ms(6));
        tr.record("b", 0, Some(root), t0 + ms(6), t0 + ms(9));
        let by_name = tr.self_time_by_name();
        assert_eq!(by_name["op"], ms(1));
        assert_eq!(by_name["a"], ms(6));
        assert!((tr.attributed_share() - 0.9).abs() < 1e-9);
        assert_eq!(tr.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        assert_eq!(tr.span("x", 1, || 7), 7);
        assert!(tr.self_times().is_empty());
    }
}
