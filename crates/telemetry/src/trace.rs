//! Lock-cheap structured event/span tracing with a Chrome trace-event
//! JSON codec (loadable in Perfetto / `chrome://tracing`).
//!
//! The tracer is a cloneable handle; a run without tracing holds none.
//! Events append to one of several sharded `Mutex<Vec<_>>` buffers
//! selected by thread id, so farm workers almost never contend on the
//! same lock. Every event carries a wall-clock timestamp (µs
//! since the tracer's epoch, the Chrome `ts` field) and — by convention,
//! as the `cycle` argument — the engine-cycle timestamp of the simulated
//! hardware it describes.
//!
//! Event phases follow the Chrome trace-event format:
//!
//! * `X` — complete span (`ts` + `dur`), used for scheduling quanta and
//!   re-packs; spans on one `tid` must nest.
//! * `i` — instant event (admission rejections, steals, drain).
//! * `b` / `n` / `e` — async begin / instant / end, correlated by `id`;
//!   used for the job lifecycle, which hops across worker threads.
//! * `M` — metadata (thread names).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// One event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// An exact unsigned integer (cycle counts, ids, counters).
    U64(u64),
    /// A float (rates).
    F64(f64),
    /// A string (tenant names, reasons).
    Str(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Arg {
        Arg::U64(v)
    }
}

impl From<&str> for Arg {
    fn from(v: &str) -> Arg {
        Arg::Str(v.to_owned())
    }
}

impl From<String> for Arg {
    fn from(v: String) -> Arg {
        Arg::Str(v)
    }
}

impl From<f64> for Arg {
    fn from(v: f64) -> Arg {
        Arg::F64(v)
    }
}

/// One trace event, field-for-field the Chrome trace-event shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or instant label).
    pub name: String,
    /// Category (used by trace viewers for filtering).
    pub cat: String,
    /// Phase: `X`, `i`, `b`, `n`, `e`, or `M`.
    pub ph: char,
    /// Microseconds since the tracer's epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (`X` only; 0 otherwise).
    pub dur_us: u64,
    /// Thread id (0 = front door, 1+w = worker w).
    pub tid: u64,
    /// Async correlation id (`b`/`n`/`e`: the job id; 0 otherwise).
    pub id: u64,
    /// Arguments, in emission order.
    pub args: Vec<(String, Arg)>,
}

/// The process id every event carries (one simulated farm = one pid).
pub const TRACE_PID: u64 = 1;

/// Builds one event argument pair — `arg("lane", 3u64)` instead of the
/// full `(String, Arg)` tuple at every call site.
pub fn arg(key: &str, value: impl Into<Arg>) -> (String, Arg) {
    (key.to_owned(), value.into())
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    /// Per-shard event cap; beyond it events are counted, not stored.
    cap: usize,
    dropped: AtomicU64,
}

/// Cloneable tracing handle. See the module docs.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer with `shards` buffers of at most `cap` events each, with
    /// its epoch anchored at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, shards: usize, cap: usize) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                epoch,
                shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
                cap,
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Microseconds since the tracer's epoch.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        let inner = &self.inner;
        let shard = &inner.shards[(event.tid as usize) % inner.shards.len()];
        let mut buf = shard.lock().expect("trace shard poisoned");
        if buf.len() < inner.cap {
            buf.push(event);
        } else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Emits an instant event.
    pub fn instant(&self, tid: u64, name: &str, cat: &str, args: Vec<(String, Arg)>) {
        self.push(TraceEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: 'i',
            ts_us: self.now_us(),
            dur_us: 0,
            tid,
            id: 0,
            args,
        });
    }

    /// Emits a complete span that started at `start_us` (from
    /// [`now_us`](Self::now_us)) and ends now.
    pub fn complete(
        &self,
        tid: u64,
        name: &str,
        cat: &str,
        start_us: u64,
        args: Vec<(String, Arg)>,
    ) {
        let now = self.now_us();
        self.push(TraceEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: 'X',
            ts_us: start_us,
            dur_us: now.saturating_sub(start_us),
            tid,
            id: 0,
            args,
        });
    }

    /// Emits an async begin / instant / end event correlated by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `ph` is not one of `b`, `n`, `e`.
    pub fn async_event(
        &self,
        ph: char,
        tid: u64,
        id: u64,
        name: &str,
        cat: &str,
        args: Vec<(String, Arg)>,
    ) {
        assert!(matches!(ph, 'b' | 'n' | 'e'), "async phase must be b/n/e");
        self.push(TraceEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph,
            ts_us: self.now_us(),
            dur_us: 0,
            tid,
            id,
            args,
        });
    }

    /// Emits a thread-name metadata event.
    pub fn thread_name(&self, tid: u64, name: &str) {
        self.push(TraceEvent {
            name: "thread_name".to_owned(),
            cat: "__metadata".to_owned(),
            ph: 'M',
            ts_us: 0,
            dur_us: 0,
            tid,
            id: 0,
            args: vec![("name".to_owned(), Arg::Str(name.to_owned()))],
        });
    }

    /// Collects every recorded event, sorted by timestamp (stable, so
    /// same-timestamp events keep shard order). The buffers are left
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if a trace shard mutex is poisoned.
    #[must_use]
    pub fn drain(&self) -> Trace {
        let mut events = Vec::new();
        for shard in &self.inner.shards {
            events.append(&mut shard.lock().expect("trace shard poisoned"));
        }
        events.sort_by_key(|e| e.ts_us);
        Trace {
            events,
            dropped: self.inner.dropped.load(Ordering::Relaxed),
        }
    }
}

/// A drained trace: timestamp-ordered events plus the overflow count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Events, timestamp-ordered.
    pub events: Vec<TraceEvent>,
    /// Events dropped at the per-shard cap.
    pub dropped: u64,
}

fn args_to_json(args: &[(String, Arg)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    match v {
                        Arg::U64(n) => Json::U64(*n),
                        Arg::F64(x) => Json::F64(*x),
                        Arg::Str(s) => Json::Str(s.clone()),
                    },
                )
            })
            .collect(),
    )
}

fn args_from_json(v: &Json) -> Result<Vec<(String, Arg)>, String> {
    let Json::Obj(fields) = v else {
        return Err("args is not an object".into());
    };
    fields
        .iter()
        .map(|(k, v)| {
            let arg = match v {
                Json::U64(n) => Arg::U64(*n),
                Json::F64(x) => Arg::F64(*x),
                Json::Str(s) => Arg::Str(s.clone()),
                other => return Err(format!("unsupported arg value {other:?}")),
            };
            Ok((k.clone(), arg))
        })
        .collect()
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("cat", Json::Str(self.cat.clone())),
            ("ph", Json::Str(self.ph.to_string())),
            ("ts", Json::U64(self.ts_us)),
            ("dur", Json::U64(self.dur_us)),
            ("pid", Json::U64(TRACE_PID)),
            ("tid", Json::U64(self.tid)),
            ("id", Json::U64(self.id)),
            ("args", args_to_json(&self.args)),
        ])
    }

    fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field {name:?}"));
        let str_field = |name: &str| {
            field(name).and_then(|f| {
                f.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("field {name:?} is not a string"))
            })
        };
        let u64_field = |name: &str| {
            field(name).and_then(|f| {
                f.as_u64()
                    .ok_or_else(|| format!("field {name:?} is not a u64"))
            })
        };
        let ph_str = str_field("ph")?;
        let mut chars = ph_str.chars();
        let ph = match (chars.next(), chars.next()) {
            (Some(c), None) => c,
            _ => return Err(format!("phase {ph_str:?} is not one character")),
        };
        Ok(TraceEvent {
            name: str_field("name")?,
            cat: str_field("cat")?,
            ph,
            ts_us: u64_field("ts")?,
            dur_us: u64_field("dur")?,
            tid: u64_field("tid")?,
            id: u64_field("id")?,
            args: args_from_json(field("args")?)?,
        })
    }
}

impl Trace {
    /// Renders the trace as a Chrome trace-event JSON document — load it
    /// at <https://ui.perfetto.dev> or `chrome://tracing`. One event per
    /// line, so the artifact diffs and greps sanely.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str(",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&e.to_json().render());
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a document rendered by
    /// [`to_chrome_json`](Self::to_chrome_json).
    ///
    /// # Errors
    ///
    /// A description of the first syntax or shape error.
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        let root = Json::parse(text)?;
        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?
            .iter()
            .map(TraceEvent::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Trace {
            events,
            dropped: root.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Structural well-formedness problems, empty when the trace is
    /// clean:
    ///
    /// * async `b`/`e` events balance per correlation id (and `n`/`e`
    ///   never precede their `b`);
    /// * complete (`X`) spans on one thread nest — a span may contain
    ///   another but never partially overlap it.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();

        // Async lifecycles per id.
        let mut open: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for e in &self.events {
            match e.ph {
                'b' => *open.entry(e.id).or_insert(0) += 1,
                'n' | 'e' => {
                    let depth = open.get(&e.id).copied().unwrap_or(0);
                    if depth == 0 {
                        problems.push(format!(
                            "async {} {:?} (id {}) before its begin",
                            e.ph, e.name, e.id
                        ));
                    } else if e.ph == 'e' {
                        *open.get_mut(&e.id).expect("checked") -= 1;
                    }
                }
                _ => {}
            }
        }
        for (id, depth) in open {
            if depth != 0 {
                problems.push(format!("async id {id} left {depth} span(s) open"));
            }
        }

        // X-span nesting per tid: sorted by ts already; track a stack of
        // span end times.
        let mut stacks: std::collections::BTreeMap<u64, Vec<u64>> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            if e.ph != 'X' {
                continue;
            }
            let stack = stacks.entry(e.tid).or_default();
            while let Some(&end) = stack.last() {
                if end <= e.ts_us {
                    stack.pop();
                } else {
                    break;
                }
            }
            let end = e.ts_us.saturating_add(e.dur_us);
            if let Some(&enclosing_end) = stack.last() {
                if end > enclosing_end {
                    problems.push(format!(
                        "span {:?} on tid {} overlaps its enclosing span",
                        e.name, e.tid
                    ));
                }
            }
            stack.push(end);
        }

        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now(), 4, 1024)
    }

    #[test]
    fn events_round_trip_through_chrome_json() {
        let t = tracer();
        t.instant(0, "reject", "audit", vec![("tenant".into(), "a\"b".into())]);
        t.async_event(
            'b',
            0,
            7,
            "job",
            "job",
            vec![("blocks".into(), 64u64.into())],
        );
        t.complete(
            1,
            "quantum",
            "sched",
            0,
            vec![("width".into(), 4u64.into())],
        );
        t.async_event(
            'e',
            1,
            7,
            "job",
            "job",
            vec![("rate".into(), 1.5f64.into())],
        );
        t.thread_name(1, "worker-0");
        let trace = t.drain();
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn validate_catches_unbalanced_async() {
        let t = tracer();
        t.async_event('b', 0, 1, "job", "job", vec![]);
        let problems = t.drain().validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("left 1 span(s) open"));
    }

    #[test]
    fn validate_catches_overlapping_spans() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    name: "a".into(),
                    cat: "c".into(),
                    ph: 'X',
                    ts_us: 0,
                    dur_us: 10,
                    tid: 1,
                    id: 0,
                    args: vec![],
                },
                TraceEvent {
                    name: "b".into(),
                    cat: "c".into(),
                    ph: 'X',
                    ts_us: 5,
                    dur_us: 10,
                    tid: 1,
                    id: 0,
                    args: vec![],
                },
            ],
            dropped: 0,
        };
        let problems = trace.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("overlaps"));
    }

    #[test]
    fn nested_spans_validate_clean() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    name: "outer".into(),
                    cat: "c".into(),
                    ph: 'X',
                    ts_us: 0,
                    dur_us: 100,
                    tid: 1,
                    id: 0,
                    args: vec![],
                },
                TraceEvent {
                    name: "inner".into(),
                    cat: "c".into(),
                    ph: 'X',
                    ts_us: 10,
                    dur_us: 20,
                    tid: 1,
                    id: 0,
                    args: vec![],
                },
            ],
            dropped: 0,
        };
        assert!(trace.validate().is_empty());
    }

    #[test]
    fn cap_counts_drops() {
        let t = Tracer::new(Instant::now(), 1, 2);
        for _ in 0..5 {
            t.instant(0, "x", "c", vec![]);
        }
        let trace = t.drain();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 3);
    }
}
