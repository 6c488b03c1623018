//! The security audit trail: every enforcement decision as a structured,
//! attributable record.
//!
//! Admission rejections, runtime [`sim::RuntimeViolation`]s, and
//! hardware release refusals become [`AuditRecord`]s carrying tenant /
//! job / engine-cycle / netlist-node attribution — the node resolved to
//! its nearest named source signals via `ifc_check::runtime_blame` so
//! the record names *hardware*, not an opaque id. Records live in a
//! bounded ring (oldest evicted first, evictions counted) and render to
//! JSON with an exact parser for the round-trip property tests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// What kind of enforcement decision a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// The farm's front door refused a job (policy or backpressure).
    AdmissionRejected,
    /// A downgrade node's nonmalleable rule failed at runtime.
    DowngradeRejected,
    /// An output port would have leaked data above its release label.
    OutputLeak,
    /// The hardware's release check refused a response.
    HwReleaseRefused,
}

impl AuditKind {
    /// Stable string key (the JSON encoding).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            AuditKind::AdmissionRejected => "admission_rejected",
            AuditKind::DowngradeRejected => "downgrade_rejected",
            AuditKind::OutputLeak => "output_leak",
            AuditKind::HwReleaseRefused => "hw_release_refused",
        }
    }

    /// Inverse of [`key`](Self::key).
    #[must_use]
    pub fn from_key(key: &str) -> Option<AuditKind> {
        Some(match key {
            "admission_rejected" => AuditKind::AdmissionRejected,
            "downgrade_rejected" => AuditKind::DowngradeRejected,
            "output_leak" => AuditKind::OutputLeak,
            "hw_release_refused" => AuditKind::HwReleaseRefused,
            _ => return None,
        })
    }
}

/// An enforcement decision before the sink stamps it (see
/// [`AuditSink::record`]). Fields that don't apply stay `None` — an
/// admission rejection has no engine cycle, a runtime violation always
/// has one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditEvent {
    /// What happened. `None` here is invalid; the builder methods set it.
    pub kind: Option<AuditKind>,
    /// Registry index of the tenant involved.
    pub tenant: Option<u64>,
    /// The tenant's display name.
    pub tenant_name: Option<String>,
    /// The job's admission id.
    pub job: Option<u64>,
    /// The engine lane the event occurred on.
    pub lane: Option<u64>,
    /// The engine cycle at which the event occurred.
    pub cycle: Option<u64>,
    /// The netlist node involved ([`hdl::NodeId::index`]).
    pub node: Option<u64>,
    /// The node resolved to named source signals (or the port name).
    pub source: Option<String>,
    /// Human-readable description.
    pub detail: String,
}

/// A stamped audit record: an [`AuditEvent`] plus sequence number and
/// wall-clock timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Monotonic sequence number (gaps reveal ring evictions).
    pub seq: u64,
    /// Microseconds since the sink's epoch.
    pub ts_us: u64,
    /// The event.
    pub event: AuditEvent,
}

#[derive(Debug)]
struct AuditInner {
    epoch: Instant,
    ring: Mutex<VecDeque<AuditRecord>>,
    cap: usize,
    seq: AtomicU64,
    evicted: AtomicU64,
}

/// Cloneable audit-trail handle; disabled it is a `None` and recording
/// is a no-op.
#[derive(Debug, Clone, Default)]
pub struct AuditSink {
    inner: Option<Arc<AuditInner>>,
}

impl AuditSink {
    /// A disabled sink.
    #[must_use]
    pub fn off() -> AuditSink {
        AuditSink { inner: None }
    }

    /// An enabled sink holding at most `cap` records, with its clock
    /// anchored at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, cap: usize) -> AuditSink {
        AuditSink {
            inner: Some(Arc::new(AuditInner {
                epoch,
                ring: Mutex::new(VecDeque::new()),
                cap: cap.max(1),
                seq: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
            })),
        }
    }

    /// Whether records are kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps and stores an event; the oldest record is evicted at the
    /// cap.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex is poisoned.
    pub fn record(&self, event: AuditEvent) {
        let Some(inner) = &self.inner else { return };
        let record = AuditRecord {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            event,
        };
        let mut ring = inner.ring.lock().expect("audit ring poisoned");
        if ring.len() == inner.cap {
            ring.pop_front();
            inner.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Takes everything recorded so far, sequence-ordered.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex is poisoned.
    #[must_use]
    pub fn drain(&self) -> AuditLog {
        let Some(inner) = &self.inner else {
            return AuditLog::default();
        };
        AuditLog {
            records: inner
                .ring
                .lock()
                .expect("audit ring poisoned")
                .drain(..)
                .collect(),
            evicted: inner.evicted.load(Ordering::Relaxed),
        }
    }
}

/// A drained audit trail.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditLog {
    /// Records in sequence order.
    pub records: Vec<AuditRecord>,
    /// Records evicted at the ring's cap before this drain.
    pub evicted: u64,
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::U64)
}

fn opt_str(v: &Option<String>) -> Json {
    v.as_ref().map_or(Json::Null, |s| Json::Str(s.clone()))
}

fn get_opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a u64")),
    }
}

fn get_opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("field {key:?} is not a string")),
    }
}

impl AuditRecord {
    fn to_json(&self) -> Json {
        let e = &self.event;
        Json::obj(vec![
            ("seq", Json::U64(self.seq)),
            ("ts_us", Json::U64(self.ts_us)),
            (
                "kind",
                e.kind.map_or(Json::Null, |k| Json::Str(k.key().to_owned())),
            ),
            ("tenant", opt_u64(e.tenant)),
            ("tenant_name", opt_str(&e.tenant_name)),
            ("job", opt_u64(e.job)),
            ("lane", opt_u64(e.lane)),
            ("cycle", opt_u64(e.cycle)),
            ("node", opt_u64(e.node)),
            ("source", opt_str(&e.source)),
            ("detail", Json::Str(e.detail.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<AuditRecord, String> {
        let kind = match get_opt_str(v, "kind")? {
            None => None,
            Some(key) => Some(
                AuditKind::from_key(&key).ok_or_else(|| format!("unknown audit kind {key:?}"))?,
            ),
        };
        Ok(AuditRecord {
            seq: get_opt_u64(v, "seq")?.ok_or("missing seq")?,
            ts_us: get_opt_u64(v, "ts_us")?.ok_or("missing ts_us")?,
            event: AuditEvent {
                kind,
                tenant: get_opt_u64(v, "tenant")?,
                tenant_name: get_opt_str(v, "tenant_name")?,
                job: get_opt_u64(v, "job")?,
                lane: get_opt_u64(v, "lane")?,
                cycle: get_opt_u64(v, "cycle")?,
                node: get_opt_u64(v, "node")?,
                source: get_opt_str(v, "source")?,
                detail: get_opt_str(v, "detail")?.unwrap_or_default(),
            },
        })
    }
}

impl AuditLog {
    /// Renders the log as JSON (one record per line inside the array).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"evicted\":");
        out.push_str(&self.evicted.to_string());
        out.push_str(",\"records\":[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&r.to_json().render());
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a log rendered by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// A description of the first syntax or shape error.
    pub fn from_json(text: &str) -> Result<AuditLog, String> {
        let root = Json::parse(text)?;
        Ok(AuditLog {
            records: root
                .get("records")
                .and_then(Json::as_arr)
                .ok_or("missing records array")?
                .iter()
                .map(AuditRecord::from_json)
                .collect::<Result<_, _>>()?,
            evicted: root.get("evicted").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(detail: &str) -> AuditEvent {
        AuditEvent {
            kind: Some(AuditKind::OutputLeak),
            tenant: Some(2),
            tenant_name: Some("bursty".into()),
            job: Some(41),
            lane: Some(3),
            cycle: Some(987_654),
            node: Some(379),
            source: Some("out_block [via aes_out ← rk10]".into()),
            detail: detail.into(),
        }
    }

    #[test]
    fn off_sink_records_nothing() {
        let sink = AuditSink::off();
        sink.record(event("x"));
        assert!(sink.drain().records.is_empty());
    }

    #[test]
    fn records_round_trip() {
        let sink = AuditSink::new(Instant::now(), 16);
        sink.record(event("leak \"quoted\" → detail"));
        sink.record(AuditEvent {
            kind: Some(AuditKind::AdmissionRejected),
            tenant: Some(0),
            detail: "label spoof".into(),
            ..AuditEvent::default()
        });
        let log = sink.drain();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].seq, 0);
        let back = AuditLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn ring_evicts_oldest() {
        let sink = AuditSink::new(Instant::now(), 2);
        for i in 0..5 {
            sink.record(event(&format!("e{i}")));
        }
        let log = sink.drain();
        assert_eq!(log.evicted, 3);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].event.detail, "e3");
        assert_eq!(log.records[1].seq, 4);
    }

    #[test]
    fn kind_keys_invert() {
        for kind in [
            AuditKind::AdmissionRejected,
            AuditKind::DowngradeRejected,
            AuditKind::OutputLeak,
            AuditKind::HwReleaseRefused,
        ] {
            assert_eq!(AuditKind::from_key(kind.key()), Some(kind));
        }
    }
}
