//! Unified observability for the accelerator farm and the simulation
//! backends: trace spans, a security audit trail, a tag-plane flight
//! recorder, and a metrics registry — one crate, one epoch, zero cost
//! when off.
//!
//! Four instruments share a wall-clock epoch and drain into one
//! [`TelemetryBundle`]:
//!
//! * [`trace::Tracer`] — lock-cheap structured spans and instants over
//!   the full job lifecycle (submit → admit/reject → enqueue → steal →
//!   lane-assign → quanta → repack → drain), exported as Chrome
//!   trace-event JSON that Perfetto and `chrome://tracing` load
//!   directly.
//! * [`audit::AuditSink`] — every enforcement decision (admission
//!   rejection, runtime violation, hardware release refusal) as a
//!   structured record with tenant / job / engine-cycle / netlist-node
//!   attribution, in a bounded ring.
//! * [`flight::FlightRecorder`] — per-lane last-K-cycles rings of
//!   selected signals' values *and* security labels; a violation dumps
//!   the offending lane as a VCD with parallel `__label` traces.
//! * [`metrics::Registry`] — counters, gauges, and histograms with
//!   snapshot/delta semantics and JSON + Prometheus text exposition.
//!
//! Everything is off by default: the disabled form of each handle is a
//! `None` behind a cheap null check, so a farm run with telemetry off
//! pays nothing on the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

use std::time::Instant;

pub use audit::{AuditEvent, AuditKind, AuditLog, AuditRecord, AuditSink};
pub use flight::{FlightDump, FlightRecorder, FlightSink, SignalDef};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use trace::{arg, Arg, Trace, TraceEvent, Tracer, TRACE_PID};

/// Which instruments are armed, and their bounds.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Record trace spans/instants.
    pub trace: bool,
    /// Per-shard trace event cap (events beyond it are counted, not
    /// kept).
    pub trace_capacity: usize,
    /// Record security audit events.
    pub audit: bool,
    /// Audit ring bound.
    pub audit_capacity: usize,
    /// Arm the tag-plane flight recorder.
    pub flight: bool,
    /// Signals the flight recorder samples; empty means every port of
    /// the design under test.
    pub flight_signals: Vec<String>,
    /// Samples kept per lane.
    pub flight_depth: usize,
    /// Extra cycles sampled after a trigger before dumping.
    pub flight_post_roll: usize,
    /// Most dumps kept per run.
    pub flight_max_dumps: usize,
    /// Feed the metrics registry.
    pub metrics: bool,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            trace: true,
            trace_capacity: 1 << 16,
            audit: true,
            audit_capacity: 4096,
            flight: true,
            flight_signals: Vec::new(),
            flight_depth: 64,
            flight_post_roll: 8,
            flight_max_dumps: 4,
            metrics: true,
        }
    }
}

/// One run's armed instruments, sharing a wall-clock epoch. Cloneable;
/// clones share the underlying sinks.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Span/instant tracer (off unless configured).
    pub tracer: Tracer,
    /// Security audit trail (off unless configured).
    pub audit: AuditSink,
    /// Metrics registry (always usable; fed only when configured).
    pub registry: Registry,
    /// Where flight dumps land (off unless configured).
    pub flight: FlightSink,
    /// The configuration this was built from.
    pub config: TelemetryConfig,
}

impl Telemetry {
    /// Arms the configured instruments against a fresh epoch.
    #[must_use]
    pub fn new(config: TelemetryConfig) -> Telemetry {
        let epoch = Instant::now();
        let tracer = if config.trace {
            // One shard per plausible worker keeps contention negligible
            // without a thread registry.
            Tracer::new(epoch, 16, config.trace_capacity)
        } else {
            Tracer::off()
        };
        let audit = if config.audit {
            AuditSink::new(epoch, config.audit_capacity)
        } else {
            AuditSink::off()
        };
        let flight = if config.flight {
            FlightSink::new(config.flight_max_dumps)
        } else {
            FlightSink::off()
        };
        Telemetry {
            tracer,
            audit,
            registry: Registry::default(),
            flight,
            config,
        }
    }

    /// Drains every instrument into one bundle.
    #[must_use]
    pub fn bundle(&self) -> TelemetryBundle {
        let (flight, flight_dropped) = self.flight.drain();
        TelemetryBundle {
            trace: self.tracer.drain(),
            audit: self.audit.drain(),
            flight,
            flight_dropped,
            metrics: self.registry.snapshot(),
        }
    }
}

/// Everything one run observed.
#[derive(Debug, Clone)]
pub struct TelemetryBundle {
    /// The trace (render with [`Trace::to_chrome_json`]).
    pub trace: Trace,
    /// The audit trail (render with [`AuditLog::to_json`]).
    pub audit: AuditLog,
    /// Flight dumps (each carries its VCD document).
    pub flight: Vec<FlightDump>,
    /// Dumps dropped at the flight sink's cap.
    pub flight_dropped: u64,
    /// Metrics at drain time.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_arms_everything() {
        let tel = Telemetry::new(TelemetryConfig::default());
        assert!(tel.tracer.enabled());
        assert!(tel.audit.enabled());
        assert!(tel.flight.enabled());
    }

    #[test]
    fn disabled_config_is_inert() {
        let tel = Telemetry::new(TelemetryConfig {
            trace: false,
            audit: false,
            flight: false,
            metrics: false,
            ..TelemetryConfig::default()
        });
        assert!(!tel.tracer.enabled());
        tel.tracer.instant(0, "x", "cat", vec![]);
        tel.audit.record(AuditEvent::default());
        let bundle = tel.bundle();
        assert!(bundle.trace.events.is_empty());
        assert!(bundle.audit.records.is_empty());
        assert!(bundle.flight.is_empty());
    }

    #[test]
    fn bundle_collects_all_instruments() {
        let tel = Telemetry::new(TelemetryConfig::default());
        tel.tracer.instant(1, "hello", "test", vec![]);
        tel.audit.record(AuditEvent {
            kind: Some(AuditKind::AdmissionRejected),
            detail: "spoof".into(),
            ..AuditEvent::default()
        });
        tel.registry.counter("jobs_total").inc();
        let bundle = tel.bundle();
        assert_eq!(bundle.trace.events.len(), 1);
        assert_eq!(bundle.audit.records.len(), 1);
        assert_eq!(bundle.metrics.counters, vec![("jobs_total".into(), 1)]);
    }
}
