//! Unified observability for the accelerator farm and the simulation
//! backends: trace spans, a security audit trail, and a tag-plane flight
//! recorder — one crate, one epoch, zero cost when off.
//!
//! Three instruments share a wall-clock epoch and drain into one
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
//!
//! A [`Telemetry`] arms all three together; there is no per-instrument
//! switch. Off is the caller's `Option<Telemetry>` being `None`, so a
//! farm run with telemetry off pays one branch on the hot path. Counters
//! are not kept here: the farm counts them at the source, in its own
//! metrics record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod flight;
pub mod json;
pub mod trace;

use std::time::Instant;

pub use audit::{AuditEvent, AuditKind, AuditLog, AuditRecord, AuditSink};
pub use flight::{FlightDump, FlightRecorder, FlightSink, SignalDef};
pub use json::Json;
pub use trace::{arg, Arg, Trace, TraceEvent, Tracer, TRACE_PID};

/// Trace buffers: one shard per plausible worker keeps contention
/// negligible without a thread registry.
const TRACE_SHARDS: usize = 16;
/// Per-shard trace event cap (events beyond it are counted, not kept).
const TRACE_CAPACITY: usize = 1 << 16;
/// Audit ring bound.
const AUDIT_CAPACITY: usize = 4096;
/// Flight samples kept per lane.
const FLIGHT_DEPTH: usize = 64;
/// Extra cycles the flight recorder samples after a trigger before
/// dumping.
const FLIGHT_POST_ROLL: usize = 8;
/// Most flight dumps kept per run.
const FLIGHT_MAX_DUMPS: usize = 4;

/// One run's armed instruments, sharing a wall-clock epoch. Cloneable;
/// clones share the underlying sinks.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Span/instant tracer.
    pub tracer: Tracer,
    /// Security audit trail.
    pub audit: AuditSink,
    /// Where flight dumps land.
    pub flight: FlightSink,
}

impl Telemetry {
    /// Arms every instrument against a fresh epoch.
    #[must_use]
    pub fn arm() -> Telemetry {
        let epoch = Instant::now();
        Telemetry {
            tracer: Tracer::new(epoch, TRACE_SHARDS, TRACE_CAPACITY),
            audit: AuditSink::new(epoch, AUDIT_CAPACITY),
            flight: FlightSink::new(FLIGHT_MAX_DUMPS),
        }
    }

    /// A flight recorder over `lanes` lanes sampling `signals`, dumping
    /// into this run's sink.
    #[must_use]
    pub fn flight_recorder(&self, signals: Vec<SignalDef>, lanes: usize) -> FlightRecorder {
        FlightRecorder::new(
            signals,
            lanes,
            FLIGHT_DEPTH,
            FLIGHT_POST_ROLL,
            self.flight.clone(),
        )
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_collects_all_instruments() {
        let tel = Telemetry::arm();
        tel.tracer.instant(1, "hello", "test", vec![]);
        tel.audit.record(AuditEvent {
            kind: Some(AuditKind::AdmissionRejected),
            detail: "spoof".into(),
            ..AuditEvent::default()
        });
        let bundle = tel.bundle();
        assert_eq!(bundle.trace.events.len(), 1);
        assert_eq!(bundle.audit.records.len(), 1);
        assert!(bundle.flight.is_empty());
        assert_eq!(bundle.flight_dropped, 0);
    }
}
