//! Plain-data metrics snapshots and their JSON rendering through the
//! workspace codec ([`telemetry::Json`]). The shape is consumed by the
//! `farm_guard` benchmark gate and uploaded as a CI artifact.

use telemetry::Json;

/// A guarded ratio: `num / den` only when both operands are finite and
/// the denominator is positive; `0.0` otherwise. Every rate the farm
/// reports goes through this, so `stall_rate` with zero busy cycles or a
/// `blocks_per_sec` taken microseconds after start can never surface as
/// `NaN`/`inf`.
#[must_use]
pub fn rate(num: f64, den: f64) -> f64 {
    if !num.is_finite() || !den.is_finite() || den <= 0.0 {
        return 0.0;
    }
    let r = num / den;
    if r.is_finite() {
        r
    } else {
        0.0
    }
}

/// One tenant's counters at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Registered display name.
    pub name: String,
    /// Jobs admitted into the queues.
    pub submitted: u64,
    /// Jobs refused by the admission policy.
    pub admission_rejected: u64,
    /// Jobs refused by queue backpressure.
    pub queue_rejected: u64,
    /// Jobs fully completed.
    pub completed: u64,
    /// Blocks completed.
    pub blocks: u64,
    /// Blocks verified against the software oracle.
    pub verified: u64,
    /// Runtime violations recorded on this tenant's lanes.
    pub violations: u64,
    /// Blocks the hardware's release check refused.
    pub hw_rejections: u64,
    /// Completed blocks per wall-clock second since the farm started.
    pub blocks_per_sec: f64,
}

/// A point-in-time snapshot of the whole service.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmMetrics {
    /// Wall-clock seconds since the farm started.
    pub elapsed_secs: f64,
    /// Blocks completed across all tenants.
    pub blocks_total: u64,
    /// Aggregate completed blocks per second.
    pub blocks_per_sec: f64,
    /// Admitted jobs not yet claimed by a worker.
    pub queue_depth: usize,
    /// Jobs admitted but not yet completed.
    pub active_jobs: usize,
    /// Cycles a lane offered a block the input handshake refused.
    pub stall_cycles: u64,
    /// Lane-cycles spent with a job resident.
    pub busy_lane_cycles: u64,
    /// Lane-cycles spent empty.
    pub idle_lane_cycles: u64,
    /// `stall_cycles / busy_lane_cycles`.
    pub stall_rate: f64,
    /// Engine rebuilds at a new width (dynamic re-packing events).
    pub repacks: u64,
    /// Jobs popped from another worker's queue shard.
    pub steals: u64,
    /// Scheduling quanta executed per lane width — the lane-occupancy
    /// histogram, `(width, quanta)` per supported width.
    pub width_quanta: Vec<(usize, u64)>,
    /// The width tuner's effective blocks/s estimate per supported
    /// width at snapshot time (seeds refined by this run's online
    /// measurements) — what re-packing decisions were based on.
    pub width_estimates: Vec<(usize, f64)>,
    /// Per-tenant counters, in registration order.
    pub tenants: Vec<TenantMetrics>,
}

impl FarmMetrics {
    /// Renders the snapshot as a JSON object. Non-finite floats render
    /// as `0` ([`Json::F64`]), so a degenerate rate never corrupts the
    /// artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let widths = self.width_quanta.iter().map(|&(w, q)| {
            Json::obj(vec![
                ("width", Json::U64(w as u64)),
                ("quanta", Json::U64(q)),
            ])
        });
        let estimates = self.width_estimates.iter().map(|&(w, e)| {
            Json::obj(vec![
                ("width", Json::U64(w as u64)),
                ("blocks_per_sec_estimate", Json::F64(e)),
            ])
        });
        let tenants = self.tenants.iter().map(|t| {
            Json::obj(vec![
                ("name", Json::Str(t.name.clone())),
                ("submitted", Json::U64(t.submitted)),
                ("admission_rejected", Json::U64(t.admission_rejected)),
                ("queue_rejected", Json::U64(t.queue_rejected)),
                ("completed", Json::U64(t.completed)),
                ("blocks", Json::U64(t.blocks)),
                ("verified", Json::U64(t.verified)),
                ("violations", Json::U64(t.violations)),
                ("hw_rejections", Json::U64(t.hw_rejections)),
                ("blocks_per_sec", Json::F64(t.blocks_per_sec)),
            ])
        });
        Json::obj(vec![
            ("elapsed_secs", Json::F64(self.elapsed_secs)),
            ("blocks_total", Json::U64(self.blocks_total)),
            ("blocks_per_sec", Json::F64(self.blocks_per_sec)),
            ("queue_depth", Json::U64(self.queue_depth as u64)),
            ("active_jobs", Json::U64(self.active_jobs as u64)),
            ("stall_cycles", Json::U64(self.stall_cycles)),
            ("busy_lane_cycles", Json::U64(self.busy_lane_cycles)),
            ("idle_lane_cycles", Json::U64(self.idle_lane_cycles)),
            ("stall_rate", Json::F64(self.stall_rate)),
            ("repacks", Json::U64(self.repacks)),
            ("steals", Json::U64(self.steals)),
            ("width_quanta", Json::Arr(widths.collect())),
            ("width_estimates", Json::Arr(estimates.collect())),
            ("tenants", Json::Arr(tenants.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_and_escapes() {
        let m = FarmMetrics {
            elapsed_secs: 1.5,
            blocks_total: 10,
            blocks_per_sec: 6.7,
            queue_depth: 0,
            active_jobs: 0,
            stall_cycles: 1,
            busy_lane_cycles: 100,
            idle_lane_cycles: 3,
            stall_rate: 0.01,
            repacks: 2,
            steals: 1,
            width_quanta: vec![(1, 0), (4, 5)],
            width_estimates: vec![(1, 15000.0), (4, 25000.5)],
            tenants: vec![TenantMetrics {
                name: "a\"b".into(),
                submitted: 1,
                admission_rejected: 0,
                queue_rejected: 0,
                completed: 1,
                blocks: 10,
                verified: 10,
                violations: 0,
                hw_rejections: 0,
                blocks_per_sec: 6.7,
            }],
        };
        let json = Json::parse(&m.to_json().render()).expect("renders valid JSON");
        assert_eq!(json.field("blocks_total", Json::as_u64), Ok(10));
        let tenants = json.field("tenants", Json::as_arr).unwrap();
        assert_eq!(tenants[0].field("name", Json::as_str), Ok("a\"b"));
        let widths = json.field("width_quanta", Json::as_arr).unwrap();
        assert_eq!(widths[1].field("width", Json::as_u64), Ok(4));
        assert_eq!(widths[1].field("quanta", Json::as_u64), Ok(5));
        let estimates = json.field("width_estimates", Json::as_arr).unwrap();
        assert_eq!(
            estimates[1].field("blocks_per_sec_estimate", Json::as_f64),
            Ok(25000.5)
        );
    }

    #[test]
    fn rate_guards_every_degenerate_denominator() {
        assert_eq!(rate(10.0, 2.0), 5.0);
        assert_eq!(rate(10.0, 0.0), 0.0, "zero denominator");
        assert_eq!(rate(10.0, -1.0), 0.0, "negative denominator");
        assert_eq!(rate(10.0, f64::NAN), 0.0, "NaN denominator");
        assert_eq!(rate(f64::NAN, 2.0), 0.0, "NaN numerator");
        assert_eq!(rate(10.0, f64::INFINITY), 0.0, "inf denominator");
        assert_eq!(rate(f64::MAX, f64::MIN_POSITIVE), 0.0, "overflowing ratio");
    }

    #[test]
    fn json_never_emits_nan_or_inf() {
        let m = FarmMetrics {
            elapsed_secs: f64::NAN,
            blocks_total: 0,
            blocks_per_sec: f64::INFINITY,
            queue_depth: 0,
            active_jobs: 0,
            stall_cycles: 0,
            busy_lane_cycles: 0,
            idle_lane_cycles: 0,
            stall_rate: f64::NAN,
            repacks: 0,
            steals: 0,
            width_quanta: vec![(1, 0)],
            width_estimates: vec![(1, f64::NEG_INFINITY)],
            tenants: vec![TenantMetrics {
                name: "t".into(),
                submitted: 0,
                admission_rejected: 0,
                queue_rejected: 0,
                completed: 0,
                blocks: 0,
                verified: 0,
                violations: 0,
                hw_rejections: 0,
                blocks_per_sec: f64::NAN,
            }],
        };
        let text = m.to_json().render();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // The degenerate fields all collapse to plain zeros.
        let json = Json::parse(&text).expect("renders valid JSON");
        assert_eq!(json.field("stall_rate", Json::as_f64), Ok(0.0), "{text}");
        assert_eq!(
            json.field("blocks_per_sec", Json::as_f64),
            Ok(0.0),
            "{text}"
        );
        let tenants = json.field("tenants", Json::as_arr).unwrap();
        assert_eq!(tenants[0].field("blocks_per_sec", Json::as_f64), Ok(0.0));
    }
}
