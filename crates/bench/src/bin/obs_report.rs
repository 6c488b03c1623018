//! Human-readable digest of a telemetry artifact set.
//!
//! Reads the files the `obs` guard writes (`OBS_TRACE.json`,
//! `OBS_AUDIT.json`, `OBS_METRICS.json`, `OBS_FLIGHT.vcd`) from a
//! directory and prints what a reviewer wants to know before opening the
//! trace in Perfetto: event counts by name and track, the audit trail
//! grouped by kind and tenant, flight-dump shape, and the headline
//! farm metrics. Files that are absent are skipped with a note, and a
//! file that does not parse is reported as unreadable, so the tool
//! digests partial or damaged sets.
//!
//! Exits 0 when at least one artifact was read and every one read
//! parsed, and 1 when none was found or any read one is unreadable.
//!
//! Usage: `cargo run -p bench --bin obs_report [DIR]`

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use telemetry::{AuditLog, Json, Trace};

/// One artifact: file name plus the renderer for its contents, which
/// returns whether they parsed.
type ReportJob = (&'static str, fn(&str) -> bool);

fn section(title: &str) {
    println!("\n== {title} ==");
}

fn report_trace(text: &str) -> bool {
    match Trace::from_chrome_json(text) {
        Ok(trace) => {
            let problems = trace.validate();
            println!(
                "{} events, {} dropped, well-formed: {}",
                trace.events.len(),
                trace.dropped,
                if problems.is_empty() {
                    "yes".to_string()
                } else {
                    format!("NO ({problems:?})")
                }
            );
            let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
            let mut by_tid: BTreeMap<u64, usize> = BTreeMap::new();
            for e in &trace.events {
                *by_name.entry(e.name.as_str()).or_default() += 1;
                *by_tid.entry(e.tid).or_default() += 1;
            }
            for (name, n) in by_name {
                println!("  {n:>6}  {name}");
            }
            let tracks: Vec<String> = by_tid
                .iter()
                .map(|(tid, n)| format!("tid {tid}: {n}"))
                .collect();
            println!("  tracks: {}", tracks.join(", "));
            true
        }
        Err(e) => {
            println!("unreadable trace: {e}");
            false
        }
    }
}

fn report_audit(text: &str) -> bool {
    match AuditLog::from_json(text) {
        Ok(log) => {
            println!("{} records, {} evicted", log.records.len(), log.evicted);
            let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
            let mut by_tenant: BTreeMap<String, usize> = BTreeMap::new();
            for r in &log.records {
                let kind = r
                    .event
                    .kind
                    .map_or("unknown".to_string(), |k| k.key().to_string());
                *by_kind.entry(kind).or_default() += 1;
                let tenant = r
                    .event
                    .tenant_name
                    .clone()
                    .unwrap_or_else(|| "<unattributed>".into());
                *by_tenant.entry(tenant).or_default() += 1;
            }
            for (kind, n) in by_kind {
                println!("  {n:>6}  {kind}");
            }
            for (tenant, n) in by_tenant {
                println!("  tenant {tenant}: {n}");
            }
            if let Some(first) = log.records.first() {
                println!(
                    "  first: seq {} @ {}us — {}",
                    first.seq, first.ts_us, first.event.detail
                );
            }
            true
        }
        Err(e) => {
            println!("unreadable audit log: {e}");
            false
        }
    }
}

/// The digest of a `FarmMetrics` JSON document: the farm-wide
/// headline, the width-quanta histogram, and one line per tenant.
fn metrics_digest(text: &str) -> Result<Vec<String>, String> {
    let m = Json::parse(text)?;
    let mut lines = vec![format!(
        "{} blocks, {:.0} blocks/s, stall rate {:.4}, {} repacks, {} steals",
        m.field("blocks_total", Json::as_u64)?,
        m.field("blocks_per_sec", Json::as_f64)?,
        m.field("stall_rate", Json::as_f64)?,
        m.field("repacks", Json::as_u64)?,
        m.field("steals", Json::as_u64)?,
    )];
    let widths = m
        .field("width_quanta", Json::as_arr)?
        .iter()
        .map(|w| {
            Ok(format!(
                "w{} {}",
                w.field("width", Json::as_u64)?,
                w.field("quanta", Json::as_u64)?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    lines.push(format!("  width quanta: {}", widths.join(", ")));
    for t in m.field("tenants", Json::as_arr)? {
        let count = |key| t.field(key, Json::as_u64);
        lines.push(format!(
            "  tenant {}: {} submitted, {} admission-rejected, {} queue-rejected, \
             {} completed, {} blocks, {} verified, {} violations, {} hw-rejected",
            t.field("name", Json::as_str)?,
            count("submitted")?,
            count("admission_rejected")?,
            count("queue_rejected")?,
            count("completed")?,
            count("blocks")?,
            count("verified")?,
            count("violations")?,
            count("hw_rejections")?,
        ));
    }
    Ok(lines)
}

fn report_metrics(text: &str) -> bool {
    match metrics_digest(text) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            true
        }
        Err(e) => {
            println!("unreadable metrics: {e}");
            false
        }
    }
}

fn report_flight(text: &str) -> bool {
    match sim::parse_vcd(text) {
        Ok(doc) => {
            println!(
                "module {:?}: {} signals, {} timesteps",
                doc.module,
                doc.signals.len(),
                doc.changes.len()
            );
            let labels = doc
                .signals
                .iter()
                .filter(|(name, _, _)| name.ends_with("__label"))
                .count();
            println!("  {labels} tag-plane (__label) traces");
            true
        }
        Err(e) => {
            println!("unreadable VCD: {e}");
            false
        }
    }
}

/// Digests every artifact in `dir`; returns how many were read and how
/// many of those were unreadable.
fn report_dir(dir: &Path) -> (usize, usize) {
    let jobs: [ReportJob; 4] = [
        ("OBS_TRACE.json", report_trace),
        ("OBS_AUDIT.json", report_audit),
        ("OBS_METRICS.json", report_metrics),
        ("OBS_FLIGHT.vcd", report_flight),
    ];
    let (mut read, mut unreadable) = (0, 0);
    for (name, render) in jobs {
        section(name);
        match std::fs::read_to_string(dir.join(name)) {
            Ok(text) => {
                read += 1;
                if !render(&text) {
                    unreadable += 1;
                }
            }
            Err(e) => println!("(skipped: {e})"),
        }
    }
    (read, unreadable)
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let dir = Path::new(&dir);
    match report_dir(dir) {
        (0, _) => {
            eprintln!(
                "obs_report: no telemetry artifacts in {} — run `guards obs` first",
                dir.display()
            );
            ExitCode::FAILURE
        }
        (_, 0) => ExitCode::SUCCESS,
        (_, unreadable) => {
            eprintln!(
                "obs_report: {unreadable} telemetry artifact(s) in {} do not parse",
                dir.display()
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm::{FarmMetrics, TenantMetrics};

    fn rendered_metrics() -> String {
        FarmMetrics {
            elapsed_secs: 0.5,
            blocks_total: 64,
            blocks_per_sec: 128.0,
            queue_depth: 0,
            active_jobs: 0,
            stall_cycles: 3,
            busy_lane_cycles: 300,
            idle_lane_cycles: 12,
            stall_rate: 0.01,
            repacks: 2,
            steals: 1,
            width_quanta: vec![(1, 4), (4, 9)],
            tenants: vec![TenantMetrics {
                name: "bulk".into(),
                submitted: 2,
                admission_rejected: 1,
                queue_rejected: 0,
                completed: 2,
                blocks: 64,
                verified: 64,
                violations: 0,
                hw_rejections: 0,
                blocks_per_sec: 128.0,
            }],
        }
        .to_json()
        .render()
    }

    #[test]
    fn metrics_digest_reads_the_farm_metrics_record() {
        let lines = metrics_digest(&rendered_metrics()).expect("a rendered record digests");
        assert_eq!(
            lines[0],
            "64 blocks, 128 blocks/s, stall rate 0.0100, 2 repacks, 1 steals"
        );
        assert_eq!(lines[1], "  width quanta: w1 4, w4 9");
        assert!(lines[2].starts_with("  tenant bulk: 2 submitted, 1 admission-rejected"));
    }

    #[test]
    fn bad_metrics_files_are_unreadable_not_fatal() {
        let full = rendered_metrics();
        for cut in 0..full.len() {
            assert!(
                metrics_digest(&full[..cut]).is_err(),
                "truncated at {cut} digests"
            );
        }
        // Arbitrary bytes from a fixed xorshift walk, decoded lossily.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..256 {
            let bytes: Vec<u8> = (0..64)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x.to_le_bytes()[0]
                })
                .collect();
            assert!(metrics_digest(&String::from_utf8_lossy(&bytes)).is_err());
        }
        assert!(metrics_digest("{\"blocks_total\": \"many\"}").is_err());
    }
}
