//! Human-readable digest of a telemetry artifact set.
//!
//! Reads the files the `obs` guard writes (`OBS_TRACE.json`,
//! `OBS_AUDIT.json`, `OBS_METRICS.json`, `OBS_FLIGHT.vcd`) from a
//! directory and prints what a reviewer wants to know before opening the
//! trace in Perfetto: event counts by name and track, the audit trail
//! grouped by kind and tenant, flight-dump shape, and the headline
//! metrics. Files that are absent are skipped with a note, so the tool
//! works on partial sets.
//!
//! Usage: `cargo run -p bench --bin obs_report [DIR]`

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use telemetry::{AuditLog, MetricsSnapshot, Trace};

/// One artifact: file name plus the renderer for its contents.
type ReportJob = (&'static str, fn(&str));

fn section(title: &str) {
    println!("\n== {title} ==");
}

fn report_trace(text: &str) {
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
        }
        Err(e) => println!("unreadable trace: {e}"),
    }
}

fn report_audit(text: &str) {
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
        }
        Err(e) => println!("unreadable audit log: {e}"),
    }
}

fn report_metrics(text: &str) {
    match MetricsSnapshot::from_json(text) {
        Ok(snap) => {
            for (name, v) in &snap.counters {
                println!("  {name} = {v}");
            }
            for (name, v) in &snap.gauges {
                println!("  {name} = {v}");
            }
            for (name, h) in &snap.histograms {
                println!("  {name}: {} observations, sum {:.1}", h.count, h.sum);
            }
        }
        Err(e) => println!("unreadable metrics: {e}"),
    }
}

fn report_flight(text: &str) {
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
        }
        Err(e) => println!("unreadable VCD: {e}"),
    }
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let dir = Path::new(&dir);
    let jobs: [ReportJob; 4] = [
        ("OBS_TRACE.json", report_trace),
        ("OBS_AUDIT.json", report_audit),
        ("OBS_METRICS.json", report_metrics),
        ("OBS_FLIGHT.vcd", report_flight),
    ];
    let mut seen = 0;
    for (name, render) in jobs {
        section(name);
        match std::fs::read_to_string(dir.join(name)) {
            Ok(text) => {
                seen += 1;
                render(&text);
            }
            Err(e) => println!("(skipped: {e})"),
        }
    }
    if seen == 0 {
        eprintln!(
            "obs_report: no telemetry artifacts in {} — run `guards obs` first",
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
