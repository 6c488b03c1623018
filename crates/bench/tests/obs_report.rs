//! `obs_report`'s exit code: 0 only when the artifacts it read all
//! parse, so a corrupted artifact set fails the step that digests it.

use std::path::PathBuf;
use std::process::Command;

use farm::FarmMetrics;

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obs_report_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `obs_report` on `dir`, removes `dir`, and returns the exit code.
fn obs_report(dir: PathBuf) -> Option<i32> {
    let status = Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .arg(&dir)
        .output()
        .expect("obs_report runs")
        .status;
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    status.code()
}

fn metrics() -> String {
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
        width_quanta: vec![(4, 9)],
        tenants: Vec::new(),
    }
    .to_json()
    .render()
}

#[test]
fn readable_artifacts_exit_zero() {
    let dir = scratch_dir("readable");
    std::fs::write(dir.join("OBS_METRICS.json"), metrics()).expect("write metrics");
    assert_eq!(obs_report(dir), Some(0));
}

#[test]
fn truncated_metrics_and_garbage_audit_exit_nonzero() {
    let dir = scratch_dir("damaged");
    let metrics = metrics();
    std::fs::write(dir.join("OBS_METRICS.json"), &metrics[..metrics.len() / 2])
        .expect("write truncated metrics");
    std::fs::write(dir.join("OBS_AUDIT.json"), "\u{1}garbage{[").expect("write audit");
    assert_eq!(obs_report(dir), Some(1));
}

#[test]
fn an_empty_directory_exits_nonzero() {
    assert_eq!(obs_report(scratch_dir("empty")), Some(1));
}
