//! Evaluation-section integration tests: Table 2's shape, the throughput
//! and latency claims, the sharing-granularity claim, and the
//! design-effort measurement.

use bench::experiments::{design_effort, sharing, table2, throughput};
use secure_aes_ifc::accel::Protection;

#[test]
fn table2_overheads_are_marginal_and_frequency_unchanged() {
    let r = table2();
    let ovh = r.protected.overhead_vs(&r.baseline);
    assert!(
        ovh.luts > 0.0 && ovh.luts < 0.15,
        "LUTs {:+.1}%",
        ovh.luts * 100.0
    );
    assert!(
        ovh.ffs > 0.0 && ovh.ffs < 0.15,
        "FFs {:+.1}%",
        ovh.ffs * 100.0
    );
    assert!(
        ovh.bram18 > 0.0 && ovh.bram18 < 0.25,
        "BRAM {:+.1}%",
        ovh.bram18 * 100.0
    );
    assert!((r.fmax.0 - 400.0).abs() < 1e-9);
    assert!(
        (r.fmax.1 - 400.0).abs() < 1e-9,
        "frequency must be unchanged"
    );
}

#[test]
fn throughput_reaches_one_block_per_cycle() {
    let r = throughput(Protection::Full, 256);
    assert_eq!(r.latency, 30, "30-cycle encryption latency");
    assert!(
        r.blocks_per_cycle > 0.85,
        "sustained throughput {:.3} blocks/cycle",
        r.blocks_per_cycle
    );
    // Asymptotically 51.2 Gbps at 400 MHz.
    assert!(r.gbps_at_400mhz > 43.0, "{:.1} Gbps", r.gbps_at_400mhz);
}

#[test]
fn protection_matches_baseline_performance() {
    let base = throughput(Protection::Off, 128);
    let prot = throughput(Protection::Full, 128);
    assert_eq!(base.cycles, prot.cycles, "no performance impact");
    assert_eq!(base.latency, prot.latency);
}

#[test]
fn fine_grained_sharing_beats_coarse_grained() {
    // Users alternating every 4 requests: the tagged pipeline keeps
    // streaming, the coarse design drains the pipeline at every switch.
    let s = sharing(32, &[4])[0];
    assert!(s.fine_bpc > s.coarse_bpc, "{s:?}");
}

#[test]
fn holding_buffer_depth_trades_drops_for_area() {
    let samples = bench::experiments::buffer_depth_sweep(&[2, 32]);
    assert!(
        samples[0].drops > 0,
        "a 2-entry buffer overflows: {samples:?}"
    );
    assert_eq!(samples[1].drops, 0, "a 32-entry buffer absorbs the outage");
    assert!(samples[1].completed > samples[0].completed);
}

#[test]
fn design_effort_is_on_the_order_of_seventy_lines() {
    let d = design_effort();
    let lines = d.estimated_changed_lines();
    assert!(
        (30..200).contains(&lines),
        "estimated changed lines: {lines} (paper: ~70)"
    );
    assert!(d.annotations > 0);
    assert!(d.checker_nodes > 0);
}
