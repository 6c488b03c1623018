//! Regenerates the paper's evaluation section, one full table per
//! experiment.
//!
//! `experiments` runs every experiment in [`EXPERIMENTS`] order;
//! `experiments <name>…` runs only the named ones. An unknown name prints
//! the valid names to stderr and exits with status 2 before anything runs.

use std::process::ExitCode;

use accel::Protection;
use attacks::mutate::KillStage;
use bench::experiments::{self, PAPER_TABLE2};
use bench::table::render;
use sim::TrackMode;

/// Every experiment, by name, in the order a bare `experiments` runs them.
const EXPERIMENTS: [(&str, fn()); 12] = [
    ("table1", table1),
    ("table2", table2),
    ("throughput", throughput),
    ("design_effort", design_effort),
    ("fig6_leak", fig6_leak),
    ("fig8_stall", fig8_stall),
    ("sharing_granularity", sharing_granularity),
    ("attack_matrix", attack_matrix),
    ("noninterference", noninterference),
    ("lesion_study", lesion_study),
    ("tracking_ablation", tracking_ablation),
    ("buffer_depth", buffer_depth),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match bench::select(&EXPERIMENTS, &names) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("experiments: {e}");
            return ExitCode::from(2);
        }
    };
    for (i, (_, run)) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run();
    }
    ExitCode::SUCCESS
}

/// Table 1: the six security requirements as information-flow policies,
/// audited against the baseline and protected designs.
fn table1() {
    println!("Table 1 — security requirements as information-flow policies\n");
    for result in experiments::table1() {
        let rows: Vec<Vec<String>> = result
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.name.clone(),
                    o.kind.to_string(),
                    if o.flow_exists {
                        "exists"
                    } else {
                        "absent/checked"
                    }
                    .into(),
                    if o.permitted { "permit" } else { "forbid" }.into(),
                    if o.violated() { "VIOLATED" } else { "ok" }.into(),
                ]
            })
            .collect();
        println!("design: {}", result.design);
        println!(
            "{}",
            render(&["requirement", "dim", "flow", "labels", "verdict"], &rows)
        );
        println!(
            "static label errors on this structure: {}\n",
            result.static_violations
        );
    }
}

/// Table 2: area and performance of the FPGA prototypes.
fn table2() {
    let r = experiments::table2();
    let pct = |a: usize, b: usize| format!("{:+.1}%", (a as f64 / b as f64 - 1.0) * 100.0);
    let rows = vec![
        vec![
            "LUTs".into(),
            PAPER_TABLE2.baseline.0.to_string(),
            format!(
                "{} ({})",
                PAPER_TABLE2.protected.0,
                pct(PAPER_TABLE2.protected.0, PAPER_TABLE2.baseline.0)
            ),
            r.baseline.luts.to_string(),
            format!(
                "{} ({})",
                r.protected.luts,
                pct(r.protected.luts, r.baseline.luts)
            ),
        ],
        vec![
            "FFs".into(),
            PAPER_TABLE2.baseline.1.to_string(),
            format!(
                "{} ({})",
                PAPER_TABLE2.protected.1,
                pct(PAPER_TABLE2.protected.1, PAPER_TABLE2.baseline.1)
            ),
            r.baseline.ffs.to_string(),
            format!(
                "{} ({})",
                r.protected.ffs,
                pct(r.protected.ffs, r.baseline.ffs)
            ),
        ],
        vec![
            "BRAMs".into(),
            PAPER_TABLE2.baseline.2.to_string(),
            format!(
                "{} ({})",
                PAPER_TABLE2.protected.2,
                pct(PAPER_TABLE2.protected.2, PAPER_TABLE2.baseline.2)
            ),
            r.baseline.bram18.to_string(),
            format!(
                "{} ({})",
                r.protected.bram18,
                pct(r.protected.bram18, r.baseline.bram18)
            ),
        ],
        vec![
            "Frequency (MHz)".into(),
            format!("{:.0}", PAPER_TABLE2.baseline.3),
            format!("{:.0} (+0.0%)", PAPER_TABLE2.protected.3),
            format!("{:.0}", r.fmax.0),
            format!(
                "{:.0} ({:+.1}%)",
                r.fmax.1,
                (r.fmax.1 / r.fmax.0 - 1.0) * 100.0
            ),
        ],
    ];
    println!("Table 2 — area and performance of the FPGA prototypes");
    println!("(paper: Vivado/Virtex-7; measured: structural model, see fpga-model crate)\n");
    println!(
        "{}",
        render(
            &[
                "resource",
                "paper baseline",
                "paper protected",
                "model baseline",
                "model protected"
            ],
            &rows
        )
    );
    println!(
        "critical path (weighted logic levels): baseline {}, protected {}",
        r.baseline.logic_levels, r.protected.logic_levels
    );

    // Where the protected design's extra area lives.
    let net = accel::protected().lower().expect("protected lowers");
    let groups = fpga_model::estimate_by_group(&net);
    println!("\nprotected design, by module:");
    let rows: Vec<Vec<String>> = groups
        .iter()
        .filter(|g| g.luts + g.ffs + g.bram18 > 0)
        .map(|g| {
            vec![
                g.group.clone(),
                g.luts.to_string(),
                g.ffs.to_string(),
                g.bram18.to_string(),
            ]
        })
        .collect();
    println!("{}", render(&["module", "LUTs", "FFs", "BRAM18"], &rows));
}

/// The throughput/latency claims: one block per cycle, 30-cycle latency,
/// 51.2 Gbps at the 400 MHz operating point.
fn throughput() {
    println!("Throughput — pipelined accelerator at the paper's 400 MHz operating point");
    println!("(paper: 51.2 Gbps, 1 block/cycle, 30-cycle encryption latency)\n");
    let mut rows = Vec::new();
    for (name, p) in [
        ("baseline", Protection::Off),
        ("protected", Protection::Full),
    ] {
        for blocks in [64u64, 256, 1024] {
            let r = experiments::throughput(p, blocks);
            rows.push(vec![
                format!("{name} (encrypt)"),
                r.blocks.to_string(),
                r.cycles.to_string(),
                r.latency.to_string(),
                format!("{:.3}", r.blocks_per_cycle),
                format!("{:.1}", r.gbps_at_400mhz),
            ]);
        }
        let r = experiments::throughput_decrypt(p, 256);
        rows.push(vec![
            format!("{name} (decrypt)"),
            r.blocks.to_string(),
            r.cycles.to_string(),
            r.latency.to_string(),
            format!("{:.3}", r.blocks_per_cycle),
            format!("{:.1}", r.gbps_at_400mhz),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "design",
                "blocks",
                "cycles",
                "latency",
                "blocks/cycle",
                "Gbps@400MHz"
            ],
            &rows
        )
    );
    println!("steady-state: 1 block/cycle × 128 bit × 400 MHz = 51.2 Gbps");
}

/// The design-effort claim: protecting the baseline took on the order of
/// 70 changed source lines.
fn design_effort() {
    let d = experiments::design_effort();
    println!("Design effort — baseline → protected (paper: ~70 changed Chisel lines)\n");
    println!("label annotations added:        {}", d.annotations);
    println!("runtime checker constructs:     {}", d.checker_nodes);
    println!("security tag registers:         {}", d.tag_registers);
    println!("extra memories (tags, buffer):  {}", d.extra_mems);
    println!("extra bookkeeping registers:    {}", d.extra_regs);
    println!(
        "\nestimated changed builder lines: {} (paper: ~70)",
        d.estimated_changed_lines()
    );
}

/// Fig. 6: the key-dependent `valid` timing leak is caught as a static
/// label error, and confirmed dynamically.
fn fig6_leak() {
    let r = experiments::fig6();
    println!("Fig. 6 — information leakage leads to a label error in IFC\n");
    println!(
        "constant-time engine: {} violation(s) (expected 0)",
        r.fixed_violations.len()
    );
    println!(
        "leaky engine:         {} violation(s) (expected > 0):",
        r.leaky_violations.len()
    );
    for v in &r.leaky_violations {
        println!("  - {v}");
    }
    println!("\ndynamic confirmation of the flagged channel (leaky engine):");
    println!(
        "  weak key   (low byte 0x00): {} cycles",
        r.weak_key_latency
    );
    println!(
        "  strong key (low byte 0x5a): {} cycles",
        r.strong_key_latency
    );
    println!(
        "  => the handshake leaks {} cycle(s) of key-dependent timing",
        r.strong_key_latency - r.weak_key_latency
    );
}

/// Fig. 8: the confidentiality-meet stall policy and the output holding
/// buffer.
fn fig8_stall() {
    println!("Fig. 8 — stall only when the pipeline holds no lower-confidentiality data\n");
    let rows: Vec<Vec<String>> = experiments::fig8()
        .into_iter()
        .map(|s| {
            vec![
                if s.mixed_pipeline {
                    "mixed levels (Eve in flight)".into()
                } else {
                    "uniform level (Alice only)".into()
                },
                s.stalled_cycles.to_string(),
                s.peak_buffer.to_string(),
                s.completed.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "pipeline contents",
                "stalled cycles",
                "peak buffer",
                "completed"
            ],
            &rows
        )
    );
    println!("uniform: the requester may stall (everyone in flight is ≥ its level).");
    println!("mixed:   the stall is denied and the output is held in the extra buffer,");
    println!("         so the lower-level user never observes the victim's backpressure.");
}

/// The motivation experiment (Section 1): coarse-grained sharing drains
/// the deep pipeline at every user switch; fine-grained tagged sharing
/// sustains full throughput.
fn sharing_granularity() {
    println!("Sharing granularity — throughput vs user-switch period (256 blocks, 2 users)\n");
    let samples = experiments::sharing(256, &[1, 2, 4, 8, 16, 32, 64]);
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.switch_period.to_string(),
                format!("{:.3}", s.fine_bpc),
                format!("{:.3}", s.coarse_bpc),
                format!("{:.1}x", s.fine_bpc / s.coarse_bpc),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "switch period",
                "fine-grained blk/cyc",
                "coarse-grained blk/cyc",
                "speedup"
            ],
            &rows
        )
    );
    println!("fine-grained sharing (per-stage tags) is switch-frequency independent;");
    println!("coarse-grained sharing pays a ~30-cycle drain per switch.");

    // The chaining-mode corollary: latency-bound CBC chains only reach
    // pipeline throughput when independent tenants interleave.
    let cbc = experiments::cbc_sharing(8, 3);
    println!("\nCBC chaining (latency-bound) on the protected design:");
    println!(
        "  one tenant:   {:.4} blocks/cycle (each block waits a full pipeline pass)",
        cbc.single_bpc
    );
    println!(
        "  {} tenants:    {:.4} blocks/cycle aggregate ({:.1}x, fine-grained interleaving)",
        cbc.tenants,
        cbc.multi_bpc,
        cbc.multi_bpc / cbc.single_bpc
    );
}

/// The attack matrix: every discussed vulnerability exploited on the
/// baseline and blocked on the protected design, plus the design-time
/// detection summary ("all previously-mentioned vulnerabilities are
/// flagged").
fn attack_matrix() {
    println!("Attack matrix — adversarial scenarios against both designs\n");
    let rows: Vec<Vec<String>> = attacks::attack_matrix()
        .iter()
        .map(|row| {
            vec![
                row.name().into(),
                format!("{:?}", row.baseline.outcome),
                format!("{:?}", row.protected.outcome),
                row.protected.detail.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["scenario", "baseline", "protected", "protected detail"],
            &rows
        )
    );

    println!("usability (must succeed everywhere):");
    for row in attacks::usability_checks() {
        println!(
            "  {}: baseline {:?}, protected {:?}",
            row.name(),
            row.baseline.outcome,
            row.protected.outcome
        );
    }

    let report = attacks::static_findings();
    println!(
        "\ndesign-time detection: {} label error(s) on the annotated baseline structure:",
        report.violations.len()
    );
    for v in &report.violations {
        println!("  - {v}");
    }
}

/// The noninterference check: the attacker's full observable trace,
/// compared bit-for-bit across victim secrets.
fn noninterference() {
    println!("Noninterference experiment — Eve's trace vs Alice's secret\n");
    for (name, p) in [
        ("baseline", Protection::Off),
        ("protected", Protection::Full),
    ] {
        let holds = attacks::noninterference_holds(p);
        println!(
            "{name}: noninterference {}",
            if holds { "HOLDS ✓" } else { "VIOLATED ✗" }
        );
        let quiet = attacks::eve_trace(p, 0);
        let noisy = attacks::eve_trace(p, 1);
        println!(
            "  Eve completion cycle: secret=0 → {}, secret=1 → {}",
            quiet.responses[0].0, noisy.responses[0].0
        );
        let diff = quiet
            .in_ready
            .iter()
            .zip(&noisy.in_ready)
            .filter(|(a, b)| a != b)
            .count();
        println!("  differing in_ready probes: {diff}\n");
    }
    println!("The protected design's stall policy plus holding buffer make the");
    println!("attacker's view independent of the victim's data and behaviour.");
}

/// The lesion study: remove each protection mechanism individually and
/// show which stage of the mutation campaign's kill pipeline catches the
/// hole — the ablation evidence that every mechanism is necessary. The
/// lesions are the campaign's `mechanism-drop` class, and every one dies
/// before simulation: `static` for the scratchpad check, `lint` for the
/// rest, the timing-only stall policy included (the secret-timing
/// stall-guard audit).
fn lesion_study() {
    println!("Lesion study — one mechanism removed at a time\n");
    let rows: Vec<Vec<String>> = attacks::lesion_study()
        .iter()
        .map(|o| {
            vec![
                o.description.clone(),
                o.site.clone(),
                o.kill
                    .map_or_else(|| "SURVIVED".into(), |k: KillStage| k.to_string()),
                o.detail.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["lesion", "site", "killed by", "evidence"], &rows)
    );
    println!("Every mechanism is necessary: its removal is killed by the campaign");
    println!("before any simulation — by the design-time checker or the netlist lint,");
    println!("whose secret-timing audit catches the timing-only stall policy.");
}

/// The tracking-precision ablation: conservative (RTLIFT-style) tracking
/// over-taints the shared output mux; mux-precise (GLIFT-style) tracking
/// matches the static verdict.
fn tracking_ablation() {
    println!("Tracking-precision ablation on the protected design (24-block stream)\n");
    let rows: Vec<Vec<String>> = experiments::tracking_ablation()
        .into_iter()
        .map(|s| {
            let (name, assessment) = match s.mode {
                TrackMode::Off => ("off (baseline hardware)", "no visibility"),
                TrackMode::Conservative => (
                    "conservative (RTLIFT-style)",
                    if s.violations > 0 {
                        "false positives (over-tainting)"
                    } else {
                        "clean"
                    },
                ),
                TrackMode::Precise => (
                    "mux-precise (GLIFT-style)",
                    if s.violations == 0 {
                        "clean (matches static verdict)"
                    } else {
                        "unexpected findings"
                    },
                ),
            };
            vec![
                name.into(),
                s.completed.to_string(),
                s.violations.to_string(),
                assessment.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "tracking mode",
                "blocks completed",
                "violations raised",
                "assessment"
            ],
            &rows
        )
    );
}

/// Sizing the Fig. 8 output holding buffer. When the confidentiality-meet
/// policy denies a stall, completed blocks must be absorbed by the holding
/// buffer; a buffer that is too shallow drops them. Against the sweep's
/// 35-cycle receiver outage the prototype's 16 entries (the BRAM the paper
/// attributes its +10 % overhead to) still drop blocks and 32 absorb it.
fn buffer_depth() {
    println!("Holding-buffer depth ablation (35-cycle receiver outage, mixed-level burst)\n");
    let samples = experiments::buffer_depth_sweep(&[2, 4, 8, 16, 32]);
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.depth.to_string(),
                s.drops.to_string(),
                s.completed.to_string(),
                if s.drops == 0 { "lossless" } else { "lossy" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["buffer depth", "dropped blocks", "completed", "verdict"],
            &rows
        )
    );
    println!("The stall policy trades availability for isolation; the holding");
    println!("buffer buys both back once it covers the expected receiver outage.");
}
