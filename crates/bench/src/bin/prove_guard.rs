//! CI gate for the bit-precise noninterference prover.
//!
//! Three checks, all deterministic:
//!
//! 1. **Protected proof** — every observable of the protected
//!    accelerator (public outputs, stall/ready surface, memory write
//!    enables) must be proved noninterferent by self-composition at
//!    `k ≥ 8`, under the netlist's own annotations.
//! 2. **Ablated control** — the annotated-but-unprotected baseline must
//!    yield SAT counterexamples on its leaky debug/config surface, each
//!    one replayed and confirmed on the interpreter oracle: the prover
//!    must convict what enforcement removal re-enables, not merely fail
//!    to prove it.
//! 3. **Planted fuzz known-bad** — the fuzzer's seeded annotation-spoof
//!    fault (`spoof-input-label` on the generated design family) must
//!    produce an oracle-confirmed claimed-public counterexample under
//!    the role-based environment contract, with the fuzz stage's own
//!    shallow budgets.
//!
//! Writes `PROVE_REPORT.json` with the seed first, per-observable
//! verdicts, counterexample port programs, and aggregate solver
//! statistics, so a CI failure triages locally from the artifact alone
//! (see the counterexample-triage walkthrough in EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p bench --bin prove_guard
//! [--k N] [--seed S] [REPORT.json]`

use std::process::ExitCode;
use std::time::Instant;

use fuzz::{apply_surgery, build_design, gen_input, SurgeryOp};
use ifc_check::prover::{prove_annotated, ObsKind, ProveOptions, ProveReport, Verdict};
use telemetry::Json;

/// The planted known-bad fuzz seed: the same annotation-spoof witness
/// the fuzz corpus carries (`bad-spoof-submit`), so the guard and the
/// corpus convict the identical fault.
const PLANTED_SEED: u64 = 0x5eed;

fn verdict_histogram(report: &ProveReport) -> String {
    let mut proved = 0usize;
    let mut structural = 0usize;
    let mut cex = 0usize;
    let mut unknown = 0usize;
    for r in &report.results {
        match &r.verdict {
            Verdict::ProvedStructural => structural += 1,
            Verdict::Proved { .. } => proved += 1,
            Verdict::Counterexample(_) => cex += 1,
            Verdict::Unknown { .. } => unknown += 1,
        }
    }
    format!(
        "{structural} structural + {proved} solver-proved, {cex} counterexample(s), {unknown} unknown"
    )
}

fn main() -> ExitCode {
    let mut report_path = "PROVE_REPORT.json".to_string();
    let mut k: u32 = 8;
    let mut seed = bench::ci_seed(0x9602_2019);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--k" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => k = n,
                None => {
                    eprintln!("prove_guard: --k expects a number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("prove_guard: --seed expects a u64");
                    return ExitCode::FAILURE;
                }
            },
            other => report_path = other.to_string(),
        }
    }
    if k < 8 {
        eprintln!("prove_guard: the acceptance bar is k >= 8 (got {k})");
        return ExitCode::FAILURE;
    }

    println!("prove_guard: seed {seed} ({seed:#x}), k {k}");
    let start = Instant::now();
    let mut failed = false;

    // Check 1: the protected design proves noninterferent at k, every
    // observable, value and timing channels alike.
    let protected_net = match accel::protected().lower() {
        Ok(net) => net,
        Err(e) => {
            eprintln!("prove_guard: protected design does not lower: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let opts = ProveOptions {
        k,
        ..ProveOptions::default()
    };
    let protected_report = prove_annotated(&protected_net, &opts);
    println!(
        "protected: {} observable(s) at k={} — {} ({} vars, {} clauses, {} conflicts)",
        protected_report.results.len(),
        protected_report.k,
        verdict_histogram(&protected_report),
        protected_report.stats.vars,
        protected_report.stats.clauses,
        protected_report.stats.conflicts,
    );
    if !protected_report.all_proved() {
        failed = true;
        for r in &protected_report.results {
            if !r.verdict.is_proved() {
                eprintln!(
                    "prove_guard: FAIL — protected observable {} not proved: {}",
                    r.name,
                    r.verdict.key()
                );
            }
        }
    }

    // Check 2: the ablated control must be convicted. The baseline's
    // leaky surface is its config/debug readback; targeting it keeps the
    // SAT solves small without weakening the claim (a single confirmed
    // counterexample already separates the arms).
    let control_net = match accel::baseline_annotated().lower() {
        Ok(net) => net,
        Err(e) => {
            eprintln!("prove_guard: control design does not lower: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let control_opts = ProveOptions {
        k,
        targets: Some(vec!["cfg_out".into(), "dbg_out".into()]),
        ..ProveOptions::default()
    };
    let control_report = prove_annotated(&control_net, &control_opts);
    let control_confirmed: Vec<&str> = control_report
        .results
        .iter()
        .filter_map(|r| match &r.verdict {
            Verdict::Counterexample(cex) if cex.confirmed => Some(r.name.as_str()),
            _ => None,
        })
        .collect();
    println!(
        "control: {} observable(s) — {}; oracle-confirmed: [{}]",
        control_report.results.len(),
        verdict_histogram(&control_report),
        control_confirmed.join(", "),
    );
    if control_confirmed.is_empty() {
        failed = true;
        eprintln!(
            "prove_guard: FAIL — ablated control produced no oracle-confirmed counterexample"
        );
    }

    // Check 3: the planted fuzz known-bad under the role contract and
    // the fuzz stage's own budgets.
    let input = gen_input(PLANTED_SEED);
    let spoofed = apply_surgery(
        &build_design(&input.spec),
        &[SurgeryOp::SpoofInputLabel { input: 0 }],
    );
    let fuzz_report = match spoofed.lower() {
        Ok(net) => fuzz::prove_stage(&net, &fuzz::fuzz_prove_options()),
        Err(e) => {
            eprintln!("prove_guard: planted known-bad does not lower: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let spoof_confirmed = fuzz_report.results.iter().any(|r| {
        r.kind == ObsKind::ClaimedPublic
            && matches!(&r.verdict, Verdict::Counterexample(cex) if cex.confirmed)
    });
    println!(
        "fuzz known-bad: {} observable(s) at k={} — {}; claimed-public confirmed: {}",
        fuzz_report.results.len(),
        fuzz_report.k,
        verdict_histogram(&fuzz_report),
        spoof_confirmed,
    );
    if !spoof_confirmed {
        failed = true;
        eprintln!(
            "prove_guard: FAIL — planted annotation spoof yielded no replayable \
             claimed-public counterexample"
        );
    }

    let total_secs = start.elapsed().as_secs_f64();
    let artifact = Json::obj(vec![
        ("seed", Json::U64(seed)),
        ("k", Json::U64(u64::from(k))),
        (
            "checks",
            Json::obj(vec![
                (
                    "protected_all_proved",
                    Json::Bool(protected_report.all_proved()),
                ),
                (
                    "control_confirmed_counterexamples",
                    Json::U64(control_confirmed.len() as u64),
                ),
                ("fuzz_known_bad_confirmed", Json::Bool(spoof_confirmed)),
            ]),
        ),
        ("protected", protected_report.to_json()),
        ("control", control_report.to_json()),
        ("fuzz_known_bad", fuzz_report.to_json()),
        ("total_seconds", Json::F64(total_secs)),
    ]);
    let mut text = artifact.render();
    text.push('\n');
    if let Err(e) = std::fs::write(&report_path, &text) {
        eprintln!("prove_guard: cannot write {report_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {report_path} ({total_secs:.1}s)");

    if failed {
        return ExitCode::FAILURE;
    }
    println!("prove_guard: OK");
    ExitCode::SUCCESS
}
