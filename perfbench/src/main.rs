//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a readable summary and then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, every per-layer metric with `--trace 1`. A run that
//! measured exits 0, whatever its output checks found (they set
//! `correct`); bad arguments exit 2.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{host, per_layer_catalogue, run_workload, stats, RunOpts, END_TO_END, WORKLOADS};

/// Where traced runs write their spans, relative to the working
/// directory (the benchmark's build directory, ignored by git).
const SPAN_DIR: &str = ".bench_build/perfbench-spans";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&flag, &value)?,
            "--seconds" => args.seconds = number(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    let mut m = run_workload(&args.workload, &opts).expect("the workload name was checked");
    let peak_rss_mb = host::peak_rss_mb();
    let slowdown = m.probe.slowdown();

    let e2e = |p: &perfbench::Population| [p.per_s, p.p50(), p.p95()];
    let raw = e2e(&m.ops);
    let raw_setup_s = m.setup.p50() / 1e3;
    // End-to-end times are reported at the reference host speed: each op
    // and each set-up is scaled by the host's slowdown around it.
    let ops = e2e(&m.ops.at_reference_speed(&m.probe));
    let scaled = [
        ops[0],
        ops[1],
        ops[2],
        m.setup.at_reference_speed(&m.probe).p50() / 1e3,
        peak_rss_mb,
    ];
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        if let Some(traced) = &m.traced {
            for ((name, _), (t, u)) in END_TO_END.iter().zip(e2e(traced).into_iter().zip(raw)) {
                m.layers.insert(format!("trace.overhead.{name}"), t - u);
            }
        }
        m.layers.insert("host.ref_ms".to_owned(), m.probe.ref_ms());
        m.layers.insert("host.slowdown".to_owned(), slowdown);
        for (name, unit) in per_layer_catalogue() {
            let value = m.layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
    } else {
        for (&(name, unit), value) in END_TO_END.iter().zip(scaled) {
            metrics.push((name.to_owned(), value, unit));
        }
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            m.failures.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }

    let n = m.ops.latencies_ms.len();
    let failed = m.failures.len() as u64;
    println!(
        "perfbench {} seed={} window={}s trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  ops={n} beyond_p95={} attempted={} failed={failed} ({:.3}% failed)",
        stats::beyond(n, 0.95),
        m.attempted,
        failed as f64 * 100.0 / m.attempted.max(1) as f64
    );
    println!(
        "  raw: throughput_per_s={:.4} op_p50_ms={:.4} op_p95_ms={:.4} setup_s={:.6} peak_rss_mb={peak_rss_mb:.2}",
        raw[0], raw[1], raw[2], raw_setup_s
    );
    println!(
        "  host: slowdown={slowdown:.4} ref_ms={:.4} sort_ms={:.4} over {} probe samples",
        m.probe.ref_ms(),
        m.probe.sort_ms(),
        m.probe.samples()
    );
    println!(
        "  at reference host speed: throughput_per_s={:.4} op_p50_ms={:.4} op_p95_ms={:.4} setup_s={:.6}",
        scaled[0], scaled[1], scaled[2], scaled[3]
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    if args.trace && m.traced.is_none() {
        println!(
            "  trace.overhead.* not measurable on {}; they read 0",
            args.workload
        );
    }
    for f in &m.failures {
        println!("FAILED {f}");
    }
    if let Some(spans) = &m.spans {
        let path = Path::new(SPAN_DIR).join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        json(m.failures.is_empty(), m.attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
