//! Runs the CI guards of [`bench::guards`] and gates on them.
//!
//! Usage: `guards [--out DIR] [--emit-corpus] [farm|fuzz|mutation|obs|prove]…`
//!
//! No names runs every guard in table order. An unknown name or flag, or
//! a malformed `CI_SEED`, exits 2 before anything runs. Reports are
//! written under `--out` (default `.`). Every selected guard runs even
//! after one has failed; the run ends with one pass/fail line per guard
//! and exits 1 if any failed. `--emit-corpus` regenerates `corpus/` from
//! the fuzz guard's seed instead, and runs no guard.

use std::fs;
use std::panic::catch_unwind;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::guards::{self, fuzz, Outcome};

fn main() -> ExitCode {
    let mut out = PathBuf::from(".");
    let mut emit = false;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => names.push(arg),
            },
            "--emit-corpus" => emit = true,
            _ => names.push(arg),
        }
    }
    let table = guards::table();
    let (selected, ci_seed) = match bench::select(&table, &names).and_then(|selected| {
        let ci_seed = bench::ci_seed()?;
        Ok((selected, ci_seed))
    }) {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("guards: {e}");
            return ExitCode::from(2);
        }
    };

    if emit {
        let seed = ci_seed.unwrap_or(fuzz::SEED);
        println!("guards: emitting corpus from seed {seed} ({seed:#x})");
        if let Err(e) = fuzz::emit_corpus(seed) {
            eprintln!("guards: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let mut verdicts = Vec::new();
    for &(name, (default_seed, run)) in selected {
        let seed = ci_seed.unwrap_or(default_seed);
        println!("guards: {name}: seed {seed} ({seed:#x})");
        // A guard that panics has failed; the rest still run.
        let Outcome {
            reports,
            mut failures,
        } = catch_unwind(|| run(seed)).unwrap_or_else(|_| Outcome {
            reports: Vec::new(),
            failures: vec!["panicked".into()],
        });
        for (file, text) in reports {
            let path = out.join(file);
            let written = path
                .parent()
                .map_or(Ok(()), fs::create_dir_all)
                .and_then(|()| fs::write(&path, text));
            match written {
                Ok(()) => println!("guards: {name}: wrote {}", path.display()),
                Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
            }
        }
        for f in &failures {
            eprintln!("guards: {name}: FAIL — {f}");
        }
        verdicts.push((name, failures.len()));
    }

    for &(name, failed) in &verdicts {
        match failed {
            0 => println!("guards: {name}: PASS"),
            n => println!("guards: {name}: FAIL ({n} failure(s))"),
        }
    }
    ExitCode::from(u8::from(verdicts.iter().any(|&(_, failed)| failed > 0)))
}
