//! Disassembles the protected accelerator's compiled SoA tape.
//!
//! Prints the human-readable listing of the tape the lane-batched
//! engine executes — one line per tape instruction, prefixed by a header
//! with the instruction count and the tape fingerprint — after
//! round-tripping it through [`sim::disasm::parse`] to prove the listing
//! is faithful. A summary line compares the raw (pass-free) tape against
//! the optimized one, so pass regressions show up as instruction-count
//! or fingerprint drift.
//!
//! Usage: `cargo run --release -p bench --bin tape_dis [off|conservative|precise] [out.txt]`
//!
//! With no output path the listing goes to stdout (pipe it through a
//! pager; the protected tape is several thousand instructions).

use std::process::ExitCode;

use accel::protected;
use sim::{BatchedSim, OptConfig, TrackMode};

fn main() -> ExitCode {
    let mode = match std::env::args().nth(1).as_deref() {
        None | Some("conservative") => TrackMode::Conservative,
        Some("off") => TrackMode::Off,
        Some("precise") => TrackMode::Precise,
        Some(other) => {
            eprintln!("tape_dis: unknown tracking mode `{other}` (off|conservative|precise)");
            return ExitCode::FAILURE;
        }
    };
    let out_path = std::env::args().nth(2);

    let net = protected().lower().expect("protected lowers");
    let raw = BatchedSim::with_tracking_opt(net.clone(), mode, 1, &OptConfig::none());
    let sim = BatchedSim::with_tracking_opt(net, mode, 1, &OptConfig::all());

    let listing = sim.disassemble();
    let parsed = sim::disasm::parse(&listing).expect("listing round-trips");
    assert_eq!(
        parsed.fingerprint(),
        sim.tape_fingerprint(),
        "parsed tape fingerprint must match the live tape"
    );
    assert_eq!(parsed.len(), sim.tape_len());

    eprintln!(
        "protected tape, {mode:?} tracking: {} instrs raw -> {} optimized ({:.1}% removed), fingerprint {:016x}",
        raw.tape_len(),
        sim.tape_len(),
        100.0 * (1.0 - sim.tape_len() as f64 / raw.tape_len() as f64),
        sim.tape_fingerprint(),
    );

    match out_path {
        Some(path) => {
            std::fs::write(&path, &listing).expect("write listing");
            eprintln!("wrote {path}");
        }
        None => print!("{listing}"),
    }
    ExitCode::SUCCESS
}
