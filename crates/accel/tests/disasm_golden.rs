//! Golden listing snapshot for the protected accelerator's optimized
//! tape.
//!
//! The full listing runs to thousands of lines, so the checked-in golden
//! is the disassembler header — which pins the instruction count and the
//! FNV-1a fingerprint of *every* column of the whole tape — plus the
//! first instructions as a human-readable anchor. Any change to lowering
//! or the optimizer pipeline shifts the fingerprint and fails this test;
//! re-bless deliberately with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p accel --test disasm_golden
//! ```

use accel::protected;
use sim::{disasm, BatchedSim, OptConfig, TrackMode};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/protected_tape.txt"
);

/// Header line + this many instruction lines.
const SNAPSHOT_INSTRS: usize = 47;

fn snapshot() -> String {
    let net = protected().lower().expect("protected design lowers");
    let sim = BatchedSim::with_tracking_opt(net, TrackMode::Precise, 1, &OptConfig::all());
    let listing = sim.disassemble();
    let head: Vec<&str> = listing.lines().take(SNAPSHOT_INSTRS + 1).collect();
    assert_eq!(
        head.len(),
        SNAPSHOT_INSTRS + 1,
        "optimized protected tape shrank below the snapshot window"
    );
    let mut snap = head.join("\n");
    snap.push('\n');
    snap
}

#[test]
fn protected_tape_listing_matches_golden() {
    let snap = snapshot();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &snap).expect("golden file writes");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing; bless with BLESS_GOLDEN=1");
    assert_eq!(
        snap, golden,
        "protected tape listing diverged from the golden snapshot \
         (re-bless with BLESS_GOLDEN=1 if the change is intentional)"
    );
    // The snapshot is a truncated but well-formed listing: every line
    // must survive the disassembler's own parser.
    let parsed = disasm::parse(&snap).expect("golden snapshot parses");
    assert_eq!(parsed.len(), SNAPSHOT_INSTRS);
}
