//! Disassembler round-trip properties: for generated netlists, the tape
//! engine's listing parses back to a column-identical tape (fingerprint
//! equality), re-renders byte-identically, and is invariant across lane
//! widths — the lane count scales the state planes, never the program.

use hdl::{ModuleBuilder, Netlist};
use proptest::prelude::*;
use sim::{disasm, BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};

/// Structural recipe for a small design (same scheme as the batched
/// differential tests): binary ops chained over a register file, with
/// downgrade gates sprinkled in.
#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<(u8, usize, usize)>,
    guard_pairs: Vec<(usize, usize, bool)>,
}

const GENS: usize = 5;

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec((0u8..12, 0usize..GENS, 0usize..GENS), 1..8),
        proptest::collection::vec((0usize..GENS, 0usize..GENS, any::<bool>()), 0..3),
    )
        .prop_map(|(ops, guard_pairs)| Recipe { ops, guard_pairs })
}

fn build(recipe: &Recipe) -> Netlist {
    let mut m = ModuleBuilder::new("roundtrip");
    let mut gens = Vec::new();
    for i in 0..GENS {
        let inp = m.input(&format!("i{i}"), 8);
        let reg = m.reg(&format!("r{i}"), 8, (i as u128) + 1);
        let fed = m.xor(inp, reg);
        m.connect(reg, fed);
        m.output(&format!("o{i}"), fed);
        gens.push(fed);
    }
    for &(kind, a, b) in &recipe.ops {
        let (x, y) = (gens[a % gens.len()], gens[b % gens.len()]);
        let node = match kind % 12 {
            0 => m.and(x, y),
            1 => m.or(x, y),
            2 => m.xor(x, y),
            3 => m.add(x, y),
            4 => m.sub(x, y),
            5 => m.not(x),
            6 => m.eq(x, y),
            7 => m.lt(x, y),
            8 => {
                let sel = m.eq(x, y);
                m.mux(sel, x, y)
            }
            9 => m.cat(x, y),
            10 => {
                if x.width() > 1 {
                    m.slice(x, x.width() - 1, x.width() / 2)
                } else {
                    m.not(x)
                }
            }
            _ => m.reduce_xor(x),
        };
        if node.width() <= 64 {
            gens.push(node);
        }
    }
    for (i, &(a, s, endorse)) in recipe.guard_pairs.iter().enumerate() {
        const LABELS: [ifc_lattice::Label; 2] = [
            ifc_lattice::Label::PUBLIC_TRUSTED,
            ifc_lattice::Label::SECRET_TRUSTED,
        ];
        let data = gens[a % gens.len()];
        let p = m.tag_lit(LABELS[s % LABELS.len()]);
        let node = if endorse {
            m.endorse(data, ifc_lattice::Label::PUBLIC_TRUSTED, p)
        } else {
            m.declassify(data, ifc_lattice::Label::PUBLIC_UNTRUSTED, p)
        };
        m.output(&format!("g{i}"), node);
    }
    let last = *gens.last().expect("at least the generators");
    m.output("last", last);
    m.finish().lower().expect("recipe lowers")
}

fn assert_roundtrip(listing: &str, fingerprint: u64, len: usize, what: &str) {
    let parsed =
        disasm::parse(listing).unwrap_or_else(|e| panic!("{what}: listing fails to parse: {e}"));
    assert_eq!(parsed.len(), len, "{what}: instruction count diverged");
    assert_eq!(
        parsed.fingerprint(),
        fingerprint,
        "{what}: parsed tape is not column-identical"
    );
    assert_eq!(
        parsed.to_listing(),
        listing,
        "{what}: re-render is not idempotent"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `render → parse → fingerprint/render` is exact for the tape
    /// engine at every supported lane width, raw and optimized; and the
    /// program is identical across widths (W=1 is the reference).
    #[test]
    fn listing_roundtrips_at_every_lane_width(recipe in arb_recipe()) {
        let net = build(&recipe);
        for config in [OptConfig::none(), OptConfig::all()] {
            let single = BatchedSim::with_tracking_opt(net.clone(), TrackMode::Precise, 1, &config);
            for lanes in SUPPORTED_LANES {
                let sim = BatchedSim::with_tracking_opt(
                    net.clone(),
                    TrackMode::Precise,
                    lanes,
                    &config,
                );
                assert_roundtrip(
                    &sim.disassemble(),
                    sim.tape_fingerprint(),
                    sim.tape_len(),
                    &format!("BatchedSim W={lanes}"),
                );
                prop_assert_eq!(
                    sim.tape_fingerprint(),
                    single.tape_fingerprint(),
                    "lane width {} changed the program", lanes
                );
                prop_assert_eq!(sim.disassemble(), single.disassemble());
            }
        }
    }
}
