//! The property `ProtectedReplayer` derives its `Off` row from: tracking
//! gates only the label plane.
//!
//! One compiled tape backs an instance under every [`TrackMode`]. Driven
//! with the same seeded per-lane input values *and labels*, the three
//! instances must agree on every output port, register and memory cell
//! value on every cycle, and the `Off` instance must record no
//! violations — on the protected accelerator and on generated designs, at
//! every supported lane width.

use fuzz::{build_design, gen_spec, FuzzRng};
use hdl::{Netlist, Node, NodeId, Value};
use ifc_lattice::{Conf, Integ, Label, MAX_LEVEL};
use sim::{BatchedSim, TrackMode, SUPPORTED_LANES};

const CYCLES: usize = 64;

const MODES: [TrackMode; 3] = [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise];

fn protected() -> Netlist {
    accel::protected().lower().expect("protected design lowers")
}

fn random_label(rng: &mut FuzzRng) -> Label {
    let level = |rng: &mut FuzzRng| rng.below(usize::from(MAX_LEVEL) + 1) as u8;
    Label::new(Conf::new(level(rng)), Integ::new(level(rng)))
}

/// Every observable value of one lane: the `nodes` (outputs and
/// registers), then every memory cell.
fn value_plane(
    sim: &mut BatchedSim,
    lane: usize,
    nodes: &[NodeId],
    depths: &[usize],
) -> Vec<Value> {
    let mut plane: Vec<Value> = nodes.iter().map(|&n| sim.peek_node(lane, n)).collect();
    for (mem, &depth) in depths.iter().enumerate() {
        plane.extend((0..depth).map(|addr| sim.mem_cell(lane, mem, addr)));
    }
    plane
}

/// Drives one tape under all three modes at `lanes` lanes; returns how
/// many violations the tracked modes recorded (so callers can tell the
/// label stimulus actually exercised tracking).
fn check_value_plane(name: &str, net: &Netlist, lanes: usize, seed: u64) -> usize {
    let proto = BatchedSim::with_tracking(net.clone(), TrackMode::Precise, 1);
    let mut sims: Vec<BatchedSim> = MODES.iter().map(|&m| proto.with_mode(m, lanes)).collect();
    let inputs: Vec<NodeId> = net.inputs.iter().map(|p| p.node).collect();
    let regs = net
        .node_ids()
        .filter(|&id| matches!(net.node(id), Node::Reg { .. }));
    let nodes: Vec<NodeId> = net.outputs.iter().map(|p| p.node).chain(regs).collect();
    let depths: Vec<usize> = net.mems.iter().map(|m| m.depth).collect();
    let mut rng = FuzzRng::new(seed);
    for cycle in 0..CYCLES {
        for lane in 0..lanes {
            for &id in &inputs {
                let value = (Value::from(rng.next_u64()) << 64) | Value::from(rng.next_u64());
                let label = random_label(&mut rng);
                for sim in &mut sims {
                    sim.set_node(lane, id, value);
                    sim.set_node_label(lane, id, label);
                }
            }
        }
        for lane in 0..lanes {
            let planes: Vec<Vec<Value>> = sims
                .iter_mut()
                .map(|s| value_plane(s, lane, &nodes, &depths))
                .collect();
            let ctx = format!("{name}, W={lanes}, lane {lane}, cycle {cycle}");
            assert_eq!(planes[0], planes[1], "{ctx}: Off vs Conservative");
            assert_eq!(planes[0], planes[2], "{ctx}: Off vs Precise");
            assert!(
                sims[0].violations(lane).is_empty(),
                "{ctx}: Off recorded a violation"
            );
        }
        for sim in &mut sims {
            sim.tick();
        }
    }
    (0..lanes)
        .map(|lane| sims[1].violations(lane).len() + sims[2].violations(lane).len())
        .sum()
}

#[test]
fn protected_value_plane_is_mode_free() {
    for (k, &lanes) in SUPPORTED_LANES.iter().enumerate() {
        let tracked = check_value_plane("protected", &protected(), lanes, 0x0_91a4_e000 + k as u64);
        assert!(tracked > 0, "W={lanes}: random labels raised no violation");
    }
}

#[test]
fn generated_value_planes_are_mode_free() {
    for seed in 0..4u64 {
        let spec = gen_spec(&mut FuzzRng::new(0x0_5bec_0000 + seed));
        let net = build_design(&spec)
            .lower()
            .expect("generated design lowers");
        for &lanes in &SUPPORTED_LANES {
            check_value_plane(&format!("{spec:?}"), &net, lanes, seed * 31 + lanes as u64);
        }
    }
}

/// The tape is mode-free, so its fingerprint cannot tell a Precise
/// snapshot from an Off one: the mode assert in `restore_lane` is the
/// only guard.
#[test]
#[should_panic(expected = "different tracking mode")]
fn restoring_a_precise_lane_into_an_off_instance_panics() {
    let proto = BatchedSim::with_tracking(protected(), TrackMode::Precise, 1);
    let mut precise = proto.with_lanes(1);
    precise.tick();
    let snap = precise.lane_snapshot(0);
    let mut off = proto.with_mode(TrackMode::Off, 1);
    assert_eq!(snap.tape_fingerprint(), off.tape_fingerprint());
    off.restore_lane(0, &snap);
}
