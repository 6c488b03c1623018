//! Differential testing: every lane of the batched backend against the
//! interpreting simulator, with and without the tape optimizer.
//!
//! Each lane of a [`BatchedSim`] is an independent session, so lane `l`
//! driven with stimulus `S_l` must observe exactly what a fresh
//! [`Simulator`] (the reference oracle) observes when driven with `S_l`
//! alone: settled values and labels of
//! every output, the full recorded violation stream (order included),
//! the truncation flag, and final register and memory state — in all
//! three tracking modes, with the optimizer passes off and on, and in
//! mixed batches whose lanes alternate `Conservative` and `Precise` (each
//! lane against an oracle in that lane's mode). Lanes are deliberately
//! given *different* stimuli (values, labels, and therefore violation
//! patterns) to prove they don't bleed into each other. Designs carry
//! nodes up to 128 bits, so the executor's two-half kernels (every
//! `Slice` and `Cat` shift class, carries across bit 64, wide compares,
//! muxes and registers) meet the oracle at every lane width. The violation
//! cap, including a cap raised mid-run, truncates every lane's stream
//! exactly where the oracle's is truncated. A lane checkpointed from a
//! mixed batch resumes bit-identically in a batch of its own mode, and a
//! lane moved between any two widths keeps every node and memory-cell
//! label.

use hdl::{Design, ModuleBuilder, Node, NodeId, Sig, MAX_WIDTH};
use ifc_lattice::{Conf, Integ, Label};
use proptest::prelude::*;
use sim::{BatchedSim, OptConfig, Simulator, TrackMode, SUPPORTED_LANES};

const LABELS: [Label; 4] = [
    Label::PUBLIC_TRUSTED,
    Label::SECRET_TRUSTED,
    Label::PUBLIC_UNTRUSTED,
    Label::SECRET_UNTRUSTED,
];

/// A recipe for one random labelled synchronous design.
#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<(u8, u8, u8)>,
    guard_pairs: Vec<(u8, u8, bool)>,
    stimulus: Vec<([u8; 4], [u8; 4])>,
    downgrades: (u8, u8, u8, u8),
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..5),
        proptest::collection::vec((any::<[u8; 4]>(), any::<[u8; 4]>()), 1..8),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
    )
        .prop_map(|(ops, guard_pairs, stimulus, downgrades)| Recipe {
            ops,
            guard_pairs,
            stimulus,
            downgrades,
        })
}

/// Builds a labelled design from a recipe: four 8-bit inputs, a derived
/// signal pool of nodes up to 128 bits wide, guarded registers and a
/// memory, downgrade nodes, and a mix of open and labelled outputs.
fn build(recipe: &Recipe) -> (Design, Vec<String>) {
    let mut m = ModuleBuilder::new("fuzz_lanes");
    let inputs: Vec<Sig> = (0..4).map(|i| m.input(&format!("in{i}"), 8)).collect();
    let mut pool: Vec<Sig> = inputs.clone();

    for &(op, ai, bi) in &recipe.ops {
        let a = pool[ai as usize % pool.len()];
        let b = pool[bi as usize % pool.len()];
        // `Slice` and `Cat` take operands of any width; the other
        // binary ops need equal widths and fall back to `a` twice.
        let (ea, eb) = if a.width() == b.width() {
            (a, b)
        } else {
            (a, a)
        };
        let node = match op % 12 {
            0 => m.and(ea, eb),
            1 => m.or(ea, eb),
            2 => m.xor(ea, eb),
            3 => m.add(ea, eb),
            4 => m.sub(ea, eb),
            5 => m.eq(ea, eb),
            6 => m.lt(ea, eb),
            7 => {
                // The shift is `bi` modulo the width, so every shift
                // class (0, 1–63, 64, >64) is reachable on a wide operand.
                if a.width() > 1 {
                    m.slice(a, a.width() - 1, u16::from(bi) % a.width())
                } else {
                    m.not(a)
                }
            }
            8 => m.reduce_xor(a),
            9 => m.reduce_and(a),
            10 => {
                if a.width() + b.width() <= MAX_WIDTH {
                    m.cat(a, b)
                } else {
                    m.not(a)
                }
            }
            _ => {
                // Parity, not `reduce_or`: wide operands are almost never
                // zero, and both arms must be taken.
                let sel = m.reduce_xor(ea);
                m.mux(sel, ea, eb)
            }
        };
        pool.push(node);
    }
    // Every derived node is observed through a top-labelled output (never
    // a violation), and the widest one also through a register: the clock
    // edge's high-half path.
    let mut outputs = Vec::new();
    for (k, &sig) in pool.iter().enumerate().skip(4) {
        let name = format!("p{k}");
        m.output_labeled(&name, sig, Label::SECRET_UNTRUSTED);
        outputs.push(name);
    }
    let widest = *pool.iter().max_by_key(|s| s.width()).expect("pool");
    let rw = m.reg("rw", widest.width(), 0);
    m.connect(rw, widest);
    m.output_labeled("rw_out", rw, Label::SECRET_UNTRUSTED);
    outputs.push("rw_out".into());

    let mem = m.mem("scratch", 8, 8, vec![1, 2, 3]);
    for (gi, &(si, vi, use_else)) in recipe.guard_pairs.iter().enumerate() {
        let guard_src = pool[si as usize % pool.len()];
        let guard = if guard_src.width() == 1 {
            guard_src
        } else {
            m.reduce_or(guard_src)
        };
        let value8 = {
            let v = pool[vi as usize % pool.len()];
            if v.width() == 8 {
                v
            } else {
                inputs[vi as usize % 4]
            }
        };
        let r = m.reg(&format!("r{gi}"), 8, u128::from(vi));
        if use_else {
            m.when_else(
                guard,
                |m| m.connect(r, value8),
                |m| {
                    let inv = m.not(value8);
                    m.connect(r, inv);
                },
            );
        } else {
            m.when(guard, |m| m.connect(r, value8));
        }
        let addr = m.slice(value8, 2, 0);
        m.when(guard, |m| m.mem_write(mem, addr, value8));
        let q = m.mem_read(mem, addr);
        let mixed = m.xor(q, r);
        let name = format!("out{gi}");
        if gi % 2 == 0 {
            m.output(&name, mixed);
        } else {
            m.output_labeled(&name, mixed, Label::SECRET_UNTRUSTED);
        }
        outputs.push(name);
    }

    let (d_data, d_prin, e_data, e_prin) = recipe.downgrades;
    let d_src = pool[d_data as usize % pool.len()];
    let d_p = m.tag_lit(LABELS[d_prin as usize % LABELS.len()]);
    let declassified = m.declassify(d_src, Label::PUBLIC_UNTRUSTED, d_p);
    m.output("dec_out", declassified);
    outputs.push("dec_out".into());
    let e_src = pool[e_data as usize % pool.len()];
    let e_p = m.tag_lit(LABELS[e_prin as usize % LABELS.len()]);
    let endorsed = m.endorse(e_src, Label::PUBLIC_TRUSTED, e_p);
    m.output("end_out", endorsed);
    outputs.push("end_out".into());

    (m.finish(), outputs)
}

/// Lane `lane`'s stimulus: a deterministic per-lane variation of the
/// recipe's base stimulus, so every lane sees different values *and*
/// different labels (and so raises violations on different cycles).
fn lane_stimulus(recipe: &Recipe, lane: usize) -> Vec<([u8; 4], [u8; 4])> {
    recipe
        .stimulus
        .iter()
        .map(|(values, label_idx)| {
            let mut v = *values;
            let mut li = *label_idx;
            for i in 0..4 {
                v[i] = v[i].wrapping_add((lane as u8).wrapping_mul(17).wrapping_add(i as u8));
                li[i] = li[i].wrapping_add(lane as u8);
            }
            (v, li)
        })
        .collect()
}

/// Drives the oracle with a stimulus, recording per-step output values
/// and labels.
fn drive_single(
    sim: &mut Simulator,
    stimulus: &[([u8; 4], [u8; 4])],
    outputs: &[String],
) -> Vec<(u128, Label)> {
    let mut observed = Vec::new();
    for (values, label_idx) in stimulus {
        for i in 0..4 {
            sim.set(&format!("in{i}"), u128::from(values[i]));
            sim.set_label(
                &format!("in{i}"),
                LABELS[label_idx[i] as usize % LABELS.len()],
            );
        }
        for name in outputs {
            observed.push((sim.peek(name), sim.peek_label(name)));
        }
        sim.tick();
    }
    observed
}

/// Sets every lane's inputs for one stimulus step.
fn set_step(sim: &mut BatchedSim, stimuli: &[Vec<([u8; 4], [u8; 4])>], step: usize) {
    for (lane, stim) in stimuli.iter().enumerate() {
        let (values, label_idx) = &stim[step];
        for i in 0..4 {
            sim.set(lane, &format!("in{i}"), u128::from(values[i]));
            sim.set_label(
                lane,
                &format!("in{i}"),
                LABELS[label_idx[i] as usize % LABELS.len()],
            );
        }
    }
}

/// Drives all lanes of a batched backend, each with its own stimulus,
/// recording the same per-step observations per lane.
fn drive_batched(
    sim: &mut BatchedSim,
    recipe: &Recipe,
    outputs: &[String],
) -> Vec<Vec<(u128, Label)>> {
    let lanes = sim.lanes();
    let stimuli: Vec<_> = (0..lanes).map(|l| lane_stimulus(recipe, l)).collect();
    let mut observed = vec![Vec::new(); lanes];
    for step in 0..recipe.stimulus.len() {
        set_step(sim, &stimuli, step);
        for (lane, obs) in observed.iter_mut().enumerate() {
            for name in outputs {
                obs.push((sim.peek(lane, name), sim.peek_label(lane, name)));
            }
        }
        sim.tick();
    }
    observed
}

/// Lane modes alternating `Conservative` (even lanes) and `Precise`.
fn alternating(lanes: usize) -> Vec<TrackMode> {
    (0..lanes)
        .map(|l| {
            if l % 2 == 0 {
                TrackMode::Conservative
            } else {
                TrackMode::Precise
            }
        })
        .collect()
}

/// The full cross-check for one (lane modes, optimizer config): every
/// batched lane against a fresh interpreter in that lane's mode, driven
/// with that lane's stimulus.
fn check_lanes(
    recipe: &Recipe,
    outputs: &[String],
    netlist: &hdl::Netlist,
    modes: &[TrackMode],
    opt: &OptConfig,
) -> Result<(), TestCaseError> {
    let mut batched =
        BatchedSim::with_tracking_opt(netlist.clone(), modes[0], 1, opt).with_lane_modes(modes);
    let batched_obs = drive_batched(&mut batched, recipe, outputs);

    for (lane, lane_obs) in batched_obs.iter().enumerate() {
        let mode = modes[lane];
        let stim = lane_stimulus(recipe, lane);
        let mut interp = Simulator::with_tracking(netlist.clone(), mode);
        let interp_obs = drive_single(&mut interp, &stim, outputs);

        prop_assert_eq!(
            &interp_obs,
            lane_obs,
            "lane {} diverged from interpreter in {:?} (opt {:?})",
            lane,
            mode,
            opt
        );
        prop_assert_eq!(
            interp.violations(),
            batched.violations(lane),
            "lane {} violation stream diverged in {:?} (opt {:?})",
            lane,
            mode,
            opt
        );
        prop_assert_eq!(
            interp.violations_truncated(),
            batched.violations_truncated(lane)
        );
        prop_assert_eq!(interp.cycle(), batched.cycle());
        // Final architectural state: registers (named, so they survive
        // every optimizer pass) and the memory.
        let regs = (0..recipe.guard_pairs.len()).map(|gi| format!("r{gi}"));
        for name in regs.chain(["rw".to_string()]) {
            prop_assert_eq!(interp.peek(&name), batched.peek(lane, &name));
            prop_assert_eq!(interp.peek_label(&name), batched.peek_label(lane, &name));
        }
        let mi = interp.mem_index("scratch").expect("mem exists");
        for addr in 0..8 {
            prop_assert_eq!(interp.mem_cell(mi, addr), batched.mem_cell(lane, mi, addr));
            prop_assert_eq!(
                interp.mem_cell_label(mi, addr),
                batched.mem_cell_label(lane, mi, addr)
            );
        }
    }
    Ok(())
}

/// One leak-per-tick design: a secret input wired straight to an open
/// output raises one `OutputLeak` per tick while its label is secret.
fn leaky() -> hdl::Netlist {
    let mut m = ModuleBuilder::new("leaky");
    let secret = m.input("secret", 8);
    m.output("out", secret);
    m.finish().lower().expect("lowers")
}

/// Lane `lane`'s label on the leaky input: lanes 0, 1, 3, 4, 6, ... leak,
/// every third lane stays public and clean.
fn leak_label(lane: usize) -> Label {
    if lane % 3 == 2 {
        Label::PUBLIC_TRUSTED
    } else {
        Label::SECRET_TRUSTED
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn violation_cap_matches_across_backends(cap in 0usize..6) {
        // Ten ticks at `cap`, then the cap is raised by three and a
        // five-cycle run follows: every lane's stream must stop, and
        // resume, exactly where its oracle's does.
        let net = leaky();
        for lanes in SUPPORTED_LANES {
            let mut batched = BatchedSim::with_tracking(net.clone(), TrackMode::Conservative, lanes);
            let mut oracles: Vec<Simulator> = (0..lanes)
                .map(|_| Simulator::with_tracking(net.clone(), TrackMode::Conservative))
                .collect();
            batched.set_violation_cap(cap);
            for (lane, oracle) in oracles.iter_mut().enumerate() {
                oracle.set_violation_cap(cap);
                oracle.set("secret", 0xab);
                oracle.set_label("secret", leak_label(lane));
                batched.set(lane, "secret", 0xab);
                batched.set_label(lane, "secret", leak_label(lane));
            }
            for _ in 0..10 {
                batched.tick();
                oracles.iter_mut().for_each(Simulator::tick);
            }
            for (lane, oracle) in oracles.iter().enumerate() {
                let leaks = if lane % 3 == 2 { 0 } else { 10 };
                prop_assert_eq!(oracle.violations().len(), cap.min(leaks));
                prop_assert_eq!(oracle.violations_truncated(), cap < leaks);
                prop_assert_eq!(oracle.violations(), batched.violations(lane), "W={} lane {}", lanes, lane);
                prop_assert_eq!(oracle.violations_truncated(), batched.violations_truncated(lane));
            }

            batched.set_violation_cap(cap + 3);
            batched.run(5);
            for (lane, oracle) in oracles.iter_mut().enumerate() {
                oracle.set_violation_cap(cap + 3);
                oracle.run(5);
                prop_assert_eq!(oracle.violations(), batched.violations(lane), "W={} lane {} after raise", lanes, lane);
                prop_assert_eq!(oracle.violations_truncated(), batched.violations_truncated(lane));
            }
        }
    }

    #[test]
    fn batched_lanes_match_interpreter(recipe in arb_recipe()) {
        let (design, outputs) = build(&recipe);
        let netlist = design.lower().expect("random designs are acyclic");
        for opt in [OptConfig::none(), OptConfig::all()] {
            for mode in [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise] {
                check_lanes(&recipe, &outputs, &netlist, &[mode; 4], &opt)?;
            }
            check_lanes(&recipe, &outputs, &netlist, &alternating(4), &opt)?;
        }
    }
}

/// One representative recipe.
fn representative() -> Recipe {
    Recipe {
        ops: vec![(0, 0, 1), (3, 1, 2), (11, 2, 3), (10, 0, 3), (7, 4, 0)],
        guard_pairs: vec![(1, 2, true), (3, 0, false)],
        stimulus: vec![
            ([0x11, 0x22, 0x33, 0x44], [0, 1, 2, 3]),
            ([0xaa, 0x00, 0xff, 0x5a], [1, 1, 0, 2]),
            ([0x01, 0x80, 0x7e, 0xe7], [3, 0, 1, 0]),
        ],
        downgrades: (2, 3, 5, 1),
    }
}

/// A recipe whose pool reaches 128 bits: every `Slice` shift class and
/// both `Cat` classes on wide operands (see
/// `wide_recipe_covers_every_shift_class`), wide add/sub carries and
/// borrows across bit 64, compares, reductions, a mux and downgrades.
fn wide() -> Recipe {
    Recipe {
        ops: vec![
            (10, 0, 1),   // p4 = {in0, in1}: 16 bits
            (10, 4, 4),   // p5: 32 bits
            (10, 5, 5),   // p6: 64 bits
            (10, 6, 6),   // p7: 128 bits, Cat shift 64
            (10, 6, 2),   // p8: 72 bits, Cat shift 8
            (7, 7, 0),    // p9 = p7[127:0], Slice shift 0
            (7, 7, 30),   // p10 = p7[127:30], shift 30
            (7, 7, 64),   // p11 = p7[127:64], shift 64
            (7, 7, 100),  // p12 = p7[127:100], shift 100
            (10, 12, 8),  // p13 = {p12, p8}: 100 bits, Cat shift 72
            (10, 11, 12), // p14 = {p11, p12}: 92 bits, Cat shift 28
            (3, 7, 9),    // p15 = p7 + p9
            (4, 7, 15),   // p16 = p7 - p15
            (6, 15, 16),  // p17 = p15 < p16
            (5, 15, 16),  // p18 = p15 == p16
            (11, 15, 16), // p19 = ^p15 ? p15 : p16
            (8, 7, 0),    // p20 = ^p7
            (9, 7, 0),    // p21 = &p7
            (2, 15, 9),   // p22 = p15 ^ p9
        ],
        downgrades: (7, 3, 10, 1),
        ..representative()
    }
}

#[test]
fn wide_recipe_covers_every_shift_class() {
    let (design, _) = build(&wide());
    let net = design.lower().expect("lowers");
    let widths = net.node_widths();
    let (mut slices, mut cats) = (Vec::new(), Vec::new());
    for id in net.node_ids() {
        match *net.node(id) {
            Node::Slice { a, lo, .. } if widths[a.index()] > 64 => slices.push(lo),
            Node::Cat { lo, .. } if widths[id.index()] > 64 => cats.push(widths[lo.index()]),
            _ => {}
        }
    }
    assert!(slices.contains(&0), "Slice shift 0: {slices:?}");
    assert!(
        slices.iter().any(|s| (1..64).contains(s)),
        "Slice shift 1-63"
    );
    assert!(slices.contains(&64), "Slice shift 64");
    assert!(slices.iter().any(|&s| s > 64), "Slice shift > 64");
    assert!(cats.iter().any(|s| (1..64).contains(s)), "Cat shift 1-63");
    assert!(cats.contains(&64), "Cat shift 64");
    assert!(cats.iter().any(|&s| s > 64), "Cat shift > 64");
}

#[test]
fn every_lane_width_matches_interpreter() {
    // Two fixed recipes, one of them wide, across every supported lane
    // width, with uniform batches in every mode and, from two lanes up,
    // mixed ones.
    for recipe in [representative(), wide()] {
        let (design, outputs) = build(&recipe);
        let netlist = design.lower().expect("lowers");
        for opt in [OptConfig::none(), OptConfig::all()] {
            for lanes in SUPPORTED_LANES {
                for mode in [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise] {
                    check_lanes(&recipe, &outputs, &netlist, &vec![mode; lanes], &opt)
                        .expect("lane width cross-check");
                }
                if lanes >= 2 {
                    check_lanes(&recipe, &outputs, &netlist, &alternating(lanes), &opt)
                        .expect("mixed batch cross-check");
                }
            }
        }
    }
}

/// A Precise lane checkpointed out of a mixed batch resumes in a Precise
/// batch and continues exactly like the lane it left: same values and
/// labels every cycle, same violation stream.
#[test]
fn precise_lane_of_a_mixed_batch_resumes_in_a_precise_batch() {
    const STEPS: usize = 12;
    const SNAP_AT: usize = 5;
    let recipe = representative();
    let (design, outputs) = build(&recipe);
    let net = design.lower().expect("lowers");
    let modes = alternating(4);
    let stimuli: Vec<Vec<_>> = (0..4)
        .map(|l| {
            let stim = lane_stimulus(&recipe, l);
            (0..STEPS).map(|k| stim[k % stim.len()]).collect()
        })
        .collect();
    let mut mixed =
        BatchedSim::with_tracking(net, TrackMode::Conservative, 1).with_lane_modes(&modes);
    for step in 0..SNAP_AT {
        set_step(&mut mixed, &stimuli, step);
        mixed.tick();
    }
    let snap = mixed.lane_snapshot(3);
    assert_eq!(snap.mode(), TrackMode::Precise);
    // Bring the target to the same cycle so new violation stamps agree.
    let mut precise = mixed.with_mode(TrackMode::Precise, 2);
    precise.run(SNAP_AT as u64);
    precise.restore_lane(1, &snap);
    for step in SNAP_AT..STEPS {
        set_step(&mut mixed, &stimuli, step);
        set_step(
            &mut precise,
            &[stimuli[0].clone(), stimuli[3].clone()],
            step,
        );
        for name in &outputs {
            assert_eq!(
                mixed.peek(3, name),
                precise.peek(1, name),
                "{name} at step {step}"
            );
            assert_eq!(
                mixed.peek_label(3, name),
                precise.peek_label(1, name),
                "{name} label at step {step}"
            );
        }
        mixed.tick();
        precise.tick();
    }
    assert!(
        !mixed.violations(3).is_empty(),
        "the stimulus raises violations"
    );
    assert_eq!(mixed.violations(3), precise.violations(1));
}

/// A lane snapshotted at one width and restored at another reads back
/// every node and memory-cell label it left with, for every pair of
/// widths. Its labels carry integrity strictly between `UNTRUSTED` and
/// `TRUSTED`, so an integrity inversion applied twice, or not at all, on
/// either side of the round trip shows.
#[test]
fn lane_labels_survive_restore_across_every_pair_of_widths() {
    let (design, _) = build(&representative());
    let net = design.lower().expect("lowers");
    let nodes = net.node_count();
    let depth = net.mems[0].depth;
    let mid = |k: usize| {
        Label::new(
            Conf::new((k * 5 % 16) as u8),
            Integ::new(1 + (k * 7 % 14) as u8),
        )
    };
    let base = BatchedSim::with_tracking(net, TrackMode::Conservative, 1);
    // Every lane gets its own input values and labels and cell labels,
    // varied by `seed` so a restore over an identical lane cannot pass.
    let loaded = |lanes: usize, seed: usize| {
        let mut sim = base.with_lanes(lanes);
        for lane in 0..lanes {
            for i in 0..4 {
                let k = seed + 4 * lane + i;
                sim.set(lane, &format!("in{i}"), (k * 0x35) as u128);
                sim.set_label(lane, &format!("in{i}"), mid(k));
            }
            for addr in 0..depth {
                sim.set_mem_cell_label(lane, 0, addr, mid(seed + lane + 3 * addr));
            }
        }
        sim.run(3);
        sim
    };
    for from in SUPPORTED_LANES {
        for to in SUPPORTED_LANES {
            let (mut src, mut dst) = (loaded(from, 0), loaded(to, 11));
            let (src_lane, dst_lane) = (from - 1, to - 1);
            dst.restore_lane(dst_lane, &src.lane_snapshot(src_lane));
            for i in 0..nodes {
                let id = NodeId::from_raw(i as u32);
                assert_eq!(
                    dst.peek_node_label(dst_lane, id),
                    src.peek_node_label(src_lane, id),
                    "node {i}, W={from} -> W={to}"
                );
            }
            for addr in 0..depth {
                assert_eq!(
                    dst.mem_cell_label(dst_lane, 0, addr),
                    src.mem_cell_label(src_lane, 0, addr),
                    "cell {addr}, W={from} -> W={to}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "different tracking mode")]
fn restoring_a_precise_lane_into_a_conservative_lane_panics() {
    let (design, _) = build(&representative());
    let net = design.lower().expect("lowers");
    let mut mixed =
        BatchedSim::with_tracking(net, TrackMode::Conservative, 1).with_lane_modes(&alternating(2));
    let snap = mixed.lane_snapshot(1);
    mixed.restore_lane(0, &snap);
}

#[test]
#[should_panic(expected = "all-Off or all-tracked")]
fn mixing_off_with_tracked_lanes_panics() {
    let (design, _) = build(&representative());
    let net = design.lower().expect("lowers");
    let _ = BatchedSim::with_tracking(net, TrackMode::Off, 1)
        .with_lane_modes(&[TrackMode::Off, TrackMode::Precise]);
}

#[test]
fn batched_run_matches_stepped_ticks() {
    // The hoisted `run` loop must equal n repeated ticks, violations
    // included (a leaky design raises one violation per cycle per lane).
    let mut m = ModuleBuilder::new("leaky");
    let secret = m.input("secret", 8);
    let count = m.reg("count", 8, 0);
    let one = m.lit(1, 8);
    let next = m.add(count, one);
    m.connect(count, next);
    m.output("out", secret);
    m.output("count", count);
    let net = m.finish().lower().expect("lowers");

    let mut stepped = BatchedSim::with_tracking(net.clone(), TrackMode::Conservative, 4);
    let mut batch_run = BatchedSim::with_tracking(net, TrackMode::Conservative, 4);
    for sim in [&mut stepped, &mut batch_run] {
        for lane in 0..4 {
            sim.set(lane, "secret", 0x40 + lane as u128);
            // Lanes 0 and 2 leak; lanes 1 and 3 stay clean.
            let label = if lane % 2 == 0 {
                Label::SECRET_TRUSTED
            } else {
                Label::PUBLIC_TRUSTED
            };
            sim.set_label(lane, "secret", label);
        }
    }
    for _ in 0..7 {
        stepped.tick();
    }
    batch_run.run(7);
    assert_eq!(stepped.cycle(), batch_run.cycle());
    for lane in 0..4 {
        assert_eq!(stepped.violations(lane), batch_run.violations(lane));
        let expected = if lane % 2 == 0 { 7 } else { 0 };
        assert_eq!(stepped.violations(lane).len(), expected);
        assert_eq!(
            stepped.peek(lane, "count"),
            batch_run.peek(lane, "count"),
            "lane {lane} register state diverged"
        );
    }
}
