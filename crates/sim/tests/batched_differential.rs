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
//! patterns) to prove they don't bleed into each other. The violation
//! cap, including a cap raised mid-run, truncates every lane's stream
//! exactly where the oracle's is truncated. A lane checkpointed from a
//! mixed batch resumes bit-identically in a batch of its own mode.

use hdl::{Design, ModuleBuilder, Sig};
use ifc_lattice::Label;
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
/// signal pool, guarded registers and a memory, downgrade nodes, and a
/// mix of open and labelled outputs.
fn build(recipe: &Recipe) -> (Design, Vec<String>) {
    let mut m = ModuleBuilder::new("fuzz_lanes");
    let inputs: Vec<Sig> = (0..4).map(|i| m.input(&format!("in{i}"), 8)).collect();
    let mut pool: Vec<Sig> = inputs.clone();

    for &(op, ai, bi) in &recipe.ops {
        let a = pool[ai as usize % pool.len()];
        let b = pool[bi as usize % pool.len()];
        let (a, b) = if a.width() == b.width() {
            (a, b)
        } else {
            (a, a)
        };
        let node = match op % 12 {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            3 => m.add(a, b),
            4 => m.sub(a, b),
            5 => m.eq(a, b),
            6 => m.lt(a, b),
            7 => {
                if a.width() > 1 {
                    m.slice(a, a.width() - 1, a.width() / 2)
                } else {
                    m.not(a)
                }
            }
            8 => m.reduce_xor(a),
            9 => m.reduce_and(a),
            10 => m.cat(a, b),
            _ => {
                let sel = m.reduce_or(a);
                m.mux(sel, a, b)
            }
        };
        if node.width() <= 64 {
            pool.push(node);
        }
    }

    let mem = m.mem("scratch", 8, 8, vec![1, 2, 3]);
    let mut outputs = Vec::new();
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
        for gi in 0..recipe.guard_pairs.len() {
            let name = format!("r{gi}");
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

#[test]
fn every_lane_width_matches_interpreter() {
    // One representative recipe across every supported lane width, with
    // uniform batches in every mode and, from two lanes up, mixed ones.
    let recipe = representative();
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
