//! The static/dynamic label cross-check harness (lint pass 4).
//!
//! Statically, [`ifc_check::dataflow::bound_plane`] claims a per-wire
//! upper bound on every label the runtime tag planes can ever hold. This
//! module drives seeded accelerator sessions on the interpreting oracle
//! and the lane-batched tape engine across the tracking modes, folds
//! the runtime tag planes they produce into an
//! [`ObservedPlane`](ifc_check::ObservedPlane), and diffs the result
//! against the static bound. Any wire where the static bound sits *below*
//! an observed runtime tag is a soundness bug in the static analysis (or
//! a driver stepping outside its annotated input contract) and fails the
//! pass.

use hdl::Netlist;
use ifc_check::dataflow::{bound_plane, crosscheck_findings, Finding, LintConfig, ObservedPlane};
use ifc_lattice::Label;
use sim::TrackMode;

use crate::batch::{BatchedDriver, LaneAction};
use crate::driver::{AccelDriver, Request};
use crate::fleet::{block_from, submit_next, KEY_DERIVE_INDEX};
use crate::params::{supervisor_label, user_label};

fn fold(driver: &mut AccelDriver, plane: &mut ObservedPlane) {
    let sim = driver.sim_mut();
    sim.fold_label_plane(&mut plane.nodes);
    sim.fold_mem_labels(&mut plane.mems);
}

/// One instrumented session: load a tagged key (derived from `seed` as
/// [`crate::fleet::run_session`] derives its session key), write the
/// configuration register as the supervisor, stream `blocks` encryptions,
/// drain with a per-cycle tag-plane sample, and probe the debug port —
/// touching every labelled region of the design while the plane records
/// what the runtime tags actually reached.
fn observe_session(
    driver: &mut AccelDriver,
    plane: &mut ObservedPlane,
    user: Label,
    seed: u64,
    blocks: usize,
) {
    driver.load_key(0, block_from(seed, KEY_DERIVE_INDEX), user);
    fold(driver, plane);
    driver.write_cfg((seed as u8) | 1, supervisor_label());
    fold(driver, plane);
    for i in 0..blocks {
        driver.submit(&Request {
            block: block_from(seed, i as u64),
            key_slot: 0,
            user,
        });
        fold(driver, plane);
    }
    let mut guard = 0u32;
    while driver.in_flight() > 0 {
        driver.idle_cycle();
        fold(driver, plane);
        guard += 1;
        assert!(guard < 10_000, "cross-check session failed to drain");
    }
    driver.idle(4);
    let _ = driver.read_debug(0, supervisor_label());
    fold(driver, plane);
}

/// Folds the observed tag plane from `sessions` seeded sessions on the
/// interpreting oracle in tracking mode `mode`, `blocks` encryptions
/// each.
/// Deterministic in `base_seed`; sessions rotate through the SoC's user
/// levels.
#[must_use]
pub fn observe_sessions(
    net: &Netlist,
    mode: TrackMode,
    sessions: usize,
    blocks: usize,
    base_seed: u64,
) -> ObservedPlane {
    let mut plane = ObservedPlane::new(net);
    for s in 0..sessions {
        let mut driver = AccelDriver::from_netlist(net.clone(), mode);
        observe_session(
            &mut driver,
            &mut plane,
            user_label(s % 4),
            base_seed ^ (0x5e55 * (s as u64 + 1)),
            blocks,
        );
    }
    plane
}

fn fold_batched(driver: &mut BatchedDriver, plane: &mut ObservedPlane) {
    for lane in 0..driver.lanes() {
        let sim = driver.sim_mut();
        sim.fold_label_plane(lane, &mut plane.nodes);
        sim.fold_mem_labels(lane, &mut plane.mems);
    }
}

/// The lane-parallel counterpart of [`observe_sessions`]: all sessions
/// run as lanes of one [`sim::BatchedSim`], so the cross-check also
/// covers the lane-striped tag-plane implementation.
#[must_use]
pub fn observe_lanes(
    net: &Netlist,
    mode: TrackMode,
    lanes: usize,
    blocks: usize,
    base_seed: u64,
) -> ObservedPlane {
    let mut plane = ObservedPlane::new(net);
    let mut driver = BatchedDriver::from_netlist(net.clone(), mode, lanes);
    let users: Vec<Label> = (0..lanes).map(|l| user_label(l % 4)).collect();
    let seeds: Vec<u64> = (0..lanes)
        .map(|l| base_seed ^ (0xba7c * (l as u64 + 1)))
        .collect();
    let keys: Vec<[u8; 16]> = seeds
        .iter()
        .map(|&s| block_from(s, KEY_DERIVE_INDEX))
        .collect();
    driver.load_keys(0, &keys, &users);
    fold_batched(&mut driver, &mut plane);

    let mut next = vec![0usize; lanes];
    let mut actions = vec![LaneAction::Idle; lanes];
    let mut accepted = vec![false; lanes];
    let mut guard = 0u32;
    while next.iter().any(|&n| n < blocks) {
        for l in 0..lanes {
            actions[l] = submit_next(next[l], blocks, seeds[l], users[l]);
        }
        driver.step(&actions, &mut accepted);
        for l in 0..lanes {
            if accepted[l] {
                next[l] += 1;
            }
        }
        fold_batched(&mut driver, &mut plane);
        guard += 1;
        assert!(guard < 10_000, "batched cross-check failed to submit");
    }
    while (0..lanes).any(|l| driver.in_flight(l) > 0) {
        driver.idle_cycle();
        fold_batched(&mut driver, &mut plane);
        guard += 1;
        assert!(guard < 10_000, "batched cross-check failed to drain");
    }
    plane
}

/// The outcome of a full cross-check campaign.
#[derive(Debug)]
pub struct CrosscheckOutcome {
    /// The merged observed plane across every backend and mode.
    pub observed: ObservedPlane,
    /// The cross-check findings (empty iff the static bound is sound for
    /// everything observed).
    pub findings: Vec<Finding>,
    /// How many seeded sessions contributed observations.
    pub sessions: usize,
}

/// Runs the full pass-4 campaign on a netlist: seeded sessions on the
/// interpreting oracle and the lane-batched engine, across the `Off`,
/// `Conservative`, and `Precise` tracking modes, then diffs the merged
/// observed plane against the static bound plane.
#[must_use]
pub fn crosscheck_campaign(net: &Netlist, seed: u64, cfg: &LintConfig) -> CrosscheckOutcome {
    let mut observed = ObservedPlane::new(net);
    let mut sessions = 0usize;
    for (i, mode) in [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise]
        .into_iter()
        .enumerate()
    {
        let m = seed ^ ((i as u64 + 1) << 32);
        observed.merge(&observe_sessions(net, mode, 1, 2, m));
        observed.merge(&observe_sessions(net, mode, 2, 3, m ^ 0xc0));
        sessions += 3;
        if mode != TrackMode::Off {
            observed.merge(&observe_lanes(net, mode, 4, 2, m ^ 0xba));
            sessions += 4;
        }
    }
    let bound = bound_plane(net);
    let findings = crosscheck_findings(net, &bound, &observed, cfg);
    CrosscheckOutcome {
        observed,
        findings,
        sessions,
    }
}
