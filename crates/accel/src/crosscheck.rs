//! The static/dynamic label cross-check harness (lint pass 4).
//!
//! Statically, [`ifc_check::dataflow::bound_plane`] claims a per-wire
//! upper bound on every label the runtime tag planes can ever hold. This
//! module drives seeded accelerator sessions on the interpreting oracle
//! and the lane-batched tape engine across the tracking modes, folds
//! the runtime tag planes they produce into an
//! [`ObservedPlane`], and diffs the result
//! against the static bound. Any wire where the static bound sits *below*
//! an observed runtime tag is a soundness bug in the static analysis (or
//! a driver stepping outside its annotated input contract) and fails the
//! pass.

use hdl::Netlist;
use ifc_check::dataflow::{bound_plane, crosscheck_findings, Finding, LintConfig, ObservedPlane};
use ifc_lattice::Label;
use sim::TrackMode;

use crate::batch::BatchedDriver;
use crate::driver::{AccelDriver, Driver, LaneAction, LanePorts};
use crate::fleet::{block_from, submit_streams, KEY_DERIVE_INDEX};
use crate::params::{supervisor_label, user_label};

fn fold<E: LanePorts>(driver: &mut Driver<E>, plane: &mut ObservedPlane) {
    for lane in 0..driver.lanes() {
        let sim = driver.sim_mut();
        sim.fold_label_plane(lane, &mut plane.nodes);
        sim.fold_mem_labels(lane, &mut plane.mems);
    }
}

/// One instrumented session per lane: load a tagged key (derived from
/// the lane's seed as [`crate::fleet::run_lane_sessions`] derives it),
/// stream `blocks` encryptions, and drain, folding every lane's tag
/// plane after the key load and after every submit and drain cycle. A
/// `supervised` run also writes the configuration register as the
/// supervisor after the key load and probes the debug port four cycles
/// after the drain (folding after each) — touching every labelled
/// region of the design while the plane records what the runtime tags
/// actually reached.
fn observe<E: LanePorts>(
    driver: &mut Driver<E>,
    plane: &mut ObservedPlane,
    users: &[Label],
    seeds: &[u64],
    blocks: usize,
    supervised: bool,
) {
    let lanes = driver.lanes();
    let keys: Vec<[u8; 16]> = seeds
        .iter()
        .map(|&s| block_from(s, KEY_DERIVE_INDEX))
        .collect();
    driver.load_keys(0, &keys, users);
    fold(driver, plane);
    let mut accepted = vec![false; lanes];
    if supervised {
        let writes: Vec<LaneAction> = seeds
            .iter()
            .map(|&s| LaneAction::WriteCfg {
                value: (s as u8) | 1,
                writer: supervisor_label(),
            })
            .collect();
        driver.step(&writes, &mut accepted);
        fold(driver, plane);
    }
    submit_streams(driver, blocks, users, seeds, |d| fold(d, plane));
    let mut guard = 0u32;
    while (0..lanes).any(|l| driver.in_flight(l) > 0) {
        driver.idle_cycle();
        fold(driver, plane);
        guard += 1;
        assert!(guard < 10_000, "cross-check session failed to drain");
    }
    if supervised {
        driver.idle(4);
        driver.step(
            &vec![LaneAction::ReadDebug { sel: 0 }; lanes],
            &mut accepted,
        );
        fold(driver, plane);
    }
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
        // Supervised sessions on the oracle, one driver each.
        for (count, blocks, base) in [(1, 2, m), (2, 3, m ^ 0xc0)] {
            for s in 0..count {
                let seed = base ^ (0x5e55 * (s as u64 + 1));
                let mut driver = AccelDriver::from_netlist(net.clone(), mode);
                observe(
                    &mut driver,
                    &mut observed,
                    &[user_label(s % 4)],
                    &[seed],
                    blocks,
                    true,
                );
            }
            sessions += count;
        }
        // Four lanes of one tape-engine batch, so the cross-check also
        // covers the lane-striped tag-plane implementation.
        if mode != TrackMode::Off {
            let users: Vec<Label> = (0..4).map(user_label).collect();
            let seeds: Vec<u64> = (0..4)
                .map(|l| m ^ 0xba ^ (0xba7c * (l as u64 + 1)))
                .collect();
            let mut driver = BatchedDriver::from_netlist(net.clone(), mode, 4);
            observe(&mut driver, &mut observed, &users, &seeds, 2, false);
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
