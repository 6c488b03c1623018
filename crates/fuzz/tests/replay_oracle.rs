//! Fuzz invariant 2's replay engine against the reference oracle.
//!
//! [`ProtectedReplayer`] replays tenant programs on one two-lane
//! `[Conservative, Precise]` batch of the tape engine. This suite replays
//! the same op schedule — round-robin, one op per tenant per turn, the
//! same stall budget, the same bounded drain and the same value oracle —
//! through [`AccelDriver`] on the interpreting
//! [`Simulator`](sim::Simulator), and requires every [`ModeReplay`] field
//! to match, for seeded generated inputs under every replay mode.

use std::collections::VecDeque;

use accel::driver::{AccelDriver, Request};
use accel::{master_key_encrypt, supervisor_label, user_label, MASTER_KEY_SLOT};
use fuzz::replay::ModeReplay;
use fuzz::{gen_input, AttackOp, ProtectedReplayer, TenantProgram, REPLAY_MODES};
use ifc_lattice::Label;
use sim::TrackMode;

/// One tenant's remaining ops and the master-key ciphertexts it must
/// never receive.
struct Tenant<'p> {
    user: Label,
    ops: VecDeque<&'p AttackOp>,
    forbidden: Vec<[u8; 16]>,
}

/// The replay schedule of `fuzz::replay`, driven through the oracle.
fn oracle_replay(net: &hdl::Netlist, mode: TrackMode, programs: &[TenantProgram]) -> ModeReplay {
    let mut driver = AccelDriver::from_netlist(net.clone(), mode);
    let mut tenants: Vec<Tenant<'_>> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| Tenant {
            user: user_label(k % 4),
            ops: p.ops.iter().collect(),
            forbidden: Vec::new(),
        })
        .collect();
    let mut leaks = Vec::new();
    let mut stalled_submits = 0u32;
    let mut remaining: usize = tenants.iter().map(|t| t.ops.len()).sum();
    while remaining > 0 {
        for tenant in &mut tenants {
            let Some(op) = tenant.ops.pop_front() else {
                continue;
            };
            remaining -= 1;
            let me = tenant.user;
            match *op {
                AttackOp::Submit { slot, data } => {
                    let block = accel::fleet::block_from(data, 0);
                    let key_slot = usize::from(slot) % 4;
                    if key_slot == MASTER_KEY_SLOT {
                        tenant.forbidden.push(master_key_encrypt(block));
                    }
                    let req = Request {
                        block,
                        key_slot,
                        user: me,
                    };
                    if !(0..64).any(|_| driver.try_submit(&req)) {
                        stalled_submits += 1;
                    }
                }
                AttackOp::WriteKey {
                    addr,
                    data,
                    supervisor,
                } => {
                    let writer = if supervisor { supervisor_label() } else { me };
                    driver.write_key_cell(usize::from(addr) % 8, data, writer);
                }
                AttackOp::Alloc { cell } => driver.alloc_cell(usize::from(cell) % 8, me),
                AttackOp::WriteCfg { value } => driver.write_cfg(value, me),
                AttackOp::ReadDebug { sel } => {
                    if driver.read_debug(u32::from(sel) % 8, me).is_some() {
                        leaks.push(format!(
                            "debug tap answered non-supervisor {me} at sel {sel}"
                        ));
                    }
                }
                AttackOp::Idle { cycles } => driver.idle(u64::from(cycles.max(1))),
            }
        }
    }
    let mut budget = 2_000u32;
    while driver.in_flight(0) > 0 && budget > 0 {
        driver.idle_cycle();
        budget -= 1;
    }
    let drained = driver.in_flight(0) == 0;
    for resp in &driver.responses[0] {
        if resp.user == supervisor_label() {
            continue;
        }
        if tenants
            .iter()
            .any(|t| t.user == resp.user && t.forbidden.contains(&resp.block))
        {
            leaks.push(format!(
                "master-key ciphertext delivered to {} at cycle {}",
                resp.user, resp.completed
            ));
        }
    }
    ModeReplay {
        mode,
        leaks,
        violations: driver.violations(0).to_vec(),
        responses: driver.responses[0].len(),
        rejections: driver.rejections[0].len(),
        stalled_submits,
        drained,
    }
}

#[test]
fn tape_replay_matches_the_oracle_on_every_field() {
    let replayer = ProtectedReplayer::new();
    let net = accel::protected().lower().expect("protected design lowers");
    let mut exercised = (0usize, 0usize, 0usize);
    for seed in 0..16u64 {
        let input = gen_input(0x0_5eed_0000 + seed);
        let outcome = replayer.replay(&input.programs);
        assert_eq!(outcome.modes.len(), REPLAY_MODES.len());
        for (tape, &mode) in outcome.modes.iter().zip(&REPLAY_MODES) {
            let oracle = oracle_replay(&net, mode, &input.programs);
            let ctx = format!("seed {seed}, {mode:?}");
            assert_eq!(tape.mode, oracle.mode, "{ctx}");
            assert_eq!(tape.leaks, oracle.leaks, "{ctx}");
            assert_eq!(tape.violations, oracle.violations, "{ctx}");
            assert_eq!(tape.responses, oracle.responses, "{ctx}");
            assert_eq!(tape.rejections, oracle.rejections, "{ctx}");
            assert_eq!(tape.stalled_submits, oracle.stalled_submits, "{ctx}");
            assert_eq!(tape.drained, oracle.drained, "{ctx}");
            exercised.0 += oracle.responses;
            exercised.1 += oracle.rejections;
            exercised.2 += oracle.violations.len();
        }
    }
    // The schedules must actually reach the interesting states, or the
    // comparison above is between two empty replays.
    assert!(exercised.0 > 0, "no response in any replay: {exercised:?}");
    assert!(exercised.1 > 0, "no rejection in any replay: {exercised:?}");
    assert!(exercised.2 > 0, "no violation in any replay: {exercised:?}");
}

/// FNV-1a digest of `format!("{:?}", outcome.modes)` over 64 seeded
/// generated inputs — every field of every mode's replay, pinned. Any
/// change to replay order, values, violations or the Off row shows here.
const REPLAY_DIGEST: u64 = 33_711_921_538_542_216;

#[test]
fn replay_outcomes_match_the_pinned_digest() {
    let replayer = ProtectedReplayer::new();
    let mut text = String::new();
    for seed in 0..64u64 {
        let input = gen_input(0x0_d16e_0000 + seed);
        text.push_str(&format!("{:?}\n", replayer.replay(&input.programs).modes));
    }
    assert_eq!(fuzz::coverage::fnv64(&text), REPLAY_DIGEST);
}
