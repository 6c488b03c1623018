//! Fuzz invariant 2: no generated attack leaks on the protected build.
//!
//! Every fuzz input's tenant programs are replayed — interleaved on one
//! device, the multi-tenant reality — against the real *protected*
//! accelerator under each [`TrackMode`]. The oracle is **value-based**,
//! not violation-based: a `DowngradeRejected` on the protected design is
//! enforcement *working* (coverage signal), while an actual master-key
//! ciphertext landing in a non-supervisor's response queue, or the debug
//! tap answering a non-supervisor, is a leak no tracking mode may permit.
//!
//! The mode-free protected tape is compiled once into a one-lane
//! [`BatchedSim`] prototype. Tracking gates only the label plane, and
//! `Off` records no violations, so each input executes once, on a fresh
//! two-lane `[Conservative, Precise]` batch driven by one
//! [`BatchedDriver`] with the same port action in both lanes. The value
//! plane is the same in every mode, so the value-derived fields (leaks,
//! responses, rejections, stalls, drain) are read from lane 0 (debug
//! builds assert lane 1 agrees); violations come from each lane. The
//! `Off` row is the `Precise` row with no violations.

use std::collections::VecDeque;

use accel::batch::BatchedDriver;
use accel::driver::{debug_port_admits, LaneAction, Request};
use accel::{master_key_encrypt, supervisor_label, user_label, MASTER_KEY_SLOT};
use ifc_lattice::Label;
use sim::{BatchedSim, RuntimeViolation, TrackMode};

use crate::program::{AttackOp, TenantProgram};

/// Tracking modes invariant 2 quantifies over.
pub const REPLAY_MODES: [TrackMode; 3] =
    [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise];

/// Stable key for a tracking mode (report and coverage vocabulary).
#[must_use]
pub fn mode_key(mode: TrackMode) -> &'static str {
    match mode {
        TrackMode::Off => "off",
        TrackMode::Conservative => "conservative",
        TrackMode::Precise => "precise",
    }
}

/// One tracking mode's replay of one fuzz input.
#[derive(Debug, Clone)]
pub struct ModeReplay {
    /// The mode replayed.
    pub mode: TrackMode,
    /// Invariant-2 failures: each string describes one observed leak.
    pub leaks: Vec<String>,
    /// Violations the runtime tracking raised (coverage, not failures).
    pub violations: Vec<RuntimeViolation>,
    /// Completed encryptions.
    pub responses: usize,
    /// Release-gate rejections (the nonmalleable check firing).
    pub rejections: usize,
    /// Submits abandoned after the stall-retry budget.
    pub stalled_submits: u32,
    /// Whether every in-flight request completed within the drain bound.
    pub drained: bool,
}

/// All modes' replays of one fuzz input.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One entry per [`REPLAY_MODES`] element, in that order.
    pub modes: Vec<ModeReplay>,
}

impl ReplayOutcome {
    /// Every leak across all modes, as `"mode: description"` lines.
    #[must_use]
    pub fn leaks(&self) -> Vec<String> {
        self.modes
            .iter()
            .flat_map(|m| m.leaks.iter().map(|l| format!("{}: {l}", mode_key(m.mode))))
            .collect()
    }
}

/// Compiles the protected accelerator once and replays fuzz inputs on
/// fresh two-lane state over the compiled tape.
#[derive(Debug)]
pub struct ProtectedReplayer {
    prototype: BatchedSim,
}

impl Default for ProtectedReplayer {
    fn default() -> ProtectedReplayer {
        ProtectedReplayer::new()
    }
}

impl ProtectedReplayer {
    /// Builds and compiles the protected design.
    ///
    /// # Panics
    ///
    /// Panics if the shipped protected design fails to lower (it never
    /// does).
    #[must_use]
    pub fn new() -> ProtectedReplayer {
        let net = accel::protected().lower().expect("protected design lowers");
        ProtectedReplayer {
            prototype: BatchedSim::with_tracking(net, TrackMode::Precise, 1),
        }
    }

    /// Replays one input's tenant programs under every tracking mode
    /// (one two-lane execution; see the [module docs](self)).
    #[must_use]
    pub fn replay(&self, programs: &[TenantProgram]) -> ReplayOutcome {
        let mut driver = BatchedDriver::from_batched(self.prototype.with_lane_modes(&LANE_MODES));
        let values = replay_values(&mut driver, programs);
        let [conservative, precise] = [0, 1].map(|lane| ModeReplay {
            mode: LANE_MODES[lane],
            violations: driver.violations(lane).to_vec(),
            ..values.clone()
        });
        let off = ModeReplay {
            mode: TrackMode::Off,
            violations: Vec::new(),
            ..precise.clone()
        };
        ReplayOutcome {
            modes: vec![off, conservative, precise],
        }
    }
}

/// The replay batch's lane modes, in lane order.
const LANE_MODES: [TrackMode; 2] = [TrackMode::Conservative, TrackMode::Precise];

struct Tenant<'p> {
    user: Label,
    ops: VecDeque<&'p AttackOp>,
    /// Expected master-key ciphertexts of this tenant's own master-slot
    /// submissions: delivery of any of them to this (non-supervisor)
    /// tenant is the leak invariant 2 watches for.
    forbidden: Vec<[u8; 16]>,
}

/// One cycle of `action` on both lanes; returns whether a submit was
/// accepted.
fn step(driver: &mut BatchedDriver, action: LaneAction) -> bool {
    let mut accepted = [false; 2];
    driver.step(&[action.clone(), action], &mut accepted);
    debug_assert_eq!(accepted[0], accepted[1], "lane value planes diverged");
    accepted[0]
}

/// Runs the op schedule on both lanes and returns lane 0's value-derived
/// fields (`mode` and `violations` are left for the caller to fill).
fn replay_values(driver: &mut BatchedDriver, programs: &[TenantProgram]) -> ModeReplay {
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

    // Round-robin, one op per tenant per turn: the interleaving a real
    // multi-tenant device sees.
    let mut remaining = tenants.iter().map(|t| t.ops.len()).sum::<usize>();
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
                    let submit = LaneAction::Submit {
                        req,
                        decrypt: false,
                    };
                    let accepted = (0..64).any(|_| step(driver, submit.clone()));
                    if !accepted {
                        stalled_submits += 1;
                    }
                }
                AttackOp::WriteKey {
                    addr,
                    data,
                    supervisor,
                } => {
                    let writer = if supervisor { supervisor_label() } else { me };
                    let cell = usize::from(addr) % 8;
                    step(driver, LaneAction::WriteKey { cell, data, writer });
                }
                AttackOp::Alloc { cell } => {
                    let cell = usize::from(cell) % 8;
                    step(driver, LaneAction::Alloc { cell, owner: me });
                }
                AttackOp::WriteCfg { value } => {
                    step(driver, LaneAction::WriteCfg { value, writer: me });
                }
                AttackOp::ReadDebug { sel } => {
                    let sel = u32::from(sel) % 8;
                    step(driver, LaneAction::ReadDebug { sel });
                    if debug_port_admits(driver.sim().netlist(), me) {
                        leaks.push(format!(
                            "debug tap answered non-supervisor {me} at sel {sel}"
                        ));
                    }
                }
                AttackOp::Idle { cycles } => {
                    driver.idle(u64::from(cycles.max(1)));
                }
            }
        }
    }

    // Bounded drain — no panic on a wedged pipeline, just a recorded
    // replay-blocked condition.
    let mut budget = 2_000u32;
    while driver.in_flight(0) > 0 && budget > 0 {
        driver.idle_cycle();
        budget -= 1;
    }
    let drained = driver.in_flight(0) == 0;
    debug_assert_eq!(driver.in_flight(0), driver.in_flight(1));
    debug_assert_eq!(driver.responses[0], driver.responses[1]);
    debug_assert_eq!(driver.rejections[0], driver.rejections[1]);

    // The value oracle: did any tenant actually receive a master-key
    // ciphertext of one of their own master-slot submissions?
    let supervisor = supervisor_label();
    for resp in &driver.responses[0] {
        if resp.user == supervisor {
            continue;
        }
        let hit = tenants
            .iter()
            .any(|t| t.user == resp.user && t.forbidden.contains(&resp.block));
        if hit {
            leaks.push(format!(
                "master-key ciphertext delivered to {} at cycle {}",
                resp.user, resp.completed
            ));
        }
    }

    ModeReplay {
        mode: LANE_MODES[0],
        leaks,
        violations: Vec::new(),
        responses: driver.responses[0].len(),
        rejections: driver.rejections[0].len(),
        stalled_submits,
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::gen_programs;
    use crate::rng::FuzzRng;

    #[test]
    fn random_programs_never_leak_on_protected() {
        let replayer = ProtectedReplayer::new();
        let mut rng = FuzzRng::new(0x5ea1);
        for _ in 0..3 {
            let programs = gen_programs(&mut rng, 2);
            let outcome = replayer.replay(&programs);
            assert_eq!(outcome.modes.len(), REPLAY_MODES.len());
            assert!(
                outcome.leaks().is_empty(),
                "protected build leaked: {:?}",
                outcome.leaks()
            );
        }
    }
}
