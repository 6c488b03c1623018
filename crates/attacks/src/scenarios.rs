//! The attack scenarios, each runnable against any protection level or
//! any concrete design (including the lesioned variants).

use accel::driver::{AccelDriver, Request};
use accel::{
    baseline, baseline_annotated, master_key_encrypt, protected, supervisor_label, user_label,
    Protection,
};
use aes_core::Aes;
use hdl::Design;
use sim::TrackMode;

use crate::keysched::recover_cipher_key;

/// Whether the adversary achieved its goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The adversary obtained the secret / corrupted the state.
    Succeeded,
    /// The hardware enforcement stopped the attack.
    Blocked,
}

/// The adversarial scenario classes (one per vulnerability the paper
/// discusses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Pipeline-sharing covert timing channel.
    TimingChannel,
    /// Key scratchpad buffer overrun.
    ScratchpadOverrun,
    /// Trace-buffer/debug-peripheral key disclosure.
    DebugKeyDisclosure,
    /// Publicly visible partial-result disclosure.
    PartialResultDisclosure,
    /// Master-key misuse by an unprivileged user.
    MasterKeyMisuse,
    /// Configuration-register tampering.
    ConfigTamper,
}

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Scenario name.
    pub name: &'static str,
    /// Outcome for the adversary.
    pub outcome: AttackOutcome,
    /// Human-readable evidence (measurements, recovered values).
    pub detail: String,
}

impl AttackResult {
    /// Convenience predicate.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.outcome == AttackOutcome::Succeeded
    }
}

const ALICE_KEY: [u8; 16] = [0xa1; 16];
const EVE_KEY: [u8; 16] = [0xe5; 16];

/// Builds the canonical design for a protection level.
#[must_use]
pub fn design_for(protection: Protection) -> Design {
    match protection {
        Protection::Off => baseline(),
        Protection::Annotated => baseline_annotated(),
        Protection::Full => protected(),
    }
}

fn setup_on(design: &Design) -> AccelDriver {
    let mut drv = AccelDriver::from_design(design, TrackMode::Precise);
    let alice = user_label(1);
    let eve = user_label(0);
    drv.load_key(0, ALICE_KEY, alice);
    drv.load_key(1, EVE_KEY, eve);
    drv
}

/// Runs a scenario class against an arbitrary design.
#[must_use]
pub fn run_scenario_on(kind: AttackKind, design: &Design) -> AttackResult {
    match kind {
        AttackKind::TimingChannel => timing_channel_on(design),
        AttackKind::ScratchpadOverrun => scratchpad_overrun_on(design),
        AttackKind::DebugKeyDisclosure => debug_key_disclosure_on(design),
        AttackKind::PartialResultDisclosure => partial_result_disclosure_on(design),
        AttackKind::MasterKeyMisuse => master_key_misuse_on(design),
        AttackKind::ConfigTamper => config_tamper_on(design),
    }
}

/// **Pipeline timing channel** (Section 3.1, \[20\]): Alice's slow
/// receiver stalls the shared pipeline in the baseline, delaying Eve's
/// in-flight encryption; the protected design's Fig. 8 stall policy routes
/// Alice's output to the holding buffer instead, leaving Eve's latency
/// untouched.
#[must_use]
pub fn timing_channel(protection: Protection) -> AttackResult {
    timing_channel_on(&design_for(protection))
}

/// [`timing_channel`] against an arbitrary design.
#[must_use]
pub fn timing_channel_on(design: &Design) -> AttackResult {
    let eve_latency = |with_victim: bool| -> u64 {
        let mut drv = setup_on(design);
        let alice = user_label(1);
        let eve = user_label(0);
        let start = drv.cycle();
        // Cycle-accurate schedule relative to `start`:
        //   t=10: Alice submits (due out at t=40).
        //   t in [38, 58]: the receiver is not ready (Alice's stalling DMA).
        //   t=35: Eve submits (due out at t=65, after the window).
        let mut alice_sent = !with_victim;
        let mut eve_sent = false;
        while drv.cycle() - start < 120 {
            let t = drv.cycle() - start;
            drv.set_receiver_ready(!(38..=58).contains(&t));
            if !alice_sent && t >= 10 {
                alice_sent = drv.try_submit(&Request {
                    block: [0xAA; 16],
                    key_slot: 0,
                    user: alice,
                });
                continue;
            }
            if !eve_sent && t >= 35 {
                eve_sent = drv.try_submit(&Request {
                    block: [0xEE; 16],
                    key_slot: 1,
                    user: eve,
                });
                continue;
            }
            drv.idle_cycle();
        }
        drv.responses[0]
            .iter()
            .find(|r| r.user == eve)
            .map(|r| r.completed - r.submitted)
            .expect("Eve's block completes within the horizon")
    };

    let quiet = eve_latency(false);
    let loaded = eve_latency(true);
    let delta = loaded.abs_diff(quiet);
    let outcome = if delta >= 3 {
        AttackOutcome::Succeeded
    } else {
        AttackOutcome::Blocked
    };
    AttackResult {
        name: "pipeline timing channel",
        outcome,
        detail: format!(
            "Eve's latency: {quiet} cycles alone, {loaded} cycles with victim (delta {delta})"
        ),
    }
}

/// **Scratchpad overrun** (Fig. 5): Eve writes past her allocation into
/// Alice's key cells. In the baseline the write lands and Alice's next
/// ciphertext is silently wrong; the protected scratchpad's tag check
/// blocks the write.
#[must_use]
pub fn scratchpad_overrun(protection: Protection) -> AttackResult {
    scratchpad_overrun_on(&design_for(protection))
}

/// [`scratchpad_overrun`] against an arbitrary design.
#[must_use]
pub fn scratchpad_overrun_on(design: &Design) -> AttackResult {
    let mut drv = setup_on(design);
    let alice = user_label(1);
    let eve = user_label(0);
    // Eve overruns her slot-1 buffer (cells 2,3) into Alice's cell 0.
    drv.write_key_cell(0, 0xdead_beef_dead_beef, eve);
    // Alice then encrypts with what she believes is her key.
    let pt = [0x11u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let expected = Aes::new_128(ALICE_KEY).encrypt_block(pt);
    let got = drv.responses[0].first().map(|r| r.block);
    let outcome = if got == Some(expected) {
        AttackOutcome::Blocked
    } else {
        AttackOutcome::Succeeded
    };
    AttackResult {
        name: "scratchpad overrun",
        outcome,
        detail: format!(
            "Alice's ciphertext {} the reference after Eve's out-of-bounds write",
            if got == Some(expected) {
                "matches"
            } else {
                "DIFFERS from"
            }
        ),
    }
}

/// **Debug-peripheral key disclosure** (\[10\]): Eve unlocks the debug
/// port through the configuration register and dumps a key-expansion
/// pipeline register while Alice's encryption is in flight; inverting the
/// key schedule yields Alice's cipher key.
#[must_use]
pub fn debug_key_disclosure(protection: Protection) -> AttackResult {
    debug_key_disclosure_on(&design_for(protection))
}

/// [`debug_key_disclosure`] against an arbitrary design.
#[must_use]
pub fn debug_key_disclosure_on(design: &Design) -> AttackResult {
    let mut drv = setup_on(design);
    let alice = user_label(1);
    let eve = user_label(0);
    // Step 1: Eve tries to unlock debug herself (works on the baseline);
    // independently, the supervisor has debug enabled for bring-up, so the
    // port's *label* is what must protect live key material.
    drv.write_cfg(0x01, eve);
    if drv.cfg() & 1 == 0 {
        drv.write_cfg(0x01, supervisor_label());
    }
    // Step 2: Alice starts an encryption.
    drv.submit(&Request {
        block: [0x22u8; 16],
        key_slot: 0,
        user: alice,
    });
    // Step 3: Eve probes the key pipeline register of stage 0, which now
    // holds Alice's round key 1 (debug space: 32 + stage index).
    let probe = drv.read_debug(32, eve);
    let recovered = probe.map(|rk1| recover_cipher_key(rk1, 1));
    let outcome = if recovered == Some(ALICE_KEY) {
        AttackOutcome::Succeeded
    } else {
        AttackOutcome::Blocked
    };
    AttackResult {
        name: "debug-peripheral key disclosure",
        outcome,
        detail: match recovered {
            Some(k) if k == ALICE_KEY => {
                format!("recovered Alice's key {k:02x?} from the key pipeline")
            }
            Some(_) => "debug port readable but key material not exposed".into(),
            None => "debug port not readable at Eve's clearance".into(),
        },
    }
}

/// **Partial-result disclosure** (\[6\]): the whitening stage holds
/// `plaintext ⊕ key`, so one debug probe of stage 0 with a known plaintext
/// reveals the key directly.
#[must_use]
pub fn partial_result_disclosure(protection: Protection) -> AttackResult {
    partial_result_disclosure_on(&design_for(protection))
}

/// [`partial_result_disclosure`] against an arbitrary design.
#[must_use]
pub fn partial_result_disclosure_on(design: &Design) -> AttackResult {
    let mut drv = setup_on(design);
    let alice = user_label(1);
    let eve = user_label(0);
    drv.write_cfg(0x01, eve);
    if drv.cfg() & 1 == 0 {
        drv.write_cfg(0x01, supervisor_label());
    }
    let pt = [0x33u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    let probe = drv.read_debug(0, eve);
    let recovered = probe.map(|stage0| {
        let mut key = [0u8; 16];
        for i in 0..16 {
            key[i] = stage0[i] ^ pt[i];
        }
        key
    });
    let outcome = if recovered == Some(ALICE_KEY) {
        AttackOutcome::Succeeded
    } else {
        AttackOutcome::Blocked
    };
    AttackResult {
        name: "partial-result disclosure",
        outcome,
        detail: match recovered {
            Some(k) if k == ALICE_KEY => {
                format!("stage-0 partial result revealed Alice's key {k:02x?}")
            }
            Some(_) => "intermediate state not exposed".into(),
            None => "debug port not readable at Eve's clearance".into(),
        },
    }
}

/// **Master-key misuse** (Section 3.2.2): Eve submits an encryption that
/// selects the `(⊤,⊤)` master key. The baseline happily returns the
/// ciphertext; the protected design's nonmalleable declassification
/// refuses the release (only the supervisor has the integrity to
/// declassify master-key ciphertexts).
#[must_use]
pub fn master_key_misuse(protection: Protection) -> AttackResult {
    master_key_misuse_on(&design_for(protection))
}

/// [`master_key_misuse`] against an arbitrary design.
#[must_use]
pub fn master_key_misuse_on(design: &Design) -> AttackResult {
    master_key_misuse_as_on(design, user_label(0))
}

/// [`master_key_misuse`] attempted by an arbitrary (non-supervisor)
/// principal. The mutation campaign uses this to probe stuck-at-1 tag
/// faults: a fault that inflates a particular user's integrity bits may
/// open the master key to that user while Eve (user 0) stays blocked.
#[must_use]
pub fn master_key_misuse_as_on(design: &Design, user: ifc_lattice::Label) -> AttackResult {
    let mut drv = setup_on(design);
    let eve = user;
    let pt = [0x44u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: accel::MASTER_KEY_SLOT,
        user: eve,
    });
    drv.drain(100);
    let got = drv.responses[0].first().map(|r| r.block);
    let oracle = master_key_encrypt(pt);
    let outcome = if got == Some(oracle) {
        AttackOutcome::Succeeded
    } else {
        AttackOutcome::Blocked
    };
    AttackResult {
        name: "master-key misuse",
        outcome,
        detail: match got {
            Some(_) => "Eve obtained a master-key ciphertext".into(),
            None => format!(
                "release refused ({} nonmalleable rejection(s) recorded)",
                drv.rejections[0].len()
            ),
        },
    }
}

/// The supervisor's legitimate master-key encryption — the usability
/// counterpart of [`master_key_misuse`]; must succeed on every design.
#[must_use]
pub fn supervisor_master_key_use(protection: Protection) -> AttackResult {
    let mut drv = setup_on(&design_for(protection));
    let pt = [0x55u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: accel::MASTER_KEY_SLOT,
        user: supervisor_label(),
    });
    drv.drain(100);
    let ok = drv.responses[0].first().map(|r| r.block) == Some(master_key_encrypt(pt));
    AttackResult {
        name: "supervisor master-key use (legitimate)",
        outcome: if ok {
            AttackOutcome::Succeeded
        } else {
            AttackOutcome::Blocked
        },
        detail: if ok {
            "supervisor obtained the master-key ciphertext".into()
        } else {
            "supervisor was incorrectly refused".into()
        },
    }
}

/// **Configuration tampering**: Eve flips configuration bits (including
/// the debug unlock). Blocked by the `(⊥,⊤)` integrity label in the
/// protected design.
#[must_use]
pub fn config_tamper(protection: Protection) -> AttackResult {
    config_tamper_on(&design_for(protection))
}

/// [`config_tamper`] against an arbitrary design.
#[must_use]
pub fn config_tamper_on(design: &Design) -> AttackResult {
    let mut drv = setup_on(design);
    let eve = user_label(0);
    drv.write_cfg(0xa5, eve);
    let cfg = drv.cfg();
    let outcome = if cfg == 0xa5 {
        AttackOutcome::Succeeded
    } else {
        AttackOutcome::Blocked
    };
    AttackResult {
        name: "configuration tampering",
        outcome,
        detail: format!("config register reads {cfg:#04x} after Eve's write"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attack_succeeds_on_baseline() {
        for attack in [
            timing_channel,
            scratchpad_overrun,
            debug_key_disclosure,
            partial_result_disclosure,
            master_key_misuse,
            config_tamper,
        ] {
            let r = attack(Protection::Off);
            assert!(r.succeeded(), "{}: {}", r.name, r.detail);
        }
    }

    #[test]
    fn every_attack_is_blocked_on_protected() {
        for attack in [
            timing_channel,
            scratchpad_overrun,
            debug_key_disclosure,
            partial_result_disclosure,
            master_key_misuse,
            config_tamper,
        ] {
            let r = attack(Protection::Full);
            assert!(!r.succeeded(), "{}: {}", r.name, r.detail);
        }
    }

    #[test]
    fn supervisor_retains_master_key_usability() {
        for p in [Protection::Off, Protection::Full] {
            let r = supervisor_master_key_use(p);
            assert!(r.succeeded(), "{:?}: {}", p, r.detail);
        }
    }
}
