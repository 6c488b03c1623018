//! The hardware-Trojan scenario (the paper's reference \[16\]): a
//! data-leak Trojan that functional testing cannot see, exfiltrating key
//! material through the `out_tag` side channel after a magic trigger.
//!
//! The demonstration has three parts:
//!
//! 1. **Functional stealth** — the trojaned baseline still produces
//!    bit-correct ciphertexts, so no test-vector campaign flags it.
//! 2. **Dynamic exploitation** — Eve sends the trigger block and reads
//!    Alice's round key off the side channel, byte per cycle, then
//!    inverts the key schedule.
//! 3. **Design-time detection** — the same Trojan inserted into the
//!    *annotated* structure is a key-to-public information flow, which
//!    the static checker reports before tape-out.

use accel::driver::{AccelDriver, Request};
use accel::{trojaned, user_label, Protection, TROJAN_TRIGGER};
use aes_core::Aes;
use sim::TrackMode;

use crate::keysched::recover_cipher_key;
use crate::scenarios::{AttackOutcome, AttackResult};

const ALICE_KEY: [u8; 16] = [0xa1; 16];

/// Runs the Trojan exfiltration against the trojaned baseline.
#[must_use]
pub fn trojan_exfiltration() -> AttackResult {
    let design = trojaned(Protection::Off);
    let mut drv = AccelDriver::from_design(&design, TrackMode::Off);
    let alice = user_label(1);
    let eve = user_label(0);
    drv.load_key(0, ALICE_KEY, alice);

    // Functional stealth: Alice's ciphertext is still correct.
    let pt = [0x77u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let functional = drv.responses[0][0].block == Aes::new_128(ALICE_KEY).encrypt_block(pt);

    // Eve arms the Trojan (selecting Alice's key slot so the round key of
    // interest enters the key pipeline), then samples the side channel.
    drv.submit(&Request {
        block: TROJAN_TRIGGER,
        key_slot: 0,
        user: eve,
    });
    // The trigger block's RK1 now sits in the key pipeline stage 0 while
    // the exfiltration index sweeps bytes 0..16.
    let mut rk1 = [0u8; 16];
    let mut seen = [false; 16];
    for _ in 0..40 {
        let idx = drv.sim_mut().peek("trojan.idx") as usize & 0xf;
        let armed = drv.sim_mut().peek("trojan.armed") == 1;
        if armed {
            let byte = drv.sim_mut().peek("out_tag") as u8;
            rk1[idx] = byte;
            seen[idx] = true;
        }
        drv.idle_cycle();
        if seen.iter().all(|&s| s) {
            break;
        }
    }
    let recovered = recover_cipher_key(rk1, 1);
    let leaked = seen.iter().all(|&s| s) && recovered == ALICE_KEY;

    AttackResult {
        name: "hardware Trojan key exfiltration",
        outcome: if leaked && functional {
            AttackOutcome::Succeeded
        } else {
            AttackOutcome::Blocked
        },
        detail: format!(
            "functional tests {}; side channel {}",
            if functional {
                "pass (Trojan invisible)"
            } else {
                "fail"
            },
            if leaked {
                format!("leaked Alice's key {recovered:02x?}")
            } else {
                "did not yield the key".into()
            }
        ),
    }
}

/// Design-time detection: the same Trojan in the annotated structure is a
/// flagged information flow.
#[must_use]
pub fn trojan_static_detection() -> AttackResult {
    let design = trojaned(Protection::Full);
    let report = ifc_check::check(&design);
    let flagged = report
        .violations
        .iter()
        .any(|v| v.message.contains("out_tag"));
    AttackResult {
        name: "hardware Trojan (design-time detection)",
        outcome: if flagged {
            AttackOutcome::Blocked
        } else {
            AttackOutcome::Succeeded
        },
        detail: format!(
            "{} label error(s); Trojan flow {}",
            report.violations.len(),
            if flagged {
                "flagged before tape-out"
            } else {
                "MISSED"
            }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trojan_exfiltrates_on_the_baseline() {
        let r = trojan_exfiltration();
        assert!(r.succeeded(), "{}", r.detail);
        assert!(r.detail.contains("Trojan invisible"));
    }

    #[test]
    fn trojan_is_caught_statically_on_the_annotated_design() {
        let r = trojan_static_detection();
        assert!(!r.succeeded(), "{}", r.detail);
    }

    #[test]
    fn clean_designs_have_no_trojan_state() {
        let design = accel::protected();
        assert!(design
            .node_ids()
            .all(|id| design.name_of(id).is_none_or(|n| !n.starts_with("trojan"))));
    }
}
