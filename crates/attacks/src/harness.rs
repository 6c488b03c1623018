//! Shared scenario-driving harness.
//!
//! The attack matrix is consumed from three places — the integration
//! tests, the `attack_demo` example, and the bench binaries — and each
//! used to carry its own copy of the row-checking and row-rendering
//! loops. They live here once instead. The mutation campaign
//! (`crate::mutate`) reuses [`encrypts_correctly`] as its functional
//! screen.

use accel::driver::{AccelDriver, Request};
use accel::user_label;
use aes_core::Aes;
use hdl::Design;
use sim::TrackMode;

use crate::matrix::AttackReport;

/// Checks the real-vulnerability pattern on every matrix row: the attack
/// succeeds on the baseline and is blocked on the protected design.
/// Returns the first offending row as an error message.
///
/// # Errors
///
/// When a scenario is not exploitable on the baseline or not blocked on
/// the protected design.
pub fn verify_matrix(rows: &[AttackReport]) -> Result<(), String> {
    for row in rows {
        if !row.baseline.succeeded() {
            return Err(format!(
                "{} must be exploitable on the baseline: {}",
                row.name(),
                row.baseline.detail
            ));
        }
        if row.protected.succeeded() {
            return Err(format!(
                "{} must be blocked on the protected design: {}",
                row.name(),
                row.protected.detail
            ));
        }
    }
    Ok(())
}

/// Checks the usability pattern: the legitimate flow succeeds on *both*
/// designs (the protection must not break lawful use).
///
/// # Errors
///
/// When a legitimate flow fails on either design.
pub fn verify_usability(rows: &[AttackReport]) -> Result<(), String> {
    for row in rows {
        if !row.baseline.succeeded() {
            return Err(format!(
                "{} (baseline): {}",
                row.name(),
                row.baseline.detail
            ));
        }
        if !row.protected.succeeded() {
            return Err(format!(
                "{} (protected): {}",
                row.name(),
                row.protected.detail
            ));
        }
    }
    Ok(())
}

/// Renders one matrix row the way the demo and bench binaries print it.
#[must_use]
pub fn render_matrix_row(row: &AttackReport) -> String {
    format!(
        "== {} ==\n  baseline : {:?} — {}\n  protected: {:?} — {}\n",
        row.name(),
        row.baseline.outcome,
        row.baseline.detail,
        row.protected.outcome,
        row.protected.detail
    )
}

/// Drives one single-block encryption through `design` with tracking off
/// and compares the response against the software AES oracle — the
/// functional screen shared by the lesion test ("a lesion is a security
/// hole, not a functional bug") and the mutation campaign's control arm.
///
/// # Errors
///
/// When the design produces no response or the wrong ciphertext.
pub fn encrypts_correctly(design: &Design) -> Result<(), String> {
    let mut drv = AccelDriver::from_design(design, TrackMode::Off);
    let alice = user_label(1);
    let key = [0x42u8; 16];
    drv.load_key(0, key, alice);
    let pt = [7u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let expected = Aes::new_128(key).encrypt_block(pt);
    match drv.responses[0].first() {
        None => Err("no response within 100 cycles".into()),
        Some(r) if r.block == expected => Ok(()),
        Some(r) => Err(format!(
            "wrong ciphertext: got {:02x?}, want {expected:02x?}",
            r.block
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::{baseline, protected};

    #[test]
    fn protected_design_passes_the_functional_screen() {
        encrypts_correctly(&protected()).expect("protected encrypts");
        encrypts_correctly(&baseline()).expect("baseline encrypts");
    }
}
