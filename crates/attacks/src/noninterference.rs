//! Experimental noninterference testing.
//!
//! The gold-standard check for the paper's isolation claims: run the
//! *same* attacker workload twice while varying only the victim's secrets
//! (her plaintext and her secret-dependent behaviour), and compare the
//! attacker's complete observable trace bit by bit. If the traces are
//! identical for every secret, the attacker learns nothing — by
//! *experiment*, complementing the checker's static argument.
//!
//! The victim's secret influences two things, mirroring the paper's
//! Section 3.1 covert channel: the plaintext she encrypts, and whether
//! her receiver performs a slow DMA (stalling her output) during a fixed
//! window.

use accel::driver::{AccelDriver, Request};
use accel::{user_label, Protection};

/// Everything the attacker (Eve) can observe across one run: the arbiter
/// grant (`in_ready`) on every cycle she probes, and her own responses
/// with their completion cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EveTrace {
    /// Per-probe `in_ready` observations (cycle, value).
    pub in_ready: Vec<(u64, bool)>,
    /// Eve's own completions: (cycle, ciphertext).
    pub responses: Vec<(u64, [u8; 16])>,
}

/// Runs the fixed attacker workload while the victim behaves according to
/// `secret`, returning Eve's observable trace.
///
/// Schedule (cycles relative to start): Alice submits a secret-dependent
/// block at t=10 (due out t=40); if the secret's low bit is set her
/// receiver blocks over t ∈ \[38, 58\]; Eve submits a fixed block at t=35
/// (due out t=65, after the window) and probes `in_ready` on every other
/// cycle.
#[must_use]
pub fn eve_trace(protection: Protection, secret: u8) -> EveTrace {
    eve_trace_on(&crate::scenarios::design_for(protection), secret)
}

/// [`eve_trace`] against an arbitrary (e.g. lesioned) design.
#[must_use]
pub fn eve_trace_on(design: &hdl::Design, secret: u8) -> EveTrace {
    let mut drv = AccelDriver::from_design(design, sim::TrackMode::Precise);
    let alice = user_label(1);
    let eve = user_label(0);
    drv.load_key(0, [0xA1; 16], alice);
    drv.load_key(1, [0xE5; 16], eve);

    let victim_blocks_receiver = secret & 1 == 1;
    let victim_plaintext = [secret; 16];

    let start = drv.cycle();
    let mut trace = EveTrace {
        in_ready: Vec::new(),
        responses: Vec::new(),
    };
    let mut alice_sent = false;
    let mut eve_sent = false;
    while drv.cycle() - start < 130 {
        let t = drv.cycle() - start;
        drv.set_receiver_ready(!(victim_blocks_receiver && (38..=58).contains(&t)));
        if !alice_sent && t >= 10 {
            alice_sent = drv.try_submit(&Request {
                block: victim_plaintext,
                key_slot: 0,
                user: alice,
            });
        } else if !eve_sent && t >= 35 {
            eve_sent = drv.try_submit(&Request {
                block: [0xEE; 16],
                key_slot: 1,
                user: eve,
            });
        } else {
            let ready = drv.probe_in_ready();
            trace.in_ready.push((t, ready));
        }
    }
    for r in &drv.responses[0] {
        if r.user == eve {
            trace.responses.push((r.completed - start, r.block));
        }
    }
    trace
}

/// Whether the attacker's trace is independent of the victim's secret —
/// compared across a spread of secret values.
#[must_use]
pub fn noninterference_holds(protection: Protection) -> bool {
    let reference = eve_trace(protection, 0);
    [1u8, 2, 3, 0x80, 0xff]
        .iter()
        .all(|&s| eve_trace(protection, s) == reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_design_is_experimentally_noninterferent() {
        assert!(
            noninterference_holds(Protection::Full),
            "Eve's trace must not depend on Alice's secret"
        );
    }

    #[test]
    fn baseline_interferes_through_the_stall() {
        let quiet = eve_trace(Protection::Off, 0);
        let noisy = eve_trace(Protection::Off, 1);
        assert_ne!(
            quiet, noisy,
            "the baseline's shared stall leaks the victim's behaviour"
        );
        // Specifically: Eve's completion time moves.
        assert_ne!(quiet.responses[0].0, noisy.responses[0].0);
    }

    #[test]
    fn secret_values_alone_do_not_change_eve_values() {
        // Even on the baseline, varying only the *plaintext* (secret bit
        // clear, so no stall behaviour change) leaves Eve's own ciphertext
        // unchanged — the leak is through timing/behaviour, which is
        // exactly what the protected design removes.
        let a = eve_trace(Protection::Off, 0);
        let b = eve_trace(Protection::Off, 2);
        assert_eq!(a.responses, b.responses);
    }

    #[test]
    fn eve_still_gets_her_answer() {
        let t = eve_trace(Protection::Full, 1);
        assert_eq!(t.responses.len(), 1, "usability: Eve's work completes");
    }
}
