//! Multi-session workload helpers.
//!
//! An SoC deployment of the accelerator serves many mutually distrusting
//! principals at once; a *session* is one principal's deterministic
//! encrypt workload — its own key and request stream, derived from a
//! seed by [`mix`] and [`block_from`], with every ciphertext checked
//! against the software AES oracle.
//!
//! [`run_session`] runs a session on one [`AccelDriver`] (the
//! interpreting oracle), and [`run_lane_sessions`] runs one session per
//! lane of a [`BatchedDriver`]; per-lane results match the oracle's
//! exactly. Packing sessions onto lane batches across worker threads is
//! `farm::baseline::run_static`'s job (static packing) and the farm's
//! (refill and re-packing).

use aes_core::Aes;
use ifc_lattice::Label;
use sim::RuntimeViolation;

use crate::batch::{BatchedDriver, LaneAction};
use crate::driver::{AccelDriver, Request};

/// Stream index reserved for deriving a session's key from its seed
/// (ASCII `"KEYS"`; request blocks use their small submission indices,
/// which never collide with it).
pub const KEY_DERIVE_INDEX: u64 = 0x4b45_5953;

/// What one session observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Completed encryptions.
    pub responses: usize,
    /// Requests refused by the release check.
    pub rejections: usize,
    /// Runtime violations the tracking logic recorded.
    pub violations: usize,
    /// Cycles the session's simulator ran.
    pub cycles: u64,
    /// Ciphertexts that matched the software AES oracle.
    pub verified: usize,
    /// Cycle of the first runtime violation, if any — the mutation
    /// campaign's cycles-to-kill measurement.
    pub first_violation: Option<u64>,
}

/// Deterministic per-session key/plaintext derivation (SplitMix64) —
/// shared by the session runners and the farm's churn workloads so the
/// same seed always produces the same traffic.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `i`-th deterministic 16-byte block of a seeded stream ([`mix`]
/// applied to the seed and index). Session keys use index
/// [`KEY_DERIVE_INDEX`]; request blocks use their submission index.
#[must_use]
pub fn block_from(seed: u64, i: u64) -> [u8; 16] {
    let hi = mix(seed ^ (2 * i));
    let lo = mix(seed ^ (2 * i + 1));
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&hi.to_be_bytes());
    b[8..].copy_from_slice(&lo.to_be_bytes());
    b
}

/// Runs one session's workload on an existing driver: load a key, submit
/// `blocks` encryptions under `user`, drain, and verify every ciphertext
/// against the software oracle.
pub fn run_session(
    driver: &mut AccelDriver,
    blocks: usize,
    user: Label,
    seed: u64,
) -> SessionStats {
    let key = block_from(seed, KEY_DERIVE_INDEX);
    driver.load_key(0, key, user);
    for i in 0..blocks {
        driver.submit(&Request {
            block: block_from(seed, i as u64),
            key_slot: 0,
            user,
        });
    }
    driver.drain(10_000);

    let oracle = Aes::new(&key).expect("16-byte key");
    let verified = driver
        .responses
        .iter()
        .enumerate()
        .filter(|(i, r)| oracle.encrypt_block(block_from(seed, *i as u64)) == r.block)
        .count();
    SessionStats {
        responses: driver.responses.len(),
        rejections: driver.rejections.len(),
        violations: driver.violations().len(),
        cycles: driver.cycle(),
        verified,
        first_violation: driver.violations().first().map(RuntimeViolation::cycle),
    }
}

/// Lane action for a session's `next`-th block of `blocks`: submit it
/// (the plaintext stream derived from `seed` exactly as [`run_session`]
/// derives it), or idle once every block is in.
#[must_use]
pub(crate) fn submit_next(next: usize, blocks: usize, seed: u64, user: Label) -> LaneAction {
    if next < blocks {
        LaneAction::Submit {
            req: Request {
                block: block_from(seed, next as u64),
                key_slot: 0,
                user,
            },
            decrypt: false,
        }
    } else {
        LaneAction::Idle
    }
}

/// Runs one batch's workload: the same key-load / submit / drain / verify
/// sequence as [`run_session`], with lane `l` deriving its key and
/// plaintext stream from `seeds[l]` exactly as a single session would.
///
/// # Panics
///
/// Panics if `users` and `seeds` do not hold one entry per lane, or the
/// pipeline refuses input for 10 000 consecutive cycles.
pub fn run_lane_sessions(
    driver: &mut BatchedDriver,
    blocks: usize,
    users: &[Label],
    seeds: &[u64],
) -> Vec<SessionStats> {
    let lanes = driver.lanes();
    assert_eq!(users.len(), lanes, "one user per lane");
    assert_eq!(seeds.len(), lanes, "one seed per lane");
    let keys: Vec<[u8; 16]> = seeds
        .iter()
        .map(|&s| block_from(s, KEY_DERIVE_INDEX))
        .collect();
    driver.load_keys(0, &keys, users);

    let mut next = vec![0usize; lanes];
    let mut actions = vec![LaneAction::Idle; lanes];
    let mut accepted = vec![false; lanes];
    let mut stalled = 0u32;
    while next.iter().any(|&n| n < blocks) {
        for l in 0..lanes {
            actions[l] = submit_next(next[l], blocks, seeds[l], users[l]);
        }
        driver.step(&actions, &mut accepted);
        let mut any = false;
        for l in 0..lanes {
            if accepted[l] {
                next[l] += 1;
                any = true;
            }
        }
        stalled = if any { 0 } else { stalled + 1 };
        assert!(stalled < 10_000, "pipeline refused input for 10000 cycles");
    }
    driver.drain(10_000);

    (0..lanes)
        .map(|l| {
            let oracle = Aes::new(&keys[l]).expect("16-byte key");
            let verified = driver.responses[l]
                .iter()
                .enumerate()
                .filter(|(i, r)| oracle.encrypt_block(block_from(seeds[l], *i as u64)) == r.block)
                .count();
            SessionStats {
                responses: driver.responses[l].len(),
                rejections: driver.rejections[l].len(),
                violations: driver.violations(l).len(),
                cycles: driver.cycle(),
                verified,
                first_violation: driver.violations(l).first().map(RuntimeViolation::cycle),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::protected;
    use crate::params::user_label;
    use hdl::Netlist;
    use sim::{BatchedSim, OptConfig, TrackMode};

    /// Runs `lanes` sessions on one `lanes`-wide batched driver compiled
    /// with `opt`, lane `i` under `user_label(i % 4)` and seed
    /// `mix(seed ^ i << 8)`, and asserts every lane's stats equal
    /// [`run_session`]'s on a fresh oracle driver with that user and seed
    /// — cycle counts included — and that every ciphertext verifies.
    fn assert_lanes_match_oracle(
        net: &Netlist,
        mode: TrackMode,
        opt: &OptConfig,
        lanes: usize,
        blocks: usize,
        seed: u64,
    ) -> Vec<SessionStats> {
        let users: Vec<Label> = (0..lanes).map(|i| user_label(i % 4)).collect();
        let seeds: Vec<u64> = (0..lanes).map(|i| mix(seed ^ (i as u64) << 8)).collect();
        let oracle: Vec<SessionStats> = (0..lanes)
            .map(|i| {
                let mut driver = AccelDriver::from_netlist(net.clone(), mode);
                run_session(&mut driver, blocks, users[i], seeds[i])
            })
            .collect();
        let mut driver = BatchedDriver::from_batched(BatchedSim::with_tracking_opt(
            net.clone(),
            mode,
            lanes,
            opt,
        ));
        let batched = run_lane_sessions(&mut driver, blocks, &users, &seeds);
        assert_eq!(oracle, batched, "{lanes} lanes, {mode:?}, {opt:?}");
        assert!(
            batched
                .iter()
                .all(|s| s.responses == blocks && s.verified == blocks),
            "{batched:?}"
        );
        batched
    }

    #[test]
    fn one_lane_session_matches_the_oracle_and_verifies() {
        let net = protected().lower().expect("lowers");
        for opt in [OptConfig::none(), OptConfig::all()] {
            let stats = assert_lanes_match_oracle(&net, TrackMode::Precise, &opt, 1, 4, 7);
            assert_eq!(stats[0].violations, 0, "{stats:?}");
        }
    }

    #[test]
    fn two_lane_sessions_match_the_oracle() {
        let net = protected().lower().expect("lowers");
        for opt in [OptConfig::none(), OptConfig::all()] {
            assert_lanes_match_oracle(&net, TrackMode::Conservative, &opt, 2, 3, 99);
        }
    }

    #[test]
    fn four_lane_sessions_match_the_oracle() {
        // With every optimizer pass on (exercising DCE's handling of the
        // real design's dynamic release labels), results are unchanged.
        let net = protected().lower().expect("lowers");
        for opt in [OptConfig::none(), OptConfig::all()] {
            assert_lanes_match_oracle(&net, TrackMode::Precise, &opt, 4, 3, 21);
        }
    }
}
