//! Parallel multi-session throughput harness.
//!
//! An SoC deployment of the accelerator serves many mutually distrusting
//! principals at once; for simulation-based evaluation the natural way to
//! scale is *sessions*, not cycles: N fully independent accelerator
//! instances, each with its own keys and request stream. The netlist is
//! lowered and compiled once; sessions run as lanes of
//! [`BatchedSim`] batches on a bounded worker pool.
//!
//! [`run_fleet_batched`] drives a deterministic encrypt workload through
//! every session, checks each ciphertext against the software AES oracle,
//! and aggregates per-session statistics. [`run_session`] runs the same
//! workload on one [`AccelDriver`] (the interpreting oracle), and
//! [`run_lane_sessions`] on the lanes of one [`BatchedDriver`]; per-lane
//! results match the oracle's exactly.

use aes_core::Aes;
use hdl::Netlist;
use ifc_lattice::Label;
use sim::{BatchedSim, OptConfig, RuntimeViolation, TrackMode, SUPPORTED_LANES};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::batch::{BatchedDriver, LaneAction};
use crate::driver::{AccelDriver, Request};
use crate::params::user_label;

/// Stream index reserved for deriving a session's key from its seed
/// (ASCII `"KEYS"`; request blocks use their small submission indices,
/// which never collide with it).
pub const KEY_DERIVE_INDEX: u64 = 0x4b45_5953;

/// Workload configuration for one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of independent accelerator sessions (one thread each).
    pub sessions: usize,
    /// Encryption requests submitted per session.
    pub blocks_per_session: usize,
    /// Tracking mode every session's backend runs.
    pub mode: TrackMode,
    /// Seed mixed into each session's key and plaintext stream.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            sessions: 4,
            blocks_per_session: 32,
            mode: TrackMode::Precise,
            seed: 0x5eed,
        }
    }
}

/// What one session observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Aggregated results of a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Per-session statistics, in session order.
    pub sessions: Vec<SessionStats>,
}

impl FleetStats {
    /// Total completed encryptions across all sessions.
    #[must_use]
    pub fn total_responses(&self) -> usize {
        self.sessions.iter().map(|s| s.responses).sum()
    }

    /// Total runtime violations across all sessions.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.sessions.iter().map(|s| s.violations).sum()
    }

    /// Whether every ciphertext in every session matched the software
    /// AES oracle.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.sessions
            .iter()
            .all(|s| s.verified == s.responses && s.responses > 0)
    }

    /// The earliest violation cycle across all sessions, if any session
    /// recorded a runtime violation.
    #[must_use]
    pub fn first_violation_cycle(&self) -> Option<u64> {
        self.sessions.iter().filter_map(|s| s.first_violation).min()
    }

    /// Whether every session completed its full workload with a
    /// verified ciphertext for each submitted block — the functional
    /// acceptance a test bench without IFC oversight would apply.
    #[must_use]
    pub fn functionally_clean(&self, blocks_per_session: usize) -> bool {
        self.sessions
            .iter()
            .all(|s| s.responses == blocks_per_session && s.verified == s.responses)
    }
}

/// Deterministic per-session key/plaintext derivation (SplitMix64) —
/// shared by the fleet harness and the farm's churn workloads so the
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

/// Number of worker threads for a fleet: one per hardware thread, never
/// more than there are work items (a fleet used to spawn one thread per
/// session, which on a small host oversubscribes the cores and measures
/// scheduler churn instead of simulation throughput).
fn worker_count(items: usize) -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items)
        .max(1)
}

/// Lane action for a session's `next`-th block of `blocks`: submit it
/// (the plaintext stream derived from `seed` exactly as [`run_session`]
/// derives it), or idle once every block is in.
#[must_use]
pub fn submit_next(next: usize, blocks: usize, seed: u64, user: Label) -> LaneAction {
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

/// Runs `config.sessions` accelerator sessions scheduled onto lane
/// batches of the [`BatchedSim`] backend: sessions are greedily grouped
/// into the widest supported lane batches, the tape is compiled once and
/// shared by every batch, and a bounded worker pool claims batches.
///
/// Per-lane observable results (responses, rejections, violations,
/// verification, cycles) match [`run_session`] on a fresh
/// [`AccelDriver`] with the same user and seed; only the throughput
/// differs, because one tape pass advances a whole batch.
#[must_use]
pub fn run_fleet_batched(net: &Netlist, config: FleetConfig) -> FleetStats {
    // Compile once; every batch re-stripes the same program.
    let prototype = BatchedSim::with_tracking_opt(net.clone(), config.mode, 1, &OptConfig::none());
    run_fleet_on_prototype(&prototype, config)
}

/// Greedy partition of `sessions` into `(first session, width)` lane
/// batches with the width clamped for worker coverage.
///
/// Plain widest-fit packs 8 sessions into one 8-wide batch, which on a
/// 2-core host leaves the second worker idle *and* runs the measurably
/// slower W=8 batch shape (`farm::tuner`'s `SEED_BLOCKS_PER_SEC`,
/// recorded by `width_probe` on the 2-core host, puts W=8 below W=4).
/// Capping the width at `ceil(sessions / workers)`, rounded up to a
/// supported width, splits the same sessions into enough batches to
/// keep every worker busy: 8 sessions on 2 cores become two concurrent
/// 4-wide batches.
#[must_use]
pub fn plan_batches(sessions: usize, workers: usize) -> Vec<(usize, usize)> {
    let target = sessions.div_ceil(workers.max(1));
    let cap = SUPPORTED_LANES
        .iter()
        .copied()
        .find(|&w| w >= target)
        .unwrap_or(SUPPORTED_LANES[SUPPORTED_LANES.len() - 1]);
    let mut batches = Vec::new();
    let mut i = 0;
    while i < sessions {
        let width = SUPPORTED_LANES
            .iter()
            .rev()
            .copied()
            .find(|&w| w <= (sessions - i).min(cap))
            .expect("width 1 always fits");
        batches.push((i, width));
        i += width;
    }
    batches
}

/// [`run_fleet_batched`] over an already-compiled prototype, so a
/// caller can pick the prototype's optimizer passes and keep compilation
/// out of a timing window. Sessions are greedily grouped into lane
/// batches sized for the worker pool (see [`plan_batches`]), and the
/// bounded pool claims batches and re-stripes the prototype to each
/// batch's width.
///
/// # Panics
///
/// Panics if `config.mode` is not the prototype's tracking mode.
#[must_use]
pub fn run_fleet_on_prototype(prototype: &BatchedSim, config: FleetConfig) -> FleetStats {
    assert_eq!(
        prototype.mode(),
        config.mode,
        "prototype tracks another mode"
    );
    let batches = plan_batches(config.sessions, worker_count(config.sessions));
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![SessionStats::default(); config.sessions]);
    thread::scope(|s| {
        for _ in 0..worker_count(batches.len()) {
            s.spawn(|| loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(first, width)) = batches.get(b) else {
                    break;
                };
                let mut driver = BatchedDriver::from_batched(prototype.with_lanes(width));
                let users: Vec<Label> = (first..first + width).map(|i| user_label(i % 4)).collect();
                let seeds: Vec<u64> = (first..first + width)
                    .map(|i| mix(config.seed ^ (i as u64) << 8))
                    .collect();
                let stats =
                    run_lane_sessions(&mut driver, config.blocks_per_session, &users, &seeds);
                results.lock().expect("no poisoned sessions")[first..first + width]
                    .copy_from_slice(&stats);
            });
        }
    });
    FleetStats {
        sessions: results.into_inner().expect("no poisoned sessions"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::protected;

    /// Session `i` of a fleet run on the oracle driver: the user and seed
    /// the batched fleet gives its lane `i`.
    fn oracle_session(net: &Netlist, config: FleetConfig, i: usize) -> SessionStats {
        let mut driver = AccelDriver::from_netlist(net.clone(), config.mode);
        let seed = mix(config.seed ^ (i as u64) << 8);
        run_session(
            &mut driver,
            config.blocks_per_session,
            user_label(i % 4),
            seed,
        )
    }

    #[test]
    fn fleet_runs_parallel_sessions_and_verifies() {
        let config = FleetConfig {
            sessions: 3,
            blocks_per_session: 4,
            mode: TrackMode::Precise,
            seed: 7,
        };
        let net = protected().lower().expect("lowers");
        let stats = run_fleet_batched(&net, config);
        assert_eq!(stats.sessions.len(), 3);
        assert_eq!(stats.total_responses(), 12);
        assert!(stats.all_verified(), "{stats:?}");
        assert_eq!(stats.total_violations(), 0, "{stats:?}");
    }

    #[test]
    fn fleet_matches_across_backends() {
        let config = FleetConfig {
            sessions: 2,
            blocks_per_session: 3,
            mode: TrackMode::Conservative,
            seed: 99,
        };
        let net = protected().lower().expect("lowers");
        let oracle: Vec<SessionStats> = (0..config.sessions)
            .map(|i| oracle_session(&net, config, i))
            .collect();
        let batched = run_fleet_batched(&net, config);
        assert_eq!(oracle, batched.sessions);
        assert!(batched.all_verified());
    }

    #[test]
    fn plan_batches_clamps_width_to_worker_coverage() {
        // The W=8 cliff: 8 sessions on 2 workers must split into two
        // 4-wide batches, not one 8-wide batch that idles a core.
        assert_eq!(plan_batches(8, 2), vec![(0, 4), (4, 4)]);
        // 4 sessions on 2 workers: two 2-wide batches keep both busy.
        assert_eq!(plan_batches(4, 2), vec![(0, 2), (2, 2)]);
        // A single worker gets plain widest-fit.
        assert_eq!(plan_batches(8, 1), vec![(0, 8)]);
        // Leftovers still narrow down to fit.
        assert_eq!(plan_batches(5, 2), vec![(0, 4), (4, 1)]);
        // Targets past the widest supported width saturate at 16.
        assert_eq!(plan_batches(64, 2).len(), 4);
        // A batch never exceeds the remaining sessions.
        assert_eq!(plan_batches(1, 2), vec![(0, 1)]);
        assert_eq!(plan_batches(0, 2), vec![]);
    }

    #[test]
    fn batched_fleet_matches_per_session_fleet() {
        // 5 sessions forces a mixed partition (one 4-lane batch + one
        // 1-lane batch on two workers); per-lane results must still match
        // the session-at-a-time oracle exactly, including cycle counts.
        let config = FleetConfig {
            sessions: 5,
            blocks_per_session: 3,
            mode: TrackMode::Precise,
            seed: 21,
        };
        let net = protected().lower().expect("lowers");
        let a: Vec<SessionStats> = (0..config.sessions)
            .map(|i| oracle_session(&net, config, i))
            .collect();
        let b = run_fleet_batched(&net, config);
        assert_eq!(a, b.sessions);
        assert!(b.all_verified(), "{b:?}");
        // With every optimizer pass on (exercising DCE's handling of the
        // real design's dynamic release labels), results are unchanged.
        let prototype =
            BatchedSim::with_tracking_opt(net.clone(), config.mode, 1, &OptConfig::all());
        let c = run_fleet_on_prototype(&prototype, config);
        assert_eq!(a, c.sessions);
    }
}
