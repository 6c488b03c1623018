//! Seeded-RNG differential between the interpreting oracle and the
//! lane-batched tape engine on the real accelerator designs.
//!
//! Two layers of comparison, each across all three tracking modes:
//!
//! * **Port-level lockstep** on the iterative engine and the full
//!   protected pipeline: every lane of a 4-lane [`BatchedSim`] gets its
//!   own seeded random stimulus, and a fresh [`Simulator`] per lane gets
//!   the same; every output port's value *and* runtime label must match
//!   every cycle, then the complete violation streams.
//! * **Transaction-level**: the same request schedule (including
//!   master-key misuse that the release check refuses), configuration
//!   writes, a debug read, decryptions and a receiver outage that fills
//!   the output holding buffer through [`AccelDriver`] and a one-lane
//!   [`BatchedDriver`] must yield identical responses, rejections, drops,
//!   violations, cycle counts, configuration and debug-port state, and
//!   buffer, drop and rejection counters; after the outage both drain,
//!   each response paired with its own request.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_aes_ifc::accel::batch::BatchedDriver;
use secure_aes_ifc::accel::driver::{
    debug_port_admits, AccelDriver, Driver, LaneAction, LanePorts, Request,
};
use secure_aes_ifc::accel::engine::iterative_engine;
use secure_aes_ifc::accel::{protected, supervisor_label, user_label, MASTER_KEY_SLOT};
use secure_aes_ifc::aes_core::Aes;
use secure_aes_ifc::hdl::Netlist;
use secure_aes_ifc::ifc_lattice::Label;
use secure_aes_ifc::sim::{BatchedSim, Simulator, TrackMode};

const MODES: [TrackMode; 3] = [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise];

const LABELS: [Label; 4] = [
    Label::PUBLIC_TRUSTED,
    Label::SECRET_TRUSTED,
    Label::PUBLIC_UNTRUSTED,
    Label::SECRET_UNTRUSTED,
];

const LANES: usize = 4;

/// Drives every lane of a batch and one oracle per lane with identical
/// per-lane random port stimulus for `steps` cycles, asserting every
/// output's value and label matches each cycle and the recorded
/// violation streams match at the end.
fn lockstep_fuzz(net: &Netlist, mode: TrackMode, steps: usize, seed: u64) {
    let mut rngs: Vec<StdRng> = (0..LANES)
        .map(|lane| StdRng::seed_from_u64(seed ^ ((lane as u64) << 32)))
        .collect();
    let mut oracles: Vec<Simulator> = (0..LANES)
        .map(|_| Simulator::with_tracking(net.clone(), mode))
        .collect();
    let mut batched = BatchedSim::with_tracking(net.clone(), mode, LANES);

    let inputs: Vec<String> = net.input_ports().map(|(n, _)| n.to_string()).collect();
    let outputs: Vec<String> = net.output_ports().map(|(n, _)| n.to_string()).collect();

    for step in 0..steps {
        for (lane, (oracle, rng)) in oracles.iter_mut().zip(&mut rngs).enumerate() {
            for name in &inputs {
                let value: u128 = rng.gen();
                let label = LABELS[rng.gen_range(0..LABELS.len())];
                oracle.set(name, value);
                batched.set(lane, name, value);
                oracle.set_label(name, label);
                batched.set_label(lane, name, label);
            }
        }
        for (lane, oracle) in oracles.iter_mut().enumerate() {
            for name in &outputs {
                assert_eq!(
                    oracle.peek(name),
                    batched.peek(lane, name),
                    "value of {name} diverged on lane {lane} at step {step} in {mode:?}"
                );
                assert_eq!(
                    oracle.peek_label(name),
                    batched.peek_label(lane, name),
                    "label of {name} diverged on lane {lane} at step {step} in {mode:?}"
                );
            }
            oracle.tick();
        }
        batched.tick();
    }
    for (lane, oracle) in oracles.iter().enumerate() {
        assert_eq!(oracle.cycle(), batched.cycle());
        assert_eq!(
            oracle.violations(),
            batched.violations(lane),
            "violation streams diverged on lane {lane} in {mode:?}"
        );
        assert_eq!(
            oracle.violations_truncated(),
            batched.violations_truncated(lane)
        );
    }
}

#[test]
fn iterative_engine_backends_agree() {
    for leaky in [false, true] {
        let net = iterative_engine(leaky).lower().expect("engine lowers");
        for (i, mode) in MODES.into_iter().enumerate() {
            lockstep_fuzz(&net, mode, 80, 0xABCD + i as u64 + u64::from(leaky) * 100);
        }
    }
}

#[test]
fn pipelined_accelerator_backends_agree() {
    let net = protected().lower().expect("accelerator lowers");
    for (i, mode) in MODES.into_iter().enumerate() {
        lockstep_fuzz(&net, mode, 60, 0x70_70 + i as u64);
    }
}

/// The request schedule: keys, well-formed requests, and master-key
/// misuse (refused at release).
fn schedule(seed: u64) -> ([u8; 16], Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alice = user_label(1);
    let key: [u8; 16] = rng.gen();
    let reqs = (0..10)
        .map(|_| {
            let misuse = rng.gen_bool(0.3);
            Request {
                block: rng.gen(),
                key_slot: if misuse { MASTER_KEY_SLOT } else { 0 },
                user: alice,
            }
        })
        .collect();
    (key, reqs)
}

/// Decrypts the first three ciphertexts, then has Alice stream while
/// Eve's blocks sit mid-pipeline and the receiver is blocked for 40
/// cycles: Alice's stall requests are denied, so completions divert to
/// the output holding buffer until it overflows. Then drains: every
/// accepted request must end as its own response (its ciphertext under
/// its user's key, its submit cycle and user) or as a drop, one per step
/// of `drop_count`. Returns, per cycle, whether a submit was refused and
/// the `outbuf.count`, `drop_count` and `nm_reject_count` counters.
fn decrypt_and_backpressure<E: LanePorts>(
    d: &mut Driver<E>,
    alice_key: [u8; 16],
    eve_key: [u8; 16],
) -> Vec<[u16; 4]> {
    let (alice, eve) = (user_label(1), user_label(0));
    let decrypts: Vec<Request> = d.responses[0]
        .iter()
        .take(3)
        .map(|r| Request {
            block: r.block,
            key_slot: 0,
            user: alice,
        })
        .collect();
    for req in &decrypts {
        d.submit_decrypt(req);
    }
    d.drain(500);
    d.load_key(1, eve_key, eve);
    let mut trace = Vec::new();
    let mut sent = Vec::new();
    let start = d.cycle();
    let (responded, rejected) = (d.responses[0].len(), d.rejections[0].len());
    while d.cycle() - start < 140 {
        let t = d.cycle() - start;
        d.set_receiver_ready(!(20..60).contains(&t));
        let (user, key_slot) = if (24..=48).contains(&t) && t.is_multiple_of(4) {
            (eve, 1)
        } else {
            (alice, 0)
        };
        let req = Request {
            block: [t as u8; 16],
            key_slot,
            user,
        };
        let submitted = d.cycle();
        let refused = t < 90 && !d.try_submit(&req);
        if t < 90 && !refused {
            sent.push((submitted, req));
        }
        if t >= 90 {
            d.idle_cycle();
        }
        trace.push([
            u16::from(refused),
            d.buffer_occupancy(),
            d.drop_count(),
            d.nm_reject_count(),
        ]);
    }
    d.set_receiver_ready(true);
    d.drain(500);
    let drops = usize::from(d.drop_count());

    let cipher = |user: Label| Aes::new_128(if user == eve { eve_key } else { alice_key });
    let responses = &d.responses[0][responded..];
    for r in responses {
        let (_, req) = sent
            .iter()
            .find(|(submitted, _)| *submitted == r.submitted)
            .expect("a response to an accepted request");
        assert_eq!(r.user, req.user, "submitted at {}", r.submitted);
        assert_eq!(
            r.block,
            cipher(req.user).encrypt_block(req.block),
            "submitted at {}",
            r.submitted
        );
    }
    assert_eq!(d.rejections[0].len(), rejected, "no release refusals");
    assert_eq!(d.dropped[0].len(), drops, "one drop per drop_count step");
    let unanswered: Vec<Label> = sent
        .iter()
        .filter(|(submitted, _)| responses.iter().all(|r| r.submitted != *submitted))
        .map(|(_, req)| req.user)
        .collect();
    let dropped: Vec<Label> = d.dropped[0].iter().map(|x| x.user).collect();
    assert_eq!(unanswered, dropped, "every unanswered request was dropped");
    trace
}

#[test]
fn accelerator_transactions_agree_across_backends() {
    let net = protected().lower().expect("accelerator lowers");
    let alice = user_label(1);
    for (i, mode) in MODES.into_iter().enumerate() {
        let (key, reqs) = schedule(0xD1FF + i as u64);

        let mut a = AccelDriver::from_netlist(net.clone(), mode);
        a.load_key(0, key, alice);
        for req in &reqs {
            a.submit(req);
        }
        a.drain(500);

        let mut b = BatchedDriver::from_netlist(net.clone(), mode, 1);
        b.load_keys(0, &[key], &[alice]);
        let mut accepted = [false];
        for &req in &reqs {
            let submit = [LaneAction::Submit {
                req,
                decrypt: false,
            }];
            for _ in 0..10_000 {
                b.step(&submit, &mut accepted);
                if accepted[0] {
                    break;
                }
            }
            assert!(accepted[0], "pipeline refused input for 10000 cycles");
        }
        b.drain(500);

        // Configuration writes by a user and by the supervisor, then a
        // supervisor debug read: the register and the debug tap (its
        // selector stays driven) must agree after every cycle.
        let sup = supervisor_label();
        let actions = [
            LaneAction::WriteCfg {
                value: 0x5a,
                writer: alice,
            },
            LaneAction::WriteCfg {
                value: 0xa5,
                writer: sup,
            },
            LaneAction::ReadDebug { sel: 5 },
        ];
        for action in actions {
            match action {
                LaneAction::WriteCfg { value, writer } => a.write_cfg(value, writer),
                LaneAction::ReadDebug { sel } => {
                    assert!(a.read_debug(sel, sup).is_some(), "supervisor is cleared");
                }
                _ => unreachable!(),
            }
            b.step(&[action], &mut accepted);
            for port in ["cfg_out", "dbg_out"] {
                let (oracle, tape) = (a.sim_mut(), b.sim_mut());
                assert_eq!(oracle.peek(port), tape.peek(0, port), "{port} {mode:?}");
                assert_eq!(
                    oracle.peek_label(port),
                    tape.peek_label(0, port),
                    "{port} label {mode:?}"
                );
            }
        }
        assert!(!debug_port_admits(b.sim().netlist(), alice));

        let eve_key = [0xE5; 16];
        let trace = decrypt_and_backpressure(&mut a, key, eve_key);
        assert_eq!(
            trace,
            decrypt_and_backpressure(&mut b, key, eve_key),
            "{mode:?}"
        );
        // The outage must actually stall the pipeline, fill the holding
        // buffer and overflow it.
        assert!(trace.iter().any(|c| c[0] == 1), "expected refused submits");
        assert!(trace.iter().any(|c| c[1] == 16), "expected a full buffer");
        assert!(trace.last().is_some_and(|c| c[2] > 0), "expected drops");

        assert_eq!(a.responses[0], b.responses[0], "{mode:?}");
        assert_eq!(a.rejections[0], b.rejections[0], "{mode:?}");
        assert_eq!(a.dropped[0], b.dropped[0], "{mode:?}");
        assert_eq!(a.violations(0), b.violations(0), "{mode:?}");
        assert_eq!(a.cycle(), b.cycle(), "{mode:?}");
        // The schedule includes master-key misuse, so in tracking modes
        // the release check must actually have fired — this test isn't
        // comparing two empty streams.
        if mode != TrackMode::Off {
            assert!(!a.rejections[0].is_empty(), "expected refused requests");
        }
    }
}
