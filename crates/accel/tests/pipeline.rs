//! End-to-end correctness of the accelerator pipeline against the AES
//! reference, and the headline static-verification results.

use accel::driver::{AccelDriver, Request};
use accel::{baseline, baseline_annotated, protected, user_label, Protection, PIPELINE_DEPTH};
use aes_core::Aes;

fn fresh(protection: Protection) -> AccelDriver {
    AccelDriver::new(protection)
}

#[test]
fn baseline_encrypts_one_block_correctly() {
    let mut drv = fresh(Protection::Off);
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    let alice = user_label(1);
    drv.load_key(0, key, alice);
    let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    drv.drain(2 * PIPELINE_DEPTH as u64 + 10);
    assert_eq!(drv.responses[0].len(), 1);
    assert_eq!(
        drv.responses[0][0].block,
        Aes::new_128(key).encrypt_block(pt)
    );
}

#[test]
fn protected_encrypts_one_block_correctly() {
    let mut drv = fresh(Protection::Full);
    let key = [7u8; 16];
    let alice = user_label(1);
    drv.load_key(0, key, alice);
    let pt = [0x42u8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    drv.drain(2 * PIPELINE_DEPTH as u64 + 10);
    assert_eq!(drv.responses[0].len(), 1);
    assert_eq!(
        drv.responses[0][0].block,
        Aes::new_128(key).encrypt_block(pt)
    );
    assert!(drv.violations(0).is_empty(), "{:?}", drv.violations(0));
}

#[test]
fn pipeline_latency_is_thirty_cycles() {
    let mut drv = fresh(Protection::Full);
    let alice = user_label(1);
    drv.load_key(0, [1u8; 16], alice);
    drv.submit(&Request {
        block: [2u8; 16],
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let r = drv.responses[0][0];
    assert_eq!(
        r.completed - r.submitted,
        PIPELINE_DEPTH as u64,
        "one block completes in exactly {PIPELINE_DEPTH} cycles"
    );
}

#[test]
fn pipeline_sustains_one_block_per_cycle() {
    let mut drv = fresh(Protection::Full);
    let alice = user_label(1);
    drv.load_key(0, [1u8; 16], alice);
    let n = 64u64;
    for i in 0..n {
        let mut block = [0u8; 16];
        block[0] = i as u8;
        assert!(drv.try_submit(&Request {
            block,
            key_slot: 0,
            user: alice,
        }));
    }
    drv.drain(200);
    assert_eq!(drv.responses[0].len(), n as usize);
    // Back-to-back completions: one per cycle.
    for pair in drv.responses[0].windows(2) {
        assert_eq!(pair[1].completed - pair[0].completed, 1);
    }
}

#[test]
fn multi_user_interleaving_gives_correct_results() {
    // Fine-grained sharing: blocks from two users interleave cycle by
    // cycle inside the pipeline and all come out correct (Fig. 7).
    let mut drv = fresh(Protection::Full);
    let alice = user_label(1);
    let eve = user_label(0);
    let key_a = [0xaau8; 16];
    let key_e = [0xeeu8; 16];
    drv.load_key(0, key_a, alice);
    drv.load_key(1, key_e, eve);

    let aes_a = Aes::new_128(key_a);
    let aes_e = Aes::new_128(key_e);
    let mut expected = Vec::new();
    for i in 0..32u8 {
        let block = [i; 16];
        if i % 2 == 0 {
            drv.submit(&Request {
                block,
                key_slot: 0,
                user: alice,
            });
            expected.push(aes_a.encrypt_block(block));
        } else {
            drv.submit(&Request {
                block,
                key_slot: 1,
                user: eve,
            });
            expected.push(aes_e.encrypt_block(block));
        }
    }
    drv.drain(200);
    let got: Vec<[u8; 16]> = drv.responses[0].iter().map(|r| r.block).collect();
    assert_eq!(got, expected);
    assert!(drv.violations(0).is_empty(), "{:?}", drv.violations(0));
}

#[test]
fn protected_design_passes_static_verification() {
    let report = ifc_check::check(&protected());
    assert!(
        report.is_secure(),
        "protected accelerator must verify:\n{report}"
    );
    assert!(
        !report.runtime_checked_downgrades.is_empty(),
        "the output release is a runtime-checked downgrade"
    );
}

#[test]
fn annotated_baseline_is_flagged_by_static_verification() {
    let report = ifc_check::check(&baseline_annotated());
    assert!(
        !report.is_secure(),
        "the unprotected structure must be flagged"
    );
    // The key/plaintext disclosure at out_block, the debug port leak, and
    // the config integrity hole are all distinct findings.
    assert!(
        report.violations.len() >= 3,
        "expected at least 3 violations, got:\n{report}"
    );
}

#[test]
fn baseline_and_protected_agree_on_ciphertexts() {
    let key = [0x10u8; 16];
    let alice = user_label(2);
    let pt = [0x5au8; 16];
    let mut outs = Vec::new();
    for p in [Protection::Off, Protection::Full] {
        let mut drv = fresh(p);
        drv.load_key(0, key, alice);
        drv.submit(&Request {
            block: pt,
            key_slot: 0,
            user: alice,
        });
        drv.drain(100);
        outs.push(drv.responses[0][0].block);
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[0], Aes::new_128(key).encrypt_block(pt));
}

#[test]
fn baseline_designs_lower_and_simulate() {
    for design in [baseline(), baseline_annotated(), protected()] {
        let net = design.lower().expect("lowers");
        assert!(net.topo.len() >= net.nodes.len() / 2);
    }
}
