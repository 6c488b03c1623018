//! The pipelined E/D datapath: decryption through the same 30-stage
//! pipeline, with on-the-fly inverse key expansion fed by the decrypt-key
//! preparation unit.

use accel::driver::{AccelDriver, Request};
use accel::{master_key_encrypt, supervisor_label, user_label, Protection, PIPELINE_DEPTH};
use aes_core::Aes;

#[test]
fn protected_decrypts_one_block_correctly() {
    let mut drv = AccelDriver::new(Protection::Full);
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    let alice = user_label(1);
    drv.load_key(0, key, alice);
    let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
    let ct = Aes::new_128(key).encrypt_block(pt);
    drv.submit_decrypt(&Request {
        block: ct,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    assert_eq!(drv.responses[0].len(), 1);
    assert_eq!(drv.responses[0][0].block, pt);
    assert!(drv.violations(0).is_empty(), "{:?}", drv.violations(0));
}

#[test]
fn baseline_decrypts_too() {
    let mut drv = AccelDriver::new(Protection::Off);
    let key = [0x42u8; 16];
    let alice = user_label(2);
    drv.load_key(1, key, alice);
    let pt = [0x99u8; 16];
    let ct = Aes::new_128(key).encrypt_block(pt);
    drv.submit_decrypt(&Request {
        block: ct,
        key_slot: 1,
        user: alice,
    });
    drv.drain(100);
    assert_eq!(drv.responses[0][0].block, pt);
}

#[test]
fn decrypt_latency_matches_encrypt() {
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    drv.load_key(0, [7u8; 16], alice);
    drv.submit_decrypt(&Request {
        block: [1u8; 16],
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let r = drv.responses[0][0];
    assert_eq!(r.completed - r.submitted, PIPELINE_DEPTH as u64);
}

#[test]
fn interleaved_enc_dec_streams_are_correct() {
    // Encryptions and decryptions from two users share the pipeline in
    // adjacent slots — the full E/D fine-grained sharing picture.
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    let eve = user_label(0);
    let key_a = [0xaau8; 16];
    let key_e = [0xeeu8; 16];
    drv.load_key(0, key_a, alice);
    drv.load_key(1, key_e, eve);
    let aes_a = Aes::new_128(key_a);
    let aes_e = Aes::new_128(key_e);

    let mut expected = Vec::new();
    for i in 0..24u8 {
        let block = [i; 16];
        match i % 4 {
            0 => {
                drv.submit(&Request {
                    block,
                    key_slot: 0,
                    user: alice,
                });
                expected.push(aes_a.encrypt_block(block));
            }
            1 => {
                let ct = aes_e.encrypt_block(block);
                drv.submit_decrypt(&Request {
                    block: ct,
                    key_slot: 1,
                    user: eve,
                });
                expected.push(block);
            }
            2 => {
                let ct = aes_a.encrypt_block(block);
                drv.submit_decrypt(&Request {
                    block: ct,
                    key_slot: 0,
                    user: alice,
                });
                expected.push(block);
            }
            _ => {
                drv.submit(&Request {
                    block,
                    key_slot: 1,
                    user: eve,
                });
                expected.push(aes_e.encrypt_block(block));
            }
        }
    }
    drv.drain(200);
    let got: Vec<[u8; 16]> = drv.responses[0].iter().map(|r| r.block).collect();
    assert_eq!(got, expected);
    assert!(drv.violations(0).is_empty(), "{:?}", drv.violations(0));
}

#[test]
fn hardware_round_trip_without_software_reference() {
    // Encrypt then decrypt entirely in hardware.
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    drv.load_key(0, [0x31u8; 16], alice);
    let pt = [0x5cu8; 16];
    drv.submit(&Request {
        block: pt,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let ct = drv.responses[0][0].block;
    drv.submit_decrypt(&Request {
        block: ct,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    assert_eq!(drv.responses[0][1].block, pt);
}

#[test]
fn master_key_decrypt_follows_the_same_nm_rule() {
    // The supervisor can unseal master-key ciphertexts; Eve cannot.
    let sealed = master_key_encrypt([0x77u8; 16]);

    let mut drv = AccelDriver::new(Protection::Full);
    drv.submit_decrypt(&Request {
        block: sealed,
        key_slot: accel::MASTER_KEY_SLOT,
        user: supervisor_label(),
    });
    drv.drain(100);
    assert_eq!(drv.responses[0][0].block, [0x77u8; 16]);

    let mut drv = AccelDriver::new(Protection::Full);
    drv.submit_decrypt(&Request {
        block: sealed,
        key_slot: accel::MASTER_KEY_SLOT,
        user: user_label(0),
    });
    drv.drain(100);
    assert!(drv.responses[0].is_empty(), "Eve must not unseal");
    assert_eq!(drv.rejections[0].len(), 1);
}

#[test]
fn rekeying_refreshes_the_decrypt_key() {
    // Loading a new key into a slot re-runs the preparation unit; decrypts
    // immediately afterwards use the fresh RK10.
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    drv.load_key(0, [0x01u8; 16], alice);
    drv.load_key(0, [0x02u8; 16], alice);
    let pt = [0xabu8; 16];
    let ct = Aes::new_128([0x02u8; 16]).encrypt_block(pt);
    drv.submit_decrypt(&Request {
        block: ct,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    assert_eq!(drv.responses[0][0].block, pt);
}
