//! Randomised end-to-end equivalence: the hardware pipeline agrees with
//! the software reference for random keys and plaintexts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_aes_ifc::accel::driver::{AccelDriver, Request};
use secure_aes_ifc::accel::{user_label, Protection};
use secure_aes_ifc::aes_core::Aes;

#[test]
fn random_streams_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xDAC_2019);
    for trial in 0..4 {
        let mut drv = AccelDriver::new(Protection::Full);
        let user = user_label(trial % 3);
        let key: [u8; 16] = rng.gen();
        drv.load_key(0, key, user);
        let aes = Aes::new_128(key);

        let blocks: Vec<[u8; 16]> = (0..12).map(|_| rng.gen()).collect();
        for &b in &blocks {
            drv.submit(&Request {
                block: b,
                key_slot: 0,
                user,
            });
        }
        drv.drain(200);
        let expected: Vec<[u8; 16]> = blocks.iter().map(|&b| aes.encrypt_block(b)).collect();
        let got: Vec<[u8; 16]> = drv.responses[0].iter().map(|r| r.block).collect();
        assert_eq!(got, expected, "trial {trial}");
        assert!(drv.violations(0).is_empty(), "{:?}", drv.violations(0));
    }
}

#[test]
fn random_interleavings_preserve_isolation() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut drv = AccelDriver::new(Protection::Full);
    let users = [user_label(0), user_label(1), user_label(2)];
    let keys: [[u8; 16]; 3] = [rng.gen(), rng.gen(), rng.gen()];
    for (slot, (&key, &user)) in keys.iter().zip(&users).enumerate() {
        drv.load_key(slot, key, user);
    }
    let ciphers: Vec<Aes> = keys.iter().map(|&k| Aes::new_128(k)).collect();

    let mut expected = Vec::new();
    for _ in 0..48 {
        let who = rng.gen_range(0..3);
        let block: [u8; 16] = rng.gen();
        drv.submit(&Request {
            block,
            key_slot: who,
            user: users[who],
        });
        expected.push((users[who], ciphers[who].encrypt_block(block)));
    }
    drv.drain(300);
    assert_eq!(drv.responses[0].len(), expected.len());
    for (resp, (user, ct)) in drv.responses[0].iter().zip(&expected) {
        assert_eq!(resp.user, *user);
        assert_eq!(resp.block, *ct);
    }
}
