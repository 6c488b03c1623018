//! Fig. 7 integration test: per-stage tag registers travel with the data,
//! and only the final (declassified) result ever reaches a public sink.

use secure_aes_ifc::accel::driver::{AccelDriver, Request};
use secure_aes_ifc::accel::{user_label, Protection, PIPELINE_DEPTH};
use secure_aes_ifc::ifc_lattice::SecurityTag;

#[test]
fn tags_travel_with_their_blocks() {
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    let eve = user_label(0);
    drv.load_key(0, [1u8; 16], alice);
    drv.load_key(1, [2u8; 16], eve);

    // Two adjacent blocks from different users.
    drv.submit(&Request {
        block: [0xA; 16],
        key_slot: 0,
        user: alice,
    });
    drv.submit(&Request {
        block: [0xE; 16],
        key_slot: 1,
        user: eve,
    });

    // After two more idle cycles, Alice's block sits at stage 3 and Eve's
    // at stage 2; their dedicated tag registers carry the owners' labels.
    drv.idle(2);
    let alice_tag = drv.sim_mut().peek("pipe.tag3") as u8;
    let eve_tag = drv.sim_mut().peek("pipe.tag2") as u8;
    assert_eq!(SecurityTag::from_bits(alice_tag), SecurityTag::from(alice));
    assert_eq!(SecurityTag::from_bits(eve_tag), SecurityTag::from(eve));
}

#[test]
fn output_tags_identify_the_owner() {
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(2);
    drv.load_key(0, [1u8; 16], alice);
    drv.submit(&Request {
        block: [3u8; 16],
        key_slot: 0,
        user: alice,
    });
    drv.drain(2 * PIPELINE_DEPTH as u64);
    assert_eq!(drv.responses[0][0].tag, SecurityTag::from(alice));
}

#[test]
fn intermediate_results_stay_unreleased() {
    // While a block is mid-pipeline, the public output carries zeroes and
    // the runtime labels of the stage registers stay at the owner's level.
    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    drv.load_key(0, [1u8; 16], alice);
    drv.submit(&Request {
        block: [3u8; 16],
        key_slot: 0,
        user: alice,
    });
    drv.idle(10);
    assert_eq!(drv.sim_mut().peek("out_valid"), 0);
    assert_eq!(drv.sim_mut().peek("out_block"), 0);
    let label = drv.sim_mut().peek_label("pipe.data11");
    assert_eq!(label, alice, "mid-pipeline data carries Alice's label");
    assert!(drv.violations(0).is_empty());
}

#[test]
fn declassification_happens_only_after_the_last_round() {
    // The design has exactly one declassification point and it is the
    // output release (statically verified to be runtime-checked).
    let report = secure_aes_ifc::ifc_check::check(&secure_aes_ifc::accel::protected());
    assert!(report.is_secure());
    assert_eq!(report.runtime_checked_downgrades.len(), 1);
    assert!(report.static_downgrades.is_empty());
}
