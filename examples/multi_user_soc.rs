//! A realistic SoC scenario (the paper's Fig. 2): four cloud tenants plus
//! a supervisor share one protected AES accelerator at fine granularity.
//! Each tenant provisions its own key, streams SSL-style record blocks
//! through the shared pipeline in CTR mode, and the hardware keeps the
//! tenants isolated while sustaining one block per cycle.
//!
//! ```text
//! cargo run --example multi_user_soc
//! ```

use secure_aes_ifc::accel::driver::{AccelDriver, Request};
use secure_aes_ifc::accel::{supervisor_label, user_label, Protection, MASTER_KEY_SLOT};
use secure_aes_ifc::aes_core::Aes;

fn main() {
    let mut drv = AccelDriver::new(Protection::Full);

    // --- key provisioning ----------------------------------------------------
    // Three tenants (slot 3 is the factory-provisioned master key).
    let tenants = [
        ("web-frontend", user_label(0), [0x11u8; 16]),
        ("database", user_label(1), [0x22u8; 16]),
        ("ml-service", user_label(2), [0x33u8; 16]),
    ];
    for (slot, (name, label, key)) in tenants.iter().enumerate() {
        drv.load_key(slot, *key, *label);
        println!("provisioned {name} key in slot {slot} at label {label}");
    }

    // --- interleaved traffic ---------------------------------------------------
    // Each tenant encrypts CTR keystream blocks; requests interleave
    // cycle by cycle in the shared pipeline.
    let blocks_per_tenant = 16u64;
    let mut expected = Vec::new();
    for i in 0..blocks_per_tenant {
        for (slot, (_, label, key)) in tenants.iter().enumerate() {
            let mut ctr = [0u8; 16];
            ctr[..8].copy_from_slice(&i.to_be_bytes());
            ctr[8] = slot as u8;
            drv.submit(&Request {
                block: ctr,
                key_slot: slot,
                user: *label,
            });
            expected.push(Aes::new_128(*key).encrypt_block(ctr));
        }
    }
    drv.drain(400);

    let got: Vec<[u8; 16]> = drv.responses[0].iter().map(|r| r.block).collect();
    assert_eq!(got, expected, "every tenant got exactly its own keystream");
    let first = drv.responses[0].first().expect("responses");
    let last = drv.responses[0].last().expect("responses");
    let total = 3 * blocks_per_tenant;
    let span = last.completed - first.submitted;
    println!(
        "\nencrypted {total} interleaved blocks from 3 tenants in {span} cycles \
         ({:.2} blocks/cycle sustained)",
        total as f64 / span as f64
    );

    // --- the supervisor's master-key operation --------------------------------
    let sealed = [0x77u8; 16];
    drv.submit(&Request {
        block: sealed,
        key_slot: MASTER_KEY_SLOT,
        user: supervisor_label(),
    });
    drv.drain(100);
    println!(
        "supervisor sealed a blob under the master key: {:02x?}",
        drv.responses[0].last().expect("sealed").block
    );

    // --- a tenant trying the same thing ----------------------------------------
    let before = drv.rejections[0].len();
    drv.submit(&Request {
        block: sealed,
        key_slot: MASTER_KEY_SLOT,
        user: user_label(0),
    });
    drv.drain(100);
    assert_eq!(drv.rejections[0].len(), before + 1);
    println!(
        "tenant web-frontend tried the master key: release refused by the \
         nonmalleable declassification check ✓"
    );
    assert!(
        drv.violations(0).iter().any(|v| matches!(
            v,
            secure_aes_ifc::sim::RuntimeViolation::DowngradeRejected { .. }
        )),
        "the tracking logic recorded the rejection"
    );
}
