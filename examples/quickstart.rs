//! Quickstart: build a small security-typed circuit, verify it statically,
//! simulate it with runtime tag tracking, and encrypt a block on the
//! protected AES accelerator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use secure_aes_ifc::accel::driver::{AccelDriver, Request};
use secure_aes_ifc::accel::{protected, user_label, Protection};
use secure_aes_ifc::aes_core::Aes;
use secure_aes_ifc::hdl::ModuleBuilder;
use secure_aes_ifc::ifc_check;
use secure_aes_ifc::ifc_lattice::Label;
use secure_aes_ifc::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A tiny security-typed design -----------------------------------
    // A register that must stay public... driven by a secret input.
    let mut m = ModuleBuilder::new("leaky_latch");
    let secret = m.input("secret", 8);
    m.set_label(secret, Label::SECRET_TRUSTED);
    let latch = m.reg("latch", 8, 0);
    m.set_label(latch, Label::PUBLIC_TRUSTED);
    m.connect(latch, secret);
    m.output("latch", latch);
    let design = m.finish();

    let report = ifc_check::check(&design);
    println!("== static verification of `leaky_latch` ==");
    print!("{report}");
    assert!(!report.is_secure(), "the leak must be caught");

    // --- 2. Cycle-accurate simulation with label tracking -------------------
    let mut m = ModuleBuilder::new("counter");
    let en = m.input("en", 1);
    let count = m.reg("count", 8, 0);
    let one = m.lit(1, 8);
    let next = m.add(count, one);
    m.when(en, |m| m.connect(count, next));
    m.output("count", count);
    let mut sim = Simulator::new(m.finish().lower()?);
    sim.set("en", 1);
    for _ in 0..5 {
        sim.tick();
    }
    println!(
        "\n== simulation == counter after 5 cycles: {}",
        sim.peek("count")
    );

    // --- 3. The protected AES accelerator -----------------------------------
    let accel_design = protected();
    let report = ifc_check::check(&accel_design);
    println!("\n== protected accelerator ==");
    print!("{report}");
    assert!(report.is_secure());

    let mut drv = AccelDriver::new(Protection::Full);
    let alice = user_label(1);
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    drv.load_key(0, key, alice);
    let plaintext = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
    drv.submit(&Request {
        block: plaintext,
        key_slot: 0,
        user: alice,
    });
    drv.drain(100);
    let response = drv.responses[0][0];
    println!(
        "encrypted one block in {} cycles: {:02x?}",
        response.completed - response.submitted,
        response.block
    );
    assert_eq!(response.block, Aes::new_128(key).encrypt_block(plaintext));
    println!("matches the FIPS-197 reference ciphertext ✓");
    Ok(())
}
