//! A fixed, seedless hasher for tables keyed on small internal integers.
//!
//! The prover's structural-hashing and memo tables and the tape
//! optimizer's value-numbering table are keyed on node, slot and literal
//! indices the program itself allocates, never on outside input, and none
//! of them is ever iterated. They need speed, not SipHash's flooding
//! resistance, and their contents cannot depend on the hash function.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word hasher (the Fx scheme): rotate, xor, multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best mixed; rotate them down to
    /// where the table picks its bucket.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over [`FixedHasher`].
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;
