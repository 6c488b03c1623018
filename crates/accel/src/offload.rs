//! Host-level message encryption offloaded to the accelerator.
//!
//! The paper's motivating workload is SSL-style record encryption in the
//! cloud: the host splits a message into CTR counter blocks, streams them
//! through the shared pipeline at one block per cycle, and XORs the
//! returned keystream into the payload. This module implements that host
//! side over [`AccelDriver`], giving the library a realistic end-to-end
//! entry point (and exercising deep pipelining on real message sizes).

use ifc_lattice::Label;

use crate::driver::{AccelDriver, Request};

/// One tenant's CBC stream: its `(key slot, user, IV)` header and the
/// plaintext blocks of the chain.
pub type CbcStream = ((usize, Label, [u8; 16]), Vec<[u8; 16]>);

/// Encrypts (or decrypts — CTR is symmetric) `message` under the key in
/// `slot` on behalf of `user`, with the 128-bit initial counter `iv`.
///
/// Counter blocks are pipelined back-to-back, so an `n`-block message
/// costs roughly `n + 30` accelerator cycles.
///
/// # Panics
///
/// Panics if the hardware refuses the request stream (e.g. a master-key
/// slot used by a non-supervisor — use [`AccelDriver::submit`] directly to
/// observe rejections).
#[must_use]
pub fn ctr_apply(
    drv: &mut AccelDriver,
    slot: usize,
    user: Label,
    iv: [u8; 16],
    message: &[u8],
) -> Vec<u8> {
    let blocks = message.len().div_ceil(16);
    let first = drv.responses[0].len();
    let mut counter = u128::from_be_bytes(iv);
    for _ in 0..blocks {
        drv.submit(&Request {
            block: counter.to_be_bytes(),
            key_slot: slot,
            user,
        });
        counter = counter.wrapping_add(1);
    }
    drv.drain(blocks as u64 + 200);
    let keystream = &drv.responses[0][first..];
    assert_eq!(
        keystream.len(),
        blocks,
        "the accelerator refused part of the stream"
    );
    message
        .iter()
        .enumerate()
        .map(|(i, &b)| b ^ keystream[i / 16].block[i % 16])
        .collect()
}

/// Encrypts whole blocks in CBC mode through the accelerator.
///
/// CBC chains each block on the previous ciphertext, so a single stream
/// is *latency-bound*: one block per 30-cycle pipeline pass. This is the
/// workload that motivates fine-grained sharing — see
/// [`cbc_encrypt_interleaved`] and the `sharing_granularity` experiment.
///
/// # Panics
///
/// Panics if the hardware refuses part of the stream.
#[must_use]
pub fn cbc_encrypt(
    drv: &mut AccelDriver,
    slot: usize,
    user: Label,
    iv: [u8; 16],
    blocks: &[[u8; 16]],
) -> Vec<[u8; 16]> {
    let mut prev = iv;
    let mut out = Vec::with_capacity(blocks.len());
    for &b in blocks {
        let mut x = [0u8; 16];
        for i in 0..16 {
            x[i] = b[i] ^ prev[i];
        }
        let first = drv.responses[0].len();
        drv.submit(&Request {
            block: x,
            key_slot: slot,
            user,
        });
        drv.drain(200);
        let ct = drv.responses[0][first].block;
        out.push(ct);
        prev = ct;
    }
    out
}

/// Encrypts several tenants' CBC streams concurrently: the chains are
/// independent, so their blocks interleave in the pipeline and the
/// aggregate throughput approaches one block per cycle even though each
/// individual stream is latency-bound.
///
/// `streams` pairs each tenant's `(slot, user, iv)` with its plaintext
/// blocks; returns each tenant's ciphertext stream in the same order.
///
/// # Panics
///
/// Panics if the hardware refuses part of any stream.
#[must_use]
pub fn cbc_encrypt_interleaved(drv: &mut AccelDriver, streams: &[CbcStream]) -> Vec<Vec<[u8; 16]>> {
    let n = streams.len();
    let mut prev: Vec<[u8; 16]> = streams.iter().map(|((_, _, iv), _)| *iv).collect();
    let mut next_block: Vec<usize> = vec![0; n];
    let mut out: Vec<Vec<[u8; 16]>> = vec![Vec::new(); n];
    // (stream index) of each in-flight request, in submission order.
    let mut in_flight: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let total: usize = streams.iter().map(|(_, blocks)| blocks.len()).sum();
    let mut completed = 0usize;
    let mut guard = 0u32;
    while completed < total {
        guard += 1;
        assert!(guard < 1_000_000, "interleaved CBC did not converge");
        // Submit the next block of every stream whose chain value is
        // available (round-robin over tenants).
        let mut submitted_any = false;
        for (s, ((slot, user, _), blocks)) in streams.iter().enumerate() {
            // Only one outstanding block per chain.
            if next_block[s] < blocks.len() && !in_flight.contains(&s) {
                let b = blocks[next_block[s]];
                let mut x = [0u8; 16];
                for i in 0..16 {
                    x[i] = b[i] ^ prev[s][i];
                }
                if drv.try_submit(&Request {
                    block: x,
                    key_slot: *slot,
                    user: *user,
                }) {
                    in_flight.push_back(s);
                    submitted_any = true;
                }
            }
        }
        if !submitted_any {
            drv.idle_cycle();
        }
        // Collect completions — responses arrive in submission order.
        while completed < drv.responses[0].len() {
            let s = in_flight
                .pop_front()
                .expect("completion without submission");
            let resp = drv.responses[0][completed].block;
            prev[s] = resp;
            out[s].push(resp);
            next_block[s] += 1;
            completed += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Protection;
    use crate::params::user_label;
    use aes_core::{Aes, CtrStream};

    /// Software CBC reference.
    fn cbc_reference(key: [u8; 16], iv: [u8; 16], blocks: &[[u8; 16]]) -> Vec<[u8; 16]> {
        let aes = Aes::new_128(key);
        let mut prev = iv;
        blocks
            .iter()
            .map(|&b| {
                let mut x = [0u8; 16];
                for i in 0..16 {
                    x[i] = b[i] ^ prev[i];
                }
                prev = aes.encrypt_block(x);
                prev
            })
            .collect()
    }

    #[test]
    fn offloaded_cbc_matches_software() {
        let mut drv = AccelDriver::new(Protection::Full);
        let alice = user_label(1);
        let key = [0x44u8; 16];
        drv.load_key(0, key, alice);
        let iv = [0x0fu8; 16];
        let blocks: Vec<[u8; 16]> = (0..5u8).map(|i| [i; 16]).collect();
        let hw = cbc_encrypt(&mut drv, 0, alice, iv, &blocks);
        assert_eq!(hw, cbc_reference(key, iv, &blocks));
    }

    #[test]
    fn interleaved_cbc_matches_per_stream_references() {
        let mut drv = AccelDriver::new(Protection::Full);
        let users = [user_label(0), user_label(1), user_label(2)];
        let keys = [[0x10u8; 16], [0x20u8; 16], [0x30u8; 16]];
        for (slot, (&key, &user)) in keys.iter().zip(&users).enumerate() {
            drv.load_key(slot, key, user);
        }
        let streams: Vec<CbcStream> = (0..3)
            .map(|s| {
                let iv = [s as u8; 16];
                let blocks: Vec<[u8; 16]> = (0..6u8)
                    .map(|i| [i.wrapping_mul(7) ^ s as u8; 16])
                    .collect();
                ((s, users[s], iv), blocks)
            })
            .collect();
        let out = cbc_encrypt_interleaved(&mut drv, &streams);
        for (s, ((_, _, iv), blocks)) in streams.iter().enumerate() {
            assert_eq!(out[s], cbc_reference(keys[s], *iv, blocks), "stream {s}");
        }
        assert!(drv.violations(0).is_empty(), "{:?}", drv.violations(0));
    }

    #[test]
    fn interleaving_recovers_cbc_throughput() {
        // One CBC chain is latency-bound at ~30 cycles/block; eight
        // independent tenant chains interleave in the pipeline and push
        // aggregate throughput far above a single chain's.
        let blocks_per_stream = 6u64;

        let single_cycles = {
            let mut drv = AccelDriver::new(Protection::Full);
            let alice = user_label(1);
            drv.load_key(0, [1u8; 16], alice);
            let start = drv.cycle();
            let blocks: Vec<[u8; 16]> = (0..blocks_per_stream as u8).map(|i| [i; 16]).collect();
            let _ = cbc_encrypt(&mut drv, 0, alice, [0; 16], &blocks);
            drv.cycle() - start
        };

        let (multi_cycles, streams_n) = {
            let mut drv = AccelDriver::new(Protection::Full);
            let users = [user_label(0), user_label(1), user_label(2)];
            for (slot, &user) in users.iter().enumerate() {
                drv.load_key(slot, [slot as u8 + 1; 16], user);
            }
            let streams: Vec<CbcStream> = (0..3)
                .map(|s| {
                    let blocks: Vec<[u8; 16]> = (0..blocks_per_stream as u8)
                        .map(|i| [i ^ s as u8; 16])
                        .collect();
                    ((s, users[s], [s as u8; 16]), blocks)
                })
                .collect();
            let start = drv.cycle();
            let _ = cbc_encrypt_interleaved(&mut drv, &streams);
            (drv.cycle() - start, 3u64)
        };

        let single_bpc = blocks_per_stream as f64 / single_cycles as f64;
        let multi_bpc = (blocks_per_stream * streams_n) as f64 / multi_cycles as f64;
        assert!(
            multi_bpc > 2.0 * single_bpc,
            "interleaving should recover throughput: single {single_bpc:.4} vs multi {multi_bpc:.4} blk/cyc"
        );
    }

    #[test]
    fn offloaded_ctr_matches_software() {
        let mut drv = AccelDriver::new(Protection::Full);
        let alice = user_label(1);
        let key = [0x3cu8; 16];
        drv.load_key(0, key, alice);
        let iv = [0x01u8; 16];
        let message: Vec<u8> = (0..100u8).collect();

        let hw = ctr_apply(&mut drv, 0, alice, iv, &message);
        let sw = CtrStream::new(Aes::new_128(key), iv).apply(&message);
        assert_eq!(hw, sw);
    }

    #[test]
    fn offloaded_ctr_round_trips() {
        let mut drv = AccelDriver::new(Protection::Full);
        let alice = user_label(2);
        drv.load_key(1, [9u8; 16], alice);
        let iv = [0xabu8; 16];
        let message = b"the paper's motivating SSL record workload".to_vec();
        let ct = ctr_apply(&mut drv, 1, alice, iv, &message);
        assert_ne!(ct, message);
        let pt = ctr_apply(&mut drv, 1, alice, iv, &ct);
        assert_eq!(pt, message);
    }

    #[test]
    fn empty_message_is_a_noop() {
        let mut drv = AccelDriver::new(Protection::Full);
        let alice = user_label(0);
        drv.load_key(0, [1u8; 16], alice);
        assert!(ctr_apply(&mut drv, 0, alice, [0; 16], &[]).is_empty());
    }

    #[test]
    fn two_tenants_interleave_messages_correctly() {
        // Both tenants' CTR streams pipeline through the same hardware
        // (sequentially here; the interleaved case is covered by the
        // multi_user_soc example) and each matches its own software
        // stream.
        let mut drv = AccelDriver::new(Protection::Full);
        let users = [user_label(0), user_label(1)];
        let keys = [[0x11u8; 16], [0x22u8; 16]];
        drv.load_key(0, keys[0], users[0]);
        drv.load_key(1, keys[1], users[1]);
        for i in 0..2 {
            let msg: Vec<u8> = (0..64).map(|b| (b as u8).wrapping_mul(3)).collect();
            let hw = ctr_apply(&mut drv, i, users[i], [i as u8; 16], &msg);
            let sw = CtrStream::new(Aes::new_128(keys[i]), [i as u8; 16]).apply(&msg);
            assert_eq!(hw, sw, "tenant {i}");
        }
    }
}
