//! The experiment implementations.

use accel::driver::{AccelDriver, Request};
use accel::engine::iterative_engine;
use accel::{
    baseline, baseline_annotated, effort, policies, protected, user_label, Protection,
    PIPELINE_DEPTH,
};
use fpga_model::{estimate, AreaReport, Calibration};
use ifc_check::{check, check_policies, PolicyOutcome};
use sim::TrackMode;

/// Paper-reported Table 2 numbers (Virtex-7, Vivado 2017.1).
#[derive(Debug, Clone, Copy)]
pub struct PaperTable2 {
    /// Baseline LUTs / FFs / BRAMs / MHz.
    pub baseline: (usize, usize, usize, f64),
    /// Protected LUTs / FFs / BRAMs / MHz.
    pub protected: (usize, usize, usize, f64),
}

/// The published Table 2.
pub const PAPER_TABLE2: PaperTable2 = PaperTable2 {
    baseline: (13_275, 14_645, 40, 400.0),
    protected: (14_021, 15_605, 44, 400.0),
};

/// The result of the Table 2 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Table2Result {
    /// Structural estimate for the baseline design.
    pub baseline: AreaReport,
    /// Structural estimate for the protected design.
    pub protected: AreaReport,
    /// Estimated Fmax (MHz) for baseline and protected, calibrated at the
    /// paper's 400 MHz operating point.
    pub fmax: (f64, f64),
}

/// Runs the Table 2 reproduction: area/timing model over both designs.
#[must_use]
pub fn table2() -> Table2Result {
    let base = estimate(&baseline().lower().expect("baseline lowers"));
    let prot = estimate(&protected().lower().expect("protected lowers"));
    let cal = Calibration {
        anchor_levels: base.logic_levels,
        anchor_mhz: 400.0,
    };
    Table2Result {
        baseline: base,
        protected: prot,
        fmax: (
            cal.fmax_mhz(base.logic_levels),
            cal.fmax_mhz(prot.logic_levels),
        ),
    }
}

/// Table 1 audit outcomes for one design.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Design name.
    pub design: &'static str,
    /// Row-by-row outcomes.
    pub outcomes: Vec<PolicyOutcome>,
    /// Static label errors (0 for the protected design).
    pub static_violations: usize,
}

/// Runs the Table 1 audit against the baseline and protected designs.
#[must_use]
pub fn table1() -> Vec<Table1Result> {
    let base = baseline();
    let prot = protected();
    vec![
        Table1Result {
            design: "baseline",
            outcomes: check_policies(&base, &policies::default_table1(&base)),
            static_violations: check(&baseline_annotated()).violations.len(),
        },
        Table1Result {
            design: "protected",
            outcomes: check_policies(&prot, &policies::default_table1(&prot)),
            static_violations: check(&prot).violations.len(),
        },
    ]
}

/// Cycle-accurate throughput and latency of one design.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Blocks encrypted.
    pub blocks: u64,
    /// Total cycles from first submission to last completion.
    pub cycles: u64,
    /// Single-block latency in cycles.
    pub latency: u64,
    /// Sustained blocks per cycle.
    pub blocks_per_cycle: f64,
    /// Throughput in Gbps at the paper's 400 MHz clock.
    pub gbps_at_400mhz: f64,
}

/// Measures sustained throughput over `blocks` back-to-back encryptions.
#[must_use]
pub fn throughput(protection: Protection, blocks: u64) -> ThroughputResult {
    throughput_op(protection, blocks, false)
}

/// Measures sustained *decryption* throughput (the E/D datapath's other
/// direction shares the same pipeline and rate).
#[must_use]
pub fn throughput_decrypt(protection: Protection, blocks: u64) -> ThroughputResult {
    throughput_op(protection, blocks, true)
}

fn throughput_op(protection: Protection, blocks: u64, decrypt: bool) -> ThroughputResult {
    let mut drv = AccelDriver::new(protection);
    let alice = user_label(1);
    drv.load_key(0, [9u8; 16], alice);
    let start = drv.cycle();
    for i in 0..blocks {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&i.to_be_bytes());
        let req = Request {
            block,
            key_slot: 0,
            user: alice,
        };
        if decrypt {
            drv.submit_decrypt(&req);
        } else {
            drv.submit(&req);
        }
    }
    drv.drain(blocks + 4 * PIPELINE_DEPTH as u64);
    let last = drv.responses[0].last().expect("stream completed").completed;
    let cycles = last - start;
    let latency = drv.responses[0][0].completed - drv.responses[0][0].submitted;
    let bpc = blocks as f64 / cycles as f64;
    ThroughputResult {
        blocks,
        cycles,
        latency,
        blocks_per_cycle: bpc,
        gbps_at_400mhz: bpc * 128.0 * 400.0e6 / 1.0e9,
    }
}

/// The design-effort measurement (the paper's ~70 changed lines).
#[must_use]
pub fn design_effort() -> effort::ProtectionDelta {
    effort::protection_delta(&baseline(), &protected())
}

/// Fig. 6 reproduction result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Violations the checker raises on the constant-time engine (must be
    /// zero).
    pub fixed_violations: Vec<String>,
    /// Violations the checker raises on the leaky engine (must name the
    /// public handshake signals).
    pub leaky_violations: Vec<String>,
    /// Measured latency (cycles) of the leaky engine for a weak key and a
    /// strong key — the timing channel the label error predicts.
    pub weak_key_latency: u32,
    /// Latency with the non-weak key.
    pub strong_key_latency: u32,
}

/// Runs the Fig. 6 experiment: static detection plus dynamic confirmation.
#[must_use]
pub fn fig6() -> Fig6Result {
    use aes_core::block_to_u128;
    use sim::Simulator;

    let fixed = check(&iterative_engine(false));
    let leaky = check(&iterative_engine(true));

    let latency = |key_low: u8| -> u32 {
        let mut sim = Simulator::new(iterative_engine(true).lower().expect("engine lowers"));
        let mut key = [3u8; 16];
        key[15] = key_low;
        sim.set("key", block_to_u128(key));
        sim.set("block", 0);
        sim.set("start", 1);
        sim.tick();
        sim.set("start", 0);
        let mut cycles = 1;
        while sim.peek("valid") == 0 {
            sim.tick();
            cycles += 1;
            assert!(cycles < 64, "engine hung");
        }
        cycles
    };

    Fig6Result {
        fixed_violations: fixed.violations.iter().map(ToString::to_string).collect(),
        leaky_violations: leaky.violations.iter().map(ToString::to_string).collect(),
        weak_key_latency: latency(0),
        strong_key_latency: latency(0x5a),
    }
}

/// One sample of the Fig. 8 stall experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Sample {
    /// Whether a lower-confidentiality user had data in flight when the
    /// high user's receiver blocked.
    pub mixed_pipeline: bool,
    /// Cycles the pipeline spent stalled (`in_ready` low) during the
    /// receiver-blocked window.
    pub stalled_cycles: u64,
    /// Peak occupancy of the output holding buffer.
    pub peak_buffer: u16,
    /// Blocks that ultimately completed.
    pub completed: usize,
}

/// Runs the Fig. 8 experiment on the protected design.
///
/// Timeline: Alice (high confidentiality) submits at t=2, due out at
/// t=32; the receiver is blocked over t ∈ \[30, 40\]. In the *uniform*
/// case the pipeline holds only Alice-level data, so her stall request is
/// permitted and `in_ready` drops. In the *mixed* case Eve (lower
/// confidentiality) has blocks in flight, the meet over stage labels
/// sinks below Alice's level, the stall is denied, and Alice's output is
/// diverted to the holding buffer — Eve never observes a stall.
#[must_use]
pub fn fig8() -> Vec<Fig8Sample> {
    let run = |mixed: bool| -> Fig8Sample {
        let mut drv = AccelDriver::new(Protection::Full);
        let alice = user_label(1);
        let eve = user_label(0);
        drv.load_key(0, [1u8; 16], alice);
        drv.load_key(1, [2u8; 16], eve);
        let start = drv.cycle();
        let mut stalled = 0u64;
        let mut peak_buffer = 0u16;
        let mut alice_sent = false;
        let mut eve_budget: u32 = if mixed { 4 } else { 0 };
        while drv.cycle() - start < 110 {
            let t = drv.cycle() - start;
            drv.set_receiver_ready(!(30..=40).contains(&t));
            if !alice_sent && t >= 2 {
                alice_sent = drv.try_submit(&Request {
                    block: [0xAA; 16],
                    key_slot: 0,
                    user: alice,
                });
            } else if eve_budget > 0 && t >= 20 && t.is_multiple_of(2) {
                if drv.try_submit(&Request {
                    block: [0xEE; 16],
                    key_slot: 1,
                    user: eve,
                }) {
                    eve_budget -= 1;
                }
            } else if !drv.probe_in_ready() && (30..=40).contains(&t) {
                stalled += 1;
            }
            peak_buffer = peak_buffer.max(drv.buffer_occupancy());
        }
        Fig8Sample {
            mixed_pipeline: mixed,
            stalled_cycles: stalled,
            peak_buffer,
            completed: drv.responses[0].len(),
        }
    };
    vec![run(false), run(true)]
}

/// One point of the sharing-granularity sweep.
#[derive(Debug, Clone, Copy)]
pub struct SharingSample {
    /// Requests between user switches.
    pub switch_period: u64,
    /// Fine-grained (tagged, protected design) blocks per cycle.
    pub fine_bpc: f64,
    /// Coarse-grained (drain between users) blocks per cycle.
    pub coarse_bpc: f64,
}

/// The motivation experiment: fine-grained sharing sustains one block per
/// cycle regardless of how often users alternate; coarse-grained sharing
/// pays a full pipeline drain at every switch.
#[must_use]
pub fn sharing(total_blocks: u64, periods: &[u64]) -> Vec<SharingSample> {
    periods
        .iter()
        .map(|&period| {
            let fine = sharing_run(total_blocks, period, false);
            let coarse = sharing_run(total_blocks, period, true);
            SharingSample {
                switch_period: period,
                fine_bpc: fine,
                coarse_bpc: coarse,
            }
        })
        .collect()
}

/// The chaining-mode corollary of the sharing experiment: a single CBC
/// chain is latency-bound (one block per pipeline pass), but independent
/// tenants' chains interleave and recover aggregate throughput — the
/// cloud-SSL scenario the paper's introduction sketches.
#[derive(Debug, Clone, Copy)]
pub struct CbcSharingResult {
    /// Blocks per cycle of one tenant's CBC chain.
    pub single_bpc: f64,
    /// Aggregate blocks per cycle of `tenants` interleaved chains.
    pub multi_bpc: f64,
    /// Number of interleaved tenants.
    pub tenants: u64,
}

/// Measures single-chain vs interleaved-multi-tenant CBC throughput on
/// the protected design.
#[must_use]
pub fn cbc_sharing(blocks_per_stream: u64, tenants: u64) -> CbcSharingResult {
    use accel::offload::{cbc_encrypt, cbc_encrypt_interleaved};
    assert!((1..=3).contains(&tenants), "three regular key slots");

    let single_cycles = {
        let mut drv = AccelDriver::new(Protection::Full);
        let alice = user_label(1);
        drv.load_key(0, [1u8; 16], alice);
        let blocks: Vec<[u8; 16]> = (0..blocks_per_stream as u8).map(|i| [i; 16]).collect();
        let start = drv.cycle();
        let _ = cbc_encrypt(&mut drv, 0, alice, [0; 16], &blocks);
        drv.cycle() - start
    };

    let multi_cycles = {
        let mut drv = AccelDriver::new(Protection::Full);
        let users: Vec<_> = (0..tenants as usize).map(user_label).collect();
        for (slot, &user) in users.iter().enumerate() {
            drv.load_key(slot, [slot as u8 + 1; 16], user);
        }
        let streams: Vec<accel::offload::CbcStream> = (0..tenants as usize)
            .map(|s| {
                let blocks: Vec<[u8; 16]> = (0..blocks_per_stream as u8)
                    .map(|i| [i ^ s as u8; 16])
                    .collect();
                ((s, users[s], [s as u8; 16]), blocks)
            })
            .collect();
        let start = drv.cycle();
        let _ = cbc_encrypt_interleaved(&mut drv, &streams);
        drv.cycle() - start
    };

    CbcSharingResult {
        single_bpc: blocks_per_stream as f64 / single_cycles as f64,
        multi_bpc: (blocks_per_stream * tenants) as f64 / multi_cycles as f64,
        tenants,
    }
}

/// One point of the holding-buffer depth ablation.
#[derive(Debug, Clone, Copy)]
pub struct BufferDepthSample {
    /// Configured buffer depth.
    pub depth: usize,
    /// Blocks dropped on buffer overflow during the burst.
    pub drops: u16,
    /// Blocks that completed.
    pub completed: usize,
}

/// Ablates the output holding buffer's depth: when the stall policy
/// forbids stalling (mixed-level pipeline) and the receiver blocks for
/// 35 cycles (t ∈ \[20, 54\]), the buffer is the only place completed
/// blocks can go — too shallow and they drop. This sizes the paper's
/// "extra buffer" BRAM.
///
/// Only the hardware counters are meaningful here: dropped blocks never
/// emit, so the driver's per-request attribution is not used.
#[must_use]
pub fn buffer_depth_sweep(depths: &[usize]) -> Vec<BufferDepthSample> {
    use accel::{build_with, AccelParams, Mechanisms};
    depths
        .iter()
        .map(|&depth| {
            let params = AccelParams {
                out_buffer_depth: depth,
                ..AccelParams::paper()
            };
            let design = build_with(Protection::Full, params, Mechanisms::all());
            let mut drv = accel::driver::AccelDriver::from_design(&design, TrackMode::Precise);
            let alice = user_label(1);
            let eve = user_label(0);
            drv.load_key(0, [1u8; 16], alice);
            drv.load_key(1, [2u8; 16], eve);
            // Burst: Alice's blocks reach the pipeline head while Eve's
            // sit mid-pipeline, so the stall policy denies Alice's stall
            // request for the whole receiver outage — every completion
            // must go to the buffer. (Had Eve's block been at the head,
            // it could legally stall: everything behind it is ⊒ her
            // level.)
            let start = drv.cycle();
            let mut sent = 0u64;
            while drv.cycle() - start < 130 {
                let t = drv.cycle() - start;
                drv.set_receiver_ready(!(20..=54).contains(&t));
                if (24..=48).contains(&t) && t.is_multiple_of(4) {
                    let _ = drv.try_submit(&accel::driver::Request {
                        block: [0xEE; 16],
                        key_slot: 1,
                        user: eve,
                    });
                } else if sent < 40 {
                    if drv.try_submit(&accel::driver::Request {
                        block: [sent as u8; 16],
                        key_slot: 0,
                        user: alice,
                    }) {
                        sent += 1;
                    }
                } else {
                    drv.idle_cycle();
                }
            }
            drv.set_receiver_ready(true);
            drv.idle(80);
            BufferDepthSample {
                depth,
                drops: drv.drop_count(),
                completed: drv.responses[0].len(),
            }
        })
        .collect()
}

/// One row of the tracking-precision ablation.
#[derive(Debug, Clone, Copy)]
pub struct TrackingSample {
    /// The runtime label-tracking rule.
    pub mode: TrackMode,
    /// Blocks that completed.
    pub completed: usize,
    /// Runtime label violations raised.
    pub violations: usize,
}

/// The tracking-precision ablation: one interleaved two-user 24-block
/// stream through the protected design under each [`TrackMode`], in the
/// order Off, Conservative, Precise.
///
/// The conservative RTL-level rule (every mux output joins *all* arms,
/// RTLIFT-style) over-taints: the shared output mux joins both users'
/// labels, so the release gate rejects legitimate releases. The
/// mux-aware rule (GLIFT-flavoured) tracks only the selected arm and
/// raises nothing — why the design carries explicit per-stage tags
/// rather than deriving labels from conservative tracking.
#[must_use]
pub fn tracking_ablation() -> Vec<TrackingSample> {
    let design = protected();
    [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise]
        .into_iter()
        .map(|mode| {
            let mut drv = AccelDriver::from_design(&design, mode);
            let alice = user_label(1);
            let eve = user_label(0);
            drv.load_key(0, [7u8; 16], alice);
            drv.load_key(1, [8u8; 16], eve);
            for i in 0..24u64 {
                let mut block = [0u8; 16];
                block[..8].copy_from_slice(&i.to_be_bytes());
                let slot = (i % 2) as usize;
                drv.submit(&Request {
                    block,
                    key_slot: slot,
                    user: if slot == 0 { alice } else { eve },
                });
            }
            drv.drain(300);
            TrackingSample {
                mode,
                completed: drv.responses[0].len(),
                violations: drv.violations(0).len(),
            }
        })
        .collect()
}

fn sharing_run(total_blocks: u64, period: u64, coarse: bool) -> f64 {
    let mut drv = AccelDriver::new(Protection::Full);
    let users = [user_label(0), user_label(1)];
    drv.load_key(0, [1u8; 16], users[0]);
    drv.load_key(1, [2u8; 16], users[1]);
    let start = drv.cycle();
    let mut current = 0usize;
    let mut since_switch = 0u64;
    for i in 0..total_blocks {
        if since_switch == period {
            current = 1 - current;
            since_switch = 0;
            if coarse {
                // Coarse-grained sharing: exclusive use — the pipeline is
                // drained and refilled at each user switch.
                drv.drain(4 * PIPELINE_DEPTH as u64 + 8);
            }
        }
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&i.to_be_bytes());
        drv.submit(&Request {
            block,
            key_slot: current,
            user: users[current],
        });
        since_switch += 1;
    }
    drv.drain(4 * PIPELINE_DEPTH as u64 + 8);
    let last = drv.responses[0].last().expect("completed").completed;
    total_blocks as f64 / (last - start) as f64
}
