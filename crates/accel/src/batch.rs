//! Transaction-level driver for lane-batched accelerator sessions.
//!
//! [`BatchedDriver`] is the [`AccelDriver`](crate::driver::AccelDriver)
//! protocol replicated across the W lanes of one
//! [`BatchedSim`](sim::BatchedSim): every lane is an independent
//! accelerator session (own keys, own request stream, own responses and
//! violation stream), but all lanes share the clock and advance through
//! one tape pass per cycle. The port protocol per lane is cycle-for-cycle
//! identical to the single-session driver, so per-lane statistics from a
//! symmetric workload match what `AccelDriver` reports for the same
//! stimulus — the `accel::fleet` tests assert exactly that.
//!
//! Lanes may diverge (one lane stalled or rejected while another
//! proceeds): submission is per-lane handshake-checked each cycle, and
//! lanes with nothing to submit simply idle (inputs held cleared).

use std::collections::VecDeque;

use aes_core::{block_to_u128, u128_to_block};
use hdl::NodeId;
use ifc_lattice::{Label, SecurityTag};
use sim::{BatchedSim, RuntimeViolation, TrackMode};

use crate::driver::{Pending, Rejection, Request, Response};
use crate::params::MASTER_KEY_SLOT;

/// Interface ports resolved once at construction, so the per-cycle
/// drive and sampling loops do no name lookups (clearing the inputs of
/// W lanes every cycle is the hot edge of the batched protocol).
#[derive(Debug, Clone, Copy)]
struct Ports {
    out_emit: NodeId,
    out_valid: NodeId,
    out_block: NodeId,
    out_tag: NodeId,
    in_ready: NodeId,
    in_valid: NodeId,
    in_block: NodeId,
    in_decrypt: NodeId,
    in_tag: NodeId,
    in_key_slot: NodeId,
    key_we: NodeId,
    key_cell: NodeId,
    key_data: NodeId,
    key_wr_tag: NodeId,
    alloc_we: NodeId,
    alloc_cell: NodeId,
    alloc_tag: NodeId,
    cfg_we: NodeId,
    cfg_data: NodeId,
    cfg_wr_tag: NodeId,
    dbg_sel: NodeId,
    out_ready: NodeId,
}

/// One lane's port activity for one [`BatchedDriver::step`] cycle.
///
/// Each lane may be in a *different* protocol phase on the same cycle,
/// which is what live lane refill in the accelerator farm needs; the
/// whole-batch helpers ([`BatchedDriver::load_keys`] and
/// [`crate::fleet::run_lane_sessions`]) are sequences of `step`s.
#[derive(Debug, Clone)]
pub enum LaneAction {
    /// Hold this lane's inputs cleared for the cycle.
    Idle,
    /// Allocate scratchpad `cell` to `owner` via the arbiter port
    /// (retags and wipes the cell).
    Alloc {
        /// Scratchpad cell index.
        cell: usize,
        /// New owner; becomes the cell's tag.
        owner: Label,
    },
    /// Write one 64-bit scratchpad cell as `writer`.
    WriteKey {
        /// Scratchpad cell index.
        cell: usize,
        /// Data word.
        data: u64,
        /// Writer principal carried on the key-write port.
        writer: Label,
    },
    /// Offer a request to the input handshake; the cycle's acceptance is
    /// reported through [`BatchedDriver::step`]'s `accepted` slot.
    Submit {
        /// The request to offer.
        req: Request,
        /// Decrypt instead of encrypt.
        decrypt: bool,
    },
    /// Write the configuration register as `writer` (only the writer's
    /// integrity travels with the data, exactly as in
    /// [`AccelDriver::write_cfg`](crate::driver::AccelDriver::write_cfg)).
    WriteCfg {
        /// New register value.
        value: u8,
        /// Writer principal.
        writer: Label,
    },
    /// Drive the debug-port selector for the cycle. Whether the reader
    /// may see `dbg_out` is the SoC interconnect's decision
    /// ([`debug_port_admits`](crate::driver::debug_port_admits)), not
    /// the hardware's.
    ReadDebug {
        /// Debug probe selector.
        sel: u32,
    },
}

/// Drives W accelerator sessions at the transaction level over one
/// [`BatchedSim`]. See the [module docs](self).
#[derive(Debug)]
pub struct BatchedDriver {
    sim: BatchedSim,
    ports: Ports,
    pending: Vec<VecDeque<Pending>>,
    /// Per-lane completed encryptions, in order.
    pub responses: Vec<Vec<Response>>,
    /// Per-lane requests refused by the release check.
    pub rejections: Vec<Vec<Rejection>>,
    receiver_ready: bool,
}

impl BatchedDriver {
    /// Compiles a netlist (no optimizer passes) and instantiates `lanes`
    /// driver sessions.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a supported lane width
    /// ([`sim::SUPPORTED_LANES`]).
    #[must_use]
    pub fn from_netlist(net: hdl::Netlist, mode: TrackMode, lanes: usize) -> BatchedDriver {
        BatchedDriver::from_batched(BatchedSim::with_tracking(net, mode, lanes))
    }

    /// Wraps an already-constructed batched simulator (so one prototype
    /// can share its compiled program with every batch, or a caller can
    /// pick its optimizer passes).
    ///
    /// # Panics
    ///
    /// Panics if the design has no output interface (not an accelerator).
    #[must_use]
    pub fn from_batched(mut sim: BatchedSim) -> BatchedDriver {
        // The factory-provisioned master key carries (⊤,⊤) in every lane.
        if let Some(mem) = sim.mem_index("scratchpad.cells") {
            for lane in 0..sim.lanes() {
                sim.set_mem_cell_label(lane, mem, 2 * MASTER_KEY_SLOT, Label::SECRET_TRUSTED);
                sim.set_mem_cell_label(lane, mem, 2 * MASTER_KEY_SLOT + 1, Label::SECRET_TRUSTED);
            }
        }
        let out = |name: &str| {
            sim.netlist()
                .output(name)
                .unwrap_or_else(|| panic!("accelerator design has no {name:?} port"))
        };
        let inp = |name: &str| {
            sim.netlist()
                .input(name)
                .unwrap_or_else(|| panic!("accelerator design has no {name:?} input"))
        };
        let ports = Ports {
            out_emit: out("out_emit"),
            out_valid: out("out_valid"),
            out_block: out("out_block"),
            out_tag: out("out_tag"),
            in_ready: out("in_ready"),
            in_valid: inp("in_valid"),
            in_block: inp("in_block"),
            in_decrypt: inp("in_decrypt"),
            in_tag: inp("in_tag"),
            in_key_slot: inp("in_key_slot"),
            key_we: inp("key_we"),
            key_cell: inp("key_cell"),
            key_data: inp("key_data"),
            key_wr_tag: inp("key_wr_tag"),
            alloc_we: inp("alloc_we"),
            alloc_cell: inp("alloc_cell"),
            alloc_tag: inp("alloc_tag"),
            cfg_we: inp("cfg_we"),
            cfg_data: inp("cfg_data"),
            cfg_wr_tag: inp("cfg_wr_tag"),
            dbg_sel: inp("dbg_sel"),
            out_ready: inp("out_ready"),
        };
        let lanes = sim.lanes();
        BatchedDriver {
            sim,
            ports,
            pending: vec![VecDeque::new(); lanes],
            responses: vec![Vec::new(); lanes],
            rejections: vec![Vec::new(); lanes],
            receiver_ready: true,
        }
    }

    /// Number of lanes (sessions).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.sim.lanes()
    }

    /// The wrapped batched simulator.
    pub fn sim_mut(&mut self) -> &mut BatchedSim {
        &mut self.sim
    }

    /// Shared view of the wrapped simulator.
    #[must_use]
    pub fn sim(&self) -> &BatchedSim {
        &self.sim
    }

    /// One lane's recorded runtime violations.
    #[must_use]
    pub fn violations(&self, lane: usize) -> &[RuntimeViolation] {
        self.sim.violations(lane)
    }

    /// The shared cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    /// One lane's number of in-flight requests.
    #[must_use]
    pub fn in_flight(&self, lane: usize) -> usize {
        self.pending[lane].len()
    }

    /// Sets whether every lane's downstream receiver accepts outputs.
    pub fn set_receiver_ready(&mut self, ready: bool) {
        self.receiver_ready = ready;
    }

    fn clear_cycle_inputs(&mut self) {
        let p = self.ports;
        for lane in 0..self.lanes() {
            for port in [p.in_valid, p.key_we, p.alloc_we, p.cfg_we] {
                self.sim.set_node(lane, port, 0);
                self.sim.set_node_label(lane, port, Label::PUBLIC_TRUSTED);
            }
            self.sim.set_node(lane, p.in_block, 0);
            self.sim.set_node(lane, p.in_decrypt, 0);
            self.sim
                .set_node_label(lane, p.in_block, Label::PUBLIC_TRUSTED);
            self.sim.set_node(lane, p.key_data, 0);
            self.sim
                .set_node_label(lane, p.key_data, Label::PUBLIC_TRUSTED);
            self.sim
                .set_node(lane, p.out_ready, u128::from(self.receiver_ready));
        }
    }

    /// Finishes the current cycle: samples every lane's output interface,
    /// updates the per-lane bookkeeping, and advances the shared clock.
    fn finish_cycle(&mut self) {
        for lane in 0..self.lanes() {
            if self.sim.peek_node(lane, self.ports.out_emit) != 1 {
                continue;
            }
            let valid = self.sim.peek_node(lane, self.ports.out_valid) == 1;
            let pending = self.pending[lane]
                .pop_front()
                .expect("hardware emitted more blocks than were submitted");
            if valid {
                let block = u128_to_block(self.sim.peek_node(lane, self.ports.out_block));
                let tag =
                    SecurityTag::from_bits(self.sim.peek_node(lane, self.ports.out_tag) as u8);
                self.responses[lane].push(Response {
                    block,
                    tag,
                    submitted: pending.submitted,
                    completed: self.sim.cycle(),
                    user: pending.user,
                });
            } else {
                self.rejections[lane].push(Rejection {
                    cycle: self.sim.cycle(),
                    user: pending.user,
                });
            }
        }
        self.sim.tick();
    }

    /// Runs one idle cycle on every lane.
    pub fn idle_cycle(&mut self) {
        self.clear_cycle_inputs();
        self.finish_cycle();
    }

    /// Runs `n` idle cycles.
    pub fn idle(&mut self, n: u64) {
        for _ in 0..n {
            self.idle_cycle();
        }
    }

    /// Allocates and loads a full per-lane 128-bit key into `slot` (four
    /// cycles plus the decrypt-key preparation idle, exactly like
    /// [`AccelDriver::load_key`](crate::driver::AccelDriver::load_key)).
    ///
    /// # Panics
    ///
    /// Panics on a bad slot, a non-supervisor master-slot load, or
    /// mismatched per-lane array lengths.
    pub fn load_keys(&mut self, slot: usize, keys: &[[u8; 16]], owners: &[Label]) {
        assert!(slot < 4, "four key slots");
        assert_eq!(keys.len(), self.lanes(), "one key per lane");
        assert_eq!(owners.len(), self.lanes(), "one owner per lane");
        if slot == MASTER_KEY_SLOT {
            assert!(
                owners.iter().all(|&o| o == Label::SECRET_TRUSTED),
                "only the supervisor may touch the master-key slot"
            );
        }
        let mut accepted = vec![false; self.lanes()];
        for cell in [2 * slot, 2 * slot + 1] {
            let allocs: Vec<LaneAction> = owners
                .iter()
                .map(|&owner| LaneAction::Alloc { cell, owner })
                .collect();
            self.step(&allocs, &mut accepted);
        }
        for (cell, half) in [(2 * slot, 0..8), (2 * slot + 1, 8..16)] {
            let writes: Vec<LaneAction> = keys
                .iter()
                .zip(owners)
                .map(|(key, &writer)| LaneAction::WriteKey {
                    cell,
                    data: u64::from_be_bytes(key[half.clone()].try_into().expect("8 bytes")),
                    writer,
                })
                .collect();
            self.step(&writes, &mut accepted);
        }
        // Let every lane's decrypt-key preparation unit finish expanding
        // RK10 before the key is used.
        self.idle(14);
    }

    /// Advances one cycle with an independent port action per lane — the
    /// one port-driving path of the driver. The farm's lane engine uses
    /// it to interleave phases across lanes (one lane allocating its key
    /// cells while its neighbours keep submitting blocks).
    ///
    /// Acceptance is reported per lane in `accepted`: `true` only for a
    /// [`LaneAction::Submit`] the input handshake took this cycle.
    /// Alloc/write actions always land (the arbiter's *security*
    /// decision shows up in the tag planes, not a handshake); policy
    /// checks such as the master-slot supervisor rule are the caller's
    /// admission layer.
    ///
    /// # Panics
    ///
    /// Panics if `actions` or `accepted` does not hold one entry per
    /// lane.
    pub fn step(&mut self, actions: &[LaneAction], accepted: &mut [bool]) {
        assert_eq!(actions.len(), self.lanes(), "one action per lane");
        assert_eq!(accepted.len(), self.lanes(), "one flag per lane");
        self.clear_cycle_inputs();
        let p = self.ports;
        for (lane, action) in actions.iter().enumerate() {
            match action {
                LaneAction::Idle => {}
                LaneAction::Alloc { cell, owner } => {
                    self.sim.set_node(lane, p.alloc_we, 1);
                    self.sim.set_node(lane, p.alloc_cell, *cell as u128);
                    self.sim.set_node(
                        lane,
                        p.alloc_tag,
                        u128::from(SecurityTag::from(*owner).bits()),
                    );
                }
                LaneAction::WriteKey { cell, data, writer } => {
                    self.sim.set_node(lane, p.key_we, 1);
                    self.sim.set_node(lane, p.key_cell, *cell as u128);
                    self.sim.set_node(lane, p.key_data, u128::from(*data));
                    self.sim.set_node_label(lane, p.key_data, *writer);
                    self.sim.set_node(
                        lane,
                        p.key_wr_tag,
                        u128::from(SecurityTag::from(*writer).bits()),
                    );
                }
                LaneAction::Submit { req, decrypt } => {
                    self.sim.set_node(lane, p.in_valid, 1);
                    self.sim.set_node(lane, p.in_decrypt, u128::from(*decrypt));
                    self.sim
                        .set_node(lane, p.in_block, block_to_u128(req.block));
                    self.sim.set_node_label(lane, p.in_block, req.user);
                    self.sim.set_node(
                        lane,
                        p.in_tag,
                        u128::from(SecurityTag::from(req.user).bits()),
                    );
                    self.sim.set_node(lane, p.in_key_slot, req.key_slot as u128);
                }
                LaneAction::WriteCfg { value, writer } => {
                    let label = Label::new(Label::PUBLIC_TRUSTED.conf, writer.integ);
                    self.sim.set_node(lane, p.cfg_we, 1);
                    self.sim.set_node(lane, p.cfg_data, u128::from(*value));
                    self.sim.set_node_label(lane, p.cfg_data, label);
                    self.sim.set_node(
                        lane,
                        p.cfg_wr_tag,
                        u128::from(SecurityTag::from(label).bits()),
                    );
                }
                LaneAction::ReadDebug { sel } => {
                    self.sim.set_node(lane, p.dbg_sel, u128::from(*sel));
                }
            }
        }
        for (lane, action) in actions.iter().enumerate() {
            accepted[lane] = false;
            let LaneAction::Submit { req, .. } = action else {
                continue;
            };
            if self.sim.peek_node(lane, self.ports.in_ready) == 1 {
                self.pending[lane].push_back(Pending {
                    submitted: self.sim.cycle(),
                    user: req.user,
                });
                accepted[lane] = true;
            }
        }
        self.finish_cycle();
    }

    /// Runs idle cycles until every lane's in-flight requests have
    /// completed or been rejected (up to `max_cycles`).
    ///
    /// # Panics
    ///
    /// Panics if requests remain in flight after `max_cycles`.
    pub fn drain(&mut self, max_cycles: u64) {
        for _ in 0..max_cycles {
            if self.pending.iter().all(VecDeque::is_empty) {
                return;
            }
            self.idle_cycle();
        }
        assert!(
            self.pending.iter().all(VecDeque::is_empty),
            "requests still in flight after {max_cycles} cycles"
        );
    }
}
