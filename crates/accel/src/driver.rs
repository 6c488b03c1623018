//! Transaction-level driver around the simulated accelerator.
//!
//! [`Driver`] hides the port-level protocol: allocate scratchpad cells,
//! load keys, submit requests, and observe cycle-stamped responses and
//! release-time rejections. It is written once, over [`LanePorts`], the
//! per-lane port access both simulation engines provide:
//!
//! * [`AccelDriver`] runs it on the interpreting [`Simulator`] — one
//!   lane, the reference oracle every lane is compared against;
//! * [`BatchedDriver`](crate::batch::BatchedDriver) runs it on the tape
//!   engine's [`BatchedSim`](sim::BatchedSim) — W lanes, each an
//!   independent session (own keys, requests, responses and violation
//!   stream) sharing one clock and one tape pass per cycle.
//!
//! [`Driver::step`] is the one port-driving path: one [`LaneAction`] per
//! lane per cycle, so lanes may sit in different protocol phases on the
//! same cycle. The single-session helpers ([`Driver::submit`],
//! [`Driver::load_key`], [`Driver::read_debug`], …) are short sequences
//! of it on a one-lane driver. [`debug_port_admits`] is the SoC
//! debug-port gate.

use std::collections::VecDeque;

use aes_core::{block_to_u128, u128_to_block};
use hdl::{Design, Netlist, NodeId, Value};
use ifc_lattice::{Label, SecurityTag};
use sim::{RuntimeViolation, Simulator, TrackMode};

use crate::build::{baseline, protected, Protection};
use crate::params::MASTER_KEY_SLOT;

/// An encryption request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Plaintext block.
    pub block: [u8; 16],
    /// Scratchpad key slot (0..=3; slot 3 is the master key).
    pub key_slot: usize,
    /// The requesting user's label (drives the request tag and the
    /// simulator's runtime label of the plaintext).
    pub user: Label,
}

/// A completed encryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Ciphertext block.
    pub block: [u8; 16],
    /// The tag the hardware attached to the output (protected design).
    pub tag: SecurityTag,
    /// Cycle at which the request entered the pipeline.
    pub submitted: u64,
    /// Cycle at which the response appeared at the output.
    pub completed: u64,
    /// The requesting user.
    pub user: Label,
}

/// A request refused at release time by the nonmalleable-declassification
/// check (e.g. master-key misuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Cycle at which the refusal happened.
    pub cycle: u64,
    /// The refused request's user.
    pub user: Label,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    submitted: u64,
    user: Label,
}

/// Per-lane port access to a simulation engine: everything [`Driver`]
/// needs to run the accelerator protocol on each lane. Lanes share the
/// clock ([`tick`](Self::tick) advances all of them).
pub trait LanePorts {
    /// Number of lanes (independent sessions).
    fn lanes(&self) -> usize;
    /// The shared cycle count.
    fn cycle(&self) -> u64;
    /// Advances every lane one clock cycle.
    fn tick(&mut self);
    /// The simulated netlist.
    fn netlist(&self) -> &Netlist;
    /// Drives one lane's input by node id.
    fn set_node(&mut self, lane: usize, id: NodeId, value: Value);
    /// Sets the runtime label of one lane's input by node id.
    fn set_node_label(&mut self, lane: usize, id: NodeId, label: Label);
    /// Reads one lane's settled value by node id.
    fn peek_node(&mut self, lane: usize, id: NodeId) -> Value;
    /// Reads one lane's settled value by port or node name.
    fn peek(&mut self, lane: usize, name: &str) -> Value;
    /// One lane's recorded runtime violations.
    fn violations(&self, lane: usize) -> &[RuntimeViolation];
    /// Sets one lane's memory cell label (provisioned secrets).
    fn set_mem_cell_label(&mut self, lane: usize, mem: usize, addr: usize, label: Label);
    /// Joins one lane's settled node labels into `acc`.
    fn fold_label_plane(&mut self, lane: usize, acc: &mut [Label]);
    /// Joins one lane's memory labels into `acc`, one join per array.
    fn fold_mem_labels(&mut self, lane: usize, acc: &mut [Label]);
}

/// The interpreting oracle is a one-lane engine; `lane` is always 0.
impl LanePorts for Simulator {
    fn lanes(&self) -> usize {
        1
    }
    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }
    fn tick(&mut self) {
        Simulator::tick(self);
    }
    fn netlist(&self) -> &Netlist {
        Simulator::netlist(self)
    }
    fn set_node(&mut self, _lane: usize, id: NodeId, value: Value) {
        Simulator::set_node(self, id, value);
    }
    fn set_node_label(&mut self, _lane: usize, id: NodeId, label: Label) {
        Simulator::set_node_label(self, id, label);
    }
    fn peek_node(&mut self, _lane: usize, id: NodeId) -> Value {
        Simulator::peek_node(self, id)
    }
    fn peek(&mut self, _lane: usize, name: &str) -> Value {
        Simulator::peek(self, name)
    }
    fn violations(&self, _lane: usize) -> &[RuntimeViolation] {
        Simulator::violations(self)
    }
    fn set_mem_cell_label(&mut self, _lane: usize, mem: usize, addr: usize, label: Label) {
        Simulator::set_mem_cell_label(self, mem, addr, label);
    }
    fn fold_label_plane(&mut self, _lane: usize, acc: &mut [Label]) {
        Simulator::fold_label_plane(self, acc);
    }
    fn fold_mem_labels(&mut self, _lane: usize, acc: &mut [Label]) {
        Simulator::fold_mem_labels(self, acc);
    }
}

/// Interface ports resolved once at construction, so the per-cycle
/// drive and sampling loops do no name lookups (clearing the inputs of
/// W lanes every cycle is the hot edge of the protocol).
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

impl Ports {
    /// # Panics
    ///
    /// Panics if the netlist lacks one of the accelerator's ports.
    fn resolve(net: &Netlist) -> Ports {
        let out = |name: &str| {
            net.output(name)
                .unwrap_or_else(|| panic!("accelerator design has no {name:?} port"))
        };
        let inp = |name: &str| {
            net.input(name)
                .unwrap_or_else(|| panic!("accelerator design has no {name:?} input"))
        };
        Ports {
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
        }
    }
}

/// One lane's port activity for one [`Driver::step`] cycle.
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
    /// Write one 64-bit scratchpad cell as `writer`. On the protected
    /// design the hardware tag check may silently block the write.
    WriteKey {
        /// Scratchpad cell index.
        cell: usize,
        /// Data word.
        data: u64,
        /// Writer principal carried on the key-write port.
        writer: Label,
    },
    /// Offer a request to the input handshake; the cycle's acceptance is
    /// reported through [`Driver::step`]'s `accepted` slot.
    Submit {
        /// The request to offer.
        req: Request,
        /// Decrypt instead of encrypt.
        decrypt: bool,
    },
    /// Write the configuration register as `writer` (only the writer's
    /// integrity travels with the data).
    WriteCfg {
        /// New register value.
        value: u8,
        /// Writer principal.
        writer: Label,
    },
    /// Drive the debug-port selector for the cycle. Whether the reader
    /// may see `dbg_out` is the SoC interconnect's decision
    /// ([`debug_port_admits`]), not the hardware's.
    ReadDebug {
        /// Debug probe selector.
        sel: u32,
    },
}

/// Drives simulated accelerator sessions at the transaction level, one
/// per lane of `E`. See the [module docs](self).
#[derive(Debug)]
pub struct Driver<E> {
    sim: E,
    ports: Ports,
    pending: Vec<VecDeque<Pending>>,
    /// Per-lane completed encryptions, in order.
    pub responses: Vec<Vec<Response>>,
    /// Per-lane requests refused by the release check.
    pub rejections: Vec<Vec<Rejection>>,
    receiver_ready: bool,
}

/// The transaction driver on the interpreting oracle (one lane).
pub type AccelDriver = Driver<Simulator>;

/// The SoC interconnect's debug-port gate: the interconnect routes
/// `dbg_out` only to principals cleared for the port's confidentiality
/// level. The level is the port's constant release label; a port without
/// one counts as public.
#[must_use]
pub fn debug_port_admits(net: &Netlist, reader: Label) -> bool {
    let port_label = net
        .outputs
        .iter()
        .find(|p| p.name == "dbg_out")
        .and_then(|p| match &p.label {
            Some(hdl::LabelExpr::Const(l)) => Some(*l),
            _ => None,
        })
        .unwrap_or(Label::PUBLIC_UNTRUSTED);
    port_label.conf.flows_to(reader.conf)
}

impl AccelDriver {
    /// Wraps an already-built accelerator design.
    ///
    /// # Panics
    ///
    /// Panics if the design fails to lower (the shipped designs never do).
    #[must_use]
    pub fn from_design(design: &Design, mode: TrackMode) -> AccelDriver {
        let net = design.lower().expect("accelerator design lowers");
        AccelDriver::from_netlist(net, mode)
    }

    /// Wraps an already-lowered netlist. Lowering is the expensive part
    /// of construction, so callers running many identical sessions lower
    /// once and hand each driver a clone of the netlist.
    #[must_use]
    pub fn from_netlist(net: Netlist, mode: TrackMode) -> AccelDriver {
        Driver::from_engine(Simulator::with_tracking(net, mode))
    }

    /// Builds and wraps a fresh design at the given protection level, with
    /// mux-precise runtime tracking (what the protected hardware's
    /// tracking logic implements).
    #[must_use]
    pub fn new(protection: Protection) -> AccelDriver {
        let design = match protection {
            Protection::Full => protected(),
            Protection::Off => baseline(),
            Protection::Annotated => crate::build::baseline_annotated(),
        };
        AccelDriver::from_design(&design, TrackMode::Precise)
    }
}

impl<E: LanePorts> Driver<E> {
    /// Wraps an engine, one session per lane. The factory-provisioned
    /// master key in scratchpad cells 6/7 carries the (⊤,⊤) label from
    /// power-on in every lane.
    ///
    /// # Panics
    ///
    /// Panics if the design lacks one of the accelerator's ports.
    #[must_use]
    pub fn from_engine(mut sim: E) -> Driver<E> {
        let lanes = sim.lanes();
        let scratchpad = sim
            .netlist()
            .mems
            .iter()
            .position(|m| m.name == "scratchpad.cells");
        if let Some(mem) = scratchpad {
            for lane in 0..lanes {
                for cell in [2 * MASTER_KEY_SLOT, 2 * MASTER_KEY_SLOT + 1] {
                    sim.set_mem_cell_label(lane, mem, cell, Label::SECRET_TRUSTED);
                }
            }
        }
        Driver {
            ports: Ports::resolve(sim.netlist()),
            sim,
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

    /// The wrapped engine (for assertions on labels and violations).
    pub fn sim_mut(&mut self) -> &mut E {
        &mut self.sim
    }

    /// Shared view of the wrapped engine.
    #[must_use]
    pub fn sim(&self) -> &E {
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

    /// Sets whether every lane's downstream receiver accepts outputs
    /// (the `out_ready` port). A slow receiver is what provokes stalls.
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

    /// Clears every lane's inputs, drives each lane's action, and records
    /// which submits the input handshake took — the first half of a
    /// cycle; [`finish_cycle`](Self::finish_cycle) is the second.
    fn drive(&mut self, actions: &[LaneAction], accepted: &mut [bool]) {
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
            if self.sim.peek_node(lane, p.in_ready) == 1 {
                self.pending[lane].push_back(Pending {
                    submitted: self.sim.cycle(),
                    user: req.user,
                });
                accepted[lane] = true;
            }
        }
    }

    /// Finishes the current cycle: samples every lane's output interface,
    /// updates the per-lane bookkeeping, and advances the shared clock.
    fn finish_cycle(&mut self) {
        let p = self.ports;
        for lane in 0..self.lanes() {
            if self.sim.peek_node(lane, p.out_emit) != 1 {
                continue;
            }
            let valid = self.sim.peek_node(lane, p.out_valid) == 1;
            let pending = self.pending[lane]
                .pop_front()
                .expect("hardware emitted more blocks than were submitted");
            if valid {
                let block = u128_to_block(self.sim.peek_node(lane, p.out_block));
                let tag = SecurityTag::from_bits(self.sim.peek_node(lane, p.out_tag) as u8);
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
        self.drive(actions, accepted);
        self.finish_cycle();
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

    /// Allocates and loads a per-lane 128-bit key into `slot`: two
    /// allocation and two write cycles, then 14 idle cycles so every
    /// lane's decrypt-key preparation unit finishes expanding RK10
    /// before the key is used.
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
        self.idle(14);
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

    // Single-session helpers: short sequences of the protocol above on
    // lane 0. Those that drive a cycle panic ("one action per lane") on a
    // driver of more than one lane; the counters read lane 0.

    /// Drives `action` on the only lane; returns whether a submit was
    /// accepted. The cycle stays open for a mid-cycle peek.
    fn drive_one(&mut self, action: LaneAction) -> bool {
        let mut accepted = [false];
        self.drive(std::slice::from_ref(&action), &mut accepted);
        accepted[0]
    }

    /// One full cycle of `action` on the only lane.
    fn step_one(&mut self, action: LaneAction) -> bool {
        let accepted = self.drive_one(action);
        self.finish_cycle();
        accepted
    }

    /// Runs one idle cycle and reports whether the pipeline would have
    /// accepted input (the `in_ready` handshake) — the observable a
    /// co-resident user reads to sense stalls.
    pub fn probe_in_ready(&mut self) -> bool {
        self.drive_one(LaneAction::Idle);
        let ready = self.sim.peek_node(0, self.ports.in_ready) == 1;
        self.finish_cycle();
        ready
    }

    /// Tries to submit a request this cycle. Returns `false` (consuming
    /// the cycle) when the pipeline refused new input (stalled).
    pub fn try_submit(&mut self, req: &Request) -> bool {
        self.step_one(LaneAction::Submit {
            req: *req,
            decrypt: false,
        })
    }

    /// Tries to submit a *decryption* request this cycle.
    pub fn try_submit_decrypt(&mut self, req: &Request) -> bool {
        self.step_one(LaneAction::Submit {
            req: *req,
            decrypt: true,
        })
    }

    /// Submits a request, retrying across stalled cycles.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline refuses input for 10 000 consecutive cycles
    /// (a deadlocked testbench).
    pub fn submit(&mut self, req: &Request) {
        assert!(
            (0..10_000).any(|_| self.try_submit(req)),
            "pipeline refused input for 10000 cycles"
        );
    }

    /// Submits a decryption request, retrying across stalled cycles.
    ///
    /// # Panics
    ///
    /// Panics as [`submit`](Self::submit) does on a deadlocked testbench.
    pub fn submit_decrypt(&mut self, req: &Request) {
        assert!(
            (0..10_000).any(|_| self.try_submit_decrypt(req)),
            "pipeline refused input for 10000 cycles"
        );
    }

    /// Allocates a scratchpad cell to `owner` via the arbiter port
    /// (retags and wipes the cell). One cycle.
    pub fn alloc_cell(&mut self, cell: usize, owner: Label) {
        self.step_one(LaneAction::Alloc { cell, owner });
    }

    /// Writes one 64-bit scratchpad cell on behalf of `writer`. One cycle.
    /// On the protected design the hardware tag check may silently block
    /// the write.
    pub fn write_key_cell(&mut self, cell: usize, data: u64, writer: Label) {
        self.step_one(LaneAction::WriteKey { cell, data, writer });
    }

    /// Allocates and loads a full 128-bit key into `slot` on behalf of
    /// `owner` ([`load_keys`](Self::load_keys) on the only lane).
    pub fn load_key(&mut self, slot: usize, key: [u8; 16], owner: Label) {
        self.load_keys(slot, &[key], &[owner]);
    }

    /// Writes the configuration register on behalf of `writer`. One cycle.
    pub fn write_cfg(&mut self, value: u8, writer: Label) {
        self.step_one(LaneAction::WriteCfg { value, writer });
    }

    /// Reads the debug port at `sel` on behalf of `reader`. Returns the
    /// probed value if the SoC access gate ([`debug_port_admits`])
    /// permits it. One cycle.
    pub fn read_debug(&mut self, sel: u32, reader: Label) -> Option<[u8; 16]> {
        self.drive_one(LaneAction::ReadDebug { sel });
        let value = self.sim.peek(0, "dbg_out");
        self.finish_cycle();
        debug_port_admits(self.sim.netlist(), reader).then(|| u128_to_block(value))
    }

    /// The configuration register's current value.
    pub fn cfg(&mut self) -> u8 {
        self.sim.peek(0, "cfg_out") as u8
    }

    /// Current occupancy of the protected design's output holding buffer.
    ///
    /// # Panics
    ///
    /// Panics on the baseline design, which has no buffer.
    pub fn buffer_occupancy(&mut self) -> u16 {
        self.sim.peek(0, "outbuf.count") as u16
    }

    /// The hardware's dropped-output counter (buffer overflow).
    pub fn drop_count(&mut self) -> u16 {
        self.sim.peek(0, "drop_count") as u16
    }

    /// The hardware's nonmalleable-rejection counter.
    pub fn nm_reject_count(&mut self) -> u16 {
        self.sim.peek(0, "nm_reject_count") as u16
    }
}
