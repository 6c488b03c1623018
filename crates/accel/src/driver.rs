//! Transaction-level driver around the simulated accelerator.
//!
//! [`AccelDriver`] hides the port-level protocol: allocate scratchpad
//! cells, load keys, submit encryption requests, and observe cycle-stamped
//! responses. It runs on the interpreting [`Simulator`] oracle and is the
//! shared substrate for the integration tests, the attack library, and
//! the differential suites that pin the tape engine's
//! [`BatchedDriver`](crate::batch::BatchedDriver) to it.
//! [`debug_port_admits`] is the SoC debug-port gate both drivers share.

use std::collections::VecDeque;

use aes_core::{block_to_u128, u128_to_block};
use hdl::Design;
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
pub(crate) struct Pending {
    pub(crate) submitted: u64,
    pub(crate) user: Label,
}

/// Drives a simulated accelerator at the transaction level on the
/// interpreting [`Simulator`], the reference oracle. The lane-batched
/// tape engine has the same protocol in
/// [`BatchedDriver`](crate::batch::BatchedDriver).
#[derive(Debug)]
pub struct AccelDriver {
    sim: Simulator,
    pending: VecDeque<Pending>,
    /// Completed encryptions, in order.
    pub responses: Vec<Response>,
    /// Requests refused by the release check.
    pub rejections: Vec<Rejection>,
    receiver_ready: bool,
}

/// The SoC interconnect's debug-port gate: the interconnect routes
/// `dbg_out` only to principals cleared for the port's confidentiality
/// level. The level is the port's constant release label; a port without
/// one counts as public.
#[must_use]
pub fn debug_port_admits(net: &hdl::Netlist, reader: Label) -> bool {
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
    pub fn from_netlist(net: hdl::Netlist, mode: TrackMode) -> AccelDriver {
        let mut sim = Simulator::with_tracking(net, mode);
        // The factory-provisioned master key in scratchpad cells 6/7
        // carries the (⊤,⊤) label from power-on.
        if let Some(mem) = sim.mem_index("scratchpad.cells") {
            sim.set_mem_cell_label(mem, 2 * MASTER_KEY_SLOT, Label::SECRET_TRUSTED);
            sim.set_mem_cell_label(mem, 2 * MASTER_KEY_SLOT + 1, Label::SECRET_TRUSTED);
        }
        AccelDriver {
            sim,
            pending: VecDeque::new(),
            responses: Vec::new(),
            rejections: Vec::new(),
            receiver_ready: true,
        }
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

    /// The wrapped simulator (for assertions on labels and violations).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Shared view of the wrapped simulator.
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Runtime violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[RuntimeViolation] {
        self.sim.violations()
    }

    /// The current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    /// Sets whether the downstream receiver accepts outputs (the
    /// `out_ready` port). A slow receiver is what provokes stalls.
    pub fn set_receiver_ready(&mut self, ready: bool) {
        self.receiver_ready = ready;
    }

    fn clear_cycle_inputs(&mut self) {
        for (port, width_label) in [
            ("in_valid", Label::PUBLIC_TRUSTED),
            ("key_we", Label::PUBLIC_TRUSTED),
            ("alloc_we", Label::PUBLIC_TRUSTED),
            ("cfg_we", Label::PUBLIC_TRUSTED),
        ] {
            self.sim.set(port, 0);
            self.sim.set_label(port, width_label);
        }
        self.sim.set("in_block", 0);
        self.sim.set("in_decrypt", 0);
        self.sim.set_label("in_block", Label::PUBLIC_TRUSTED);
        self.sim.set("key_data", 0);
        self.sim.set_label("key_data", Label::PUBLIC_TRUSTED);
        self.sim.set("out_ready", u128::from(self.receiver_ready));
    }

    /// Finishes the current cycle: samples the output interface, updates
    /// the in-flight bookkeeping, and advances the clock.
    fn finish_cycle(&mut self) {
        let emit = self.sim.peek("out_emit") == 1;
        if emit {
            let valid = self.sim.peek("out_valid") == 1;
            let pending = self
                .pending
                .pop_front()
                .expect("hardware emitted more blocks than were submitted");
            if valid {
                let block = u128_to_block(self.sim.peek("out_block"));
                let tag = SecurityTag::from_bits(self.sim.peek("out_tag") as u8);
                self.responses.push(Response {
                    block,
                    tag,
                    submitted: pending.submitted,
                    completed: self.sim.cycle(),
                    user: pending.user,
                });
            } else {
                self.rejections.push(Rejection {
                    cycle: self.sim.cycle(),
                    user: pending.user,
                });
            }
        }
        self.sim.tick();
    }

    /// Runs one idle cycle (no new request).
    pub fn idle_cycle(&mut self) {
        self.clear_cycle_inputs();
        self.finish_cycle();
    }

    /// Runs one idle cycle and reports whether the pipeline would have
    /// accepted input (the `in_ready` handshake) — the observable a
    /// co-resident user reads to sense stalls.
    pub fn probe_in_ready(&mut self) -> bool {
        self.clear_cycle_inputs();
        let ready = self.sim.peek("in_ready") == 1;
        self.finish_cycle();
        ready
    }

    /// Current occupancy of the protected design's output holding buffer.
    ///
    /// # Panics
    ///
    /// Panics on the baseline design, which has no buffer.
    pub fn buffer_occupancy(&mut self) -> u16 {
        self.sim.peek("outbuf.count") as u16
    }

    /// Runs `n` idle cycles.
    pub fn idle(&mut self, n: u64) {
        for _ in 0..n {
            self.idle_cycle();
        }
    }

    /// Tries to submit a request this cycle. Returns `false` (consuming
    /// the cycle) when the pipeline refused new input (stalled).
    pub fn try_submit(&mut self, req: &Request) -> bool {
        self.try_submit_op(req, false)
    }

    /// Tries to submit a *decryption* request this cycle.
    pub fn try_submit_decrypt(&mut self, req: &Request) -> bool {
        self.try_submit_op(req, true)
    }

    fn try_submit_op(&mut self, req: &Request, decrypt: bool) -> bool {
        self.clear_cycle_inputs();
        self.sim.set("in_decrypt", u128::from(decrypt));
        self.sim.set("in_valid", 1);
        self.sim.set("in_block", block_to_u128(req.block));
        self.sim.set_label("in_block", req.user);
        self.sim
            .set("in_tag", u128::from(SecurityTag::from(req.user).bits()));
        self.sim.set("in_key_slot", req.key_slot as u128);
        let accepted = self.sim.peek("in_ready") == 1;
        if accepted {
            self.pending.push_back(Pending {
                submitted: self.sim.cycle(),
                user: req.user,
            });
        }
        self.finish_cycle();
        accepted
    }

    /// Submits a request, retrying across stalled cycles.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline refuses input for 10 000 consecutive cycles
    /// (a deadlocked testbench).
    pub fn submit(&mut self, req: &Request) {
        for _ in 0..10_000 {
            if self.try_submit(req) {
                return;
            }
        }
        panic!("pipeline refused input for 10000 cycles");
    }

    /// Submits a decryption request, retrying across stalled cycles.
    ///
    /// # Panics
    ///
    /// Panics as [`submit`](Self::submit) does on a deadlocked testbench.
    pub fn submit_decrypt(&mut self, req: &Request) {
        for _ in 0..10_000 {
            if self.try_submit_decrypt(req) {
                return;
            }
        }
        panic!("pipeline refused input for 10000 cycles");
    }

    /// Allocates a scratchpad cell to `owner` via the arbiter port
    /// (retags and wipes the cell). One cycle.
    pub fn alloc_cell(&mut self, cell: usize, owner: Label) {
        self.clear_cycle_inputs();
        self.sim.set("alloc_we", 1);
        self.sim.set("alloc_cell", cell as u128);
        self.sim
            .set("alloc_tag", u128::from(SecurityTag::from(owner).bits()));
        self.finish_cycle();
    }

    /// Writes one 64-bit scratchpad cell on behalf of `writer`. One cycle.
    /// On the protected design the hardware tag check may silently block
    /// the write.
    pub fn write_key_cell(&mut self, cell: usize, data: u64, writer: Label) {
        self.clear_cycle_inputs();
        self.sim.set("key_we", 1);
        self.sim.set("key_cell", cell as u128);
        self.sim.set("key_data", u128::from(data));
        self.sim.set_label("key_data", writer);
        self.sim
            .set("key_wr_tag", u128::from(SecurityTag::from(writer).bits()));
        self.finish_cycle();
    }

    /// Allocates and loads a full 128-bit key into `slot` on behalf of
    /// `owner` (four cycles).
    pub fn load_key(&mut self, slot: usize, key: [u8; 16], owner: Label) {
        assert!(slot < 4, "four key slots");
        assert!(
            slot != MASTER_KEY_SLOT || owner == Label::SECRET_TRUSTED,
            "only the supervisor may touch the master-key slot"
        );
        let hi = u64::from_be_bytes(key[..8].try_into().expect("8 bytes"));
        let lo = u64::from_be_bytes(key[8..].try_into().expect("8 bytes"));
        self.alloc_cell(2 * slot, owner);
        self.alloc_cell(2 * slot + 1, owner);
        self.write_key_cell(2 * slot, hi, owner);
        self.write_key_cell(2 * slot + 1, lo, owner);
        // Let the decrypt-key preparation unit finish expanding RK10
        // into the decrypt scratchpad before the key is used.
        self.idle(14);
    }

    /// Writes the configuration register on behalf of `writer`. One cycle.
    pub fn write_cfg(&mut self, value: u8, writer: Label) {
        self.clear_cycle_inputs();
        self.sim.set("cfg_we", 1);
        self.sim.set("cfg_data", u128::from(value));
        self.sim.set_label(
            "cfg_data",
            Label::new(Label::PUBLIC_TRUSTED.conf, writer.integ),
        );
        self.sim.set(
            "cfg_wr_tag",
            u128::from(
                SecurityTag::from(Label::new(Label::PUBLIC_TRUSTED.conf, writer.integ)).bits(),
            ),
        );
        self.finish_cycle();
    }

    /// The configuration register's current value.
    pub fn cfg(&mut self) -> u8 {
        self.sim.peek("cfg_out") as u8
    }

    /// Reads the debug port at `sel` on behalf of `reader`. Returns the
    /// probed value if the SoC access gate ([`debug_port_admits`])
    /// permits it.
    pub fn read_debug(&mut self, sel: u32, reader: Label) -> Option<[u8; 16]> {
        self.clear_cycle_inputs();
        self.sim.set("dbg_sel", u128::from(sel));
        let value = self.sim.peek("dbg_out");
        self.finish_cycle();
        debug_port_admits(self.sim.netlist(), reader).then(|| u128_to_block(value))
    }

    /// Number of in-flight requests.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Runs idle cycles until every in-flight request has completed or
    /// been rejected (up to `max_cycles`).
    ///
    /// # Panics
    ///
    /// Panics if requests remain in flight after `max_cycles`.
    pub fn drain(&mut self, max_cycles: u64) {
        for _ in 0..max_cycles {
            if self.pending.is_empty() {
                return;
            }
            self.idle_cycle();
        }
        assert!(
            self.pending.is_empty(),
            "requests still in flight after {max_cycles} cycles"
        );
    }

    /// The hardware's dropped-output counter (buffer overflow).
    pub fn drop_count(&mut self) -> u16 {
        self.sim.peek("drop_count") as u16
    }

    /// The hardware's nonmalleable-rejection counter.
    pub fn nm_reject_count(&mut self) -> u16 {
        self.sim.peek("nm_reject_count") as u16
    }
}
