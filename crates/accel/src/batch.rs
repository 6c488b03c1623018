//! The transaction driver on the lane-batched tape engine.
//!
//! [`BatchedDriver`] is the one [`Driver`] protocol on a
//! [`BatchedSim`]: every lane is an independent accelerator session (own
//! keys, own request stream, own responses and violation stream), but
//! all lanes share the clock and advance through one tape pass per
//! cycle. Per-lane results from a symmetric workload match what a
//! one-lane driver on the [`Simulator`](sim::Simulator) oracle reports
//! for the same stimulus — the `accel::fleet` tests assert exactly that.

use hdl::{Netlist, NodeId, Value};
use ifc_lattice::Label;
use sim::{BatchedSim, RuntimeViolation, TrackMode};

use crate::driver::{Driver, LanePorts};

/// The transaction driver on the tape engine, one session per lane.
pub type BatchedDriver = Driver<BatchedSim>;

// The per-cycle methods are `#[inline]`: the farm and the fuzz replay
// drive them every cycle from other crates.
impl LanePorts for BatchedSim {
    #[inline]
    fn lanes(&self) -> usize {
        BatchedSim::lanes(self)
    }
    #[inline]
    fn cycle(&self) -> u64 {
        BatchedSim::cycle(self)
    }
    #[inline]
    fn tick(&mut self) {
        BatchedSim::tick(self);
    }
    #[inline]
    fn netlist(&self) -> &Netlist {
        BatchedSim::netlist(self)
    }
    #[inline]
    fn set_node(&mut self, lane: usize, id: NodeId, value: Value) {
        BatchedSim::set_node(self, lane, id, value);
    }
    #[inline]
    fn set_node_label(&mut self, lane: usize, id: NodeId, label: Label) {
        BatchedSim::set_node_label(self, lane, id, label);
    }
    #[inline]
    fn peek_node(&mut self, lane: usize, id: NodeId) -> Value {
        BatchedSim::peek_node(self, lane, id)
    }
    fn peek(&mut self, lane: usize, name: &str) -> Value {
        BatchedSim::peek(self, lane, name)
    }
    #[inline]
    fn violations(&self, lane: usize) -> &[RuntimeViolation] {
        BatchedSim::violations(self, lane)
    }
    fn set_mem_cell_label(&mut self, lane: usize, mem: usize, addr: usize, label: Label) {
        BatchedSim::set_mem_cell_label(self, lane, mem, addr, label);
    }
    fn fold_label_plane(&mut self, lane: usize, acc: &mut [Label]) {
        BatchedSim::fold_label_plane(self, lane, acc);
    }
    fn fold_mem_labels(&mut self, lane: usize, acc: &mut [Label]) {
        BatchedSim::fold_mem_labels(self, lane, acc);
    }
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
    pub fn from_netlist(net: Netlist, mode: TrackMode, lanes: usize) -> BatchedDriver {
        Driver::from_engine(BatchedSim::with_tracking(net, mode, lanes))
    }

    /// Wraps an already-constructed batched simulator (so one prototype
    /// can share its compiled program with every batch, or a caller can
    /// pick its optimizer passes).
    ///
    /// # Panics
    ///
    /// Panics if the design lacks one of the accelerator's ports.
    #[must_use]
    pub fn from_batched(sim: BatchedSim) -> BatchedDriver {
        Driver::from_engine(sim)
    }
}
