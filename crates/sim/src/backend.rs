//! The backend abstraction shared by the interpreting and compiled
//! simulators.
//!
//! Drivers, tests, and attack harnesses that only need the common
//! drive/eval/tick protocol can be generic over [`SimBackend`] and run
//! unchanged against either engine: [`Simulator`] (the readable
//! reference oracle) or [`CompiledSim`] (the throughput backend). The
//! differential suites rely on this to execute identical stimulus
//! against both and compare values, labels, and violation streams.

use hdl::{Netlist, NodeId, Value};
use ifc_lattice::Label;

use crate::violation::RuntimeViolation;
use crate::{CompiledSim, Simulator, TrackMode};

/// One backend's hooks into the shared settled-state/violation-cap run
/// loop.
///
/// Every backend advances the clock the same way: a settled eval lets the
/// tape be skipped (only the downgrade gates and release checks re-run),
/// a dirty state re-derives the remaining violation room and executes a
/// recording propagation, and the steady-state portion of a multi-cycle
/// run never re-checks the settled flag. [`tick_engine`] and
/// [`run_engine`] encode that shape once; `Simulator`, `CompiledSim`,
/// and `BatchedSim` supply only the backend-specific pieces.
pub(crate) trait RunEngine {
    /// Whether a prior `eval` already settled the current inputs.
    fn is_clean(&self) -> bool;
    /// Marks combinational state stale (a clock edge is about to run).
    fn set_dirty(&mut self);
    /// Re-derives the remaining violation room from the cap.
    fn refresh_room(&mut self);
    /// Re-runs only the violation scan over settled state.
    fn settled_scan(&mut self);
    /// One recording combinational propagation.
    fn exec_record(&mut self);
    /// The clock edge: registers, memory write ports, cycle counter.
    fn edge(&mut self);
}

/// One clock cycle through a [`RunEngine`]: the settled fast path skips
/// the tape and re-runs only the violation scan; otherwise the violation
/// room is refreshed and a recording propagation executes. Either way the
/// state is marked dirty and the clock edge fires.
pub(crate) fn tick_engine<E: RunEngine>(engine: &mut E) {
    if engine.is_clean() {
        engine.settled_scan();
    } else {
        engine.refresh_room();
        engine.exec_record();
    }
    engine.set_dirty();
    engine.edge();
}

/// `n` clock cycles through a [`RunEngine`]. The first cycle honours a
/// settled eval exactly like [`tick_engine`]; the steady state skips the
/// settled check (nothing settles mid-run) and re-derives the violation
/// room once instead of per tick.
pub(crate) fn run_engine<E: RunEngine>(engine: &mut E, n: u64) {
    if n == 0 {
        return;
    }
    tick_engine(engine);
    engine.refresh_room();
    for _ in 1..n {
        engine.exec_record();
        engine.edge();
    }
}

/// The common simulation interface both backends implement.
///
/// Semantics are specified by [`Simulator`]'s documentation; any backend
/// implementing this trait must match the interpreter's observable
/// behaviour exactly (values, labels, cycle counts, and the recorded
/// violation stream).
pub trait SimBackend {
    /// Builds a backend instance for a lowered netlist in the given
    /// tracking mode.
    fn from_netlist(net: Netlist, mode: TrackMode) -> Self
    where
        Self: Sized;

    /// The wrapped netlist.
    fn netlist(&self) -> &Netlist;

    /// The tracking mode this backend runs.
    fn mode(&self) -> TrackMode;

    /// Drives an input port by name.
    fn set(&mut self, name: &str, value: Value);

    /// Sets the runtime label accompanying an input's data.
    fn set_label(&mut self, name: &str, label: Label);

    /// Reads a signal's settled value by port or node name.
    fn peek(&mut self, name: &str) -> Value;

    /// Reads a signal's settled runtime label.
    fn peek_label(&mut self, name: &str) -> Label;

    /// Settles combinational logic for the current inputs.
    fn eval(&mut self);

    /// Advances one clock cycle.
    fn tick(&mut self);

    /// Runs `n` clock cycles with the current inputs.
    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// The current cycle count.
    fn cycle(&self) -> u64;

    /// All violations the tracking logic has raised so far.
    fn violations(&self) -> &[RuntimeViolation];

    /// Whether violations were dropped at the configured cap.
    fn violations_truncated(&self) -> bool;

    /// Bounds the recorded violation stream.
    fn set_violation_cap(&mut self, cap: usize);

    /// Finds a memory's index by its declared name.
    fn mem_index(&self, name: &str) -> Option<usize>;

    /// Reads a memory cell directly.
    fn mem_cell(&self, mem: usize, addr: usize) -> Value;

    /// Reads a memory cell's runtime label directly.
    fn mem_cell_label(&self, mem: usize, addr: usize) -> Label;

    /// Sets a memory cell's runtime label directly (provisioned secrets).
    fn set_mem_cell_label(&mut self, mem: usize, addr: usize, label: Label);

    /// Reads a node's settled runtime label by id.
    fn peek_node_label(&mut self, id: NodeId) -> Label;

    /// Joins the settled runtime label of every node into `acc`, indexed
    /// by [`NodeId::index`]. The static/dynamic lint cross-check samples
    /// this each cycle to build the observed tag plane.
    fn fold_label_plane(&mut self, acc: &mut [Label]) {
        let n = self.netlist().node_count();
        assert_eq!(acc.len(), n, "accumulator must cover every node");
        for (i, slot) in acc.iter_mut().enumerate() {
            let label = self.peek_node_label(NodeId::from_raw(i as u32));
            *slot = slot.join(label);
        }
    }

    /// Joins every memory cell's runtime label into `acc`, summarised
    /// per array (one join over all cells), indexed by memory index.
    fn fold_mem_labels(&mut self, acc: &mut [Label]) {
        let depths: Vec<usize> = self.netlist().mems.iter().map(|m| m.depth).collect();
        assert_eq!(
            acc.len(),
            depths.len(),
            "accumulator must cover every memory"
        );
        for (mem, depth) in depths.into_iter().enumerate() {
            for addr in 0..depth {
                acc[mem] = acc[mem].join(self.mem_cell_label(mem, addr));
            }
        }
    }
}

impl SimBackend for Simulator {
    fn from_netlist(net: Netlist, mode: TrackMode) -> Simulator {
        Simulator::with_tracking(net, mode)
    }

    fn netlist(&self) -> &Netlist {
        Simulator::netlist(self)
    }

    fn mode(&self) -> TrackMode {
        Simulator::mode(self)
    }

    fn set(&mut self, name: &str, value: Value) {
        Simulator::set(self, name, value);
    }

    fn set_label(&mut self, name: &str, label: Label) {
        Simulator::set_label(self, name, label);
    }

    fn peek(&mut self, name: &str) -> Value {
        Simulator::peek(self, name)
    }

    fn peek_label(&mut self, name: &str) -> Label {
        Simulator::peek_label(self, name)
    }

    fn eval(&mut self) {
        Simulator::eval(self);
    }

    fn tick(&mut self) {
        Simulator::tick(self);
    }

    fn run(&mut self, n: u64) {
        Simulator::run(self, n);
    }

    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    fn violations(&self) -> &[RuntimeViolation] {
        Simulator::violations(self)
    }

    fn violations_truncated(&self) -> bool {
        Simulator::violations_truncated(self)
    }

    fn set_violation_cap(&mut self, cap: usize) {
        Simulator::set_violation_cap(self, cap);
    }

    fn mem_index(&self, name: &str) -> Option<usize> {
        Simulator::mem_index(self, name)
    }

    fn mem_cell(&self, mem: usize, addr: usize) -> Value {
        Simulator::mem_cell(self, mem, addr)
    }

    fn mem_cell_label(&self, mem: usize, addr: usize) -> Label {
        Simulator::mem_cell_label(self, mem, addr)
    }

    fn set_mem_cell_label(&mut self, mem: usize, addr: usize, label: Label) {
        Simulator::set_mem_cell_label(self, mem, addr, label);
    }

    fn peek_node_label(&mut self, id: NodeId) -> Label {
        Simulator::peek_node_label(self, id)
    }
}

impl SimBackend for CompiledSim {
    fn from_netlist(net: Netlist, mode: TrackMode) -> CompiledSim {
        CompiledSim::with_tracking(net, mode)
    }

    fn netlist(&self) -> &Netlist {
        CompiledSim::netlist(self)
    }

    fn mode(&self) -> TrackMode {
        CompiledSim::mode(self)
    }

    fn set(&mut self, name: &str, value: Value) {
        CompiledSim::set(self, name, value);
    }

    fn set_label(&mut self, name: &str, label: Label) {
        CompiledSim::set_label(self, name, label);
    }

    fn peek(&mut self, name: &str) -> Value {
        CompiledSim::peek(self, name)
    }

    fn peek_label(&mut self, name: &str) -> Label {
        CompiledSim::peek_label(self, name)
    }

    fn eval(&mut self) {
        CompiledSim::eval(self);
    }

    fn tick(&mut self) {
        CompiledSim::tick(self);
    }

    fn run(&mut self, n: u64) {
        // Forward to the hoisted run loop (mode dispatched once, settled
        // check on the first iteration only, violation cap re-derived per
        // run) instead of the default per-tick loop.
        CompiledSim::run(self, n);
    }

    fn cycle(&self) -> u64 {
        CompiledSim::cycle(self)
    }

    fn violations(&self) -> &[RuntimeViolation] {
        CompiledSim::violations(self)
    }

    fn violations_truncated(&self) -> bool {
        CompiledSim::violations_truncated(self)
    }

    fn set_violation_cap(&mut self, cap: usize) {
        CompiledSim::set_violation_cap(self, cap);
    }

    fn mem_index(&self, name: &str) -> Option<usize> {
        CompiledSim::mem_index(self, name)
    }

    fn mem_cell(&self, mem: usize, addr: usize) -> Value {
        CompiledSim::mem_cell(self, mem, addr)
    }

    fn mem_cell_label(&self, mem: usize, addr: usize) -> Label {
        CompiledSim::mem_cell_label(self, mem, addr)
    }

    fn set_mem_cell_label(&mut self, mem: usize, addr: usize, label: Label) {
        CompiledSim::set_mem_cell_label(self, mem, addr, label);
    }

    fn peek_node_label(&mut self, id: NodeId) -> Label {
        CompiledSim::peek_node_label(self, id)
    }
}
