//! The tag-plane flight recorder: a per-lane ring of the last K cycles
//! of selected signals — values *and* security labels — dumped as a VCD
//! on a runtime violation.
//!
//! A [`FlightRecorder`] rides inside a lane engine and samples every
//! engine cycle straight from the [`BatchedSim`]'s settled state. When
//! a violation fires on a lane, [`trigger`](FlightRecorder::trigger)
//! arms a short post-roll; once it elapses the lane's ring is rendered
//! as a VCD document (absolute engine-cycle timestamps, parallel
//! `__label` traces) and pushed to the shared [`FlightSink`]. The result
//! answers "what was flowing through the pipeline when the tag check
//! tripped" without paying waveform-recording cost on every lane all the
//! time — only the bounded ring.

use std::sync::{Arc, Mutex};

use hdl::NodeId;
use ifc_lattice::SecurityTag;
use sim::{BatchedSim, VcdSignal, VcdTrace};

/// One signal the recorder samples.
#[derive(Debug, Clone)]
pub struct SignalDef {
    /// Display name in the dumped VCD.
    pub name: String,
    /// The netlist node to sample.
    pub node: NodeId,
    /// Bit width (for the VCD declaration).
    pub width: u16,
}

/// A rendered flight dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The lane that tripped.
    pub lane: usize,
    /// The engine cycle at which the trigger fired.
    pub trigger_cycle: u64,
    /// Why the dump was taken (violation rendering).
    pub reason: String,
    /// First engine cycle covered by the dump.
    pub first_cycle: u64,
    /// The VCD document (values + `__label` traces).
    pub vcd: String,
}

/// Bounded, shared collection of [`FlightDump`]s.
#[derive(Debug, Clone)]
pub struct FlightSink {
    inner: Arc<Mutex<SinkState>>,
}

#[derive(Debug)]
struct SinkState {
    dumps: Vec<FlightDump>,
    max: usize,
    dropped: u64,
}

impl FlightSink {
    /// A sink keeping at most `max` dumps (later dumps beyond the cap
    /// are counted and dropped — the *first* violations are the
    /// interesting ones).
    #[must_use]
    pub fn new(max: usize) -> FlightSink {
        FlightSink {
            inner: Arc::new(Mutex::new(SinkState {
                dumps: Vec::new(),
                max: max.max(1),
                dropped: 0,
            })),
        }
    }

    /// Stores a dump (or counts it as dropped at the cap).
    ///
    /// # Panics
    ///
    /// Panics if the sink mutex is poisoned.
    pub fn push(&self, dump: FlightDump) {
        let mut st = self.inner.lock().expect("flight sink poisoned");
        if st.dumps.len() < st.max {
            st.dumps.push(dump);
        } else {
            st.dropped += 1;
        }
    }

    /// Takes every stored dump, returning `(dumps, dropped_count)`.
    ///
    /// # Panics
    ///
    /// Panics if the sink mutex is poisoned.
    #[must_use]
    pub fn drain(&self) -> (Vec<FlightDump>, u64) {
        let mut st = self.inner.lock().expect("flight sink poisoned");
        (std::mem::take(&mut st.dumps), st.dropped)
    }
}

/// An armed post-roll: the trigger fired and we keep sampling a few more
/// cycles so the dump shows the aftermath, not just the lead-up.
#[derive(Debug, Clone)]
struct Pending {
    lane: usize,
    trigger_cycle: u64,
    reason: String,
    remaining: usize,
}

/// The per-engine recorder: flat per-lane rings of the last `depth`
/// samples of every configured signal.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    signals: Vec<SignalDef>,
    nodes: Vec<NodeId>,
    depth: usize,
    post_roll: usize,
    lanes: usize,
    /// `lanes * depth * signals` sample values, ring per lane.
    values: Vec<u128>,
    /// Packed label bits, same layout.
    labels: Vec<u8>,
    /// `lanes * depth` engine cycles, ring per lane.
    cycles: Vec<u64>,
    /// Per-lane ring occupancy (saturates at `depth`).
    filled: Vec<usize>,
    /// Per-lane next write slot.
    head: Vec<usize>,
    pending: Vec<Pending>,
    sink: FlightSink,
}

impl FlightRecorder {
    /// Creates a recorder for `lanes` lanes keeping `depth` samples per
    /// lane and sampling `post_roll` extra cycles after a trigger.
    #[must_use]
    pub fn new(
        signals: Vec<SignalDef>,
        lanes: usize,
        depth: usize,
        post_roll: usize,
        sink: FlightSink,
    ) -> FlightRecorder {
        let depth = depth.max(1);
        let n = signals.len();
        let nodes = signals.iter().map(|s| s.node).collect();
        FlightRecorder {
            signals,
            nodes,
            depth,
            post_roll,
            lanes,
            values: vec![0; lanes * depth * n],
            labels: vec![0; lanes * depth * n],
            cycles: vec![0; lanes * depth],
            filled: vec![0; lanes],
            head: vec![0; lanes],
            pending: Vec::new(),
            sink,
        }
    }

    /// The configured signals.
    #[must_use]
    pub fn signals(&self) -> &[SignalDef] {
        &self.signals
    }

    /// Takes one sample of every lane (call once per engine cycle, after
    /// the backend settles). Lane-count changes (repack) flush any armed
    /// post-rolls and reset the rings.
    pub fn sample(&mut self, sim: &mut BatchedSim) {
        if sim.lanes() != self.lanes {
            self.resize(sim.lanes());
        }
        let cycle = sim.cycle();
        let n = self.nodes.len();
        for lane in 0..self.lanes {
            let slot = self.head[lane];
            let base = (lane * self.depth + slot) * n;
            for (i, &id) in self.nodes.iter().enumerate() {
                self.values[base + i] = sim.peek_node(lane, id);
                self.labels[base + i] = SecurityTag::from(sim.peek_node_label(lane, id)).bits();
            }
            self.cycles[lane * self.depth + slot] = cycle;
            self.head[lane] = (slot + 1) % self.depth;
            self.filled[lane] = (self.filled[lane] + 1).min(self.depth);
        }
        // Service armed post-rolls now that this cycle is in the rings.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].remaining == 0 {
                let p = self.pending.swap_remove(i);
                self.dump(&p);
            } else {
                self.pending[i].remaining -= 1;
                i += 1;
            }
        }
    }

    /// Arms a dump of `lane`'s ring after the post-roll elapses. A lane
    /// with a dump already armed keeps the earlier trigger.
    pub fn trigger(&mut self, lane: usize, trigger_cycle: u64, reason: &str) {
        if self.pending.iter().any(|p| p.lane == lane) {
            return;
        }
        self.pending.push(Pending {
            lane,
            trigger_cycle,
            reason: reason.to_owned(),
            remaining: self.post_roll,
        });
    }

    /// Flushes armed post-rolls immediately (drain / repack boundary).
    pub fn flush(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for p in &pending {
            self.dump(p);
        }
    }

    fn resize(&mut self, lanes: usize) {
        self.flush();
        let n = self.nodes.len();
        self.lanes = lanes;
        self.values = vec![0; lanes * self.depth * n];
        self.labels = vec![0; lanes * self.depth * n];
        self.cycles = vec![0; lanes * self.depth];
        self.filled = vec![0; lanes];
        self.head = vec![0; lanes];
    }

    fn dump(&self, p: &Pending) {
        if p.lane >= self.lanes || self.filled[p.lane] == 0 {
            return;
        }
        let n = self.nodes.len();
        let filled = self.filled[p.lane];
        let defs = self
            .signals
            .iter()
            .map(|s| VcdSignal {
                name: s.name.clone(),
                width: s.width,
            })
            .collect();
        let mut trace = VcdTrace::new(defs, true);
        let mut first_cycle = 0;
        for k in 0..filled {
            // Oldest sample first: the ring's head points at the slot
            // that will be overwritten next, i.e. the oldest when full.
            let slot = (self.head[p.lane] + self.depth - filled + k) % self.depth;
            let base = (p.lane * self.depth + slot) * n;
            let cycle = self.cycles[p.lane * self.depth + slot];
            if k == 0 {
                first_cycle = cycle;
            }
            trace.push(
                cycle,
                &self.values[base..base + n],
                &self.labels[base..base + n],
            );
        }
        self.sink.push(FlightDump {
            lane: p.lane,
            trigger_cycle: p.trigger_cycle,
            reason: p.reason.clone(),
            first_cycle,
            vcd: trace.render(&format!("lane{}", p.lane)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;
    use ifc_lattice::Label;
    use sim::{OptConfig, TrackMode};

    fn counter_sim(lanes: usize) -> BatchedSim {
        let mut m = ModuleBuilder::new("c");
        let d = m.input("d", 8);
        let r = m.reg("r", 8, 0);
        m.connect(r, d);
        m.output("r", r);
        BatchedSim::with_tracking_opt(
            m.finish().lower().unwrap(),
            TrackMode::Precise,
            lanes,
            &OptConfig::default(),
        )
    }

    fn defs(sim: &BatchedSim) -> Vec<SignalDef> {
        ["d", "r"]
            .iter()
            .map(|name| {
                let node = sim
                    .netlist()
                    .input(name)
                    .or_else(|| sim.netlist().output(name))
                    .unwrap();
                SignalDef {
                    name: (*name).to_owned(),
                    node,
                    width: 8,
                }
            })
            .collect()
    }

    #[test]
    fn trigger_dumps_ring_with_labels_and_absolute_cycles() {
        let mut sim = counter_sim(2);
        let sink = FlightSink::new(4);
        let mut rec = FlightRecorder::new(defs(&sim), 2, 4, 2, sink.clone());
        for i in 0..10u32 {
            for lane in 0..2 {
                sim.set(lane, "d", u128::from(i) + u128::from(lane as u8) * 100);
                sim.set_label(lane, "d", Label::SECRET_TRUSTED);
            }
            sim.eval();
            rec.sample(&mut sim);
            if i == 6 {
                rec.trigger(1, sim.cycle(), "test violation");
            }
            sim.tick();
        }
        let (dumps, dropped) = sink.drain();
        assert_eq!(dropped, 0);
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.lane, 1);
        assert!(d.reason.contains("test violation"));
        let doc = sim::parse_vcd(&d.vcd).unwrap();
        assert_eq!(doc.module, "lane1");
        // d + d__label + r + r__label
        assert_eq!(doc.signals.len(), 4);
        // Ring depth 4: the dump covers 4 absolute cycles ending at the
        // post-roll.
        assert_eq!(doc.changes.first().unwrap().0, d.first_cycle);
        // (S,T) packs to 0xFF: the label plane is visible.
        assert!(d.vcd.contains("b11111111"));
    }

    #[test]
    fn lane_resize_flushes_and_resets() {
        let mut sim = counter_sim(2);
        let sink = FlightSink::new(4);
        let mut rec = FlightRecorder::new(defs(&sim), 2, 4, 8, sink.clone());
        sim.eval();
        rec.sample(&mut sim);
        rec.trigger(0, sim.cycle(), "pre-repack");
        // Repack to a different lane count: armed dump flushes.
        let mut wide = sim.with_lanes(4);
        wide.eval();
        rec.sample(&mut wide);
        let (dumps, _) = sink.drain();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "pre-repack");
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let sink = FlightSink::new(1);
        for i in 0..3 {
            sink.push(FlightDump {
                lane: i,
                trigger_cycle: 0,
                reason: String::new(),
                first_cycle: 0,
                vcd: String::new(),
            });
        }
        let (dumps, dropped) = sink.drain();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dropped, 2);
    }
}
