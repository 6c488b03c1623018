//! Structural FPGA area and timing estimation.
//!
//! The paper's Table 2 reports Vivado post-implementation numbers on a
//! Virtex-7. Without Vivado, this crate estimates the same four quantities
//! (LUTs, flip-flops, block RAMs, Fmax) *structurally* from the lowered
//! netlist, with documented, deterministic mapping rules:
//!
//! * **FFs** — sum of register widths.
//! * **LUTs** — per-node 6-LUT costs (bitwise ops pack two 2-input gates
//!   per LUT; adders use the carry chain at one LUT per bit; wide
//!   equality folds through 6-input reduction; slices/concats are free
//!   wiring). Hold muxes synthesised by `when` lowering that feed a
//!   register's own next-value map to the flip-flop's clock-enable pin and
//!   cost nothing.
//! * **BRAMs** — each memory needs `ceil(bits / 18 Kib)` BRAM18 *per port
//!   pair*; small arrays still occupy one. Reported in BRAM18 units.
//! * **Fmax** — longest combinational path in weighted logic levels,
//!   linearly calibrated against an anchor design (the baseline
//!   accelerator at 400 MHz, the paper's operating point). Identical
//!   depths therefore reproduce the paper's "no impact on the critical
//!   path".
//!
//! Absolute values will differ from Vivado's (placement, routing, and
//! LUT packing are not modelled); the *relative* overhead between two
//! designs on the same rules — which is what Table 2's comparison shows —
//! is meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hdl::{BinOp, Netlist, Node, NodeId, UnOp};

/// Structural resource estimate for one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Estimated 6-input look-up tables.
    pub luts: usize,
    /// Flip-flops (register bits).
    pub ffs: usize,
    /// BRAM18 blocks.
    pub bram18: usize,
    /// Longest combinational path, in weighted logic levels.
    pub logic_levels: u32,
}

impl AreaReport {
    /// Relative overhead of `self` versus a baseline, as a fraction
    /// (`0.056` = +5.6 %).
    #[must_use]
    pub fn overhead_vs(&self, base: &AreaReport) -> Overheads {
        let pct = |a: usize, b: usize| {
            if b == 0 {
                0.0
            } else {
                a as f64 / b as f64 - 1.0
            }
        };
        Overheads {
            luts: pct(self.luts, base.luts),
            ffs: pct(self.ffs, base.ffs),
            bram18: pct(self.bram18, base.bram18),
            levels: pct(self.logic_levels as usize, base.logic_levels as usize),
        }
    }
}

/// Relative overheads between two designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// LUT overhead fraction.
    pub luts: f64,
    /// FF overhead fraction.
    pub ffs: f64,
    /// BRAM overhead fraction.
    pub bram18: f64,
    /// Logic-level (critical-path) overhead fraction.
    pub levels: f64,
}

/// Frequency calibration: a known design depth anchored to a known clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The anchor design's logic levels.
    pub anchor_levels: u32,
    /// The anchor design's clock in MHz (the paper's 400 MHz baseline).
    pub anchor_mhz: f64,
}

impl Calibration {
    /// Estimated Fmax of a design with `levels` logic levels.
    #[must_use]
    pub fn fmax_mhz(&self, levels: u32) -> f64 {
        self.anchor_mhz * f64::from(self.anchor_levels) / f64::from(levels.max(1))
    }
}

/// Per-node LUT cost under the documented mapping rules.
fn lut_cost(net: &Netlist, id: NodeId) -> usize {
    let width = |n: NodeId| usize::from(node_width(net, n));
    match net.node(id) {
        Node::Input { .. }
        | Node::Const { .. }
        | Node::Wire { .. }
        | Node::Reg { .. }
        | Node::MemRead { .. }
        | Node::Slice { .. }
        | Node::Cat { .. }
        // Downgrade nodes are label-plane constructs: the data passes
        // through as wiring.
        | Node::Declassify { .. }
        | Node::Endorse { .. } => 0,
        Node::Unary { op, a } => match op {
            // Inverters fuse into downstream LUTs.
            UnOp::Not => 0,
            // A reduction tree over w bits through 6-input LUTs.
            UnOp::ReduceOr | UnOp::ReduceAnd | UnOp::ReduceXor => reduction_luts(width(*a)),
        },
        Node::Binary { op, a, .. } => {
            let w = width(*a);
            match op {
                // Two 2-input gates pack per LUT on average.
                BinOp::And | BinOp::Or | BinOp::Xor => w.div_ceil(2),
                // Carry chain: one LUT per bit.
                BinOp::Add | BinOp::Sub => w,
                // Per-bit XNOR then a reduction tree.
                BinOp::Eq | BinOp::Ne => w.div_ceil(2) + reduction_luts(w),
                // Comparators use the carry chain.
                BinOp::Lt | BinOp::Ge => w,
                // Tag operators work on two 4-bit nibbles.
                BinOp::TagLeq => 4,
                BinOp::TagJoin | BinOp::TagMeet => 8,
            }
        }
        Node::Mux { sel: _, t, f } => {
            // A hold mux feeding its own register's next value maps to the
            // flip-flop clock-enable.
            if is_hold_mux(net, id, *f) {
                0
            } else {
                // 2:1 mux per bit; two per LUT6.
                width(*t).div_ceil(2)
            }
        }
    }
}

/// LUTs in a 6-input reduction tree over `w` bits.
fn reduction_luts(w: usize) -> usize {
    let mut total = 0;
    let mut remaining = w;
    while remaining > 1 {
        let level = remaining.div_ceil(6);
        total += level;
        remaining = level;
    }
    total
}

/// Whether `mux_id` is a hold mux: its false-arm is a register whose next
/// value is this mux (the `when` lowering idiom for clock enables).
fn is_hold_mux(net: &Netlist, mux_id: NodeId, false_arm: NodeId) -> bool {
    matches!(net.node(false_arm), Node::Reg { .. })
        && net.reg_next[false_arm.index()] == Some(mux_id)
}

fn node_width(net: &Netlist, id: NodeId) -> u16 {
    match net.node(id) {
        Node::Input { width }
        | Node::Const { width, .. }
        | Node::Wire { width, .. }
        | Node::Reg { width, .. } => *width,
        Node::MemRead { mem, .. } => net.mems[mem.index()].width,
        Node::Unary { op: UnOp::Not, a } => node_width(net, *a),
        Node::Unary { .. } => 1,
        Node::Binary { op, a, .. } => match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::TagLeq => 1,
            _ => node_width(net, *a),
        },
        Node::Mux { t, .. } => node_width(net, *t),
        Node::Slice { hi, lo, .. } => hi - lo + 1,
        Node::Cat { hi, lo } => node_width(net, *hi) + node_width(net, *lo),
        Node::Declassify { data, .. } | Node::Endorse { data, .. } => node_width(net, *data),
    }
}

/// Per-node delay weight for the critical-path estimate (in LUT-delay
/// units; a BRAM access costs about two).
fn delay_weight(net: &Netlist, id: NodeId) -> u32 {
    match net.node(id) {
        Node::MemRead { .. } => 2,
        Node::Mux { f, .. } if is_hold_mux(net, id, *f) => 0,
        _ if lut_cost(net, id) > 0 => 1,
        _ => 0,
    }
}

/// Estimates area and critical path for a lowered netlist.
#[must_use]
pub fn estimate(net: &Netlist) -> AreaReport {
    let mut luts = 0usize;
    let mut ffs = 0usize;
    for id in net.node_ids() {
        luts += lut_cost(net, id);
        if let Node::Reg { width, .. } = net.node(id) {
            ffs += usize::from(*width);
        }
    }

    // BRAM mapping: ceil(bits / 18 Kib) per dual-port pair.
    let mut ports_per_mem = vec![0usize; net.mems.len()];
    for id in net.node_ids() {
        if let Node::MemRead { mem, .. } = net.node(id) {
            ports_per_mem[mem.index()] += 1;
        }
    }
    for wp in &net.write_ports {
        ports_per_mem[wp.mem.index()] += 1;
    }
    let mut bram18 = 0usize;
    for (mem, ports) in net.mems.iter().zip(&ports_per_mem) {
        let bits = mem.depth * usize::from(mem.width);
        let per_pair = bits.div_ceil(18 * 1024).max(1);
        let pairs = ports.div_ceil(2).max(1);
        bram18 += per_pair * pairs;
    }

    // Longest weighted combinational path over the topological order.
    let mut depth = vec![0u32; net.nodes.len()];
    let mut worst = 0u32;
    for &id in &net.topo {
        let idx = id.index();
        let mut input_depth = 0u32;
        let mut visit = |n: NodeId| input_depth = input_depth.max(depth[n.index()]);
        match net.node(id) {
            Node::Reg { .. } | Node::Input { .. } | Node::Const { .. } => {}
            Node::Wire { .. } => {
                if let Some(d) = net.wire_driver[idx] {
                    visit(d);
                }
            }
            other => {
                for op in other.operands() {
                    visit(op);
                }
            }
        }
        depth[idx] = input_depth + delay_weight(net, id);
        worst = worst.max(depth[idx]);
    }

    AreaReport {
        luts,
        ffs,
        bram18,
        logic_levels: worst,
    }
}

/// Area attributed to one hierarchy group (a dotted-name prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupArea {
    /// Group name (first dotted component of node names; `<top>` for
    /// unscoped logic).
    pub group: String,
    /// Flip-flop bits whose registers live in this group.
    pub ffs: usize,
    /// LUTs of combinational nodes attributed to this group.
    pub luts: usize,
    /// BRAM18 of memories named in this group.
    pub bram18: usize,
}

/// Splits the estimate by hierarchy: registers and memories are
/// attributed by the first dotted component of their names; anonymous
/// combinational logic is attributed to the group of the nearest named
/// node *using* it (falling back to `<top>`).
#[must_use]
pub fn estimate_by_group(net: &Netlist) -> Vec<GroupArea> {
    use std::collections::HashMap;

    let group_of = |name: Option<&str>| -> String {
        match name {
            Some(n) => n.split('.').next().unwrap_or(n).to_owned(),
            None => "<top>".to_owned(),
        }
    };

    // Attribute anonymous nodes to the group of the named node they feed,
    // by reverse-propagating group ownership from named nodes.
    let n = net.nodes.len();
    let mut owner: Vec<Option<String>> = (0..n)
        .map(|i| net.names[i].as_ref().map(|s| group_of(Some(s))))
        .collect();
    // Output ports own their driving cones (useful for interface logic
    // like the debug mux tree).
    for p in &net.outputs {
        if owner[p.node.index()].is_none() {
            owner[p.node.index()] = Some(group_of(Some(&p.name)));
        }
    }
    // Registers own their next-state expressions.
    for id in net.node_ids() {
        if let Some(next) = net.reg_next[id.index()] {
            if owner[next.index()].is_none() {
                owner[next.index()] = owner[id.index()].clone();
            }
        }
    }
    // Memory write ports belong to their memory's group.
    for wp in &net.write_ports {
        let group = group_of(Some(&net.mems[wp.mem.index()].name));
        for n in [wp.en, wp.addr, wp.data] {
            if owner[n.index()].is_none() {
                owner[n.index()] = Some(group.clone());
            }
        }
    }
    // Walk the topological order backwards so consumers assign producers.
    for &id in net.topo.iter().rev() {
        if let Some(group) = owner[id.index()].clone() {
            let assign = |op: NodeId, owner: &mut Vec<Option<String>>| {
                if owner[op.index()].is_none() {
                    owner[op.index()] = Some(group.clone());
                }
            };
            match net.node(id) {
                Node::Wire { .. } => {
                    if let Some(d) = net.wire_driver[id.index()] {
                        assign(d, &mut owner);
                    }
                }
                other => {
                    for op in other.operands() {
                        assign(op, &mut owner);
                    }
                }
            }
        }
    }
    let mut groups: HashMap<String, GroupArea> = HashMap::new();
    fn touch(groups: &mut HashMap<String, GroupArea>, name: String) -> &mut GroupArea {
        groups.entry(name.clone()).or_insert(GroupArea {
            group: name,
            ffs: 0,
            luts: 0,
            bram18: 0,
        })
    }
    for id in net.node_ids() {
        let group = owner[id.index()].clone().unwrap_or_else(|| "<top>".into());
        let entry = touch(&mut groups, group);
        entry.luts += lut_cost(net, id);
        if let Node::Reg { width, .. } = net.node(id) {
            entry.ffs += usize::from(*width);
        }
    }
    // BRAM per memory, port-pair rule as in `estimate`.
    let mut ports_per_mem = vec![0usize; net.mems.len()];
    for id in net.node_ids() {
        if let Node::MemRead { mem, .. } = net.node(id) {
            ports_per_mem[mem.index()] += 1;
        }
    }
    for wp in &net.write_ports {
        ports_per_mem[wp.mem.index()] += 1;
    }
    for (mem, ports) in net.mems.iter().zip(&ports_per_mem) {
        let bits = mem.depth * usize::from(mem.width);
        let per_pair = bits.div_ceil(18 * 1024).max(1);
        let pairs = ports.div_ceil(2).max(1);
        let entry = touch(&mut groups, group_of(Some(&mem.name)));
        entry.bram18 += per_pair * pairs;
    }

    let mut out: Vec<GroupArea> = groups.into_values().collect();
    // Ties break by name: the map's iteration order is random.
    out.sort_by(|a, b| {
        (b.luts + b.ffs)
            .cmp(&(a.luts + a.ffs))
            .then_with(|| a.group.cmp(&b.group))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;

    #[test]
    fn counts_register_bits() {
        let mut m = ModuleBuilder::new("t");
        let r = m.reg("r", 17, 0);
        m.output("r", r);
        let report = estimate(&m.finish().lower().unwrap());
        assert_eq!(report.ffs, 17);
        assert_eq!(report.luts, 0);
    }

    #[test]
    fn hold_mux_is_free() {
        let mut m = ModuleBuilder::new("t");
        let en = m.input("en", 1);
        let d = m.input("d", 8);
        let r = m.reg("r", 8, 0);
        m.when(en, |m| m.connect(r, d));
        m.output("r", r);
        let report = estimate(&m.finish().lower().unwrap());
        // The enable mux costs nothing (CE pin).
        assert_eq!(report.luts, 0);
    }

    #[test]
    fn xor_packs_two_bits_per_lut() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 128);
        let b = m.input("b", 128);
        let x = m.xor(a, b);
        m.output("x", x);
        let report = estimate(&m.finish().lower().unwrap());
        assert_eq!(report.luts, 64);
        assert_eq!(report.logic_levels, 1);
    }

    #[test]
    fn memory_needs_at_least_one_bram_per_port_pair() {
        let mut m = ModuleBuilder::new("t");
        let a0 = m.input("a0", 8);
        let a1 = m.input("a1", 8);
        let a2 = m.input("a2", 8);
        let rom = m.mem("rom", 8, 256, vec![0; 256]);
        let r0 = m.mem_read(rom, a0);
        let r1 = m.mem_read(rom, a1);
        let r2 = m.mem_read(rom, a2);
        m.output("r0", r0);
        m.output("r1", r1);
        m.output("r2", r2);
        let report = estimate(&m.finish().lower().unwrap());
        // Three ports → two port pairs → two BRAM18 (2 Kib contents).
        assert_eq!(report.bram18, 2);
    }

    #[test]
    fn calibration_reproduces_anchor() {
        let cal = Calibration {
            anchor_levels: 10,
            anchor_mhz: 400.0,
        };
        assert!((cal.fmax_mhz(10) - 400.0).abs() < 1e-9);
        assert!((cal.fmax_mhz(20) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn group_breakdown_attributes_hierarchy() {
        let mut m = ModuleBuilder::new("t");
        let d = m.input("d", 8);
        m.scope("engine", |m| {
            let r = m.reg("state", 8, 0);
            let x = m.xor(r, d);
            m.connect(r, x);
            m.output("state", r);
        });
        for scope in ["iface", "aux"] {
            m.scope(scope, |m| {
                let q = m.reg("q", 4, 0);
                m.output("q", q);
            });
        }
        let net = m.finish().lower().unwrap();
        let groups = estimate_by_group(&net);
        // Largest first; equal-sized groups in name order.
        let order: Vec<&str> = groups.iter().map(|g| g.group.as_str()).collect();
        assert_eq!(order[..3], ["engine", "aux", "iface"]);
        let engine = groups.iter().find(|g| g.group == "engine").unwrap();
        assert_eq!(engine.ffs, 8);
        assert!(engine.luts >= 4, "the xor belongs to the engine");
        let iface = groups.iter().find(|g| g.group == "iface").unwrap();
        assert_eq!(iface.ffs, 4);
        // Totals across groups match the flat estimate.
        let flat = estimate(&net);
        assert_eq!(groups.iter().map(|g| g.ffs).sum::<usize>(), flat.ffs);
        assert_eq!(groups.iter().map(|g| g.luts).sum::<usize>(), flat.luts);
        assert_eq!(groups.iter().map(|g| g.bram18).sum::<usize>(), flat.bram18);
    }

    #[test]
    fn deeper_logic_reports_more_levels() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let mut acc = m.xor(a, b);
        for _ in 0..5 {
            acc = m.add(acc, b);
        }
        m.output("acc", acc);
        let report = estimate(&m.finish().lower().unwrap());
        assert_eq!(report.logic_levels, 6);
    }
}
