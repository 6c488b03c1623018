//! The lint pass manager and the five netlist verification passes.
//!
//! [`run_static_passes`] runs the four purely static passes over a
//! lowered [`Netlist`]; the fifth pass — the static/dynamic label
//! cross-check — needs runtime observations and is exposed as
//! [`crosscheck_findings`] over an [`ObservedPlane`] that a simulation
//! harness folds its per-node runtime labels into.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use hdl::{BinOp, Design, LabelExpr, Netlist, Node, NodeId};
use ifc_lattice::{Conf, Label, SecurityTag};

use super::engine::{comb_cone, Facts};
use super::findings::{Finding, LintReport, Severity};
use super::planes::{bound_plane, release_plane};
use crate::prover;

/// The five lint passes, with stable kebab-case keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PassId {
    /// Combinational-cycle detection with a cycle witness path.
    CombCycle,
    /// Secret-timing lint: control signals and stateful-memory addresses
    /// whose static label cone includes secret-confidentiality inputs,
    /// plus the structural stall-guard audit over tagged registers.
    SecretTiming,
    /// Declassify/endorse audit: every downgrade is reachable only under
    /// nonmalleability conditions, statically re-deriving what the
    /// runtime `TagLeq` checks enforce.
    DowngradeAudit,
    /// Static/dynamic label cross-check: the static bound plane must
    /// dominate every runtime tag observed by the simulators.
    LabelCrosscheck,
    /// Dead logic, unlabelled inputs/wires, and unlabelled releases.
    DeadLogic,
    /// Bit-precise noninterference prover: self-composition + SAT over
    /// every attacker observable, with counterexample synthesis. Opt-in
    /// (it is the one pass that can be expensive), run via
    /// [`prove_findings`].
    Prove,
}

impl PassId {
    /// The four passes that need nothing but the netlist.
    pub const STATIC: [PassId; 4] = [
        PassId::CombCycle,
        PassId::SecretTiming,
        PassId::DowngradeAudit,
        PassId::DeadLogic,
    ];

    /// All six passes.
    pub const ALL: [PassId; 6] = [
        PassId::CombCycle,
        PassId::SecretTiming,
        PassId::DowngradeAudit,
        PassId::DeadLogic,
        PassId::LabelCrosscheck,
        PassId::Prove,
    ];

    /// The stable key used in reports.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            PassId::CombCycle => "comb-cycle",
            PassId::SecretTiming => "secret-timing",
            PassId::DowngradeAudit => "downgrade-audit",
            PassId::LabelCrosscheck => "label-crosscheck",
            PassId::DeadLogic => "dead-logic",
            PassId::Prove => "prove",
        }
    }
}

/// Pass-manager configuration: per-pass severity overrides.
///
/// Each pass has built-in default severities for its findings; an
/// override forces every finding of that pass to the given severity
/// (e.g. demote `secret-timing` to `Warning` while a design is being
/// brought up, or promote `dead-logic` to `Error` in a cleanliness
/// gate).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: Vec<(PassId, Severity)>,
}

impl LintConfig {
    /// The default configuration: built-in severities, no overrides.
    #[must_use]
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Forces every finding of `pass` to `severity`.
    #[must_use]
    pub fn with_severity(mut self, pass: PassId, severity: Severity) -> LintConfig {
        self.overrides.retain(|(p, _)| *p != pass);
        self.overrides.push((pass, severity));
        self
    }

    /// The effective severity for a finding of `pass` whose built-in
    /// severity is `default`.
    #[must_use]
    pub fn severity(&self, pass: PassId, default: Severity) -> Severity {
        self.overrides
            .iter()
            .find(|(p, _)| *p == pass)
            .map_or(default, |(_, s)| *s)
    }
}

fn describe(net: &Netlist, id: NodeId) -> String {
    net.name_of(id)
        .map_or_else(|| format!("{id:?}"), str::to_owned)
}

fn emit(
    report: &mut LintReport,
    cfg: &LintConfig,
    pass: PassId,
    default: Severity,
    node: Option<String>,
    message: String,
) {
    report.findings.push(Finding {
        pass: pass.key().to_owned(),
        severity: cfg.severity(pass, default),
        node,
        message,
    });
}

/// Runs the four static passes over a lowered netlist.
///
/// Pass the originating [`Design`] when available: it enables the
/// statement-level diagnostics the netlist no longer carries (the
/// all-offenders unconstrained-wire scan). A netlist of unknown
/// provenance (e.g. a mutated one) can be linted with `design: None`.
#[must_use]
pub fn run_static_passes(design: Option<&Design>, net: &Netlist, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport {
        design: net.name.clone(),
        passes: PassId::STATIC.iter().map(|p| p.key().to_owned()).collect(),
        findings: Vec::new(),
    };

    // ----- pass 1: combinational cycles -----------------------------------
    if let Err(witness) = net.toposort() {
        let path: Vec<String> = witness.iter().map(|&id| describe(net, id)).collect();
        emit(
            &mut report,
            cfg,
            PassId::CombCycle,
            Severity::Error,
            Some(path[0].clone()),
            format!("combinational cycle: {}", path.join(" -> ")),
        );
    }

    // The worklist fixpoint converges on cyclic graphs too, so the label
    // planes (and the passes built on them) stay meaningful even when
    // pass 1 fired.
    let bound = bound_plane(net);

    secret_timing_pass(net, &bound, cfg, &mut report);
    downgrade_audit_pass(net, &bound, cfg, &mut report);
    dead_logic_pass(design, net, cfg, &mut report);

    report
}

// ---------------------------------------------------------------------------
// Pass 2: secret-timing lint
// ---------------------------------------------------------------------------

/// The multiplexer selects that decide whether `reg` updates or holds:
/// the sels of every mux on a path from the register's next-value
/// expression back to the register itself (the lowered form of guarded
/// `connect`s). Muxes whose arms never lead back to the register are
/// datapath selection, not update gating, and are excluded.
fn hold_gates(net: &Netlist, reg: NodeId) -> Vec<NodeId> {
    fn reaches(net: &Netlist, x: NodeId, reg: NodeId, memo: &mut HashMap<usize, bool>) -> bool {
        let x = net.resolve_driver(x);
        if x == reg {
            return true;
        }
        if let Some(&r) = memo.get(&x.index()) {
            return r;
        }
        memo.insert(x.index(), false);
        let r = if let Node::Mux { t, f, .. } = *net.node(x) {
            reaches(net, t, reg, memo) || reaches(net, f, reg, memo)
        } else {
            false
        };
        memo.insert(x.index(), r);
        r
    }

    let Some(next) = net.reg_next[reg.index()] else {
        return Vec::new();
    };
    let mut memo = HashMap::new();
    let mut gates = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = vec![next];
    while let Some(x) = stack.pop() {
        let x = net.resolve_driver(x);
        if !seen.insert(x.index()) {
            continue;
        }
        if let Node::Mux { sel, t, f } = *net.node(x) {
            if reaches(net, x, reg, &mut memo) {
                gates.push(sel);
                stack.push(t);
                stack.push(f);
            }
        }
    }
    gates
}

fn is_reg(net: &Netlist, id: NodeId) -> bool {
    matches!(net.node(id), Node::Reg { .. })
}

fn secret_timing_pass(
    net: &Netlist,
    bound: &Facts<Label>,
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    // (a) Control signals and stateful-memory addresses must have public
    // static confidentiality: a secret-dependent one modulates *when*
    // things happen, which is observable without reading any data port.
    // Combinational ROMs (memories with no write port) are exempt — a
    // same-cycle table lookup has no timing.
    let written: HashSet<usize> = net.write_ports.iter().map(|wp| wp.mem.index()).collect();
    let mut controls: BTreeMap<usize, (NodeId, &'static str)> = BTreeMap::new();
    let mut control = |net: &Netlist, id: NodeId, role: &'static str| {
        let key = net.resolve_driver(id).index();
        controls.entry(key).or_insert((id, role));
    };
    for id in net.node_ids() {
        if is_reg(net, id) {
            for gate in hold_gates(net, id) {
                control(net, gate, "register update gate");
            }
        }
        if let Node::MemRead { mem, addr } = *net.node(id) {
            if written.contains(&mem.index()) {
                control(net, addr, "memory read address");
            }
        }
    }
    for wp in &net.write_ports {
        control(net, wp.en, "memory write enable");
        control(net, wp.addr, "memory write address");
    }
    for &(id, role) in controls.values() {
        let fact = *bound.node(net.resolve_driver(id));
        if fact.conf != Conf::PUBLIC {
            emit(
                report,
                cfg,
                PassId::SecretTiming,
                Severity::Error,
                Some(describe(net, id)),
                format!(
                    "{role} {} has secret-confidentiality static label {fact}: \
                     its timing leaks secret data",
                    describe(net, id)
                ),
            );
        }
    }

    // (b) Structural stall-guard audit. Registers labelled `FromTag(t)`
    // form tagged pipelines; when several of them share an update gate,
    // that gate is the stall decision of the paper's Fig. 8 and must
    // actually *compare* the stage tags: some tag-level comparison
    // (`Ge`/`Lt`/`TagLeq`) in the gate's cone must read group tags on
    // both operand sides, and together those comparisons must consult
    // every tag in the group. A guard that ignores a tag (or compares
    // against a constant) re-opens the cross-user stall channel.
    let mut groups: BTreeMap<Vec<usize>, BTreeSet<usize>> = BTreeMap::new();
    for id in net.node_ids() {
        if !is_reg(net, id) {
            continue;
        }
        let Some(LabelExpr::FromTag(tag)) = &net.labels[id.index()] else {
            continue;
        };
        let gates: BTreeSet<usize> = hold_gates(net, id)
            .iter()
            .map(|g| net.resolve_driver(*g).index())
            .collect();
        if gates.is_empty() {
            continue;
        }
        groups
            .entry(gates.into_iter().collect())
            .or_default()
            .insert(net.resolve_driver(*tag).index());
    }
    for (gates, tags) in &groups {
        if tags.len() < 2 {
            continue;
        }
        let mut cone: HashSet<usize> = HashSet::new();
        for &g in gates {
            cone.extend(comb_cone(net, NodeId::from_raw(g as u32)));
        }
        if !cone
            .iter()
            .any(|&i| matches!(net.nodes[i], Node::Input { .. }))
        {
            // The gate never consults the outside world, so it cannot be
            // a backpressure/stall decision.
            continue;
        }
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        for &c in &cone {
            let Node::Binary { op, a, b } = net.nodes[c] else {
                continue;
            };
            if !matches!(op, BinOp::Ge | BinOp::Lt | BinOp::TagLeq) {
                continue;
            }
            let a_tags: BTreeSet<usize> = comb_cone(net, a).intersection_with(tags);
            let b_tags: BTreeSet<usize> = comb_cone(net, b).intersection_with(tags);
            if !a_tags.is_empty() && !b_tags.is_empty() {
                covered.extend(a_tags);
                covered.extend(b_tags);
            }
        }
        if covered != *tags {
            let gate_id = NodeId::from_raw(*gates.iter().next().expect("non-empty") as u32);
            let missing = tags.difference(&covered).count();
            emit(
                report,
                cfg,
                PassId::SecretTiming,
                Severity::Error,
                Some(describe(net, gate_id)),
                format!(
                    "stall guard shared by {} tagged registers does not compare \
                     all {} stage tags ({missing} unconsulted): the meet-based \
                     stall policy is broken or bypassed",
                    tags.len() * 2,
                    tags.len()
                ),
            );
        }
    }
}

/// `comb_cone(...) ∩ tags` without materialising the full cone set twice.
trait IntersectWith {
    fn intersection_with(self, tags: &BTreeSet<usize>) -> BTreeSet<usize>;
}

impl IntersectWith for HashSet<usize> {
    fn intersection_with(self, tags: &BTreeSet<usize>) -> BTreeSet<usize> {
        self.into_iter().filter(|i| tags.contains(i)).collect()
    }
}

// ---------------------------------------------------------------------------
// Pass 3: declassify/endorse audit
// ---------------------------------------------------------------------------

fn downgrade_audit_pass(
    net: &Netlist,
    bound: &Facts<Label>,
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    let n = net.node_count();
    let m = net.mems.len();

    // Forward slot graph (nodes then memories), for reachability from a
    // downgrade node to its consumers across registers and memories.
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n + m];
    for id in net.node_ids() {
        for dep in net.comb_dependencies(id) {
            fwd[dep.index()].push(id.index());
        }
        if let Node::MemRead { mem, .. } = *net.node(id) {
            fwd[n + mem.index()].push(id.index());
        }
        if let Some(next) = net.reg_next[id.index()] {
            fwd[next.index()].push(id.index());
        }
    }
    for wp in &net.write_ports {
        for src in [wp.data, wp.addr] {
            fwd[src.index()].push(n + wp.mem.index());
        }
    }

    for id in net.node_ids() {
        let (kind, data, to_tag, principal) = match *net.node(id) {
            Node::Declassify {
                data,
                to_tag,
                principal,
            } => ("declassify", data, to_tag, principal),
            Node::Endorse {
                data,
                to_tag,
                principal,
            } => ("endorse", data, to_tag, principal),
            _ => continue,
        };
        let name = describe(net, id);
        let principal_root = net.resolve_driver(principal);

        // (a) The downgrade decision itself must not be modulated by
        // secret data: a secret-influenced principal is a malleable
        // downgrade (the attacker steers what gets released).
        let p_fact = *bound.node(principal_root);
        if p_fact.conf != Conf::PUBLIC {
            emit(
                report,
                cfg,
                PassId::DowngradeAudit,
                Severity::Error,
                Some(name.clone()),
                format!(
                    "{kind} principal has secret-influenced static label {p_fact}: \
                     the downgrade guard is malleable"
                ),
            );
        }

        // (b) Re-derive the runtime nonmalleability gate: everything the
        // downgraded value flows into must be guarded by at least one
        // select/enable whose cone contains a comparison reading the
        // principal — the static shadow of the `TagLeq`-style check the
        // simulator evaluates before honouring the release.
        let mut reach = vec![false; n + m];
        let mut queue = VecDeque::from([id.index()]);
        reach[id.index()] = true;
        while let Some(i) = queue.pop_front() {
            for &d in &fwd[i] {
                if !reach[d] {
                    reach[d] = true;
                    queue.push_back(d);
                }
            }
        }
        let mut guarded = false;
        let mut gates: Vec<NodeId> = Vec::new();
        for g in net.node_ids() {
            if let Node::Mux { sel, t, f } = *net.node(g) {
                if (reach[t.index()] || reach[f.index()]) && !reach[sel.index()] {
                    gates.push(sel);
                }
            }
        }
        for wp in &net.write_ports {
            if (reach[wp.data.index()] || reach[wp.addr.index()]) && !reach[wp.en.index()] {
                gates.push(wp.en);
            }
        }
        for gate in gates {
            let cone = comb_cone(net, gate);
            for &c in &cone {
                let Node::Binary { op, a, b } = net.nodes[c] else {
                    continue;
                };
                if !matches!(
                    op,
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::TagLeq
                ) {
                    continue;
                }
                if comb_cone(net, a).contains(&principal_root.index())
                    || comb_cone(net, b).contains(&principal_root.index())
                {
                    guarded = true;
                    break;
                }
            }
            if guarded {
                break;
            }
        }
        if !guarded {
            emit(
                report,
                cfg,
                PassId::DowngradeAudit,
                Severity::Error,
                Some(name.clone()),
                format!(
                    "{kind} result is consumed without any guard that checks its \
                     principal: the nonmalleable-release condition is not enforced"
                ),
            );
        }

        // (c) A constant principal makes the downgrade fully static:
        // check Equation (1) directly against the pessimistic data bound.
        if let Node::Const { value, .. } = *net.node(principal_root) {
            let p = Label::from(SecurityTag::from_bits(value as u8));
            let from = *bound.node(net.resolve_driver(data));
            let to = Label::from(SecurityTag::from_bits(to_tag));
            let verdict = match kind {
                "declassify" => ifc_lattice::declassify(from, to, p),
                _ => ifc_lattice::endorse(from, to, p),
            };
            if verdict.is_err() {
                emit(
                    report,
                    cfg,
                    PassId::DowngradeAudit,
                    Severity::Warning,
                    Some(name),
                    format!(
                        "static {kind} from (bound) {from} to {to} exceeds the \
                         authority of constant principal {p}"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 5: dead / unlabelled logic
// ---------------------------------------------------------------------------

fn dead_logic_pass(
    design: Option<&Design>,
    net: &Netlist,
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    let n = net.node_count();
    let m = net.mems.len();

    // Liveness: reverse reachability from the output ports, crossing
    // registers, memories, and label-expression dependencies (a tag
    // signal consulted only by annotations is live — it decides labels).
    let mut live = vec![false; n + m];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mark = |i: usize, live: &mut Vec<bool>, queue: &mut VecDeque<usize>| {
        if !live[i] {
            live[i] = true;
            queue.push_back(i);
        }
    };
    let label_deps = |expr: &LabelExpr| {
        let mut deps = Vec::new();
        expr.dependencies(&mut deps);
        deps
    };
    for port in &net.outputs {
        mark(port.node.index(), &mut live, &mut queue);
        if let Some(expr) = &port.label {
            for dep in label_deps(expr) {
                mark(dep.index(), &mut live, &mut queue);
            }
        }
    }
    while let Some(i) = queue.pop_front() {
        if i < n {
            let id = NodeId::from_raw(i as u32);
            for dep in net.comb_dependencies(id) {
                mark(dep.index(), &mut live, &mut queue);
            }
            if let Some(next) = net.reg_next[i] {
                mark(next.index(), &mut live, &mut queue);
            }
            if let Node::MemRead { mem, .. } = *net.node(id) {
                mark(n + mem.index(), &mut live, &mut queue);
            }
            if let Some(expr) = &net.labels[i] {
                for dep in label_deps(expr) {
                    mark(dep.index(), &mut live, &mut queue);
                }
            }
        } else {
            let mem = i - n;
            for wp in net.write_ports.iter().filter(|wp| wp.mem.index() == mem) {
                for src in [wp.data, wp.addr, wp.en] {
                    mark(src.index(), &mut live, &mut queue);
                }
            }
            if let Some(expr) = &net.mems[mem].label {
                for dep in label_deps(expr) {
                    mark(dep.index(), &mut live, &mut queue);
                }
            }
        }
    }

    let dead: Vec<NodeId> = net
        .node_ids()
        .filter(|id| !live[id.index()] && !matches!(net.node(*id), Node::Const { .. }))
        .collect();
    if !dead.is_empty() {
        let named: Vec<String> = dead
            .iter()
            .filter_map(|&id| net.name_of(id).map(str::to_owned))
            .take(8)
            .collect();
        emit(
            report,
            cfg,
            PassId::DeadLogic,
            Severity::Info,
            named.first().cloned(),
            format!(
                "{} node(s) unreachable from any output port{}{}",
                dead.len(),
                if named.is_empty() { "" } else { ": " },
                named.join(", ")
            ),
        );
    }

    // Unlabelled inputs — only meaningful once the design opted into
    // labelling at all; an entirely unlabelled netlist gets one note.
    let any_labels = net.labels.iter().any(Option::is_some)
        || net.mems.iter().any(|mi| mi.label.is_some())
        || net.outputs.iter().any(|p| p.label.is_some());
    if any_labels {
        for port in &net.inputs {
            if net.labels[port.node.index()].is_none() {
                emit(
                    report,
                    cfg,
                    PassId::DeadLogic,
                    Severity::Warning,
                    Some(port.name.clone()),
                    format!(
                        "input {} has no label annotation in a labelled design; \
                         it is implicitly (P,T)",
                        port.name
                    ),
                );
            }
        }
    } else {
        emit(
            report,
            cfg,
            PassId::DeadLogic,
            Severity::Info,
            None,
            "design carries no label annotations; label-dependent passes are vacuous".into(),
        );
    }

    // Unconstrained wires — statement-level, so only with the design.
    if let Some(d) = design {
        for id in crate::infer::unconstrained_wires(d) {
            emit(
                report,
                cfg,
                PassId::DeadLogic,
                Severity::Warning,
                Some(d.describe(id)),
                format!(
                    "wire {} is not driven in every cycle and has no default; \
                     its value and label are unconstrained",
                    d.describe(id)
                ),
            );
        }
    }

    // Unlabelled releases: every output port's optimistic (post-release)
    // static label must flow to what the port declares — or to `(P,U)`,
    // the level any bus master can read, when it declares nothing. Ports
    // whose annotation is structurally the driving node's own label
    // expression are dependent-label pass-throughs, already discharged by
    // the design-level checker's dependent-label rules.
    if any_labels {
        let release = release_plane(net);
        for port in &net.outputs {
            if port.label.is_some() && port.label == net.labels[port.node.index()] {
                continue;
            }
            let allowed = port
                .label
                .as_ref()
                .map_or(Label::PUBLIC_UNTRUSTED, LabelExpr::lower_bound);
            let fact = *release.node(net.resolve_driver(port.node));
            if !fact.flows_to(allowed) {
                emit(
                    report,
                    cfg,
                    PassId::DeadLogic,
                    Severity::Error,
                    Some(port.name.clone()),
                    format!(
                        "output {} releases data with static label {fact} but is \
                         only cleared for {allowed}: unreviewed release path",
                        port.name
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 4: static/dynamic label cross-check
// ---------------------------------------------------------------------------

/// Runtime labels observed on a netlist, accumulated (joined) across
/// cycles, sessions, simulators, and tracking modes. Pure data — the
/// simulation crates fold into it without this crate depending on them.
#[derive(Debug, Clone)]
pub struct ObservedPlane {
    /// Per-node observed label join, indexed by [`NodeId::index`].
    pub nodes: Vec<Label>,
    /// Per-memory observed label join (whole array).
    pub mems: Vec<Label>,
}

impl ObservedPlane {
    /// An empty plane (everything `(P,T)`, the runtime initial label).
    #[must_use]
    pub fn new(net: &Netlist) -> ObservedPlane {
        ObservedPlane {
            nodes: vec![Label::PUBLIC_TRUSTED; net.node_count()],
            mems: vec![Label::PUBLIC_TRUSTED; net.mems.len()],
        }
    }

    /// Joins one observed node label in.
    pub fn join_node(&mut self, index: usize, label: Label) {
        self.nodes[index] = self.nodes[index].join(label);
    }

    /// Merges another plane (e.g. from a different backend or lane).
    pub fn merge(&mut self, other: &ObservedPlane) {
        for (acc, l) in self.nodes.iter_mut().zip(&other.nodes) {
            *acc = acc.join(*l);
        }
        for (acc, l) in self.mems.iter_mut().zip(&other.mems) {
            *acc = acc.join(*l);
        }
    }
}

/// The static/dynamic cross-check: every observed runtime label must flow
/// to the static bound plane's label for that slot. A wire where the
/// static bound sits *below* an observed runtime tag means the static
/// analysis is unsound (or the runtime was driven outside its annotated
/// contract) — reported as an error either way.
#[must_use]
pub fn crosscheck_findings(
    net: &Netlist,
    bound: &Facts<Label>,
    observed: &ObservedPlane,
    cfg: &LintConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut emit = |node: Option<String>, message: String| {
        findings.push(Finding {
            pass: PassId::LabelCrosscheck.key().to_owned(),
            severity: cfg.severity(PassId::LabelCrosscheck, Severity::Error),
            node,
            message,
        });
    };
    for id in net.node_ids() {
        let seen = observed.nodes[id.index()];
        let stat = *bound.node(id);
        if !seen.flows_to(stat) {
            emit(
                Some(describe(net, id)),
                format!(
                    "runtime label {seen} observed on {} exceeds its static bound \
                     {stat}: the static plane is unsound here",
                    describe(net, id)
                ),
            );
        }
    }
    for (mem, mi) in net.mems.iter().enumerate() {
        let seen = observed.mems[mem];
        let stat = *bound.mem(mem);
        if !seen.flows_to(stat) {
            emit(
                Some(mi.name.clone()),
                format!(
                    "runtime label {seen} observed in memory {} exceeds its static \
                     bound {stat}",
                    mi.name
                ),
            );
        }
    }
    findings
}

/// The sixth pass: the bit-precise noninterference prover, folded into
/// lint findings. Each observable yields exactly one finding:
///
/// * oracle-confirmed counterexample — `Error` (executable evidence of
///   a leak);
/// * unconfirmed counterexample — `Warning` (a SAT model the oracle
///   could not replay, usually a release-havoc artefact worth triage);
/// * `unknown` — `Warning` (budget exhausted; the surface is unproven);
/// * proved — `Info` (per-output verdict for the report).
///
/// Returns the findings alongside the full [`prover::ProveReport`] so
/// front ends can also emit the machine-readable verdicts.
#[must_use]
pub fn prove_findings(
    net: &Netlist,
    cfg: &LintConfig,
    opts: &prover::ProveOptions,
) -> (Vec<Finding>, prover::ProveReport) {
    let report = prover::prove_annotated(net, opts);
    let mut findings = Vec::new();
    for r in &report.results {
        let (default, message) = match &r.verdict {
            prover::Verdict::Counterexample(cex) if cex.confirmed => (
                Severity::Error,
                format!(
                    "noninterference refuted for {} ({}): two runs equal on all \
                     public inputs diverge at cycle {} (oracle-confirmed, \
                     observed {:#x} vs {:#x})",
                    r.name,
                    r.kind.key(),
                    cex.cycle,
                    cex.observed[0],
                    cex.observed[1]
                ),
            ),
            prover::Verdict::Counterexample(cex) => (
                Severity::Warning,
                format!(
                    "SAT model distinguishes secrets at {} ({}) at cycle {}, but \
                     the interpreter oracle did not reproduce it — likely a \
                     declassification-havoc artefact; triage the port programs",
                    r.name,
                    r.kind.key(),
                    cex.cycle
                ),
            ),
            prover::Verdict::Unknown { reason } => (
                Severity::Warning,
                format!("noninterference undecided for {} ({reason})", r.name),
            ),
            prover::Verdict::ProvedStructural => (
                Severity::Info,
                format!(
                    "{} proved noninterferent structurally (secret-free cone, \
                     any depth)",
                    r.name
                ),
            ),
            prover::Verdict::Proved { k, inductive } => (
                Severity::Info,
                if *inductive {
                    format!(
                        "{} proved noninterferent unboundedly (k={k} + induction)",
                        r.name
                    )
                } else {
                    format!("{} proved noninterferent up to {k} cycles", r.name)
                },
            ),
        };
        findings.push(Finding {
            pass: PassId::Prove.key().to_owned(),
            severity: cfg.severity(PassId::Prove, default),
            node: Some(r.name.clone()),
            message,
        });
    }
    (findings, report)
}

/// Convenience: the full cross-check pass as its own one-pass report.
#[must_use]
pub fn crosscheck_report(net: &Netlist, observed: &ObservedPlane, cfg: &LintConfig) -> LintReport {
    let bound = bound_plane(net);
    LintReport {
        design: net.name.clone(),
        passes: vec![PassId::LabelCrosscheck.key().to_owned()],
        findings: crosscheck_findings(net, &bound, observed, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;

    /// A miniature two-stage tagged pipeline with a meet-based stall
    /// guard, in the shape of the protected accelerator's Fig. 8 logic.
    fn tagged_pipeline(break_guard: bool) -> Netlist {
        let mut m = ModuleBuilder::new("mini");
        let pt = Label::PUBLIC_TRUSTED;
        let in_data = m.input("in_data", 8);
        let in_tag = m.input("in_tag", 8);
        let ready = m.input("ready", 1);
        m.set_label(in_tag, pt);
        m.set_label(ready, pt);
        m.set_label(in_data, LabelExpr::FromTag(in_tag.id()));
        let d0 = m.reg("d0", 8, 0);
        let d1 = m.reg("d1", 8, 0);
        let t0 = m.reg("t0", 8, 0);
        let t1 = m.reg("t1", 8, 0);
        m.set_label(t0, pt);
        m.set_label(t1, pt);
        m.set_label(d0, LabelExpr::FromTag(t0.id()));
        m.set_label(d1, LabelExpr::FromTag(t1.id()));
        let meet = m.tag_meet(t0, t1);
        let meet_conf = m.slice(meet, 7, 4);
        let req_conf = m.slice(t1, 7, 4);
        let permitted = if break_guard {
            m.lit(1, 1)
        } else {
            m.ge(meet_conf, req_conf)
        };
        let not_ready = m.not(ready);
        let stall = m.and(not_ready, permitted);
        let go = m.not(stall);
        m.when(go, |m| {
            m.connect(d0, in_data);
            m.connect(t0, in_tag);
            m.connect(d1, d0);
            m.connect(t1, t0);
        });
        m.output("out", d1);
        m.output_labeled("released", d1, Label::SECRET_UNTRUSTED);
        m.finish().lower().unwrap()
    }

    #[test]
    fn intact_stall_guard_is_clean() {
        let net = tagged_pipeline(false);
        let report = run_static_passes(None, &net, &LintConfig::new());
        let timing: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.pass == "secret-timing")
            .collect();
        assert!(timing.is_empty(), "{timing:?}");
    }

    #[test]
    fn broken_stall_guard_is_flagged() {
        let net = tagged_pipeline(true);
        let report = run_static_passes(None, &net, &LintConfig::new());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.pass == "secret-timing" && f.severity == Severity::Error),
            "{report}"
        );
    }

    #[test]
    fn secret_update_gate_is_flagged() {
        let mut m = ModuleBuilder::new("leaky");
        let secret = m.input("secret", 8);
        m.set_label(secret, Label::SECRET_TRUSTED);
        let is_weak = m.eq_lit(secret, 0);
        let r = m.reg("r", 8, 0);
        let one = m.lit(1, 8);
        m.when(is_weak, |m| m.connect(r, one));
        m.output("r", r);
        let net = m.finish().lower().unwrap();
        let report = run_static_passes(None, &net, &LintConfig::new());
        assert!(
            report.findings.iter().any(|f| f.pass == "secret-timing"
                && f.severity == Severity::Error
                && f.message.contains("update gate")),
            "{report}"
        );
    }

    #[test]
    fn unguarded_downgrade_is_flagged_and_guarded_one_is_not() {
        let build = |guarded: bool| {
            let mut m = ModuleBuilder::new("dg");
            let pt = Label::PUBLIC_TRUSTED;
            let secret = m.input("s", 8);
            m.set_label(secret, Label::SECRET_TRUSTED);
            let principal = m.input("p", 8);
            m.set_label(principal, pt);
            let released = m.declassify(secret, Label::PUBLIC_UNTRUSTED, principal);
            let zero = m.lit(0, 8);
            let gate = if guarded {
                let limit = m.tag_lit(Label::PUBLIC_UNTRUSTED);
                m.tag_leq(principal, limit)
            } else {
                m.lit(1, 1)
            };
            let out = m.mux(gate, released, zero);
            m.output("out", out);
            m.finish().lower().unwrap()
        };
        let flagged = |net: &Netlist| {
            run_static_passes(None, net, &LintConfig::new())
                .findings
                .iter()
                .any(|f| f.pass == "downgrade-audit" && f.message.contains("principal"))
        };
        assert!(flagged(&build(false)));
        assert!(!flagged(&build(true)));
    }

    #[test]
    fn dead_logic_and_unlabelled_release_are_reported() {
        let mut m = ModuleBuilder::new("dead");
        let secret = m.input("s", 8);
        m.set_label(secret, Label::SECRET_TRUSTED);
        let unused = m.input("u", 8);
        m.set_label(unused, Label::PUBLIC_TRUSTED);
        let orphan = m.xor(unused, unused);
        let named = m.wire("orphan", 8);
        m.connect(named, orphan);
        m.output("leak", secret);
        let net = m.finish().lower().unwrap();
        let report = run_static_passes(None, &net, &LintConfig::new());
        assert!(report
            .findings
            .iter()
            .any(|f| f.pass == "dead-logic" && f.message.contains("unreachable")));
        assert!(report.findings.iter().any(|f| f.pass == "dead-logic"
            && f.severity == Severity::Error
            && f.message.contains("unreviewed release")));
        // Severity override demotes the release error to a warning.
        let demoted = run_static_passes(
            None,
            &net,
            &LintConfig::new().with_severity(PassId::DeadLogic, Severity::Warning),
        );
        assert_eq!(demoted.count_at(Severity::Error), 0);
    }

    #[test]
    fn crosscheck_flags_observed_above_bound() {
        let mut m = ModuleBuilder::new("x");
        let a = m.input("a", 8);
        m.set_label(a, Label::PUBLIC_TRUSTED);
        let r = m.reg("r", 8, 0);
        m.connect(r, a);
        m.output("r", r);
        let net = m.finish().lower().unwrap();
        let mut observed = ObservedPlane::new(&net);
        let clean = crosscheck_report(&net, &observed, &LintConfig::new());
        assert!(clean.is_clean(true), "{clean}");
        observed.join_node(r.id().index(), Label::SECRET_TRUSTED);
        let dirty = crosscheck_report(&net, &observed, &LintConfig::new());
        assert_eq!(dirty.count_at(Severity::Error), 1);
    }
}
