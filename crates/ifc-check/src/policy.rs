//! First-class information-flow policies — the paper's Table 1.
//!
//! A [`FlowPolicy`] names a *source* and a *sink* node together with the
//! security labels the policy assumes for them, and forbids information
//! flow between them unless the labels permit it in the policy's dimension.
//! Policies are checked *structurally*: a source reaches a sink if there is
//! any path through operators, statements (including their guards — i.e.
//! implicit flows), registers or memories. Downgrade nodes cut the path in
//! their own dimension, since they represent explicitly reviewed releases.
//!
//! This lets the same Table 1 policy set be audited against the baseline
//! accelerator (where the paths exist and the labels forbid them — the
//! rows' violations) and the protected one (where every remaining path
//! crosses a reviewed declassification).

use std::fmt;

use hdl::{Action, Design, Node, NodeId, Stmt};
use ifc_lattice::Label;

use crate::dataflow::{fixpoint, Facts, Graph, Slot, Transfer};

/// Which dimension a policy constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Forbids reads-up: source may not reach sink unless
    /// `C(source) ⊑C C(sink)`.
    Confidentiality,
    /// Forbids writes-up: source may not reach sink unless
    /// `I(source) ⊑I I(sink)`.
    Integrity,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Confidentiality => f.write_str("C"),
            PolicyKind::Integrity => f.write_str("I"),
        }
    }
}

/// One row of the paper's Table 1: a named source→sink restriction.
#[derive(Debug, Clone)]
pub struct FlowPolicy {
    /// Human-readable requirement name (e.g. "key cannot be read out by a
    /// less confidential user").
    pub name: String,
    /// The constrained dimension.
    pub kind: PolicyKind,
    /// Source node (e.g. a key register).
    pub source: NodeId,
    /// The label the policy assumes for the source.
    pub source_label: Label,
    /// Sink node (e.g. a user-visible output).
    pub sink: NodeId,
    /// The label the policy assumes for the sink.
    pub sink_label: Label,
}

/// The audit result for one policy.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The audited policy's name.
    pub name: String,
    /// The constrained dimension.
    pub kind: PolicyKind,
    /// Whether any structural path (not crossing a downgrade in the
    /// policy's dimension) connects source to sink.
    pub flow_exists: bool,
    /// Whether the assumed labels permit the flow in the policy's
    /// dimension.
    pub permitted: bool,
}

impl PolicyOutcome {
    /// A policy is violated when a forbidden flow structurally exists.
    #[must_use]
    pub fn violated(&self) -> bool {
        self.flow_exists && !self.permitted
    }
}

impl fmt::Display for PolicyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: flow {}, labels {} ⇒ {}",
            self.kind,
            self.name,
            if self.flow_exists { "EXISTS" } else { "absent" },
            if self.permitted { "permit" } else { "forbid" },
            if self.violated() { "VIOLATED" } else { "ok" },
        )
    }
}

/// Audits one policy against a design.
#[must_use]
pub fn check_policy(design: &Design, policy: &FlowPolicy) -> PolicyOutcome {
    let permitted = match policy.kind {
        PolicyKind::Confidentiality => policy.source_label.conf.flows_to(policy.sink_label.conf),
        PolicyKind::Integrity => policy.source_label.integ.flows_to(policy.sink_label.integ),
    };
    let flow_exists = reaches(design, policy.source, policy.sink, policy.kind);
    PolicyOutcome {
        name: policy.name.clone(),
        kind: policy.kind,
        flow_exists,
        permitted,
    }
}

/// Audits a whole policy set.
#[must_use]
pub fn check_policies(design: &Design, policies: &[FlowPolicy]) -> Vec<PolicyOutcome> {
    policies.iter().map(|p| check_policy(design, p)).collect()
}

/// Error produced when parsing a textual policy fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePolicyError {}

/// Parses a textual policy set against a design.
///
/// One policy per line, in the syntax
///
/// ```text
/// forbid C key_source@(S,T) -> out_block@(P,U) : optional description
/// forbid I cfg_data@(C2,I2) -> cfg.reg@(P,T)
/// # comments and blank lines are skipped
/// ```
///
/// `C`/`I` selects the dimension; node names resolve against the design's
/// ports and named signals; labels use the `(conf,integ)` syntax of
/// [`Label`]'s `FromStr`. This is the "automating the formulation
/// procedure" direction the paper's conclusion points at: requirements
/// live in a reviewable text file rather than in harness code.
///
/// # Errors
///
/// Returns the first syntax error, unresolvable node name, or malformed
/// label, with its line number.
pub fn parse_policies(design: &Design, text: &str) -> Result<Vec<FlowPolicy>, ParsePolicyError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParsePolicyError {
            line: line_no,
            message,
        };
        let rest = line
            .strip_prefix("forbid")
            .ok_or_else(|| err("expected line to start with 'forbid'".into()))?
            .trim_start();
        let (dim, rest) = rest
            .split_once(' ')
            .ok_or_else(|| err("expected a dimension (C or I)".into()))?;
        let kind = match dim {
            "C" => PolicyKind::Confidentiality,
            "I" => PolicyKind::Integrity,
            other => return Err(err(format!("unknown dimension {other:?} (use C or I)"))),
        };
        let (flow, name) = match rest.split_once(':') {
            Some((flow, name)) => (flow.trim(), name.trim().to_owned()),
            None => (rest.trim(), String::new()),
        };
        let (src, dst) = flow
            .split_once("->")
            .ok_or_else(|| err("expected 'source@label -> sink@label'".into()))?;
        let parse_end = |spec: &str| -> Result<(NodeId, Label), ParsePolicyError> {
            let spec = spec.trim();
            let (node_name, label_text) = spec
                .split_once('@')
                .ok_or_else(|| err(format!("expected 'name@(C,I)' in {spec:?}")))?;
            let node = design
                .input(node_name.trim())
                .or_else(|| design.output(node_name.trim()))
                .or_else(|| {
                    design
                        .node_ids()
                        .find(|&id| design.name_of(id) == Some(node_name.trim()))
                })
                .ok_or_else(|| err(format!("no node named {:?}", node_name.trim())))?;
            let label: Label = label_text
                .trim()
                .parse()
                .map_err(|e| err(format!("bad label {:?}: {e}", label_text.trim())))?;
            Ok((node, label))
        };
        let (source, source_label) = parse_end(src)?;
        let (sink, sink_label) = parse_end(dst)?;
        let name = if name.is_empty() {
            format!("{} ↛ {}", src.trim(), dst.trim())
        } else {
            name
        };
        out.push(FlowPolicy {
            name,
            kind,
            source,
            source_label,
            sink,
            sink_label,
        });
    }
    Ok(out)
}

/// Whether a statement is *runtime-enforced*: its guard conjunction
/// contains a hardware tag check (`TagLeq`), or its destination is
/// tag-labelled storage (a `FromTag` annotation). Such flows are governed
/// by the tag logic that the main checker verifies, so the policy audit
/// treats them as enforcement points rather than leaks.
fn stmt_is_enforced(design: &Design, stmt: &Stmt) -> bool {
    let guard_checked = stmt.guards.iter().any(|g| {
        let mut seen = std::collections::HashSet::new();
        cone_has_tagleq(design, g.cond, &mut seen)
    });
    if guard_checked {
        return true;
    }
    match stmt.action {
        Action::Connect { dst, .. } => {
            matches!(design.label_of(dst), Some(hdl::LabelExpr::FromTag(_)))
        }
        Action::MemWrite { mem, .. } => matches!(
            design.mems()[mem.index()].label,
            Some(hdl::LabelExpr::FromTag(_))
        ),
    }
}

fn cone_has_tagleq(
    design: &Design,
    node: NodeId,
    seen: &mut std::collections::HashSet<NodeId>,
) -> bool {
    if !seen.insert(node) {
        return false;
    }
    let n = design.node(node);
    if matches!(
        n,
        Node::Binary {
            op: hdl::BinOp::TagLeq,
            ..
        }
    ) {
        return true;
    }
    match n {
        Node::Reg { .. } | Node::Input { .. } | Node::Const { .. } => false,
        Node::Wire { .. } => design.stmts().iter().any(|s| match s.action {
            Action::Connect { dst, src } if dst == node => cone_has_tagleq(design, src, seen),
            _ => false,
        }),
        other => other.operands().any(|op| cone_has_tagleq(design, op, seen)),
    }
}

/// Structural reachability from `source` to `sink` over
/// [`Graph::of_design`]: through operators, statements (explicit and
/// implicit flows), registers and memories. Downgrade nodes cut
/// propagation in the dimension they downgrade, and runtime-enforced
/// statements (see [`stmt_is_enforced`]) cut it in both.
fn reaches(design: &Design, source: NodeId, sink: NodeId, kind: PolicyKind) -> bool {
    let n = design.node_count();
    let mut open = vec![Vec::new(); n + design.mems().len()];
    for stmt in design.stmts() {
        if !stmt_is_enforced(design, stmt) {
            match stmt.action {
                Action::Connect { dst, .. } => open[dst.index()].push(stmt),
                Action::MemWrite { mem, .. } => open[n + mem.index()].push(stmt),
            }
        }
    }
    let reach = Reach {
        design,
        source,
        kind,
        open,
    };
    *fixpoint(&Graph::of_design(design), &reach).node(sink)
}

/// The transfer function of [`reaches`].
struct Reach<'d> {
    design: &'d Design,
    source: NodeId,
    kind: PolicyKind,
    /// The statements into each slot (nodes, then memories) that are not
    /// runtime-enforced.
    open: Vec<Vec<&'d Stmt>>,
}

impl Transfer for Reach<'_> {
    type Fact = bool;

    fn transfer(&self, _: &Graph, slot: Slot, facts: &Facts<bool>) -> bool {
        let reached = |id: NodeId| *facts.node(id);
        let (structural, open) = match slot {
            Slot::Node(id) => {
                let node = self.design.node(id);
                let cut = matches!(
                    (node, self.kind),
                    (Node::Declassify { .. }, PolicyKind::Confidentiality)
                        | (Node::Endorse { .. }, PolicyKind::Integrity)
                );
                let structural = id == self.source
                    || (!cut && node.operands().any(reached))
                    || matches!(*node, Node::MemRead { mem, .. } if *facts.mem(mem.index()));
                (structural, &self.open[id.index()])
            }
            Slot::Mem(mem) => (false, &self.open[self.design.node_count() + mem]),
        };
        structural
            || open.iter().any(|stmt| {
                let value = match stmt.action {
                    Action::Connect { src, .. } => reached(src),
                    Action::MemWrite { addr, data, .. } => reached(data) || reached(addr),
                };
                value || stmt.guards.iter().any(|g| reached(g.cond))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;
    use ifc_lattice::{Conf, Integ};

    fn l(c: u8, i: u8) -> Label {
        Label::new(Conf::new(c), Integ::new(i))
    }

    #[test]
    fn detects_direct_flow() {
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        let out = m.wire("out", 8);
        m.connect(out, key);
        m.output("out", out);
        let d = m.finish();
        let outcome = check_policy(
            &d,
            &FlowPolicy {
                name: "key must not reach output".into(),
                kind: PolicyKind::Confidentiality,
                source: key.id(),
                source_label: l(15, 15),
                sink: out.id(),
                sink_label: l(0, 0),
            },
        );
        assert!(outcome.flow_exists);
        assert!(outcome.violated());
    }

    #[test]
    fn implicit_flow_counts() {
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        let weak = m.eq_lit(key, 0);
        let out = m.reg("out", 1, 0);
        let one = m.lit(1, 1);
        m.when(weak, |m| m.connect(out, one));
        m.output("out", out);
        let d = m.finish();
        let outcome = check_policy(
            &d,
            &FlowPolicy {
                name: "timing".into(),
                kind: PolicyKind::Confidentiality,
                source: key.id(),
                source_label: l(15, 15),
                sink: out.id(),
                sink_label: l(0, 0),
            },
        );
        assert!(outcome.violated());
    }

    #[test]
    fn declassify_cuts_confidentiality_path() {
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        m.set_label(key, l(5, 5));
        let sup = m.tag_lit(Label::SECRET_TRUSTED);
        let released = m.declassify(key, l(0, 5), sup);
        let out = m.wire("out", 8);
        m.connect(out, released);
        m.output("out", out);
        let d = m.finish();
        let outcome = check_policy(
            &d,
            &FlowPolicy {
                name: "raw key must not reach output".into(),
                kind: PolicyKind::Confidentiality,
                source: key.id(),
                source_label: l(5, 5),
                sink: out.id(),
                sink_label: l(0, 0),
            },
        );
        assert!(!outcome.flow_exists, "declassified path should not count");
    }

    #[test]
    fn memory_carries_flows() {
        let mut m = ModuleBuilder::new("t");
        let secret = m.input("s", 8);
        let addr = m.input("a", 2);
        let mem = m.mem("buf", 8, 4, vec![]);
        m.mem_write(mem, addr, secret);
        let q = m.mem_read(mem, addr);
        m.output("q", q);
        let d = m.finish();
        let outcome = check_policy(
            &d,
            &FlowPolicy {
                name: "mem".into(),
                kind: PolicyKind::Confidentiality,
                source: secret.id(),
                source_label: l(9, 9),
                sink: q.id(),
                sink_label: l(0, 0),
            },
        );
        assert!(outcome.violated());
    }

    #[test]
    fn absent_flow_is_not_violated() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let out = m.wire("out", 8);
        m.connect(out, b);
        m.output("out", out);
        let d = m.finish();
        let outcome = check_policy(
            &d,
            &FlowPolicy {
                name: "isolated".into(),
                kind: PolicyKind::Confidentiality,
                source: a.id(),
                source_label: l(15, 15),
                sink: out.id(),
                sink_label: l(0, 0),
            },
        );
        assert!(!outcome.flow_exists);
        assert!(!outcome.violated());
    }

    #[test]
    fn parses_textual_policies() {
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        let out = m.wire("out", 8);
        m.connect(out, key);
        m.output("out", out);
        let d = m.finish();
        let text = "\
# key confidentiality
forbid C key@(S,T) -> out@(P,U) : key must not reach the public output
forbid I key@(C2,I2) -> out@(P,T)
";
        let policies = parse_policies(&d, text).expect("parses");
        assert_eq!(policies.len(), 2);
        assert_eq!(policies[0].kind, PolicyKind::Confidentiality);
        assert_eq!(policies[0].name, "key must not reach the public output");
        assert_eq!(policies[1].kind, PolicyKind::Integrity);
        assert!(policies[1].name.contains("↛"));
        let outcomes = check_policies(&d, &policies);
        assert!(outcomes[0].violated());
        assert!(outcomes[1].violated());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 1);
        m.output("a", a);
        let d = m.finish();
        let err = parse_policies(&d, "# ok\nforbid X a@(P,T) -> a@(P,T)").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("dimension"));
        let err = parse_policies(&d, "forbid C missing@(P,T) -> a@(P,T)").unwrap_err();
        assert!(err.message.contains("no node named"));
        let err = parse_policies(&d, "forbid C a@(bogus) -> a@(P,T)").unwrap_err();
        assert!(err.message.contains("bad label"));
    }

    #[test]
    fn integrity_policy_permits_trusted_writer() {
        let mut m = ModuleBuilder::new("t");
        let sup = m.input("sup", 8);
        let cfg = m.reg("cfg", 8, 0);
        m.connect(cfg, sup);
        m.output("cfg", cfg);
        let d = m.finish();
        let outcome = check_policy(
            &d,
            &FlowPolicy {
                name: "supervisor may write configs".into(),
                kind: PolicyKind::Integrity,
                source: sup.id(),
                source_label: l(0, 15),
                sink: cfg.id(),
                sink_label: l(0, 15),
            },
        );
        assert!(outcome.flow_exists);
        assert!(!outcome.violated());
    }
}
