//! The non-panicking executor for generated engines.
//!
//! Runs every tenant's attack program against the (possibly mutated)
//! generated netlist on two surfaces at once:
//!
//! * a [`BatchedSim`] with one lane per tenant, running
//!   [`TrackMode::Precise`] — the batched-fleet style of runtime
//!   tracking;
//! * a plain [`Simulator`] replaying tenant 0 under
//!   [`TrackMode::Conservative`] — the reference oracle.
//!
//! Both surfaces fold their per-cycle runtime label planes
//! ([`Simulator::fold_label_plane`] / [`BatchedSim::fold_label_plane`])
//! into one [`ObservedPlane`], which fuzz invariant 1 later cross-checks
//! against the static bound plane. Runtime violations are *recorded*,
//! never treated as failures here: a `DowngradeRejected` on a faulted
//! netlist is enforcement working as intended, and is coverage signal.
//!
//! The executor drives input labels by port **role** (tenant data wears
//! the tenant's label, supervisor key writes wear `(S,T)`, control wears
//! `(P,T)`), never by reading the netlist's annotations — that is what
//! lets the seeded annotation-spoof class produce a genuine invariant-1
//! violation while ordinary value-path surgery cannot.

use std::collections::BTreeSet;

use hdl::{Netlist, Value};
use ifc_check::ObservedPlane;
use ifc_lattice::{Label, SecurityTag};
use sim::{BatchedSim, OptConfig, RuntimeViolation, Simulator, TrackMode};

use crate::program::{AttackOp, TenantProgram};
use crate::spec::{DebugPort, DesignSpec};

/// One runtime violation with its observation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenViolation {
    /// Tracking mode of the surface that raised it.
    pub mode: TrackMode,
    /// Which tenant's lane (or replay) raised it.
    pub tenant: usize,
    /// The event itself.
    pub violation: RuntimeViolation,
}

/// Everything the pipeline wants to know about one execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Runtime labels joined over every cycle, lane, and surface.
    pub observed: ObservedPlane,
    /// Violations from every surface, in deterministic order.
    pub violations: Vec<SeenViolation>,
    /// Every `out_tag` value sampled while `out_valid` was high.
    pub out_tag_bits: BTreeSet<u8>,
    /// Cycles each surface ran.
    pub cycles: u64,
}

/// Per-cycle drive for one tenant: `(port, value, label)` triples. The
/// defaults come first so an op override later in the list wins.
type Drives = Vec<(&'static str, Value, Label)>;

fn mask(value: u64, width: u16) -> Value {
    u128::from(value) & ((1u128 << width) - 1)
}

fn tag_bits(label: Label) -> Value {
    u128::from(SecurityTag::from(label).bits())
}

fn cycle_drives(spec: &DesignSpec, tenant: usize, op: Option<&AttackOp>, cycle: u64) -> Drives {
    let pt = Label::PUBLIC_TRUSTED;
    let me = accel::user_label(tenant % 4);
    let w = spec.width;
    let cells = u64::from(spec.key_cells);

    let mut d: Drives = vec![
        ("in_valid", 0, pt),
        ("in_tag", tag_bits(pt), pt),
        ("in_data", 0, pt),
        ("in_slot", 0, pt),
        ("key_we", 0, pt),
        ("key_addr", 0, pt),
        ("key_wr_tag", tag_bits(pt), pt),
        ("key_data", 0, pt),
    ];
    if spec.stall_gate {
        // Deassert ready periodically so the stall path is exercised.
        d.push(("out_ready", Value::from(cycle % 5 != 3), pt));
    }
    if spec.cfg_reg {
        d.push(("cfg_we", 0, pt));
        d.push(("cfg_wr_tag", tag_bits(pt), pt));
        d.push(("cfg_data", 0, pt));
    }
    if spec.debug_port != DebugPort::None {
        d.push(("dbg_sel", 0, pt));
    }

    match op {
        Some(AttackOp::Submit { slot, data }) => {
            d.push(("in_valid", 1, pt));
            d.push(("in_tag", tag_bits(me), pt));
            d.push(("in_data", mask(*data, w), me));
            d.push(("in_slot", u128::from(u64::from(*slot) % cells), pt));
        }
        Some(AttackOp::WriteKey {
            addr,
            data,
            supervisor,
        }) => {
            let writer = if *supervisor {
                accel::supervisor_label()
            } else {
                me
            };
            d.push(("key_we", 1, pt));
            d.push(("key_addr", u128::from(u64::from(*addr) % cells), pt));
            d.push(("key_wr_tag", tag_bits(writer), pt));
            d.push(("key_data", mask(*data, w), writer));
        }
        Some(AttackOp::WriteCfg { value }) => {
            if spec.cfg_reg {
                // Even values write as the trusted supervisor-of-config
                // (admitted); odd values as the tenant (denied). Both
                // guard outcomes stay reachable, and the driven label
                // always matches the driven tag, keeping the `FromTag`
                // annotation exact.
                let writer = if value % 2 == 0 { pt } else { me };
                d.push(("cfg_we", 1, pt));
                d.push(("cfg_wr_tag", tag_bits(writer), pt));
                d.push(("cfg_data", u128::from(*value), writer));
            }
        }
        Some(AttackOp::ReadDebug { sel }) => {
            if spec.debug_port != DebugPort::None {
                d.push(("dbg_sel", u128::from(u64::from(*sel) % cells), pt));
            }
        }
        // Alloc has no port on this surface; Idle is the default drive.
        Some(AttackOp::Alloc { .. } | AttackOp::Idle { .. }) | None => {}
    }
    d
}

/// Expands a program into one op slot per cycle (`None` = idle drive).
fn schedule(program: &TenantProgram) -> Vec<Option<AttackOp>> {
    let mut slots = Vec::new();
    for op in &program.ops {
        match op {
            AttackOp::Idle { cycles } => {
                slots.extend(std::iter::repeat_n(None, usize::from((*cycles).max(1))));
            }
            other => slots.push(Some(*other)),
        }
    }
    slots
}

fn record_violations(
    out: &mut Vec<SeenViolation>,
    mode: TrackMode,
    tenant: usize,
    violations: &[RuntimeViolation],
) {
    out.extend(violations.iter().map(|v| SeenViolation {
        mode,
        tenant,
        violation: v.clone(),
    }));
}

/// Runs every tenant program against the netlist on both surfaces and
/// accumulates the observed label plane. Never panics for any generated
/// or surgically mutated member of the spec family.
#[must_use]
pub fn run_generated(net: &Netlist, spec: &DesignSpec, programs: &[TenantProgram]) -> ExecOutcome {
    let tenants = programs.len().max(1);
    let schedules: Vec<Vec<Option<AttackOp>>> = programs.iter().map(schedule).collect();
    let body = schedules.iter().map(Vec::len).max().unwrap_or(0) as u64;
    // Tail drain: flush the pipeline (and the stall gate) after the last
    // op so late releases still land in the observed plane.
    let total = body + u64::from(spec.depth) + 4;

    let mut observed = ObservedPlane::new(net);
    let mut violations = Vec::new();
    let mut out_tag_bits = BTreeSet::new();

    // ---- Surface 1: one lane per tenant, precise tracking ------------
    let lanes = tenants.next_power_of_two();
    let mut batch = BatchedSim::with_tracking_opt(
        net.clone(),
        TrackMode::Precise,
        lanes,
        &OptConfig::default(),
    );
    for cycle in 0..total {
        for (tenant, sched) in schedules.iter().enumerate() {
            let op = sched.get(cycle as usize).and_then(Option::as_ref);
            for (port, value, label) in cycle_drives(spec, tenant, op, cycle) {
                batch.set(tenant, port, value);
                batch.set_label(tenant, port, label);
            }
        }
        batch.eval();
        for tenant in 0..tenants {
            if batch.peek(tenant, "out_valid") != 0 {
                out_tag_bits.insert((batch.peek(tenant, "out_tag") & 0xff) as u8);
            }
            batch.fold_label_plane(tenant, &mut observed.nodes);
            batch.fold_mem_labels(tenant, &mut observed.mems);
        }
        batch.tick();
    }
    for tenant in 0..tenants {
        record_violations(
            &mut violations,
            TrackMode::Precise,
            tenant,
            batch.violations(tenant),
        );
    }

    // ---- Surface 2: the reference oracle replays tenant 0 ------------
    let mut oracle = Simulator::borrowing(net, TrackMode::Conservative);
    for cycle in 0..total {
        let op = schedules
            .first()
            .and_then(|s| s.get(cycle as usize))
            .and_then(Option::as_ref);
        for (port, value, label) in cycle_drives(spec, 0, op, cycle) {
            oracle.set(port, value);
            oracle.set_label(port, label);
        }
        oracle.eval();
        if oracle.peek("out_valid") != 0 {
            out_tag_bits.insert((oracle.peek("out_tag") & 0xff) as u8);
        }
        oracle.fold_label_plane(&mut observed.nodes);
        oracle.fold_mem_labels(&mut observed.mems);
        oracle.tick();
    }
    record_violations(
        &mut violations,
        TrackMode::Conservative,
        0,
        oracle.violations(),
    );

    ExecOutcome {
        observed,
        violations,
        out_tag_bits,
        cycles: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::gen_programs;
    use crate::rng::FuzzRng;
    use crate::spec::{build_design, gen_spec};

    #[test]
    fn execution_is_deterministic_and_never_panics() {
        let mut rng = FuzzRng::new(0xe0e0);
        for _ in 0..8 {
            let spec = gen_spec(&mut rng);
            let net = build_design(&spec).lower().expect("spec family lowers");
            let programs = gen_programs(&mut rng, usize::from(spec.tenants));
            let a = run_generated(&net, &spec, &programs);
            let b = run_generated(&net, &spec, &programs);
            assert_eq!(a.out_tag_bits, b.out_tag_bits);
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.cycles, b.cycles);
            for (x, y) in a.observed.nodes.iter().zip(&b.observed.nodes) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn clean_designs_respect_the_bound_plane() {
        // Invariant 1 on unmutated members: the executor honours every
        // annotation, so no observed label may exceed the static bound.
        let mut rng = FuzzRng::new(0x1b0b);
        for _ in 0..6 {
            let spec = gen_spec(&mut rng);
            let net = build_design(&spec).lower().expect("spec family lowers");
            let programs = gen_programs(&mut rng, usize::from(spec.tenants));
            let outcome = run_generated(&net, &spec, &programs);
            let bound = ifc_check::dataflow::bound_plane(&net);
            let cfg = ifc_check::LintConfig::new();
            let findings = ifc_check::dataflow::passes::crosscheck_findings(
                &net,
                &bound,
                &outcome.observed,
                &cfg,
            );
            assert!(
                findings.is_empty(),
                "clean {spec:?} broke the bound plane: {findings:?}"
            );
        }
    }
}
