//! The prover kill stage: a self-composition noninterference check on
//! the (possibly mutated) generated netlist, under the **role-based**
//! environment contract.
//!
//! Like the executor ([`crate::exec`]), this stage never trusts the
//! netlist's annotations for the environment: tenant data rides under
//! `in_tag`, key writes under `key_wr_tag`, config writes under
//! `cfg_wr_tag`, and every control port is attacker-chosen public. The
//! gap between the role contract and the annotations is exactly what the
//! seeded annotation-spoof fault class opens — and the prover's
//! claimed-public observable turns that gap into a concrete two-run
//! counterexample, replayed on the interpreter oracle.

use hdl::Netlist;
use ifc_check::prover::{prove, InputClass, ProveEnv, ProveOptions, ProveReport};

/// `(data port, tag port)` role pairs of the generated design family:
/// the data port is driven equal across two runs exactly when its tag
/// carries a publicly-confidential label.
const TAGGED_CHANNELS: [(&str, &str); 3] = [
    ("in_data", "in_tag"),
    ("key_data", "key_wr_tag"),
    ("cfg_data", "cfg_wr_tag"),
];

/// Builds the role-based environment contract for a generated netlist,
/// mirroring the executor's `cycle_drives`: tagged channels are
/// conditionally secret, everything else is public.
#[must_use]
pub fn role_env(net: &Netlist) -> ProveEnv {
    let mut env = ProveEnv::new();
    let node_of = |name: &str| net.inputs.iter().find(|p| p.name == name).map(|p| p.node);
    for (data, tag) in TAGGED_CHANNELS {
        if let (Some(d), Some(t)) = (node_of(data), node_of(tag)) {
            env.classify(d, InputClass::CondTag(t));
        }
    }
    env
}

/// Prover options tuned for the fuzz loop: shallow unrolling and tight
/// budgets — the stage must stay cheap per input, and an `unknown`
/// verdict is just a non-event (later stages still run).
#[must_use]
pub fn fuzz_prove_options() -> ProveOptions {
    ProveOptions {
        k: 3,
        max_nodes: 400_000,
        max_conflicts: 20_000,
        induction: false,
        write_enables: true,
        oracle_replay: true,
        targets: None,
    }
}

/// Runs the prover stage over a generated netlist under the role
/// contract.
#[must_use]
pub fn prove_stage(net: &Netlist, opts: &ProveOptions) -> ProveReport {
    prove(net, &role_env(net), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::gen_input;
    use crate::spec::build_design;
    use crate::surgery::{apply_surgery, SurgeryOp};
    use ifc_check::prover::Verdict;

    #[test]
    fn spoofed_input_label_yields_replayable_counterexample() {
        let input = gen_input(0x5eed);
        let design = apply_surgery(
            &build_design(&input.spec),
            &[SurgeryOp::SpoofInputLabel { input: 0 }],
        );
        let net = design.lower().expect("spoofed design lowers");
        let report = prove_stage(&net, &fuzz_prove_options());
        let cex = report
            .counterexamples()
            .into_iter()
            .find(|r| r.kind == ifc_check::prover::ObsKind::ClaimedPublic)
            .expect("spoofed annotation must produce a claimed-public counterexample");
        let Verdict::Counterexample(cex) = &cex.verdict else {
            unreachable!();
        };
        assert!(
            cex.confirmed,
            "the counterexample must replay on the interpreter oracle"
        );
    }

    #[test]
    fn unmutated_design_has_no_confirmed_counterexample() {
        let input = gen_input(0x5eed);
        let net = build_design(&input.spec).lower().expect("design lowers");
        let report = prove_stage(&net, &fuzz_prove_options());
        for r in report.counterexamples() {
            let Verdict::Counterexample(cex) = &r.verdict else {
                unreachable!();
            };
            assert!(
                !cex.confirmed,
                "{} leaked on an unmutated design: {}",
                r.name,
                report.to_json().render()
            );
        }
    }
}
