//! Pins the outputs of the static label fixpoints: label inference and
//! policy reachability over the `Design` IR (and the `check` report built
//! on inference), and the prover's structural taint and the lint passes'
//! label planes and liveness over the `Netlist` IR.
//!
//! Each digest is FNV-1a over the `Debug`/`Display` text of the outputs.
//! The values were recorded before these analyses moved onto the shared
//! worklist engine (`ifc_check::dataflow::fixpoint`), so any change to a
//! dependency edge or a transfer function that alters a single label,
//! warning, finding or reachability bit shows here.

use accel::Protection;
use fuzz::coverage::fnv64;
use hdl::{Design, ModuleBuilder};
use ifc_check::prover::{taint_fixpoint, ProveEnv};
use ifc_check::{check_policies, run_static_passes, FlowPolicy, LintConfig, PolicyKind};
use ifc_lattice::Label;

/// The four shipped designs, then [`forward_refs`].
fn designs() -> [(&'static str, Design); 5] {
    [
        ("protected", accel::protected()),
        ("trojaned", accel::trojaned(Protection::Full)),
        ("baseline_annotated", accel::baseline_annotated()),
        ("baseline", accel::baseline()),
        ("forward_refs", forward_refs()),
    ]
}

/// Flows that reach a node only after it was first visited in node
/// order: `valid` is set under a guard wire that is connected, later,
/// from the key, and the memory read is declared before the write it
/// reads, which `valid` guards. Both the guard and `q` end up secret.
fn forward_refs() -> Design {
    let mut m = ModuleBuilder::new("forward_refs");
    let valid = m.reg("valid", 1, 0);
    let go = m.wire("go", 1);
    let one = m.lit(1, 1);
    m.when(go, |m| m.connect(valid, one));
    let mem = m.mem("buf", 8, 4, vec![]);
    let addr = m.lit(0, 2);
    let q = m.mem_read(mem, addr);
    let key = m.input("key", 8);
    m.set_label(key, Label::SECRET_TRUSTED);
    let weak = m.eq_lit(key, 0);
    m.connect(go, weak);
    let data = m.input("data", 8);
    m.set_label(data, Label::PUBLIC_TRUSTED);
    m.when(valid, |m| m.mem_write(mem, addr, data));
    m.output("valid", valid);
    m.output("q", q);
    m.finish()
}

fn inference_text(design: &Design) -> String {
    let inf = ifc_check::infer(design);
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        inf.node_labels, inf.mem_labels, inf.warnings, inf.unconstrained
    )
}

fn bits(v: &[bool]) -> String {
    v.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

#[test]
fn inference_matches_pinned_digests() {
    let want: [u64; 5] = [
        6_607_096_133_690_057_013,
        11_127_316_339_936_928_795,
        18_392_379_894_764_249_787,
        2_456_150_920_416_098_469,
        3_075_059_357_928_972_329,
    ];
    let got: Vec<u64> = designs()
        .iter()
        .map(|(_, d)| fnv64(&inference_text(d)))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn inference_on_generated_designs_matches_pinned_digest() {
    let mut text = String::new();
    for seed in 0..64 {
        let input = fuzz::gen_input(seed);
        let design = fuzz::apply_surgery(&fuzz::build_design(&input.spec), &input.surgery);
        text.push_str(&inference_text(&design));
        text.push('\n');
    }
    assert_eq!(fnv64(&text), 16_570_262_890_212_611_774);
}

#[test]
fn check_reports_match_pinned_digests() {
    let want: [u64; 5] = [
        11_445_238_950_959_173_618,
        11_174_350_389_943_967_419,
        6_468_001_540_892_326_820,
        4_937_149_876_348_267_768,
        7_760_471_122_371_492_886,
    ];
    let got: Vec<u64> = designs()
        .iter()
        .map(|(_, d)| fnv64(&ifc_check::check(d).to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn lint_reports_match_pinned_digests() {
    let mut text = String::new();
    for (_, d) in designs() {
        let net = d.lower().expect("design lowers");
        text.push_str(&run_static_passes(Some(&d), &net, &LintConfig::new()).to_string());
    }
    for seed in 0..64 {
        let input = fuzz::gen_input(seed);
        let d = fuzz::apply_surgery(&fuzz::build_design(&input.spec), &input.surgery);
        if let Ok(net) = d.lower() {
            text.push_str(&run_static_passes(Some(&d), &net, &LintConfig::new()).to_string());
        }
    }
    assert_eq!(fnv64(&text), 3_048_155_561_340_386_910);
}

#[test]
fn taint_matches_pinned_digests() {
    let want: [u64; 3] = [
        14_870_966_632_676_796_576,
        6_797_837_622_893_862_500,
        16_337_624_067_720_630_825,
    ];
    let got: Vec<u64> = designs()[..3]
        .iter()
        .map(|(_, d)| {
            let net = d.lower().expect("shipped design lowers");
            let (nodes, mems) = taint_fixpoint(&net, &ProveEnv::from_annotations(&net));
            fnv64(&format!("{}|{}", bits(&nodes), bits(&mems)))
        })
        .collect();
    assert_eq!(got, want);
}

/// Every input → output policy of a design, in both dimensions, with
/// labels that forbid the flow: the outcomes record which pairs the
/// structural reachability connects.
fn all_pairs(design: &Design) -> String {
    let mut policies = Vec::new();
    for src in design.inputs() {
        for dst in design.outputs() {
            for kind in [PolicyKind::Confidentiality, PolicyKind::Integrity] {
                policies.push(FlowPolicy {
                    name: format!("{} -> {}", src.name, dst.name),
                    kind,
                    source: src.node,
                    source_label: Label::SECRET_UNTRUSTED,
                    sink: dst.node,
                    sink_label: Label::PUBLIC_TRUSTED,
                });
            }
        }
    }
    let outcomes = check_policies(design, &policies);
    outcomes.iter().map(|o| format!("{o}\n")).collect()
}

#[test]
fn policy_reachability_matches_pinned_digests() {
    let mut text = all_pairs(&forward_refs());
    for seed in 0..16 {
        let input = fuzz::gen_input(seed);
        text.push_str(&all_pairs(&fuzz::apply_surgery(
            &fuzz::build_design(&input.spec),
            &input.surgery,
        )));
    }
    let table1: String = designs()[..4]
        .iter()
        .flat_map(|(_, d)| check_policies(d, &accel::policies::default_table1(d)))
        .map(|o| format!("{o}\n"))
        .collect();
    assert_eq!(
        [fnv64(&text), fnv64(&table1)],
        [5_773_662_659_599_589_167, 11_250_899_417_457_988_773]
    );
}
