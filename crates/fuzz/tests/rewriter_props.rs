//! Property tests for [`hdl::Rewriter`] surgery on generator-produced
//! designs: whatever op list the fuzzer applies, the result must stay a
//! well-formed design — no dangling [`NodeId`]s anywhere the netlist can
//! reference one — and the deterministic topological order must survive
//! (re-derivation agrees, and an identical rebuild reproduces it
//! bit-for-bit, which is what the tape engine's slot layout and
//! the lint fixpoint both assume). The render leg checks the Verilog
//! backend: surgered netlists still print, and identically so.
//!
//! The corpus codec rides along: corpus files are attacker-controlled
//! text, so a damaged [`FuzzInput`] document must be refused with an
//! error, never a panic.
//!
//! [`NodeId`]: hdl::NodeId

use fuzz::{apply_surgery, build_design, gen_input, gen_spec, FuzzInput, FuzzRng, SurgeryOp};
use hdl::Netlist;
use proptest::prelude::*;
use telemetry::Json;

fn decode_input(text: &str) -> Result<FuzzInput, String> {
    FuzzInput::from_json(&Json::parse(text)?)
}

/// Decodes one proptest tuple into a surgery op, covering all eight
/// classes including the seeded known-bad annotation spoof (the
/// well-formedness properties must hold for it too).
fn decode_op(class: u8, site: u8, flag: bool) -> SurgeryOp {
    match class % 8 {
        0 => SurgeryOp::StuckTagJoin { site, keep_b: flag },
        1 => SurgeryOp::ConstGuard { site, allow: flag },
        2 => SurgeryOp::WidenDeclassify { site },
        3 => SurgeryOp::DropMux { site, keep_t: flag },
        4 => SurgeryOp::RerouteOutput {
            out: site,
            back: site / 2,
        },
        5 => SurgeryOp::RelabelOutput { out: site },
        6 => SurgeryOp::DeadConst { wide: flag },
        _ => SurgeryOp::SpoofInputLabel { input: site },
    }
}

/// Every `NodeId` the netlist can hand out must index a real node: the
/// combinational dependencies of every node, every register's next
/// pointer, every output port driver, and every memory write port.
fn assert_no_dangling_ids(net: &Netlist) {
    let n = net.node_count();
    for id in net.node_ids() {
        for dep in net.comb_dependencies(id) {
            assert!(dep.index() < n, "{id:?} depends on out-of-range {dep:?}");
        }
    }
    for (i, next) in net.reg_next.iter().enumerate() {
        if let Some(next) = next {
            assert!(next.index() < n, "reg {i} next points at {next:?}");
        }
    }
    for port in &net.outputs {
        assert!(port.node.index() < n, "output {} dangles", port.name);
    }
    for wp in &net.write_ports {
        for src in [wp.data, wp.addr, wp.en] {
            assert!(src.index() < n, "write port references {src:?}");
        }
        assert!(
            wp.mem.index() < net.mems.len(),
            "write port names a bad mem"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn surgery_never_dangles_and_topo_stays_deterministic(
        seed in any::<u64>(),
        raw_ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<bool>()), 0..6),
    ) {
        let spec = gen_spec(&mut FuzzRng::new(seed));
        let ops: Vec<SurgeryOp> = raw_ops
            .iter()
            .map(|&(c, s, f)| decode_op(c, s, f))
            .collect();

        let surgered = apply_surgery(&build_design(&spec), &ops);
        let net = surgered.lower().expect("surgered design lowers");
        assert_no_dangling_ids(&net);

        // Topo validity: every node after its combinational dependencies.
        let order: Vec<_> = net.topo_order().collect();
        prop_assert_eq!(order.len(), net.node_count());
        let mut pos = vec![usize::MAX; net.node_count()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for id in net.node_ids() {
            for dep in net.comb_dependencies(id) {
                prop_assert!(
                    pos[dep.index()] < pos[id.index()],
                    "{:?} must precede {:?}", dep, id
                );
            }
        }

        // Determinism: re-derivation agrees with the lowering-time order,
        // and an independent rebuild + identical surgery reproduces both
        // the order and the rendered Verilog bit-for-bit.
        let rederived = net.toposort().expect("surgered netlist stays acyclic");
        prop_assert_eq!(&rederived, &order);
        let again = apply_surgery(&build_design(&spec), &ops)
            .lower()
            .expect("identical surgery lowers identically");
        prop_assert_eq!(&again.topo, &order);
        prop_assert_eq!(hdl::verilog::to_verilog(&again), hdl::verilog::to_verilog(&net));
    }

    #[test]
    fn damaged_corpus_json_errs_without_panicking(
        seed in any::<u64>(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let text = gen_input(seed).to_json().render();
        prop_assert!(decode_input(&text).is_ok());
        let at = (at % text.len() as u64) as usize;
        // A strict prefix of the compact object lacks its closing brace.
        let cut = String::from_utf8_lossy(&text.as_bytes()[..at]);
        prop_assert!(decode_input(&cut).is_err(), "accepted {:?}", cut);
        // A one-byte edit may still spell a valid input; decoding must
        // return either way.
        let mut edited = text.into_bytes();
        edited[at] = byte;
        let _ = decode_input(&String::from_utf8_lossy(&edited));
    }
}
