//! The acceptance shrink: a seeded known-bad input (the
//! annotation spoof buried under noise surgery and noise traffic) must
//! shrink, under the *real* pipeline predicate, to a 1-minimal witness —
//! every single remaining op is necessary for the invariant-1 failure to
//! reproduce.

use fuzz::{
    gen_input, is_one_minimal, run_input, shrink, size, AttackOp, FuzzInput, ProtectedReplayer,
    SurgeryOp, TenantProgram,
};

#[test]
fn planted_known_bad_shrinks_to_a_one_minimal_witness() {
    let replayer = ProtectedReplayer::new();

    // The spoof plus guaranteed traffic, padded with droppable noise.
    let mut planted = gen_input(0xbad_c0de);
    planted.surgery.truncate(2);
    planted.surgery.push(SurgeryOp::DeadConst { wide: false });
    planted
        .surgery
        .push(SurgeryOp::SpoofInputLabel { input: 0 });
    planted.programs = vec![TenantProgram {
        ops: vec![
            AttackOp::Idle { cycles: 3 },
            AttackOp::Submit { slot: 0, data: 9 },
            AttackOp::WriteCfg { value: 2 },
        ],
    }];
    planted.spec.tenants = 1;
    planted.spec.normalize();

    let mut fails = |candidate: &FuzzInput| !run_input(candidate, &replayer).invariant1.is_empty();
    assert!(fails(&planted), "the planted spoof must break invariant 1");

    let minimal = shrink(&planted, 200, &mut fails);
    assert!(fails(&minimal), "shrinking must preserve the failure");
    assert!(
        size(&minimal) < size(&planted),
        "shrinking must make progress ({} -> {})",
        size(&planted),
        size(&minimal)
    );
    assert!(
        is_one_minimal(&minimal, &mut fails),
        "the shrunk witness must be 1-minimal: {minimal:?}"
    );

    // The minimal witness is the spoof itself plus a single submission:
    // one surgery op, one program op.
    assert_eq!(minimal.surgery.len(), 1);
    assert!(minimal.surgery[0].is_known_bad());
    let total_ops: usize = minimal.programs.iter().map(|p| p.ops.len()).sum();
    assert_eq!(total_ops, 1);
}
