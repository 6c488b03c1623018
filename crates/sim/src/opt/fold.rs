//! Constant folding through literals.
//!
//! A slot is *constant* when nothing can ever rewrite it at runtime: the
//! slot of a `Const` node, or the destination of an instruction whose
//! operands are all constant. Such instructions are evaluated once here,
//! their results baked into [`Program::init_values`], and the
//! instructions dropped from the tape.
//!
//! Soundness under label tracking: constant slots are initialised to
//! `(⊥,⊤)` and no surviving instruction writes them, so at runtime their
//! labels are always `(⊥,⊤)`; the folded instruction's output label would
//! be the join of all-`(⊥,⊤)` operands — `(⊥,⊤)`, which is exactly what
//! the destination slot's initial label already holds. Downgrade gates
//! are never folded (they record violations against *runtime* principal
//! tags), and memory reads are never folded (cells are mutable state). A
//! mux folds only when the select *and both arms* are constant, because
//! under conservative tracking its output label joins the unselected arm
//! too.

use hdl::{Node, Value};
use ifc_lattice::{Label, SecurityTag};

use crate::program::{Op, Program, Tape};

/// Evaluates one foldable instruction over constant operand values,
/// mirroring the executor's scalar semantics (the final width mask is
/// applied by the caller).
fn eval(op: Op, va: Value, vb: Value, vc: Value, b_raw: u32, c_raw: u32, aux: Value) -> Value {
    let tag = |v: Value| Label::from(SecurityTag::from_bits(v as u8));
    match op {
        Op::Not => !va,
        Op::ReduceOr => Value::from(va != 0),
        Op::ReduceAnd => Value::from(va == aux),
        Op::ReduceXor => Value::from(va.count_ones() % 2 == 1),
        Op::And => va & vb,
        Op::Or => va | vb,
        Op::Xor => va ^ vb,
        Op::Add => va.wrapping_add(vb),
        Op::Sub => va.wrapping_sub(vb),
        Op::Eq => Value::from(va == vb),
        Op::Ne => Value::from(va != vb),
        Op::Lt => Value::from(va < vb),
        Op::Ge => Value::from(va >= vb),
        Op::TagLeq => Value::from(tag(va).flows_to(tag(vb))),
        Op::TagJoin => Value::from(SecurityTag::from(tag(va).join(tag(vb))).bits()),
        Op::TagMeet => Value::from(SecurityTag::from(tag(va).meet(tag(vb))).bits()),
        Op::Mux => {
            if va & 1 == 1 {
                vb
            } else {
                vc
            }
        }
        Op::Slice => va >> b_raw,
        Op::Cat => (va << c_raw) | vb,
        Op::MemRead | Op::Declassify | Op::Endorse => {
            unreachable!("{op:?} is never constant-folded")
        }
    }
}

/// Runs the pass: marks constant slots, folds instructions whose operands
/// are all constant, and rewrites the tape in place.
pub(super) fn run(program: &mut Program) {
    let num_slots = program.num_slots;
    let mut is_const = vec![false; num_slots];
    for id in program.net.node_ids() {
        if matches!(program.net.node(id), Node::Const { .. }) {
            is_const[program.slot_of[id.index()] as usize] = true;
        }
    }

    let old = std::mem::take(&mut program.tape);
    let mut new = Tape::default();
    for i in 0..old.len() {
        let op = old.ops[i];
        let (a, b, c) = (old.a[i], old.b[i], old.c[i]);
        let foldable = !op.is_downgrade()
            && op != Op::MemRead
            && is_const[a as usize]
            && (!op.b_is_slot() || is_const[b as usize])
            && (!op.c_is_slot() || is_const[c as usize]);
        if foldable {
            let va = program.init_values[a as usize];
            let vb = if op.b_is_slot() {
                program.init_values[b as usize]
            } else {
                0
            };
            let vc = if op.c_is_slot() {
                program.init_values[c as usize]
            } else {
                0
            };
            let dst = old.dst[i] as usize;
            program.init_values[dst] = eval(op, va, vb, vc, b, c, old.aux[i]) & old.out_mask[i];
            is_const[dst] = true;
        } else {
            new.push(op, old.dst[i], a, b, c, old.aux[i], old.out_mask[i]);
        }
    }
    program.tape = new;
}
