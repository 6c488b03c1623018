//! Common-subexpression elimination over the tape.
//!
//! Two instructions with the same opcode, (remapped) operand slots, and
//! immediates compute identical values in every settle pass — and,
//! because every tracking mode derives an operator's output label from
//! the *same* operand labels, identical runtime labels too. The duplicate
//! instruction is dropped and every later reference to its destination
//! slot (operands, register sources, write ports, release checks, and the
//! node→slot map used by peeks) is redirected to the surviving slot.
//!
//! Memory reads participate: within one settle pass two reads of the same
//! memory at the same address slot observe the same cell (memories only
//! change on the clock edge), and once merged the two nodes share a slot
//! forever. Downgrade gates never merge — each records violations under
//! its own node id, and merging would drop entries from the recorded
//! stream.

use std::collections::hash_map::Entry;

use hdl::hash::FixedMap;
use hdl::Value;

use crate::program::{Op, Program, Tape};

type Key = (Op, u32, u32, u32, Value, Value);

/// Runs the pass: value-numbers the tape in order, dropping duplicates
/// and redirecting slots.
pub(super) fn run(program: &mut Program) {
    let num_slots = program.num_slots;
    let mut remap: Vec<u32> = (0..num_slots as u32).collect();

    let old = std::mem::take(&mut program.tape);
    let mut new = Tape::default();
    let mut seen: FixedMap<Key, u32> =
        FixedMap::with_capacity_and_hasher(old.len(), Default::default());
    for i in 0..old.len() {
        let op = old.ops[i];
        // Remap operands through every merge made so far. The tape is in
        // topological order, so a merged slot's consumers all come later.
        let a = remap[old.a[i] as usize];
        let b = if op.b_is_slot() {
            remap[old.b[i] as usize]
        } else {
            old.b[i]
        };
        let c = if op.c_is_slot() {
            remap[old.c[i] as usize]
        } else {
            old.c[i]
        };
        let dst = old.dst[i];
        if op.is_downgrade() {
            new.push(op, dst, a, b, c, old.aux[i], old.out_mask[i]);
            continue;
        }
        let key: Key = (op, a, b, c, old.aux[i], old.out_mask[i]);
        match seen.entry(key) {
            Entry::Occupied(canonical) => remap[dst as usize] = *canonical.get(),
            Entry::Vacant(slot) => {
                slot.insert(dst);
                new.push(op, dst, a, b, c, old.aux[i], old.out_mask[i]);
            }
        }
    }
    program.tape = new;

    // Redirect every slot reference outside the tape.
    for slot in &mut program.slot_of {
        *slot = remap[*slot as usize];
    }
    for r in &mut program.regs {
        r.src = remap[r.src as usize];
    }
    for wp in &mut program.write_ports {
        wp.addr = remap[wp.addr as usize];
        wp.data = remap[wp.data as usize];
        wp.en = remap[wp.en as usize];
    }
    for check in &mut program.output_checks {
        check.slot = remap[check.slot as usize];
    }
}
