//! Same-op run scheduling: a dependency-preserving tape reorder that
//! clusters instructions with the same opcode.
//!
//! The executors dispatch on the opcode once per *run* of equal opcodes
//! (see `Program::runs`). The lowering emits the tape in netlist
//! topological order, which interleaves opcodes freely — the protected
//! AES tape averages ~2 instructions per run, so nearly every
//! instruction pays an opcode branch, and a tape of thousands of
//! instructions blows out the indirect-branch predictor. This pass
//! list-schedules the tape greedily by opcode: among all
//! dependency-ready instructions, it keeps draining the current opcode's
//! ready queue before switching to the fullest other queue.
//!
//! Scheduling is *windowed*: the tape is cut into fixed-size blocks of
//! consecutive instructions, and only instructions within one window are
//! reordered relative to each other. A global reorder maximises run
//! length (the AES tape collapses from ~3400 runs to a few dozen) but
//! migrates instructions arbitrarily far from their producers, which
//! wrecks the cache locality of the lane-batched executor's operand
//! accesses — measured, it is a net loss at 4+ lanes. Windowed
//! scheduling keeps every instruction within a fixed window
//! ([`SCHEDULE_WINDOW`](super::SCHEDULE_WINDOW) instructions) of its
//! original neighbourhood, trading some run-length
//! for intact producer→consumer reuse distance.
//!
//! ## Soundness
//!
//! The tape is SSA over slots (each instruction writes its own node's
//! slot exactly once per pass) and combinationally acyclic, so *any*
//! topological order computes identical settled values and labels.
//! Windowed reordering is such an order: cross-window dependencies
//! always run producer-first because windows are emitted in original
//! order, and intra-window dependencies are honoured explicitly. The
//! only order-observable effect inside a pass is the violation stream of
//! downgrade gates, so downgrade instructions are additionally chained
//! in their original relative order within each window (across windows
//! their order is preserved by construction). Memory reads all see the
//! same pre-clock-edge memory state (write ports apply at the edge,
//! after the pass), so their order is free.

use std::collections::VecDeque;

use crate::program::{Program, Tape};

/// Upper bound on `Op as usize` (fieldless enum), for bucket arrays.
const OP_BUCKETS: usize = 32;

/// Reorders `program.tape` in place (see the [module docs](self)).
/// `window` is the reordering block size: large enough that same-op runs
/// amortise the dispatch branch, small enough that reordering cannot
/// move a consumer far from its producer's cache lines.
pub(crate) fn run(program: &mut Program, window: usize) {
    let window = window.max(1);
    let tape = &program.tape;
    let n = tape.len();
    if n < 2 {
        return;
    }

    // Producer instruction of each slot (u32::MAX: input/reg/const slot,
    // written by no instruction — always ready).
    let mut producer = vec![u32::MAX; program.num_slots];
    for i in 0..n {
        producer[tape.dst[i] as usize] = i as u32;
    }

    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut scratch = Scratch::default();
    let mut ws = 0usize;
    while ws < n {
        let we = (ws + window).min(n);
        schedule_window(program, &producer, ws, we, &mut scratch, &mut order);
        ws = we;
    }
    debug_assert_eq!(order.len(), n, "schedule must be a permutation");

    // Apply the permutation: instructions keep their slots, only their
    // position on the tape changes.
    let tape = &program.tape;
    let mut scheduled = Tape::default();
    for &i in &order {
        let i = i as usize;
        scheduled.push(
            tape.ops[i],
            tape.dst[i],
            tape.a[i],
            tape.b[i],
            tape.c[i],
            tape.aux[i],
            tape.out_mask[i],
        );
    }
    program.tape = scheduled;
}

/// The per-window work space, reused by every window of one run.
#[derive(Default)]
struct Scratch {
    indegree: Vec<u32>,
    successors: Vec<Vec<u32>>,
    buckets: Vec<VecDeque<u32>>,
}

/// Greedy opcode-affine list scheduling of the window `[ws, we)`,
/// appending the chosen order to `order`. Only dependencies whose
/// producer is itself inside the window constrain the order — an earlier
/// window's results are already settled by emission order.
fn schedule_window(
    program: &Program,
    producer: &[u32],
    ws: usize,
    we: usize,
    scratch: &mut Scratch,
    order: &mut Vec<u32>,
) {
    let tape = &program.tape;
    let w = we - ws;
    let in_window = |p: u32| p != u32::MAX && (p as usize) >= ws && (p as usize) < we;

    // Window-local dependency edges producer → consumer, plus a chain
    // through the window's downgrade instructions to pin their relative
    // order.
    let indegree = &mut scratch.indegree;
    indegree.clear();
    indegree.resize(w, 0);
    if scratch.successors.len() < w {
        scratch.successors.resize_with(w, Vec::new);
    }
    let successors = &mut scratch.successors[..w];
    successors.iter_mut().for_each(Vec::clear);
    let depend = |from_slot: u32, to: usize, successors: &mut [Vec<u32>], indegree: &mut [u32]| {
        let p = producer[from_slot as usize];
        if in_window(p) && p as usize != to {
            successors[p as usize - ws].push((to - ws) as u32);
            indegree[to - ws] += 1;
        }
    };
    let mut prev_downgrade: Option<usize> = None;
    for i in ws..we {
        let op = tape.ops[i];
        depend(tape.a[i], i, successors, indegree);
        if op.b_is_slot() {
            depend(tape.b[i], i, successors, indegree);
        }
        if op.c_is_slot() {
            depend(tape.c[i], i, successors, indegree);
        }
        if op.is_downgrade() {
            if let Some(prev) = prev_downgrade {
                successors[prev - ws].push((i - ws) as u32);
                indegree[i - ws] += 1;
            }
            prev_downgrade = Some(i);
        }
    }

    // FIFO queues keep each opcode's instructions in original
    // (slot-allocation) order, which also keeps operand accesses roughly
    // sequential in memory. Every window drains its buckets, so the next
    // one starts with them empty.
    let buckets = &mut scratch.buckets;
    buckets.resize_with(OP_BUCKETS, VecDeque::new);
    let mut ready_count = 0usize;
    for i in 0..w {
        if indegree[i] == 0 {
            buckets[tape.ops[ws + i] as usize].push_back(i as u32);
            ready_count += 1;
        }
    }
    let mut current = usize::MAX;
    while ready_count > 0 {
        if current == usize::MAX || buckets[current].is_empty() {
            current = buckets
                .iter()
                .enumerate()
                .max_by_key(|(_, q)| q.len())
                .map(|(b, _)| b)
                .expect("bucket array is non-empty");
        }
        let i = buckets[current]
            .pop_front()
            .expect("chosen bucket is non-empty") as usize;
        ready_count -= 1;
        order.push((ws + i) as u32);
        for &succ in &successors[i] {
            let s = succ as usize;
            indegree[s] -= 1;
            if indegree[s] == 0 {
                buckets[tape.ops[ws + s] as usize].push_back(succ);
                ready_count += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hdl::{ModuleBuilder, Netlist, Value};
    use ifc_lattice::{Conf, Integ, Label};

    use super::run;
    use crate::opt::SCHEDULE_WINDOW;
    use crate::program::Program;
    use crate::{BatchedSim, TrackMode};

    /// Six independent xor/add/and cones folded into an accumulator
    /// register: the lowered tape cycles through the opcodes, so there
    /// are same-op runs to cluster.
    fn netlist() -> Netlist {
        let mut m = ModuleBuilder::new("scheduled");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let acc = m.reg("acc", 8, 1);
        let mut x = acc;
        for k in 0..6 {
            let key = m.lit(k * 0x25, 8);
            let s = m.xor(a, key);
            let t = m.add(b, acc);
            let u = m.and(s, t);
            x = m.or(x, u);
        }
        m.connect(acc, x);
        m.output("x", x);
        m.finish().lower().expect("lowers")
    }

    /// A one-lane Precise instance over the tape, scheduled with
    /// `window` when given, and the tape's same-op run count.
    fn instance(net: &Netlist, window: Option<usize>) -> (BatchedSim, usize) {
        let mut program = Program::compile(net.clone());
        if let Some(window) = window {
            run(&mut program, window);
            program.rebuild_downgrade_index();
        }
        let runs = program.runs.len();
        let sim = BatchedSim::from_program(Arc::new(program), vec![TrackMode::Precise]);
        (sim, runs)
    }

    #[test]
    fn every_window_matches_the_unscheduled_tape() {
        let net = netlist();
        let (plain, plain_runs) = instance(&net, None);
        for window in [1, 2, SCHEDULE_WINDOW] {
            let (mut scheduled, runs) = instance(&net, Some(window));
            if window == SCHEDULE_WINDOW {
                assert!(runs < plain_runs, "{runs} runs, unscheduled {plain_runs}");
            }
            let mut plain = plain.with_lanes(1);
            for cycle in 0..16u64 {
                let level = |k: u64| ((cycle * 7 + k) % 16) as u8;
                for (k, port) in ["a", "b"].into_iter().enumerate() {
                    let k = k as u64;
                    let value = Value::from((cycle * 0x9d) ^ (k * 0x5a));
                    let label = Label::new(Conf::new(level(k)), Integ::new(level(k + 3)));
                    for sim in [&mut plain, &mut scheduled] {
                        sim.set(0, port, value);
                        sim.set_label(0, port, label);
                    }
                }
                for id in net.node_ids() {
                    assert_eq!(
                        (scheduled.peek_node(0, id), scheduled.peek_node_label(0, id)),
                        (plain.peek_node(0, id), plain.peek_node_label(0, id)),
                        "window {window}, cycle {cycle}, node {id:?}"
                    );
                }
                plain.tick();
                scheduled.tick();
            }
        }
    }
}
