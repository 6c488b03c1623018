//! Proof that the simulation hot path performs zero heap allocations,
//! and that the static checker stays within its allocation bound.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up pass (first-touch interning of input stimulus, lazy table
//! growth), a measured window of `set`/`eval`/`tick` iterations on the
//! full protected accelerator must allocate nothing — on the interpreting
//! reference simulator and on every lane width of the tape engine.
//! (Recording a violation does allocate; the workload here is
//! violation-free, which the test asserts.) One `ifc_check::check` of
//! the same design must allocate fewer than [`CHECK_ALLOCATION_BOUND`]
//! times, one lint run fewer than [`LINT_ALLOCATION_BOUND`], one
//! topological sort at most [`TOPOSORT_ALLOCATION_BOUND`], and one k=4
//! proof of the annotated baseline fewer than
//! [`PROVER_ALLOCATION_BOUND`]; replaying that proof's `dbg_out`
//! counterexample may ask for no more bytes than its two simulators and
//! [`REPLAY_SLACK_BYTES`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use secure_aes_ifc::accel::protected;
use secure_aes_ifc::sim::{BatchedSim, Simulator, TrackMode, SUPPORTED_LANES};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread, and the bytes they asked for (a
    /// reallocation counts as one allocation of its new size). The
    /// counts are per thread because the test harness's own threads
    /// allocate when they report a finished test, and a process-wide
    /// count charges those to whichever test is measuring at the time.
    /// Nothing measured here starts a thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
}

/// Allocations this thread has made so far.
fn allocated_so_far() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread's allocations have asked for so far.
fn bytes_so_far() -> usize {
    BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every test serializes on this lock, so each measured window runs with
/// no other test's setup or work in the process.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the steady-state loop and returns allocations observed inside
/// the measured window.
fn measure(sim: &mut Simulator) -> usize {
    // Warm-up: lets one-time lazy work (input-map inserts, first
    // propagation) happen outside the measurement.
    for i in 0..16u64 {
        sim.set("in_block", u128::from(i) * 0x0123_4567_89ab_cdef);
        sim.set("in_valid", u128::from(i % 2));
        sim.eval();
        sim.tick();
    }
    let before = allocated_so_far();
    for i in 0..200u64 {
        sim.set("in_block", u128::from(i) * 0x0fed_cba9_8765_4321);
        sim.set("in_valid", u128::from(i % 2));
        sim.eval();
        sim.tick();
    }
    let after = allocated_so_far();
    assert!(
        sim.violations().is_empty(),
        "workload must stay violation-free for this measurement"
    );
    after - before
}

/// The same steady-state loop on the lane-batched backend, driving every
/// lane.
fn measure_lanes(sim: &mut BatchedSim) -> usize {
    let lanes = sim.lanes();
    for i in 0..16u64 {
        for lane in 0..lanes {
            sim.set(
                lane,
                "in_block",
                u128::from(i + lane as u64) * 0x0123_4567_89ab_cdef,
            );
            sim.set(lane, "in_valid", u128::from(i % 2));
        }
        sim.eval();
        sim.tick();
    }
    let before = allocated_so_far();
    for i in 0..200u64 {
        for lane in 0..lanes {
            sim.set(
                lane,
                "in_block",
                u128::from(i + lane as u64) * 0x0fed_cba9_8765_4321,
            );
            sim.set(lane, "in_valid", u128::from(i % 2));
        }
        sim.eval();
        sim.tick();
    }
    let after = allocated_so_far();
    for lane in 0..lanes {
        assert!(
            sim.violations(lane).is_empty(),
            "workload must stay violation-free for this measurement"
        );
    }
    after - before
}

#[test]
fn tick_and_eval_do_not_allocate() {
    let _guard = serial();
    let net = protected().lower().expect("accelerator lowers");
    for mode in [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise] {
        let mut interp = Simulator::with_tracking(net.clone(), mode);
        assert_eq!(
            measure(&mut interp),
            0,
            "Simulator allocated in the hot path ({mode:?})"
        );
    }
}

#[test]
fn batched_tick_and_eval_do_not_allocate() {
    let _guard = serial();
    // Every supported lane width in every tracking mode, and from two
    // lanes up a mixed batch alternating Conservative and Precise (W=2
    // is the fuzz replay engine); the batched prototype shares one
    // compiled program across widths.
    let net = protected().lower().expect("accelerator lowers");
    let prototype = BatchedSim::with_tracking(net, TrackMode::Precise, 1);
    for lanes in SUPPORTED_LANES {
        let mixed: Vec<TrackMode> = [TrackMode::Conservative, TrackMode::Precise]
            .into_iter()
            .cycle()
            .take(lanes)
            .collect();
        let uniform = [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise]
            .map(|mode| vec![mode; lanes]);
        for modes in uniform.iter().chain((lanes >= 2).then_some(&mixed)) {
            let mut batched = prototype.with_lane_modes(modes);
            assert_eq!(
                measure_lanes(&mut batched),
                0,
                "BatchedSim allocated in the hot path ({modes:?})"
            );
        }
    }
}

/// Heap allocations one `ifc_check::check(&protected())` may make; it
/// makes 344. The bound leaves room for small changes, while a tag set
/// rebuilt on every label join or clone would make tens of thousands.
const CHECK_ALLOCATION_BOUND: usize = 1_000;

#[test]
fn static_check_allocates_within_its_bound() {
    let _guard = serial();
    let design = protected();
    let before = allocated_so_far();
    let report = secure_aes_ifc::ifc_check::check(&design);
    let allocations = allocated_so_far() - before;
    assert!(report.is_secure(), "{report}");
    assert!(
        allocations < CHECK_ALLOCATION_BOUND,
        "check(protected) made {allocations} allocations (bound {CHECK_ALLOCATION_BOUND})"
    );
}

/// Heap allocations one `run_static_passes(Some(&protected), ..)` may
/// make. A cone walk or a forward graph built from per-node sets would
/// make tens of thousands; the shared netlist index keeps the run to the
/// findings' strings and a fixed set of per-pass arrays.
const LINT_ALLOCATION_BOUND: usize = 2_500;

/// Heap allocations one `Netlist::toposort` may make: its mark, order,
/// grey-path and stack arrays and a few stack regrowths, whatever the
/// node count.
const TOPOSORT_ALLOCATION_BOUND: usize = 16;

#[test]
fn static_lint_allocates_within_its_bound() {
    use secure_aes_ifc::ifc_check::{run_static_passes, LintConfig};
    let _guard = serial();
    let design = protected();
    let net = design.lower().expect("accelerator lowers");
    let cfg = LintConfig::new();

    let before = allocated_so_far();
    let report = run_static_passes(Some(&design), &net, &cfg);
    let allocations = allocated_so_far() - before;
    assert_eq!(
        report.count_at(secure_aes_ifc::ifc_check::Severity::Error),
        0,
        "{report}"
    );
    assert!(
        allocations < LINT_ALLOCATION_BOUND,
        "run_static_passes(protected) made {allocations} allocations \
         (bound {LINT_ALLOCATION_BOUND})"
    );

    let before = allocated_so_far();
    let order = net.toposort().expect("lowered netlist is acyclic");
    let allocations = allocated_so_far() - before;
    assert_eq!(order, net.topo);
    assert!(
        allocations <= TOPOSORT_ALLOCATION_BOUND,
        "toposort(protected) made {allocations} allocations \
         (bound {TOPOSORT_ALLOCATION_BOUND})"
    );
}

/// Heap allocations one `prove_annotated(&baseline_annotated, k = 4)`
/// may make; it makes about 940, two thirds of them in its two solved
/// queries' encoders and solvers. Bit-vectors copied per memo hit, or a
/// netlist cloned per counterexample replay, would make tens of
/// thousands (the `dbg_out` query alone builds 20,430 AIG nodes).
const PROVER_ALLOCATION_BOUND: usize = 3_000;

/// Bytes a counterexample replay may ask for beyond its two simulators'
/// construction: the drive maps and recorded violations of one or two
/// cycles. A copied netlist (≈ 1 MB for `baseline_annotated`) exceeds it.
const REPLAY_SLACK_BYTES: usize = 64 * 1024;

#[test]
fn prover_allocates_within_its_bound() {
    use secure_aes_ifc::ifc_check::prover::{
        observables, prove_annotated, witness, ProveEnv, ProveOptions, Verdict,
    };
    let _guard = serial();
    let net = secure_aes_ifc::accel::baseline_annotated()
        .lower()
        .expect("accelerator lowers");
    let opts = ProveOptions {
        k: 4,
        ..ProveOptions::default()
    };

    let before = allocated_so_far();
    let report = prove_annotated(&net, &opts);
    let allocations = allocated_so_far() - before;
    let confirmed: Vec<&str> = report
        .results
        .iter()
        .filter(|r| matches!(&r.verdict, Verdict::Counterexample(cex) if cex.confirmed))
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(confirmed, ["cfg_out", "dbg_out"], "the two known leaks");
    assert!(
        allocations < PROVER_ALLOCATION_BOUND,
        "prove_annotated(baseline_annotated, k=4) made {allocations} allocations \
         (bound {PROVER_ALLOCATION_BOUND})"
    );

    // The oracle replay runs its two simulators on the caller's netlist:
    // it asks for about the bytes of two simulators, where one copy of
    // the netlist would add about as much again.
    let dbg_out = report.results.iter().find(|r| r.name == "dbg_out");
    let Some(Verdict::Counterexample(cex)) = dbg_out.map(|r| &r.verdict) else {
        panic!("dbg_out has a counterexample");
    };
    let env = ProveEnv::from_annotations(&net);
    let obs = observables(&net, &env, opts.write_enables)
        .into_iter()
        .find(|o| o.name == "dbg_out")
        .expect("dbg_out is observable");
    let before = bytes_so_far();
    drop(Simulator::borrowing(&net, TrackMode::Conservative));
    let simulator = bytes_so_far() - before;
    let before = bytes_so_far();
    let outcome = witness::replay(&net, &obs, &cex.programs);
    let replay = bytes_so_far() - before;
    assert!(outcome.confirmed, "the replay confirms dbg_out's leak");
    assert!(
        replay < 2 * simulator + REPLAY_SLACK_BYTES,
        "replaying dbg_out asked for {replay} bytes; two simulators take {}",
        2 * simulator
    );
}
