//! Lane-batched simulation: W independent sessions per tape pass.
//!
//! [`BatchedSim`] executes a netlist compiled once into a flat
//! instruction tape, and widens every value and label slot to a *lane
//! array*: slot `s` of lane `l` lives at `s * W + l`, so the W copies of
//! a slot sit contiguously in memory. One fetch/decode of
//! each instruction then drives all W lanes with a tight inner loop —
//! per-instruction dispatch cost, the dominant cost of small tapes, is
//! paid once per *batch* instead of once per session.
//!
//! The lane state is laid out struct-of-arrays for the vectorizer:
//!
//! * **Values** are two parallel `u64` arrays (the low and high halves
//!   of the 128-bit [`Value`]) rather than `u128` lane arrays: LLVM does
//!   not vectorize `i128` lane loops, so a `u128` layout executes every
//!   lane as two-register scalar arithmetic. With split halves each lane
//!   loop is a plain `u64` loop over a fixed-size chunk — at W = 8 one
//!   64-byte chunk per operand half — and compiles to a handful of
//!   vector ops. Instructions whose result mask has no high bits (the
//!   vast majority: byte- and word-wide AES plumbing) skip the high half
//!   entirely; a slot whose width is ≤ 64 keeps an all-zero high half as
//!   an invariant (initial state, `set`, and every masked write preserve
//!   it).
//! * **Labels** are one `u8` array of `2W`-byte chunks, one chunk per
//!   slot (and per memory cell): the W lanes' confidentiality levels,
//!   then their integrity levels stored inverted, as `MAX_LEVEL − level`.
//!   Integrity joins by taking the *less* trusted level, a `min`; on
//!   the inverted bytes that is a `max`, so the label join — the hot
//!   operation of conservative tracking, run for every binary
//!   instruction — is one lanewise byte `max` over one chunk, and
//!   `PUBLIC_TRUSTED` is the all-zero chunk. A `[Label; W]` layout would
//!   pay scalar struct-field arithmetic per lane instead. Labels are
//!   converted only at the boundary (set/peek, memory cells, downgrade
//!   gates, output checks, [`LaneSnapshot`]).
//!
//! The layout alone does not make the lane loops vector code. On the
//! baseline x86-64 target (SSE2, no `target-cpu`) two rules do, and the
//! executor keeps both:
//!
//! 1. **Per-block operand loads.** Each lane loop copies the operand
//!    chunks it reads inside its own block; no `[u64; W]` copy is shared
//!    between the low-half and the high-half block. LLVM keeps a shared
//!    copy as scalars on the stack, which turns a two-half kernel such as
//!    `Slice` or `Cat` into spilling scalar code instead of
//!    `psrlq`/`psllq`/`por`.
//! 2. **Byte-lane label rules.** Every label rule — copy, join,
//!    `MemRead`, the write-port join and both `Mux` rules — is one op on
//!    one `[u8; 2W]` chunk, through two `#[inline(always)]` helpers:
//!    lanewise max and mask-select. A plain byte loop compiled to a
//!    per-byte `cmov` and store, so chunks of at most 8 bytes run SWAR
//!    on one `u64` with a guard-bit compare (exact because stored bytes
//!    stay below `0x80`), and longer ones loop over 16-byte blocks
//!    (`pmaxub`). Out of line, or as one whole-chunk loop, the 32-byte
//!    rules ran a W = 16 cycle ≈ 50 % and ≈ 15 % slower.
//!    The `Mux` label rule is branch-free: a taken mask from `sel & 1`
//!    and a per-pass Precise mask, each spread over both halves of the
//!    chunk, select between the two rules.
//!
//! Lanes are fully independent sessions over one design: each lane has
//! its own input values and labels, register and memory state, and its
//! own recorded violation stream. They share only the (immutable)
//! program and the clock — every lane is always on the same cycle. The
//! public API mirrors the single-session backends with a `lane` index in
//! front: [`set`](BatchedSim::set)`(lane, port, value)`,
//! [`peek`](BatchedSim::peek)`(lane, port)`,
//! [`violations`](BatchedSim::violations)`(lane)`, and so on.
//!
//! The tracking mode is a per-lane property: a tracked batch may mix
//! `Conservative` and `Precise` lanes (they differ only in the `Mux`
//! label rule, which the executor computes both ways and selects per
//! lane with a mask), while `Off` is batch-wide — a batch is all-`Off` or
//! all-tracked. The fuzz replay uses this to run one input under both
//! tracked modes in a single two-lane pass
//! ([`with_lane_modes`](BatchedSim::with_lane_modes)).
//!
//! The executor is monomorphised over the lane width (W ∈ {1, 2, 4, 8,
//! 16}), the label chunk length `L = 2W` (a second const parameter:
//! `as_chunks::<{ 2 * W }>` is not stable Rust) and whether labels are
//! tracked, so the inner lane loops unroll
//! at known trip counts, and dispatches once per same-opcode *run* (see
//! the [`schedule`](crate::opt) pass) instead of once per instruction.
//! Semantics per lane are bit-for-bit identical to the interpreter — the
//! differential suite drives the same stimulus through
//! [`Simulator`](crate::Simulator) and every lane of a `BatchedSim` and
//! asserts identical values, labels, and violation
//! streams.

use std::sync::Arc;

use hdl::{mask, Netlist, NodeId, Value};
use ifc_lattice::{Conf, Integ, Label, SecurityTag, MAX_LEVEL};

use crate::backend::{self, RunEngine};
use crate::opt::{self, OptConfig, OptStats};
use crate::program::{push_violation, Op, Program};
use crate::simulator::{AllowedLabel, DEFAULT_VIOLATION_CAP};
use crate::violation::RuntimeViolation;
use crate::TrackMode;

/// Lane widths the executor is monomorphised for.
pub const SUPPORTED_LANES: [usize; 5] = [1, 2, 4, 8, 16];

#[inline]
fn lo64(v: Value) -> u64 {
    v as u64
}

#[inline]
fn hi64(v: Value) -> u64 {
    (v >> 64) as u64
}

#[inline]
fn join64(lo: u64, hi: u64) -> Value {
    (Value::from(hi) << 64) | Value::from(lo)
}

/// The byte range of label chunk `i` in a `w`-lane label plane.
#[inline]
fn chunk(w: usize, i: usize) -> std::ops::Range<usize> {
    i * 2 * w..(i + 1) * 2 * w
}

/// Lane `lane`'s [`Label`] in one label chunk (the plane only ever holds
/// bytes written by [`put_label`], so the range assertions in the
/// constructors cannot fire).
#[inline]
fn label_at(chunk: &[u8], lane: usize) -> Label {
    let (conf, integ) = (chunk[lane], chunk[chunk.len() / 2 + lane]);
    Label::new(Conf::new(conf), Integ::new(MAX_LEVEL - integ))
}

/// Stores lane `lane`'s [`Label`] into one label chunk, integrity
/// inverted.
#[inline]
fn put_label(chunk: &mut [u8], lane: usize, label: Label) {
    chunk[lane] = label.conf.raw();
    chunk[chunk.len() / 2 + lane] = MAX_LEVEL - label.integ.raw();
}

// Byte-lane label rules over one `[u8; L]` label chunk, `L = 2W` (rule 2
// of the module docs). At L ≤ 8 the chunk is packed into one `u64` and
// compared SWAR-style; from L = 16 up the helpers loop over 16-byte
// blocks, each of which compiles to one vector op. Every helper is
// `#[inline(always)]`: with plain `#[inline]` a W = 16 cycle took ≈ 200
// instead of ≈ 134 µs.

// The guard-bit compare in `ge_bytes` is exact only while every stored
// byte leaves the top bit clear.
const _: () = assert!(MAX_LEVEL < 0x80);

/// The guard bit of every byte of a packed chunk.
const GUARD: u64 = 0x8080_8080_8080_8080;

#[inline(always)]
fn pack<const L: usize>(x: [u8; L]) -> u64 {
    let mut b = [0u8; 8];
    b[..L].copy_from_slice(&x);
    u64::from_le_bytes(b)
}

#[inline(always)]
fn unpack<const L: usize>(v: u64) -> [u8; L] {
    let mut out = [0u8; L];
    out.copy_from_slice(&v.to_le_bytes()[..L]);
    out
}

/// `0xff` in every byte where `x ≥ y`, else `0x00`, for bytes below
/// `0x80`: `(x | 0x80) − y` cannot borrow out of a byte, and keeps the
/// guard bit exactly when `x ≥ y`.
#[inline(always)]
fn ge_bytes(x: u64, y: u64) -> u64 {
    ((((x | GUARD) - y) & GUARD) >> 7) * 0xff
}

/// `f` byte by byte over the 16-byte blocks of `L`-byte chunks (L a
/// multiple of 16; a shorter chunk has no whole block and is skipped).
#[inline(always)]
fn by_blocks<const L: usize>(
    m: [u8; L],
    a: [u8; L],
    b: [u8; L],
    f: impl Fn(u8, u8, u8) -> u8,
) -> [u8; L] {
    let mut out = [0u8; L];
    let (mc, ac, bc) = (
        m.as_chunks::<16>().0,
        a.as_chunks::<16>().0,
        b.as_chunks::<16>().0,
    );
    for (k, o) in out.as_chunks_mut::<16>().0.iter_mut().enumerate() {
        for j in 0..16 {
            o[j] = f(mc[k][j], ac[k][j], bc[k][j]);
        }
    }
    out
}

/// Lanewise byte max: the label join, confidentiality and inverted
/// integrity alike.
#[inline(always)]
fn lanes_max<const L: usize>(a: [u8; L], b: [u8; L]) -> [u8; L] {
    if L <= 8 {
        let (x, y) = (pack(a), pack(b));
        let ge = ge_bytes(x, y);
        unpack((x & ge) | (y & !ge))
    } else {
        by_blocks(a, a, b, |_, x, y| x.max(y))
    }
}

/// Lanewise select: `a` where the mask byte is `0xff`, `b` where it is
/// `0x00`.
#[inline(always)]
fn lanes_select<const L: usize>(mask: [u8; L], a: [u8; L], b: [u8; L]) -> [u8; L] {
    if L <= 8 {
        let m = pack(mask);
        unpack((pack(a) & m) | (pack(b) & !m))
    } else {
        by_blocks(mask, a, b, |m, x, y| (x & m) | (y & !m))
    }
}

/// A per-lane byte mask spread over both halves of a label chunk.
#[inline(always)]
fn lane_mask<const W: usize, const L: usize>(on: impl Fn(usize) -> bool) -> [u8; L] {
    let mut out = [0u8; L];
    for l in 0..W {
        let m = u8::from(on(l)).wrapping_neg();
        out[l] = m;
        out[W + l] = m;
    }
    out
}

/// Lane-batched simulation backend: W independent sessions advanced in
/// lock-step by one pass over the shared instruction tape (the `batched`
/// module's source docs describe the lane-striped layout).
#[derive(Debug, Clone)]
pub struct BatchedSim {
    program: Arc<Program>,
    /// Per lane (the tape is mode-free): all `Off`, or any mix of
    /// `Conservative` and `Precise`.
    modes: Vec<TrackMode>,
    lanes: usize,
    /// Low 64 value bits, slot-major lane-striped: slot `s`, lane `l` at
    /// `s * W + l`.
    values_lo: Vec<u64>,
    /// High 64 value bits, parallel to `values_lo` (all zero for slots
    /// narrower than 65 bits).
    values_hi: Vec<u64>,
    /// Labels, one `2W`-byte chunk per slot: the W lanes'
    /// confidentiality levels, then their integrity levels stored as
    /// `MAX_LEVEL − level`.
    labels: Vec<u8>,
    /// Per-memory cell arrays, address-major lane-striped, split and
    /// chunked like the slots.
    mem_lo: Vec<Vec<u64>>,
    mem_hi: Vec<Vec<u64>>,
    mem_labels: Vec<Vec<u8>>,
    /// Two-phase clock-edge scratch, register-major lane-striped.
    reg_scratch_lo: Vec<u64>,
    reg_scratch_hi: Vec<u64>,
    reg_scratch_labels: Vec<u8>,
    /// Per-lane remaining violation room (hoisted cap check scratch).
    room: Vec<usize>,
    clean: bool,
    cycle: u64,
    /// Per-lane recorded violation streams.
    violations: Vec<Vec<RuntimeViolation>>,
    violation_cap: usize,
    violations_truncated: Vec<bool>,
}

/// One lane's complete architectural state, checkpointed by
/// [`BatchedSim::lane_snapshot`] and resumable into any lane of the same
/// tracking mode, in any batch of the same tape, via
/// [`BatchedSim::restore_lane`] — the
/// mechanism the accelerator farm uses to re-pack live sessions across
/// batch widths without replaying their history.
///
/// De-striped (single-lane contiguous) copies of the slot value planes,
/// the slot labels, and every memory's cell values and labels, plus the
/// lane's recorded violation stream. Register state needs no special
/// handling: registers live in ordinary value slots, and the clock-edge
/// scratch is dead between cycles.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    tape_fingerprint: u64,
    mode: TrackMode,
    cycle: u64,
    values_lo: Vec<u64>,
    values_hi: Vec<u64>,
    labels: Vec<Label>,
    mem_lo: Vec<Vec<u64>>,
    mem_hi: Vec<Vec<u64>>,
    mem_labels: Vec<Vec<Label>>,
    violations: Vec<RuntimeViolation>,
    violations_truncated: bool,
}

impl LaneSnapshot {
    /// Fingerprint of the tape the source batch executed
    /// ([`BatchedSim::tape_fingerprint`]); restore targets must match.
    #[must_use]
    pub fn tape_fingerprint(&self) -> u64 {
        self.tape_fingerprint
    }

    /// Tracking mode of the source lane.
    #[must_use]
    pub fn mode(&self) -> TrackMode {
        self.mode
    }

    /// The source batch's shared cycle counter at snapshot time
    /// (diagnostic; not restored).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The checkpointed lane's violation stream.
    #[must_use]
    pub fn violations(&self) -> &[RuntimeViolation] {
        &self.violations
    }
}

/// [`RunEngine`] adapter binding the shared settled-state run loop to a
/// `BatchedSim` monomorphised over one lane width and label tracking.
/// `L = 2W` is the label chunk length (`as_chunks::<{ 2 * W }>` is not
/// stable Rust).
struct BatchedEngine<'a, const W: usize, const L: usize, const TRACK: bool>(&'a mut BatchedSim);

impl<const W: usize, const L: usize, const TRACK: bool> RunEngine
    for BatchedEngine<'_, W, L, TRACK>
{
    fn is_clean(&self) -> bool {
        self.0.clean
    }

    fn set_dirty(&mut self) {
        self.0.clean = false;
    }

    fn refresh_room(&mut self) {
        self.0.refresh_room();
    }

    fn settled_scan(&mut self) {
        self.0.record_settled_violations();
    }

    fn exec_record(&mut self) {
        self.0.exec::<W, L, TRACK>(true);
    }

    fn edge(&mut self) {
        self.0.clock_edge::<W, L, TRACK>();
    }
}

impl BatchedSim {
    /// Compiles a netlist for the given tracking mode, no optimizer
    /// passes.
    #[must_use]
    pub fn with_tracking(net: Netlist, mode: TrackMode, lanes: usize) -> BatchedSim {
        BatchedSim::with_tracking_opt(net, mode, lanes, &OptConfig::none())
    }

    /// Compiles a netlist, runs the configured optimizer passes, and
    /// instantiates `lanes` lanes of state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
    #[must_use]
    pub fn with_tracking_opt(
        net: Netlist,
        mode: TrackMode,
        lanes: usize,
        config: &OptConfig,
    ) -> BatchedSim {
        let mut program = Program::compile(net);
        opt::optimize(&mut program, config);
        BatchedSim::from_program(Arc::new(program), vec![mode; lanes])
    }

    /// Instantiates one lane of execution state per entry of `modes`, in
    /// that lane's tracking mode, over a shared program (the fleet path:
    /// compile once, stripe many sessions).
    ///
    /// # Panics
    ///
    /// Panics if the lane count is not one of [`SUPPORTED_LANES`], or if
    /// `Off` is mixed with tracked lanes.
    pub(crate) fn from_program(program: Arc<Program>, modes: Vec<TrackMode>) -> BatchedSim {
        let lanes = modes.len();
        assert!(
            SUPPORTED_LANES.contains(&lanes),
            "unsupported lane width {lanes} (supported: {SUPPORTED_LANES:?})"
        );
        let tracked = modes[0] != TrackMode::Off;
        assert!(
            modes.iter().all(|&m| (m != TrackMode::Off) == tracked),
            "a batch is all-Off or all-tracked, got lane modes {modes:?}"
        );
        // Lane-stripe a single-session array: each source element becomes
        // `lanes` contiguous copies (slot-/address-major layout), split
        // into value halves.
        let stripe = |src: &[Value], half: fn(Value) -> u64| -> Vec<u64> {
            let mut out = Vec::with_capacity(src.len() * lanes);
            for &x in src {
                out.extend(std::iter::repeat_n(half(x), lanes));
            }
            out
        };
        let values_lo = stripe(&program.init_values, lo64);
        let values_hi = stripe(&program.init_values, hi64);
        let n = values_lo.len();
        let mem_lo: Vec<Vec<u64>> = program.mem_init.iter().map(|c| stripe(c, lo64)).collect();
        let mem_hi: Vec<Vec<u64>> = program.mem_init.iter().map(|c| stripe(c, hi64)).collect();
        // `PUBLIC_TRUSTED` is the all-zero label chunk.
        let mem_labels = mem_lo.iter().map(|c| vec![0; 2 * c.len()]).collect();
        let reg_count = program.regs.len() * lanes;
        BatchedSim {
            modes,
            lanes,
            values_lo,
            values_hi,
            labels: vec![0; 2 * n],
            mem_lo,
            mem_hi,
            mem_labels,
            reg_scratch_lo: vec![0; reg_count],
            reg_scratch_hi: vec![0; reg_count],
            reg_scratch_labels: vec![0; 2 * reg_count],
            room: vec![0; lanes],
            clean: false,
            cycle: 0,
            violations: vec![Vec::new(); lanes],
            violation_cap: DEFAULT_VIOLATION_CAP,
            violations_truncated: vec![false; lanes],
            program,
        }
    }

    /// A fresh batch over the same compiled program with a (possibly
    /// different) lane width, every lane in this batch's tracking mode:
    /// state is reinitialised, the tape, tables, and optimizer results
    /// are shared. This is how a fleet stripes many sessions over one
    /// compilation.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not one of [`SUPPORTED_LANES`], or if this
    /// batch mixes tracking modes (use
    /// [`with_lane_modes`](BatchedSim::with_lane_modes)).
    #[must_use]
    pub fn with_lanes(&self, lanes: usize) -> BatchedSim {
        let mode = self.modes[0];
        assert!(
            self.modes.iter().all(|&m| m == mode),
            "with_lanes on a mixed batch {:?}",
            self.modes
        );
        self.with_mode(mode, lanes)
    }

    /// [`with_lanes`](BatchedSim::with_lanes) under a (possibly different)
    /// tracking mode: the tape is mode-free, so all modes share it.
    #[must_use]
    pub fn with_mode(&self, mode: TrackMode, lanes: usize) -> BatchedSim {
        self.with_lane_modes(&vec![mode; lanes])
    }

    /// A fresh batch over the same compiled program with one lane per
    /// entry of `modes`, each lane in its own tracking mode.
    /// `Conservative` and `Precise` lanes mix freely; `Off` is
    /// batch-wide.
    ///
    /// # Panics
    ///
    /// Panics if `modes.len()` is not one of [`SUPPORTED_LANES`], or if
    /// `Off` is mixed with tracked lanes.
    #[must_use]
    pub fn with_lane_modes(&self, modes: &[TrackMode]) -> BatchedSim {
        BatchedSim::from_program(Arc::clone(&self.program), modes.to_vec())
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.program.net
    }

    /// Whether labels are tracked (the batch is not all-`Off`).
    fn tracked(&self) -> bool {
        self.modes[0] != TrackMode::Off
    }

    /// Number of lanes (independent sessions) in this batch.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared cycle count (all lanes are always on the same cycle).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of instructions on the shared tape (diagnostic).
    #[must_use]
    pub fn tape_len(&self) -> usize {
        self.program.tape.len()
    }

    /// Human-readable listing of the (possibly optimized) instruction
    /// tape; round-trips exactly through [`crate::disasm::parse`].
    #[must_use]
    pub fn disassemble(&self) -> String {
        crate::disasm::render(&self.program.tape)
    }

    /// FNV-1a hash over every tape column; matches
    /// [`crate::disasm::ParsedTape::fingerprint`] for an exact round
    /// trip.
    #[must_use]
    pub fn tape_fingerprint(&self) -> u64 {
        crate::disasm::fingerprint(&self.program.tape)
    }

    /// Statistics of the optimizer passes that ran at construction.
    #[must_use]
    pub fn opt_stats(&self) -> &OptStats {
        &self.program.opt_stats
    }

    /// One lane's recorded violation stream.
    #[must_use]
    pub fn violations(&self, lane: usize) -> &[RuntimeViolation] {
        &self.violations[lane]
    }

    /// Whether one lane's stream was truncated at the cap.
    #[must_use]
    pub fn violations_truncated(&self, lane: usize) -> bool {
        self.violations_truncated[lane]
    }

    /// Bounds every lane's recorded violation stream.
    pub fn set_violation_cap(&mut self, cap: usize) {
        self.violation_cap = cap;
    }

    fn slot(&self, id: NodeId) -> usize {
        self.program.slot_of[id.index()] as usize
    }

    /// Drives one lane's input port.
    ///
    /// # Panics
    ///
    /// Panics if no input port has that name, or `lane` is out of range.
    pub fn set(&mut self, lane: usize, name: &str, value: Value) {
        let id = self.program.resolve_input(name);
        self.set_node(lane, id, value);
    }

    /// Drives one lane's input by node id.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_node(&mut self, lane: usize, id: NodeId, value: Value) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let width = self.program.node_widths[id.index()];
        let idx = self.slot(id) * self.lanes + lane;
        let v = mask(value, width);
        self.values_lo[idx] = lo64(v);
        self.values_hi[idx] = hi64(v);
        self.clean = false;
    }

    /// Sets one lane's runtime label on an input (no-op with tracking
    /// off, matching the single-session backends).
    pub fn set_label(&mut self, lane: usize, name: &str, label: Label) {
        let id = self.program.resolve_input(name);
        self.set_node_label(lane, id, label);
    }

    /// Sets one lane's runtime label on an input by node id (the
    /// transaction drivers resolve their port names once and drive by
    /// id every cycle).
    pub fn set_node_label(&mut self, lane: usize, id: NodeId, label: Label) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        if self.tracked() {
            let cell = chunk(self.lanes, self.slot(id));
            put_label(&mut self.labels[cell], lane, label);
        }
        self.clean = false;
    }

    /// Reads one lane's settled value by port or node name.
    pub fn peek(&mut self, lane: usize, name: &str) -> Value {
        let id = self.program.lookup(name);
        self.peek_node(lane, id)
    }

    /// Reads one lane's settled runtime label by name.
    pub fn peek_label(&mut self, lane: usize, name: &str) -> Label {
        let id = self.program.lookup(name);
        self.peek_node_label(lane, id)
    }

    /// Reads one lane's settled value by node id.
    pub fn peek_node(&mut self, lane: usize, id: NodeId) -> Value {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.eval();
        let idx = self.slot(id) * self.lanes + lane;
        join64(self.values_lo[idx], self.values_hi[idx])
    }

    /// Reads one lane's settled runtime label by node id.
    pub fn peek_node_label(&mut self, lane: usize, id: NodeId) -> Label {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.eval();
        label_at(&self.labels[chunk(self.lanes, self.slot(id))], lane)
    }

    /// Finds a memory's index by its declared name.
    #[must_use]
    pub fn mem_index(&self, name: &str) -> Option<usize> {
        self.program.net.mems.iter().position(|m| m.name == name)
    }

    /// Reads one lane's memory cell directly.
    #[must_use]
    pub fn mem_cell(&self, lane: usize, mem: usize, addr: usize) -> Value {
        let idx = addr * self.lanes + lane;
        join64(self.mem_lo[mem][idx], self.mem_hi[mem][idx])
    }

    /// Reads one lane's memory cell label directly.
    #[must_use]
    pub fn mem_cell_label(&self, lane: usize, mem: usize, addr: usize) -> Label {
        label_at(&self.mem_labels[mem][chunk(self.lanes, addr)], lane)
    }

    /// Sets one lane's memory cell label directly (provisioned secrets).
    pub fn set_mem_cell_label(&mut self, lane: usize, mem: usize, addr: usize, label: Label) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let cell = chunk(self.lanes, addr);
        put_label(&mut self.mem_labels[mem][cell], lane, label);
        self.clean = false;
    }

    /// Joins one lane's settled runtime label of every node into `acc`,
    /// indexed by [`NodeId::index`] — the lane-batched counterpart of
    /// [`Simulator::fold_label_plane`](crate::Simulator::fold_label_plane).
    pub fn fold_label_plane(&mut self, lane: usize, acc: &mut [Label]) {
        let n = self.program.net.node_count();
        assert_eq!(acc.len(), n, "accumulator must cover every node");
        for (i, slot) in acc.iter_mut().enumerate() {
            let label = self.peek_node_label(lane, NodeId::from_raw(i as u32));
            *slot = slot.join(label);
        }
    }

    /// Joins one lane's memory cell labels into `acc`, summarised per
    /// array — the lane-batched counterpart of
    /// [`Simulator::fold_mem_labels`](crate::Simulator::fold_mem_labels).
    pub fn fold_mem_labels(&mut self, lane: usize, acc: &mut [Label]) {
        self.eval();
        let depths: Vec<usize> = self.program.net.mems.iter().map(|m| m.depth).collect();
        assert_eq!(
            acc.len(),
            depths.len(),
            "accumulator must cover every memory"
        );
        for (mem, depth) in depths.into_iter().enumerate() {
            for addr in 0..depth {
                acc[mem] = acc[mem].join(self.mem_cell_label(lane, mem, addr));
            }
        }
    }

    /// Checkpoints one lane's complete architectural state — value and
    /// label planes for every slot (registers live in ordinary slots),
    /// every memory cell, and the lane's violation stream — as a
    /// [`LaneSnapshot`] that can be restored into any lane of any batch
    /// compiled from the same tape.
    ///
    /// Combinational state is settled first so the snapshot is coherent;
    /// take it only at a quiescent protocol point (no request the host
    /// still intends to complete mid-flight matters to the *host*, the
    /// hardware pipeline itself is captured exactly).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_snapshot(&mut self, lane: usize) -> LaneSnapshot {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.eval();
        let w = self.lanes;
        let pick64 = |v: &[u64]| -> Vec<u64> { v.iter().skip(lane).step_by(w).copied().collect() };
        let pick_labels =
            |v: &[u8]| -> Vec<Label> { v.chunks_exact(2 * w).map(|c| label_at(c, lane)).collect() };
        LaneSnapshot {
            tape_fingerprint: self.tape_fingerprint(),
            mode: self.modes[lane],
            cycle: self.cycle,
            values_lo: pick64(&self.values_lo),
            values_hi: pick64(&self.values_hi),
            labels: pick_labels(&self.labels),
            mem_lo: self.mem_lo.iter().map(|c| pick64(c)).collect(),
            mem_hi: self.mem_hi.iter().map(|c| pick64(c)).collect(),
            mem_labels: self.mem_labels.iter().map(|c| pick_labels(c)).collect(),
            violations: self.violations[lane].clone(),
            violations_truncated: self.violations_truncated[lane],
        }
    }

    /// Restores a [`LaneSnapshot`] into `lane`, overwriting that lane's
    /// entire state (values, labels, memories, violation stream). The
    /// target batch may have a different lane width than the source — this
    /// is how the farm re-packs live sessions across batch shapes — but it
    /// must execute the identical tape, and `lane` must be in the
    /// snapshot's tracking mode.
    ///
    /// The shared cycle counter is *not* restored (it belongs to the
    /// batch, not the lane); violation cycle stamps in the restored stream
    /// keep their original batch's clock.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, the snapshot was taken from a
    /// different tape, or `lane` runs a different tracking mode.
    pub fn restore_lane(&mut self, lane: usize, snap: &LaneSnapshot) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert_eq!(
            snap.tape_fingerprint,
            self.tape_fingerprint(),
            "snapshot is from a different compiled tape"
        );
        assert_eq!(
            snap.mode, self.modes[lane],
            "snapshot is from a different tracking mode"
        );
        let w = self.lanes;
        let put64 = |dst: &mut [u64], src: &[u64]| {
            for (d, &s) in dst.iter_mut().skip(lane).step_by(w).zip(src) {
                *d = s;
            }
        };
        let put_labels = |dst: &mut [u8], src: &[Label]| {
            for (c, &s) in dst.chunks_exact_mut(2 * w).zip(src) {
                put_label(c, lane, s);
            }
        };
        put64(&mut self.values_lo, &snap.values_lo);
        put64(&mut self.values_hi, &snap.values_hi);
        put_labels(&mut self.labels, &snap.labels);
        for (dst, src) in self.mem_lo.iter_mut().zip(&snap.mem_lo) {
            put64(dst, src);
        }
        for (dst, src) in self.mem_hi.iter_mut().zip(&snap.mem_hi) {
            put64(dst, src);
        }
        for (dst, src) in self.mem_labels.iter_mut().zip(&snap.mem_labels) {
            put_labels(dst, src);
        }
        self.violations[lane] = snap.violations.clone();
        self.violations_truncated[lane] = snap.violations_truncated;
        self.clean = false;
    }

    /// Settles combinational logic of every lane for the current inputs.
    /// Idempotent.
    pub fn eval(&mut self) {
        if self.clean {
            return;
        }
        self.refresh_room();
        self.dispatch(false);
        self.clean = true;
    }

    /// Advances every lane one clock cycle.
    ///
    /// Same settled fast path as `Simulator::tick` (the shared
    /// `backend::tick_engine` loop): after an `eval`, only the violation
    /// scan (downgrade gates + release checks) runs.
    pub fn tick(&mut self) {
        self.run(1);
    }

    /// Runs `n` clock cycles with the current inputs, hoisting the mode
    /// and lane-width dispatch, the settled check (first iteration only),
    /// and the per-lane violation room out of the per-tick path.
    pub fn run(&mut self, n: u64) {
        match self.lanes {
            1 => self.run_width::<1, 2>(n),
            2 => self.run_width::<2, 4>(n),
            4 => self.run_width::<4, 8>(n),
            8 => self.run_width::<8, 16>(n),
            16 => self.run_width::<16, 32>(n),
            _ => unreachable!("lane width validated at construction"),
        }
    }

    fn run_width<const W: usize, const L: usize>(&mut self, n: u64) {
        if self.tracked() {
            backend::run_engine(&mut BatchedEngine::<W, L, true>(self), n);
        } else {
            backend::run_engine(&mut BatchedEngine::<W, L, false>(self), n);
        }
    }

    /// Recomputes every lane's remaining violation room from the cap.
    fn refresh_room(&mut self) {
        for l in 0..self.lanes {
            self.room[l] = self.violation_cap.saturating_sub(self.violations[l].len());
        }
    }

    fn dispatch(&mut self, record: bool) {
        match self.lanes {
            1 => self.dispatch_mode::<1, 2>(record),
            2 => self.dispatch_mode::<2, 4>(record),
            4 => self.dispatch_mode::<4, 8>(record),
            8 => self.dispatch_mode::<8, 16>(record),
            16 => self.dispatch_mode::<16, 32>(record),
            _ => unreachable!("lane width validated at construction"),
        }
    }

    fn dispatch_mode<const W: usize, const L: usize>(&mut self, record: bool) {
        if self.tracked() {
            self.exec::<W, L, true>(record);
        } else {
            self.exec::<W, L, false>(record);
        }
    }

    /// The clock edge for all lanes: two-phase register snapshot, then
    /// memory write ports, then the shared cycle counter.
    fn clock_edge<const W: usize, const L: usize, const TRACK: bool>(&mut self) {
        let BatchedSim {
            program,
            values_lo,
            values_hi,
            labels,
            mem_lo,
            mem_hi,
            mem_labels,
            reg_scratch_lo,
            reg_scratch_hi,
            reg_scratch_labels,
            cycle,
            ..
        } = self;
        let (lo_ch, _) = values_lo.as_chunks_mut::<W>();
        let (hi_ch, _) = values_hi.as_chunks_mut::<W>();
        let (lab_ch, _) = labels.as_chunks_mut::<L>();
        let (slo_ch, _) = reg_scratch_lo.as_chunks_mut::<W>();
        let (shi_ch, _) = reg_scratch_hi.as_chunks_mut::<W>();
        let (slab_ch, _) = reg_scratch_labels.as_chunks_mut::<L>();
        // A register no wider than 64 bits skips its high half in both
        // phases: its slot and its scratch keep the all-zero high half.
        for (i, r) in program.regs.iter().enumerate() {
            let src = r.src as usize;
            let (ml, mh) = (lo64(r.mask), hi64(r.mask));
            let sv = lo_ch[src];
            let sc = &mut slo_ch[i];
            for l in 0..W {
                sc[l] = sv[l] & ml;
            }
            if mh != 0 {
                let svh = hi_ch[src];
                let sch = &mut shi_ch[i];
                for l in 0..W {
                    sch[l] = svh[l] & mh;
                }
            }
            if TRACK {
                slab_ch[i] = lab_ch[src];
            }
        }
        for wp in &program.write_ports {
            let mem = wp.mem as usize;
            let (mlo_ch, _) = mem_lo[mem].as_chunks_mut::<W>();
            let (mhi_ch, _) = mem_hi[mem].as_chunks_mut::<W>();
            let depth = mlo_ch.len();
            let en = lo_ch[wp.en as usize];
            let addr = lo_ch[wp.addr as usize];
            let data_lo = lo_ch[wp.data as usize];
            let data_hi = hi_ch[wp.data as usize];
            let wrap = |v: u64| match program.mem_addr_mask[mem] {
                Some(amask) => (v as usize) & amask,
                None => (v as usize) % depth,
            };
            for l in 0..W {
                if en[l] & 1 == 1 {
                    let cell = wrap(addr[l]);
                    mlo_ch[cell][l] = data_lo[l];
                    mhi_ch[cell][l] = data_hi[l];
                }
            }
            if TRACK {
                let (mlab_ch, _) = mem_labels[mem].as_chunks_mut::<L>();
                let (en_s, ad_s, da_s) = (wp.en as usize, wp.addr as usize, wp.data as usize);
                let j = lanes_max(lanes_max(lab_ch[da_s], lab_ch[ad_s]), lab_ch[en_s]);
                for l in 0..W {
                    if en[l] & 1 == 1 {
                        let cell = &mut mlab_ch[wrap(addr[l])];
                        cell[l] = j[l];
                        cell[W + l] = j[W + l];
                    }
                }
            }
        }
        for (i, r) in program.regs.iter().enumerate() {
            lo_ch[r.dst as usize] = slo_ch[i];
            if hi64(r.mask) != 0 {
                hi_ch[r.dst as usize] = shi_ch[i];
            }
            if TRACK {
                lab_ch[r.dst as usize] = slab_ch[i];
            }
        }
        *cycle += 1;
    }

    /// The settled-state violation scan: recomputes each downgrade gate's
    /// accept/reject per lane from settled operands, then runs the output
    /// release checks, without re-executing the tape.
    fn record_settled_violations(&mut self) {
        if !self.tracked() {
            return;
        }
        self.refresh_room();
        let w = self.lanes;
        let BatchedSim {
            program,
            values_lo,
            values_hi,
            labels,
            violations,
            violations_truncated,
            room,
            cycle,
            ..
        } = self;
        let tape = &program.tape;
        for &i in &program.downgrades {
            let i = i as usize;
            let to = Label::from(SecurityTag::from_bits(tape.aux[i] as u8));
            let (la, bb) = (
                &labels[chunk(w, tape.a[i] as usize)],
                tape.b[i] as usize * w,
            );
            for l in 0..w {
                let from = label_at(la, l);
                let p = Label::from(SecurityTag::from_bits(values_lo[bb + l] as u8));
                let rejected = match tape.ops[i] {
                    Op::Declassify => ifc_lattice::declassify(from, to, p).is_err(),
                    _ => ifc_lattice::endorse(from, to, p).is_err(),
                };
                if rejected {
                    push_violation(
                        &mut violations[l],
                        &mut room[l],
                        &mut violations_truncated[l],
                        RuntimeViolation::DowngradeRejected {
                            cycle: *cycle,
                            node: NodeId::from_raw(tape.c[i]),
                            from,
                            to,
                            principal: p,
                        },
                    );
                }
            }
        }
        for check in &program.output_checks {
            let ls = &labels[chunk(w, check.slot as usize)];
            for l in 0..w {
                let allowed = match &check.allowed {
                    AllowedLabel::Const(lbl) => *lbl,
                    AllowedLabel::Dynamic(expr) => {
                        let mut resolve = |sig: NodeId| {
                            let idx = program.slot_of[sig.index()] as usize * w + l;
                            join64(values_lo[idx], values_hi[idx])
                        };
                        expr.eval(&mut resolve)
                    }
                };
                let label = label_at(ls, l);
                if !label.flows_to(allowed) {
                    push_violation(
                        &mut violations[l],
                        &mut room[l],
                        &mut violations_truncated[l],
                        RuntimeViolation::OutputLeak {
                            cycle: *cycle,
                            port: check.port.clone(),
                            label,
                            allowed,
                        },
                    );
                }
            }
        }
    }

    /// The batched dispatch loop: one opcode match per same-op run, each
    /// arm looping its instructions and lanes. `TRACK` turns label
    /// propagation on; each lane's mode picks its `Mux` label rule from a
    /// mask loaded once per pass. The caller has refreshed the per-lane
    /// room scratch.
    ///
    /// Value halves are addressed as `[u64; W]` lane chunks and labels as
    /// `[u8; L]` label chunks (`as_chunks_mut`, `L = 2W`): one bounds
    /// check per operand component instead of per lane. The high value half of an
    /// instruction is skipped when its result mask has no bits above 64 —
    /// the destination's high half is all-zero by invariant (see the
    /// [module docs](self)). The lane loops keep the module docs' two
    /// codegen rules: per-block operand loads, and label rules through
    /// the byte-lane helpers. The tape is SSA — a destination never
    /// aliases its own operand — so a block may reload an operand after
    /// an earlier block wrote the destination.
    #[allow(clippy::too_many_lines)]
    fn exec<const W: usize, const L: usize, const TRACK: bool>(&mut self, record: bool) {
        const { assert!(L == 2 * W) };
        let BatchedSim {
            program,
            modes,
            values_lo,
            values_hi,
            labels,
            mem_lo,
            mem_hi,
            mem_labels,
            violations,
            violations_truncated,
            room,
            cycle,
            ..
        } = self;
        let tape = &program.tape;
        let n = tape.ops.len();
        let col_dst = &tape.dst[..n];
        let col_a = &tape.a[..n];
        let col_b = &tape.b[..n];
        let col_c = &tape.c[..n];
        let col_aux = &tape.aux[..n];
        let col_mask = &tape.out_mask[..n];
        let (lo_ch, _) = values_lo.as_chunks_mut::<W>();
        let (hi_ch, _) = values_hi.as_chunks_mut::<W>();
        let (lab_ch, _) = labels.as_chunks_mut::<L>();
        let tag8 = |v: u64| Label::from(SecurityTag::from_bits(v as u8));
        // `0xff` for Precise lanes: the `Mux` label rule's lane mask.
        let precise = lane_mask::<W, L>(|l| modes[l] == TrackMode::Precise);
        for &(op, start, end) in &program.runs {
            let (s, e) = (start as usize, end as usize);
            // `copy_labels`/`join_labels`: the unary and binary label
            // rules — copy `a`'s label chunk, or join `a`'s and `b`'s
            // with one lanewise byte max. `bitwise1`/`bitwise2`: ops whose low result
            // bits depend only on low operand bits — the high half runs
            // only when the result mask has high bits. `cmp2`: full-width
            // comparisons producing a 1-bit result in the low half.
            macro_rules! copy_labels {
                ($a:expr, $d:expr) => {
                    if TRACK {
                        lab_ch[$d] = lab_ch[$a];
                    }
                };
            }
            macro_rules! join_labels {
                ($a:expr, $b:expr, $d:expr) => {
                    if TRACK {
                        lab_ch[$d] = lanes_max(lab_ch[$a], lab_ch[$b]);
                    }
                };
            }
            macro_rules! bitwise1 {
                (|$va:ident| $expr:expr) => {{
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let d = col_dst[i] as usize;
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        let sa = lo_ch[a];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            let $va = sa[l];
                            dst[l] = ($expr) & ml;
                        }
                        if mh != 0 {
                            let sa = hi_ch[a];
                            let dst = &mut hi_ch[d];
                            for l in 0..W {
                                let $va = sa[l];
                                dst[l] = ($expr) & mh;
                            }
                        }
                        copy_labels!(a, d);
                    }
                }};
            }
            macro_rules! bitwise2 {
                (|$va:ident, $vb:ident| $expr:expr) => {{
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        let sa = lo_ch[a];
                        let sb = lo_ch[b];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            let $va = sa[l];
                            let $vb = sb[l];
                            dst[l] = ($expr) & ml;
                        }
                        if mh != 0 {
                            let sa = hi_ch[a];
                            let sb = hi_ch[b];
                            let dst = &mut hi_ch[d];
                            for l in 0..W {
                                let $va = sa[l];
                                let $vb = sb[l];
                                dst[l] = ($expr) & mh;
                            }
                        }
                        join_labels!(a, b, d);
                    }
                }};
            }
            // Full-width comparison: both halves in, one bit out (the
            // destination's high half is zero by invariant).
            macro_rules! cmp2 {
                (|$al:ident, $ah:ident, $bl:ident, $bh:ident| $expr:expr) => {{
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let sal = lo_ch[a];
                        let sbl = lo_ch[b];
                        let sah = hi_ch[a];
                        let sbh = hi_ch[b];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            let $al = sal[l];
                            let $ah = sah[l];
                            let $bl = sbl[l];
                            let $bh = sbh[l];
                            dst[l] = u64::from($expr);
                        }
                        join_labels!(a, b, d);
                    }
                }};
            }
            // Tag algebra on the low byte (8-bit operands and results).
            macro_rules! tagop {
                (|$ta:ident, $tb:ident| $expr:expr) => {{
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let ml = lo64(col_mask[i]);
                        let sa = lo_ch[a];
                        let sb = lo_ch[b];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            let $ta = tag8(sa[l]);
                            let $tb = tag8(sb[l]);
                            dst[l] = ($expr) & ml;
                        }
                        join_labels!(a, b, d);
                    }
                }};
            }
            // Two-half add/sub: the high block recomputes the low half's
            // carry (borrow) from its own operand copies.
            macro_rules! addsub {
                ($wrapping:ident, $overflowing:ident) => {{
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        let sa = lo_ch[a];
                        let sb = lo_ch[b];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            dst[l] = sa[l].$wrapping(sb[l]) & ml;
                        }
                        if mh != 0 {
                            let sal = lo_ch[a];
                            let sbl = lo_ch[b];
                            let sah = hi_ch[a];
                            let sbh = hi_ch[b];
                            let dst = &mut hi_ch[d];
                            for l in 0..W {
                                let carry = u64::from(sal[l].$overflowing(sbl[l]).1);
                                dst[l] = sah[l].$wrapping(sbh[l]).$wrapping(carry) & mh;
                            }
                        }
                        join_labels!(a, b, d);
                    }
                }};
            }
            match op {
                Op::Not => bitwise1!(|va| !va),
                Op::ReduceOr => {
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let d = col_dst[i] as usize;
                        let sal = lo_ch[a];
                        let sah = hi_ch[a];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            dst[l] = u64::from((sal[l] | sah[l]) != 0);
                        }
                        copy_labels!(a, d);
                    }
                }
                Op::ReduceAnd => {
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let d = col_dst[i] as usize;
                        let full = col_aux[i];
                        let (fl, fh) = (lo64(full), hi64(full));
                        let sal = lo_ch[a];
                        let sah = hi_ch[a];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            dst[l] = u64::from(sal[l] == fl && sah[l] == fh);
                        }
                        copy_labels!(a, d);
                    }
                }
                Op::ReduceXor => {
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let d = col_dst[i] as usize;
                        let sal = lo_ch[a];
                        let sah = hi_ch[a];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            dst[l] =
                                u64::from((sal[l].count_ones() + sah[l].count_ones()) % 2 == 1);
                        }
                        copy_labels!(a, d);
                    }
                }
                Op::And => bitwise2!(|va, vb| va & vb),
                Op::Or => bitwise2!(|va, vb| va | vb),
                Op::Xor => bitwise2!(|va, vb| va ^ vb),
                Op::Add => addsub!(wrapping_add, overflowing_add),
                Op::Sub => addsub!(wrapping_sub, overflowing_sub),
                Op::Eq => cmp2!(|al, ah, bl, bh| al == bl && ah == bh),
                Op::Ne => cmp2!(|al, ah, bl, bh| al != bl || ah != bh),
                Op::Lt => cmp2!(|al, ah, bl, bh| ah < bh || (ah == bh && al < bl)),
                Op::Ge => cmp2!(|al, ah, bl, bh| ah > bh || (ah == bh && al >= bl)),
                Op::TagLeq => tagop!(|ta, tb| u64::from(ta.flows_to(tb))),
                Op::TagJoin => tagop!(|ta, tb| u64::from(SecurityTag::from(ta.join(tb)).bits())),
                Op::TagMeet => tagop!(|ta, tb| u64::from(SecurityTag::from(ta.meet(tb)).bits())),
                Op::Mux => {
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let c = col_c[i] as usize;
                        let d = col_dst[i] as usize;
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        let sel = lo_ch[a];
                        let vb = lo_ch[b];
                        let vc = lo_ch[c];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            let take = (sel[l] & 1).wrapping_neg();
                            dst[l] = ((vb[l] & take) | (vc[l] & !take)) & ml;
                        }
                        if mh != 0 {
                            let sel = lo_ch[a];
                            let vb = hi_ch[b];
                            let vc = hi_ch[c];
                            let dst = &mut hi_ch[d];
                            for l in 0..W {
                                let take = (sel[l] & 1).wrapping_neg();
                                dst[l] = ((vb[l] & take) | (vc[l] & !take)) & mh;
                            }
                        }
                        if TRACK {
                            // Both rules, then a per-lane select: Precise
                            // takes the selected arm's label, Conservative
                            // joins both arms.
                            let sel = lo_ch[a];
                            let taken = lane_mask::<W, L>(|l| sel[l] & 1 == 1);
                            let (lb, lc) = (lab_ch[b], lab_ch[c]);
                            let arm = lanes_select(taken, lb, lc);
                            let both = lanes_max(lb, lc);
                            lab_ch[d] = lanes_max(lab_ch[a], lanes_select(precise, arm, both));
                        }
                    }
                }
                Op::Slice => {
                    // `va >> sh`, split by where the shift lands. The
                    // `sh >= 64` result fits the low half entirely, so
                    // its mask has no high bits.
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let d = col_dst[i] as usize;
                        let sh = col_b[i];
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        if sh == 0 {
                            let sal = lo_ch[a];
                            let dst = &mut lo_ch[d];
                            for l in 0..W {
                                dst[l] = sal[l] & ml;
                            }
                            if mh != 0 {
                                let sah = hi_ch[a];
                                let dst = &mut hi_ch[d];
                                for l in 0..W {
                                    dst[l] = sah[l] & mh;
                                }
                            }
                        } else if sh < 64 {
                            let sal = lo_ch[a];
                            let sah = hi_ch[a];
                            let dst = &mut lo_ch[d];
                            for l in 0..W {
                                dst[l] = ((sal[l] >> sh) | (sah[l] << (64 - sh))) & ml;
                            }
                            if mh != 0 {
                                let sah = hi_ch[a];
                                let dst = &mut hi_ch[d];
                                for l in 0..W {
                                    dst[l] = (sah[l] >> sh) & mh;
                                }
                            }
                        } else {
                            let sah = hi_ch[a];
                            let dst = &mut lo_ch[d];
                            for l in 0..W {
                                dst[l] = (sah[l] >> (sh - 64)) & ml;
                            }
                        }
                        copy_labels!(a, d);
                    }
                }
                Op::Cat => {
                    // `(va << sh) | vb`, split the same way.
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let sh = col_c[i];
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        if sh == 0 {
                            let sal = lo_ch[a];
                            let sbl = lo_ch[b];
                            let dst = &mut lo_ch[d];
                            for l in 0..W {
                                dst[l] = (sal[l] | sbl[l]) & ml;
                            }
                            if mh != 0 {
                                let sah = hi_ch[a];
                                let sbh = hi_ch[b];
                                let dst = &mut hi_ch[d];
                                for l in 0..W {
                                    dst[l] = (sah[l] | sbh[l]) & mh;
                                }
                            }
                        } else if sh < 64 {
                            let sal = lo_ch[a];
                            let sbl = lo_ch[b];
                            let dst = &mut lo_ch[d];
                            for l in 0..W {
                                dst[l] = ((sal[l] << sh) | sbl[l]) & ml;
                            }
                            if mh != 0 {
                                let sal = lo_ch[a];
                                let sah = hi_ch[a];
                                let sbh = hi_ch[b];
                                let dst = &mut hi_ch[d];
                                for l in 0..W {
                                    dst[l] = ((sah[l] << sh) | (sal[l] >> (64 - sh)) | sbh[l]) & mh;
                                }
                            }
                        } else {
                            let sbl = lo_ch[b];
                            let dst = &mut lo_ch[d];
                            for l in 0..W {
                                dst[l] = sbl[l] & ml;
                            }
                            if mh != 0 {
                                let sal = lo_ch[a];
                                let sbh = hi_ch[b];
                                let dst = &mut hi_ch[d];
                                for l in 0..W {
                                    dst[l] = ((sal[l] << (sh - 64)) | sbh[l]) & mh;
                                }
                            }
                        }
                        join_labels!(a, b, d);
                    }
                }
                Op::MemRead => {
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        let (mlo_ch, _) = mem_lo[b].as_chunks::<W>();
                        let depth = mlo_ch.len();
                        let sal = lo_ch[a];
                        // Power-of-two depths wrap with a mask instead of
                        // an integer division (identical result).
                        let mut addrs = [0usize; W];
                        match program.mem_addr_mask[b] {
                            Some(amask) => {
                                for l in 0..W {
                                    addrs[l] = (sal[l] as usize) & amask;
                                }
                            }
                            None => {
                                for l in 0..W {
                                    addrs[l] = (sal[l] as usize) % depth;
                                }
                            }
                        }
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            dst[l] = mlo_ch[addrs[l]][l] & ml;
                        }
                        if mh != 0 {
                            let (mhi_ch, _) = mem_hi[b].as_chunks::<W>();
                            let dst = &mut hi_ch[d];
                            for l in 0..W {
                                dst[l] = mhi_ch[addrs[l]][l] & mh;
                            }
                        }
                        if TRACK {
                            let (mlab_ch, _) = mem_labels[b].as_chunks::<L>();
                            let mut cell = [0u8; L];
                            for l in 0..W {
                                cell[l] = mlab_ch[addrs[l]][l];
                                cell[W + l] = mlab_ch[addrs[l]][W + l];
                            }
                            lab_ch[d] = lanes_max(cell, lab_ch[a]);
                        }
                    }
                }
                Op::Declassify | Op::Endorse => {
                    for i in s..e {
                        let a = col_a[i] as usize;
                        let b = col_b[i] as usize;
                        let d = col_dst[i] as usize;
                        let m = col_mask[i];
                        let (ml, mh) = (lo64(m), hi64(m));
                        let to = Label::from(SecurityTag::from_bits(col_aux[i] as u8));
                        let sal = lo_ch[a];
                        let dst = &mut lo_ch[d];
                        for l in 0..W {
                            dst[l] = sal[l] & ml;
                        }
                        if mh != 0 {
                            let sah = hi_ch[a];
                            let dst = &mut hi_ch[d];
                            for l in 0..W {
                                dst[l] = sah[l] & mh;
                            }
                        }
                        if TRACK {
                            let sbl = lo_ch[b];
                            let la = lab_ch[a];
                            let ld = &mut lab_ch[d];
                            for l in 0..W {
                                let from = label_at(&la, l);
                                let p = Label::from(SecurityTag::from_bits(sbl[l] as u8));
                                let downgraded = if op == Op::Declassify {
                                    ifc_lattice::declassify(from, to, p)
                                } else {
                                    ifc_lattice::endorse(from, to, p)
                                };
                                let out = match downgraded {
                                    Ok(lbl) => lbl,
                                    Err(_) => {
                                        if record {
                                            push_violation(
                                                &mut violations[l],
                                                &mut room[l],
                                                &mut violations_truncated[l],
                                                RuntimeViolation::DowngradeRejected {
                                                    cycle: *cycle,
                                                    node: NodeId::from_raw(col_c[i]),
                                                    from,
                                                    to,
                                                    principal: p,
                                                },
                                            );
                                        }
                                        from
                                    }
                                };
                                put_label(ld, l, out);
                            }
                        }
                    }
                }
            }
        }

        if record && TRACK {
            for check in &program.output_checks {
                let s = check.slot as usize;
                for l in 0..W {
                    let allowed = match &check.allowed {
                        AllowedLabel::Const(lbl) => *lbl,
                        AllowedLabel::Dynamic(expr) => {
                            let mut resolve = |sig: NodeId| {
                                let slot = program.slot_of[sig.index()] as usize;
                                join64(lo_ch[slot][l], hi_ch[slot][l])
                            };
                            expr.eval(&mut resolve)
                        }
                    };
                    let label = label_at(&lab_ch[s], l);
                    if !label.flows_to(allowed) {
                        push_violation(
                            &mut violations[l],
                            &mut room[l],
                            &mut violations_truncated[l],
                            RuntimeViolation::OutputLeak {
                                cycle: *cycle,
                                port: check.port.clone(),
                                label,
                                allowed,
                            },
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lane's confidentiality and integrity byte meets every
    /// (level, level) pair, for one chunk length `L = 2W`: the join must
    /// agree with `Conf::join` and, through the inversion, `Integ::join`,
    /// and the `Mux` rule under a taken mask spanning both halves and
    /// each precise mask must agree with the interpreter's two rules.
    fn check_lane_rules<const W: usize, const L: usize>() {
        let level = |p: usize, k: usize, hi: bool| {
            let k = (p + 37 * k) % 256;
            (if hi { k / 16 } else { k % 16 }) as u8
        };
        for p in 0..256usize {
            let label = |k: usize, hi: bool| {
                Label::new(Conf::new(level(p, k, hi)), Integ::new(level(p, W + k, hi)))
            };
            let (mut x, mut y, mut z) = ([0u8; L], [0u8; L], [0u8; L]);
            for l in 0..W {
                put_label(&mut x, l, label(l, true));
                put_label(&mut y, l, label(l, false));
                put_label(&mut z, l, label(l + 5, true));
            }
            let joined = lanes_max(x, y);
            for l in 0..W {
                let (a, b, got) = (label(l, true), label(l, false), label_at(&joined, l));
                assert_eq!(got.conf, a.conf.join(b.conf), "L={L} conf {x:?} {y:?}");
                assert_eq!(got.integ, a.integ.join(b.integ), "L={L} integ {x:?} {y:?}");
            }
            let taken = lane_mask::<W, L>(|l| (p >> (l % 8)) & 1 == 1);
            for k in 0..2 {
                let precise = lane_mask::<W, L>(|l| (l + k) % 2 == 0);
                let arm = lanes_select(taken, x, y);
                let out = lanes_max(z, lanes_select(precise, arm, lanes_max(x, y)));
                for l in 0..W {
                    let (a, b) = (label(l, true), label(l, false));
                    let arm = if taken[W + l] == 0xff { a } else { b };
                    let rule = if precise[W + l] == 0 { a.join(b) } else { arm };
                    let want = label(l + 5, true).join(rule);
                    assert_eq!(label_at(&out, l), want, "L={L} mux {taken:?} {precise:?}");
                }
            }
        }
    }

    #[test]
    fn byte_lane_rules_match_the_lattice_at_every_width() {
        check_lane_rules::<1, 2>();
        check_lane_rules::<2, 4>();
        check_lane_rules::<4, 8>();
        check_lane_rules::<8, 16>();
        check_lane_rules::<16, 32>();
    }
}
