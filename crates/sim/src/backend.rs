//! The run loop shared by both engines.
//!
//! [`Simulator`](crate::Simulator) (the reference oracle) and
//! [`BatchedSim`](crate::BatchedSim) (the tape engine) advance the clock
//! through the same settled-state / violation-cap shape; [`RunEngine`]
//! names the engine-specific pieces and [`tick_engine`] / [`run_engine`]
//! encode the shape once.

/// One backend's hooks into the shared settled-state/violation-cap run
/// loop.
///
/// Every backend advances the clock the same way: a settled eval lets the
/// tape be skipped (only the downgrade gates and release checks re-run),
/// a dirty state re-derives the remaining violation room and executes a
/// recording propagation, and the steady-state portion of a multi-cycle
/// run never re-checks the settled flag. [`tick_engine`] and
/// [`run_engine`] encode that shape once; `Simulator` and `BatchedSim`
/// supply only the engine-specific pieces.
pub(crate) trait RunEngine {
    /// Whether a prior `eval` already settled the current inputs.
    fn is_clean(&self) -> bool;
    /// Marks combinational state stale (a clock edge is about to run).
    fn set_dirty(&mut self);
    /// Re-derives the remaining violation room from the cap.
    fn refresh_room(&mut self);
    /// Re-runs only the violation scan over settled state.
    fn settled_scan(&mut self);
    /// One recording combinational propagation.
    fn exec_record(&mut self);
    /// The clock edge: registers, memory write ports, cycle counter.
    fn edge(&mut self);
}

/// One clock cycle through a [`RunEngine`]: the settled fast path skips
/// the tape and re-runs only the violation scan; otherwise the violation
/// room is refreshed and a recording propagation executes. Either way the
/// state is marked dirty and the clock edge fires.
pub(crate) fn tick_engine<E: RunEngine>(engine: &mut E) {
    if engine.is_clean() {
        engine.settled_scan();
    } else {
        engine.refresh_room();
        engine.exec_record();
    }
    engine.set_dirty();
    engine.edge();
}

/// `n` clock cycles through a [`RunEngine`]. The first cycle honours a
/// settled eval exactly like [`tick_engine`]; the steady state skips the
/// settled check (nothing settles mid-run) and re-derives the violation
/// room once instead of per tick.
pub(crate) fn run_engine<E: RunEngine>(engine: &mut E, n: u64) {
    if n == 0 {
        return;
    }
    tick_engine(engine);
    engine.refresh_room();
    for _ in 1..n {
        engine.exec_record();
        engine.edge();
    }
}
