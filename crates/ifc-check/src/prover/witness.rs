//! Oracle replay: executes a decoded SAT counterexample pair on the
//! reference interpreter and checks that the two runs really produce an
//! attacker-observable difference.
//!
//! The SAT model is evidence about the *encoding*; replay is evidence
//! about the *design*. Replay catches encoding bugs, and it also filters
//! the (intended) spurious models the declassification havoc can admit:
//! the encoder treats every declassified value as an unconstrained
//! release, so a model may pick released values no real run produces.
//!
//! Both runs execute on the caller's netlist through
//! [`Simulator::borrowing`]: a replay copies no netlist, and the oracle
//! is the same interpreter, under the same conservative tracking, that
//! an owning simulator runs.

use hdl::{Netlist, Value};
use ifc_lattice::Conf;
use sim::{Simulator, TrackMode};

use super::encode::Observable;
use super::PortProgram;

/// What replaying a counterexample pair on the interpreter produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The interpreter reproduced an observable difference.
    pub confirmed: bool,
    /// First cycle the two runs differed observably (when confirmed).
    pub cycle: Option<u32>,
    /// The observed values on that cycle, run A then run B.
    pub observed: [Value; 2],
}

/// Replays the two port programs against fresh interpreters over `net`
/// with conservative label tracking and compares the observable each
/// cycle.
///
/// An output guarded by a label condition only counts as differing on
/// cycles where *both* runs evaluate the condition to a publicly
/// confidential label — mirroring the miter's observability guard.
#[must_use]
pub fn replay(net: &Netlist, obs: &Observable, programs: &[PortProgram; 2]) -> ReplayOutcome {
    let mut sim_a = Simulator::borrowing(net, TrackMode::Conservative);
    let mut sim_b = Simulator::borrowing(net, TrackMode::Conservative);
    let cycles = programs[0].cycles.len().max(programs[1].cycles.len());
    for cycle in 0..cycles {
        for (sim, program) in [(&mut sim_a, &programs[0]), (&mut sim_b, &programs[1])] {
            if let Some(drives) = program.cycles.get(cycle) {
                for (name, value) in drives {
                    sim.set(name, *value);
                }
            }
            sim.eval();
        }
        let va = sim_a.peek_node(obs.node);
        let vb = sim_b.peek_node(obs.node);
        let visible = match &obs.cond {
            None => true,
            Some(expr) => {
                let la = expr.eval(&mut |n| sim_a.peek_node(n));
                let lb = expr.eval(&mut |n| sim_b.peek_node(n));
                la.conf == Conf::PUBLIC && lb.conf == Conf::PUBLIC
            }
        };
        if visible && va != vb {
            return ReplayOutcome {
                confirmed: true,
                cycle: Some(cycle as u32),
                observed: [va, vb],
            };
        }
        if cycle + 1 < cycles {
            sim_a.tick();
            sim_b.tick();
        }
    }
    ReplayOutcome {
        confirmed: false,
        cycle: None,
        observed: [0, 0],
    }
}
