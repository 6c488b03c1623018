//! Cycle-accurate simulation of lowered netlists, with runtime security-tag
//! tracking.
//!
//! [`Simulator`] executes a [`Netlist`](hdl::Netlist) one clock cycle at a
//! time: drive inputs with [`Simulator::set`], settle combinational logic
//! with [`Simulator::eval`] (implicit in [`peek`](Simulator::peek)), and
//! advance the clock with [`Simulator::tick`].
//!
//! Beyond values, the simulator shadows every signal, register, and memory
//! cell with a runtime [`Label`](ifc_lattice::Label) — the
//! information-flow *tracking logic* that the paper pairs with design-time
//! verification. Two propagation modes are provided (see [`TrackMode`]):
//! the conservative RTL rule used by RTLIFT-style tools, and a precise
//! mux-aware rule in the spirit of GLIFT. Downgrade nodes re-check the
//! nonmalleable rule each cycle against the *runtime* principal tag, and
//! output ports are checked against their release labels; failures are
//! recorded as [`RuntimeViolation`]s.
//!
//! There are two engines. [`Simulator`] is the interpreting reference
//! oracle that settles every semantic question. [`BatchedSim`] is the
//! tape engine: it compiles the netlist once into a flat instruction tape
//! (optionally shrunk by the [`opt`] passes) and runs W independent
//! sessions per tape pass, one session at W = 1. Every lane must match a
//! fresh `Simulator` driven with that lane's stimulus; the differential
//! suites check exactly that.
//!
//! # Example
//!
//! ```
//! use hdl::ModuleBuilder;
//! use sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = ModuleBuilder::new("counter");
//! let en = m.input("en", 1);
//! let count = m.reg("count", 8, 0);
//! let one = m.lit(1, 8);
//! let next = m.add(count, one);
//! m.when(en, |m| m.connect(count, next));
//! m.output("count", count);
//!
//! let mut sim = Simulator::new(m.finish().lower()?);
//! sim.set("en", 1);
//! for _ in 0..5 {
//!     sim.tick();
//! }
//! assert_eq!(sim.peek("count"), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod batched;
pub mod disasm;
pub mod opt;
mod program;
mod simulator;
pub mod vcd;
mod violation;

pub use batched::{BatchedSim, LaneSnapshot, SUPPORTED_LANES};
pub use opt::{tuned as tuned_opt_config, OptConfig, OptStats, PassStats};
pub use simulator::{Simulator, TrackMode};
pub use vcd::{parse_vcd, width_of, VcdDoc, VcdRecorder, VcdSignal, VcdTrace};
pub use violation::RuntimeViolation;
