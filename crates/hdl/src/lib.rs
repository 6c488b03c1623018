//! A security-typed embedded hardware description IR, in the style of
//! ChiselFlow.
//!
//! Designs are built programmatically with [`ModuleBuilder`]: declare ports,
//! wires, registers and memories; combine signals with combinational
//! operators; and describe conditional behaviour with structured
//! [`ModuleBuilder::when`] blocks. Every signal may carry a security label
//! annotation — either a static [`Label`](ifc_lattice::Label) or a dependent
//! [`LabelExpr`] whose level is selected at runtime by another signal,
//! exactly as ChiselFlow's `DL(way)` labels in the paper's Fig. 3.
//!
//! The result is a [`Design`]: a list of nodes plus guarded statements. Two
//! consumers exist downstream:
//!
//! * the `ifc-check` crate verifies information-flow policies *statically*
//!   on the structured statements (guards give the *pc* for implicit flows
//!   and allow dependent-label refinement);
//! * [`Design::lower`] flattens the statements into a pure [`Netlist`] of
//!   mux trees for cycle-accurate simulation (`sim` crate) and area
//!   estimation (`fpga-model` crate).
//!
//! # Example: a labelled 2-way multiplexer
//!
//! ```
//! use hdl::ModuleBuilder;
//! use ifc_lattice::Label;
//!
//! let mut m = ModuleBuilder::new("mux2");
//! let sel = m.input("sel", 1);
//! m.set_label(sel, Label::PUBLIC_TRUSTED);
//! let a = m.input("a", 8);
//! let b = m.input("b", 8);
//! let y = m.wire("y", 8);
//! m.connect(y, a);
//! m.when(sel, |m| m.connect(y, b));
//! m.output("y", y);
//! let design = m.finish();
//! assert_eq!(design.outputs().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
pub mod dot;
pub mod hash;
mod label_expr;
mod lower;
mod module;
mod netlist;
mod node;
mod rewrite;
mod stmt;
pub mod topo;
mod value;
pub mod verilog;

pub use design::{Design, MemInfo, PortInfo};
pub use label_expr::LabelExpr;
pub use lower::LowerError;
pub use module::{MemHandle, ModuleBuilder, Sig};
pub use netlist::{Netlist, WritePort};
pub use node::{BinOp, MemId, Node, NodeId, UnOp};
pub use rewrite::Rewriter;
pub use stmt::{Action, Guard, Stmt};
pub use value::{mask, Value, MAX_WIDTH};
