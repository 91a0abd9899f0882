//! Data-flow-graph (DFG) intermediate representation for the linear
//! time-multiplexed FPGA overlay.
//!
//! The overlay tool flow described in the paper maps *compute kernels* onto a
//! chain of time-multiplexed functional units (FUs). The kernel is first
//! expressed as a data flow graph whose nodes are arithmetic operations and
//! whose edges are value dependencies, exactly like Fig. 2b ("gradient") and
//! Fig. 4 ("qspline") in the paper. This crate provides that IR together with
//! the analyses the scheduler needs:
//!
//! * [`Dfg`] — the graph itself (inputs, constants, operations, outputs),
//! * [`DfgBuilder`] — an ergonomic way to construct graphs by hand,
//! * [`analysis`] — ASAP levels and depth; ALAP levels and a critical path on
//!   demand,
//! * [`eval`] — a reference evaluator used to check the cycle-accurate
//!   simulator for functional correctness,
//! * [`generate`] — synthetic DFG generation for stress and property tests,
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! # Example
//!
//! Build the four-level "gradient" kernel of Fig. 2b and query its shape:
//!
//! ```
//! use overlay_dfg::{DfgBuilder, Op};
//!
//! # fn main() -> Result<(), overlay_dfg::DfgError> {
//! let mut b = DfgBuilder::new("gradient");
//! let i: Vec<_> = (0..5).map(|k| b.input(format!("i{k}"))).collect();
//! let s0 = b.op(Op::Sub, &[i[0], i[2]])?;
//! let s1 = b.op(Op::Sub, &[i[1], i[2]])?;
//! let s2 = b.op(Op::Sub, &[i[2], i[3]])?;
//! let s3 = b.op(Op::Sub, &[i[2], i[4]])?;
//! let q: Vec<_> = [s0, s1, s2, s3]
//!     .iter()
//!     .map(|&v| b.op(Op::Square, &[v]))
//!     .collect::<Result<_, _>>()?;
//! let a0 = b.op(Op::Add, &[q[0], q[1]])?;
//! let a1 = b.op(Op::Add, &[q[2], q[3]])?;
//! let a2 = b.op(Op::Add, &[a0, a1])?;
//! b.output("o0", a2);
//! let dfg = b.build()?;
//!
//! assert_eq!(dfg.num_inputs(), 5);
//! assert_eq!(dfg.num_outputs(), 1);
//! assert_eq!(dfg.num_ops(), 11);
//! assert_eq!(dfg.analysis().depth(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod builder;
pub mod dot;
pub mod error;
pub mod eval;
pub mod generate;
pub mod graph;
pub mod node;
pub mod op;
pub mod value;

pub use analysis::{DfgAnalysis, DfgStats};
pub use builder::DfgBuilder;
pub use error::DfgError;
pub use eval::{evaluate, evaluate_stream, EvalContext};
pub use generate::{DfgGenerator, GeneratorConfig};
pub use graph::Dfg;
pub use node::{Node, NodeId, NodeKind, Operands};
pub use op::Op;
pub use value::Value;
