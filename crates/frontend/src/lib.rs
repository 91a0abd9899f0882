//! Kernel-language front-end for the linear time-multiplexed FPGA overlay.
//!
//! The paper uses the HercuLeS HLS tool to turn a C description of a compute
//! kernel into a data flow graph (DFG). This crate plays that role with a
//! small, self-contained arithmetic kernel language:
//!
//! ```text
//! kernel gradient(i0, i1, i2, i3, i4) {
//!     let d0 = i0 - i2;
//!     let d1 = i1 - i2;
//!     let d2 = i2 - i3;
//!     let d3 = i2 - i4;
//!     out g = sqr(d0) + sqr(d1) + (sqr(d2) + sqr(d3));
//! }
//! ```
//!
//! The pipeline is: [`lexer`] → [`parser`] → [`ast`] → [`lower`] → a
//! [`overlay_dfg::Dfg`] ready for scheduling. The [`kernels`] module contains
//! the benchmark suite used in the paper's evaluation (Table III) plus the
//! worked 'gradient' example, together with the characteristics and II
//! figures the paper reports for them.
//!
//! # Example
//!
//! ```
//! use overlay_frontend::compile_kernel;
//!
//! # fn main() -> Result<(), overlay_frontend::FrontendError> {
//! let dfg = compile_kernel(
//!     "kernel axpy(a, x, y) { out r = a * x + y; }",
//! )?;
//! assert_eq!(dfg.name(), "axpy");
//! assert_eq!(dfg.num_ops(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod error;
pub mod kernels;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{BinaryOp, Expr, ExprId, Kernel, Stmt, UnaryFn};
pub use error::FrontendError;
pub use kernels::{Benchmark, PaperRecord};
pub use lexer::{Lexer, Token, TokenKind};
pub use lower::{lower_kernel, LowerOptions};
pub use parser::parse_kernel;

use overlay_dfg::Dfg;

/// Compiles kernel source text all the way to a [`Dfg`] using default
/// lowering options.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source fails to lex, parse or lower
/// (e.g. use of an undefined variable).
///
/// # Example
///
/// ```
/// use overlay_frontend::compile_kernel;
///
/// # fn main() -> Result<(), overlay_frontend::FrontendError> {
/// let dfg = compile_kernel("kernel square(x) { out y = sqr(x); }")?;
/// assert_eq!(dfg.num_ops(), 1);
/// # Ok(())
/// # }
/// ```
pub fn compile_kernel(source: &str) -> Result<Dfg, FrontendError> {
    compile_kernel_with(source, &LowerOptions::default())
}

/// Compiles kernel source text to a [`Dfg`] with explicit [`LowerOptions`]
/// (constant folding, common-subexpression elimination, square detection).
///
/// # Errors
///
/// Same as [`compile_kernel`].
pub fn compile_kernel_with(source: &str, options: &LowerOptions) -> Result<Dfg, FrontendError> {
    let kernel = parse_kernel(source)?;
    lower_kernel(&kernel, options)
}
