//! Cycle-accurate simulator for the linear time-multiplexed FPGA overlay.
//!
//! The simulator executes a [`overlay_scheduler::CompiledKernel`] — the per-FU
//! instruction streams produced by the mapping tool flow — on a software
//! model of the overlay:
//!
//! * each FU has a rotating register file (with a static region for
//!   preloaded constants), an input controller that writes arriving stream
//!   words one per cycle, and a DSP datapath with a configurable pipeline
//!   depth (3 stages, or 2 for the V5 variant);
//! * FUs are chained by FIFO channels; a value needed by a later stage is
//!   bypassed through every intermediate FU, arriving one cycle after it was
//!   loaded there;
//! * the write-back variants (V3–V5) write results back into the local
//!   register file after the internal write-back path (IWP) delay, and the
//!   simulator *checks* that the schedule really did separate dependent
//!   instructions by at least that many slots;
//! * the V2 variant's replicated datapath is modelled as two lanes that
//!   process alternate kernel invocations.
//!
//! # How a run executes
//!
//! The overlay is a feed-forward chain running branch-free programs on a
//! datapath that cannot fault, so nothing about time or legality depends on
//! the data — nor on how many blocks a run has. A run is therefore three
//! passes, and only the last looks at the workload (the private `engine`
//! module documents each, with the argument for the second):
//!
//! 1. **One decode walk** checks the program once, for block 0 — every block
//!    runs the same instructions — and renames it: kernel inputs, constants
//!    and `EXEC` results get a *column* each, and a 32-entry rename table per
//!    FU says which column a register currently names. The table starts from
//!    the FU's constants, so **a load or write-back shadows a constant** for
//!    the rest of the block and the constant is back for the next one.
//!    Loads, forwards and write-backs only move names, so what is left is a
//!    straight-line tape of `(op, a, b) -> result`.
//! 2. **A timing pass** steps the cycle recurrences without values and stops
//!    stepping once it has proven that every later block is exactly one
//!    period after the one before (compiled kernels prove it by their third
//!    or fourth block); from there completions are a closed form, traced or
//!    not.
//! 3. **A data pass** evaluates the tape over columns of up to 64 blocks in
//!    one flat buffer, one [`overlay_dfg::Op::apply_columns`] call per `EXEC`
//!    per column, and writes every block's outputs into one buffer, which
//!    [`SimRun::outputs`] views as [`Records`].
//!
//! The first two make a [`SimPlan`], built once per compiled kernel by
//! [`OverlaySimulator::plan`]: the tape and a timing law that answers
//! [`SimPlan::metrics`] for any block count in O(1). [`SimPlan::run`] checks
//! the workload and makes the data pass alone, in a column scratch each
//! thread keeps between runs, so a planned run allocates only its outputs.
//! [`OverlaySimulator::run`] makes the same passes for one run alone: its
//! timing pass stops at the run's own blocks, and its program goes to the
//! run's trace instead of being shared.
//!
//! [`OverlaySimulator::load`] loads a kernel as the overlay's context switch
//! does, once: the [`Kernel`] it returns makes its plan at its first run,
//! at the trace capacity of the simulator it was loaded with, and keeps it
//! (or the error the plan failed with) for as long as the kernel. The
//! runtime's kernel cache (untraced) and `tm-overlay`'s `Overlay` (4 096
//! events) hold their kernels this way.
//!
//! The [`Trace`] is packed: the run hands it the program (a planned run
//! shares its plan's, not copied), the workload (shared) and the block the
//! timing pass closed at, and copies out no value. [`Trace::events`] makes
//! the data pass again over the kept blocks on its first call and builds the
//! [`Event`]s, writing the rows past the fixed point in the same closed form;
//! [`Trace::dropped`] and [`Trace::total`] are exact without it. A one-shot
//! run makes the same allocations for one block as for a thousand — five on
//! a thread whose column scratch is still narrower than the run, four on
//! one where it is not, one more for a kernel with preloaded constants — a
//! planned one makes one, and either makes one more when it keeps events.
//!
//! The functional results are checked against the DFG reference evaluator
//! ([`overlay_dfg::evaluate`]) in the test-suite, and the measured initiation
//! interval and latency are compared with the analytical models of
//! `overlay-scheduler`.
//!
//! # Example
//!
//! ```
//! use overlay_frontend::Benchmark;
//! use overlay_arch::FuVariant;
//! use overlay_scheduler::{generate_program, schedule};
//! use overlay_sim::{OverlaySimulator, Workload};
//! use overlay_dfg::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = Benchmark::Gradient.dfg()?;
//! let stages = schedule(&dfg, FuVariant::V1, None)?;
//! let compiled = generate_program(&dfg, &stages, FuVariant::V1)?;
//!
//! let workload = Workload::from_records(vec![
//!     [1, 2, 3, 4, 5].map(Value::new).to_vec(),
//!     [5, 4, 3, 2, 1].map(Value::new).to_vec(),
//! ]);
//! let run = OverlaySimulator::new(FuVariant::V1).run(&compiled, &workload)?;
//! assert_eq!(run.outputs()[0], vec![Value::new(10)]);
//! assert_eq!(run.metrics().steady_state_ii, 6.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
pub mod error;
pub mod metrics;
pub mod overlay;
pub mod trace;
pub mod workload;

pub use error::SimError;
pub use metrics::SimMetrics;
pub use overlay::{Kernel, OverlaySimulator, RecordIter, Records, SimPlan, SimRun};
pub use trace::{Event, EventKind, Trace};
pub use workload::Workload;
