//! # tm-overlay — a time-multiplexed FPGA overlay with linear interconnect
//!
//! This crate is the public façade of the workspace reproducing Li et al.,
//! *"A Time-Multiplexed FPGA Overlay with Linear Interconnect"* (DATE 2018).
//! It ties together:
//!
//! * [`frontend`] — the kernel language and the paper's benchmark suite,
//! * [`dfg`] — the data-flow-graph IR and reference evaluator,
//! * [`scheduler`] — ASAP and fixed-depth greedy scheduling, II models and
//!   instruction generation,
//! * [`isa`] — the 32-bit FU instruction set,
//! * [`arch`] — resource/frequency/reconfiguration models calibrated to the
//!   paper's published numbers,
//! * [`sim`] — the cycle-accurate overlay simulator,
//! * [`runtime`] — the online multi-tile serving runtime (streaming
//!   ingestion, virtual-time event loop, kernel cache, context-switch- and
//!   deadline-aware dispatch, memoized functional simulation),
//!
//! behind three entry points: [`Compiler`] (kernel source →
//! [`CompiledKernel`]), [`Overlay`] (a configured overlay instance that
//! executes compiled kernels and reports performance) and [`Cluster`] (the
//! serving runtime: one or more tile arrays behind one event loop, with
//! kernel-hash / least-loaded / power-of-two routing and a transfer-cost
//! model between them).
//!
//! # Quickstart
//!
//! ```
//! use tm_overlay::{Compiler, Overlay, FuVariant, Workload};
//! use tm_overlay::dfg::Value;
//!
//! # fn main() -> Result<(), tm_overlay::Error> {
//! // 1. Compile a kernel for the V1 overlay.
//! let compiled = Compiler::new(FuVariant::V1)
//!     .compile_source("kernel saxpy(a, x, y) { out r = a * x + y; }")?;
//!
//! // 2. Instantiate the overlay and run a workload through it.
//! let overlay = Overlay::for_kernel(FuVariant::V1, &compiled)?;
//! let workload = Workload::from_records(vec![
//!     [2, 3, 4].map(Value::new).to_vec(),
//!     [5, 6, 7].map(Value::new).to_vec(),
//! ]);
//! let run = overlay.execute(&compiled, &workload)?;
//! assert_eq!(run.outputs()[0], vec![Value::new(10)]);
//!
//! // 3. Inspect the performance report.
//! let report = overlay.performance(&compiled, &run);
//! assert!(report.throughput_gops > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Serving a live request stream on a tile array
//!
//! A one-device [`Cluster`] scales the single-overlay flow out to a pool of
//! NoC-connected tiles (Sec. III-A.3) and serves *online*: requests stream
//! in through a bounded [`Submitter`] channel, every placement decision
//! happens at an arrival or completion event against live per-tile queue
//! state, distinct kernels compile once through an LRU cache, and
//! slack-aware dispatch reorders tile queues by deadline urgency under
//! overload.
//!
//! ```
//! use tm_overlay::{Cluster, DispatchPolicy, FuVariant, KernelSpec, Request, Workload};
//!
//! # fn main() -> Result<(), tm_overlay::runtime::RuntimeError> {
//! let mut runtime = Cluster::new(FuVariant::V4, 1, 4)?
//!     .with_policy(DispatchPolicy::SlackAware);
//! let kernel = KernelSpec::from_source(
//!     "saxpy",
//!     "kernel saxpy(a, x, y) { out r = a * x + y; }",
//! );
//! let report = runtime.serve_stream(|submitter| {
//!     for i in 0..8 {
//!         let request = Request::new(i, kernel.clone(), Workload::ramp(3, 32))
//!             .at(i as f64)
//!             .with_deadline(i as f64 + 1_000.0);
//!         submitter.submit(request).expect("loop is live");
//!     }
//! })?;
//! assert_eq!(report.metrics().requests, 8);
//! assert_eq!(report.metrics().cache.misses, 1); // compiled once
//! assert_eq!(report.metrics().deadline_misses, 0);
//! assert_eq!(report.metrics().rejects, 0);
//! # Ok(())
//! # }
//! ```
//!
//! A pre-collected trace goes through [`Cluster::serve`], which dispatches
//! it in submission order exactly as the stream above would be, with no
//! channel or feeder thread in between. More devices are
//! `Cluster::new(variant, devices, tiles)`; every serve returns a
//! [`ServeReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compiler;
pub mod error;
pub mod overlay;
pub mod report;

/// Re-export of the architecture-model crate.
pub use overlay_arch as arch;
/// Re-export of the data-flow-graph crate.
pub use overlay_dfg as dfg;
/// Re-export of the front-end crate.
pub use overlay_frontend as frontend;
/// Re-export of the instruction-set crate.
pub use overlay_isa as isa;
/// Re-export of the multi-tile serving-runtime crate.
pub use overlay_runtime as runtime;
/// Re-export of the scheduler crate.
pub use overlay_scheduler as scheduler;
/// Re-export of the simulator crate.
pub use overlay_sim as sim;

pub use compiler::Compiler;
pub use error::Error;
pub use overlay::{Overlay, PerformanceReport};
pub use report::{compare_variants, VariantResult};

// The most frequently used types, re-exported at the crate root.
pub use overlay_arch::{FuVariant, OverlayConfig};
pub use overlay_frontend::Benchmark;
pub use overlay_runtime::{
    explain, Attribution, AttributionReport, BatchConfig, BatchStats, BurnAlert, ClassMetrics,
    Cluster, DeviceMetrics, DispatchPolicy, FaultEvent, FaultKind, FaultPlan, FlashCrowd,
    KernelSpec, LogHistogram, PipelineOutcome, PipelineReport, PipelineRequest, PipelineStage,
    ProfileStats, ReplicationConfig, ReplicationStats, Request, RoutePolicy, RuntimeMetrics,
    Scenario, ScenarioArrival, ScenarioConfig, ServeReport, Session, SloClass, SloConfig,
    SloObjective, SloReport, StageMetrics, SubmitError, Submitter, TelemetryConfig, TimeSeries,
    Trace, TraceConfig, TransferModel,
};
// Kept, hidden, for the frozen benchmark harness only.
#[doc(hidden)]
pub use overlay_runtime::{ClusterReport, Runtime};
pub use overlay_scheduler::CompiledKernel;
pub use overlay_sim::{SimRun, Workload};
