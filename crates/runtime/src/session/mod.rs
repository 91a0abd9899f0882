//! The session tier: multi-kernel pipeline requests, SLO classes, and
//! in-order per-tenant commit.
//!
//! Real tenants run *pipelines* — chains and small DAGs of kernels with data
//! flowing between stages — not isolated single-kernel invocations. This
//! module is the request-shaping half of that tier:
//!
//! * [`dag`] — [`PipelineRequest`] / [`PipelineStage`]: a validated DAG of
//!   [`KernelSpec`](crate::KernelSpec) stages, cycle/arity-checked and
//!   topo-ordered once at submit;
//! * [`slo`] — [`Session`] / [`SloClass`]: the tenancy unit and its latency
//!   tier (admission weighting + dispatch bias, weighted-fair across
//!   sessions);
//! * [`sched`] — [`ReorderBuffer`]: out-of-order stage completion, in-order
//!   per-session pipeline commit (the processor-simulator ROB idiom).
//!
//! The serving half lives in [`Cluster::serve_pipelines`]: the cluster event
//! loop gains a stage-completion edge (a committing stage releases the
//! successors whose inputs are now all ready), inter-stage activations are
//! priced by the existing [`TransferModel`](crate::TransferModel) when
//! consecutive stages land on different devices, and routing learns *stage
//! affinity* — keep a pipeline's next stage near its producer's output
//! unless queue load says otherwise.
//!
//! Everything here is opt-in and equivalence-pinned: a batch of single-stage
//! pipelines under all-standard sessions lowers onto the unchanged
//! [`Cluster::serve`] path and is bitwise identical to the pre-session
//! runtime.
//!
//! [`Cluster::serve`]: crate::Cluster::serve
//! [`Cluster::serve_pipelines`]: crate::Cluster::serve_pipelines

pub mod dag;
pub(crate) mod driver;
pub mod sched;
pub mod slo;

pub use dag::{PipelineRequest, PipelineStage, DEFAULT_ACTIVATION_BYTES};
pub use sched::ReorderBuffer;
pub use slo::{Session, SloClass};

use crate::metrics::{ClassMetrics, StageMetrics};
use crate::ServeReport;

/// What happened to one pipeline: when it finished, when it *committed*
/// (in submission order within its session), and what its stages paid in
/// inter-device activation transfers.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The pipeline id, as submitted.
    pub id: u64,
    /// The owning session id.
    pub session: u64,
    /// The SLO class the pipeline was served under.
    pub slo: SloClass,
    /// Arrival of the pipeline, microseconds.
    pub arrival_us: f64,
    /// Completion time of the last stage (or of the reject that sealed the
    /// pipeline's fate), microseconds.
    pub finish_us: f64,
    /// In-order commit time through the session's reorder buffer: never
    /// earlier than `finish_us`, never earlier than the session's previous
    /// commit.
    pub commit_us: f64,
    /// Total stages submitted.
    pub stages: usize,
    /// Stages that ran to completion.
    pub completed_stages: usize,
    /// Whether the pipeline failed (at least one stage was rejected).
    pub rejected: bool,
    /// Inter-device activation transfers its stages paid.
    pub transfers: usize,
    /// Total modeled activation-transfer time, microseconds.
    pub transfer_us: f64,
    /// The pipeline deadline, if any (attached to sink stages).
    pub deadline_us: Option<f64>,
    /// Whether a completed pipeline committed past its deadline.
    pub missed_deadline: bool,
}

impl PipelineOutcome {
    /// Commit latency: in-order commit minus arrival.
    pub fn latency_us(&self) -> f64 {
        self.commit_us - self.arrival_us
    }
}

/// Everything [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines)
/// returns: the underlying per-stage cluster report plus the pipeline-level
/// view.
#[derive(Debug)]
pub struct PipelineReport {
    /// The per-stage serve: every stage is one
    /// [`RequestOutcome`](crate::RequestOutcome) in here.
    pub cluster: ServeReport,
    /// Per-pipeline outcomes, in submission order.
    pub pipelines: Vec<PipelineOutcome>,
    /// Latency breakdown per stage depth (position in topological order).
    pub stages: Vec<StageMetrics>,
    /// Latency breakdown per SLO class, for the classes present.
    pub classes: Vec<ClassMetrics>,
}

impl PipelineReport {
    /// Pipelines that ran every stage to completion.
    pub fn completed(&self) -> usize {
        self.pipelines.iter().filter(|p| !p.rejected).count()
    }

    /// Total inter-device activation transfers paid across all pipelines.
    pub fn activation_transfers(&self) -> usize {
        self.pipelines.iter().map(|p| p.transfers).sum()
    }

    /// The per-class breakdown for `slo`, if any pipeline ran under it.
    pub fn class(&self, slo: SloClass) -> Option<&ClassMetrics> {
        self.classes.iter().find(|c| c.slo == slo)
    }
}
