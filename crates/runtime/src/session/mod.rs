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
//! The serving half lives in [`Cluster::serve_pipelines`], below. Through
//! the event loop's phases, the serve's tiers (`control::Tiers`) add a
//! stage-completion edge (a committing stage releases the successors whose
//! inputs are now all ready), price inter-stage activations with the
//! [`route`](crate::route) module's transfer model when consecutive stages
//! land on different devices, and teach routing *stage affinity* — keep a
//! pipeline's next stage near its producer's output unless queue load says
//! otherwise.
//!
//! Every pipeline serve takes this one path, whatever its stages' shape or
//! classes. Its admission rule is weighted-fair: under an admission limit,
//! each session may hold at most `max(1, ⌊limit·weight/total_weight⌋)`
//! waiting stages, its [`SloClass::weight`] over the weights of the
//! sessions in the batch. A batch of single-stage, all-standard pipelines
//! follows that rule too; with no limit it serves its stages exactly as
//! [`Cluster::serve`] serves the same requests under the stages' packed ids.
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

use std::collections::BTreeMap;

use crate::control::Tiers;
use crate::metrics::{ClassMetrics, StageMetrics};
use crate::{Cluster, Ingest, RuntimeError, ServeReport};
use driver::SessionDriver;

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

impl Cluster {
    /// Serves a batch of multi-kernel [`PipelineRequest`]s under tenant
    /// [`Session`]s (see the [`session`](crate::session) module docs): each
    /// pipeline's DAG is validated up front, its stages flow through the
    /// normal route/admit/place machinery with dependency parking, stage
    /// affinity, inter-stage activations priced by the transfer model and
    /// weighted-fair SLO admission, and the outcomes commit in submission
    /// order per session through a reorder buffer.
    ///
    /// A pipeline naming a session absent from `sessions` runs as
    /// [`SloClass::Standard`]. Under an admission limit, each session may
    /// hold at most `max(1, ⌊limit·weight/total_weight⌋)` waiting stages,
    /// whatever the shape of its pipelines: a single-stage, all-standard
    /// batch is split across its sessions like any other.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoRequests`] for an empty batch,
    /// [`PipelineRequest::validate`]'s error for a malformed DAG, an id of
    /// 2⁴⁸ or more or a deadline that is not finite,
    /// [`RuntimeError::DuplicateRequestId`] for a pipeline id submitted twice,
    /// and any error the underlying [`serve`](Cluster::serve) can raise for
    /// its stage requests, which every pipeline's arrival reaches.
    pub fn serve_pipelines(
        &mut self,
        pipelines: Vec<PipelineRequest>,
        sessions: &[Session],
    ) -> Result<PipelineReport, RuntimeError> {
        if pipelines.is_empty() {
            return Err(RuntimeError::NoRequests);
        }
        let mut topos = Vec::with_capacity(pipelines.len());
        for pipeline in &pipelines {
            topos.push(pipeline.validate()?);
        }
        let slo_of: BTreeMap<u64, SloClass> = sessions
            .iter()
            .map(|session| (session.id, session.slo))
            .collect();
        let (mut driver, requests) = SessionDriver::build(&pipelines, &topos, &slo_of);
        // The serve's tiers drive the driver on loan; an error drops it
        // with the serve (there is no report to build).
        let tiers = Tiers::new(self, Some(&mut driver));
        let cluster = self.run_serve(Ingest::Batch(requests.into_iter()), Some(tiers))?;
        debug_assert_eq!(driver.in_flight(), 0, "every pipeline's fate is sealed");
        let (pipelines, stages, classes) = driver.into_report();
        Ok(PipelineReport {
            cluster,
            pipelines,
            stages,
            classes,
        })
    }
}
