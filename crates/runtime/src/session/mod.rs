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
//! existing [`TransferModel`](crate::TransferModel) when consecutive stages
//! land on different devices, and teach routing *stage affinity* — keep a
//! pipeline's next stage near its producer's output unless queue load says
//! otherwise.
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

use std::collections::{BTreeMap, VecDeque};

use crate::control::Tiers;
use crate::metrics::{ClassMetrics, StageMetrics};
use crate::{Cluster, Ingest, Request, RuntimeError, ServeReport};
use driver::{class_metrics_from, SessionDriver};

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
    /// affinity, [`TransferModel`](crate::TransferModel)-priced inter-stage activations and
    /// weighted-fair SLO admission, and the outcomes commit in submission
    /// order per session through a reorder buffer.
    ///
    /// A pipeline naming a session absent from `sessions` runs as
    /// [`SloClass::Standard`]. A batch of single-stage pipelines under
    /// all-standard sessions lowers onto the unchanged
    /// [`serve`](Cluster::serve) path — bitwise identical to serving the
    /// plain requests.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPipeline`] for a malformed DAG,
    /// [`RuntimeError::NoRequests`] for an empty batch, and any
    /// compile/simulation failure the underlying serve can raise.
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
        let all_plain = pipelines.iter().all(|pipeline| {
            pipeline.is_single_stage()
                && slo_of.get(&pipeline.session).copied().unwrap_or_default() == SloClass::Standard
        });
        if all_plain {
            return self.serve_single_stage_pipelines(&pipelines, &slo_of);
        }
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

    /// The all-single-stage, all-standard fast path of
    /// [`serve_pipelines`](Cluster::serve_pipelines): lowers each pipeline
    /// to its plain [`Request`] and runs the unchanged
    /// [`serve`](Cluster::serve), then rebuilds the pipeline-level view
    /// from the plain report. This is the path the equivalence proptests
    /// pin bitwise against PR-8 serving.
    fn serve_single_stage_pipelines(
        &mut self,
        pipelines: &[PipelineRequest],
        slo_of: &BTreeMap<u64, SloClass>,
    ) -> Result<PipelineReport, RuntimeError> {
        let requests: Vec<Request> = pipelines
            .iter()
            .map(PipelineRequest::lower_to_request)
            .collect();
        let cluster = self.serve(requests)?;
        // Completions by request id, in submission order per id — caller
        // ids need not be unique, so each id keys a FIFO of completions.
        let mut completions: BTreeMap<u64, VecDeque<f64>> = BTreeMap::new();
        for outcome in cluster.outcomes() {
            completions
                .entry(outcome.request_id)
                .or_default()
                .push_back(outcome.completion_us);
        }
        let mut rob = ReorderBuffer::new(pipelines.len());
        for (index, pipeline) in pipelines.iter().enumerate() {
            rob.push(pipeline.session, index);
        }
        let mut outcomes: Vec<PipelineOutcome> = pipelines
            .iter()
            .map(|pipeline| {
                let slo = slo_of.get(&pipeline.session).copied().unwrap_or_default();
                let finish = completions
                    .get_mut(&pipeline.id)
                    .and_then(VecDeque::pop_front);
                PipelineOutcome {
                    id: pipeline.id,
                    session: pipeline.session,
                    slo,
                    arrival_us: pipeline.arrival_us,
                    finish_us: finish.unwrap_or(pipeline.arrival_us),
                    commit_us: pipeline.arrival_us,
                    stages: 1,
                    completed_stages: usize::from(finish.is_some()),
                    rejected: finish.is_none(),
                    transfers: 0,
                    transfer_us: 0.0,
                    deadline_us: pipeline.deadline_us,
                    missed_deadline: false,
                }
            })
            .collect();
        // Feeding finishes in submission order retires each pipeline as
        // the head of its session's run: commit = max(finish, previous
        // commit in the session).
        for index in 0..outcomes.len() {
            let (session, finish) = (outcomes[index].session, outcomes[index].finish_us);
            for (retired, commit_us) in rob.finish(session, index, finish) {
                outcomes[retired].commit_us = commit_us;
            }
        }
        for outcome in &mut outcomes {
            outcome.missed_deadline = !outcome.rejected
                && outcome
                    .deadline_us
                    .is_some_and(|deadline| outcome.commit_us > deadline);
        }
        let mut samples: Vec<f64> = outcomes
            .iter()
            .filter(|outcome| !outcome.rejected)
            .map(|outcome| outcome.finish_us - outcome.arrival_us)
            .collect();
        let stages = vec![StageMetrics::from_samples(0, &mut samples, 0, 0.0)];
        let classes = class_metrics_from(&outcomes);
        Ok(PipelineReport {
            cluster,
            pipelines: outcomes,
            stages,
            classes,
        })
    }
}
