//! The cluster-side session driver: host state steering a pipeline serve
//! through the cluster event loop.
//!
//! The event loop stays a flat request machine — every stage of every
//! pipeline is one intake entry — and names no session. The serve's tiers
//! (`control::Tiers`) drive this driver from the loop's phases, and the
//! driver decides what the session tier does at each:
//!
//! * **parking** — a stage whose inputs have not all committed holds off the
//!   routing/admission path; the completion of its last dependency releases
//!   it back as a same-instant arrival event;
//! * **activation pricing** — when consecutive stages land on different
//!   devices, the producer's output bytes ride the
//!   [`TransferModel`](crate::TransferModel) link (or the host checkpoint
//!   path when the producer device has died) and the cost is charged ahead
//!   of the consumer's context switch;
//! * **stage affinity** — routing overrides its load-driven choice with
//!   the producer device of the heaviest input whenever the activation
//!   savings beat the queueing penalty;
//! * **weighted-fair admission** — under an admission limit, each session's
//!   waiting stages are capped at its [`SloClass`]-weighted share
//!   ([`fair_share`]);
//! * **in-order commit** — pipeline outcomes retire through a per-session
//!   [`ReorderBuffer`].
//!
//! Crucially, the driver's view of *completed* stages lives here, on the
//! host side of the simulation: a device kill displaces the stages resident
//! on it, but never un-completes the upstream stages whose outputs already
//! committed — their activations restore from the host checkpoint when the
//! producer device is gone.

use std::collections::BTreeMap;

use crate::control::Gate;
use crate::metrics::{ClassMetrics, StageMetrics};
use crate::request::Request;
use crate::route::TransferModel;
use crate::session::dag::PipelineRequest;
use crate::session::sched::{fair_share, ReorderBuffer};
use crate::session::slo::SloClass;
use crate::session::PipelineOutcome;

/// Per-stage driver state, indexed by intake index.
#[derive(Debug)]
struct StageState {
    /// The owning pipeline (index into `SessionDriver::pipes`).
    pipeline: usize,
    /// Longest-path depth from the pipeline's roots (0 for roots) — the
    /// bucket [`StageMetrics`] aggregates by.
    depth: usize,
    /// Intake indices of the stages whose outputs this stage consumes.
    deps: Vec<usize>,
    /// Intake indices of the stages consuming this stage's output.
    succs: Vec<usize>,
    /// Dependencies that have not completed yet.
    deps_left: usize,
    /// Activation bytes this stage emits to each consumer.
    output_bytes: u64,
    parked: bool,
    done: bool,
    rejected: bool,
    /// The device the stage completed on (its successors' activation
    /// source). Survives that device's later death — the output is
    /// checkpointed host-side.
    producer: Option<usize>,
    /// When the stage became runnable: its arrival for roots, the last
    /// dependency's completion otherwise.
    ready_us: f64,
    completion_us: f64,
    /// Activation transfers actually paid, accumulated across fault
    /// requeues (a displaced stage re-prices on its new device).
    paid_transfers: usize,
    paid_transfer_us: f64,
}

/// Per-pipeline driver state.
#[derive(Debug)]
struct PipeState {
    id: u64,
    session: u64,
    slo: SloClass,
    arrival_us: f64,
    deadline_us: Option<f64>,
    /// Intake indices of the pipeline's stages, in topological order.
    stages: Vec<usize>,
    /// Stages not yet completed.
    remaining: usize,
    completed_stages: usize,
    /// A stage was rejected; the pipeline's fate is sealed as failed.
    failed: bool,
    /// The pipeline's finish was pushed into the reorder buffer.
    sealed: bool,
    finish_us: f64,
    commit_us: f64,
}

/// The session tier's event-loop companion (see the module docs). Built by
/// every [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines) and
/// lent to that serve's tiers; every other serve has none.
#[derive(Debug)]
pub(crate) struct SessionDriver {
    stages: Vec<StageState>,
    pipes: Vec<PipeState>,
    rob: ReorderBuffer,
    /// Admission weight per session id (fixed by its [`SloClass`]).
    weights: BTreeMap<u64, u64>,
    total_weight: u64,
    /// Stages currently waiting in tile queues, per session — what the
    /// weighted-fair admission share bounds.
    waiting: BTreeMap<u64, usize>,
}

impl SessionDriver {
    /// Flattens validated pipelines into the intake request list (stages in
    /// per-pipeline topological order, all at the pipeline's arrival) and
    /// builds the driver state over the resulting intake indices.
    ///
    /// The dispatch bias half of the SLO tier happens here: only sink
    /// stages of non-best-effort pipelines carry the pipeline deadline into
    /// their [`Request`], so slack-aware dispatch prioritizes
    /// latency/standard sinks while best-effort pipelines are judged on
    /// their commit time alone.
    pub(crate) fn build(
        pipelines: &[PipelineRequest],
        topos: &[Vec<usize>],
        slo_of: &BTreeMap<u64, SloClass>,
    ) -> (Self, Vec<Request>) {
        let mut requests = Vec::new();
        let mut stages: Vec<StageState> = Vec::new();
        let mut pipes: Vec<PipeState> = Vec::with_capacity(pipelines.len());
        let mut rob = ReorderBuffer::new(pipelines.len());
        let mut weights: BTreeMap<u64, u64> = BTreeMap::new();
        for (pipe_index, (pipeline, topo)) in pipelines.iter().zip(topos).enumerate() {
            let slo = slo_of.get(&pipeline.session).copied().unwrap_or_default();
            weights
                .entry(pipeline.session)
                .or_insert_with(|| slo.weight());
            rob.push(pipeline.session, pipe_index);
            let sinks = pipeline.sinks();
            let mut intake_of = vec![usize::MAX; pipeline.stages.len()];
            let mut pipe_stages = Vec::with_capacity(topo.len());
            for &s in topo {
                let stage = &pipeline.stages[s];
                let index = requests.len();
                intake_of[s] = index;
                let mut request = Request::new(
                    pipeline.stage_request_id(s),
                    stage.kernel.clone(),
                    stage.workload.clone(),
                )
                .at(pipeline.arrival_us);
                if sinks.contains(&s) && slo != SloClass::BestEffort {
                    if let Some(deadline) = pipeline.deadline_us {
                        request = request.with_deadline(deadline);
                    }
                }
                requests.push(request);
                // Topological order guarantees every dependency's intake
                // index is already assigned.
                let deps: Vec<usize> = stage.deps.iter().map(|&dep| intake_of[dep]).collect();
                let depth = deps
                    .iter()
                    .map(|&dep| stages[dep].depth + 1)
                    .max()
                    .unwrap_or(0);
                let deps_left = deps.len();
                stages.push(StageState {
                    pipeline: pipe_index,
                    depth,
                    deps,
                    succs: Vec::new(),
                    deps_left,
                    output_bytes: stage.output_bytes,
                    parked: false,
                    done: false,
                    rejected: false,
                    producer: None,
                    ready_us: pipeline.arrival_us,
                    completion_us: 0.0,
                    paid_transfers: 0,
                    paid_transfer_us: 0.0,
                });
                pipe_stages.push(index);
            }
            for &index in &pipe_stages {
                for dep_position in 0..stages[index].deps.len() {
                    let dep = stages[index].deps[dep_position];
                    stages[dep].succs.push(index);
                }
            }
            pipes.push(PipeState {
                id: pipeline.id,
                session: pipeline.session,
                slo,
                arrival_us: pipeline.arrival_us,
                deadline_us: pipeline.deadline_us,
                stages: pipe_stages,
                remaining: topo.len(),
                completed_stages: 0,
                failed: false,
                sealed: false,
                finish_us: pipeline.arrival_us,
                commit_us: pipeline.arrival_us,
            });
        }
        let total_weight = weights.values().sum();
        (
            SessionDriver {
                stages,
                pipes,
                rob,
                weights,
                total_weight,
                waiting: BTreeMap::new(),
            },
            requests,
        )
    }

    /// The session-tier gate at a stage's arrival event (see
    /// [`Gate`]). A parked stage is released by
    /// [`note_complete`](Self::note_complete) when its last dependency
    /// commits.
    pub(crate) fn on_arrival(&mut self, index: usize) -> Gate {
        let pipeline = self.stages[index].pipeline;
        if self.pipes[pipeline].failed {
            return Gate::Reject;
        }
        let stage = &mut self.stages[index];
        if stage.deps_left > 0 {
            stage.parked = true;
            return Gate::Park;
        }
        Gate::Proceed
    }

    /// Every stage's SLO class (its pipeline's session's), by intake index.
    pub(crate) fn classes(&self) -> Vec<SloClass> {
        let slo = |stage: &StageState| self.pipes[stage.pipeline].slo;
        self.stages.iter().map(slo).collect()
    }

    /// Weighted-fair admission: whether the stage's session still has room
    /// inside its [`fair_share`] of the cluster admission limit. Always
    /// true without a limit.
    pub(crate) fn fair_admit(&self, index: usize, limit: usize) -> bool {
        let session = self.pipes[self.stages[index].pipeline].session;
        let weight = self.weights.get(&session).copied().unwrap_or(1);
        let share = fair_share(limit, weight, self.total_weight);
        self.waiting.get(&session).copied().unwrap_or(0) < share
    }

    /// A stage `joined` a tile queue, or left one (started, or drained off
    /// a faulted device).
    pub(crate) fn note_queued(&mut self, index: usize, joined: bool) {
        let session = self.pipes[self.stages[index].pipeline].session;
        let waiting = self.waiting.entry(session).or_insert(0);
        *waiting = if joined {
            *waiting + 1
        } else {
            waiting.saturating_sub(1)
        };
    }

    /// The stage-affinity candidate: the producer device of the completed
    /// input with the most activation bytes (ties toward the lower device
    /// id). `None` for root stages.
    pub(crate) fn affinity_target(&self, index: usize) -> Option<usize> {
        self.stages[index]
            .deps
            .iter()
            .filter_map(|&dep| {
                let source = &self.stages[dep];
                source
                    .producer
                    .map(|device| (source.output_bytes, std::cmp::Reverse(device)))
            })
            .max()
            .map(|(_, std::cmp::Reverse(device))| device)
    }

    /// The `(producer, bytes)` inputs of stage `index` that move when it
    /// runs on `device`: those whose producer is another device and whose
    /// payload is not empty.
    fn moved_inputs(&self, index: usize, device: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.stages[index].deps.iter().filter_map(move |&dep| {
            let source = &self.stages[dep];
            let producer = source.producer?;
            (producer != device && source.output_bytes != 0)
                .then_some((producer, source.output_bytes))
        })
    }

    /// The activation bill for serving stage `index` on `device`: each
    /// moved input priced on the link from a living producer, on the host
    /// checkpoint path from a dead one (a `cheapest_acquisition`-style
    /// costing for activations, except the source is fixed by the
    /// dataflow).
    pub(crate) fn activation_us(
        &self,
        index: usize,
        device: usize,
        transfer: &TransferModel,
        alive: impl Fn(usize) -> bool,
    ) -> f64 {
        let price = |(producer, bytes): (usize, u64)| {
            if alive(producer) {
                transfer.link_transfer_us(producer.abs_diff(device), bytes as usize)
            } else {
                transfer.host_load_us(bytes as usize)
            }
        };
        // A fold from +0.0, not `sum`, which starts from -0.0.
        let moved = self.moved_inputs(index, device).map(price);
        moved.fold(0.0, |total_us, cost_us| total_us + cost_us)
    }

    /// Charges stage `index` the bill `cost_us` that routing priced for
    /// `device` (once per routing commit; a fault requeue re-prices and
    /// re-commits), calling `moved` with each input that moves there.
    pub(crate) fn commit_activation(
        &mut self,
        index: usize,
        device: usize,
        cost_us: f64,
        mut moved: impl FnMut(usize, u64),
    ) {
        let mut transfers = 0;
        for (producer, bytes) in self.moved_inputs(index, device) {
            transfers += 1;
            moved(producer, bytes);
        }
        let stage = &mut self.stages[index];
        stage.paid_transfers += transfers;
        stage.paid_transfer_us += cost_us;
    }

    /// A stage completed on `device` at `now_us`: records the producer,
    /// decrements successors, seals the pipeline when it was the last
    /// stage, and returns the parked successors this completion released,
    /// each with the number of inputs it consumes (the caller re-arrives
    /// them at the same instant).
    pub(crate) fn note_complete(
        &mut self,
        index: usize,
        device: usize,
        now_us: f64,
    ) -> Vec<(usize, usize)> {
        let pipeline = {
            let stage = &mut self.stages[index];
            debug_assert!(!stage.done, "a stage completes at most once");
            stage.done = true;
            stage.producer = Some(device);
            stage.completion_us = now_us;
            stage.pipeline
        };
        let mut released = Vec::new();
        for position in 0..self.stages[index].succs.len() {
            let succ = self.stages[index].succs[position];
            let stage = &mut self.stages[succ];
            stage.deps_left -= 1;
            if stage.deps_left == 0 && stage.parked && !stage.rejected {
                stage.parked = false;
                stage.ready_us = now_us;
                released.push((succ, stage.deps.len()));
            }
        }
        {
            let pipe = &mut self.pipes[pipeline];
            pipe.remaining -= 1;
            pipe.completed_stages += 1;
            pipe.finish_us = pipe.finish_us.max(now_us);
        }
        if self.pipes[pipeline].remaining == 0 && !self.pipes[pipeline].sealed {
            self.seal(pipeline);
        }
        released
    }

    /// A stage was rejected (admission, weighted-fair, unroutable fleet, or
    /// the cascade itself): fails its pipeline, seals the pipeline's fate
    /// through the reorder buffer, and returns the still-parked sibling
    /// stages to shed alongside it (stages already queued or running are
    /// left to finish).
    pub(crate) fn note_rejected(&mut self, index: usize, now_us: f64) -> Vec<usize> {
        let pipeline = self.stages[index].pipeline;
        {
            let stage = &mut self.stages[index];
            stage.rejected = true;
            stage.parked = false;
        }
        if self.pipes[pipeline].failed {
            return Vec::new();
        }
        self.pipes[pipeline].failed = true;
        self.pipes[pipeline].finish_us = self.pipes[pipeline].finish_us.max(now_us);
        if !self.pipes[pipeline].sealed {
            self.seal(pipeline);
        }
        let mut shed = Vec::new();
        for position in 0..self.pipes[pipeline].stages.len() {
            let sibling = self.pipes[pipeline].stages[position];
            let stage = &mut self.stages[sibling];
            if stage.parked && !stage.rejected {
                stage.parked = false;
                stage.rejected = true;
                shed.push(sibling);
            }
        }
        shed
    }

    /// Pushes the pipeline's finish into the reorder buffer and applies the
    /// in-order commits it retires.
    fn seal(&mut self, pipeline: usize) {
        self.pipes[pipeline].sealed = true;
        let session = self.pipes[pipeline].session;
        let finish = self.pipes[pipeline].finish_us;
        for (retired, commit_us) in self.rob.finish(session, pipeline, finish) {
            self.pipes[retired].commit_us = commit_us;
        }
    }

    /// Pipelines whose fate is not yet sealed (0 after a completed serve).
    pub(crate) fn in_flight(&self) -> usize {
        self.rob.in_flight()
    }

    /// Consumes the driver into the pipeline-level report: per-pipeline
    /// outcomes (submission order), per-depth [`StageMetrics`] and
    /// per-class [`ClassMetrics`].
    pub(crate) fn into_report(
        self,
    ) -> (Vec<PipelineOutcome>, Vec<StageMetrics>, Vec<ClassMetrics>) {
        let max_depth = self.stages.iter().map(|s| s.depth).max().unwrap_or(0);
        let mut depth_samples: Vec<Vec<f64>> = vec![Vec::new(); max_depth + 1];
        let mut depth_transfers = vec![0usize; max_depth + 1];
        let mut depth_transfer_us = vec![0.0f64; max_depth + 1];
        for stage in &self.stages {
            if stage.done {
                depth_samples[stage.depth].push(stage.completion_us - stage.ready_us);
            }
            depth_transfers[stage.depth] += stage.paid_transfers;
            depth_transfer_us[stage.depth] += stage.paid_transfer_us;
        }
        let stage_metrics = depth_samples
            .iter_mut()
            .enumerate()
            .map(|(depth, samples)| {
                StageMetrics::from_samples(
                    depth,
                    samples,
                    depth_transfers[depth],
                    depth_transfer_us[depth],
                )
            })
            .collect();
        let mut outcomes = Vec::with_capacity(self.pipes.len());
        for pipe in &self.pipes {
            let (transfers, transfer_us) = pipe.stages.iter().fold((0, 0.0), |acc, &s| {
                (
                    acc.0 + self.stages[s].paid_transfers,
                    acc.1 + self.stages[s].paid_transfer_us,
                )
            });
            let missed = !pipe.failed && pipe.deadline_us.is_some_and(|d| pipe.commit_us > d);
            outcomes.push(PipelineOutcome {
                id: pipe.id,
                session: pipe.session,
                slo: pipe.slo,
                arrival_us: pipe.arrival_us,
                finish_us: pipe.finish_us,
                commit_us: pipe.commit_us,
                stages: pipe.stages.len(),
                completed_stages: pipe.completed_stages,
                rejected: pipe.failed,
                transfers,
                transfer_us,
                deadline_us: pipe.deadline_us,
                missed_deadline: missed,
            });
        }
        // Per-class metrics, for the classes actually present.
        let classes = SloClass::ALL
            .iter()
            .filter_map(|&slo| {
                let of_class: Vec<&PipelineOutcome> =
                    outcomes.iter().filter(|o| o.slo == slo).collect();
                if of_class.is_empty() {
                    return None;
                }
                let mut latencies: Vec<f64> = of_class
                    .iter()
                    .filter(|o| !o.rejected)
                    .map(|o| o.latency_us())
                    .collect();
                let rejected = of_class.iter().filter(|o| o.rejected).count();
                let misses = of_class.iter().filter(|o| o.missed_deadline).count();
                let with_deadline = of_class
                    .iter()
                    .filter(|o| !o.rejected && o.deadline_us.is_some())
                    .count();
                Some(ClassMetrics::from_samples(
                    slo,
                    &mut latencies,
                    rejected,
                    misses,
                    with_deadline,
                ))
            })
            .collect();
        (outcomes, stage_metrics, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::KernelSpec;
    use overlay_sim::Workload;

    fn kernel(tag: u64) -> KernelSpec {
        KernelSpec::from_source(
            format!("k{tag}"),
            format!("kernel k{tag}(x) {{ out y = x + {tag}; }}"),
        )
    }

    fn chain(id: u64, session: u64, stages: usize) -> PipelineRequest {
        PipelineRequest::chain(
            id,
            session,
            (0..stages as u64).map(|tag| (kernel(tag), Workload::ramp(1, 4))),
        )
    }

    fn driver_for(pipelines: &[PipelineRequest]) -> (SessionDriver, usize) {
        let topos: Vec<Vec<usize>> = pipelines.iter().map(|p| p.validate().unwrap()).collect();
        let slo_of = BTreeMap::from([(7u64, SloClass::Latency), (9u64, SloClass::BestEffort)]);
        let (driver, requests) = SessionDriver::build(pipelines, &topos, &slo_of);
        (driver, requests.len())
    }

    #[test]
    fn parking_and_release_walk_a_chain_in_order() {
        let (mut driver, intake) = driver_for(&[chain(1, 7, 3)]);
        assert_eq!(intake, 3);
        // Stage 0 is a root; stages 1 and 2 park behind their inputs.
        assert_eq!(driver.on_arrival(0), Gate::Proceed);
        assert_eq!(driver.on_arrival(1), Gate::Park);
        assert_eq!(driver.on_arrival(2), Gate::Park);
        // Completing 0 on device 2 releases exactly stage 1, whose affinity
        // candidate is the producer device.
        assert_eq!(driver.note_complete(0, 2, 10.0), vec![(1, 1)]);
        assert_eq!(driver.affinity_target(1), Some(2));
        assert_eq!(driver.note_complete(1, 0, 20.0), vec![(2, 1)]);
        assert!(driver.note_complete(2, 1, 30.0).is_empty());
        assert_eq!(driver.in_flight(), 0);
        let (outcomes, stages, classes) = driver.into_report();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].rejected);
        assert_eq!(outcomes[0].completed_stages, 3);
        assert_eq!(outcomes[0].finish_us, 30.0);
        assert_eq!(outcomes[0].commit_us, 30.0);
        assert_eq!(stages.len(), 3, "chain depths 0..=2");
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].slo, SloClass::Latency);
    }

    #[test]
    fn activation_plans_price_links_and_dead_producer_checkpoints() {
        let (mut driver, _) = driver_for(&[chain(1, 7, 2)]);
        driver.note_complete(0, 3, 5.0);
        let transfer = TransferModel::new();
        let moved = |driver: &mut SessionDriver, device: usize| {
            let mut moved = Vec::new();
            driver.commit_activation(1, device, 0.0, |from, bytes| moved.push((from, bytes)));
            moved
        };
        // Consumer on the producer device: nothing moves.
        assert_eq!(driver.activation_us(1, 3, &transfer, |_| true), 0.0);
        assert!(moved(&mut driver, 3).is_empty());
        // One device over: one link hop for the default payload.
        let cost = driver.activation_us(1, 2, &transfer, |_| true);
        assert_eq!(cost, transfer.link_transfer_us(1, 4096));
        assert_eq!(moved(&mut driver, 2), vec![(3, 4096)]);
        // Producer dead: the activation restores from the host checkpoint.
        let cost = driver.activation_us(1, 2, &transfer, |d| d != 3);
        assert_eq!(cost, transfer.host_load_us(4096));
    }

    #[test]
    fn a_reject_cascades_to_parked_siblings_and_later_arrivals() {
        let (mut driver, _) = driver_for(&[chain(1, 9, 3), chain(2, 7, 1)]);
        assert_eq!(driver.on_arrival(0), Gate::Proceed);
        assert_eq!(driver.on_arrival(1), Gate::Park);
        // Rejecting the root sheds the parked middle stage; stage 2 (not
        // yet arrived) is shed at its own arrival.
        assert_eq!(driver.note_rejected(0, 4.0), vec![1]);
        assert_eq!(driver.on_arrival(2), Gate::Reject);
        assert!(driver.note_rejected(2, 4.0).is_empty(), "already failed");
        // The other pipeline is untouched.
        assert_eq!(driver.on_arrival(3), Gate::Proceed);
        driver.note_complete(3, 0, 9.0);
        let (outcomes, _, classes) = driver.into_report();
        assert!(outcomes[0].rejected);
        assert_eq!(outcomes[0].completed_stages, 0);
        assert_eq!(outcomes[0].finish_us, 4.0);
        assert!(!outcomes[1].rejected);
        // Both classes present: best-effort carries the reject.
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].slo, SloClass::Latency);
        assert_eq!(classes[1].slo, SloClass::BestEffort);
        assert_eq!(classes[1].rejected, 1);
    }

    #[test]
    fn weighted_fair_admission_caps_each_sessions_queue_share() {
        // Sessions 7 (latency, weight 4) and 9 (best-effort, weight 1).
        let (mut driver, _) = driver_for(&[chain(1, 7, 1), chain(2, 9, 1)]);
        // Shares of limit 10 over total weight 5: latency 8, best-effort 2.
        for _ in 0..8 {
            assert!(driver.fair_admit(0, 10));
            driver.note_queued(0, true);
        }
        assert!(!driver.fair_admit(0, 10));
        for _ in 0..2 {
            assert!(driver.fair_admit(1, 10));
            driver.note_queued(1, true);
        }
        assert!(!driver.fair_admit(1, 10));
        // No limit: never capped.
        assert!(driver.fair_admit(0, usize::MAX));
        // Dequeues free the share again.
        driver.note_queued(0, false);
        assert!(driver.fair_admit(0, 10));
    }

    #[test]
    fn commits_retire_in_submission_order_within_a_session() {
        let (mut driver, _) = driver_for(&[chain(1, 7, 1), chain(2, 7, 1)]);
        // The second pipeline finishes first; its commit waits for the
        // first and is clamped to it.
        driver.note_complete(1, 0, 50.0);
        driver.note_complete(0, 0, 80.0);
        let (outcomes, _, _) = driver.into_report();
        assert_eq!(outcomes[0].commit_us, 80.0);
        assert_eq!(outcomes[1].finish_us, 50.0);
        assert_eq!(outcomes[1].commit_us, 80.0, "in-order commit clamps");
        assert_eq!(outcomes[1].latency_us(), 80.0 - outcomes[1].arrival_us);
    }
}
