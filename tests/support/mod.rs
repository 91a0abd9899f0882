//! What the serving suites share, loaded by each with `mod support;`: the
//! one audit every successful serve goes through ([`audit`] and
//! [`audit_pipelines`]; [`Audited`] serves and audits in one call), the
//! output check against the DFG reference evaluator ([`check_outputs`]),
//! the one comparator of two serves ([`assert_serves_identical`]) and the
//! trace and fault-plan generators ([`random_trace`], [`random_plan`],
//! [`benchmark_trace`], [`pressure_trace`]).
//!
//! Every check returns a `TestCaseError` rather than panicking, so a
//! property test reports its failing case: use `?` there and `.unwrap()` in
//! a plain test.

// Each suite compiles the whole module but uses only part of it.
#![allow(dead_code)]

use std::collections::HashMap;

use proptest::prelude::*;
use rand::prelude::*;

use tm_overlay::dfg::evaluate_stream;
use tm_overlay::frontend::LowerOptions;
use tm_overlay::runtime::{RejectedRequest, RequestOutcome, RuntimeError, SpanKind, TraceEvent};
use tm_overlay::{
    Benchmark, Cluster, DeviceMetrics, FaultPlan, FuVariant, KernelSpec, PipelineReport,
    PipelineRequest, Request, RoutePolicy, RuntimeMetrics, ServeReport, Session, SloClass, Trace,
    Workload,
};

pub const SAXPY: &str = "kernel saxpy(a, x, y) { out r = a * x + y; }";
const POLY: &str = "kernel poly(x) { out y = (x * x + 3) * x; }";
const GRAD: &str = "kernel grad(a, b, c, d, e) { out g = a * b + c * d + e; }";

/// The three DSL kernels the random traces draw from, with their input
/// counts.
pub fn dsl_kernels() -> [(KernelSpec, usize); 3] {
    [
        (KernelSpec::from_source("saxpy", SAXPY), 3),
        (KernelSpec::from_source("poly", POLY), 1),
        (KernelSpec::from_source("grad", GRAD), 5),
    ]
}

/// A suite kernel and its input count.
pub fn suite_kernel(benchmark: Benchmark) -> (KernelSpec, usize) {
    let inputs = benchmark.dfg().unwrap().num_inputs();
    (KernelSpec::from_benchmark(benchmark).unwrap(), inputs)
}

/// A V4 cluster of `devices` × `tiles` routing by `route`.
pub fn cluster(devices: usize, tiles: usize, route: RoutePolicy) -> Cluster {
    let cluster = Cluster::new(FuVariant::V4, devices, tiles).unwrap();
    cluster.with_route_policy(route)
}

/// The modeled completion of `request` alone on one cold `variant` tile.
pub fn service_us(variant: FuVariant, request: Request) -> f64 {
    let mut probe = Cluster::new(variant, 1, 1).unwrap();
    probe.serve_audited(&[request]).unwrap().outcomes()[0].completion_us
}

/// A random mixed-kernel trace: non-decreasing arrivals, about one in three
/// at the same instant as its predecessor; two or three kernels; 1–4
/// blocks; each workload either from a pool of four seeds (repeats hit the
/// sim memo) or unique to its request (it misses); and a coin-flip deadline
/// 0.1–3.0 × `deadline_scale_us` after the arrival.
pub fn random_trace(seed: u64, count: usize, deadline_scale_us: f64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kernels = dsl_kernels();
    let kernels = &kernels[..rng.gen_range(2..=3usize)];
    let mut clock_us = 0.0;
    (0..count)
        .map(|i| {
            if rng.gen_range(0..3u32) > 0 {
                clock_us += rng.gen_range(0..=20u64) as f64 * 0.1;
            }
            let (spec, inputs) = &kernels[rng.gen_range(0..kernels.len())];
            let blocks = rng.gen_range(1..=4usize);
            let pooled = rng.gen_bool(0.5);
            let workload_seed = seed
                ^ if pooled {
                    rng.gen_range(0..4u64)
                } else {
                    4 + i as u64
                };
            let workload = Workload::random(*inputs, blocks, workload_seed);
            let request = Request::new(i as u64, spec.clone(), workload).at(clock_us);
            if rng.gen_bool(0.5) {
                let budget = rng.gen_range(1..=30u64) as f64 * 0.1 * deadline_scale_us;
                return request.with_deadline(clock_us + budget);
            }
            request
        })
        .collect()
}

/// A random fault schedule over a serve that ends near `horizon_us`. Device
/// 0 is never touched, so one device stays serviceable throughout; every
/// other device is spared, killed (and maybe revived), drained (and maybe
/// undrained) or blipped, and the links may degrade and maybe recover.
pub fn random_plan(seed: u64, devices: usize, horizon_us: f64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    // The vendored rand samples integer ranges only: draw permille.
    let mut draw = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut at = move || draw.gen_range(0..1_000u64) as f64 / 1_000.0 * horizon_us;
    let mut plan = FaultPlan::new();
    for device in 1..devices {
        let start = at();
        plan = match rng.gen_range(0..4u32) {
            0 => plan,
            1 if rng.gen_bool(0.6) => plan.kill(start, device).revive(start + at(), device),
            1 => plan.kill(start, device),
            2 if rng.gen_bool(0.6) => plan.drain(start, device).undrain(start + at(), device),
            2 => plan.drain(start, device),
            _ => plan.merged(FaultPlan::blip(device, start, 0.1 + at() / 2.0)),
        };
    }
    if rng.gen_bool(0.3) {
        plan = plan.degrade_links(at(), 1.0 + rng.gen_range(0..15_000u64) as f64 / 1_000.0);
        if rng.gen_bool(0.5) {
            plan = plan.degrade_links(at(), 1.0);
        }
    }
    plan
}

/// A mixed-kernel trace over the paper's benchmark suite: `count` requests,
/// one every `spacing_us`, cycling through four kernels, request `i`'s
/// workload seeded `seed ^ i`, and with `budget_us` each a deadline that
/// long after its arrival.
pub fn benchmark_trace(
    count: usize,
    blocks: usize,
    seed: u64,
    spacing_us: f64,
    budget_us: Option<f64>,
) -> Vec<Request> {
    let suite = [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Qspline,
        Benchmark::Poly5,
    ];
    (0..count)
        .map(|i| {
            let (spec, inputs) = suite_kernel(suite[i % suite.len()]);
            let workload = Workload::random(inputs, blocks, seed ^ i as u64);
            let arrival = i as f64 * spacing_us;
            let request = Request::new(i as u64, spec, workload).at(arrival);
            match budget_us {
                Some(budget_us) => request.with_deadline(arrival + budget_us),
                None => request,
            }
        })
        .collect()
}

/// `count` one-block requests cycling through `suite`, one every
/// `spacing_us`, each due `budget_us` after its arrival; request `i`'s
/// workload is seeded `i % 8`.
pub fn suite_trace(
    suite: &[Benchmark],
    count: usize,
    spacing_us: f64,
    budget_us: f64,
) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let (spec, inputs) = suite_kernel(suite[i % suite.len()]);
            let arrival = i as f64 * spacing_us;
            Request::new(i as u64, spec, Workload::random(inputs, 1, (i % 8) as u64))
                .at(arrival)
                .with_deadline(arrival + budget_us)
        })
        .collect()
}

/// The DSL kernels in turn, arriving in bursts of 8 every
/// `burst_spacing_us` — more simultaneous work than any test fleet has
/// tiles, so queues form at every burst. Between bursts a device may sit
/// idle: a test that must displace in-flight work kills mid-run.
pub fn pressure_trace(count: usize, burst_spacing_us: f64, seed: u64) -> Vec<Request> {
    let specs = dsl_kernels();
    (0..count)
        .map(|i| {
            let (spec, inputs) = &specs[i % specs.len()];
            let workload = Workload::random(*inputs, 1 + i % 3, seed ^ (i as u64 % 4));
            Request::new(i as u64, spec.clone(), workload).at((i / 8) as f64 * burst_spacing_us)
        })
        .collect()
}

/// Serving that must succeed, audited: a failed serve or audit is the
/// `TestCaseError`. The report must also be the cluster's: its policies,
/// devices and tiles.
pub trait Audited {
    /// Serves `requests` and [`audit`]s the report.
    fn serve_audited(&mut self, requests: &[Request]) -> Result<ServeReport, TestCaseError>;

    /// Serves `pipelines` and [`audit_pipelines`] the report.
    fn serve_pipelines_audited(
        &mut self,
        pipelines: &[PipelineRequest],
        sessions: &[Session],
    ) -> Result<PipelineReport, TestCaseError>;
}

impl Audited for Cluster {
    fn serve_audited(&mut self, requests: &[Request]) -> Result<ServeReport, TestCaseError> {
        let report = self.serve(requests.to_vec()).map_err(failed_serve)?;
        served_by(self, &report)?;
        audit(requests, &report)?;
        Ok(report)
    }

    fn serve_pipelines_audited(
        &mut self,
        pipelines: &[PipelineRequest],
        sessions: &[Session],
    ) -> Result<PipelineReport, TestCaseError> {
        let served = self.serve_pipelines(pipelines.to_vec(), sessions);
        let report = served.map_err(failed_serve)?;
        served_by(self, &report.cluster)?;
        audit_pipelines(pipelines, sessions, &report)?;
        Ok(report)
    }
}

fn failed_serve(error: RuntimeError) -> TestCaseError {
    TestCaseError::fail(format!("the serve failed: {error}"))
}

fn served_by(cluster: &Cluster, report: &ServeReport) -> Result<(), TestCaseError> {
    let rows = report.device_metrics().iter();
    let tiles: Vec<usize> = rows.map(|d| d.tile_requests.len()).collect();
    let shape = vec![cluster.tiles_per_device(); cluster.num_devices()];
    prop_assert_eq!(tiles, shape);
    prop_assert_eq!(report.policy(), cluster.policy());
    prop_assert_eq!(report.route_policy(), cluster.route_policy());
    Ok(())
}

/// The parts of a serve [`audit_parts`] reads.
#[derive(Clone, Copy)]
pub struct Parts<'a> {
    pub outcomes: &'a [RequestOutcome],
    pub rejected: &'a [RejectedRequest],
    pub metrics: &'a RuntimeMetrics,
    pub devices: &'a [DeviceMetrics],
}

impl<'a> Parts<'a> {
    pub fn of(report: &'a ServeReport) -> Self {
        Parts {
            outcomes: report.outcomes(),
            rejected: report.rejected(),
            metrics: report.metrics(),
            devices: report.device_metrics(),
        }
    }
}

/// Audits a successful serve of `requests` (see [`audit_parts`]) and, when
/// it was traced, its spans (see [`audit_spans`]).
pub fn audit(requests: &[Request], report: &ServeReport) -> Result<(), TestCaseError> {
    let served = audit_parts(requests, Parts::of(report), false)?;
    match report.trace() {
        Some(trace) => audit_spans(requests, &served, report.outcomes(), trace),
        None => Ok(()),
    }
}

/// The invariants of every successful serve of `requests`:
///
/// * each submission is an outcome or a reject, once; outcomes keep
///   submission order; each carries its request's kernel and deadline, and
///   a reject its arrival;
/// * every outcome starts no earlier than its arrival and ends after it
///   starts, `queued_us` and `latency_us` are exactly start − arrival and
///   completion − arrival, `missed_deadline` is exactly whether it ended
///   past its deadline, and its device and tile exist;
/// * no `(device, tile)` runs two outcomes at once;
/// * the totals and each device's row are what its outcomes imply, p50 ≤
///   p99 ≤ max, and the per-tile figures are the devices' rows end to end.
///
/// A device kill abandons a started run, which stays counted in the latency
/// histogram and in the killed device's switch and served counts, so those
/// match the outcomes only where no fault hit. A `pipelined` serve rejects
/// the stages a failed pipeline sheds, and any serve what a dead fleet
/// cannot take, against no device: per-device rejects may then fall short
/// of the total.
///
/// A serve takes each id once, so each outcome and reject is found by id.
/// Returns each submission's position in `outcomes`, `None` for a reject.
pub fn audit_parts(
    requests: &[Request],
    parts: Parts,
    pipelined: bool,
) -> Result<Vec<Option<usize>>, TestCaseError> {
    let (outcomes, rejected) = (parts.outcomes, parts.rejected);
    let (metrics, devices) = (parts.metrics, parts.devices);
    let ids = requests.iter().map(|request| request.id);
    let index_of: HashMap<u64, usize> = ids.zip(0..).collect();
    prop_assert!(index_of.len() == requests.len(), "ids must be unique");
    let mut served = vec![None; requests.len()];
    let mut seen = vec![false; requests.len()];
    let mut account = |id: u64| -> Result<usize, TestCaseError> {
        let index = index_of.get(&id).copied();
        let index = index.ok_or_else(|| TestCaseError::fail(format!("{id} never submitted")))?;
        prop_assert!(!seen[index], "{id} accounted for twice");
        seen[index] = true;
        Ok(index)
    };
    let bits = |deadline: Option<f64>| deadline.map(f64::to_bits);
    let mut previous = None;
    for (position, outcome) in outcomes.iter().enumerate() {
        let id = outcome.request_id;
        let index = account(id)?;
        prop_assert!(Some(index) > previous, "{id} out of order");
        (previous, served[index]) = (Some(index), Some(position));
        let request = &requests[index];
        let (arrival, start, end) = (request.arrival_us, outcome.start_us, outcome.completion_us);
        prop_assert!(arrival <= start, "{id} started before its arrival");
        prop_assert!(start < end, "{id} ran from {start} to {end}");
        prop_assert_eq!(outcome.queued_us.to_bits(), (start - arrival).to_bits());
        prop_assert_eq!(outcome.latency_us.to_bits(), (end - arrival).to_bits());
        prop_assert_eq!(&*outcome.kernel, request.kernel.name());
        prop_assert_eq!(bits(outcome.deadline_us), bits(request.deadline_us));
        let missed = outcome.deadline_us.is_some_and(|due| end > due);
        prop_assert!(outcome.missed_deadline == missed, "{id}: missed_deadline");
        let tiles = devices.get(outcome.device).map(|d| d.tile_requests.len());
        prop_assert!(outcome.tile < tiles.unwrap_or(0), "{id} ran on no tile");
    }
    for reject in rejected {
        let request = &requests[account(reject.id)?];
        prop_assert_eq!(&*reject.kernel, request.kernel.name());
        prop_assert_eq!(reject.arrival_us.to_bits(), request.arrival_us.to_bits());
        prop_assert_eq!(bits(reject.deadline_us), bits(request.deadline_us));
    }
    let accounted = seen.iter().filter(|&&seen| seen).count();
    prop_assert!(accounted == requests.len(), "{accounted} accounted for");

    // Starts are not negative, so their bits sort as they do.
    let mut runs: Vec<&RequestOutcome> = outcomes.iter().collect();
    runs.sort_by_key(|run| (tile_of(run), run.start_us.to_bits()));
    for pair in runs.windows(2) {
        let (first, then) = (pair[0], pair[1]);
        let overlap = tile_of(first) == tile_of(then) && then.start_us < first.completion_us;
        let (a, b) = (then.request_id, first.request_id);
        prop_assert!(!overlap, "{a} overlaps {b} on their tile");
    }

    let count = |pick: fn(&&RequestOutcome) -> bool| outcomes.iter().filter(pick).count();
    let misses = count(|o| o.missed_deadline);
    let due = count(|o| o.deadline_us.is_some());
    prop_assert_eq!(metrics.requests, outcomes.len());
    prop_assert_eq!(metrics.rejects, rejected.len());
    prop_assert_eq!(metrics.deadline_misses, misses);
    prop_assert_eq!(metrics.deadline_requests, due);
    let shed_due = rejected.iter().filter(|r| r.deadline_us.is_some()).count();
    prop_assert_eq!(metrics.rejected_deadlines, shed_due);
    let blocks: usize = outcomes.iter().map(|o| o.sim().blocks).sum();
    prop_assert_eq!(metrics.invocations, blocks);
    let latencies = || outcomes.iter().map(|o| o.latency_us);
    let end = max_of(outcomes.iter().map(|o| o.completion_us));
    prop_assert_eq!(metrics.makespan_us.to_bits(), end.to_bits());
    let max = max_of(latencies());
    prop_assert_eq!(metrics.max_latency_us.to_bits(), max.to_bits());
    let mean = latencies().fold(0.0, |sum, l| sum + l) / outcomes.len().max(1) as f64;
    prop_assert_eq!(metrics.mean_latency_us.to_bits(), mean.to_bits());
    let (p50, p99) = (metrics.p50_latency_us, metrics.p99_latency_us);
    prop_assert!(p50 <= p99 && p99 <= max, "p50 {p50} p99 {p99} max {max}");
    let fault_free = devices.iter().all(|device| device.faults == 0);
    let recorded = metrics.latency_hist.count() as usize;
    let (exact, abandoned) = (recorded == outcomes.len(), recorded > outcomes.len());
    prop_assert!(exact || abandoned && !fault_free, "{recorded} latencies");

    let tiles = metrics.tile_requests.len();
    prop_assert_eq!(metrics.tile_utilization.len(), tiles);
    prop_assert_eq!(metrics.tile_peak_queue.len(), tiles);
    let rows = || devices.iter();
    let served_rows: Vec<usize> = rows().flat_map(|d| d.tile_requests.clone()).collect();
    prop_assert_eq!(&served_rows, &metrics.tile_requests);
    let busy_rows: Vec<f64> = rows().flat_map(|d| d.tile_utilization.clone()).collect();
    prop_assert_eq!(&busy_rows, &metrics.tile_utilization);
    let sum = |field: fn(&DeviceMetrics) -> usize| rows().map(field).sum::<usize>();
    prop_assert_eq!(sum(|d| d.switch_count), metrics.switch_count);
    prop_assert_eq!(sum(|d| d.cache.hits), metrics.cache.hits);
    prop_assert_eq!(sum(|d| d.cache.misses), metrics.cache.misses);
    let device_rejects = sum(|d| d.rejects);
    let blamed = device_rejects == rejected.len();
    let unblamed = (pipelined || !fault_free) && device_rejects < rejected.len();
    prop_assert!(blamed || unblamed, "{device_rejects} device rejects");
    for (id, device) in devices.iter().enumerate() {
        let own: Vec<&RequestOutcome> = outcomes.iter().filter(|o| o.device == id).collect();
        let count = |pick: fn(&&&RequestOutcome) -> bool| own.iter().filter(pick).count();
        prop_assert_eq!(device.device, id);
        prop_assert_eq!(device.requests, own.len());
        prop_assert_eq!(device.deadline_misses, count(|o| o.missed_deadline));
        prop_assert_eq!(device.deadline_requests, count(|o| o.deadline_us.is_some()));
        let worst = max_of(own.iter().map(|o| o.latency_us));
        prop_assert_eq!(device.max_latency_us.to_bits(), worst.to_bits());
        let availability = device.availability;
        let available = (0.0..=1.0).contains(&availability);
        prop_assert!(available, "device {id} availability {availability}");
        if device.faults == 0 {
            // Nothing was abandoned or displaced here: each start is an outcome.
            prop_assert_eq!(device.switch_count, count(|o| o.switched));
            let on = |tile| own.iter().filter(|o| o.tile == tile).count();
            let served: Vec<usize> = (0..device.tile_requests.len()).map(on).collect();
            prop_assert_eq!(&device.tile_requests, &served);
            prop_assert_eq!((device.requeues_out, device.lost_work_us), (0, 0.0));
        }
    }
    Ok(served)
}

/// Where an outcome ran.
fn tile_of(outcome: &RequestOutcome) -> (usize, usize) {
    (outcome.device, outcome.tile)
}

/// The largest of `values`, or 0, folded the way the serve folds them.
fn max_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

/// A traced serve's spans, given each submission's position in `outcomes`
/// (see [`audit_parts`]). The trace opens with each submission's spans in
/// turn, from its `Submit` at its arrival. A request's last attempt is what
/// follows its last requeue, whose displaced run's spans precede it: a
/// served request's has exactly one `Run`, on the outcome's device and
/// tile, and its stage spans tile `[arrival, completion]`, summing to the
/// latency; a rejected request's ran nothing.
fn audit_spans(
    requests: &[Request],
    served: &[Option<usize>],
    outcomes: &[RequestOutcome],
    trace: &Trace,
) -> Result<(), TestCaseError> {
    let events = trace.events();
    let own = events.iter().take_while(|e| e.request_id.is_some()).count();
    let submit = |at: &usize| matches!(events[*at].kind, SpanKind::Submit);
    let mut starts: Vec<usize> = (0..own).filter(submit).collect();
    prop_assert_eq!(starts.len(), requests.len());
    prop_assert!(
        starts.first().is_none_or(|&at| at == 0),
        "spans before a Submit"
    );
    starts.push(own);
    for (index, request) in requests.iter().enumerate() {
        let id = request.id;
        let spans = &events[starts[index]..starts[index + 1]];
        let arrival = spans[0].time_us.to_bits() == request.arrival_us.to_bits();
        let theirs = spans.iter().all(|span| span.request_id == Some(id));
        prop_assert!(
            arrival && theirs,
            "submission {index}'s spans are not {id}'s"
        );
        let requeue = spans
            .iter()
            .rposition(|s| matches!(s.kind, SpanKind::Requeue));
        let attempt = &spans[requeue.map_or(0, |at| at + 1)..];
        let run = |span: &&TraceEvent| matches!(span.kind, SpanKind::Run);
        let ran: Vec<_> = attempt
            .iter()
            .filter(run)
            .map(|r| (r.device, r.tile))
            .collect();
        let Some(position) = served[index] else {
            prop_assert!(ran.is_empty(), "rejected {id} ran");
            continue;
        };
        let outcome = &outcomes[position];
        prop_assert_eq!(ran, vec![(outcome.device, Some(outcome.tile))]);
        let stages = attempt.iter().filter(|span| is_stage(&span.kind));
        let staged: f64 = stages.map(|span| span.dur_us).sum();
        let latency = outcome.latency_us;
        let reconciles = (staged - latency).abs() <= 1e-9 * latency.abs().max(1.0);
        prop_assert!(reconciles, "{id}: spans sum to {staged}, latency {latency}");
    }
    Ok(())
}

/// The span kinds that tile a request's `[arrival, completion]`.
fn is_stage(kind: &SpanKind) -> bool {
    use SpanKind::*;
    matches!(
        kind,
        QueueWait | Acquire { .. } | Activation | ContextSwitch | Run
    )
}

/// The stage requests a pipeline serve flattens `pipelines` into, in its
/// intake order: each pipeline's stages in topological order, at the
/// pipeline's arrival, its sinks with its deadline unless its session is
/// best-effort.
pub fn stage_requests(pipelines: &[PipelineRequest], sessions: &[Session]) -> Vec<Request> {
    let mut requests = Vec::new();
    for pipeline in pipelines {
        let session = sessions.iter().find(|s| s.id == pipeline.session);
        let best_effort = session.is_some_and(|s| s.slo == SloClass::BestEffort);
        let sinks = pipeline.sinks();
        for stage in pipeline.validate().unwrap() {
            let (id, spec) = (pipeline.stage_request_id(stage), &pipeline.stages[stage]);
            let request = Request::new(id, spec.kernel.clone(), spec.workload.clone());
            let request = request.at(pipeline.arrival_us);
            let due = pipeline
                .deadline_us
                .filter(|_| !best_effort && sinks.contains(&stage));
            requests.push(match due {
                Some(deadline) => request.with_deadline(deadline),
                None => request,
            });
        }
    }
    requests
}

/// Audits a successful pipeline serve: its stage serve as [`audit`] does,
/// and, per pipeline in submission order, that its outcome mirrors what was
/// submitted; that it failed exactly when a stage was rejected and counts
/// the stages that completed; that a completed pipeline finished with its
/// last stage; that no stage started before a dependency completed; that it
/// committed no earlier than it finished nor than its session's previous
/// commit; and that the class and depth rows count every pipeline and stage.
pub fn audit_pipelines(
    pipelines: &[PipelineRequest],
    sessions: &[Session],
    report: &PipelineReport,
) -> Result<(), TestCaseError> {
    let cluster = &report.cluster;
    let requests = stage_requests(pipelines, sessions);
    let served = audit_parts(&requests, Parts::of(cluster), true)?;
    if let Some(trace) = cluster.trace() {
        audit_spans(&requests, &served, cluster.outcomes(), trace)?;
    }
    prop_assert_eq!(report.pipelines.len(), pipelines.len());
    let mut intake = served.iter().map(|at| at.map(|at| &cluster.outcomes()[at]));
    let mut last_commit: HashMap<u64, f64> = HashMap::new();
    for (pipeline, outcome) in pipelines.iter().zip(&report.pipelines) {
        let id = pipeline.id;
        prop_assert_eq!((outcome.id, outcome.session), (id, pipeline.session));
        prop_assert_eq!(outcome.arrival_us.to_bits(), pipeline.arrival_us.to_bits());
        prop_assert_eq!(
            outcome.deadline_us.map(f64::to_bits),
            pipeline.deadline_us.map(f64::to_bits)
        );
        // Each stage's outcome, `None` for a rejected stage.
        let mut runs = vec![None; pipeline.stages.len()];
        for stage in pipeline.validate().unwrap() {
            runs[stage] = intake.next().unwrap();
        }
        let completed: Vec<&RequestOutcome> = runs.iter().flatten().copied().collect();
        let failed = completed.len() < runs.len();
        prop_assert_eq!(outcome.stages, runs.len());
        prop_assert_eq!(outcome.completed_stages, completed.len());
        prop_assert_eq!(outcome.rejected, failed);
        if !failed {
            let end = max_of(completed.iter().map(|o| o.completion_us));
            prop_assert_eq!(outcome.finish_us, pipeline.arrival_us.max(end));
        }
        for (stage, spec) in pipeline.stages.iter().enumerate() {
            let Some(run) = runs[stage] else { continue };
            for &dep in &spec.deps {
                let after = runs[dep].is_some_and(|dep| run.start_us >= dep.completion_us);
                prop_assert!(
                    after,
                    "{id}: stage {stage} started before stage {dep} ended"
                );
            }
        }
        let previous = last_commit.insert(pipeline.session, outcome.commit_us);
        let in_order = previous.is_none_or(|previous| outcome.commit_us >= previous);
        prop_assert!(in_order, "{id} committed before its predecessor");
        prop_assert!(
            outcome.commit_us >= outcome.finish_us,
            "{id} committed early"
        );
        let missed = !failed && outcome.deadline_us.is_some_and(|d| outcome.commit_us > d);
        prop_assert_eq!(outcome.missed_deadline, missed);
    }
    let failed = report.pipelines.iter().filter(|p| p.rejected).count();
    let classes = report.classes.iter();
    let tallied = classes.fold((0, 0), |(all, no), c| (all + c.pipelines, no + c.rejected));
    prop_assert_eq!(tallied, (pipelines.len(), failed));
    let depths = report.stages.iter();
    let tallied = depths.fold((0, 0), |(ran, moved), s| {
        (ran + s.served, moved + s.transfers)
    });
    prop_assert_eq!(tallied.0, cluster.outcomes().len());
    prop_assert_eq!(tallied.1, report.activation_transfers());
    Ok(())
}

/// Every outcome's outputs are what the DFG reference evaluator computes
/// for its request (ids unique).
pub fn check_outputs(requests: &[Request], report: &ServeReport) -> Result<(), TestCaseError> {
    let request_of: HashMap<u64, &Request> = requests.iter().map(|r| (r.id, r)).collect();
    prop_assert!(request_of.len() == requests.len(), "ids must be unique");
    for outcome in report.outcomes() {
        let request = request_of[&outcome.request_id];
        let dfg = request.kernel.dfg(&LowerOptions::default()).unwrap();
        let expected = evaluate_stream(&dfg, request.workload.records()).unwrap();
        prop_assert!(outcome.outputs() == expected, "{} diverged", request.id);
    }
    Ok(())
}

/// A difference two serves are known to have, stated by the caller of
/// [`assert_serves_identical`].
#[derive(Clone, Copy)]
pub enum Known {
    /// The first serve is a pipeline serve of single stages, which also
    /// counts each batched dispatch as a stage batch.
    StageBatched,
    /// Spans of the kinds this picks out are in one trace only.
    Spans(fn(&SpanKind) -> bool),
    /// Only the first serve was traced.
    TracedFirstOnly,
}

/// Two serves decided and computed the same: every outcome to the bit
/// (outputs included), the rejects, the metrics, the per-device rows,
/// whether each was traced and, when both were, the spans — but for the
/// differences `known` states.
pub fn assert_serves_identical(
    a: &ServeReport,
    b: &ServeReport,
    known: &[Known],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.outcomes().len(), b.outcomes().len());
    for (lhs, rhs) in a.outcomes().iter().zip(b.outcomes()) {
        let times = |o: &RequestOutcome| {
            [o.start_us, o.queued_us, o.completion_us, o.latency_us].map(f64::to_bits)
        };
        let due = |o: &RequestOutcome| (o.deadline_us.map(f64::to_bits), o.missed_deadline);
        prop_assert_eq!((lhs.request_id, &lhs.kernel), (rhs.request_id, &rhs.kernel));
        prop_assert_eq!((tile_of(lhs), lhs.switched), (tile_of(rhs), rhs.switched));
        prop_assert_eq!((times(lhs), due(lhs)), (times(rhs), due(rhs)));
        prop_assert_eq!(lhs.sim(), rhs.sim());
        prop_assert!(
            lhs.outputs() == rhs.outputs(),
            "{}'s outputs",
            lhs.request_id
        );
    }
    prop_assert_eq!(a.rejected(), b.rejected());
    let mut metrics = a.metrics().clone();
    if known.iter().any(|k| matches!(k, Known::StageBatched)) {
        prop_assert_eq!(metrics.batch.stage_batched, metrics.batch.batched_requests);
        metrics.batch.stage_batched = 0;
    }
    prop_assert_eq!(&metrics, b.metrics());
    prop_assert_eq!(a.device_metrics(), b.device_metrics());
    let traced = (a.trace().is_some(), b.trace().is_some());
    if known.iter().any(|k| matches!(k, Known::TracedFirstOnly)) {
        prop_assert_eq!(traced, (true, false));
    } else {
        prop_assert!(traced.0 == traced.1, "one serve lost its trace");
    }
    if let (Some(lhs), Some(rhs)) = (a.trace(), b.trace()) {
        let in_one = |e: &&TraceEvent| known.iter().any(|k| k.picks(&e.kind));
        let kept = |trace: &Trace| -> Vec<TraceEvent> {
            trace
                .events()
                .iter()
                .filter(|e| !in_one(e))
                .cloned()
                .collect()
        };
        prop_assert_eq!(kept(lhs), kept(rhs));
    }
    Ok(())
}

impl Known {
    /// Whether a span of `kind` is in one trace only.
    fn picks(&self, kind: &SpanKind) -> bool {
        matches!(self, Known::Spans(picks) if picks(kind))
    }
}
