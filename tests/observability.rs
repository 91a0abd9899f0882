//! Observability property suite: tracing and profiling must be *lenses*,
//! never *forces*.
//!
//! * With tracing disabled (the default), a runtime or cluster built with
//!   explicit observability knobs serves **bitwise identically** to one
//!   built without them — outcomes, modeled timestamps, rejects and the
//!   full metrics struct (including the new latency/queue-depth
//!   histograms), on the runtime and on the 1-device cluster.
//! * With tracing *enabled*, the serve is still bitwise identical; the
//!   trace rides alongside. Per request, the recorded lifecycle spans
//!   (queue-wait → acquire → context-switch → run) tile the interval
//!   `[arrival, completion]` exactly, so their durations sum to the
//!   reported latency.
//! * The log-bucketed histograms track the exact selection-path
//!   percentiles to within one bucket width, and both exporters produce
//!   well-formed output (the Chrome trace validator accepts the Perfetto
//!   JSON; the Prometheus text carries the histogram series).
//! * The same lens discipline extends to the continuous-telemetry tier:
//!   windowed time-series and SLO burn-rate tracking change no outcome and
//!   no trace byte (beyond the burn/clear instants appended after the last
//!   serve event), and [`explain`] decodes every served request's spans
//!   back into an additive latency breakdown that reconciles with its
//!   modeled latency — including through fault displacement and pipeline
//!   activations.

use proptest::prelude::*;
use rand::prelude::*;

use tm_overlay::runtime::obs::{
    perfetto_trace_json, perfetto_trace_json_with_telemetry, prometheus_text,
    prometheus_text_labeled, validate_chrome_trace,
};
use tm_overlay::runtime::SpanKind;
use tm_overlay::{
    explain, BatchConfig, Cluster, DispatchPolicy, FaultPlan, FuVariant, KernelSpec, LogHistogram,
    PipelineRequest, PipelineStage, ReplicationConfig, Request, RoutePolicy, Runtime, ServeReport,
    Session, SloClass, SloConfig, SloObjective, TelemetryConfig, Trace, TraceConfig, Workload,
};

const SAXPY: &str = "kernel saxpy(a, x, y) { out r = a * x + y; }";
const POLY: &str = "kernel poly(x) { out y = (x * x + 3) * x; }";
const GRAD: &str = "kernel grad(a, b, c, d, e) { out g = a * b + c * d + e; }";

/// Same shape as the equivalence suite's generator: non-decreasing arrivals
/// with bursts, a small workload pool (the sim memo engages), and coin-flip
/// deadlines.
fn random_trace(seed: u64, count: usize, deadline_scale_us: f64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = [
        (KernelSpec::from_source("saxpy", SAXPY), 3usize),
        (KernelSpec::from_source("poly", POLY), 1),
        (KernelSpec::from_source("grad", GRAD), 5),
    ];
    let mut clock_us = 0.0;
    (0..count)
        .map(|i| {
            if rng.gen_range(0..3u32) > 0 {
                clock_us += rng.gen_range(0..=20u64) as f64 * 0.1;
            }
            let (spec, inputs) = &specs[rng.gen_range(0..specs.len())];
            let blocks = rng.gen_range(1..=3usize);
            let workload = Workload::random(*inputs, blocks, seed ^ rng.gen_range(0..4u64));
            let mut request = Request::new(i as u64, spec.clone(), workload).at(clock_us);
            if rng.gen_bool(0.5) {
                let budget = rng.gen_range(1..=30u64) as f64 * 0.1 * deadline_scale_us;
                request = request.with_deadline(clock_us + budget);
            }
            request
        })
        .collect()
}

/// A Standard-class objective with a tight miss-rate target and a short
/// fast/slow burn pair — deadline-heavy traces can fire it, quiet ones
/// cannot.
fn slo_objectives() -> SloConfig {
    SloConfig::disabled()
        .with_objective(SloObjective::new(SloClass::Standard, 0.05).with_windows(1, 2))
}

/// Every observable of the two serves must match exactly — including the
/// histogram fields inside the metrics struct, compared bitwise through
/// `PartialEq`.
fn assert_reports_identical(
    observed: &ServeReport,
    baseline: &ServeReport,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(observed.outcomes().len(), baseline.outcomes().len());
    for (lhs, rhs) in observed.outcomes().iter().zip(baseline.outcomes()) {
        prop_assert_eq!(lhs.request_id, rhs.request_id);
        prop_assert_eq!(lhs.tile, rhs.tile);
        prop_assert_eq!(lhs.start_us, rhs.start_us);
        prop_assert_eq!(lhs.completion_us, rhs.completion_us);
        prop_assert_eq!(lhs.latency_us, rhs.latency_us);
        prop_assert_eq!(lhs.missed_deadline, rhs.missed_deadline);
        prop_assert_eq!(&lhs.outputs(), &rhs.outputs());
    }
    prop_assert_eq!(observed.rejected(), baseline.rejected());
    prop_assert_eq!(observed.metrics(), baseline.metrics());
    Ok(())
}

/// Sums the lifecycle span durations per request and checks they reconcile
/// with the modeled latency: the spans tile `[arrival, completion]`.
fn assert_spans_reconcile(
    trace: &Trace,
    request_id: u64,
    latency_us: f64,
) -> Result<(), TestCaseError> {
    let spans = trace.spans_for(request_id);
    let mut staged = 0.0;
    let mut runs = 0usize;
    for span in &spans {
        match span.kind {
            SpanKind::QueueWait
            | SpanKind::Acquire { .. }
            | SpanKind::Activation
            | SpanKind::ContextSwitch
            | SpanKind::Run => staged += span.dur_us,
            _ => continue,
        }
        if matches!(span.kind, SpanKind::Run) {
            runs += 1;
        }
    }
    prop_assert!(
        runs == 1,
        "request {} must have exactly one Run span",
        request_id
    );
    let tolerance = 1e-9 * latency_us.abs().max(1.0);
    prop_assert!(
        (staged - latency_us).abs() <= tolerance,
        "request {}: stage spans sum to {} but modeled latency is {}",
        request_id,
        staged,
        latency_us
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tracing and profiling — off *or on* — never change a serve: the
    /// default-built runtime, the explicitly-disabled one and the
    /// fully-instrumented one agree bitwise; the
    /// instrumented 1-device cluster reproduces the runtime's totals.
    #[test]
    fn observability_is_functionally_transparent(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0usize..4,
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let build = || Runtime::new(FuVariant::V4, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit);
        let baseline = build().serve(requests.clone()).unwrap();
        let disabled = build()
            .with_tracing(TraceConfig::disabled())
            .with_profiling(false)
            .serve(requests.clone())
            .unwrap();
        let instrumented = build()
            .with_tracing(TraceConfig::enabled())
            .with_profiling(true)
            .serve(requests.clone())
            .unwrap();
        prop_assert!(baseline.trace().is_none());
        prop_assert!(disabled.trace().is_none());
        prop_assert!(instrumented.trace().is_some());
        prop_assert!(instrumented.profile().is_some());
        assert_reports_identical(&disabled, &baseline)?;
        assert_reports_identical(&instrumented, &baseline)?;
    }

    /// Per-request span audit on the runtime: queue-wait, acquire,
    /// context-switch and run durations sum to the modeled latency for
    /// every served request, under every policy.
    #[test]
    fn runtime_spans_reconcile_with_modeled_latency(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0usize..4,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let report = Runtime::new(FuVariant::V4, tiles)
            .unwrap()
            .with_policy(policy)
            .with_tracing(TraceConfig::enabled())
            .serve(requests)
            .unwrap();
        let trace = report.trace().expect("tracing was enabled");
        for outcome in report.outcomes() {
            assert_spans_reconcile(trace, outcome.request_id, outcome.latency_us)?;
        }
        prop_assert_eq!(trace.dropped(), 0);
    }

    /// The same audit on a multi-device cluster with the full control plane
    /// on — routing, image transfers, batching and replication all leave
    /// span timelines that still tile `[arrival, completion]` exactly.
    #[test]
    fn cluster_spans_reconcile_with_modeled_latency(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..24, 2usize..5, 1usize..3),
        policy_pick in 0usize..4,
        route_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let mut cluster = Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_policy(policy)
            .with_route_policy(route)
            .with_batching(BatchConfig::with_max_batch(4))
            .with_replication(ReplicationConfig::new(2, 3.0, 20.0))
            .with_tracing(TraceConfig::enabled());
        let report = cluster.serve(requests).unwrap();
        let trace = report.trace().expect("tracing was enabled");
        for outcome in report.outcomes() {
            assert_spans_reconcile(trace, outcome.request_id, outcome.latency_us)?;
        }
    }

    /// Histogram parity: the log-bucketed percentile lands within one
    /// bucket width of the exact selection-path percentile, and splitting
    /// the samples across shards then merging changes nothing.
    #[test]
    fn histogram_percentiles_track_exact_within_one_bucket(
        seed in any::<u64>(),
        count in 1usize..200,
        scale_pick in 0usize..3,
        shards in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = [1.0, 1e3, 1e6][scale_pick];
        let samples: Vec<f64> = (0..count)
            .map(|_| (rng.gen_range(0..=10_000u64) as f64 / 10_000.0).powi(3) * scale)
            .collect();
        let mut whole = LogHistogram::new();
        let mut parts = vec![LogHistogram::new(); shards];
        for (i, &sample) in samples.iter().enumerate() {
            whole.record(sample);
            parts[i % shards].record(sample);
        }
        let merged = LogHistogram::merged(&parts.iter().collect::<Vec<_>>());
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.5f64, 0.99] {
            let rank = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
            let exact = lo + (hi - lo) * rank.fract();
            let approx = whole.percentile(p);
            // One bucket width at the larger of the two values bounds both
            // representative-vs-sample errors.
            let slack = LogHistogram::bucket_width_at(exact.max(approx));
            prop_assert!(
                (approx - exact).abs() <= slack,
                "p{}: hist {} vs exact {} (slack {})",
                p * 100.0, approx, exact, slack
            );
            prop_assert_eq!(merged.percentile(p), approx);
            // Merging a single part is the 1-device cluster path — bitwise.
            prop_assert_eq!(LogHistogram::merged(&[&whole]).percentile(p), approx);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(LogHistogram::merged(&[&whole]).sum(), whole.sum());
        // Sharded sums accumulate in a different order; only bucket counts
        // (and so percentiles) are order-invariant, the sum is approximate.
        prop_assert!((merged.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs().max(1.0));
    }

    /// The continuous-telemetry tier is a lens too: windowed time-series and
    /// SLO burn tracking change no outcome, metric or reject — and no trace
    /// byte beyond the burn/clear instants the tracker appends after the
    /// serve's own events.
    #[test]
    fn telemetry_and_slo_are_functionally_transparent(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0usize..4,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let build = || Runtime::new(FuVariant::V4, tiles)
            .unwrap()
            .with_policy(policy)
            .with_tracing(TraceConfig::enabled());
        let baseline = build().serve(requests.clone()).unwrap();
        let telemetered = build()
            .with_telemetry(TelemetryConfig::windowed(2.0))
            .serve(requests.clone())
            .unwrap();
        let tracked = build()
            .with_telemetry(TelemetryConfig::windowed(2.0))
            .with_slo(slo_objectives())
            .serve(requests)
            .unwrap();
        prop_assert!(baseline.telemetry().is_none());
        prop_assert!(baseline.slo().is_none());
        prop_assert!(telemetered.telemetry().is_some());
        prop_assert!(telemetered.slo().is_none());
        prop_assert!(tracked.slo().is_some());
        assert_reports_identical(&telemetered, &baseline)?;
        assert_reports_identical(&tracked, &baseline)?;
        // Telemetry alone adds no trace event; the SLO tracker appends only
        // burn/clear instants, strictly after the serve's own events.
        prop_assert_eq!(telemetered.trace(), baseline.trace());
        let base_events = baseline.trace().unwrap().events();
        let slo_events = tracked.trace().unwrap().events();
        prop_assert!(slo_events.len() >= base_events.len());
        prop_assert_eq!(&slo_events[..base_events.len()], base_events);
        for event in &slo_events[base_events.len()..] {
            prop_assert!(matches!(
                event.kind,
                SpanKind::SloBurn { .. } | SpanKind::SloClear { .. }
            ));
        }
        // The series covers the whole serve: dense windows from 0 through
        // the makespan, and every served request commits into exactly one.
        let series = telemetered.telemetry().unwrap();
        prop_assert_eq!(series.total_served(), baseline.outcomes().len() as u64);
        prop_assert!(!series.windows.is_empty());
        prop_assert!(series.windows.last().unwrap().end_us >= series.makespan_us);
        for window in &series.windows {
            prop_assert!(window.utilization >= 0.0 && window.utilization <= 1.0 + 1e-12);
        }
    }

    /// [`explain`] decodes the trace back into one additive row per served
    /// request, reconciling with the modeled latency under the full control
    /// plane (routing, image transfers, batching, replication).
    #[test]
    fn attribution_reconciles_for_every_request(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..24, 2usize..5, 1usize..3),
        route_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let route = RoutePolicy::ALL[route_pick];
        let mut cluster = Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_route_policy(route)
            .with_batching(BatchConfig::with_max_batch(4))
            .with_replication(ReplicationConfig::new(2, 3.0, 20.0))
            .with_tracing(TraceConfig::enabled());
        let report = cluster.serve(requests).unwrap();
        let attribution = explain(report.trace().expect("tracing was enabled"));
        prop_assert_eq!(attribution.rows().len(), report.outcomes().len());
        for outcome in report.outcomes() {
            let row = attribution
                .for_request(outcome.request_id)
                .expect("every served request has a row");
            prop_assert_eq!(row.device, outcome.device);
            prop_assert_eq!(row.completion_us, outcome.completion_us);
            prop_assert_eq!(row.requeues, 0);
            prop_assert!(
                (row.latency_us - outcome.latency_us).abs()
                    <= 1e-9 * outcome.latency_us.abs().max(1.0)
            );
            prop_assert!(
                row.reconciles(),
                "request {}: residual {}",
                outcome.request_id,
                row.residual_us()
            );
        }
    }
}

#[test]
fn histogram_edge_cases_match_the_exact_paths() {
    // Empty: every statistic is 0, matching the exact selection paths.
    let empty = LogHistogram::new();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.percentile(0.5), 0.0);
    assert_eq!(empty.percentile(0.99), 0.0);
    assert_eq!(empty.min(), 0.0);
    assert_eq!(empty.max(), 0.0);

    // Single sample: every percentile is that sample's bucket, within one
    // bucket width of the sample itself.
    let mut single = LogHistogram::new();
    single.record(7.25);
    for p in [0.0, 0.5, 0.99, 1.0] {
        assert!((single.percentile(p) - 7.25).abs() <= LogHistogram::bucket_width_at(7.25));
    }

    // All-equal samples: p50 and p99 agree exactly (same bucket).
    let mut equal = LogHistogram::new();
    for _ in 0..100 {
        equal.record(3.0);
    }
    assert_eq!(equal.percentile(0.5), equal.percentile(0.99));
    assert!((equal.percentile(0.5) - 3.0).abs() <= LogHistogram::bucket_width_at(3.0));

    // Zeros are first-class: a zero-only histogram reports 0 everywhere.
    let mut zeros = LogHistogram::new();
    zeros.record(0.0);
    zeros.record(0.0);
    assert_eq!(zeros.percentile(0.99), 0.0);
    assert_eq!(zeros.max(), 0.0);
}

#[test]
fn exporters_emit_wellformed_output() {
    let requests = random_trace(0x0b5e7ab1e, 24, 3.0);
    let mut cluster = Cluster::new(FuVariant::V4, 2, 2)
        .unwrap()
        .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        .with_batching(BatchConfig::with_max_batch(4))
        .with_replication(ReplicationConfig::new(2, 3.0, 20.0))
        .with_tracing(TraceConfig::enabled())
        .with_profiling(true);
    let report = cluster.serve(requests).unwrap();
    let trace = report.trace().expect("tracing was enabled");

    // The Perfetto export passes the structural validator: parseable JSON,
    // spans non-negative and disjoint-or-nested per track, and it carries
    // one track per (device, tile) that did work plus the device lanes.
    let json = perfetto_trace_json(trace, report.profile(), "observability test");
    let validation = validate_chrome_trace(&json).expect("trace must validate");
    assert!(validation.events > 0);
    assert!(validation.complete_spans > 0);
    assert!(validation.tracks >= 2);

    // The Prometheus exposition carries the counters and both histogram
    // series with their sum/count pairs.
    let text = prometheus_text(report.metrics());
    for needle in [
        "# TYPE tm_requests_total counter",
        "# TYPE tm_request_latency_microseconds histogram",
        "tm_request_latency_microseconds_bucket{le=",
        "tm_request_latency_microseconds_count",
        "# TYPE tm_queue_depth_samples histogram",
        "tm_queue_depth_samples_sum",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    assert!(text.contains(&format!("tm_requests_total {}", report.metrics().requests)));
}

/// Attribution through fault displacement: killed-then-relocated requests
/// report their discarded work in `displaced_us` and their displacements in
/// `requeues`, the surviving attempt still reconciles additively, the
/// windowed series keeps counting through the fault, and the fault-tier
/// spans survive the Perfetto export and its validator.
#[test]
fn fault_displacement_is_attributed_and_exports() {
    // Bursts of 8 on 6 tiles: queues form everywhere, so the kill always
    // has queued and in-flight work to displace (the fault-suite idiom).
    let specs = [
        (KernelSpec::from_source("saxpy", SAXPY), 3usize),
        (KernelSpec::from_source("poly", POLY), 1),
        (KernelSpec::from_source("grad", GRAD), 5),
    ];
    let requests: Vec<Request> = (0..48)
        .map(|i| {
            let (spec, inputs) = &specs[i % specs.len()];
            let workload = Workload::random(*inputs, 1 + i % 3, 0xD15 ^ (i as u64 % 4));
            let arrival_us = (i / 8) as f64 * 0.4;
            Request::new(i as u64, spec.clone(), workload)
                .at(arrival_us)
                .with_deadline(arrival_us + 2.0)
        })
        .collect();
    let build = || {
        Cluster::new(FuVariant::V4, 3, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded)
    };
    let baseline = build().serve(requests.clone()).unwrap();
    let makespan_us = baseline.metrics().makespan_us;
    let kill_at = makespan_us * 0.3;
    let mut faulty = build()
        .with_fault_plan(FaultPlan::new().kill(kill_at, 0).revive(kill_at * 2.0, 0))
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(makespan_us / 16.0))
        .with_slo(slo_objectives());
    let report = faulty.serve(requests).unwrap();
    assert!(report.requeues() > 0, "the kill must displace work");

    let attribution = explain(report.trace().expect("tracing was enabled"));
    let mut requeued = 0usize;
    for outcome in report.outcomes() {
        let row = attribution
            .for_request(outcome.request_id)
            .expect("every served request has a row");
        assert!(
            row.reconciles(),
            "request {}: residual {}",
            outcome.request_id,
            row.residual_us()
        );
        requeued += usize::from(row.requeues > 0);
    }
    assert!(requeued > 0, "displaced requests must carry requeue counts");
    assert!(
        attribution.rows().iter().any(|row| row.displaced_us > 0.0),
        "a started-then-killed request must report discarded work"
    );

    // The series keeps counting through the fault; superseded attempts of
    // displaced requests stay counted, exactly like the latency histogram
    // the metrics already expose.
    let series = report.telemetry().expect("telemetry was enabled");
    assert!(series.total_served() >= report.outcomes().len() as u64);
    assert!(report.slo().is_some());

    // The fault-tier spans render in Perfetto and survive the validator,
    // telemetry section included.
    let json = perfetto_trace_json_with_telemetry(
        report.trace().unwrap(),
        None,
        report.telemetry(),
        report.slo(),
        "fault observability",
    );
    let validation = validate_chrome_trace(&json).expect("trace must validate");
    assert!(validation.events > 0);
    assert!(json.contains("\"telemetry\""));
    for needle in ["device-down", "device-up", "requeue"] {
        assert!(json.contains(needle), "missing {needle:?} in the export");
    }
}

/// The session tier's spans — stage readiness, inter-device activation
/// transfers, SLO admission, and the per-stage activation charge — render
/// in the Perfetto export, survive the validator, and keep the additive
/// reconciliation intact (the activation span is part of the identity).
#[test]
fn pipeline_spans_export_and_reconcile() {
    let specs = [
        (KernelSpec::from_source("saxpy", SAXPY), 3usize),
        (KernelSpec::from_source("poly", POLY), 1),
        (KernelSpec::from_source("grad", GRAD), 5),
    ];
    let pipelines: Vec<PipelineRequest> = (0..12u64)
        .map(|i| {
            let mut pipeline = PipelineRequest::new(i + 1, i % 3).at(i as f64 * 0.3);
            for stage in 0..3usize {
                let (spec, inputs) = &specs[(i as usize + stage) % specs.len()];
                let workload = Workload::random(*inputs, 2, 0xBEEF ^ i ^ stage as u64);
                let mut built = PipelineStage::new(spec.clone(), workload).emits(1 << 14);
                if stage > 0 {
                    built = built.after(&[stage - 1]);
                }
                pipeline = pipeline.stage(built);
            }
            pipeline
        })
        .collect();
    let sessions = [
        Session::new(0).with_slo(SloClass::Latency),
        Session::new(1),
        Session::new(2).with_slo(SloClass::BestEffort),
    ];
    // Affinity-blind kernel-hash routing pins each stage to its kernel's
    // home device, so consecutive stages hop devices and pay activations.
    let mut cluster = Cluster::new(FuVariant::V4, 2, 2)
        .unwrap()
        .with_route_policy(RoutePolicy::KernelHash)
        .with_stage_affinity(false)
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(1.0))
        .with_slo(slo_objectives());
    let report = cluster.serve_pipelines(pipelines, &sessions).unwrap();
    assert!(
        report.activation_transfers() > 0,
        "3-stage chains on 2 devices must pay inter-device activations"
    );
    let trace = report.cluster.trace().expect("tracing was enabled");
    for outcome in report.cluster.outcomes() {
        assert_spans_reconcile(trace, outcome.request_id, outcome.latency_us).unwrap();
    }
    // The attribution engine surfaces the activation column.
    let attribution = explain(trace);
    assert!(
        attribution.rows().iter().any(|row| row.activation_us > 0.0),
        "some stage must charge an activation transfer on its start path"
    );

    let json = perfetto_trace_json_with_telemetry(
        trace,
        None,
        report.cluster.telemetry(),
        report.cluster.slo(),
        "pipeline observability",
    );
    let validation = validate_chrome_trace(&json).expect("trace must validate");
    assert!(validation.events > 0);
    assert!(json.contains("\"telemetry\""));
    for needle in ["stage-ready", "stage-transfer", "slo-admit", "activation"] {
        assert!(json.contains(needle), "missing {needle:?} in the export");
    }
}

/// The labeled Prometheus exposition is the plain one plus per-device,
/// per-class and SLO burn series.
#[test]
fn labeled_prometheus_exposition_carries_device_and_class_series() {
    let requests = random_trace(0x1abe1ed, 24, 3.0);
    let mut cluster = Cluster::new(FuVariant::V4, 2, 2)
        .unwrap()
        .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(2.0))
        .with_slo(slo_objectives());
    let report = cluster.serve(requests).unwrap();
    let plain = prometheus_text(report.metrics());
    let labeled =
        prometheus_text_labeled(report.metrics(), report.device_metrics(), &[], report.slo());
    assert!(labeled.starts_with(&plain), "the plain text is a prefix");
    for needle in [
        "tm_device_requests_total{device=\"0\"}",
        "tm_device_requests_total{device=\"1\"}",
        "tm_device_utilization{device=\"0\"}",
        "tm_device_availability{device=\"1\"}",
        "tm_slo_budget_consumed{slo_class=\"standard\"}",
        "tm_slo_peak_fast_burn{slo_class=\"standard\"}",
    ] {
        assert!(
            labeled.contains(needle),
            "missing {needle:?} in:\n{labeled}"
        );
    }
    // With no classes passed, no class series appear.
    assert!(!labeled.contains("tm_class_pipelines_total"));
}
