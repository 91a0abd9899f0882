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

mod support;

use proptest::prelude::*;
use rand::prelude::*;

use support::{
    assert_serves_identical, cluster, dsl_kernels, pressure_trace, random_plan, random_trace,
    Audited, Known,
};
use tm_overlay::runtime::obs::{
    perfetto_trace_json, perfetto_trace_json_with_telemetry, prometheus_text,
    prometheus_text_labeled, validate_chrome_trace,
};
use tm_overlay::runtime::SpanKind;
use tm_overlay::{
    explain, BatchConfig, Cluster, DispatchPolicy, FaultPlan, FuVariant, LogHistogram,
    PipelineRequest, PipelineStage, ReplicationConfig, Request, RoutePolicy, Session, SloClass,
    SloConfig, SloObjective, TelemetryConfig, TraceConfig, Workload,
};

/// The burn and clear instants an SLO tracker appends to a trace.
fn is_slo_alert(kind: &SpanKind) -> bool {
    matches!(kind, SpanKind::SloBurn { .. } | SpanKind::SloClear { .. })
}

/// A Standard-class objective with a tight miss-rate target and a short
/// fast/slow burn pair — deadline-heavy traces can fire it, quiet ones
/// cannot.
fn slo_objectives() -> SloConfig {
    SloConfig::disabled()
        .with_objective(SloObjective::new(SloClass::Standard, 0.05).with_windows(1, 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Observability — off *or on* — never changes a serve: the
    /// default-built cluster, the explicitly-disabled one and the one with
    /// every family on (tracing, profiling, telemetry and SLO tracking)
    /// agree bitwise, on one device and on a fleet of two to four under
    /// every routing policy, with or without a fault plan and replication —
    /// so the fleet's route marks, requeues, faults and replica pushes and
    /// demotions change nothing either.
    #[test]
    fn observability_is_functionally_transparent(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        limit_pick in 0usize..3,
        (devices, route_pick) in (1usize..5, 0usize..3),
        (faulty, replicated) in (any::<bool>(), any::<bool>()),
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let horizon_us = requests.last().map_or(1.0, |request| request.arrival_us + 1.0);
        let build = || {
            let mut cluster = Cluster::new(FuVariant::V4, devices, tiles)
                .unwrap()
                .with_policy(policy)
                .with_route_policy(RoutePolicy::ALL[route_pick])
                .with_admission_limit(limit);
            if faulty {
                cluster = cluster.with_fault_plan(random_plan(seed, devices, horizon_us));
            }
            if replicated {
                cluster = cluster.with_replication(ReplicationConfig::new(2, 3.0, 20.0));
            }
            cluster
        };
        let baseline = build().serve_audited(&requests)?;
        let disabled = build()
            .with_tracing(TraceConfig::disabled())
            .with_profiling(false)
            .serve_audited(&requests)?;
        let instrumented = build()
            .with_tracing(TraceConfig::enabled())
            .with_profiling(true)
            .with_telemetry(TelemetryConfig::windowed(2.0))
            .with_slo(slo_objectives())
            .serve_audited(&requests)?;
        prop_assert!(baseline.trace().is_none());
        prop_assert!(disabled.trace().is_none());
        prop_assert!(instrumented.trace().is_some());
        prop_assert!(instrumented.profile().is_some());
        prop_assert!(instrumented.telemetry().is_some());
        prop_assert!(instrumented.slo().is_some());
        assert_serves_identical(&disabled, &baseline, &[])?;
        assert_serves_identical(&instrumented, &baseline, &[Known::TracedFirstOnly])?;
    }

    /// Per-request span audit on the runtime: queue-wait, acquire,
    /// context-switch and run durations sum to the modeled latency for
    /// every served request, under every policy.
    #[test]
    fn runtime_spans_reconcile_with_modeled_latency(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let report = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_tracing(TraceConfig::enabled())
            .serve_audited(&requests)?;
        prop_assert_eq!(report.trace().expect("tracing was enabled").dropped(), 0);
    }

    /// The same audit on a multi-device cluster with the full control plane
    /// on — routing, image transfers, batching and replication all leave
    /// span timelines that still tile `[arrival, completion]` exactly.
    #[test]
    fn cluster_spans_reconcile_with_modeled_latency(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..24, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
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
        let report = cluster.serve_audited(&requests)?;
        prop_assert!(report.trace().is_some(), "tracing was enabled");
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
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let build = || Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_tracing(TraceConfig::enabled());
        let baseline = build().serve_audited(&requests)?;
        let telemetered = build()
            .with_telemetry(TelemetryConfig::windowed(2.0))
            .serve_audited(&requests)?;
        let tracked = build()
            .with_telemetry(TelemetryConfig::windowed(2.0))
            .with_slo(slo_objectives())
            .serve_audited(&requests)?;
        prop_assert!(baseline.telemetry().is_none());
        prop_assert!(baseline.slo().is_none());
        prop_assert!(telemetered.telemetry().is_some());
        prop_assert!(telemetered.slo().is_none());
        prop_assert!(tracked.slo().is_some());
        // Telemetry alone adds no trace event; the SLO tracker appends only
        // burn/clear instants, strictly after the serve's own events.
        assert_serves_identical(&telemetered, &baseline, &[])?;
        assert_serves_identical(&tracked, &baseline, &[Known::Spans(is_slo_alert)])?;
        let base_events = baseline.trace().unwrap().events();
        let slo_events = tracked.trace().unwrap().events();
        prop_assert!(slo_events.len() >= base_events.len());
        prop_assert_eq!(&slo_events[..base_events.len()], base_events);
        for event in &slo_events[base_events.len()..] {
            prop_assert!(is_slo_alert(&event.kind));
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
        let mut cluster = cluster(devices, tiles, route)
            .with_batching(BatchConfig::with_max_batch(4))
            .with_replication(ReplicationConfig::new(2, 3.0, 20.0))
            .with_tracing(TraceConfig::enabled());
        let report = cluster.serve_audited(&requests)?;
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
    let mut cluster = cluster(2, 2, RoutePolicy::PowerOfTwoChoices)
        .with_batching(BatchConfig::with_max_batch(4))
        .with_replication(ReplicationConfig::new(2, 3.0, 20.0))
        .with_tracing(TraceConfig::enabled())
        .with_profiling(true);
    let report = cluster.serve_audited(&requests).unwrap();
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

/// A traced serve of 20 000 requests — more spans than the 65 536 the
/// trace once held before dropping the oldest — keeps every span: nothing
/// is dropped, [`explain`] has a row for every outcome, and every outcome's
/// spans tile its latency.
#[test]
fn a_long_traced_serve_keeps_every_span() {
    let requests = random_trace(0x10c5, 20_000, 3.0);
    let report = Cluster::new(FuVariant::V4, 1, 4)
        .unwrap()
        .with_tracing(TraceConfig::enabled())
        .serve_audited(&requests)
        .unwrap();
    let trace = report.trace().expect("tracing was enabled");
    assert!(trace.events().len() > 65_536);
    assert_eq!(trace.dropped(), 0);
    assert_eq!(explain(trace).rows().len(), report.outcomes().len());
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
    let requests: Vec<Request> = pressure_trace(48, 0.4, 0xD15)
        .into_iter()
        .map(|request| {
            let deadline_us = request.arrival_us + 2.0;
            request.with_deadline(deadline_us)
        })
        .collect();
    let build = || cluster(3, 2, RoutePolicy::LeastLoaded);
    let baseline = build().serve_audited(&requests).unwrap();
    let makespan_us = baseline.metrics().makespan_us;
    let kill_at = makespan_us * 0.3;
    let mut faulty = build()
        .with_fault_plan(FaultPlan::new().kill(kill_at, 0).revive(kill_at * 2.0, 0))
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(makespan_us / 16.0))
        .with_slo(slo_objectives());
    let report = faulty.serve_audited(&requests).unwrap();
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
    let specs = dsl_kernels();
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
    // Draining device 0 at t = 1 us leaves the stages its early producers
    // fed to run on device 1, so they pay inter-device activations.
    let mut cluster = cluster(2, 2, RoutePolicy::KernelHash)
        .with_fault_plan(FaultPlan::new().drain(1.0, 0))
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(1.0))
        .with_slo(slo_objectives());
    let report = cluster
        .serve_pipelines_audited(&pipelines, &sessions)
        .unwrap();
    assert!(
        report.activation_transfers() > 0,
        "3-stage chains on 2 devices must pay inter-device activations"
    );
    let trace = report.cluster.trace().expect("tracing was enabled");
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
    let mut cluster = cluster(2, 2, RoutePolicy::PowerOfTwoChoices)
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(2.0))
        .with_slo(slo_objectives());
    let report = cluster.serve_audited(&requests).unwrap();
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
