//! Multi-tenant online serving demo: bursty mixed-kernel traffic over the
//! paper's benchmark suite, streamed into a pool of write-back overlay tiles.
//!
//! Nine acts:
//!
//! 1. **Context switches** — the same bursty 6-tenant trace is served with
//!    kernel-affinity and round-robin dispatch, showing the ~0.25 µs
//!    instruction-reload context switch of the write-back tiles being spent
//!    well or badly.
//! 2. **Deadlines under overload** — one tenant becomes latency-critical
//!    (tight per-request deadlines) while the others flood a smaller pool.
//!    FIFO affinity strands the urgent requests behind the batch backlog;
//!    EDF and slack-aware dispatch reorder the tile queues and miss strictly
//!    fewer deadlines on the *same* trace.
//! 3. **Admission control** — the same overload with a bounded waiting
//!    queue: excess requests are rejected at arrival instead of growing the
//!    queues without bound.
//! 4. **Multi-device sharding** — the act-2 overload trace on a 1-device
//!    cluster (identical to the act-2 runtime, by construction) vs a
//!    4-device cluster: capacity quadruples and the deadline misses drop,
//!    while kernel-hash vs least-loaded routing trades context switches
//!    against balance (and pays inter-device kernel transfers to spread).
//! 5. **The control plane** — the act-4 overloads rerun with same-kernel
//!    batching and rate-driven replication on: the batcher collapses the
//!    1-device cluster's queue-drain kernel thrash (switches avoided are
//!    printed next to the act-4 switch counts), and on the 4-device
//!    least-loaded cluster the replicator pushes hot kernel images ahead
//!    of demand.
//! 6. **Observability** — act 5's controlled cluster rerun with request-span
//!    tracing on: the serve is bit-identical (tracing is transparent), a
//!    Perfetto/Chrome-loadable trace lands in `target/serving_trace.json`,
//!    and the
//!    worst-p99 tenant's latency is broken down per lifecycle stage from its
//!    own spans.
//! 7. **Fault tolerance** — scenario-generated traffic (diurnal curve, a
//!    flash crowd, tenant churn) is served through a scripted fault plan:
//!    one device is killed mid-serve and later revived cold, another is
//!    drained gracefully and rejoins warm. Displaced work requeues onto the
//!    survivors, nothing is lost, and the revived device re-acquires its
//!    kernels over the link and serves again.
//! 8. **Sessions & pipelines** — tenants submit three-stage kernel *chains*
//!    under mixed SLO classes (latency / standard / best effort): stages
//!    release as their inputs complete, activations are priced when
//!    consecutive stages cross devices, pipelines commit in submission
//!    order per session, and a mid-serve kill requeues resident stages
//!    without re-running finished upstream work — with the latency tier
//!    holding its deadlines.
//! 9. **Continuous telemetry** — act 5's controlled cluster rerun with the
//!    windowed time-series, an SLO burn-rate objective, and per-request
//!    latency attribution on: the serve stays bit-identical, the burst
//!    pattern shows up window by window (throughput, miss rate, queue
//!    depth, utilization), the error-budget burn is tracked against the
//!    objective, the slowest requests are broken down additively
//!    (queue/acquire/switch/run, reconciling with their reported
//!    latencies), and the combined trace + telemetry counters land in a
//!    Perfetto-loadable artifact.
//!
//! Every outcome of every serve is checked against the DFG reference
//! evaluator.
//!
//! Run with: `cargo run --example serving`

use tm_overlay::dfg::evaluate_stream;
use tm_overlay::frontend::LowerOptions;
use tm_overlay::runtime::obs::{
    perfetto_trace_json, perfetto_trace_json_with_telemetry, validate_chrome_trace,
};
use tm_overlay::runtime::{RequestOutcome, SpanKind};
use tm_overlay::{
    explain, BatchConfig, Benchmark, Cluster, ClusterReport, DispatchPolicy, FaultPlan, FlashCrowd,
    FuVariant, KernelSpec, PipelineRequest, PipelineStage, ReplicationConfig, Request, RoutePolicy,
    Runtime, Scenario, ScenarioConfig, ServeReport, Session, SloClass, SloConfig, SloObjective,
    TelemetryConfig, TraceConfig, Workload,
};

/// The tenants and their kernels: one benchmark each, with different request
/// sizes so the tile queues stay uneven.
const TENANTS: [(Benchmark, usize); 6] = [
    (Benchmark::Gradient, 24),
    (Benchmark::Chebyshev, 16),
    (Benchmark::Mibench, 12),
    (Benchmark::Qspline, 20),
    (Benchmark::Poly5, 8),
    (Benchmark::Sgfilter, 16),
];

/// Index (into [`TENANTS`]) of the latency-critical tenant in act 2.
const URGENT_TENANT: usize = 1;

/// How the bursts are shaped.
struct TraceShape {
    bursts: usize,
    /// Interleaved rounds per burst (one request per active tenant each).
    volley: usize,
    /// Gap between rounds within a burst, microseconds.
    round_spacing_us: f64,
    /// Quiet gap between bursts, microseconds.
    burst_gap_us: f64,
    /// Per-request deadline budget for the urgent tenant, microseconds
    /// (`None` leaves every request deadline-free).
    urgent_budget_us: Option<f64>,
}

/// Builds a bursty trace: `bursts` rounds of volleys in which every active
/// tenant fires one request; tenants skip every third burst so the kernel
/// mix shifts.
fn build_trace(shape: &TraceShape) -> Result<Vec<Request>, Box<dyn std::error::Error>> {
    let specs: Vec<(KernelSpec, usize, usize)> = TENANTS
        .iter()
        .map(|&(benchmark, blocks)| {
            let spec = KernelSpec::from_benchmark(benchmark)?;
            let inputs = benchmark.dfg()?.num_inputs();
            Ok((spec, inputs, blocks))
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;

    let mut requests = Vec::new();
    let mut id = 0u64;
    let mut clock_us = 0.0;
    for burst in 0..shape.bursts {
        for round in 0..shape.volley {
            for (tenant, (spec, inputs, blocks)) in specs.iter().enumerate() {
                if (burst + tenant) % 3 == 2 {
                    continue;
                }
                let workload = Workload::random(*inputs, *blocks, id ^ 0xBEEF);
                let arrival = clock_us
                    + round as f64 * shape.round_spacing_us
                    + tenant as f64 * 0.05 * shape.round_spacing_us;
                let mut request = Request::new(id, spec.clone(), workload).at(arrival);
                if tenant == URGENT_TENANT {
                    if let Some(budget) = shape.urgent_budget_us {
                        request = request.with_deadline(arrival + budget);
                    }
                }
                requests.push(request);
                id += 1;
            }
        }
        clock_us += shape.volley as f64 * shape.round_spacing_us + shape.burst_gap_us;
    }
    Ok(requests)
}

/// Checks every outcome against the DFG reference evaluator.
fn verify_outputs(
    requests: &[Request],
    outcomes: &[RequestOutcome],
) -> Result<(), Box<dyn std::error::Error>> {
    let options = LowerOptions::default();
    let find = |id: u64| {
        requests
            .iter()
            .find(|request| request.id == id)
            .expect("outcome ids come from the trace")
    };
    for outcome in outcomes {
        let request = find(outcome.request_id);
        let dfg = request.kernel.dfg(&options)?;
        let expected = evaluate_stream(&dfg, request.workload.records())?;
        assert_eq!(
            outcome.outputs(),
            expected,
            "request {} ({}) diverged from the reference evaluator",
            request.id,
            outcome.kernel
        );
    }
    Ok(())
}

fn serve(
    policy: DispatchPolicy,
    tiles: usize,
    requests: &[Request],
) -> Result<ServeReport, Box<dyn std::error::Error>> {
    let mut runtime = Runtime::new(FuVariant::V4, tiles)?.with_policy(policy);
    // The trace is streamed: the dispatcher sees each request only when it
    // arrives on the virtual timeline.
    let report = runtime.serve_stream(|submitter| {
        for request in requests {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    println!("--- {policy} dispatch ---");
    println!("{}", report.metrics());
    println!();
    verify_outputs(requests, report.outcomes())?;
    Ok(report)
}

/// Serves the trace on a cluster of `devices` × `tiles_per_device` V4
/// devices with FIFO kernel-affinity tile dispatch (act 2's baseline, so
/// the capacity effect on deadline misses stays visible) and the given
/// routing policy, printing the totals and the per-device breakdown.
fn serve_cluster(
    route: RoutePolicy,
    devices: usize,
    tiles_per_device: usize,
    requests: &[Request],
) -> Result<ClusterReport, Box<dyn std::error::Error>> {
    let mut cluster = Cluster::new(FuVariant::V4, devices, tiles_per_device)?
        .with_policy(DispatchPolicy::KernelAffinity)
        .with_route_policy(route);
    let report = cluster.serve_stream(|submitter| {
        for request in requests {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    println!("--- {devices} device(s) x {tiles_per_device} tiles, {route} routing ---");
    println!("{}", report.metrics());
    for device in report.device_metrics() {
        println!("{device}");
    }
    println!();
    verify_outputs(requests, report.outcomes())?;
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------- act 1
    let relaxed = build_trace(&TraceShape {
        bursts: 5,
        volley: 6,
        round_spacing_us: 2.0,
        burst_gap_us: 4.0,
        urgent_budget_us: None,
    })?;
    println!(
        "act 1: {} requests from {} tenants on 6 V4 write-back tiles\n",
        relaxed.len(),
        TENANTS.len()
    );
    assert!(relaxed.len() >= 100, "trace is production-shaped");

    let affinity = serve(DispatchPolicy::KernelAffinity, 6, &relaxed)?;
    let round_robin = serve(DispatchPolicy::RoundRobin, 6, &relaxed)?;

    let a = affinity.metrics();
    let rr = round_robin.metrics();
    assert!(
        a.total_switch_us < rr.total_switch_us,
        "affinity dispatch must spend less context-switch time ({:.2} vs {:.2} us)",
        a.total_switch_us,
        rr.total_switch_us
    );
    println!(
        "affinity saves {:.2} us of context switching ({} vs {} switches), \
         {:.2}x round-robin's throughput\n",
        rr.total_switch_us - a.total_switch_us,
        a.switch_count,
        rr.switch_count,
        a.requests_per_sec / rr.requests_per_sec,
    );

    // ---------------------------------------------------------------- act 2
    // The urgent tenant's deadline budget: a few times its standalone
    // service time, probed so the demo tracks the timing model.
    let (benchmark, blocks) = TENANTS[URGENT_TENANT];
    let spec = KernelSpec::from_benchmark(benchmark)?;
    let inputs = benchmark.dfg()?.num_inputs();
    let probe_request = Request::new(0, spec, Workload::random(inputs, blocks, 0xBEEF ^ 1)).at(0.0);
    let service_us = Runtime::new(FuVariant::V4, 1)?
        .serve(vec![probe_request])?
        .outcomes()[0]
        .completion_us;

    let overload = build_trace(&TraceShape {
        bursts: 4,
        volley: 8,
        round_spacing_us: 0.25,
        burst_gap_us: 1.0,
        urgent_budget_us: Some(4.0 * service_us),
    })?;
    println!(
        "act 2: {} requests squeezed onto 3 tiles; tenant '{}' now has a {:.2} us deadline budget\n",
        overload.len(),
        benchmark.name(),
        4.0 * service_us,
    );

    let fifo = serve(DispatchPolicy::KernelAffinity, 3, &overload)?;
    let edf = serve(DispatchPolicy::EarliestDeadlineFirst, 3, &overload)?;
    let slack = serve(DispatchPolicy::SlackAware, 3, &overload)?;

    let fifo_misses = fifo.metrics().deadline_misses;
    assert!(
        fifo_misses > 0,
        "the overload trace must strand FIFO's urgent requests"
    );
    for report in [&edf, &slack] {
        assert!(
            report.metrics().deadline_misses < fifo_misses,
            "{} must miss strictly fewer deadlines than affinity ({} vs {})",
            report.policy(),
            report.metrics().deadline_misses,
            fifo_misses
        );
    }
    println!(
        "deadline misses on the same overload trace: affinity {} vs edf {} vs slack-aware {} \
         (of {} deadlines)\n",
        fifo_misses,
        edf.metrics().deadline_misses,
        slack.metrics().deadline_misses,
        fifo.metrics().deadline_requests,
    );

    // ---------------------------------------------------------------- act 3
    let mut bounded = Runtime::new(FuVariant::V4, 3)?
        .with_policy(DispatchPolicy::EarliestDeadlineFirst)
        .with_admission_limit(12);
    let guarded = bounded.serve_stream(|submitter| {
        for request in &overload {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(&overload, guarded.outcomes())?;
    println!("--- edf dispatch, admission limit 12 ---");
    println!("{}", guarded.metrics());
    assert!(
        guarded.metrics().rejects > 0,
        "the overload must trip admission control"
    );
    assert!(guarded.metrics().peak_queue_depth <= 12);
    println!(
        "\nadmission control shed {} of {} requests ({:.0}% reject rate) and capped the \
         queue at {} waiters",
        guarded.metrics().rejects,
        overload.len(),
        guarded.metrics().reject_rate() * 100.0,
        guarded.metrics().peak_queue_depth,
    );

    // ---------------------------------------------------------------- act 4
    println!(
        "\nact 4: the same overload trace on a cluster tier (1 vs 4 devices, \
         3 tiles each)\n"
    );
    let single = serve_cluster(RoutePolicy::KernelHash, 1, 3, &overload)?;
    assert_eq!(
        single.metrics().deadline_misses,
        fifo.metrics().deadline_misses,
        "a 1-device cluster is the act-2 affinity runtime, bit for bit"
    );
    assert_eq!(single.metrics().makespan_us, fifo.metrics().makespan_us);

    let sharded = serve_cluster(RoutePolicy::KernelHash, 4, 3, &overload)?;
    let balanced = serve_cluster(RoutePolicy::LeastLoaded, 4, 3, &overload)?;

    assert!(
        sharded.metrics().deadline_misses < single.metrics().deadline_misses,
        "4x the capacity must cut the deadline misses ({} vs {})",
        sharded.metrics().deadline_misses,
        single.metrics().deadline_misses
    );
    assert!(
        sharded.metrics().switch_count <= balanced.metrics().switch_count,
        "sharding keeps kernels home and must not switch more ({} vs {})",
        sharded.metrics().switch_count,
        balanced.metrics().switch_count
    );
    assert_eq!(sharded.transfers(), 0, "sharded kernels never leave home");
    println!(
        "1 -> 4 devices: deadline misses {} -> {} (kernel-hash) / {} (least-loaded); \
         switch counts: kernel-hash {} vs least-loaded {}; least-loaded moved {} kernel \
         image(s) ({} B) across the link",
        single.metrics().deadline_misses,
        sharded.metrics().deadline_misses,
        balanced.metrics().deadline_misses,
        sharded.metrics().switch_count,
        balanced.metrics().switch_count,
        balanced.transfers(),
        balanced.transfer_bytes(),
    );

    // ---------------------------------------------------------------- act 5
    println!(
        "\nact 5: the same overloads with the control plane on (same-kernel \
         batching + rate-driven replication)\n"
    );
    // The 1-device overload from act 4, with batching over the same FIFO
    // affinity dispatch: the deep mixed queues that thrashed kernels now
    // drain as same-kernel runs.
    let mut batched_single = Cluster::new(FuVariant::V4, 1, 3)?
        .with_policy(DispatchPolicy::KernelAffinity)
        .with_batching(BatchConfig::with_max_batch(8));
    let batched = batched_single.serve_stream(|submitter| {
        for request in &overload {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(&overload, batched.outcomes())?;
    println!("--- 1 device x 3 tiles, batching max_batch=8 ---");
    println!("{}", batched.metrics());
    assert!(
        batched.metrics().batch.switches_avoided > 0,
        "the overloaded queues must give the batcher diversions"
    );
    assert!(
        batched.metrics().switch_count < single.metrics().switch_count,
        "batching must cut the 1-device switch count ({} vs {})",
        batched.metrics().switch_count,
        single.metrics().switch_count
    );
    println!(
        "\n1-device overload, batching on: {} -> {} switches ({} avoided in {} batch(es)); \
         makespan {:.2} -> {:.2} us",
        single.metrics().switch_count,
        batched.metrics().switch_count,
        batched.metrics().batch.switches_avoided,
        batched.metrics().batch.batches_formed,
        single.metrics().makespan_us,
        batched.metrics().makespan_us,
    );

    // The 4-device least-loaded cluster with the full control plane: hot
    // kernels replicate ahead of demand while batching rides along.
    let mut controlled_cluster = Cluster::new(FuVariant::V4, 4, 3)?
        .with_policy(DispatchPolicy::KernelAffinity)
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_batching(BatchConfig::with_max_batch(8))
        .with_replication(ReplicationConfig::new(3, 3.0, 20.0));
    let controlled = controlled_cluster.serve_stream(|submitter| {
        for request in &overload {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(&overload, controlled.outcomes())?;
    println!("\n--- 4 devices x 3 tiles, least-loaded + batching + replication ---");
    println!("{}", controlled.metrics());
    println!("replication: {}", controlled.replication());
    assert!(
        controlled.replication().replicas_pushed > 0,
        "hot tenants must replicate ahead of demand on the overload"
    );
    println!(
        "\n4-device least-loaded, control plane on: {} switches ({} avoided) vs act-4's {}; \
         {} replica push(es) ({} B prefetched) vs act-4's {} demand transfer(s)",
        controlled.metrics().switch_count,
        controlled.metrics().batch.switches_avoided,
        balanced.metrics().switch_count,
        controlled.replication().replicas_pushed,
        controlled.replication().bytes_prefetched,
        balanced.transfers(),
    );

    // ---------------------------------------------------------------- act 6
    println!("\nact 6: act 5's controlled cluster rerun with request-span tracing on\n");
    let mut traced_cluster = Cluster::new(FuVariant::V4, 4, 3)?
        .with_policy(DispatchPolicy::KernelAffinity)
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_batching(BatchConfig::with_max_batch(8))
        .with_replication(ReplicationConfig::new(3, 3.0, 20.0))
        .with_tracing(TraceConfig::enabled());
    let traced = traced_cluster.serve_stream(|submitter| {
        for request in &overload {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(&overload, traced.outcomes())?;
    assert_eq!(
        traced.metrics(),
        controlled.metrics(),
        "tracing must be functionally transparent: same serve, same metrics"
    );
    let trace = traced.trace().expect("tracing was enabled");

    // Export the Perfetto/Chrome trace (virtual-time lanes per device ×
    // tile), validate it, and write it under target/.
    let trace_json = perfetto_trace_json(trace, None, "serving act 6: controlled cluster");
    let validation = validate_chrome_trace(&trace_json).map_err(std::io::Error::other)?;
    // Write under target/ — generated artifacts never belong in the repo.
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/serving_trace.json");
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))?;
    std::fs::write(trace_path, &trace_json)?;
    println!(
        "wrote {trace_path}: {} events over {} track(s) ({} complete spans, {} dropped) — \
         load it at ui.perfetto.dev",
        validation.events,
        validation.tracks,
        validation.complete_spans,
        trace.dropped()
    );

    // The worst-p99 tenant, by kernel name (tenants map 1:1 onto kernels).
    let mut worst: Option<(&str, f64)> = None;
    for &(benchmark, _) in &TENANTS {
        let mut latencies: Vec<f64> = traced
            .outcomes()
            .iter()
            .filter(|outcome| outcome.kernel.as_ref() == benchmark.name())
            .map(|outcome| outcome.latency_us)
            .collect();
        if latencies.is_empty() {
            continue;
        }
        latencies.sort_by(f64::total_cmp);
        let p99 = latencies[((latencies.len() - 1) as f64 * 0.99) as usize];
        if worst.is_none_or(|(_, current)| p99 > current) {
            worst = Some((benchmark.name(), p99));
        }
    }
    let (worst_tenant, worst_p99) = worst.expect("every serve has outcomes");

    // Break that tenant's latency into lifecycle stages from its own spans.
    // Per request, the span durations sum to its reported latency exactly —
    // the reconciliation tests/observability.rs audits.
    let mut stage_totals: [(f64, &str); 4] = [
        (0.0, "queue-wait"),
        (0.0, "acquire"),
        (0.0, "context-switch"),
        (0.0, "run"),
    ];
    let mut tenant_requests = 0usize;
    for outcome in traced
        .outcomes()
        .iter()
        .filter(|outcome| outcome.kernel.as_ref() == worst_tenant)
    {
        tenant_requests += 1;
        for span in trace.spans_for(outcome.request_id) {
            let slot = match span.kind {
                SpanKind::QueueWait => 0,
                SpanKind::Acquire { .. } => 1,
                SpanKind::ContextSwitch => 2,
                SpanKind::Run => 3,
                _ => continue,
            };
            stage_totals[slot].0 += span.dur_us;
        }
    }
    let latency_total: f64 = stage_totals.iter().map(|(us, _)| us).sum();
    println!(
        "\nworst-p99 tenant: '{worst_tenant}' at p99 {worst_p99:.2} us — \
         per-stage latency over its {tenant_requests} request(s):"
    );
    println!(
        "{:>15} {:>12} {:>12} {:>7}",
        "stage", "total us", "mean us", "share"
    );
    for (total_us, label) in stage_totals {
        println!(
            "{label:>15} {total_us:>12.2} {:>12.2} {:>6.1}%",
            total_us / tenant_requests.max(1) as f64,
            total_us / latency_total.max(f64::MIN_POSITIVE) * 100.0
        );
    }

    // ---------------------------------------------------------------- act 7
    println!("\nact 7: scenario traffic through a scripted fault plan\n");
    // Generated traffic instead of the hand-built bursts: a diurnal rate
    // curve with a flash crowd and tenant churn, sized off the act-2 service
    // probe so the 4x3 fleet runs loaded-but-stable (rho ~ 0.5). Tenants map
    // 1:1 onto the same six kernels.
    let duration_us = 80.0 * service_us;
    let scenario = Scenario::new(ScenarioConfig {
        base_rate_per_ms: 12.0 * 0.5 / service_us * 1000.0,
        duration_us,
        diurnal_amplitude: 0.4,
        diurnal_period_us: duration_us / 2.0,
        tenants: TENANTS.len(),
        hot_tenant_weight: 4.0,
        churn_period_us: duration_us / 3.0,
        pipeline_depth: 1,
        seed: 0xBEEF,
    })
    .with_flash_crowd(FlashCrowd {
        start_us: duration_us * 0.3,
        duration_us: duration_us * 0.15,
        multiplier: 2.5,
    });
    let tenant_specs: Vec<(KernelSpec, usize, usize)> = TENANTS
        .iter()
        .map(|&(benchmark, blocks)| {
            let spec = KernelSpec::from_benchmark(benchmark)?;
            let inputs = benchmark.dfg()?.num_inputs();
            Ok((spec, inputs, blocks))
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;
    let scenario_trace: Vec<Request> = scenario
        .arrivals()
        .iter()
        .enumerate()
        .map(|(i, arrival)| {
            let (spec, inputs, blocks) = &tenant_specs[arrival.tenant];
            let workload = Workload::random(*inputs, *blocks, i as u64 ^ 0xFA57);
            Request::new(i as u64, spec.clone(), workload).at(arrival.arrival_us)
        })
        .collect();
    assert!(
        scenario_trace.len() >= 100,
        "the scenario must generate production-shaped traffic"
    );

    // The fault script: device 0 dies a fifth of the way in and is revived
    // cold at 55%; device 2 drains gracefully at 45% and rejoins warm at
    // 75%. At worst two of the four devices are serving.
    let plan = FaultPlan::new()
        .kill(duration_us * 0.2, 0)
        .revive(duration_us * 0.55, 0)
        .drain(duration_us * 0.45, 2)
        .undrain(duration_us * 0.75, 2);
    let mut faulted_cluster = Cluster::new(FuVariant::V4, 4, 3)?
        .with_policy(DispatchPolicy::KernelAffinity)
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_fault_plan(plan);
    let faulted = faulted_cluster.serve_stream(|submitter| {
        for request in &scenario_trace {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(&scenario_trace, faulted.outcomes())?;
    println!(
        "--- 4 devices x 3 tiles, least-loaded: {} scenario requests, kill+revive dev 0, \
         drain+undrain dev 2 ---",
        scenario_trace.len()
    );
    println!("{}", faulted.metrics());
    for device in faulted.device_metrics() {
        println!("{device}");
    }

    // Nothing is lost: every submitted request either completed or was
    // rejected at arrival (here the staggered script leaves capacity up the
    // whole time, so nothing is even rejected).
    assert_eq!(
        faulted.outcomes().len() + faulted.rejected().len(),
        scenario_trace.len(),
        "completions + rejects must account for every submission"
    );
    assert!(faulted.rejected().is_empty(), "the script is staggered");
    assert_eq!(faulted.faults(), 2, "one kill, one drain");
    assert!(
        faulted.requeues() > 0,
        "displaced work must requeue onto the survivors"
    );
    assert!(
        faulted.lost_work_us() > 0.0,
        "the kill abandons in-flight work (the drain abandons none)"
    );
    let revived_serves = faulted
        .outcomes()
        .iter()
        .filter(|outcome| outcome.device == 0 && outcome.start_us > duration_us * 0.55)
        .count();
    assert!(
        revived_serves > 0,
        "device 0 must serve again after its cold revival"
    );
    let availability = faulted.availability();
    assert!(availability[0] < 1.0 && availability[2] < 1.0);
    assert!(availability[1] == 1.0 && availability[3] == 1.0);
    println!(
        "\nkill+drain script: {} requeue(s), {:.2} us of in-flight work abandoned by the \
         kill, {} request(s) served by device 0 after cold revival ({} B re-acquired over \
         the link); availability per device: [{}]",
        faulted.requeues(),
        faulted.lost_work_us(),
        revived_serves,
        faulted.transfer_bytes(),
        availability
            .iter()
            .map(|a| format!("{a:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
    );

    // ---------------------------------------------------------------- act 8
    println!("\nact 8: pipelined tenants with SLO classes through a mid-serve kill\n");
    // Tenants now submit *pipelines* — three-stage kernel chains with
    // activations flowing between stages — under mixed SLO classes. A
    // device dies mid-serve and is revived cold: resident stages requeue
    // onto the survivors, finished upstream stages are never re-run, and
    // the latency tier holds its deadlines while best effort absorbs the
    // disruption.
    let pipeline_horizon_us = 60.0 * service_us;
    let sessions = [
        Session::new(0).with_slo(SloClass::Latency),
        Session::new(1), // standard
        Session::new(2).with_slo(SloClass::BestEffort),
    ];
    let mut pipelines = Vec::new();
    for i in 0..24u64 {
        let session = i % 3;
        let arrival = i as f64 * pipeline_horizon_us / 24.0;
        // Ids start at 1 so the packed stage ids stay collision-free.
        let mut pipeline = PipelineRequest::new(i + 1, session).at(arrival);
        for stage in 0..3usize {
            let (spec, inputs, blocks) =
                &tenant_specs[(i as usize + 2 * stage) % tenant_specs.len()];
            let workload = Workload::random(*inputs, *blocks, i ^ ((stage as u64) << 8));
            let mut built = PipelineStage::new(spec.clone(), workload).emits(64 * 1024);
            if stage > 0 {
                built = built.after(&[stage - 1]);
            }
            pipeline = pipeline.stage(built);
        }
        if session == 0 {
            // The latency tier carries a pipeline deadline (attached to the
            // sink stage, so EDF/slack dispatch sees it).
            pipeline = pipeline.with_deadline(arrival + 40.0 * service_us);
        }
        pipelines.push(pipeline);
    }
    let stage_mirror: Vec<Request> = pipelines
        .iter()
        .flat_map(|pipeline| {
            pipeline.stages.iter().enumerate().map(|(index, stage)| {
                Request::new(
                    pipeline.stage_request_id(index),
                    stage.kernel.clone(),
                    stage.workload.clone(),
                )
            })
        })
        .collect();
    let mut pipeline_cluster = Cluster::new(FuVariant::V4, 4, 2)?
        .with_policy(DispatchPolicy::SlackAware)
        .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        .with_fault_plan(
            FaultPlan::new()
                .kill(pipeline_horizon_us * 0.35, 3)
                .revive(pipeline_horizon_us * 0.7, 3),
        );
    let piped = pipeline_cluster.serve_pipelines(pipelines.clone(), &sessions)?;
    verify_outputs(&stage_mirror, piped.cluster.outcomes())?;

    let total_stages: usize = pipelines.iter().map(|p| p.stages.len()).sum();
    assert_eq!(
        piped.cluster.outcomes().len() + piped.cluster.rejected().len(),
        total_stages,
        "every stage must be accounted for"
    );
    assert_eq!(piped.completed(), pipelines.len(), "the kill loses nothing");
    for outcome in &piped.pipelines {
        assert!(outcome.commit_us >= outcome.finish_us);
    }
    let latency_class = piped.class(SloClass::Latency).expect("latency tier ran");
    assert_eq!(
        latency_class.deadline_misses, 0,
        "the latency tier must hold its (generous) deadlines through the kill"
    );
    println!(
        "--- 4 devices x 2 tiles, slack-aware + power-of-two, kill+revive dev 3: {} \
         pipelines x 3 stages ---",
        pipelines.len()
    );
    for class in &piped.classes {
        println!(
            "{:>12}: {} pipelines, p50 {:.2} us, p99 {:.2} us, {} deadline miss(es)",
            class.slo.to_string(),
            class.pipelines,
            class.p50_latency_us,
            class.p99_latency_us,
            class.deadline_misses,
        );
    }
    println!(
        "stage depths: {}; {} inter-device activation transfer(s), {:.2} us of \
         activation time",
        piped
            .stages
            .iter()
            .map(|s| format!("d{} x{} p99 {:.2} us", s.depth, s.served, s.p99_latency_us))
            .collect::<Vec<_>>()
            .join(", "),
        piped.activation_transfers(),
        piped.pipelines.iter().map(|p| p.transfer_us).sum::<f64>(),
    );

    // The same serve with stage-affinity routing off: successor stages go
    // wherever the route policy's hash sends their kernel, paying the
    // activation transfer on each cross-device edge.
    let blind = Cluster::new(FuVariant::V4, 4, 2)?
        .with_policy(DispatchPolicy::SlackAware)
        .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        .with_stage_affinity(false)
        .with_fault_plan(
            FaultPlan::new()
                .kill(pipeline_horizon_us * 0.35, 3)
                .revive(pipeline_horizon_us * 0.7, 3),
        )
        .serve_pipelines(pipelines.clone(), &sessions)?;
    assert!(
        piped.activation_transfers() < blind.activation_transfers(),
        "stage affinity must cut activation transfers ({} vs {})",
        piped.activation_transfers(),
        blind.activation_transfers()
    );
    println!(
        "stage affinity keeps activations local: {} transfer(s) vs {} affinity-blind",
        piped.activation_transfers(),
        blind.activation_transfers(),
    );

    // ---------------------------------------------------------------- act 9
    println!("\nact 9: act 5's controlled cluster once more, continuous telemetry on\n");
    // Window width: a couple of service times, so each burst of the overload
    // trace spans a handful of windows and the arrival pattern is visible in
    // the series.
    let window_us = 2.0 * service_us;
    let mut telemetered_cluster = Cluster::new(FuVariant::V4, 4, 3)?
        .with_policy(DispatchPolicy::KernelAffinity)
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_batching(BatchConfig::with_max_batch(8))
        .with_replication(ReplicationConfig::new(3, 3.0, 20.0))
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(window_us))
        .with_slo(SloConfig::disabled().with_objective(SloObjective::new(SloClass::Standard, 0.1)));
    let telemetered = telemetered_cluster.serve_stream(|submitter| {
        for request in &overload {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(&overload, telemetered.outcomes())?;
    assert_eq!(
        telemetered.metrics(),
        controlled.metrics(),
        "telemetry must be functionally transparent: same serve, same metrics"
    );

    let series = telemetered.telemetry().expect("telemetry was enabled");
    assert_eq!(
        series.total_served(),
        telemetered.outcomes().len() as u64,
        "every completion lands in exactly one window"
    );
    println!(
        "windowed series: {} windows of {window_us:.2} us over a {:.2} us makespan",
        series.windows.len(),
        series.makespan_us
    );
    println!(
        "{:>6} {:>8} {:>10} {:>11} {:>11} {:>12}",
        "window", "served", "miss rate", "mean queue", "peak queue", "utilization"
    );
    for window in &series.windows {
        println!(
            "{:>6} {:>8} {:>10.3} {:>11.2} {:>11} {:>11.0}%",
            window.index,
            window.served,
            window.miss_rate(),
            window.mean_queue_depth,
            window.peak_queue_depth,
            window.utilization * 100.0
        );
    }

    // The burn-rate view of the same serve: miss rate over the error budget
    // per window, with multi-window alerts when both the fast and slow burn
    // cross the threshold.
    let slo = telemetered.slo().expect("an SLO objective was configured");
    let status = slo
        .class(SloClass::Standard)
        .expect("the standard class is tracked");
    println!(
        "\nslo: {:.0}% miss budget for the standard class -> {:.2}x of the serve's budget \
         consumed, {} burn alert(s)",
        status.objective.target_miss_rate * 100.0,
        status.budget_consumed,
        status.alerts.len(),
    );
    for alert in &status.alerts {
        match (alert.cleared_window, alert.cleared_us) {
            (Some(window), Some(us)) => println!(
                "  alert: fired window {} ({:.2} us), cleared window {window} ({us:.2} us), \
                 peak fast burn {:.2}x",
                alert.fired_window, alert.fired_us, alert.peak_fast_burn
            ),
            _ => println!(
                "  alert: fired window {} ({:.2} us), still burning at the makespan, \
                 peak fast burn {:.2}x",
                alert.fired_window, alert.fired_us, alert.peak_fast_burn
            ),
        }
    }

    // Per-request latency attribution from the same serve's spans: an
    // additive queue/acquire/activation/switch/run breakdown per request
    // that reconciles with the reported latency exactly.
    let attribution = explain(telemetered.trace().expect("tracing was enabled"));
    assert_eq!(attribution.rows().len(), telemetered.outcomes().len());
    assert!(
        attribution.rows().iter().all(|row| row.reconciles()),
        "every attribution must sum back to its request's latency"
    );
    println!("\nwhy were the slow ones slow? the 5 worst offenders:");
    print!("{}", attribution.worst_offenders_table(5));

    // The combined artifact: request spans plus per-window counter tracks
    // (throughput, miss rate, queue depth) and SLO burn instants, one file,
    // Perfetto-loadable.
    let telemetry_json = perfetto_trace_json_with_telemetry(
        telemetered.trace().expect("tracing was enabled"),
        None,
        telemetered.telemetry(),
        telemetered.slo(),
        "serving act 9: telemetered cluster",
    );
    let telemetry_validation =
        validate_chrome_trace(&telemetry_json).map_err(std::io::Error::other)?;
    let telemetry_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/serving_telemetry_trace.json"
    );
    std::fs::write(telemetry_path, &telemetry_json)?;
    println!(
        "wrote {telemetry_path}: {} events over {} track(s) with the windowed counters \
         riding along — load it at ui.perfetto.dev",
        telemetry_validation.events, telemetry_validation.tracks,
    );

    println!("\nall outputs match the DFG reference evaluator");
    Ok(())
}
