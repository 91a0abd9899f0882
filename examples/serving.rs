//! Multi-tenant online serving demo: bursty mixed-kernel traffic over the
//! paper's benchmark suite, streamed into write-back overlay tiles. Nine
//! acts, each a claim the example asserts:
//!
//! 1. kernel-affinity dispatch keeps kernels resident: far fewer context
//!    switches than requests;
//! 2. under overload, slack-aware dispatch misses fewer of an urgent
//!    tenant's deadlines than FIFO affinity;
//! 3. an admission limit sheds load and caps the waiting queue;
//! 4. four devices cut the deadline misses of one, and kernel-hash routing
//!    never moves an image;
//! 5. batching cuts switches and replication pushes hot images ahead of
//!    demand;
//! 6. tracing is transparent, and its Perfetto export lands in
//!    `target/serving_trace.json`;
//! 7. scenario traffic survives a kill and a drain with nothing lost;
//! 8. pipelines under SLO classes survive a kill, and stage affinity keeps
//!    stages next to their producers until a producer's device drains;
//! 9. telemetry and SLO tracking are transparent, latency attribution
//!    reconciles, and the combined export lands in
//!    `target/serving_telemetry_trace.json`.
//!
//! Every outcome of every serve is checked against the DFG reference
//! evaluator.
//!
//! Run with: `cargo run --example serving`

use std::error::Error;

use tm_overlay::dfg::evaluate_stream;
use tm_overlay::frontend::LowerOptions;
use tm_overlay::runtime::obs::{
    perfetto_trace_json, perfetto_trace_json_with_telemetry, validate_chrome_trace,
};
use tm_overlay::runtime::RequestOutcome;
use tm_overlay::{
    explain, BatchConfig, Benchmark, Cluster, DispatchPolicy, FaultPlan, FlashCrowd, FuVariant,
    KernelSpec, PipelineRequest, PipelineStage, ReplicationConfig, Request, RoutePolicy, Scenario,
    ScenarioConfig, ServeReport, Session, SloClass, SloConfig, SloObjective, TelemetryConfig,
    TraceConfig, Workload,
};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

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

/// Each tenant's kernel, input count and blocks per request.
fn tenant_specs() -> Result<Vec<(KernelSpec, usize, usize)>> {
    TENANTS
        .iter()
        .map(|&(benchmark, blocks)| {
            let spec = KernelSpec::from_benchmark(benchmark)?;
            Ok((spec, benchmark.dfg()?.num_inputs(), blocks))
        })
        .collect()
}

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
fn build_trace(shape: &TraceShape) -> Result<Vec<Request>> {
    let specs = tenant_specs()?;
    let mut requests = Vec::new();
    let mut clock_us = 0.0;
    for burst in 0..shape.bursts {
        for round in 0..shape.volley {
            for (tenant, (spec, inputs, blocks)) in specs.iter().enumerate() {
                if (burst + tenant) % 3 == 2 {
                    continue;
                }
                let id = requests.len() as u64;
                let workload = Workload::random(*inputs, *blocks, id ^ 0xBEEF);
                let arrival = clock_us
                    + round as f64 * shape.round_spacing_us
                    + tenant as f64 * 0.05 * shape.round_spacing_us;
                let mut request = Request::new(id, spec.clone(), workload).at(arrival);
                if let (URGENT_TENANT, Some(budget)) = (tenant, shape.urgent_budget_us) {
                    request = request.with_deadline(arrival + budget);
                }
                requests.push(request);
            }
        }
        clock_us += shape.volley as f64 * shape.round_spacing_us + shape.burst_gap_us;
    }
    Ok(requests)
}

/// Checks every outcome against the DFG reference evaluator.
fn verify_outputs(requests: &[Request], outcomes: &[RequestOutcome]) -> Result<()> {
    let options = LowerOptions::default();
    for outcome in outcomes {
        let request = requests
            .iter()
            .find(|request| request.id == outcome.request_id)
            .expect("outcome ids come from the trace");
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

/// Streams `requests` into `cluster` — the dispatcher sees each request only
/// when it arrives on the virtual timeline — and verifies every outcome.
fn stream(mut cluster: Cluster, requests: &[Request]) -> Result<ServeReport> {
    let report = cluster.serve_stream(|submitter| {
        for request in requests {
            if submitter.submit(request.clone()).is_err() {
                break;
            }
        }
    })?;
    verify_outputs(requests, report.outcomes())?;
    Ok(report)
}

/// One V4 device of `tiles` tiles under `policy`.
fn device(policy: DispatchPolicy, tiles: usize) -> Result<Cluster> {
    Ok(Cluster::new(FuVariant::V4, 1, tiles)?.with_policy(policy))
}

/// Writes `json` under `target/` (generated artifacts never belong in the
/// repo) once it validates as a Chrome trace.
fn write_trace(name: &str, json: &str) -> Result<()> {
    validate_chrome_trace(json).map_err(std::io::Error::other)?;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/target");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{name}");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> Result<()> {
    // Act 1: context switches.
    let relaxed = build_trace(&TraceShape {
        bursts: 5,
        volley: 6,
        round_spacing_us: 2.0,
        burst_gap_us: 4.0,
        urgent_budget_us: None,
    })?;
    assert!(relaxed.len() >= 100, "trace is production-shaped");
    let affinity = stream(device(DispatchPolicy::KernelAffinity, 6)?, &relaxed)?;
    let a = affinity.metrics();
    assert_eq!(
        a.switch_count,
        TENANTS.len(),
        "six tiles for six tenants: one cold start each, then every kernel stays resident"
    );
    println!(
        "act 1: affinity serves {} requests with {} context switches ({:.2} us)",
        relaxed.len(),
        a.switch_count,
        a.total_switch_us,
    );

    // Act 2: deadlines under overload. The urgent tenant's budget is a few
    // times its standalone service time, probed so the demo tracks the
    // timing model.
    let (benchmark, blocks) = TENANTS[URGENT_TENANT];
    let spec = KernelSpec::from_benchmark(benchmark)?;
    let inputs = benchmark.dfg()?.num_inputs();
    let probe_request = Request::new(0, spec, Workload::random(inputs, blocks, 0xBEEF ^ 1)).at(0.0);
    let service_us = Cluster::new(FuVariant::V4, 1, 1)?
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
    let fifo = stream(device(DispatchPolicy::KernelAffinity, 3)?, &overload)?;
    let slack = stream(device(DispatchPolicy::SlackAware, 3)?, &overload)?;
    let (fifo_misses, slack_misses) = (
        fifo.metrics().deadline_misses,
        slack.metrics().deadline_misses,
    );
    assert!(
        fifo_misses > 0,
        "the overload trace must strand FIFO's urgent requests"
    );
    assert!(
        slack_misses < fifo_misses,
        "slack-aware dispatch must miss strictly fewer deadlines than affinity ({slack_misses} vs {fifo_misses})"
    );
    println!("act 2: deadline misses affinity {fifo_misses} vs slack-aware {slack_misses}");

    // Act 3: admission control.
    let bounded = device(DispatchPolicy::SlackAware, 3)?.with_admission_limit(12);
    let guarded = stream(bounded, &overload)?;
    assert!(
        guarded.metrics().rejects > 0,
        "the overload must trip admission control"
    );
    assert!(guarded.metrics().peak_queue_depth <= 12);
    println!(
        "act 3: admission control shed {} of {} requests",
        guarded.metrics().rejects,
        overload.len(),
    );

    // Act 4: one device against four, under two routing policies.
    let fleet = |devices, route| -> Result<Cluster> {
        Ok(Cluster::new(FuVariant::V4, devices, 3)?
            .with_policy(DispatchPolicy::KernelAffinity)
            .with_route_policy(route))
    };
    let single = stream(fleet(1, RoutePolicy::KernelHash)?, &overload)?;
    assert_eq!(
        single.metrics().deadline_misses,
        fifo.metrics().deadline_misses,
        "a 1-device cluster is the act-2 affinity runtime, bit for bit"
    );
    assert_eq!(single.metrics().makespan_us, fifo.metrics().makespan_us);
    let sharded = stream(fleet(4, RoutePolicy::KernelHash)?, &overload)?;
    let balanced = stream(fleet(4, RoutePolicy::LeastLoaded)?, &overload)?;
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
        "act 4: 1 -> 4 devices: deadline misses {} -> {} (kernel-hash) / {} (least-loaded)",
        single.metrics().deadline_misses,
        sharded.metrics().deadline_misses,
        balanced.metrics().deadline_misses,
    );

    // Act 5: the control plane. Batching over act 4's single device drains
    // its deep mixed queues as same-kernel runs; on the four-device
    // least-loaded fleet, hot kernels also replicate ahead of demand.
    let batched = fleet(1, RoutePolicy::KernelHash)?.with_batching(BatchConfig::with_max_batch(8));
    let batched = stream(batched, &overload)?;
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
    let controlled_fleet = || -> Result<Cluster> {
        Ok(fleet(4, RoutePolicy::LeastLoaded)?
            .with_batching(BatchConfig::with_max_batch(8))
            .with_replication(ReplicationConfig::new(3, 3.0, 20.0)))
    };
    let controlled = stream(controlled_fleet()?, &overload)?;
    assert!(
        controlled.replication().replicas_pushed > 0,
        "hot tenants must replicate ahead of demand on the overload"
    );
    println!(
        "act 5: batching {} -> {} switches; {} replica push(es)",
        single.metrics().switch_count,
        batched.metrics().switch_count,
        controlled.replication().replicas_pushed,
    );

    // Act 6: tracing, with its Perfetto export.
    let traced = controlled_fleet()?.with_tracing(TraceConfig::enabled());
    let traced = stream(traced, &overload)?;
    assert_eq!(
        traced.metrics(),
        controlled.metrics(),
        "tracing must be functionally transparent: same serve, same metrics"
    );
    let trace = traced.trace().expect("tracing was enabled");
    let trace_json = perfetto_trace_json(trace, None, "serving act 6: controlled cluster");
    write_trace("serving_trace.json", &trace_json)?;

    // Act 7: scenario traffic (a diurnal curve, a flash crowd and tenant
    // churn, sized off the act-2 probe so the 4x3 fleet runs at rho ~ 0.5)
    // through a fault script: device 0 dies at 20% and is revived cold at
    // 55%; device 2 drains at 45% and rejoins warm at 75%.
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
    let specs = tenant_specs()?;
    let scenario_trace: Vec<Request> = scenario
        .arrivals()
        .iter()
        .enumerate()
        .map(|(i, arrival)| {
            let (spec, inputs, blocks) = &specs[arrival.tenant];
            let workload = Workload::random(*inputs, *blocks, i as u64 ^ 0xFA57);
            Request::new(i as u64, spec.clone(), workload).at(arrival.arrival_us)
        })
        .collect();
    assert!(
        scenario_trace.len() >= 100,
        "the scenario must generate production-shaped traffic"
    );
    let plan = FaultPlan::new()
        .kill(duration_us * 0.2, 0)
        .revive(duration_us * 0.55, 0)
        .drain(duration_us * 0.45, 2)
        .undrain(duration_us * 0.75, 2);
    let faulted = stream(
        fleet(4, RoutePolicy::LeastLoaded)?.with_fault_plan(plan),
        &scenario_trace,
    )?;
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
    assert!(
        faulted
            .outcomes()
            .iter()
            .any(|outcome| outcome.device == 0 && outcome.start_us > duration_us * 0.55),
        "device 0 must serve again after its cold revival"
    );
    let availability = faulted.availability();
    assert!(availability[0] < 1.0 && availability[2] < 1.0);
    assert!(availability[1] == 1.0 && availability[3] == 1.0);
    println!(
        "act 7: {} scenario requests, {} requeue(s), nothing lost",
        scenario_trace.len(),
        faulted.requeues(),
    );

    // Act 8: three-stage pipelines under latency / standard / best-effort
    // sessions, through a mid-serve kill and cold revival of device 3.
    let pipeline_horizon_us = 60.0 * service_us;
    let sessions = [
        Session::new(0).with_slo(SloClass::Latency),
        Session::new(1),
        Session::new(2).with_slo(SloClass::BestEffort),
    ];
    let pipelines: Vec<PipelineRequest> = (0..24u64)
        .map(|i| {
            let session = i % 3;
            let arrival = i as f64 * pipeline_horizon_us / 24.0;
            // Ids start at 1 so the packed stage ids stay collision-free.
            let mut pipeline = PipelineRequest::new(i + 1, session).at(arrival);
            for stage in 0..3usize {
                let (spec, inputs, blocks) = &specs[(i as usize + 2 * stage) % specs.len()];
                let workload = Workload::random(*inputs, *blocks, i ^ ((stage as u64) << 8));
                let mut built = PipelineStage::new(spec.clone(), workload).emits(64 * 1024);
                if stage > 0 {
                    built = built.after(&[stage - 1]);
                }
                pipeline = pipeline.stage(built);
            }
            if session == 0 {
                // The latency tier's deadline sits on the sink stage.
                pipeline = pipeline.with_deadline(arrival + 40.0 * service_us);
            }
            pipeline
        })
        .collect();
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
    let pipeline_fleet = |plan: FaultPlan| -> Result<Cluster> {
        Ok(Cluster::new(FuVariant::V4, 4, 2)?
            .with_policy(DispatchPolicy::SlackAware)
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_fault_plan(
                plan.kill(pipeline_horizon_us * 0.35, 3)
                    .revive(pipeline_horizon_us * 0.7, 3),
            ))
    };
    let piped = pipeline_fleet(FaultPlan::new())?.serve_pipelines(pipelines.clone(), &sessions)?;
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
    // Draining device 1 early stops it admitting the successors of the
    // stages it already produced: they must move, and their inputs with them.
    let drained = pipeline_fleet(FaultPlan::new().drain(pipeline_horizon_us * 0.1, 1))?
        .serve_pipelines(pipelines.clone(), &sessions)?;
    assert_eq!(
        drained.completed(),
        pipelines.len(),
        "the drain loses nothing"
    );
    assert!(
        piped.activation_transfers() < drained.activation_transfers(),
        "stage affinity must keep stages next to their producers until one drains ({} vs {})",
        piped.activation_transfers(),
        drained.activation_transfers()
    );
    println!(
        "act 8: {} pipelines committed; {} activation transfer(s), {} with a producer's device drained",
        piped.completed(),
        piped.activation_transfers(),
        drained.activation_transfers(),
    );

    // Act 9: act 5's fleet once more with windowed telemetry (two service
    // times a window), an SLO objective and latency attribution.
    let window_us = 2.0 * service_us;
    let telemetered = controlled_fleet()?
        .with_tracing(TraceConfig::enabled())
        .with_telemetry(TelemetryConfig::windowed(window_us))
        .with_slo(SloConfig::disabled().with_objective(SloObjective::new(SloClass::Standard, 0.1)));
    let telemetered = stream(telemetered, &overload)?;
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
    let slo = telemetered.slo().expect("an SLO objective was configured");
    let status = slo
        .class(SloClass::Standard)
        .expect("the standard class is tracked");
    let trace = telemetered.trace().expect("tracing was enabled");
    let attribution = explain(trace);
    assert_eq!(attribution.rows().len(), telemetered.outcomes().len());
    assert!(
        attribution.rows().iter().all(|row| row.reconciles()),
        "every attribution must sum back to its request's latency"
    );
    println!(
        "act 9: {} windows, {:.2}x of the standard class's miss budget consumed",
        series.windows.len(),
        status.budget_consumed,
    );
    let telemetry_json = perfetto_trace_json_with_telemetry(
        trace,
        None,
        telemetered.telemetry(),
        telemetered.slo(),
        "serving act 9: telemetered cluster",
    );
    write_trace("serving_telemetry_trace.json", &telemetry_json)?;

    println!("all outputs match the DFG reference evaluator");
    Ok(())
}
