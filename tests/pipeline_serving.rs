//! Session-tier integration suite: multi-kernel pipeline DAGs, SLO
//! classes, stage-affinity routing and in-order commit, served end-to-end
//! through [`Cluster::serve_pipelines`].
//!
//! The property half pins the tier's two contracts:
//!
//! * **equivalence** — a batch of single-stage pipelines is bitwise
//!   identical to the plain [`Cluster::serve`] of the lowered requests,
//!   across dispatch policy × route policy × batching × fault schedules
//!   (the all-standard batch takes the lowering fast path and must match
//!   *every* observable including the trace; a mixed-class batch runs the
//!   live session driver and must still reproduce outcomes and rejects to
//!   the bit);
//! * **zero loss** — under random fault schedules, every submitted stage of
//!   every pipeline is accounted for exactly once across outcomes and
//!   rejects, and every pipeline gets exactly one outcome.
//!
//! [`Cluster::serve`]: tm_overlay::Cluster::serve
//! [`Cluster::serve_pipelines`]: tm_overlay::Cluster::serve_pipelines

use proptest::prelude::*;
use rand::prelude::*;

use tm_overlay::{
    BatchConfig, Benchmark, Cluster, DispatchPolicy, FaultPlan, FuVariant, KernelSpec,
    PipelineReport, PipelineRequest, PipelineStage, Request, RoutePolicy, ServeReport, Session,
    SloClass, TraceConfig, Workload,
};

const SAXPY: &str = "kernel saxpy(a, x, y) { out r = a * x + y; }";
const POLY: &str = "kernel poly(x) { out y = (x * x + 3) * x; }";
const GRAD: &str = "kernel grad(a, b, c, d, e) { out g = a * b + c * d + e; }";
const CHEB: &str = "kernel cheb(x) { out t = 2 * x * x - 1; }";

fn specs() -> Vec<(KernelSpec, usize)> {
    vec![
        (KernelSpec::from_source("saxpy", SAXPY), 3),
        (KernelSpec::from_source("poly", POLY), 1),
        (KernelSpec::from_source("grad", GRAD), 5),
        (KernelSpec::from_source("cheb", CHEB), 1),
    ]
}

fn cluster(devices: usize, tiles: usize, route: RoutePolicy) -> Cluster {
    Cluster::new(FuVariant::V4, devices, tiles)
        .unwrap()
        .with_route_policy(route)
}

/// A random batch of *single-stage* pipelines: the same trace shape as the
/// plain-serve equivalence suite (bursty non-decreasing arrivals, a small
/// workload pool, coin-flip deadlines), expressed as pipelines.
fn random_single_stage(seed: u64, count: usize) -> Vec<PipelineRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = specs();
    let mut clock_us = 0.0;
    (0..count)
        .map(|i| {
            if rng.gen_range(0..3u32) > 0 {
                clock_us += rng.gen_range(0..=20u64) as f64 * 0.1;
            }
            let (spec, inputs) = &specs[rng.gen_range(0..specs.len())];
            let blocks = rng.gen_range(1..=3usize);
            let workload = Workload::random(*inputs, blocks, seed ^ rng.gen_range(0..4u64));
            let session = rng.gen_range(0..3u64);
            let mut pipeline = PipelineRequest::new(i as u64, session)
                .at(clock_us)
                .stage(PipelineStage::new(spec.clone(), workload));
            if rng.gen_bool(0.5) {
                let budget = rng.gen_range(1..=30u64) as f64 * 0.1 * 4.0;
                pipeline = pipeline.with_deadline(clock_us + budget);
            }
            pipeline
        })
        .collect()
}

/// Random multi-stage chains (depth 1..=4) with inter-stage activations,
/// spread over `sessions` tenants.
fn random_chains(seed: u64, count: usize, sessions: u64) -> Vec<PipelineRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A1);
    let specs = specs();
    let mut clock_us = 0.0;
    (0..count)
        .map(|i| {
            clock_us += rng.gen_range(0..=30u64) as f64 * 0.1;
            let depth = rng.gen_range(1..=4usize);
            let session = rng.gen_range(0..sessions);
            // Ids start at 1: pipeline 0's packed stage ids (0 << 16 | s)
            // would collide with the single-stage pipelines' plain ids.
            let mut pipeline = PipelineRequest::new(i as u64 + 1, session).at(clock_us);
            for stage in 0..depth {
                let (spec, inputs) = &specs[(i + stage) % specs.len()];
                let workload = Workload::random(*inputs, 2, seed ^ (i as u64) ^ stage as u64);
                let mut built =
                    PipelineStage::new(spec.clone(), workload).emits(1 << rng.gen_range(10..18u32));
                if stage > 0 {
                    built = built.after(&[stage - 1]);
                }
                pipeline = pipeline.stage(built);
            }
            pipeline
        })
        .collect()
}

/// A random fault schedule that never touches device 0, so at least one
/// device stays serviceable throughout (mirrors the fault-tolerance suite).
fn random_plan(seed: u64, devices: usize, horizon_us: f64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut frac = move || draw.gen_range(0..1_000u64) as f64 / 1_000.0;
    let mut plan = FaultPlan::new();
    for device in 1..devices {
        match rng.gen_range(0..3u32) {
            0 => {} // spared
            1 => {
                let at = frac() * horizon_us;
                plan = plan.kill(at, device);
                if rng.gen_bool(0.6) {
                    plan = plan.revive(at + frac() * horizon_us, device);
                }
            }
            _ => {
                let at = frac() * horizon_us;
                plan = plan.drain(at, device);
                if rng.gen_bool(0.6) {
                    plan = plan.undrain(at + frac() * horizon_us, device);
                }
            }
        }
    }
    plan
}

/// Every observable of two cluster serves must match exactly — including
/// the per-device breakdown and the recorded trace.
fn assert_cluster_reports_identical(a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.outcomes().len(), b.outcomes().len());
    for (lhs, rhs) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(lhs.request_id, rhs.request_id);
        assert_eq!(lhs.device, rhs.device);
        assert_eq!(lhs.tile, rhs.tile);
        assert_eq!(lhs.start_us.to_bits(), rhs.start_us.to_bits());
        assert_eq!(lhs.completion_us.to_bits(), rhs.completion_us.to_bits());
        assert_eq!(lhs.queued_us.to_bits(), rhs.queued_us.to_bits());
        assert_eq!(lhs.latency_us.to_bits(), rhs.latency_us.to_bits());
        assert_eq!(lhs.switched, rhs.switched);
        assert_eq!(lhs.missed_deadline, rhs.missed_deadline);
    }
    assert_eq!(a.rejected(), b.rejected());
    assert_eq!(a.metrics(), b.metrics());
    assert_eq!(a.device_metrics(), b.device_metrics());
    assert_eq!(a.trace(), b.trace());
}

/// Every submitted stage of every pipeline shows up exactly once across
/// the underlying cluster outcomes and rejects, and every pipeline gets
/// exactly one pipeline-level outcome.
fn assert_stage_zero_loss(report: &PipelineReport, pipelines: &[PipelineRequest]) {
    let total_stages: usize = pipelines.iter().map(|p| p.stages.len()).sum();
    let mut seen = std::collections::HashSet::new();
    for outcome in report.cluster.outcomes() {
        assert!(
            seen.insert(outcome.request_id),
            "stage {} completed twice",
            outcome.request_id
        );
    }
    for reject in report.cluster.rejected() {
        assert!(
            seen.insert(reject.id),
            "stage {} both completed and rejected",
            reject.id
        );
    }
    assert_eq!(
        seen.len(),
        total_stages,
        "{total_stages} stages submitted, {} accounted for",
        seen.len()
    );
    assert_eq!(report.pipelines.len(), pipelines.len());
    for (pipeline, outcome) in pipelines.iter().zip(&report.pipelines) {
        assert_eq!(pipeline.id, outcome.id);
        assert_eq!(pipeline.stages.len(), outcome.stages);
        if !outcome.rejected {
            assert_eq!(
                outcome.completed_stages, outcome.stages,
                "pipeline {} claims completion with missing stages",
                outcome.id
            );
            for stage in 0..pipeline.stages.len() {
                let id = pipeline.stage_request_id(stage);
                assert!(
                    report.cluster.outcomes().iter().any(|o| o.request_id == id),
                    "completed pipeline {} lost stage {stage}",
                    outcome.id
                );
            }
        }
        assert!(
            outcome.commit_us >= outcome.finish_us,
            "commit before finish on pipeline {}",
            outcome.id
        );
    }
    let class_total: usize = report.classes.iter().map(|c| c.pipelines).sum();
    assert_eq!(
        class_total,
        pipelines.len(),
        "class breakdown drops pipelines"
    );
}

#[test]
fn a_diamond_dag_respects_dependencies_and_commits_in_order() {
    let specs = specs();
    let pipeline = PipelineRequest::new(7, 1)
        .stage(PipelineStage::new(specs[0].0.clone(), Workload::random(3, 2, 1)).emits(4096))
        .stage(
            PipelineStage::new(specs[1].0.clone(), Workload::random(1, 2, 2))
                .after(&[0])
                .emits(4096),
        )
        .stage(
            PipelineStage::new(specs[3].0.clone(), Workload::random(1, 2, 3))
                .after(&[0])
                .emits(4096),
        )
        .stage(PipelineStage::new(specs[2].0.clone(), Workload::random(5, 2, 4)).after(&[1, 2]));
    let mut cluster = cluster(2, 2, RoutePolicy::PowerOfTwoChoices);
    let report = cluster
        .serve_pipelines(vec![pipeline.clone()], &[Session::new(1)])
        .unwrap();
    assert_eq!(report.completed(), 1);
    let outcome = &report.pipelines[0];
    assert_eq!(outcome.completed_stages, 4);
    assert!(outcome.commit_us >= outcome.finish_us);
    let finish = |stage: usize| {
        let id = pipeline.stage_request_id(stage);
        let o = report
            .cluster
            .outcomes()
            .iter()
            .find(|o| o.request_id == id)
            .expect("stage served");
        (o.start_us, o.completion_us)
    };
    // Source before the two arms, both arms before the join.
    for arm in [1, 2] {
        assert!(finish(arm).0 >= finish(0).1, "arm {arm} started early");
        assert!(finish(3).0 >= finish(arm).1, "join outran arm {arm}");
    }
    // Four depth buckets is wrong for a diamond: 0, 1, 1, 2.
    assert_eq!(report.stages.len(), 3);
    assert_eq!(report.stages[1].served, 2, "both arms sit at depth 1");
}

#[test]
fn commits_within_a_session_follow_submission_order() {
    let specs = specs();
    // Pipeline 0 is a deep chain; pipeline 1 is a trivial single stage that
    // finishes long before it. In-order commit must hold 1 back.
    let deep = PipelineRequest::chain(
        0,
        9,
        (0..4).map(|i| {
            let (spec, inputs) = &specs[i % specs.len()];
            (spec.clone(), Workload::random(*inputs, 3, i as u64))
        }),
    );
    let quick = PipelineRequest::new(1, 9).stage(PipelineStage::new(
        specs[1].0.clone(),
        Workload::random(1, 1, 99),
    ));
    let mut cluster = cluster(2, 1, RoutePolicy::LeastLoaded);
    let report = cluster
        .serve_pipelines(vec![deep, quick], &[Session::new(9)])
        .unwrap();
    assert_eq!(report.completed(), 2);
    let [first, second] = &report.pipelines[..] else {
        panic!("two pipeline outcomes");
    };
    assert!(
        second.finish_us < first.finish_us,
        "the single stage should finish first ({} vs {})",
        second.finish_us,
        first.finish_us
    );
    assert!(
        second.commit_us >= first.commit_us,
        "commit order must follow submission order"
    );
    assert!(
        second.commit_us > second.finish_us,
        "the quick pipeline waited"
    );
}

#[test]
fn stage_affinity_reduces_activation_transfers_under_kernel_hash() {
    // Under KernelHash each stage's kernel homes on a different device, so
    // routing alone would pay a transfer on every edge. A plain serve of one
    // request per kernel shows where each kernel homes.
    let specs = specs();
    let homes: Vec<usize> = specs[..3]
        .iter()
        .enumerate()
        .map(|(id, (spec, inputs))| {
            let request = Request::new(id as u64, spec.clone(), Workload::random(*inputs, 1, 0));
            cluster(4, 1, RoutePolicy::KernelHash)
                .serve(vec![request])
                .unwrap()
                .outcomes()[0]
                .device
        })
        .collect();
    assert!(homes.windows(2).all(|edge| edge[0] != edge[1]), "{homes:?}");
    let pipelines: Vec<PipelineRequest> = (0..8)
        .map(|i| {
            PipelineRequest::chain(
                i,
                i % 2,
                (0..3).map(|s| {
                    let (spec, inputs) = &specs[s % specs.len()];
                    (spec.clone(), Workload::random(*inputs, 2, i ^ s as u64))
                }),
            )
            .at(i as f64 * 3.0)
        })
        .collect();
    let sessions = [Session::new(0), Session::new(1)];
    let affine = cluster(4, 1, RoutePolicy::KernelHash)
        .serve_pipelines(pipelines, &sessions)
        .unwrap();
    assert_eq!(affine.completed(), 8);
    assert_eq!(affine.activation_transfers(), 0);
}

#[test]
fn the_latency_tier_is_shielded_under_admission_pressure() {
    let specs = specs();
    let mut pipelines = Vec::new();
    // A flood of best-effort work at t=0, then a latency-tier burst.
    for i in 0..12u64 {
        pipelines.push(
            PipelineRequest::new(i, 100)
                .stage(PipelineStage::new(
                    specs[0].0.clone(),
                    Workload::random(3, 3, i),
                ))
                .at(0.0),
        );
    }
    for i in 0..4u64 {
        pipelines.push(
            PipelineRequest::new(100 + i, 200)
                .stage(PipelineStage::new(
                    specs[1].0.clone(),
                    Workload::random(1, 1, i),
                ))
                .at(1.0),
        );
    }
    let sessions = [
        Session::new(100).with_slo(SloClass::BestEffort),
        Session::new(200).with_slo(SloClass::Latency),
    ];
    let report = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .with_admission_limit(6)
        .serve_pipelines(pipelines, &sessions)
        .unwrap();
    let latency = report.class(SloClass::Latency).expect("latency class");
    let best_effort = report.class(SloClass::BestEffort).expect("best effort");
    assert_eq!(latency.pipelines, 4);
    assert_eq!(latency.rejected, 0, "the latency tier is shielded");
    assert!(
        best_effort.rejected > 0,
        "best effort absorbs the shed load"
    );
}

/// Stage affinity and SLO admission at fleet scale, on an 8 × 4 V4 fleet.
/// (A) 384 4-stage chains through four suite kernels, 256 KiB activations
/// per edge, stage load ρ ≈ 0.5 under kernel-hash routing, which alone would
/// move every one of the 3 × 384 edges: affinity keeps every successor next
/// to its producer. (B) A best-effort flood of 384 chains at 1.5× the
/// fleet against a paced latency tier of 48 with a 24-service-time budget,
/// through a bounded, slack-aware, least-loaded admission queue: the tier
/// is served in full and on time, and the flood takes the shedding.
#[test]
fn stage_affinity_and_slo_admission_hold_at_fleet_scale() {
    const STAGES: usize = 4;
    let kernels: Vec<(KernelSpec, usize)> = [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Qspline,
        Benchmark::Poly5,
    ]
    .iter()
    .map(|&b| {
        (
            KernelSpec::from_benchmark(b).unwrap(),
            b.dfg().unwrap().num_inputs(),
        )
    })
    .collect();
    // Pipeline `i`'s stages start at kernel `i`, so every edge changes kernel.
    let chain = |i: usize, id: u64, session: u64| {
        (0..STAGES).fold(PipelineRequest::new(id, session), |pipeline, stage| {
            let (spec, inputs) = &kernels[(i + stage) % kernels.len()];
            let workload = Workload::random(*inputs, 1, (i % 8) as u64 ^ (stage as u64) << 8);
            let built = PipelineStage::new(spec.clone(), workload).emits(256 * 1024);
            pipeline.stage(if stage > 0 {
                built.after(&[stage - 1])
            } else {
                built
            })
        })
    };
    let (gradient, gradient_inputs) = &kernels[0];
    let service_us = cluster(1, 1, RoutePolicy::LeastLoaded)
        .serve(vec![Request::new(
            0,
            gradient.clone(),
            Workload::random(*gradient_inputs, 1, 0),
        )])
        .unwrap()
        .outcomes()[0]
        .completion_us;
    let spacing_us = STAGES as f64 * service_us / (32.0 * 0.5);

    let pipelines: Vec<PipelineRequest> = (0..384)
        .map(|i| chain(i, i as u64 + 1, i as u64 % 4).at(i as f64 * spacing_us))
        .collect();
    let sessions: Vec<Session> = (0..4).map(Session::new).collect();
    let affine = cluster(8, 4, RoutePolicy::KernelHash)
        .serve_pipelines(pipelines, &sessions)
        .unwrap();
    assert_eq!(affine.completed(), 384);
    assert_eq!(affine.activation_transfers(), 0);

    let budget_us = 24.0 * service_us;
    let (flood_gap_us, latency_gap_us) = (spacing_us / 3.0, 4.0 * spacing_us);
    let mut mix: Vec<PipelineRequest> = (0..384u64)
        .map(|i| chain(0, i + 1, 100).at(i as f64 * flood_gap_us))
        .chain((0..48u64).map(|i| {
            let arrival = i as f64 * latency_gap_us;
            chain(0, 100_000 + i, 200)
                .at(arrival)
                .with_deadline(arrival + budget_us)
        }))
        .collect();
    mix.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
    let slo_sessions = [
        Session::new(100).with_slo(SloClass::BestEffort),
        Session::new(200).with_slo(SloClass::Latency),
    ];
    let report = cluster(8, 4, RoutePolicy::LeastLoaded)
        .with_policy(DispatchPolicy::SlackAware)
        .with_admission_limit(32)
        .serve_pipelines(mix, &slo_sessions)
        .unwrap();
    let latency = report.class(SloClass::Latency).expect("latency tier ran");
    let best_effort = report.class(SloClass::BestEffort).expect("best effort ran");
    assert_eq!(
        (latency.pipelines, latency.rejected, latency.deadline_misses),
        (48, 0, 0)
    );
    assert!(
        latency.p99_latency_us <= budget_us,
        "latency p99 {:.2} us over its {budget_us:.2} us budget",
        latency.p99_latency_us
    );
    assert_eq!((best_effort.rejected, best_effort.pipelines), (245, 384));
}

#[test]
fn a_mid_serve_kill_loses_no_finished_stage_work() {
    let pipelines = random_chains(0xDEAD, 6, 2);
    let sessions = [Session::new(0), Session::new(1)];
    let report = cluster(3, 1, RoutePolicy::LeastLoaded)
        .with_fault_plan(FaultPlan::new().kill(40.0, 1))
        .serve_pipelines(pipelines.clone(), &sessions)
        .unwrap();
    assert_stage_zero_loss(&report, &pipelines);
    assert_eq!(
        report.completed(),
        pipelines.len(),
        "device 1's work re-ran"
    );
    for outcome in report.cluster.outcomes() {
        assert!(
            outcome.device != 1 || outcome.start_us < 40.0,
            "stage {} started on the dead device after the kill",
            outcome.request_id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All-standard single-stage batches take the lowering fast path and
    /// must reproduce the plain serve **bitwise** — outcomes, rejects,
    /// metrics, device breakdown and the recorded trace — across dispatch
    /// policy × route policy × batching × admission × fault schedules.
    #[test]
    fn single_stage_standard_batches_lower_bitwise_onto_the_plain_serve(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0usize..3,
        batch_pick in 0usize..2,
        limit_pick in 0usize..2,
        fault_pick in 0usize..2,
    ) {
        let pipelines = random_single_stage(seed, count);
        let sessions: Vec<Session> = (0..3).map(Session::new).collect();
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let batching = [BatchConfig::disabled(), BatchConfig::with_max_batch(3)][batch_pick];
        let limit = [usize::MAX, count / 2 + 1][limit_pick];
        let build = || {
            let mut built = cluster(devices, tiles, route)
                .with_policy(policy)
                .with_batching(batching)
                .with_admission_limit(limit)
                .with_tracing(TraceConfig::enabled());
            if fault_pick == 1 {
                built = built.with_fault_plan(random_plan(seed, devices, 60.0));
            }
            built
        };
        let plain_requests: Vec<_> = pipelines.iter().map(|p| p.lower_to_request()).collect();
        let plain = build().serve(plain_requests).unwrap();
        let piped = build().serve_pipelines(pipelines, &sessions).unwrap();
        assert_cluster_reports_identical(&piped.cluster, &plain);
        prop_assert_eq!(piped.pipelines.len(), count);
    }

    /// A mixed-class single-stage batch forces the live session driver, and
    /// the inert stage machinery (no deps, no activations, unlimited
    /// admission) must still reproduce the plain serve's outcomes and
    /// rejects to the bit.
    #[test]
    fn driver_active_single_stage_serves_match_plain_outcomes(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0usize..3,
        fault_pick in 0usize..2,
    ) {
        let pipelines = random_single_stage(seed, count);
        // Session 0 is latency-tier: the batch no longer lowers, the driver
        // runs live. BestEffort is deliberately absent — it would drop its
        // pipelines' deadlines and change the comparison.
        let sessions = vec![
            Session::new(0).with_slo(SloClass::Latency),
            Session::new(1),
            Session::new(2),
        ];
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let build = || {
            let mut built = cluster(devices, tiles, route).with_policy(policy);
            if fault_pick == 1 {
                built = built.with_fault_plan(random_plan(seed, devices, 60.0));
            }
            built
        };
        let plain_requests: Vec<_> = pipelines.iter().map(|p| p.lower_to_request()).collect();
        let plain = build().serve(plain_requests).unwrap();
        let piped = build().serve_pipelines(pipelines, &sessions).unwrap();
        prop_assert_eq!(piped.cluster.outcomes().len(), plain.outcomes().len());
        for (lhs, rhs) in piped.cluster.outcomes().iter().zip(plain.outcomes()) {
            prop_assert_eq!(lhs.request_id, rhs.request_id);
            prop_assert_eq!(lhs.device, rhs.device);
            prop_assert_eq!(lhs.tile, rhs.tile);
            prop_assert_eq!(lhs.start_us.to_bits(), rhs.start_us.to_bits());
            prop_assert_eq!(lhs.completion_us.to_bits(), rhs.completion_us.to_bits());
        }
        prop_assert_eq!(piped.cluster.rejected(), plain.rejected());
    }

    /// Zero loss under random fault schedules: every stage of every
    /// multi-stage pipeline is accounted for exactly once, however the
    /// fleet fails, and completed pipelines kept every stage.
    #[test]
    fn random_fault_schedules_lose_no_pipeline_stages(
        (seed, count, devices) in (any::<u64>(), 4usize..14, 2usize..5),
        route_pick in 0usize..3,
    ) {
        let pipelines = random_chains(seed, count, 3);
        let sessions: Vec<Session> = (0..3)
            .map(|i| Session::new(i).with_slo(SloClass::ALL[i as usize % 3]))
            .collect();
        let report = cluster(devices, 1, RoutePolicy::ALL[route_pick])
            .with_fault_plan(random_plan(seed, devices, 80.0))
            .serve_pipelines(pipelines.clone(), &sessions)
            .unwrap();
        assert_stage_zero_loss(&report, &pipelines);
    }
}
