//! Session-tier integration suite: multi-kernel pipeline DAGs, SLO
//! classes, stage-affinity routing and in-order commit, served end-to-end
//! through [`Cluster::serve_pipelines`].
//!
//! The property half pins the tier's two contracts:
//!
//! * **equivalence** — with no admission limit, a batch of single-stage
//!   pipelines serves its stages exactly as the plain [`Cluster::serve`]
//!   of the same requests, across dispatch policy × route policy ×
//!   batching × fault schedules (an all-standard batch must match every
//!   observable but the pipeline serve's own additions, its SLO admission
//!   spans and stage-batch count; a mixed-class batch must still reproduce
//!   outcomes and rejects to the bit). Under a limit the pipeline serve
//!   splits it across sessions, which the plain serve does not:
//!   `a_single_stage_flood_is_capped_at_its_fair_share` pins that;
//! * **zero loss** — under random fault schedules, every submitted stage of
//!   every pipeline is accounted for exactly once across outcomes and
//!   rejects, and every pipeline gets exactly one outcome.
//!
//! [`Cluster::serve`]: tm_overlay::Cluster::serve
//! [`Cluster::serve_pipelines`]: tm_overlay::Cluster::serve_pipelines

mod support;

use std::collections::HashSet;

use proptest::prelude::*;
use rand::prelude::*;

use support::{
    assert_serves_identical, cluster, dsl_kernels, random_plan, service_us, stage_requests,
    suite_kernel, Audited, Known,
};
use tm_overlay::runtime::SpanKind;
use tm_overlay::{
    explain, BatchConfig, Benchmark, Cluster, DispatchPolicy, FaultPlan, FuVariant, KernelSpec,
    PipelineRequest, PipelineStage, Request, RoutePolicy, Session, SloClass, TraceConfig, Workload,
};

/// The random traces' kernels and a fourth, each with its input count.
fn specs() -> Vec<(KernelSpec, usize)> {
    let cheb = KernelSpec::from_source("cheb", "kernel cheb(x) { out t = 2 * x * x - 1; }");
    dsl_kernels().into_iter().chain([(cheb, 1)]).collect()
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
            let mut pipeline = PipelineRequest::new(i as u64, session).at(clock_us);
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
        .serve_pipelines_audited(std::slice::from_ref(&pipeline), &[Session::new(1)])
        .unwrap();
    // The audit holds the source before the two arms and both arms before
    // the join, and the commit to the finish.
    assert_eq!(report.completed(), 1);
    assert_eq!(report.pipelines[0].completed_stages, 4);
    // Four depth buckets is wrong for a diamond: 0, 1, 1, 2.
    assert_eq!(report.stages.len(), 3);
    assert_eq!(report.stages[1].served, 2, "both arms sit at depth 1");
}

/// Session 9's pipeline 0, a deep chain, and pipeline 1, a trivial single
/// stage that finishes long before it.
fn deep_and_quick() -> [PipelineRequest; 2] {
    let specs = specs();
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
    [deep, quick]
}

#[test]
fn commits_within_a_session_follow_submission_order() {
    // In-order commit must hold the quick pipeline back.
    let mut cluster = cluster(2, 1, RoutePolicy::PowerOfTwoChoices);
    let report = cluster
        .serve_pipelines_audited(&deep_and_quick(), &[Session::new(9)])
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

/// Every stage id packs its pipeline's id, so a chain's stage 1 and a
/// single-stage pipeline 1 report apart, and each one's latency breakdown
/// reads its own spans alone.
#[test]
fn a_chain_and_a_single_stage_pipeline_report_apart() {
    let report = cluster(2, 1, RoutePolicy::PowerOfTwoChoices)
        .with_tracing(TraceConfig::enabled())
        .serve_pipelines_audited(&deep_and_quick(), &[Session::new(9)])
        .unwrap();
    let outcomes = report.cluster.outcomes();
    let ids: HashSet<u64> = outcomes.iter().map(|o| o.request_id).collect();
    assert_eq!((ids.len(), outcomes.len()), (5, 5), "{ids:?}");
    let rows = explain(report.cluster.trace().unwrap());
    for outcome in outcomes {
        let id = outcome.request_id;
        let row = rows.for_request(id).unwrap();
        assert_eq!(
            row.latency_us.to_bits(),
            outcome.latency_us.to_bits(),
            "{id}"
        );
        assert_eq!((row.displaced_us, row.requeues), (0.0, 0), "{id}");
    }
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
                .serve_audited(&[request])
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
        .serve_pipelines_audited(&pipelines, &sessions)
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
        .serve_pipelines_audited(&pipelines, &sessions)
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

/// Weighted-fair admission holds for single-stage, all-standard batches
/// too. On one single-tile device with admission limit 6, two standard
/// sessions (weight 2 each) may each hold `max(1, ⌊6·2/4⌋) = 3` waiting
/// stages: session 0's flood at t = 0 starts one and queues three, and
/// session 1, arriving just after, still finds room for all of its own.
#[test]
fn a_single_stage_flood_is_capped_at_its_fair_share() {
    const LIMIT: usize = 6;
    let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
    let single = |id: u64, session: u64, arrival_us: f64| {
        PipelineRequest::new(id, session)
            .at(arrival_us)
            .stage(PipelineStage::new(
                spec.clone(),
                Workload::random(5, 64, id),
            ))
    };
    let pipelines: Vec<PipelineRequest> = (0..12)
        .map(|id| single(id, 0, 0.0))
        .chain((12..15).map(|id| single(id, 1, 1.0)))
        .collect();
    let report = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .with_admission_limit(LIMIT)
        .serve_pipelines_audited(&pipelines, &[Session::new(0), Session::new(1)])
        .unwrap();
    let first_done_us = report.cluster.outcomes()[0].completion_us;
    assert!(
        first_done_us > 1.0,
        "session 1 arrives while the tile is busy"
    );
    let admitted = |session: u64| {
        let of_session = report.pipelines.iter().filter(|p| p.session == session);
        of_session.filter(|p| !p.rejected).count()
    };
    let weight = SloClass::Standard.weight() as usize;
    let share = (LIMIT * weight / (2 * weight)).max(1);
    assert_eq!(share, 3);
    assert_eq!(admitted(0), 1 + share, "one starts at once, a share waits");
    assert_eq!(admitted(1), 3, "session 1 is admitted in full");
}

/// Stage affinity and SLO admission at fleet scale, on an 8 × 4 V4 fleet.
/// (A) 384 4-stage chains through four suite kernels, 256 KiB activations
/// per edge, stage load ρ ≈ 0.5 under kernel-hash routing, which alone would
/// move every one of the 3 × 384 edges: affinity keeps every successor next
/// to its producer. (B) A best-effort flood of 384 chains at 1.5× the
/// fleet against a paced latency tier of 48 with a 24-service-time budget,
/// through a bounded, slack-aware, power-of-two admission queue: the tier
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
    .map(suite_kernel)
    .into();
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
    let probe = Request::new(
        0,
        gradient.clone(),
        Workload::random(*gradient_inputs, 1, 0),
    );
    let service_us = service_us(FuVariant::V4, probe);
    let spacing_us = STAGES as f64 * service_us / (32.0 * 0.5);

    let pipelines: Vec<PipelineRequest> = (0..384)
        .map(|i| chain(i, i as u64 + 1, i as u64 % 4).at(i as f64 * spacing_us))
        .collect();
    let sessions: Vec<Session> = (0..4).map(Session::new).collect();
    let affine = cluster(8, 4, RoutePolicy::KernelHash)
        .serve_pipelines_audited(&pipelines, &sessions)
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
    let report = cluster(8, 4, RoutePolicy::PowerOfTwoChoices)
        .with_policy(DispatchPolicy::SlackAware)
        .with_admission_limit(32)
        .serve_pipelines_audited(&mix, &slo_sessions)
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
    assert_eq!((best_effort.rejected, best_effort.pipelines), (276, 384));
}

#[test]
fn a_mid_serve_kill_loses_no_finished_stage_work() {
    let pipelines = random_chains(0xDEAD, 6, 2);
    let sessions = [Session::new(0), Session::new(1)];
    let report = cluster(3, 1, RoutePolicy::PowerOfTwoChoices)
        .with_fault_plan(FaultPlan::new().kill(40.0, 1))
        .serve_pipelines_audited(&pipelines, &sessions)
        .unwrap();
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

    /// All-standard single-stage batches with no admission limit must
    /// reproduce the plain serve **bitwise** — outcomes, rejects, metrics,
    /// device breakdown and the recorded trace, but for the pipeline
    /// serve's own additions — across dispatch policy × route policy ×
    /// batching × fault schedules.
    #[test]
    fn single_stage_standard_batches_lower_bitwise_onto_the_plain_serve(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0..RoutePolicy::ALL.len(),
        batch_pick in 0usize..2,
        fault_pick in 0usize..2,
    ) {
        let pipelines = random_single_stage(seed, count);
        let sessions: Vec<Session> = (0..3).map(Session::new).collect();
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let batching = [BatchConfig::disabled(), BatchConfig::with_max_batch(3)][batch_pick];
        let build = || {
            let mut built = cluster(devices, tiles, route)
                .with_policy(policy)
                .with_batching(batching)
                .with_tracing(TraceConfig::enabled());
            if fault_pick == 1 {
                built = built.with_fault_plan(random_plan(seed, devices, 60.0));
            }
            built
        };
        let plain = build().serve_audited(&stage_requests(&pipelines, &sessions))?;
        let piped = build().serve_pipelines_audited(&pipelines, &sessions)?;
        let known = [Known::StageBatched, Known::Spans(|kind| matches!(kind, SpanKind::SloAdmit { .. }))];
        assert_serves_identical(&piped.cluster, &plain, &known)?;
        prop_assert_eq!(piped.pipelines.len(), count);
    }

    /// In a mixed-class single-stage batch the inert stage machinery (no
    /// deps, no activations, unlimited admission) must still reproduce the
    /// plain serve's outcomes and rejects to the bit.
    #[test]
    fn driver_active_single_stage_serves_match_plain_outcomes(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0..RoutePolicy::ALL.len(),
        fault_pick in 0usize..2,
    ) {
        let pipelines = random_single_stage(seed, count);
        // Session 0 is latency-tier. BestEffort is deliberately absent — it
        // would drop its pipelines' deadlines and change the comparison.
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
        let plain = build().serve_audited(&stage_requests(&pipelines, &sessions))?;
        let piped = build().serve_pipelines_audited(&pipelines, &sessions)?;
        assert_serves_identical(&piped.cluster, &plain, &[])?;
    }

    /// Zero loss under random fault schedules: every stage of every
    /// multi-stage pipeline is accounted for exactly once, however the
    /// fleet fails, and completed pipelines kept every stage.
    #[test]
    fn random_fault_schedules_lose_no_pipeline_stages(
        (seed, count, devices) in (any::<u64>(), 4usize..14, 2usize..5),
        route_pick in 0..RoutePolicy::ALL.len(),
    ) {
        let pipelines = random_chains(seed, count, 3);
        let sessions: Vec<Session> = (0..3)
            .map(|i| Session::new(i).with_slo(SloClass::ALL[i as usize % 3]))
            .collect();
        cluster(devices, 1, RoutePolicy::ALL[route_pick])
            .with_fault_plan(random_plan(seed, devices, 80.0))
            .serve_pipelines_audited(&pipelines, &sessions)?;
    }
}
