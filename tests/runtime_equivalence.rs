//! Every serve is the reference serve, and the properties the reference
//! does not state. There is one event loop, compiled in two tiers: `plain`
//! (one device, no fault plan, no session driver — what
//! `Cluster::new(variant, 1, tiles)` runs) and `fleet` (an empty
//! [`FaultPlan`] forces one device onto it). Each tier is held to
//! `support::reference` **bitwise** on randomized traces — same verdicts,
//! devices, tiles, starts, ends and switches, same per-device counters —
//! across both `DispatchPolicy` and both `RoutePolicy` variants, finite and
//! infinite admission limits, batching, image stores that evict, random
//! fault plans and PCAP pools. Any divergence is a bug, not a tolerable
//! approximation. Six smaller properties aim the same check at one axis
//! each — admission pressure, PCAP pools, routing on one device, the
//! disabled and the enabled control plane, an empty fault plan — and also
//! hold the two tiers (or the two plans) to each other on what the
//! reference does not model: the full metrics, results, outputs and trace,
//! the fleet's route-choice spans aside.
//!
mod support;

use proptest::prelude::*;

use support::reference::Facts;
use support::{
    assert_serves_identical, audit, check_serve, random_plan, random_trace, Audited, Known,
};
use tm_overlay::runtime::SpanKind;
use tm_overlay::{
    BatchConfig, Cluster, DispatchPolicy, FaultPlan, FuVariant, Request, RoutePolicy, ServeReport,
    TraceConfig,
};

/// The routing decisions only the fleet tier takes.
fn is_route(kind: &SpanKind) -> bool {
    matches!(kind, SpanKind::RouteChoice(_))
}

/// Serves `requests` on both tiers of the traced one-device cluster `build`
/// makes — as built (the plain tier) and forced onto the fleet tier by an
/// empty fault plan — and holds each to the reference serve. Only the fleet
/// tier routes, its one device never acquires an image, and but for those
/// routes the two serves are identical in every field the reference does
/// not model too: the full metrics, results, outputs and trace. Returns the
/// fleet serve.
fn check_both_tiers(
    build: impl Fn() -> Cluster,
    requests: &[Request],
) -> Result<ServeReport, TestCaseError> {
    let mut facts = Facts::default();
    let traced = || build().with_tracing(TraceConfig::enabled());
    let plain = check_serve(traced(), requests, &mut facts)?;
    let fleet = check_serve(
        traced().with_fault_plan(FaultPlan::new()),
        requests,
        &mut facts,
    )?;
    let routes = |report: &ServeReport| {
        let events = report.trace().unwrap().events().iter();
        events.filter(|e| is_route(&e.kind)).count()
    };
    prop_assert!(routes(&plain) == 0, "the plain tier routed");
    prop_assert!(routes(&fleet) > 0, "nothing was routed");
    prop_assert_eq!(fleet.device_metrics().len(), 1);
    let device = &fleet.device_metrics()[0];
    prop_assert_eq!((device.transfers_in, device.host_loads), (0, 0));
    assert_serves_identical(&fleet, &plain, &[Known::Spans(is_route)])?;
    Ok(fleet)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every serve is the reference serve, bit for bit: 1–4 devices of 1–3
    /// tiles on V4 or V1 (PCAP) pools, every dispatch and route policy,
    /// admission limits from 0 to unlimited, batching off (by default or
    /// pinned off explicitly), capped or with a staleness bound, image stores of 1, 2 or 64 kernels, and no fault
    /// plan (a one-device cluster then serves on the plain tier), an empty
    /// one (the fleet tier) or a random one.
    #[test]
    fn every_serve_matches_the_reference(
        (seed, count) in (any::<u64>(), 1usize..24),
        (devices, tiles, pcap) in (1usize..5, 1usize..4, any::<bool>()),
        (dispatch, route, limit) in (0..DispatchPolicy::ALL.len(), 0..RoutePolicy::ALL.len(), 0usize..4),
        (batching, store, plan) in (0usize..4, 0usize..3, 0usize..3),
    ) {
        let (variant, deadline_scale_us) = match pcap {
            true => (FuVariant::V1, 3_000.0),
            false => (FuVariant::V4, 3.0),
        };
        let requests = random_trace(seed, count, deadline_scale_us);
        let cluster = Cluster::new(variant, devices, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[dispatch])
            .with_route_policy(RoutePolicy::ALL[route])
            .with_admission_limit([usize::MAX, 4, 1, 0][limit])
            .with_batching([
                BatchConfig::disabled(),
                BatchConfig { max_batch: 1, max_hold_us: 0.0 },
                BatchConfig::with_max_batch(3),
                BatchConfig::with_max_batch(2).with_max_hold_us(2.0),
            ][batching])
            .with_cache_capacity([64, 2, 1][store])
            .unwrap();
        let cluster = match plan {
            0 => cluster,
            1 => cluster.with_fault_plan(FaultPlan::new()),
            _ => cluster.with_fault_plan(random_plan(seed ^ 1, devices, 20.0)),
        };
        check_serve(cluster, &requests, &mut Facts::default())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Admission pressure: both tiers bound the waiting count as the
    /// reference does, so every reject decision is the reference's at every
    /// limit — including 0, where only a request that starts at once is
    /// admitted.
    #[test]
    fn admission_rejects_are_identical_under_pressure(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        limit in 0usize..6,
    ) {
        let requests = random_trace(seed, count, 2.0);
        let build = || Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick])
            .with_admission_limit(limit);
        let report = check_both_tiers(build, &requests)?;
        prop_assert!(report.metrics().rejects + report.outcomes().len() == count);
    }

    /// The feed-forward variants flip the switch-cost scale to PCAP
    /// milliseconds, changing which placements tie — both tiers must track
    /// that as the reference does.
    #[test]
    fn equivalence_holds_on_pcap_pools(
        (seed, count, tiles) in (any::<u64>(), 4usize..16, 2usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 50.0);
        let build = || Cluster::new(FuVariant::V1, 1, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick]);
        check_both_tiers(build, &requests)?;
    }

    /// A one-device cluster is the reference serve on either tier, bit for
    /// bit, under every (dispatch policy × routing policy) combination and
    /// admission limit, with device 0 stamped on every outcome.
    #[test]
    fn a_one_device_cluster_reproduces_runtime_exactly(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0..RoutePolicy::ALL.len(),
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let build = || Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick])
            .with_route_policy(RoutePolicy::ALL[route_pick])
            .with_admission_limit([usize::MAX, 4, 1][limit_pick]);
        let report = check_both_tiers(build, &requests)?;
        prop_assert!(report.outcomes().iter().all(|o| o.device == 0));
    }

    /// The control plane at its disabled setting (`max_batch = 1`) is the
    /// default-built cluster: pinning the disabled `BatchConfig` explicitly
    /// serves the reference on either tier and is the unpinned serve bit for
    /// bit — outcomes, rejects, the full metrics and the trace — forming no
    /// batch and avoiding no switch, under every policy and admission
    /// pressure.
    #[test]
    fn disabled_control_plane_is_bitwise_identical_to_the_baseline(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let build = || Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick])
            .with_admission_limit([usize::MAX, 4, 1][limit_pick]);
        let baseline = check_both_tiers(build, &requests)?;
        let pinned = || build().with_batching(BatchConfig { max_batch: 1, max_hold_us: 0.0 });
        let report = check_both_tiers(pinned, &requests)?;
        assert_serves_identical(&report, &baseline, &[])?;
        prop_assert_eq!(report.metrics().batch.batches_formed, 0);
        prop_assert_eq!(report.metrics().batch.switches_avoided, 0);
    }

    /// A batched one-device cluster is the batched reference on either tier
    /// — on the fleet tier the batching guard also weighs the (zero)
    /// acquisition and activation delays, so both tiers must name the
    /// reference's same-kernel candidate at every diversion under every
    /// dispatch policy and staleness bound.
    #[test]
    fn a_batched_one_device_cluster_reproduces_the_batched_runtime(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        max_batch in 2usize..6,
        hold_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let hold_us = [f64::INFINITY, 50.0, 2.0][hold_pick];
        let build = || Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick])
            .with_batching(BatchConfig::with_max_batch(max_batch).with_max_hold_us(hold_us));
        check_both_tiers(build, &requests)?;
    }

    /// An installed-but-empty [`FaultPlan`] fires nothing: the fault
    /// machinery engages on the empty-plan serve, yet with every device
    /// permanently eligible both serves are the reference serve, every
    /// device stays available, and a warm resubmission of the two is still
    /// the same serve, span for span. (From two devices up, where both
    /// serves run the fleet tier; one device is the tier properties above.)
    #[test]
    fn an_empty_fault_plan_is_bitwise_identical_to_no_plan(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0..RoutePolicy::ALL.len(),
        limit_pick in 0usize..3,
        batch_pick in 0usize..2,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let batching = [BatchConfig::disabled(), BatchConfig::with_max_batch(3)][batch_pick];
        let build = || Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick])
            .with_route_policy(RoutePolicy::ALL[route_pick])
            .with_admission_limit([usize::MAX, 4, 1][limit_pick])
            .with_batching(batching)
            .with_tracing(TraceConfig::enabled());
        let mut facts = Facts::default();
        let a = check_serve(build(), &requests, &mut facts)?;
        let pinned = build().with_fault_plan(FaultPlan::new());
        prop_assert!(pinned.fault_plan().is_some_and(FaultPlan::is_empty));
        let b = check_serve(pinned, &requests, &mut facts)?;
        assert_serves_identical(&a, &b, &[])?;
        prop_assert_eq!(b.lost_work_us(), 0.0);
        prop_assert_eq!(b.availability(), vec![1.0; devices]);
        // Warm resubmission stays pinned too.
        let (mut plain, mut pinned) = (build(), build().with_fault_plan(FaultPlan::new()));
        plain.serve_audited(&requests)?;
        pinned.serve_audited(&requests)?;
        let a2 = plain.serve_audited(&requests)?;
        let b2 = pinned.serve_audited(&requests)?;
        assert_serves_identical(&a2, &b2, &[])?;
    }

    /// Batching reorders *when* requests run, never *what* they compute:
    /// with unconstrained admission the batched serve completes the same
    /// request set with identical functional outputs per request.
    #[test]
    fn batching_preserves_functional_results(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        max_batch in 2usize..8,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let mut plain = Cluster::new(FuVariant::V4, 1, tiles).unwrap().with_policy(policy);
        let mut batched = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_batching(BatchConfig::with_max_batch(max_batch));
        let baseline = plain.serve_audited(&requests)?;
        let report = batched.serve_audited(&requests)?;
        prop_assert_eq!(report.outcomes().len(), baseline.outcomes().len());
        let by_id = |r: &ServeReport| -> std::collections::HashMap<u64, Vec<Vec<tm_overlay::dfg::Value>>> {
            r.outcomes()
                .iter()
                .map(|o| (o.request_id, o.outputs().to_vec()))
                .collect()
        };
        prop_assert_eq!(by_id(&report), by_id(&baseline));
    }

    /// Kernel-hash routing is a pure function of the kernel: resubmitting
    /// the same trace — to the same, now warm, cluster or a fresh one —
    /// routes every request to the device the reference serve of a fresh
    /// one does, and one kernel never spans two devices, so no serve
    /// transfers an image and the warm one loads none from the host.
    #[test]
    fn kernel_hash_routing_is_deterministic_under_resubmission(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 4.0);
        let build = || Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::ALL[policy_pick])
            .with_route_policy(RoutePolicy::KernelHash);
        let fresh = check_serve(build(), &requests, &mut Facts::default())?;
        let mut cluster = build();
        let first = cluster.serve_audited(&requests)?;
        let resubmitted = cluster.serve_audited(&requests)?;
        let routes = |report: &ServeReport| -> Vec<(u64, usize)> {
            report.outcomes().iter().map(|o| (o.request_id, o.device)).collect()
        };
        prop_assert_eq!(routes(&first), routes(&fresh));
        prop_assert_eq!(routes(&resubmitted), routes(&fresh));
        for report in [&first, &resubmitted, &fresh] {
            let mut device_of = std::collections::HashMap::new();
            for outcome in report.outcomes() {
                let device = *device_of.entry(outcome.kernel.to_string()).or_insert(outcome.device);
                prop_assert_eq!(device, outcome.device);
            }
            prop_assert_eq!(report.transfers(), 0);
        }
        prop_assert_eq!(resubmitted.host_loads(), 0);
    }

    /// A streamed serve is the batch serve of its submission order, bit for
    /// bit and span for span, however the feeder races the loop and
    /// whatever the ingest channel's bound: every serve pulls request k at
    /// the same point of its event sequence, so which store a compile warms
    /// and which device a fault leaves a kernel's home on never depend on
    /// host timing.
    #[test]
    fn a_streamed_serve_equals_the_batch_serve_of_its_sequence(
        (seed, count, devices, tiles) in (any::<u64>(), 4usize..24, 1usize..5, 1usize..4),
        (route_pick, cache_pick, ingest_pick) in (0..RoutePolicy::ALL.len(), 0usize..3, 0usize..3),
        faulted in any::<bool>(),
    ) {
        let requests = random_trace(seed, count, 3.0);
        let build = || {
            let cluster = Cluster::new(FuVariant::V4, devices, tiles)
                .unwrap()
                .with_route_policy(RoutePolicy::ALL[route_pick])
                .with_cache_capacity([1, 2, 64][cache_pick])
                .unwrap()
                .with_ingest_capacity([0, 2, 64][ingest_pick])
                .with_tracing(TraceConfig::enabled());
            match faulted {
                true => cluster.with_fault_plan(random_plan(seed ^ 1, devices, 20.0)),
                false => cluster,
            }
        };
        let batch = build().serve_audited(&requests)?;
        let streamed = build().serve_stream(|submitter| {
            let _ = requests.iter().try_for_each(|r| submitter.submit(r.clone()));
        });
        let streamed = streamed.map_err(|e| TestCaseError::fail(e.to_string()))?;
        audit(&requests, &streamed)?;
        assert_serves_identical(&batch, &streamed, &[])?;
    }
}
