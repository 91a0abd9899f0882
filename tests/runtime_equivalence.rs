//! Cross-tier equivalence property suite. There is one event loop, compiled
//! in two tiers: `plain` (one device, no fault plan, no session driver —
//! what `Cluster::new(variant, 1, tiles)` runs) and `fleet`. Wherever both
//! can serve the same configuration they must produce **identical** results
//! on every trace — same tile choices, same outcomes (to the bit,
//! including modeled timestamps), same rejects, same metrics, the same trace
//! but for the fleet's route-choice spans — across both `DispatchPolicy`
//! variants, with and without admission pressure, batching and PCAP pools.
//! Any divergence is a bug, not a tolerable approximation.
//!
//! A **1-device [`Cluster`] carrying an empty [`FaultPlan`]** is forced onto
//! the fleet tier (routing collapses, no image is ever acquired, no fault
//! ever fires) and must reproduce the plain one-device [`Cluster`] bitwise
//! on the same randomized traces; and `RoutePolicy::KernelHash` must assign
//! every request of a kernel to the same device on every resubmission.
//!
//! A streamed serve is the batch serve of its submission order, bitwise,
//! on any fleet, fault plan, store size and ingest bound.

mod support;

use proptest::prelude::*;

use support::{assert_serves_identical, audit, random_plan, random_trace, Audited, Known};
use tm_overlay::runtime::SpanKind;
use tm_overlay::{
    BatchConfig, Cluster, DispatchPolicy, FaultPlan, FuVariant, RoutePolicy, ServeReport,
    TraceConfig,
};

/// A traced 1-device [`Cluster`] on the plain tier and one configured like
/// it that an empty fault plan forces onto the fleet tier.
fn runtime_and_one_device_fleet(
    variant: FuVariant,
    tiles: usize,
    policy: DispatchPolicy,
    limit: usize,
) -> (Cluster, Cluster) {
    let build = || {
        Cluster::new(variant, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit)
            .with_tracing(TraceConfig::enabled())
    };
    (build(), build().with_fault_plan(FaultPlan::new()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Admission pressure: the two tiers bound the same waiting count, so
    /// the reject decisions must agree request for request at every limit —
    /// including 0, where only a request that starts at once is admitted.
    #[test]
    fn admission_rejects_are_identical_under_pressure(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        limit in 0usize..6,
    ) {
        let requests = random_trace(seed, count, 2.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let (mut runtime, mut cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, limit);
        let reference = runtime.serve_audited(&requests)?;
        let report = cluster.serve_audited(&requests)?;
        prop_assert!(reference.metrics().rejects + reference.outcomes().len() == count);
        assert_fleet_matches_plain(&report, &reference)?;
    }

    /// The feed-forward variants flip the switch-cost scale to PCAP
    /// milliseconds, changing which placements tie — both tiers must track
    /// that too.
    #[test]
    fn equivalence_holds_on_pcap_pools(
        (seed, count, tiles) in (any::<u64>(), 4usize..16, 2usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 50.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let (mut runtime, mut cluster) =
            runtime_and_one_device_fleet(FuVariant::V1, tiles, policy, usize::MAX);
        let reference = runtime.serve_audited(&requests)?;
        let report = cluster.serve_audited(&requests)?;
        assert_fleet_matches_plain(&report, &reference)?;
    }

    /// A 1-device fleet is the plain 1-device cluster — bit for bit: same tiles, same
    /// modeled timestamps, same rejects, same metrics — under every
    /// (dispatch policy × routing policy) combination and admission limit,
    /// with device 0 stamped on every outcome and zero transfer traffic.
    #[test]
    fn a_one_device_cluster_reproduces_runtime_exactly(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0..RoutePolicy::ALL.len(),
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let (mut runtime, cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, limit);
        let mut cluster = cluster.with_route_policy(route);
        let reference = runtime.serve_audited(&requests)?;
        let report = cluster.serve_audited(&requests)?;
        assert_fleet_matches_plain(&report, &reference)?;
    }

    /// The control plane at its disabled setting (`max_batch = 1`) is
    /// bitwise identical to the pre-control-plane runtime: explicitly
    /// configuring the disabled `BatchConfig` must reproduce the
    /// default-built cluster on
    /// either tier exactly — outcomes, timestamps, rejects and the full
    /// metrics struct (including all-zero batch counters) — under every
    /// policy and admission pressure.
    #[test]
    fn disabled_control_plane_is_bitwise_identical_to_the_baseline(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let mut plain = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit);
        let mut pinned = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit)
            .with_batching(BatchConfig { max_batch: 1, max_hold_us: 0.0 });
        let baseline = plain.serve_audited(&requests)?;
        let disabled = pinned.serve_audited(&requests)?;
        assert_serves_identical(&disabled, &baseline, &[])?;
        prop_assert_eq!(disabled.metrics().batch.batches_formed, 0);
        prop_assert_eq!(disabled.metrics().batch.switches_avoided, 0);

        // And the 1-device fleet with the disabled control plane pinned
        // explicitly still reproduces the runtime bit for bit.
        let (mut reference, cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, limit);
        let mut cluster = cluster.with_batching(BatchConfig { max_batch: 1, max_hold_us: 0.0 });
        let report = cluster.serve_audited(&requests)?;
        let runtime_report = reference.serve_audited(&requests)?;
        assert_fleet_matches_plain(&report, &runtime_report)?;
    }

    /// A batched 1-device fleet mirrors the batched runtime — on the fleet
    /// tier the batching guard also weighs the (zero) acquisition and
    /// activation delays, so both tiers must name the same same-kernel
    /// candidate at every diversion under every dispatch policy.
    #[test]
    fn a_batched_one_device_cluster_reproduces_the_batched_runtime(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        max_batch in 2usize..6,
        hold_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let hold_us = [f64::INFINITY, 50.0, 2.0][hold_pick];
        let config = BatchConfig::with_max_batch(max_batch).with_max_hold_us(hold_us);
        let (runtime, cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, usize::MAX);
        let reference = runtime.with_batching(config).serve_audited(&requests)?;
        let report = cluster.with_batching(config).serve_audited(&requests)?;
        assert_fleet_matches_plain(&report, &reference)?;
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
    /// the same trace — to the same cluster or a fresh one — routes every
    /// request to the same device, and one kernel never spans two devices.
    #[test]
    fn kernel_hash_routing_is_deterministic_under_resubmission(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 4.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let build = || Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_policy(policy)
            .with_route_policy(RoutePolicy::KernelHash);
        let mut cluster = build();
        let first = cluster.serve_audited(&requests)?;
        let resubmitted = cluster.serve_audited(&requests)?;
        let fresh = build().serve_audited(&requests)?;
        let routes = |report: &ServeReport| -> Vec<(u64, usize)> {
            report.outcomes().iter().map(|o| (o.request_id, o.device)).collect()
        };
        prop_assert_eq!(routes(&first), routes(&resubmitted));
        prop_assert_eq!(routes(&resubmitted), routes(&fresh));
        // One kernel, one shard — so sharded kernels never transfer.
        for report in [&first, &resubmitted, &fresh] {
            let mut device_of: std::collections::HashMap<String, usize> =
                std::collections::HashMap::new();
            for outcome in report.outcomes() {
                let device = *device_of
                    .entry(outcome.kernel.to_string())
                    .or_insert(outcome.device);
                prop_assert_eq!(device, outcome.device);
            }
            prop_assert_eq!(report.transfers(), 0);
        }
    }
}

/// The routing decisions only the fleet tier takes.
fn is_route(kind: &SpanKind) -> bool {
    matches!(kind, SpanKind::RouteChoice(_))
}

/// A 1-device fleet serve routed every arrival (to device 0), and but for
/// those routes it is the plain tier's serve, bit for bit. The one device
/// row is the whole story: no transfers and no host loads.
fn assert_fleet_matches_plain(
    fleet: &ServeReport,
    plain: &ServeReport,
) -> Result<(), TestCaseError> {
    let routes = |report: &ServeReport| {
        let events = report.trace().unwrap().events().iter();
        events.filter(|e| is_route(&e.kind)).count()
    };
    prop_assert!(routes(fleet) > 0, "nothing was routed");
    prop_assert!(routes(plain) == 0, "the plain tier routed");
    prop_assert_eq!(fleet.device_metrics().len(), 1);
    let device = &fleet.device_metrics()[0];
    prop_assert_eq!((device.transfers_in, device.host_loads), (0, 0));
    assert_serves_identical(fleet, plain, &[Known::Spans(is_route)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An installed-but-empty [`FaultPlan`] must be bitwise identical to no
    /// plan at all: the fault machinery (eligibility-aware routing,
    /// per-tile run bookkeeping, completion staleness guards) engages on
    /// the empty-plan serve, yet with every device permanently eligible it
    /// must reduce exactly to the legacy path — outcomes, timestamps,
    /// rejects, metrics, the per-device breakdown (availability pinned at
    /// 1.0) and the recorded trace. (From two devices up, where both serves
    /// run the fleet tier; one device is the tier properties above.)
    #[test]
    fn an_empty_fault_plan_is_bitwise_identical_to_no_plan(
        (seed, count, devices, tiles) in (any::<u64>(), 6usize..20, 2usize..5, 1usize..3),
        policy_pick in 0..DispatchPolicy::ALL.len(),
        route_pick in 0..RoutePolicy::ALL.len(),
        limit_pick in 0usize..3,
        batch_pick in 0usize..2,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let batching = [BatchConfig::disabled(), BatchConfig::with_max_batch(3)][batch_pick];
        let build = || Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_policy(policy)
            .with_route_policy(route)
            .with_admission_limit(limit)
            .with_batching(batching)
            .with_tracing(TraceConfig::enabled());
        let mut plain = build();
        let mut pinned = build().with_fault_plan(FaultPlan::new());
        prop_assert!(pinned.fault_plan().is_some_and(FaultPlan::is_empty));
        let a = plain.serve_audited(&requests)?;
        let b = pinned.serve_audited(&requests)?;
        assert_serves_identical(&a, &b, &[])?;
        prop_assert_eq!(b.requeues(), 0);
        prop_assert_eq!(b.faults(), 0);
        prop_assert_eq!(b.lost_work_us(), 0.0);
        prop_assert_eq!(b.availability(), vec![1.0; devices]);
        // Warm resubmission stays pinned too.
        let a2 = plain.serve_audited(&requests)?;
        let b2 = pinned.serve_audited(&requests)?;
        assert_serves_identical(&a2, &b2, &[])?;
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
