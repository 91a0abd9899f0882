//! Cross-tier equivalence property suite. There is one event loop, compiled
//! in two tiers: `plain` (one device, no fault plan, no session driver,
//! replication off — what a [`Runtime`] always runs) and `fleet`. Wherever
//! both can serve the same configuration they must produce **identical**
//! results on every trace — same tile choices, same outcomes (to the bit,
//! including modeled timestamps), same rejects, same metrics, the same trace
//! but for the fleet's route-choice spans — across all four `DispatchPolicy`
//! variants, with and without admission pressure, batching and PCAP pools.
//! Any divergence is a bug, not a tolerable approximation.
//!
//! A **1-device [`Cluster`] carrying an empty [`FaultPlan`]** is forced onto
//! the fleet tier (routing collapses, no image is ever acquired, no fault
//! ever fires) and must reproduce [`Runtime`] bitwise on the same randomized
//! traces; and `RoutePolicy::KernelHash` must assign every request of a
//! kernel to the same device on every resubmission.

use proptest::prelude::*;
use rand::prelude::*;

use tm_overlay::runtime::{RequestOutcome, SpanKind, Trace, TraceEvent};
use tm_overlay::{
    BatchConfig, Cluster, ClusterReport, DispatchPolicy, FaultPlan, FuVariant, KernelSpec,
    ReplicationConfig, Request, RoutePolicy, Runtime, ServeReport, TraceConfig, Workload,
};

const SAXPY: &str = "kernel saxpy(a, x, y) { out r = a * x + y; }";
const POLY: &str = "kernel poly(x) { out y = (x * x + 3) * x; }";
const GRAD: &str = "kernel grad(a, b, c, d, e) { out g = a * b + c * d + e; }";

/// A random mixed-kernel trace: non-decreasing arrivals (with simultaneous
/// bursts), a small workload pool so the sim memo engages (also for
/// repeats still queued), and a coin-flip deadline per request.
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
            // ~1 in 3 requests arrives simultaneously with its predecessor,
            // exercising the same-timestamp event ordering.
            if rng.gen_range(0..3u32) > 0 {
                clock_us += rng.gen_range(0..=20u64) as f64 * 0.1;
            }
            let (spec, inputs) = &specs[rng.gen_range(0..specs.len())];
            let blocks = rng.gen_range(1..=3usize);
            // Draw workloads from a pool of 4 seeds per kernel so repeats
            // are common enough to hit the memo.
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

/// Outcome for outcome, everything two serves decided and computed (a
/// `Runtime` stamps device 0, like the 1-device cluster it is held to).
fn assert_outcomes_identical(
    a: &[RequestOutcome],
    b: &[RequestOutcome],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (lhs, rhs) in a.iter().zip(b) {
        prop_assert_eq!(lhs.request_id, rhs.request_id);
        prop_assert_eq!(lhs.device, rhs.device);
        prop_assert_eq!(lhs.tile, rhs.tile);
        prop_assert_eq!(lhs.start_us, rhs.start_us);
        prop_assert_eq!(lhs.completion_us, rhs.completion_us);
        prop_assert_eq!(lhs.queued_us, rhs.queued_us);
        prop_assert_eq!(lhs.latency_us, rhs.latency_us);
        prop_assert_eq!(lhs.switched, rhs.switched);
        prop_assert_eq!(lhs.missed_deadline, rhs.missed_deadline);
        prop_assert_eq!(&lhs.outputs(), &rhs.outputs());
    }
    Ok(())
}

/// Every observable of the two serves must match exactly.
fn assert_reports_identical(a: &ServeReport, b: &ServeReport) -> Result<(), TestCaseError> {
    assert_outcomes_identical(a.outcomes(), b.outcomes())?;
    prop_assert_eq!(a.rejected(), b.rejected());
    // The full metrics struct — counters, rates, depths, per-tile vectors,
    // event counts and memo stats — must agree field for field.
    prop_assert_eq!(a.metrics(), b.metrics());
    Ok(())
}

/// A traced [`Runtime`] — the plain tier — and the 1-device [`Cluster`]
/// configured like it that an empty fault plan forces onto the fleet tier.
fn runtime_and_one_device_fleet(
    variant: FuVariant,
    tiles: usize,
    policy: DispatchPolicy,
    limit: usize,
) -> (Runtime, Cluster) {
    let runtime = Runtime::new(variant, tiles)
        .unwrap()
        .with_policy(policy)
        .with_admission_limit(limit)
        .with_tracing(TraceConfig::enabled());
    let cluster = Cluster::new(variant, 1, tiles)
        .unwrap()
        .with_policy(policy)
        .with_admission_limit(limit)
        .with_tracing(TraceConfig::enabled())
        .with_fault_plan(FaultPlan::new());
    (runtime, cluster)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Admission pressure: the two tiers bound the same waiting count, so
    /// the reject decisions must agree request for request at every limit —
    /// including 0, where only a request that starts at once is admitted.
    #[test]
    fn admission_rejects_are_identical_under_pressure(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0usize..4,
        limit in 0usize..6,
    ) {
        let requests = random_trace(seed, count, 2.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let (mut runtime, mut cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, limit);
        let reference = runtime.serve(requests.clone()).unwrap();
        let report = cluster.serve(requests).unwrap();
        prop_assert!(reference.metrics().rejects + reference.outcomes().len() == count);
        assert_cluster_matches_runtime(&report, &reference)?;
    }

    /// The feed-forward variants flip the switch-cost scale to PCAP
    /// milliseconds, changing which placements tie — both tiers must track
    /// that too.
    #[test]
    fn equivalence_holds_on_pcap_pools(
        (seed, count, tiles) in (any::<u64>(), 4usize..16, 2usize..5),
        policy_pick in 0usize..4,
    ) {
        let requests = random_trace(seed, count, 50.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let (mut runtime, mut cluster) =
            runtime_and_one_device_fleet(FuVariant::V1, tiles, policy, usize::MAX);
        let reference = runtime.serve(requests.clone()).unwrap();
        let report = cluster.serve(requests).unwrap();
        assert_cluster_matches_runtime(&report, &reference)?;
    }

    /// A 1-device fleet is `Runtime` — bit for bit: same tiles, same
    /// modeled timestamps, same rejects, same metrics — under every
    /// (dispatch policy × routing policy) combination and admission limit,
    /// with device 0 stamped on every outcome and zero transfer traffic.
    #[test]
    fn a_one_device_cluster_reproduces_runtime_exactly(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0usize..4,
        route_pick in 0usize..3,
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let route = RoutePolicy::ALL[route_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let (mut runtime, cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, limit);
        let mut cluster = cluster.with_route_policy(route);
        let reference = runtime.serve(requests.clone()).unwrap();
        let report = cluster.serve(requests).unwrap();
        assert_cluster_matches_runtime(&report, &reference)?;
    }

    /// The control plane at its disabled settings (`max_batch = 1`,
    /// replication off) is bitwise identical to the pre-control-plane
    /// runtime: explicitly configuring the disabled `BatchConfig` /
    /// `ReplicationConfig` must reproduce the default-built `Runtime` on
    /// either tier exactly — outcomes, timestamps, rejects and the full
    /// metrics struct (including all-zero batch counters) — under every
    /// policy and admission pressure.
    #[test]
    fn disabled_control_plane_is_bitwise_identical_to_the_baseline(
        (seed, count, tiles) in (any::<u64>(), 4usize..20, 1usize..5),
        policy_pick in 0usize..4,
        limit_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let limit = [usize::MAX, 4, 1][limit_pick];
        let mut plain = Runtime::new(FuVariant::V4, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit);
        let mut pinned = Runtime::new(FuVariant::V4, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit)
            .with_batching(BatchConfig { max_batch: 1, max_hold_us: 0.0 });
        let baseline = plain.serve(requests.clone()).unwrap();
        let disabled = pinned.serve(requests.clone()).unwrap();
        assert_reports_identical(&disabled, &baseline)?;
        prop_assert_eq!(disabled.metrics().batch.batches_formed, 0);
        prop_assert_eq!(disabled.metrics().batch.switches_avoided, 0);

        // And the 1-device fleet with the disabled control plane pinned
        // explicitly still reproduces the runtime bit for bit.
        let (mut reference, cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, limit);
        let mut cluster = cluster
            .with_batching(BatchConfig { max_batch: 1, max_hold_us: 0.0 })
            .with_replication(ReplicationConfig::disabled());
        let report = cluster.serve(requests.clone()).unwrap();
        let runtime_report = reference.serve(requests).unwrap();
        assert_cluster_matches_runtime(&report, &runtime_report)?;
        prop_assert_eq!(report.replication().replicas_pushed, 0);
        prop_assert_eq!(report.replication().bytes_prefetched, 0);
    }

    /// A batched 1-device fleet mirrors the batched runtime — on the fleet
    /// tier the batching guard also weighs the (zero) acquisition and
    /// activation delays, so both tiers must name the same same-kernel
    /// candidate at every diversion under every dispatch policy.
    #[test]
    fn a_batched_one_device_cluster_reproduces_the_batched_runtime(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0usize..4,
        max_batch in 2usize..6,
        hold_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let hold_us = [f64::INFINITY, 50.0, 2.0][hold_pick];
        let config = BatchConfig::with_max_batch(max_batch).with_max_hold_us(hold_us);
        let (runtime, cluster) =
            runtime_and_one_device_fleet(FuVariant::V4, tiles, policy, usize::MAX);
        let reference = runtime.with_batching(config).serve(requests.clone()).unwrap();
        let report = cluster.with_batching(config).serve(requests).unwrap();
        assert_cluster_matches_runtime(&report, &reference)?;
    }

    /// Batching reorders *when* requests run, never *what* they compute:
    /// with unconstrained admission the batched serve completes the same
    /// request set with identical functional outputs per request.
    #[test]
    fn batching_preserves_functional_results(
        (seed, count, tiles) in (any::<u64>(), 8usize..24, 1usize..4),
        policy_pick in 0usize..4,
        max_batch in 2usize..8,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let mut plain = Runtime::new(FuVariant::V4, tiles).unwrap().with_policy(policy);
        let mut batched = Runtime::new(FuVariant::V4, tiles)
            .unwrap()
            .with_policy(policy)
            .with_batching(BatchConfig::with_max_batch(max_batch));
        let baseline = plain.serve(requests.clone()).unwrap();
        let report = batched.serve(requests).unwrap();
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
        policy_pick in 0usize..4,
    ) {
        let requests = random_trace(seed, count, 4.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let build = || Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_policy(policy)
            .with_route_policy(RoutePolicy::KernelHash);
        let mut cluster = build();
        let first = cluster.serve(requests.clone()).unwrap();
        let resubmitted = cluster.serve(requests.clone()).unwrap();
        let fresh = build().serve(requests).unwrap();
        let routes = |report: &ClusterReport| -> Vec<(u64, usize)> {
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

/// A trace's spans without the routing decisions only the fleet tier takes.
fn spans_but_routes(trace: Option<&Trace>) -> Vec<&TraceEvent> {
    let trace = trace.expect("tracing was enabled");
    assert_eq!(trace.dropped(), 0);
    trace
        .events()
        .iter()
        .filter(|event| !matches!(event.kind, SpanKind::RouteChoice(_)))
        .collect()
}

/// Every observable of a 1-device fleet serve must match the runtime's.
fn assert_cluster_matches_runtime(
    cluster: &ClusterReport,
    runtime: &ServeReport,
) -> Result<(), TestCaseError> {
    assert_outcomes_identical(cluster.outcomes(), runtime.outcomes())?;
    prop_assert_eq!(cluster.rejected(), runtime.rejected());
    // Cluster totals must equal the runtime's metrics field for field.
    prop_assert_eq!(cluster.metrics(), runtime.metrics());
    // The single device's breakdown is the whole story: no transfers, no
    // host loads, every request.
    prop_assert_eq!(cluster.device_metrics().len(), 1);
    let device = &cluster.device_metrics()[0];
    prop_assert_eq!(device.requests, runtime.outcomes().len());
    prop_assert_eq!(device.transfers_in, 0);
    prop_assert_eq!(device.host_loads, 0);
    prop_assert_eq!(device.p99_latency_us, runtime.metrics().p99_latency_us);
    // The fleet tier routed every arrival (to device 0); nothing else differs.
    let spans = spans_but_routes(cluster.trace());
    prop_assert_eq!(&spans, &spans_but_routes(runtime.trace()));
    prop_assert!(spans.len() < cluster.trace().unwrap().events().len());
    prop_assert_eq!(spans.len(), runtime.trace().unwrap().events().len());
    Ok(())
}

/// Every observable of two cluster serves must match exactly — including
/// the per-device breakdown and the recorded trace (the trace comparison
/// covers span order, side tables, counters and the ring's drop count).
fn assert_cluster_reports_identical(
    a: &ClusterReport,
    b: &ClusterReport,
) -> Result<(), TestCaseError> {
    assert_outcomes_identical(a.outcomes(), b.outcomes())?;
    prop_assert_eq!(a.rejected(), b.rejected());
    prop_assert_eq!(a.metrics(), b.metrics());
    prop_assert_eq!(a.device_metrics(), b.device_metrics());
    prop_assert_eq!(a.replication(), b.replication());
    prop_assert_eq!(a.trace(), b.trace());
    Ok(())
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
        policy_pick in 0usize..4,
        route_pick in 0usize..3,
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
        let a = plain.serve(requests.clone()).unwrap();
        let b = pinned.serve(requests.clone()).unwrap();
        assert_cluster_reports_identical(&a, &b)?;
        prop_assert_eq!(b.requeues(), 0);
        prop_assert_eq!(b.faults(), 0);
        prop_assert_eq!(b.lost_work_us(), 0.0);
        prop_assert_eq!(b.availability(), vec![1.0; devices]);
        // Warm resubmission stays pinned too.
        let a2 = plain.serve(requests.clone()).unwrap();
        let b2 = pinned.serve(requests).unwrap();
        assert_cluster_reports_identical(&a2, &b2)?;
    }
}
