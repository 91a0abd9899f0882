//! Integration suite for the multi-device cluster tier: routing policies ×
//! dispatch policies over mixed benchmark traces, with every outcome checked
//! against the DFG reference evaluator, transfer accounting audited, and the
//! per-device metrics rolled up against the cluster totals.

mod support;

use std::collections::HashSet;
use std::fmt::Write as _;

use proptest::prelude::TestCaseError;

use support::{
    audit_parts, audit_pipelines, benchmark_trace, check_outputs, cluster, service_us,
    suite_kernel, suite_trace, Audited, Parts,
};
use tm_overlay::runtime::{RequestOutcome, RuntimeError};
use tm_overlay::{
    Benchmark, Cluster, DispatchPolicy, FaultPlan, FuVariant, KernelSpec, PipelineRequest,
    PipelineStage, Request, RoutePolicy, RuntimeMetrics, ServeReport, Session, SloClass,
    TraceConfig, Workload,
};

#[test]
fn every_routing_policy_serves_the_mixed_trace_correctly() {
    let requests = benchmark_trace(32, 6, 0xCAFE, 1.0, Some(5_000.0));
    for route in RoutePolicy::ALL {
        for policy in DispatchPolicy::ALL {
            let mut cluster = Cluster::new(FuVariant::V4, 4, 2)
                .unwrap()
                .with_policy(policy)
                .with_route_policy(route);
            let report = cluster.serve_audited(&requests).unwrap();
            check_outputs(&requests, &report).unwrap();
        }
    }
}

#[test]
fn feed_forward_clusters_serve_correctly_too() {
    // V1 tiles pay PCAP-scale switches; the cluster must still produce
    // reference-exact outputs and coherent accounting.
    let requests = benchmark_trace(16, 4, 0xCAFE, 100.0, Some(1e9));
    let mut cluster = Cluster::new(FuVariant::V1, 2, 2)
        .unwrap()
        .with_route_policy(RoutePolicy::PowerOfTwoChoices);
    let report = cluster.serve_audited(&requests).unwrap();
    check_outputs(&requests, &report).unwrap();
    assert!(
        report.metrics().total_switch_us > 1_000.0,
        "PCAP switches are on the millisecond scale"
    );
}

#[test]
fn kernel_hash_sharding_switches_less_than_power_of_two_balancing() {
    // 4 kernels over 4 devices: sharding gives each device (at most) its
    // own kernel subset, so it context-switches less than load balancing,
    // which keeps cycling all kernels through all devices.
    let requests = benchmark_trace(64, 6, 0xCAFE, 0.25, Some(5_000.0));
    let serve = |route: RoutePolicy| cluster(4, 1, route).serve_audited(&requests).unwrap();
    let sharded = serve(RoutePolicy::KernelHash);
    let balanced = serve(RoutePolicy::PowerOfTwoChoices);
    assert!(
        sharded.metrics().switch_count < balanced.metrics().switch_count,
        "sharding must switch less: {} vs {}",
        sharded.metrics().switch_count,
        balanced.metrics().switch_count
    );
    assert_eq!(sharded.transfers(), 0, "sharded kernels never move");
}

#[test]
fn transfer_accounting_matches_first_off_home_placements() {
    // Every (device, kernel) pair seen off the kernel's home shard acquires
    // the image exactly once (link transfer or host load) while the store
    // has room; transfers report their bytes.
    let requests = benchmark_trace(48, 4, 0xCAFE, 0.5, Some(1e9));
    let mut cluster = cluster(3, 2, RoutePolicy::PowerOfTwoChoices);
    let report = cluster.serve_audited(&requests).unwrap();
    check_outputs(&requests, &report).unwrap();
    let served_pairs: HashSet<(usize, String)> = report
        .outcomes()
        .iter()
        .map(|o| (o.device, o.kernel.to_string()))
        .collect();
    let distinct_kernels: HashSet<String> = report
        .outcomes()
        .iter()
        .map(|o| o.kernel.to_string())
        .collect();
    // Each kernel's home shard holds its image for free (it compiled
    // there); every other (device, kernel) pair acquires exactly once while
    // the stores have room. The home may or may not have served requests,
    // hence the one-per-kernel slack in the lower bound.
    let acquisitions = report.transfers() + report.host_loads();
    assert!(
        acquisitions <= served_pairs.len()
            && acquisitions + distinct_kernels.len() >= served_pairs.len(),
        "acquisitions {} outside [{}, {}]",
        acquisitions,
        served_pairs.len() - distinct_kernels.len(),
        served_pairs.len()
    );
    assert!(
        acquisitions > 0,
        "balancing a 4-kernel trace over 3 devices must move images"
    );
    if report.transfers() > 0 {
        assert!(report.transfer_bytes() > 0);
    }
}

#[test]
fn more_devices_shed_an_overload() {
    // The same overload trace on 1 vs 4 devices (same per-device shape):
    // capacity quadruples, so deadline misses drop and makespan shrinks.
    let requests = benchmark_trace(64, 16, 0xCAFE, 0.2, Some(5.0));
    let serve = |devices: usize| {
        Cluster::new(FuVariant::V4, devices, 2)
            .unwrap()
            .with_policy(DispatchPolicy::SlackAware)
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .serve_audited(&requests)
            .unwrap()
    };
    let single = serve(1);
    let quad = serve(4);
    check_outputs(&requests, &quad).unwrap();
    assert!(
        quad.metrics().deadline_misses < single.metrics().deadline_misses,
        "4 devices must miss fewer deadlines ({} vs {})",
        quad.metrics().deadline_misses,
        single.metrics().deadline_misses
    );
    assert!(quad.metrics().makespan_us < single.metrics().makespan_us);
}

#[test]
fn expensive_transfer_models_discourage_off_home_placement_under_power_of_two() {
    // With the link priced out from the start, every acquisition is a
    // host load and power-of-two's completion estimates see that cost and
    // lean toward the device already holding each kernel; with the default
    // link the same trace spreads at least as widely.
    let requests = benchmark_trace(40, 4, 0xCAFE, 0.5, Some(1e9));
    let serve = |plan: FaultPlan| {
        cluster(4, 1, RoutePolicy::PowerOfTwoChoices)
            .with_fault_plan(plan)
            .serve_audited(&requests)
            .unwrap()
    };
    let expensive = serve(FaultPlan::new().degrade_links(0.0, 1.0e12));
    let linked = serve(FaultPlan::new());
    let spread = |report: &ServeReport| {
        report
            .outcomes()
            .iter()
            .map(|o| (o.device, o.kernel.to_string()))
            .collect::<HashSet<_>>()
            .len()
    };
    assert!(
        spread(&expensive) <= spread(&linked),
        "a prohibitive transfer model must not spread kernels wider \
         ({} vs {} (device, kernel) pairs)",
        spread(&expensive),
        spread(&linked)
    );
    check_outputs(&requests, &expensive).unwrap();
    check_outputs(&requests, &linked).unwrap();
}

#[test]
fn cluster_serves_reject_bad_arrivals_with_typed_errors() {
    let build = || cluster(3, 2, RoutePolicy::KernelHash);
    let mut invalid = benchmark_trace(8, 4, 0xCAFE, 1.0, Some(5_000.0));
    invalid[5] = invalid[5].clone().at(f64::NAN);
    assert!(matches!(
        build().serve(invalid),
        Err(RuntimeError::InvalidArrival { request: 5, .. })
    ));

    let mut regressing = benchmark_trace(8, 4, 0xCAFE, 1.0, Some(5_000.0));
    regressing[6] = regressing[6].clone().at(0.5);
    assert!(matches!(
        build().serve(regressing),
        Err(RuntimeError::OutOfOrderArrival { request: 6, .. })
    ));
}

/// The one intake check, on a 1-device and a 3-device cluster, through
/// `serve`, `serve_stream` and `serve_pipelines`: each bad input fails the
/// serve with its typed error, naming the offending id and value; ids that
/// descend but do not repeat serve.
#[test]
fn bad_intake_fails_every_serve_with_a_typed_error() {
    use RuntimeError::*;
    let trace = || benchmark_trace(8, 2, 0xCAFE, 1.0, Some(5_000.0));
    let with = |index: usize, edit: &dyn Fn(Request) -> Request| {
        let mut requests = trace();
        requests[index] = edit(requests[index].clone());
        requests
    };
    let descending = || {
        let mut requests = trace();
        for (i, request) in requests.iter_mut().enumerate() {
            request.id = 7 - i as u64;
        }
        requests
    };
    let mut repeated_descending = descending();
    repeated_descending[5].id = 5;
    let mut cases = vec![
        (Vec::new(), NoRequests),
        (repeated_descending, DuplicateRequestId { request: 5 }),
        (
            with(4, &|r| Request { id: 2, ..r }),
            DuplicateRequestId { request: 2 },
        ),
        (
            with(6, &|r| r.at(0.5)),
            OutOfOrderArrival {
                request: 6,
                arrival_us: 0.5,
                horizon_us: 5.0,
            },
        ),
    ];
    for arrival_us in [f64::NAN, -1.0, f64::INFINITY] {
        let error = InvalidArrival {
            request: 5,
            arrival_us,
        };
        cases.push((with(5, &|r| r.at(arrival_us)), error));
    }
    for deadline_us in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let error = InvalidDeadline {
            request: 3,
            deadline_us,
        };
        cases.push((with(3, &|r| r.with_deadline(deadline_us)), error));
    }
    // Each pipeline is one best-effort stage, whose deadline reaches no
    // stage request.
    let (spec, inputs) = suite_kernel(Benchmark::Gradient);
    let single = |id: u64| {
        let stage = PipelineStage::new(spec.clone(), Workload::random(inputs, 1, id));
        PipelineRequest::new(id, 0).at(id as f64).stage(stage)
    };
    let sessions = [Session::new(0).with_slo(SloClass::BestEffort)];
    let mut pipeline_cases = vec![(
        vec![single(0), single(1), single(1)],
        DuplicateRequestId { request: 1 << 16 },
    )];
    for deadline_us in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let error = InvalidDeadline {
            request: 1,
            deadline_us,
        };
        let due = vec![single(0), single(1).with_deadline(deadline_us)];
        pipeline_cases.push((due, error));
    }
    let shown = |result: Result<ServeReport, RuntimeError>| format!("{:?}", result.err());
    for devices in [1, 3] {
        let build = || cluster(devices, 2, RoutePolicy::KernelHash);
        build().serve_audited(&descending()).unwrap();
        for (requests, error) in &cases {
            let expected = format!("{:?}", Some(error));
            assert_eq!(shown(build().serve(requests.clone())), expected);
            let streamed = build().serve_stream(|submitter| {
                for request in requests {
                    // A failed serve closes the channel: stop at the refusal.
                    if submitter.submit(request.clone()).is_err() {
                        break;
                    }
                }
            });
            assert_eq!(shown(streamed), expected, "streamed");
        }
        for (pipelines, error) in &pipeline_cases {
            let served = build().serve_pipelines(pipelines.clone(), &sessions);
            let expected = format!("{:?}", Some(error));
            assert_eq!(shown(served.map(|report| report.cluster)), expected);
        }
    }
}

/// Sharding one 256-tile row-NoC into 4 × 64-tile devices at least doubles
/// the modeled end-to-end events/s on the same overload: every request's
/// ingress↔tile round trip on a 1×256 torus row is ~258 cycles, on a 1×64
/// row ~66, so at 1-block workloads the shorter rows win outright.
/// 1 024 requests of the two lightest kernels arrive at ρ = 2 against the
/// 256 tiles, with deadlines at eight service times; both sides route by
/// power-of-two choices, so shard imbalance cannot mask the interconnect
/// effect, and each serves an 8-request warm-up first, as a warm fleet
/// would.
#[test]
fn four_devices_of_64_tiles_serve_an_overload_twice_as_fast_as_one_of_256() {
    let suite = [Benchmark::Gradient, Benchmark::Chebyshev];
    let trace = |count, spacing_us, budget_us| suite_trace(&suite, count, spacing_us, budget_us);
    let service_us = service_us(FuVariant::V4, trace(1, 1.0, 1e9).remove(0));
    let requests = trace(1024, service_us / 512.0, 8.0 * service_us);
    let serve = |devices: usize, tiles: usize| {
        let mut cluster = cluster(devices, tiles, RoutePolicy::PowerOfTwoChoices);
        cluster.serve_audited(&requests[..8]).unwrap();
        let report = cluster.serve_audited(&requests).unwrap();
        let metrics = report.metrics();
        let events_per_s = metrics.events_fired as f64 * 1e6 / metrics.makespan_us;
        (metrics.events_fired, events_per_s)
    };
    let (single_events, single) = serve(1, 256);
    let (quad_events, quad) = serve(4, 64);
    assert_eq!((single_events, quad_events), (2048, 2048));
    // 321.2 M vs 726.5 M events/s when written: 2.26x.
    assert!(
        quad >= 2.0 * single,
        "4x64 serves {quad:.0} ev/s, 1x256 {single:.0}: {:.2}x, not >= 2x",
        quad / single
    );
}

/// Stable 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders a report as a canonical byte dump: every f64 as its raw bit
/// pattern, so "identical" means bitwise, and the bulky sections (outputs,
/// metrics, trace events) as FNV-1a digests of their `Debug` rendering.
fn canonical_dump(report: &ServeReport) -> String {
    let mut out = format!(
        "outcomes={} rejected={}\n",
        report.outcomes().len(),
        report.rejected().len()
    );
    for outcome in report.outcomes() {
        let _ = writeln!(
            out,
            "req={} kernel={} device={} tile={} start={:016x} queued={:016x} \
             completion={:016x} latency={:016x} switched={} deadline={:?} missed={} \
             outputs_fnv={:016x}",
            outcome.request_id,
            outcome.kernel,
            outcome.device,
            outcome.tile,
            outcome.start_us.to_bits(),
            outcome.queued_us.to_bits(),
            outcome.completion_us.to_bits(),
            outcome.latency_us.to_bits(),
            outcome.switched,
            outcome.deadline_us.map(f64::to_bits),
            outcome.missed_deadline,
            fnv1a(format!("{:?}", outcome.outputs()).as_bytes()),
        );
    }
    let _ = writeln!(
        out,
        "metrics_fnv={:016x}",
        fnv1a(format!("{:?}", report.metrics()).as_bytes())
    );
    for device in report.device_metrics() {
        let _ = writeln!(
            out,
            "device={} fnv={:016x}",
            device.device,
            fnv1a(format!("{device:?}").as_bytes())
        );
    }
    let trace = report.trace().expect("tracing was enabled");
    let events = trace.events();
    let _ = writeln!(
        out,
        "trace events={} dropped={} fnv={:016x}",
        events.len(),
        trace.dropped(),
        fnv1a(format!("{events:?}").as_bytes())
    );
    out
}

/// Cross-run determinism of a batch cluster serve, pinned to the bytes the
/// cluster loop produced before the sharded executor was deleted (PR 17):
/// a fixed 8-device x 2-tile, 60-request kernel-hash trace — six tenants,
/// ten rounds, staggered arrivals, a sometimes-tight deadline on every
/// third request. Never edit the constant to make this pass; a mismatch
/// prints the dump the loop computes now.
#[test]
fn batch_cluster_serve_matches_its_golden_digest() {
    const GOLDEN_DUMP_FNV: u64 = 0xeb0f_67f1_ef0d_dab9;
    const TENANTS: [(Benchmark, usize); 6] = [
        (Benchmark::Gradient, 12),
        (Benchmark::Chebyshev, 8),
        (Benchmark::Mibench, 6),
        (Benchmark::Qspline, 10),
        (Benchmark::Poly5, 4),
        (Benchmark::Sgfilter, 8),
    ];
    let mut requests = Vec::new();
    for round in 0..10 {
        for (tenant, &(benchmark, blocks)) in TENANTS.iter().enumerate() {
            let id = requests.len() as u64;
            let spec = KernelSpec::from_benchmark(benchmark).unwrap();
            let inputs = benchmark.dfg().unwrap().num_inputs();
            let workload = Workload::random(inputs, blocks, id ^ 0xD1CE);
            let arrival = round as f64 * 40.0 + tenant as f64 * 3.5;
            let mut request = Request::new(id, spec, workload).at(arrival);
            if id.is_multiple_of(3) {
                request = request.with_deadline(arrival + 120.0);
            }
            requests.push(request);
        }
    }
    let serve = || {
        let mut cluster = Cluster::new(FuVariant::V4, 8, 2)
            .unwrap()
            .with_policy(DispatchPolicy::KernelAffinity)
            .with_route_policy(RoutePolicy::KernelHash)
            .with_tracing(TraceConfig::enabled());
        canonical_dump(&cluster.serve_audited(&requests).unwrap())
    };
    let dump = serve();
    assert_eq!(dump, serve(), "two fresh clusters diverged");
    assert_eq!(
        fnv1a(dump.as_bytes()),
        GOLDEN_DUMP_FNV,
        "digest {:#018x} of the dump below is not the golden one\n{dump}",
        fnv1a(dump.as_bytes())
    );
}

/// The audit bites: each corruption of a real fleet serve's parts fails
/// [`audit_parts`], and a swap of two commits within one session fails
/// [`audit_pipelines`], each at the check it breaks.
#[test]
fn the_audit_catches_each_corruption() {
    let requests = benchmark_trace(48, 4, 0xCAFE, 0.1, Some(20.0));
    let mut cluster = Cluster::new(FuVariant::V4, 3, 2).unwrap();
    let report = cluster.serve_audited(&requests).unwrap();
    let arrival = |o: &RequestOutcome| requests[o.request_id as usize].arrival_us;
    // A run that queued behind the one before it on its tile.
    let outcomes = report.outcomes();
    let behind = |a: &RequestOutcome, b: &RequestOutcome| {
        (a.device, a.tile) == (b.device, b.tile)
            && b.start_us == a.completion_us
            && arrival(b) < a.completion_us
    };
    let (ahead, queued) = (0..outcomes.len())
        .flat_map(|a| (0..outcomes.len()).map(move |b| (a, b)))
        .find(|&(a, b)| behind(&outcomes[a], &outcomes[b]))
        .expect("a request queued behind another");
    let start_at = |o: &mut [RequestOutcome], at: usize, start_us: f64| {
        o[at].start_us = start_us;
        o[at].queued_us = start_us - arrival(&outcomes[at]);
    };
    type Corruption<'a> = &'a dyn Fn(&mut Vec<RequestOutcome>, &mut RuntimeMetrics);
    let corruptions: [(&str, Corruption); 6] = [
        ("47 accounted for", &|o, _| drop(o.remove(5))),
        ("twice", &|o, _| o[1].request_id = o[0].request_id),
        ("overlaps", &|o, _| {
            let start_us = arrival(&outcomes[queued]).max(outcomes[ahead].start_us);
            start_at(o, queued, start_us)
        }),
        ("before its arrival", &|o, _| {
            start_at(o, 7, arrival(&outcomes[7]) - 1.0)
        }),
        ("missed_deadline", &|o, _| o[3].missed_deadline ^= true),
        ("metrics.requests", &|_, metrics| metrics.requests += 1),
    ];
    for (check, corrupt) in corruptions {
        let (mut outcomes, mut metrics) = (outcomes.to_vec(), report.metrics().clone());
        corrupt(&mut outcomes, &mut metrics);
        let (rejected, devices) = (report.rejected(), report.device_metrics());
        let parts = Parts {
            outcomes: &outcomes,
            rejected,
            metrics: &metrics,
            devices,
        };
        match audit_parts(&requests, parts, false) {
            Err(TestCaseError::Fail(message)) => assert!(message.contains(check), "{message}"),
            passed => panic!("the audit let a corruption through ({check}): {passed:?}"),
        }
    }

    let pipelines: Vec<PipelineRequest> = (0..4u64)
        .map(|id| {
            let stages = [Benchmark::Gradient, Benchmark::Poly5].map(suite_kernel);
            let stages = stages.map(|(spec, inputs)| (spec, Workload::random(inputs, 8, id)));
            PipelineRequest::chain(id + 1, 0, stages).at(id as f64 * 5.0)
        })
        .collect();
    let sessions = [Session::new(0)];
    let mut cluster = Cluster::new(FuVariant::V4, 2, 1).unwrap();
    let piped = cluster
        .serve_pipelines_audited(&pipelines, &sessions)
        .unwrap();
    let mut swapped = piped;
    let [first, second, ..] = &mut swapped.pipelines[..] else {
        unreachable!("four pipelines")
    };
    assert!(first.commit_us < second.commit_us);
    std::mem::swap(&mut first.commit_us, &mut second.commit_us);
    match audit_pipelines(&pipelines, &sessions, &swapped) {
        Err(TestCaseError::Fail(message)) => assert!(message.contains("before its predecessor")),
        passed => panic!("the audit let swapped commits through: {passed:?}"),
    }
}
