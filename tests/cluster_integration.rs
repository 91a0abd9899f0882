//! Integration suite for the multi-device cluster tier: routing policies ×
//! dispatch policies over mixed benchmark traces, with every outcome checked
//! against the DFG reference evaluator, transfer accounting audited, and the
//! per-device metrics rolled up against the cluster totals.

use std::collections::HashSet;
use std::fmt::Write as _;

use tm_overlay::dfg::evaluate_stream;
use tm_overlay::frontend::LowerOptions;
use tm_overlay::runtime::RuntimeError;
use tm_overlay::{
    Benchmark, Cluster, ClusterReport, DispatchPolicy, FuVariant, KernelSpec, Request, RoutePolicy,
    TraceConfig, TransferModel, Workload,
};

/// A mixed-kernel trace over the paper's benchmark suite: `count` requests,
/// one every `spacing_us`, cycling through four kernels with per-request
/// deadlines at `budget_us`.
fn benchmark_trace(count: usize, blocks: usize, spacing_us: f64, budget_us: f64) -> Vec<Request> {
    let suite = [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Qspline,
        Benchmark::Poly5,
    ];
    (0..count)
        .map(|i| {
            let benchmark = suite[i % suite.len()];
            let spec = KernelSpec::from_benchmark(benchmark).unwrap();
            let inputs = benchmark.dfg().unwrap().num_inputs();
            let workload = Workload::random(inputs, blocks, 0xCAFE ^ i as u64);
            let arrival = i as f64 * spacing_us;
            Request::new(i as u64, spec, workload)
                .at(arrival)
                .with_deadline(arrival + budget_us)
        })
        .collect()
}

/// Checks every outcome against the DFG reference evaluator and audits the
/// cluster-level invariants every serve must uphold.
fn verify_report(requests: &[Request], report: &ClusterReport, devices: usize) {
    let options = LowerOptions::default();
    let find = |id: u64| requests.iter().find(|r| r.id == id).unwrap();
    for outcome in report.outcomes() {
        let request = find(outcome.request_id);
        let dfg = request.kernel.dfg(&options).unwrap();
        let expected = evaluate_stream(&dfg, request.workload.records()).unwrap();
        assert_eq!(
            outcome.outputs(),
            expected,
            "request {} diverged from the reference evaluator",
            request.id
        );
        assert!(outcome.device < devices, "device id out of range");
        assert!(outcome.start_us >= request.arrival_us);
        assert!(outcome.completion_us > outcome.start_us);
    }
    // Served and rejected ids partition the submitted ids.
    let mut ids: Vec<u64> = report
        .outcomes()
        .iter()
        .map(|o| o.request_id)
        .chain(report.rejected().iter().map(|r| r.id))
        .collect();
    ids.sort_unstable();
    let mut expected: Vec<u64> = requests.iter().map(|r| r.id).collect();
    expected.sort_unstable();
    assert_eq!(ids, expected, "ids are conserved");
    // Per-device metrics roll up to the cluster totals.
    let totals = report.metrics();
    let per_device = report.device_metrics();
    assert_eq!(per_device.len(), devices);
    assert_eq!(
        per_device.iter().map(|d| d.requests).sum::<usize>(),
        totals.requests
    );
    assert_eq!(
        per_device.iter().map(|d| d.rejects).sum::<usize>(),
        totals.rejects
    );
    assert_eq!(
        per_device.iter().map(|d| d.switch_count).sum::<usize>(),
        totals.switch_count
    );
    assert_eq!(
        per_device.iter().map(|d| d.deadline_misses).sum::<usize>(),
        totals.deadline_misses
    );
    let flattened_tiles: Vec<usize> = per_device
        .iter()
        .flat_map(|d| d.tile_requests.iter().copied())
        .collect();
    assert_eq!(flattened_tiles, totals.tile_requests);
    assert!(totals.p50_latency_us <= totals.p99_latency_us);
    assert!(totals.p99_latency_us <= totals.max_latency_us);
    for device in per_device {
        assert!(device.max_latency_us <= totals.max_latency_us);
    }
}

#[test]
fn every_routing_policy_serves_the_mixed_trace_correctly() {
    let requests = benchmark_trace(32, 6, 1.0, 5_000.0);
    for route in RoutePolicy::ALL {
        for policy in [
            DispatchPolicy::KernelAffinity,
            DispatchPolicy::EarliestDeadlineFirst,
        ] {
            let mut cluster = Cluster::new(FuVariant::V4, 4, 2)
                .unwrap()
                .with_policy(policy)
                .with_route_policy(route);
            let report = cluster.serve(requests.clone()).unwrap();
            assert_eq!(report.route_policy(), route);
            assert_eq!(report.policy(), policy);
            verify_report(&requests, &report, 4);
        }
    }
}

#[test]
fn feed_forward_clusters_serve_correctly_too() {
    // V1 tiles pay PCAP-scale switches; the cluster must still produce
    // reference-exact outputs and coherent accounting.
    let requests = benchmark_trace(16, 4, 100.0, 1e9);
    let mut cluster = Cluster::new(FuVariant::V1, 2, 2)
        .unwrap()
        .with_route_policy(RoutePolicy::LeastLoaded);
    let report = cluster.serve(requests.clone()).unwrap();
    verify_report(&requests, &report, 2);
    assert!(
        report.metrics().total_switch_us > 1_000.0,
        "PCAP switches are on the millisecond scale"
    );
}

#[test]
fn kernel_hash_sharding_switches_less_than_least_loaded_balancing() {
    // 4 kernels over 4 devices: sharding gives each device (at most) its
    // own kernel subset, so it context-switches less than load balancing,
    // which keeps cycling all kernels through all devices.
    let requests = benchmark_trace(64, 6, 0.25, 5_000.0);
    let serve = |route: RoutePolicy| {
        Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(route)
            .serve(requests.clone())
            .unwrap()
    };
    let sharded = serve(RoutePolicy::KernelHash);
    let balanced = serve(RoutePolicy::LeastLoaded);
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
    let requests = benchmark_trace(48, 4, 0.5, 1e9);
    let mut cluster = Cluster::new(FuVariant::V4, 3, 2)
        .unwrap()
        .with_route_policy(RoutePolicy::LeastLoaded);
    let report = cluster.serve(requests.clone()).unwrap();
    verify_report(&requests, &report, 3);
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
    let requests = benchmark_trace(64, 16, 0.2, 5.0);
    let serve = |devices: usize| {
        Cluster::new(FuVariant::V4, devices, 2)
            .unwrap()
            .with_policy(DispatchPolicy::EarliestDeadlineFirst)
            .with_route_policy(RoutePolicy::LeastLoaded)
            .serve(requests.clone())
            .unwrap()
    };
    let single = serve(1);
    let quad = serve(4);
    verify_report(&requests, &quad, 4);
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
    // With a prohibitive link+host model, power-of-two's completion
    // estimates see the acquisition cost and lean toward the device already
    // holding each kernel; with a free model the same trace spreads at
    // least as widely.
    let requests = benchmark_trace(40, 4, 0.5, 1e9);
    let serve = |transfer: TransferModel| {
        Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_transfer_model(transfer)
            .serve(requests.clone())
            .unwrap()
    };
    let expensive = serve(TransferModel {
        hop_latency_us: 10_000.0,
        link_us_per_byte: 1.0,
        host_latency_us: 50_000.0,
        host_us_per_byte: 1.0,
    });
    let free = serve(TransferModel::free());
    let spread = |report: &ClusterReport| {
        report
            .outcomes()
            .iter()
            .map(|o| (o.device, o.kernel.to_string()))
            .collect::<HashSet<_>>()
            .len()
    };
    assert!(
        spread(&expensive) <= spread(&free),
        "a prohibitive transfer model must not spread kernels wider \
         ({} vs {} (device, kernel) pairs)",
        spread(&expensive),
        spread(&free)
    );
    verify_report(&requests, &expensive, 4);
    verify_report(&requests, &free, 4);
}

#[test]
fn cluster_streaming_matches_batch_and_reports_backpressure_free_ingest() {
    let requests = benchmark_trace(20, 4, 1.0, 1e9);
    let build = || {
        Cluster::new(FuVariant::V4, 2, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::KernelHash)
            .with_ingest_capacity(2)
    };
    let batch = build().serve(requests.clone()).unwrap();
    let streamed = build()
        .serve_stream(|submitter| {
            for request in &requests {
                submitter.submit(request.clone()).unwrap();
            }
        })
        .unwrap();
    assert_eq!(batch.outcomes().len(), streamed.outcomes().len());
    for (lhs, rhs) in batch.outcomes().iter().zip(streamed.outcomes()) {
        assert_eq!(lhs.request_id, rhs.request_id);
        assert_eq!(lhs.device, rhs.device);
        assert_eq!(lhs.tile, rhs.tile);
        assert_eq!(lhs.completion_us, rhs.completion_us);
        assert_eq!(lhs.outputs(), rhs.outputs());
    }
    assert_eq!(batch.metrics(), streamed.metrics());
}

#[test]
fn cluster_serves_reject_bad_arrivals_with_typed_errors() {
    let build = || {
        Cluster::new(FuVariant::V4, 3, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::KernelHash)
    };
    let mut invalid = benchmark_trace(8, 4, 1.0, 5_000.0);
    invalid[5] = invalid[5].clone().at(f64::NAN);
    assert!(matches!(
        build().serve(invalid),
        Err(RuntimeError::InvalidArrival { request: 5, .. })
    ));

    let mut regressing = benchmark_trace(8, 4, 1.0, 5_000.0);
    regressing[6] = regressing[6].clone().at(0.5);
    assert!(matches!(
        build().serve(regressing),
        Err(RuntimeError::OutOfOrderArrival { request: 6, .. })
    ));
}

/// Sharding one 256-tile row-NoC into 4 × 64-tile devices at least doubles
/// the modeled end-to-end events/s on the same overload: every request's
/// ingress↔tile round trip on a 1×256 torus row is ~258 cycles, on a 1×64
/// row ~66, so at 1-block workloads the shorter rows win outright.
/// 1 024 requests of the two lightest kernels arrive at ρ = 2 against the
/// 256 tiles, with deadlines at eight service times; both sides route
/// least-loaded, so shard imbalance cannot mask the interconnect effect,
/// and each serves an 8-request warm-up first, as a warm fleet would.
#[test]
fn four_devices_of_64_tiles_serve_an_overload_twice_as_fast_as_one_of_256() {
    let suite = [Benchmark::Gradient, Benchmark::Chebyshev];
    let trace = |count: usize, spacing_us: f64, budget_us: f64| -> Vec<Request> {
        (0..count)
            .map(|i| {
                let benchmark = suite[i % suite.len()];
                let spec = KernelSpec::from_benchmark(benchmark).unwrap();
                let inputs = benchmark.dfg().unwrap().num_inputs();
                let arrival = i as f64 * spacing_us;
                Request::new(i as u64, spec, Workload::random(inputs, 1, (i % 8) as u64))
                    .at(arrival)
                    .with_deadline(arrival + budget_us)
            })
            .collect()
    };
    let service_us = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .serve(trace(1, 1.0, 1e9))
        .unwrap()
        .outcomes()[0]
        .completion_us;
    let requests = trace(1024, service_us / 512.0, 8.0 * service_us);
    let serve = |devices: usize, tiles: usize| {
        let mut cluster = Cluster::new(FuVariant::V4, devices, tiles)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded);
        cluster.serve(requests[..8].to_vec()).unwrap();
        let report = cluster.serve(requests.clone()).unwrap();
        let metrics = report.metrics();
        let events_per_s = metrics.events_fired as f64 * 1e6 / metrics.makespan_us;
        (metrics.events_fired, events_per_s)
    };
    let (single_events, single) = serve(1, 256);
    let (quad_events, quad) = serve(4, 64);
    assert_eq!((single_events, quad_events), (2048, 2048));
    // 321.2 M vs 827.9 M events/s when written: 2.58x.
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
fn canonical_dump(report: &ClusterReport) -> String {
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
        canonical_dump(&cluster.serve(requests.clone()).unwrap())
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
