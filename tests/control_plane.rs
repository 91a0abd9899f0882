//! Control-plane integration suite: same-kernel batching and rate-driven
//! replication, end to end through the public `Runtime` / `Cluster` APIs.
//!
//! The equivalence proptests (`tests/runtime_equivalence.rs`) pin the
//! *disabled* control plane to bitwise-identical baseline behavior; this
//! suite exercises the *enabled* behavior: batching groups interleaved
//! kernels and cuts context switches (honoring the run cap, the staleness
//! bound and deadline feasibility), and replication pushes hot kernel
//! images ahead of demand and demotes cold replicas under store pressure.

use tm_overlay::dfg::evaluate_stream;
use tm_overlay::frontend::LowerOptions;
use tm_overlay::{
    BatchConfig, Benchmark, Cluster, FuVariant, KernelSpec, ReplicationConfig, Request,
    RoutePolicy, Runtime, ServeReport, TransferModel, Workload,
};

fn spec(benchmark: Benchmark) -> (KernelSpec, usize) {
    let spec = KernelSpec::from_benchmark(benchmark).unwrap();
    let inputs = benchmark.dfg().unwrap().num_inputs();
    (spec, inputs)
}

/// `count` requests alternating between two kernels, all arriving at t = 0
/// (they pile onto the queue and drain under the dispatch policy).
fn interleaved_burst(count: usize, blocks: usize) -> Vec<Request> {
    let (a, a_inputs) = spec(Benchmark::Gradient);
    let (b, b_inputs) = spec(Benchmark::Chebyshev);
    (0..count)
        .map(|i| {
            let (kernel, inputs) = if i % 2 == 0 {
                (a.clone(), a_inputs)
            } else {
                (b.clone(), b_inputs)
            };
            Request::new(i as u64, kernel, Workload::random(inputs, blocks, i as u64)).at(0.0)
        })
        .collect()
}

fn serve(runtime: &mut Runtime, requests: &[Request]) -> ServeReport {
    runtime.serve(requests.to_vec()).unwrap()
}

#[test]
fn batching_groups_an_interleaved_burst_and_cuts_switches() {
    let requests = interleaved_burst(24, 4);
    let mut plain = Runtime::new(FuVariant::V4, 1).unwrap();
    let mut batched = Runtime::new(FuVariant::V4, 1)
        .unwrap()
        .with_batching(BatchConfig::with_max_batch(32));
    assert_eq!(batched.batching().max_batch, 32);
    let baseline = serve(&mut plain, &requests);
    let report = serve(&mut batched, &requests);

    // The alternating burst drains FIFO on one tile: the baseline swaps on
    // nearly every dispatch, the batcher runs each kernel as one block.
    assert!(
        baseline.metrics().switch_count >= 20,
        "alternating FIFO drain must thrash, got {} switches",
        baseline.metrics().switch_count
    );
    assert!(
        report.metrics().switch_count <= 4,
        "batching must collapse the thrash, got {} switches",
        report.metrics().switch_count
    );
    let batch = report.metrics().batch;
    assert!(batch.switches_avoided > 0);
    assert_eq!(batch.switches_avoided, batch.batched_requests);
    assert!(batch.batches_formed >= 1);
    assert!(batch.batches_formed <= batch.batched_requests);
    assert_eq!(baseline.metrics().batch.switches_avoided, 0);
    // Less switch time on the same work: the batched makespan cannot be
    // worse on a single tile.
    assert!(report.metrics().makespan_us <= baseline.metrics().makespan_us);

    // Reordering never changes functional results: every request computes
    // exactly what the reference evaluator says, in both serves.
    let options = LowerOptions::default();
    for report in [&baseline, &report] {
        for outcome in report.outcomes() {
            let request = &requests[outcome.request_id as usize];
            let dfg = request.kernel.dfg(&options).unwrap();
            let expected = evaluate_stream(&dfg, request.workload.records()).unwrap();
            assert_eq!(outcome.outputs(), expected);
        }
    }
}

#[test]
fn the_run_cap_bounds_consecutive_batched_dispatches() {
    let requests = interleaved_burst(32, 4);
    let switches = |max_batch: usize| {
        let mut runtime = Runtime::new(FuVariant::V4, 1)
            .unwrap()
            .with_batching(BatchConfig::with_max_batch(max_batch));
        serve(&mut runtime, &requests).metrics().switch_count
    };
    let tight = switches(2);
    let loose = switches(16);
    let unbatched = switches(1);
    // A tighter cap lets the deferred kernel through more often.
    assert!(
        tight > loose,
        "cap 2 must switch more than cap 16 ({tight} vs {loose})"
    );
    assert!(tight < unbatched, "even cap 2 beats no batching");
}

#[test]
fn a_zero_staleness_bound_disables_diversion_entirely() {
    let requests = interleaved_burst(20, 4);
    let mut plain = Runtime::new(FuVariant::V4, 1).unwrap();
    let mut held = Runtime::new(FuVariant::V4, 1)
        .unwrap()
        .with_batching(BatchConfig::with_max_batch(8).with_max_hold_us(0.0));
    let baseline = serve(&mut plain, &requests);
    let report = serve(&mut held, &requests);
    // Every queued choice has waited > 0 by the time its tile frees, so the
    // staleness bound vetoes every diversion — the serve is the baseline.
    assert_eq!(report.metrics().batch.switches_avoided, 0);
    assert_eq!(
        report.metrics().switch_count,
        baseline.metrics().switch_count
    );
    assert_eq!(report.metrics().makespan_us, baseline.metrics().makespan_us);
}

/// A still-feasible deadline vetoes the batch that would break it; a loose
/// one lets the batch through.
#[test]
fn feasible_deadlines_win_over_batching() {
    let (hot, hot_inputs) = spec(Benchmark::Gradient);
    let (urgent, urgent_inputs) = spec(Benchmark::Chebyshev);
    // Probe the urgent kernel's standalone service time to scale deadlines.
    let mut probe = Runtime::new(FuVariant::V4, 1).unwrap();
    let urgent_svc = probe
        .serve(vec![Request::new(
            0,
            urgent.clone(),
            Workload::random(urgent_inputs, 2, 9),
        )])
        .unwrap()
        .outcomes()[0]
        .completion_us;
    let blocker_done = probe
        .serve(vec![Request::new(
            0,
            hot.clone(),
            Workload::random(hot_inputs, 48, 1),
        )])
        .unwrap()
        .outcomes()[0]
        .completion_us;

    let trace = |deadline_us: f64| {
        vec![
            // The blocker occupies the tile while the rest queue.
            Request::new(0, hot.clone(), Workload::random(hot_inputs, 48, 1)).at(0.0),
            // The urgent different-kernel request is at the queue head...
            Request::new(1, urgent.clone(), Workload::random(urgent_inputs, 2, 9))
                .at(0.0)
                .with_deadline(deadline_us),
            // ...and a long same-kernel waiter tempts the batcher.
            Request::new(2, hot.clone(), Workload::random(hot_inputs, 48, 2)).at(0.0),
        ]
    };
    let run = |deadline_us: f64| {
        let mut runtime = Runtime::new(FuVariant::V4, 1)
            .unwrap()
            .with_batching(BatchConfig::with_max_batch(8));
        serve(&mut runtime, &trace(deadline_us))
    };

    // Tight-but-feasible: met if run at the drain, broken by another 48-block
    // batched run first. The batcher must stand down.
    let tight = run(blocker_done + 4.0 * urgent_svc);
    assert_eq!(tight.metrics().batch.switches_avoided, 0);
    assert_eq!(tight.metrics().deadline_misses, 0, "the deadline was kept");
    // Loose: feasible even after the batched run, so the batch proceeds and
    // the deadline is still met.
    let loose = run(blocker_done + 4.0 * urgent_svc + 2.0 * blocker_done);
    assert!(loose.metrics().batch.switches_avoided >= 1);
    assert_eq!(loose.metrics().deadline_misses, 0);
    let urgent_outcome = |report: &ServeReport| {
        report
            .outcomes()
            .iter()
            .find(|o| o.request_id == 1)
            .unwrap()
            .start_us
    };
    assert!(
        urgent_outcome(&loose) > urgent_outcome(&tight),
        "the loose deadline let the batch run first"
    );
}

#[test]
fn cluster_batching_mirrors_the_runtime_layer() {
    // 3 devices against the 2-kernel alternation: the periods are coprime,
    // so least-loaded routing hands every device an interleaved queue.
    let requests = interleaved_burst(24, 4);
    let mut plain = Cluster::new(FuVariant::V4, 3, 1)
        .unwrap()
        .with_route_policy(RoutePolicy::LeastLoaded);
    let mut batched = Cluster::new(FuVariant::V4, 3, 1)
        .unwrap()
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_batching(BatchConfig::with_max_batch(16));
    let baseline = plain.serve(requests.clone()).unwrap();
    let report = batched.serve(requests).unwrap();
    assert!(report.metrics().batch.switches_avoided > 0);
    assert!(report.metrics().switch_count < baseline.metrics().switch_count);
    assert_eq!(report.outcomes().len(), baseline.outcomes().len());
}

/// A hot kernel's image is pushed ahead of demand: the pushes land before
/// routing spreads the kernel, so the demand path charges fewer transfers
/// and the serve finishes no later.
#[test]
fn replication_pushes_hot_images_ahead_of_demand() {
    let (hot, inputs) = spec(Benchmark::Gradient);
    let requests: Vec<Request> = (0..32)
        .map(|i| {
            Request::new(i, hot.clone(), Workload::random(inputs, 16, i % 4)).at(i as f64 * 0.5)
        })
        .collect();
    let build = || {
        Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded)
    };
    let baseline = build().serve(requests.clone()).unwrap();
    let mut replicated_cluster = build().with_replication(ReplicationConfig::new(3, 2.0, 1000.0));
    let report = replicated_cluster.serve(requests).unwrap();

    let stats = report.replication();
    assert!(stats.replicas_pushed >= 1, "the hot kernel replicates");
    assert!(stats.bytes_prefetched > 0);
    assert!(stats.prefetch_us > 0.0);
    assert_eq!(stats.hot_kernels, 1);
    assert_eq!(baseline.replication().replicas_pushed, 0);
    // Demand acquisitions (charged to requests) drop: warm replicas were
    // already there when routing spread the load.
    assert!(
        report.transfers() + report.host_loads() < baseline.transfers() + baseline.host_loads(),
        "prefetch must absorb demand acquisitions ({}+{} vs {}+{})",
        report.transfers(),
        report.host_loads(),
        baseline.transfers(),
        baseline.host_loads()
    );
    // With one kernel the routing decisions are load-only, so cheaper
    // acquisition can only help the makespan.
    assert!(report.metrics().makespan_us <= baseline.metrics().makespan_us);
}

#[test]
fn cold_replicas_are_demoted_under_store_pressure() {
    let (first, first_inputs) = spec(Benchmark::Gradient);
    let (second, second_inputs) = spec(Benchmark::Chebyshev);
    // Phase 1: kernel A is hot and replicates everywhere. Phase 2 (after a
    // long quiet gap that cools A): kernel B becomes hot; with capacity-1
    // stores every B push lands on a full store whose only entry may be the
    // stale A replica — the replicator demotes it instead of trusting LRU.
    let mut requests: Vec<Request> = (0..12)
        .map(|i| {
            Request::new(i, first.clone(), Workload::random(first_inputs, 4, i % 2))
                .at(i as f64 * 2.0)
        })
        .collect();
    requests.extend((0..12).map(|i| {
        Request::new(
            100 + i,
            second.clone(),
            Workload::random(second_inputs, 4, i % 2),
        )
        .at(1.0e6 + i as f64 * 2.0)
    }));
    // 5 devices with fanout 4 and capacity-1 stores: wherever the two
    // kernels' home shards land, at least one phase-2 push targets a store
    // whose only entry is a stale *pushed* phase-1 replica.
    let mut cluster = Cluster::new(FuVariant::V4, 5, 1)
        .unwrap()
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_cache_capacity(1)
        .unwrap()
        .with_replication(ReplicationConfig::new(4, 2.0, 100.0));
    let report = cluster.serve(requests).unwrap();
    let stats = report.replication();
    assert_eq!(stats.hot_kernels, 2, "both phases cross the threshold");
    assert!(stats.replicas_pushed >= 2);
    assert!(
        stats.replicas_demoted >= 1,
        "phase 2 pushes must demote phase 1's cold replicas, got {stats:?}"
    );
    assert_eq!(report.outcomes().len(), 24);
}

/// The full control plane on a skewed-tenant ρ = 2 overload of a 4 × 4
/// least-loaded fleet: one hot tenant takes ~70 % of 1 024 requests after
/// sitting out the first tenth, three cold tenants share the rest, and
/// block counts cycling 1–3 × 4 keep every tile's queue kernel-interleaved.
/// On V4 tiles (cheap, frequent instruction reloads) batching plus
/// replication cuts context switches ≥ 3×; on V1 tiles every switch is a
/// millisecond PCAP reload, so switches are already rare and stay put.
/// Each fleet serves an 8-request warm-up first.
#[test]
fn batching_and_replication_cut_switches_on_a_skewed_overload() {
    let suite = [
        Benchmark::Gradient, // hot
        Benchmark::Chebyshev,
        Benchmark::Qspline,
        Benchmark::Poly5,
    ];
    let trace = |count: usize, spacing_us: f64, budget_us: f64| -> Vec<Request> {
        let mut cold_cursor = 0usize;
        (0..count)
            .map(|i| {
                // A deterministic 70/10/10/10 interleave via a mixed index.
                let roll = (i.wrapping_mul(0x9E37_79B9) >> 4) % 1000;
                let tenant = if i >= count / 10 && roll < 700 {
                    0
                } else {
                    cold_cursor += 1;
                    1 + cold_cursor % 3
                };
                let (kernel, inputs) = spec(suite[tenant]);
                let workload =
                    Workload::random(inputs, 4 * (1 + i % 3), (tenant * 4 + i % 4) as u64);
                let arrival = i as f64 * spacing_us;
                Request::new(i as u64, kernel, workload)
                    .at(arrival)
                    .with_deadline(arrival + budget_us)
            })
            .collect()
    };
    // (variant, [baseline, batch, batch+repl] switches, replicas pushed)
    let expected = [
        (FuVariant::V4, [388, 118, 111], 3),
        (FuVariant::V1, [16, 16, 16], 2),
    ];
    for (variant, switches, pushed) in expected {
        let service_us = serve(&mut Runtime::new(variant, 1).unwrap(), &trace(1, 1.0, 1e9))
            .outcomes()[0]
            .completion_us;
        let spacing_us = service_us / 32.0;
        let requests = trace(1024, spacing_us, 8.0 * service_us);
        let run = |batch: bool, replicate: bool| {
            let mut cluster = Cluster::new(variant, 4, 4)
                .unwrap()
                .with_route_policy(RoutePolicy::LeastLoaded);
            if batch {
                cluster = cluster.with_batching(BatchConfig::with_max_batch(32));
            }
            if replicate {
                // Push hot images to every other device; the EWMA window
                // spans ~64 arrivals, so only the hot tenant turns hot.
                cluster =
                    cluster.with_replication(ReplicationConfig::new(3, 3.0, 64.0 * spacing_us));
            }
            cluster.serve(requests[..8].to_vec()).unwrap();
            let report = cluster.serve(requests.clone()).unwrap();
            (
                report.metrics().switch_count,
                report.replication().replicas_pushed,
            )
        };
        let baseline = run(false, false);
        let batched = run(true, false);
        let controlled = run(true, true);
        assert_eq!(
            [baseline.0, batched.0, controlled.0],
            switches,
            "{variant} switches"
        );
        assert_eq!(
            [baseline.1, batched.1, controlled.1],
            [0, 0, pushed],
            "{variant} pushes"
        );
        if variant == FuVariant::V4 {
            assert!(
                baseline.0 >= 3 * controlled.0,
                "the control plane must cut V4 switches >= 3x"
            );
        }
    }
}

#[test]
fn replication_with_an_unreachable_threshold_never_pushes() {
    let (hot, inputs) = spec(Benchmark::Gradient);
    let requests: Vec<Request> = (0..16)
        .map(|i| Request::new(i, hot.clone(), Workload::random(inputs, 4, i % 4)).at(i as f64))
        .collect();
    let mut cluster = Cluster::new(FuVariant::V4, 4, 1)
        .unwrap()
        .with_route_policy(RoutePolicy::LeastLoaded)
        .with_transfer_model(TransferModel::new())
        .with_replication(ReplicationConfig::new(3, 1.0e9, 100.0));
    assert_eq!(cluster.replication_config().fanout, 3);
    let report = cluster.serve(requests).unwrap();
    assert_eq!(report.replication().replicas_pushed, 0);
    assert_eq!(report.replication().hot_kernels, 0);
    // Demand still spreads the kernel the old way.
    assert!(report.transfers() + report.host_loads() > 0);
}
