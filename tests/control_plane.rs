//! Control-plane integration suite: same-kernel batching, end to end
//! through the public `Cluster` API, from one device up.
//!
//! The reference serve (`tests/support/reference.rs`) pins every batching
//! decision, the *disabled* control plane's included, bitwise; this
//! suite exercises the *enabled* behavior: batching groups interleaved
//! kernels and cuts context switches (honoring the run cap, the staleness
//! bound and deadline feasibility).

mod support;

use support::{check_outputs, cluster, service_us, suite_kernel as spec, Audited};
use tm_overlay::{
    BatchConfig, Benchmark, Cluster, FuVariant, KernelSpec, Request, RoutePolicy, ServeReport,
    Workload,
};

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

#[test]
fn batching_groups_an_interleaved_burst_and_cuts_switches() {
    let requests = interleaved_burst(24, 4);
    let mut plain = Cluster::new(FuVariant::V4, 1, 1).unwrap();
    let mut batched = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .with_batching(BatchConfig::with_max_batch(32));
    assert_eq!(batched.batching().max_batch, 32);
    let baseline = plain.serve_audited(&requests).unwrap();
    let report = batched.serve_audited(&requests).unwrap();

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
    check_outputs(&requests, &baseline).unwrap();
    check_outputs(&requests, &report).unwrap();
}

#[test]
fn the_run_cap_bounds_consecutive_batched_dispatches() {
    let requests = interleaved_burst(32, 4);
    let switches = |max_batch: usize| {
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_batching(BatchConfig::with_max_batch(max_batch));
        runtime
            .serve_audited(&requests)
            .unwrap()
            .metrics()
            .switch_count
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
    let mut plain = Cluster::new(FuVariant::V4, 1, 1).unwrap();
    let mut held = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .with_batching(BatchConfig::with_max_batch(8).with_max_hold_us(0.0));
    let baseline = plain.serve_audited(&requests).unwrap();
    let report = held.serve_audited(&requests).unwrap();
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
    let probe = |spec: &KernelSpec, workload| {
        service_us(FuVariant::V4, Request::new(0, spec.clone(), workload))
    };
    let urgent_svc = probe(&urgent, Workload::random(urgent_inputs, 2, 9));
    let blocker_done = probe(&hot, Workload::random(hot_inputs, 48, 1));

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
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_batching(BatchConfig::with_max_batch(8));
        runtime.serve_audited(&trace(deadline_us)).unwrap()
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
    // 3 devices against the 2-kernel alternation: power-of-two routing
    // spreads the burst, so every device gets an interleaved queue.
    let requests = interleaved_burst(24, 4);
    let mut plain = cluster(3, 1, RoutePolicy::PowerOfTwoChoices);
    let mut batched = cluster(3, 1, RoutePolicy::PowerOfTwoChoices)
        .with_batching(BatchConfig::with_max_batch(16));
    let baseline = plain.serve_audited(&requests).unwrap();
    let report = batched.serve_audited(&requests).unwrap();
    assert!(report.metrics().batch.switches_avoided > 0);
    assert!(report.metrics().switch_count < baseline.metrics().switch_count);
    assert_eq!(report.outcomes().len(), baseline.outcomes().len());
}

/// Batching on a skewed-tenant ρ = 2 overload of a 4 × 4 power-of-two
/// fleet: one hot tenant takes ~70 % of 1 024 requests after sitting out
/// the first tenth, three cold tenants share the rest, and block counts
/// cycling 1–3 × 4 keep every tile's queue kernel-interleaved. On V4 tiles
/// (cheap, frequent instruction reloads) batching cuts context switches
/// ≥ 3×; on V1 tiles every switch is a millisecond PCAP reload, so
/// switches are already rare and stay put. Each fleet serves an 8-request
/// warm-up first.
#[test]
fn batching_cuts_switches_on_a_skewed_overload() {
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
    // (variant, [baseline, batch] switches)
    let expected = [(FuVariant::V4, [292, 92]), (FuVariant::V1, [12, 12])];
    for (variant, switches) in expected {
        let service_us = service_us(variant, trace(1, 1.0, 1e9).remove(0));
        let spacing_us = service_us / 32.0;
        let requests = trace(1024, spacing_us, 8.0 * service_us);
        let run = |batch: bool| {
            let mut cluster = Cluster::new(variant, 4, 4)
                .unwrap()
                .with_route_policy(RoutePolicy::PowerOfTwoChoices);
            if batch {
                cluster = cluster.with_batching(BatchConfig::with_max_batch(32));
            }
            cluster.serve_audited(&requests[..8]).unwrap();
            let report = cluster.serve_audited(&requests).unwrap();
            report.metrics().switch_count
        };
        let (baseline, batched) = (run(false), run(true));
        assert_eq!([baseline, batched], switches, "{variant} switches");
        if variant == FuVariant::V4 {
            assert!(
                baseline >= 3 * batched,
                "batching must cut V4 switches >= 3x"
            );
        }
    }
}
