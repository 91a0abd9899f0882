//! Tier-1 integration suite for the online serving runtime: end-to-end
//! streaming submission → dispatch → simulated execution → completion,
//! checked against the DFG reference evaluator (mirroring `end_to_end.rs`
//! for the batch compiler flow).
//!
//! Covers every FU variant, both dispatch policies, the
//! admission-control reject path, ingest backpressure and deadline-miss
//! accounting.

mod support;

use std::sync::mpsc;
use std::sync::Arc;

use support::{audit, benchmark_trace, check_outputs, service_us, Audited};
use tm_overlay::runtime::RuntimeError;
use tm_overlay::{
    Benchmark, Cluster, DispatchPolicy, FuVariant, KernelSpec, Request, ServeReport, SubmitError,
    Workload,
};

#[test]
fn streaming_serves_correctly_on_every_variant() {
    // The online path must work on the write-back tiles (V3–V5, instruction
    // reload) and the feed-forward ones ([14]/V1/V2, PCAP) alike.
    let requests = benchmark_trace(8, 4, 0xD15C, 2.0, None);
    for variant in FuVariant::ALL {
        let mut runtime = Cluster::new(variant, 1, 2).unwrap();
        let report = runtime
            .serve_stream(|submitter| {
                for request in &requests {
                    submitter.submit(request.clone()).unwrap();
                }
            })
            .unwrap_or_else(|e| panic!("serve_stream failed on {variant}: {e}"));
        audit(&requests, &report).unwrap();
        check_outputs(&requests, &report).unwrap();
        assert!(report.rejected().is_empty());
        assert!(
            report.metrics().switch_count >= 1,
            "{variant}: cold tiles must pay at least one switch"
        );
    }
}

#[test]
fn every_policy_serves_the_same_functional_results() {
    let requests = benchmark_trace(24, 4, 0xD15C, 2.0, None);
    let mut reference: Option<ServeReport> = None;
    for policy in DispatchPolicy::ALL {
        let mut runtime = Cluster::new(FuVariant::V4, 1, 3)
            .unwrap()
            .with_policy(policy);
        let report = runtime.serve_audited(&requests).unwrap();
        check_outputs(&requests, &report).unwrap();
        assert_eq!(report.metrics().requests, 24);
        assert_eq!(report.metrics().tile_requests.iter().sum::<usize>(), 24);
        if let Some(reference) = &reference {
            for (lhs, rhs) in reference.outcomes().iter().zip(report.outcomes()) {
                assert_eq!(
                    lhs.outputs(),
                    rhs.outputs(),
                    "{policy} changed functional results"
                );
            }
        } else {
            reference = Some(report);
        }
    }
}

#[test]
fn try_submit_surfaces_backpressure_to_the_producer() {
    // A rendezvous ingest channel (capacity 0) with a slow consumer: the
    // first try_submit finds no waiting receiver only after the loop has
    // picked up the first request, so eventually some try_submit must see
    // Backpressure; blocking submit still gets everything through.
    let requests = benchmark_trace(6, 2, 0xD15C, 2.0, None);
    let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .with_ingest_capacity(0);
    let (saw_backpressure_tx, saw_backpressure_rx) = mpsc::channel();
    let report = runtime
        .serve_stream(|submitter| {
            let mut saw = false;
            for request in &requests {
                let mut pending = Arc::new(request.clone());
                loop {
                    match submitter.try_submit(pending) {
                        Ok(()) => break,
                        Err(SubmitError::Backpressure(back)) => {
                            saw = true;
                            pending = back;
                            std::thread::yield_now();
                        }
                        Err(SubmitError::Closed(_)) => panic!("loop died"),
                    }
                }
            }
            saw_backpressure_tx.send(saw).unwrap();
        })
        .unwrap();
    audit(&requests, &report).unwrap();
    assert_eq!(report.outcomes().len(), 6);
    // With a rendezvous channel, at least one non-blocking submit races the
    // loop; don't assert it (timing-dependent), just that the signal works.
    let _ = saw_backpressure_rx.recv().unwrap();
}

#[test]
fn admission_control_rejects_queue_overflow_per_policy() {
    // 16 requests land at t=0 on a 1-tile pool that admits 3 waiters: every
    // policy must serve exactly 4 (1 running + 3 queued) and reject 12,
    // without losing or duplicating a single id.
    let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
    let requests: Vec<Request> = (0..16)
        .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
        .collect();
    for policy in DispatchPolicy::ALL {
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(3);
        let report = runtime.serve_audited(&requests).unwrap();
        assert_eq!(report.outcomes().len(), 4, "{policy}");
        assert_eq!(report.rejected().len(), 12, "{policy}");
        assert_eq!(report.metrics().rejects, 12);
        assert_eq!(report.metrics().peak_queue_depth, 3);
        assert_eq!(report.metrics().tile_peak_queue, vec![3]);
        for rejected in report.rejected() {
            assert_eq!(rejected.kernel.as_ref(), "gradient");
            assert_eq!(rejected.arrival_us, 0.0);
        }
    }
}

#[test]
fn deadline_misses_are_counted_per_policy_under_overload() {
    // A single tile with an 8-request backlog whose deadlines tighten toward
    // the back of the FIFO queue (the worst case for arrival order): some
    // deadlines are met and some missed under every policy, and the metrics
    // must account for every deadline carried.
    let spec = KernelSpec::from_benchmark(Benchmark::Chebyshev).unwrap();
    let workload = Workload::random(1, 32, 5);
    let service_us = service_us(
        FuVariant::V4,
        Request::new(0, spec.clone(), workload.clone()),
    );
    let requests: Vec<Request> = (0..8)
        .map(|i| {
            Request::new(i, spec.clone(), workload.clone())
                .at(0.0)
                .with_deadline((8 - i) as f64 * 1.05 * service_us)
        })
        .collect();
    for policy in DispatchPolicy::ALL {
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_policy(policy);
        // The audit holds each miss flag to the modeled timeline and the
        // miss count to the flags.
        let report = runtime.serve_audited(&requests).unwrap();
        let metrics = report.metrics();
        assert_eq!(metrics.deadline_requests, 8, "{policy}");
        let misses = metrics.deadline_misses;
        assert!(
            (metrics.deadline_miss_rate() - misses as f64 / 8.0).abs() < 1e-12,
            "{policy}"
        );
    }
}

#[test]
fn deadline_aware_policies_beat_fifo_on_an_overloaded_queue() {
    // Eight loose-deadline requests arrive ahead of two tight-deadline ones
    // (a latency-sensitive tenant behind a batch tenant's burst). FIFO
    // strands the tight pair at the back of the queue; slack-aware dispatch
    // runs them as soon as the tile frees and must miss strictly fewer
    // deadlines than kernel affinity.
    let spec = KernelSpec::from_benchmark(Benchmark::Chebyshev).unwrap();
    let workload = Workload::random(1, 24, 9);
    let service_us = service_us(
        FuVariant::V4,
        Request::new(0, spec.clone(), workload.clone()),
    );
    let mut requests: Vec<Request> = (0..8)
        .map(|i| {
            Request::new(i, spec.clone(), workload.clone())
                .at(i as f64 * 0.001)
                .with_deadline(30.0 * service_us)
        })
        .collect();
    for i in 8..10u64 {
        let arrival = i as f64 * 0.001;
        requests.push(
            Request::new(i, spec.clone(), workload.clone())
                .at(arrival)
                .with_deadline(arrival + 3.5 * service_us),
        );
    }
    let mut affinity = Cluster::new(FuVariant::V4, 1, 1).unwrap();
    let fifo_misses = affinity
        .serve_audited(&requests)
        .unwrap()
        .metrics()
        .deadline_misses;
    assert!(fifo_misses > 0, "the trace must overload FIFO");
    let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
        .unwrap()
        .with_policy(DispatchPolicy::SlackAware);
    let misses = runtime.serve_audited(&requests).unwrap();
    let misses = misses.metrics().deadline_misses;
    assert!(
        misses < fifo_misses,
        "slack-aware: {misses} misses vs FIFO's {fifo_misses}"
    );
}

#[test]
fn out_of_order_submissions_fail_the_serve_and_release_the_producer() {
    let benchmark = Benchmark::Poly5;
    let spec = KernelSpec::from_benchmark(benchmark).unwrap();
    let inputs = benchmark.dfg().unwrap().num_inputs();
    let mut runtime = Cluster::new(FuVariant::V4, 1, 2).unwrap();
    let result = runtime.serve_stream(|submitter| {
        let first = Request::new(0, spec.clone(), Workload::ramp(inputs, 2)).at(50.0);
        submitter.submit(first).unwrap();
        let stale = Request::new(1, spec.clone(), Workload::ramp(inputs, 2)).at(10.0);
        submitter.submit(stale).unwrap();
        // The loop is now failing; further submissions must not hang — they
        // either enter the dead channel's buffer or see Closed.
        for i in 2..20 {
            let request = Request::new(i, spec.clone(), Workload::ramp(inputs, 2)).at(100.0);
            if submitter.submit(request).is_err() {
                break;
            }
        }
    });
    assert!(matches!(
        result,
        Err(RuntimeError::OutOfOrderArrival { request: 1, .. })
    ));
}

#[test]
fn an_empty_stream_reports_no_requests() {
    let mut runtime = Cluster::new(FuVariant::V4, 1, 2).unwrap();
    let result = runtime.serve_stream(|_submitter| {});
    assert!(matches!(result, Err(RuntimeError::NoRequests)));
}
