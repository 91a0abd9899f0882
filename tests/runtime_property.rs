//! Property-based tests for the online runtime's event loop (vendored
//! `proptest` shim): arbitrary arrival/deadline traces never lose or
//! duplicate a request id, the virtual timeline stays monotone and
//! physically consistent per tile, and slack-aware dispatch (EDF on one
//! kernel) dominates FIFO on feasible single-tenant traces. A scenario generator over any configuration,
//! infinite and NaN fields included, returns a well-formed schedule, and a
//! cluster serve under any fault plan, or of any pipelines, returns its
//! report or a typed error.

mod support;

use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use rand::prelude::*;

use support::{audit, audit_pipelines, cluster, random_trace, service_us, Audited, SAXPY};
use tm_overlay::runtime::{FlashCrowd, Scenario, ScenarioConfig};
use tm_overlay::{
    Cluster, DispatchPolicy, FaultPlan, FuVariant, KernelSpec, PipelineRequest, PipelineStage,
    Request, RoutePolicy, Session, SloClass, Workload,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No arrival/deadline trace — with or without admission pressure — may
    /// lose or duplicate a request id, under any policy.
    #[test]
    fn no_request_is_lost_or_duplicated(
        (seed, count, tiles) in (any::<u64>(), 2usize..10, 1usize..4),
        limit in 1usize..12,
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 1.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let mut runtime = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy)
            .with_admission_limit(limit);
        runtime.serve_audited(&requests)?;
    }

    /// The virtual timeline is physically consistent: per-tile busy spans
    /// never overlap, never precede their arrival, and completions are
    /// monotone along each tile.
    #[test]
    fn completions_are_monotone_and_tiles_never_double_book(
        (seed, count, tiles) in (any::<u64>(), 2usize..10, 1usize..4),
        policy_pick in 0..DispatchPolicy::ALL.len(),
    ) {
        let requests = random_trace(seed, count, 5.0);
        let policy = DispatchPolicy::ALL[policy_pick];
        let mut runtime = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(policy);
        runtime.serve_audited(&requests)?;
    }

    /// On a single-tenant trace (one kernel, uniform service), slack-aware
    /// dispatch orders every queue by deadline alone — it is EDF — and never
    /// misses a deadline that kernel-affinity FIFO meets: whenever FIFO
    /// meets every deadline the trace is feasible for a work-conserving
    /// scheduler, and non-preemptive EDF must then meet them all too
    /// (Jeffay-style optimality on each tile; both policies place
    /// identically, so the comparison decomposes per tile).
    #[test]
    fn edf_never_misses_a_deadline_that_affinity_meets_single_tenant(
        (seed, count, tiles) in (any::<u64>(), 2usize..10, 1usize..3),
        budget_factor in 3u64..20,
    ) {
        let spec = KernelSpec::from_source("saxpy", SAXPY);
        let workload = Workload::random(3, 3, seed);
        // Probe the uniform service time so deadline budgets scale with the
        // timing model instead of hard-coding microseconds.
        let service_us =
            service_us(FuVariant::V4, Request::new(0, spec.clone(), workload.clone()));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut clock_us = 0.0;
        let requests: Vec<Request> = (0..count)
            .map(|i| {
                clock_us += rng.gen_range(0..=10u64) as f64 * 0.1 * service_us;
                let budget = rng.gen_range(1..=budget_factor) as f64 * 0.5 * service_us;
                Request::new(i as u64, spec.clone(), workload.clone())
                    .at(clock_us)
                    .with_deadline(clock_us + budget)
            })
            .collect();

        let mut affinity = Cluster::new(FuVariant::V4, 1, tiles).unwrap();
        let fifo = affinity.serve_audited(&requests)?;
        let mut edf = Cluster::new(FuVariant::V4, 1, tiles)
            .unwrap()
            .with_policy(DispatchPolicy::SlackAware);
        let edf_report = edf.serve_audited(&requests)?;

        prop_assert_eq!(fifo.metrics().deadline_requests, count);
        prop_assert_eq!(edf_report.metrics().deadline_requests, count);
        if fifo.metrics().deadline_misses == 0 {
            prop_assert!(
                edf_report.metrics().deadline_misses == 0,
                "FIFO met every deadline (trace is feasible) but EDF missed {} of {}",
                edf_report.metrics().deadline_misses,
                count
            );
        } else {
            // Overloaded trace: EDF carries no feasibility guarantee, but
            // the serve must still be complete and consistent.
            prop_assert!(edf_report.metrics().deadline_misses <= count);
        }
    }
}

/// One of +∞, −∞, NaN, zero or a value in `[-bound, bound]`, half the time
/// the last.
fn edge_f64(rng: &mut StdRng, bound: f64) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        3 => 0.0,
        _ => (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * bound - bound,
    }
}

/// `count` submission ids: from 0, straddling 2⁴⁸ or ending at `u64::MAX`;
/// ascending or descending; and a third of the time one id repeated.
fn edge_ids(rng: &mut StdRng, count: usize) -> Vec<u64> {
    let first = match rng.gen_range(0..3u32) {
        0 => 0,
        1 => (1 << 48) - count as u64 / 2,
        _ => u64::MAX - (count as u64).saturating_sub(1),
    };
    let mut ids: Vec<u64> = (0..count as u64).map(|i| first + i).collect();
    if rng.gen_bool(0.5) {
        ids.reverse();
    }
    if count > 1 && rng.gen_bool(0.3) {
        let from = rng.gen_range(0..count);
        ids[(from + rng.gen_range(1..count)) % count] = ids[from];
    }
    ids
}

/// Whether some id in `ids` repeats.
fn repeats(ids: impl Iterator<Item = u64>) -> bool {
    let mut seen = HashSet::new();
    !ids.into_iter().all(|id| seen.insert(id))
}

/// What `work` returns, computed on a thread of its own, or why it did not
/// come back within ten seconds.
fn in_time<T: Send + 'static>(
    work: impl FnOnce() -> T + Send + 'static,
) -> Result<T, &'static str> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(work()));
    rx.recv_timeout(Duration::from_secs(10))
        .map_err(|error| match error {
            RecvTimeoutError::Timeout => "it did not return",
            RecvTimeoutError::Disconnected => "it panicked",
        })
}

/// A fault plan of `events` random events on a `devices`-device fleet.
/// Half the plans are `wild`: times anywhere, NaN and ±∞ included and in no
/// order, and device ids up to two past the fleet.
fn wild_plan(rng: &mut StdRng, events: usize, devices: usize) -> FaultPlan {
    let wild = rng.gen_bool(0.5);
    (0..events).fold(FaultPlan::new(), |plan, _| {
        let time_us = if wild {
            edge_f64(rng, 200.0)
        } else {
            rng.gen_range(0..200u64) as f64
        };
        let device = rng.gen_range(0..devices + 2 * usize::from(wild));
        match rng.gen_range(0..5u32) {
            0 => plan.kill(time_us, device),
            1 => plan.revive(time_us, device),
            2 => plan.drain(time_us, device),
            3 => plan.undrain(time_us, device),
            _ if wild => plan.degrade_links(time_us, edge_f64(rng, 4.0)),
            _ => plan.degrade_links(time_us, rng.gen_range(1..4u64) as f64),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `ScenarioConfig` and `FlashCrowd` field, finite or not, gives
    /// a generator whose schedule comes back, in order, inside the
    /// sanitized duration and over the sanitized tenants.
    #[test]
    fn any_scenario_returns_a_well_formed_schedule(seed in any::<u64>(), crowds in 0usize..=2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ScenarioConfig {
            base_rate_per_ms: edge_f64(&mut rng, 10.0),
            duration_us: edge_f64(&mut rng, 1_000.0),
            diurnal_amplitude: edge_f64(&mut rng, 2.0),
            diurnal_period_us: edge_f64(&mut rng, 1_000.0),
            tenants: rng.gen_range(0..=5usize),
            hot_tenant_weight: edge_f64(&mut rng, 10.0),
            churn_period_us: edge_f64(&mut rng, 1_000.0),
            pipeline_depth: rng.gen_range(0..=5usize),
            seed: rng.next_u64(),
        };
        let mut scenario = Scenario::new(config);
        for _ in 0..crowds {
            scenario = scenario.with_flash_crowd(FlashCrowd {
                start_us: edge_f64(&mut rng, 1_000.0),
                duration_us: edge_f64(&mut rng, 1_000.0),
                multiplier: edge_f64(&mut rng, 10.0),
            });
        }
        let schedule = scenario.clone();
        let arrivals = in_time(move || schedule.arrivals());
        prop_assert!(arrivals.is_ok(), "{config:?}: arrivals(): {}", arrivals.unwrap_err());
        let sanitized = scenario.config();
        let mut last_us = 0.0;
        for arrival in arrivals.unwrap() {
            prop_assert!(
                arrival.arrival_us >= last_us && arrival.arrival_us <= sanitized.duration_us,
                "{config:?}: arrival at {} after {last_us}",
                arrival.arrival_us
            );
            prop_assert!(arrival.tenant < sanitized.tenants);
            last_us = arrival.arrival_us;
        }
    }

    /// Any fault plan — NaN, infinite and out-of-order times, devices past
    /// the fleet — over any ids ([`edge_ids`]) makes a cluster serve either
    /// fail with a typed error or pass the audit; repeated ids always fail.
    #[test]
    fn any_fault_plan_serves_or_fails_with_a_typed_error(
        seed in any::<u64>(),
        events in 0usize..8,
        devices in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = wild_plan(&mut rng, events, devices);
        let mut requests = random_trace(seed, 12, 3.0);
        for (request, id) in requests.iter_mut().zip(edge_ids(&mut rng, 12)) {
            request.id = id;
        }
        let repeated = repeats(requests.iter().map(|r| r.id));
        let shown = format!("{plan:?} {:?}", requests.iter().map(|r| r.id).collect::<Vec<_>>());
        let served = in_time(move || {
            cluster(devices, 2, RoutePolicy::PowerOfTwoChoices)
                .with_fault_plan(plan)
                .serve(requests.clone())
                .map(|report| audit(&requests, &report))
        });
        prop_assert!(served.is_ok(), "{shown}: the serve: {}", served.unwrap_err());
        match served {
            Ok(Ok(Err(failed))) => prop_assert!(false, "{shown}: {failed:?}"),
            Ok(Ok(Ok(()))) => prop_assert!(!repeated, "{shown}: a repeated id served"),
            _ => {}
        }
    }

    /// Any pipelines served through a cluster, with or without a fault
    /// plan, give a report that passes the audit or a typed error; repeated
    /// ids always fail. A fifth of them are wild: empty stage lists,
    /// dependencies on themselves, on later stages or past the end, NaN,
    /// infinite and out-of-order arrivals. Their ids are [`edge_ids`].
    #[test]
    fn any_pipelines_serve_or_fail_with_a_typed_error(
        seed in any::<u64>(),
        count in 0usize..6,
        faults in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let saxpy = KernelSpec::from_source("saxpy", SAXPY);
        let mut clock_us = 0.0;
        let ids = edge_ids(&mut rng, count);
        let repeated = repeats(ids.iter().copied());
        let pipelines: Vec<PipelineRequest> = ids
            .into_iter()
            .map(|id| {
                let wild = rng.gen_bool(0.2);
                clock_us += rng.gen_range(0..20u64) as f64;
                let arrival_us = if wild { edge_f64(&mut rng, 50.0) } else { clock_us };
                let mut pipeline = PipelineRequest::new(id, rng.gen_range(0..3u64)).at(arrival_us);
                if rng.gen_bool(0.3) {
                    let budget = edge_f64(&mut rng, 100.0);
                    pipeline = pipeline.with_deadline(arrival_us + budget);
                }
                let stages = rng.gen_range(usize::from(!wild)..4usize);
                for stage in 0..stages {
                    let mut deps: Vec<usize> = (0..rng.gen_range(0..3usize))
                        .map(|_| rng.gen_range(0..stages + 2))
                        .collect();
                    if !wild {
                        deps.retain(|&dep| dep < stage);
                        deps.sort_unstable();
                        deps.dedup();
                    }
                    let workload = Workload::random(3, rng.gen_range(1..3usize), id);
                    let stage = PipelineStage::new(saxpy.clone(), workload)
                        .after(&deps)
                        .emits(rng.gen_range(0..1u64 << 20));
                    pipeline = pipeline.stage(stage);
                }
                pipeline
            })
            .collect();
        let sessions = [
            Session::new(0).with_slo(SloClass::Latency),
            Session::new(1),
            Session::new(2).with_slo(SloClass::BestEffort),
        ];
        let plan = wild_plan(&mut rng, faults, 2);
        let shown = format!("{pipelines:?} {plan:?}");
        let served = in_time(move || {
            let mut cluster = Cluster::new(FuVariant::V4, 2, 2).unwrap();
            if !plan.is_empty() {
                cluster = cluster.with_fault_plan(plan);
            }
            cluster
                .serve_pipelines(pipelines.clone(), &sessions)
                .map(|report| audit_pipelines(&pipelines, &sessions, &report))
        });
        prop_assert!(served.is_ok(), "{shown}: the serve: {}", served.unwrap_err());
        match served {
            Ok(Ok(Err(failed))) => prop_assert!(false, "{shown}: {failed:?}"),
            Ok(Ok(Ok(()))) => prop_assert!(!repeated, "{shown}: a repeated id served"),
            _ => {}
        }
    }
}
