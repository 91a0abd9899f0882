//! Fault-tolerance suite: the cluster tier under injected device deaths,
//! graceful drains, elastic revival and link degradation.
//!
//! The anchor property is **zero loss**: under any [`FaultPlan`] that
//! leaves at least one device serviceable, every submitted request appears
//! exactly once in the serve's observables — as a completed outcome or as
//! an explicit reject — never dropped, never duplicated, across every
//! routing policy and any schedule of kills, drains, revives and link
//! events. The deterministic tests then pin the per-fault semantics: a
//! killed device's in-flight work relocates and its store goes cold, a
//! draining device finishes resident work but admits nothing new, a
//! revived device rejoins and serves again, and a fully dead fleet rejects
//! instead of losing work.

mod support;

use proptest::prelude::*;

use support::{
    cluster, dsl_kernels, pressure_trace, random_plan, random_trace, service_us, suite_trace,
    Audited,
};
use tm_overlay::{
    Benchmark, FaultPlan, FuVariant, Request, RoutePolicy, Scenario, ScenarioConfig, SloClass,
    SloConfig, SloObjective, TelemetryConfig, Workload,
};

#[test]
fn a_killed_device_stops_serving_and_its_work_relocates() {
    let requests = pressure_trace(48, 0.4, 11);
    let baseline = cluster(3, 2, RoutePolicy::LeastLoaded)
        .serve_audited(&requests)
        .unwrap();
    assert_eq!(baseline.outcomes().len(), 48);
    let kill_at = baseline.metrics().makespan_us * 0.3;

    let mut faulty =
        cluster(3, 2, RoutePolicy::LeastLoaded).with_fault_plan(FaultPlan::new().kill(kill_at, 0));
    let report = faulty.serve_audited(&requests).unwrap();

    // Nothing lost: the survivors absorb everything.
    assert!(report.rejected().is_empty(), "two devices survived");
    // The dead device commits nothing past the kill instant.
    for outcome in report.outcomes() {
        if outcome.device == 0 {
            assert!(
                outcome.completion_us <= kill_at,
                "request {} completed on the dead device at {} (killed at {kill_at})",
                outcome.request_id,
                outcome.completion_us
            );
        }
    }
    // The ledger shows the fault: displaced work, an availability dent on
    // device 0 only, and (with queues formed) lost in-flight microseconds.
    assert_eq!(report.faults(), 1);
    assert!(report.requeues() > 0, "queued/in-flight work was displaced");
    let availability = report.availability();
    assert!(availability[0] < 1.0, "device 0 was down");
    assert_eq!(availability[1], 1.0);
    assert_eq!(availability[2], 1.0);
    let device = &report.device_metrics()[0];
    assert!(device.availability < 1.0);
    assert_eq!(device.requeues_out, report.requeues());
    assert_eq!(device.faults, 1);
}

#[test]
fn a_draining_device_finishes_resident_work_but_admits_nothing_new() {
    let requests = pressure_trace(40, 0.4, 7);
    let baseline = cluster(2, 2, RoutePolicy::LeastLoaded)
        .serve_audited(&requests)
        .unwrap();
    let drain_at = baseline.metrics().makespan_us * 0.3;

    let mut faulty = cluster(2, 2, RoutePolicy::LeastLoaded)
        .with_fault_plan(FaultPlan::new().drain(drain_at, 1));
    let report = faulty.serve_audited(&requests).unwrap();
    assert!(report.rejected().is_empty(), "device 0 stayed serviceable");
    // Runs in flight at the drain instant complete (graceful, not a kill),
    // but nothing *starts* on the draining device afterwards.
    for outcome in report.outcomes() {
        if outcome.device == 1 {
            assert!(
                outcome.start_us <= drain_at,
                "request {} started on the draining device at {} (drained at {drain_at})",
                outcome.request_id,
                outcome.start_us
            );
        }
    }
    // Graceful means no destroyed work — only queued displacement.
    assert!(report.requeues() > 0, "its queue re-routed");
    assert_eq!(
        report.lost_work_us(),
        0.0,
        "no in-flight work was abandoned"
    );
    assert!(report.availability()[1] < 1.0);
}

#[test]
fn a_revived_device_rejoins_the_fleet_and_serves_again() {
    let requests = pressure_trace(60, 0.4, 3);
    let baseline = cluster(2, 1, RoutePolicy::LeastLoaded)
        .serve_audited(&requests)
        .unwrap();
    let makespan = baseline.metrics().makespan_us;
    let (kill_at, revive_at) = (makespan * 0.2, makespan * 0.4);

    let mut faulty = cluster(2, 1, RoutePolicy::LeastLoaded)
        .with_fault_plan(FaultPlan::new().kill(kill_at, 0).revive(revive_at, 0));
    let report = faulty.serve_audited(&requests).unwrap();
    assert!(report.rejected().is_empty());
    // The revived device picks work back up: with one tile per device and
    // sustained pressure, least-loaded routing must use it again.
    assert!(
        report
            .outcomes()
            .iter()
            .any(|o| o.device == 0 && o.start_us > revive_at),
        "device 0 never served after its revival"
    );
    // Its availability reflects the down window, not the whole serve.
    let availability = report.availability()[0];
    assert!(
        availability < 1.0 && availability > 0.0,
        "got {availability}"
    );
    // Revival is cold: the store was wiped, so the device re-acquires
    // kernel images it had already paid for before the kill.
    let baseline_loads = baseline.device_metrics()[0].host_loads + baseline.transfers();
    let faulty_loads = report.device_metrics()[0].host_loads + report.transfers();
    assert!(
        faulty_loads > baseline_loads,
        "cold rejoin must re-acquire images ({faulty_loads} vs {baseline_loads})"
    );
}

#[test]
fn a_fully_dead_fleet_rejects_instead_of_losing_requests() {
    let requests = pressure_trace(12, 1.0, 5);
    let mut faulty = cluster(2, 2, RoutePolicy::KernelHash)
        .with_fault_plan(FaultPlan::new().kill(0.0, 0).kill(0.0, 1));
    let report = faulty.serve_audited(&requests).unwrap();
    assert!(report.outcomes().is_empty(), "no device could serve");
    assert_eq!(report.rejected().len(), 12);
    // Nothing completed, so the serve's makespan is zero — and availability
    // over a zero-length serve pins at 1.0 by convention.
    assert_eq!(report.availability(), vec![1.0, 1.0]);
    assert_eq!(report.faults(), 2);
}

#[test]
fn degraded_links_stretch_cross_device_acquisitions() {
    // Least-loaded routing bounces the shared kernels across both devices,
    // so images move over the interconnect; a 50x link multiplier makes
    // those transfers visibly longer without changing what completes.
    let requests = pressure_trace(36, 0.3, 9);
    let plain = cluster(2, 1, RoutePolicy::LeastLoaded)
        .serve_audited(&requests)
        .unwrap();
    assert!(plain.transfers() > 0, "the trace must exercise transfers");
    let mut slowed = cluster(2, 1, RoutePolicy::LeastLoaded)
        .with_fault_plan(FaultPlan::new().degrade_links(0.0, 50.0));
    let report = slowed.serve_audited(&requests).unwrap();
    assert!(
        report.metrics().makespan_us > plain.metrics().makespan_us,
        "slower links must stretch the serve ({} vs {})",
        report.metrics().makespan_us,
        plain.metrics().makespan_us
    );
    // Degradation is not a fault: nothing displaced, nobody unavailable.
    assert_eq!(report.faults(), 0);
    assert_eq!(report.availability(), vec![1.0, 1.0]);
}

#[test]
fn invalid_fault_plans_are_rejected_at_serve_time() {
    let requests = pressure_trace(4, 1.0, 1);
    let mut out_of_range =
        cluster(2, 1, RoutePolicy::KernelHash).with_fault_plan(FaultPlan::new().kill(10.0, 9));
    let err = out_of_range.serve(requests.clone()).unwrap_err();
    assert!(err.to_string().contains("device 9"), "{err}");
    let mut bad_multiplier = cluster(2, 1, RoutePolicy::KernelHash)
        .with_fault_plan(FaultPlan::new().degrade_links(10.0, -2.0));
    assert!(bad_multiplier.serve(requests).is_err());
}

#[test]
fn scenario_traffic_survives_a_rolling_upgrade() {
    // Diurnal load with a flash crowd and tenant churn, served through a
    // rolling drain/undrain sweep of the whole fleet — the end-to-end
    // composition the subsystem exists for.
    let scenario = Scenario::new(ScenarioConfig {
        base_rate_per_ms: 300.0,
        duration_us: 400.0,
        diurnal_amplitude: 0.5,
        diurnal_period_us: 200.0,
        tenants: 3,
        hot_tenant_weight: 6.0,
        churn_period_us: 150.0,
        pipeline_depth: 1,
        seed: 42,
    })
    .with_flash_crowd(tm_overlay::FlashCrowd {
        start_us: 100.0,
        duration_us: 80.0,
        multiplier: 3.0,
    });
    let specs = dsl_kernels();
    let requests: Vec<Request> = scenario
        .arrivals()
        .iter()
        .enumerate()
        .map(|(i, arrival)| {
            let (spec, inputs) = &specs[arrival.tenant];
            let workload = Workload::random(*inputs, 1, i as u64 % 4);
            Request::new(i as u64, spec.clone(), workload).at(arrival.arrival_us)
        })
        .collect();
    assert!(requests.len() > 50, "got {}", requests.len());

    let plan = FaultPlan::rolling_upgrade(4, 40.0, 60.0, 100.0);
    let mut fleet = cluster(4, 2, RoutePolicy::PowerOfTwoChoices).with_fault_plan(plan);
    let report = fleet.serve_audited(&requests).unwrap();

    assert!(report.rejected().is_empty(), "drains are staggered");
    assert_eq!(report.faults(), 4, "each device drained once");
    assert_eq!(report.lost_work_us(), 0.0, "drains abandon nothing");
    for (device, availability) in report.availability().iter().enumerate() {
        assert!(
            *availability < 1.0,
            "device {device} never went down in the rolling sweep"
        );
    }
}

/// Elastic recovery after losing a quarter of the fleet. 3 072 deadline
/// requests over six suite kernels arrive at ρ = 0.6 against an 8 × 16
/// least-loaded fleet; devices 0 and 1 die 40 % into the healthy makespan
/// and come back at 70 %. Nothing is lost. The deadline-miss rate, bucketed
/// into 64 completion windows and smoothed over three, returns within ten
/// points of the healthy steady rate no later than a quarter of the
/// makespan after the revive (windows past the last arrival are drain-phase
/// stragglers and do not count). On the telemetry lens (four-service-time
/// windows, a Standard-class 10.5 % objective) the burn alert fires within
/// one window of the kill and clears only after the revive.
#[test]
fn the_fleet_recovers_from_losing_a_quarter_of_its_devices() {
    const COUNT: usize = 3072;
    const WINDOWS: usize = 64;
    let suite = [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Mibench,
        Benchmark::Qspline,
        Benchmark::Poly5,
        Benchmark::Sgfilter,
    ];
    let trace = |count, spacing_us, budget_us| suite_trace(&suite, count, spacing_us, budget_us);
    let service_us = service_us(FuVariant::V4, trace(1, 1.0, 1e9).remove(0));
    let spacing_us = service_us / (128.0 * 0.6);
    let requests = trace(COUNT, spacing_us, 2.0 * service_us);
    let last_arrival_us = (COUNT - 1) as f64 * spacing_us;

    // The healthy steady rate: past the cold-store warm-up, before arrivals stop.
    let healthy = cluster(8, 16, RoutePolicy::LeastLoaded)
        .serve_audited(&requests)
        .unwrap();
    let healthy_makespan_us = healthy.metrics().makespan_us;
    let steady: Vec<bool> = healthy
        .outcomes()
        .iter()
        .filter(|o| (0.25 * healthy_makespan_us..last_arrival_us).contains(&o.completion_us))
        .map(|o| o.missed_deadline)
        .collect();
    let steady_rate = steady.iter().filter(|&&missed| missed).count() as f64 / steady.len() as f64;
    let kill_at = 0.4 * healthy_makespan_us;
    let revive_at = 0.7 * healthy_makespan_us;
    let report = cluster(8, 16, RoutePolicy::LeastLoaded)
        .with_fault_plan(
            FaultPlan::new()
                .kill(kill_at, 0)
                .kill(kill_at, 1)
                .revive(revive_at, 0)
                .revive(revive_at, 1),
        )
        .with_telemetry(TelemetryConfig::windowed(4.0 * service_us))
        .with_slo(
            SloConfig::disabled()
                .with_objective(SloObjective::new(SloClass::Standard, 0.105).with_windows(1, 2)),
        )
        .serve_audited(&requests)
        .unwrap();
    assert_eq!(report.requeues(), 24);

    // Recovery: the first window from the revive on after which every
    // loaded window's smoothed miss rate stays within 10 points of steady.
    let makespan_us = report.metrics().makespan_us;
    let width_us = makespan_us / WINDOWS as f64;
    let mut buckets = [(0usize, 0usize); WINDOWS];
    for outcome in report.outcomes() {
        let bucket = &mut buckets[((outcome.completion_us / width_us) as usize).min(WINDOWS - 1)];
        bucket.0 += 1;
        bucket.1 += outcome.missed_deadline as usize;
    }
    let curve: Vec<Option<f64>> = buckets
        .iter()
        .map(|&(total, missed)| (total > 0).then(|| missed as f64 / total as f64))
        .collect();
    let smoothed: Vec<Option<f64>> = (0..WINDOWS)
        .map(|w| {
            let near: Vec<f64> = curve[w.saturating_sub(1)..(w + 2).min(WINDOWS)]
                .iter()
                .flatten()
                .copied()
                .collect();
            (!near.is_empty()).then(|| near.iter().sum::<f64>() / near.len() as f64)
        })
        .collect();
    let loaded_windows = ((last_arrival_us / width_us) as usize).min(WINDOWS);
    let revive_window = ((revive_at / width_us) as usize).min(WINDOWS - 1);
    let recovered_window = (revive_window..loaded_windows)
        .find(|&w| {
            smoothed[w..loaded_windows]
                .iter()
                .flatten()
                .all(|&rate| rate <= steady_rate + 0.10)
        })
        .expect("the miss rate never recovered");
    let recovery_us = (recovered_window as f64 * width_us - revive_at).max(0.0);
    assert!(
        recovery_us <= 0.25 * makespan_us,
        "recovered {recovery_us:.2} us after the revive, bound {:.2} us",
        0.25 * makespan_us
    );

    let series = report.telemetry().expect("telemetry was enabled");
    let status = report
        .slo()
        .expect("an SLO objective was configured")
        .class(SloClass::Standard)
        .expect("the standard class is tracked");
    // The cold-store warm-up may fire and clear an alert of its own; the
    // outage's is the first one at or after the kill.
    let alert = status
        .alerts
        .iter()
        .find(|alert| alert.fired_us >= kill_at)
        .expect("the kill must burn the error budget");
    let kill_window = (kill_at / series.window_us) as usize;
    assert!(alert.fired_window <= kill_window + 1);
    assert!(alert.cleared_us.expect("the outage alert never cleared") > revive_at);
    assert_eq!((alert.fired_window, alert.cleared_window), (5, Some(9)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zero loss under arbitrary fault schedules: with device 0 always
    /// serviceable, every request completes or is explicitly rejected —
    /// exactly once — under every routing policy.
    #[test]
    fn no_request_is_lost_under_any_fault_schedule(
        (seed, count, devices, tiles) in (any::<u64>(), 8usize..28, 2usize..5, 1usize..3),
        route_pick in 0usize..3,
        horizon_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let route = RoutePolicy::ALL[route_pick];
        // Horizons from "faults land mid-serve" to "faults mostly after".
        let horizon_us = [5.0, 25.0, 120.0][horizon_pick];
        let plan = random_plan(seed.wrapping_add(1), devices, horizon_us);
        let mut fleet = cluster(devices, tiles, route).with_fault_plan(plan);
        fleet.serve_audited(&requests)?;
    }

    /// Warm resubmission after a faulty serve: the fault state resets, so
    /// a follow-up serve with no plan behaves like a healthy fleet.
    #[test]
    fn fault_state_does_not_leak_across_serves(
        (seed, count) in (any::<u64>(), 6usize..16),
        route_pick in 0usize..3,
    ) {
        let requests = random_trace(seed, count, 3.0);
        let route = RoutePolicy::ALL[route_pick];
        let plan = random_plan(seed.wrapping_add(9), 3, 10.0);
        let mut fleet = cluster(3, 2, route).with_fault_plan(plan);
        let first = fleet.serve_audited(&requests)?;
        // Re-serving re-runs the same plan: the ledger is rebuilt, not
        // accumulated.
        let again = fleet.serve_audited(&requests)?;
        prop_assert_eq!(again.faults(), first.faults());
    }
}
