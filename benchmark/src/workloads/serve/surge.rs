//! `cluster_surge`: the cluster loop under overload.

use std::time::Instant;

use tm_overlay::dfg::Value;
use tm_overlay::frontend::Benchmark;
use tm_overlay::{
    Cluster, ClusterReport, FaultPlan, FlashCrowd, RoutePolicy, Runtime, RuntimeMetrics, Scenario,
};

use super::{profile_children, scenario_config, Pooled, ServeStats, Tenants, Trace, VARIANT};
use crate::pin;
use crate::span::Tracer;
use crate::stats::{self, ratio};
use crate::workloads::{Layers, Modeled, RepOutcome, Sizing, SplitMix64, Timer, Workload};

/// `cluster_surge`: an 8-device cluster under overload — power-of-two
/// routing, an admission limit, a ×3 flash crowd and a device killed and
/// revived mid-schedule. Routing, transfers, refusals, deadline misses and
/// requeues are the work; `modeled_met_share` sits below 1 so a policy
/// change moves it either way. One op is one request submitted.
pub struct ClusterSurge {
    tenants: Tenants,
    trace: Trace,
    cluster: Option<Cluster>,
    last: Option<SurgeCounters>,
}

#[derive(Debug, Clone)]
struct SurgeCounters {
    metrics: RuntimeMetrics,
    requeues: u64,
    lost_work_us: f64,
    faults: u64,
    transfers: u64,
    transfer_bytes: u64,
    host_loads: u64,
}

impl SurgeCounters {
    fn of(report: &ClusterReport) -> Self {
        SurgeCounters {
            metrics: report.metrics().clone(),
            requeues: report.requeues() as u64,
            lost_work_us: report.lost_work_us(),
            faults: report.faults() as u64,
            transfers: report.transfers() as u64,
            transfer_bytes: report.transfer_bytes(),
            host_loads: report.host_loads() as u64,
        }
    }
}

impl ClusterSurge {
    /// Devices in the cluster.
    pub const DEVICES: usize = 8;
    /// Base arrival rate, requests per virtual ms — the one tuned value:
    /// it lands `modeled_met_share` at about 0.75 (100 k/ms leaves the
    /// fleet idle at 1.0, 500 k/ms drowns it at 0.54).
    pub const RATE_PER_MS: f64 = 400_000.0;
    /// Tiles per device.
    pub const TILES_PER_DEVICE: usize = 16;
    /// Cluster-wide bound on waiting requests.
    pub const ADMISSION_LIMIT: usize = 4096;
    /// The device the fault plan kills at 40 % and revives at 60 %.
    pub const FAULTY_DEVICE: usize = 3;

    /// Builds the tenants, the surge trace and the cluster from `seed`.
    pub fn new(seed: u64, sizing: &Sizing) -> Self {
        let mut rng = SplitMix64(seed ^ 0x5_0BCE);
        let tenants = Tenants::new(&Benchmark::TABLE3, sizing.workloads_per_kernel, &mut rng);
        // The crowd triples the rate over a tenth of the schedule, so the
        // schedule is 1.2 base-rate durations short of `serve_requests`.
        let config = scenario_config(
            (sizing.surge_requests as f64 / 1.2) as usize,
            Self::RATE_PER_MS,
            tenants.specs.len(),
            rng.next_u64(),
        );
        let duration_us = config.duration_us;
        let scenario = Scenario::new(config).with_flash_crowd(FlashCrowd {
            start_us: 0.25 * duration_us,
            duration_us: 0.1 * duration_us,
            multiplier: 3.0,
        });
        let trace = Trace::from_scenario(&tenants, &scenario, &mut rng);
        let plan = FaultPlan::new()
            .kill(0.4 * duration_us, Self::FAULTY_DEVICE)
            .revive(0.6 * duration_us, Self::FAULTY_DEVICE);
        let cluster = Cluster::new(VARIANT, Self::DEVICES, Self::TILES_PER_DEVICE)
            .expect("the cluster is not empty")
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_admission_limit(Self::ADMISSION_LIMIT)
            .with_fault_plan(plan);
        ClusterSurge {
            tenants,
            trace,
            cluster: Some(cluster),
            last: None,
        }
    }

    fn reconfigure(&mut self, configure: impl FnOnce(Cluster) -> Cluster) {
        self.cluster = self.cluster.take().map(configure);
    }

    /// One serve of a fresh copy of the trace, inside a
    /// `runtime.cluster.serve` span when `tracer` is given.
    fn serve(
        &mut self,
        tracer: Option<&mut Tracer>,
    ) -> (RepOutcome, ServeStats, Option<ClusterReport>) {
        let requests = self.trace.requests.clone();
        // Every repetition starts from cold device kernel stores and a warm
        // memo. Left alone, the stores carry over whatever the revived
        // device re-acquired in the previous serve, and the modelled
        // timeline takes a seed-dependent number of serves to stop changing.
        self.reconfigure(|cluster| {
            cluster
                .with_cache_capacity(Runtime::DEFAULT_CACHE_CAPACITY)
                .expect("the default capacity is not zero")
        });
        let cluster = self.cluster.as_mut().expect("the cluster is parked here");
        let timed = || {
            let timer = Timer::start();
            let result = cluster.serve(requests);
            (timer.stop(), result.ok())
        };
        let (timed, report) = match tracer {
            Some(tracer) => tracer.span("runtime.cluster.serve", 0, |tracer| {
                let (timed, report) = timed();
                profile_children(tracer, report.as_ref().and_then(|r| r.profile()));
                (timed, report)
            }),
            None => timed(),
        };
        let served = report
            .as_ref()
            .map(|r| (r.metrics(), r.outcomes(), r.rejected()));
        let mut pooled = Pooled::default();
        pooled.add(timed, 0..self.ops_per_rep(), served, |id| {
            let (kernel, workload) = self.trace.keys[id as usize];
            &self.tenants.expected[kernel as usize][workload as usize]
        });
        let (outcome, stats) = pooled.finish();
        (outcome, stats, report)
    }
}

impl Workload for ClusterSurge {
    fn ops_per_rep(&self) -> u64 {
        self.trace.requests.len() as u64
    }

    fn warmup_reps(&self) -> usize {
        7
    }

    fn rep(&mut self) -> RepOutcome {
        let (outcome, _, report) = self.serve(None);
        self.last = report.as_ref().map(SurgeCounters::of);
        outcome
    }

    fn rep_traced(&mut self, tracer: &mut Tracer) -> RepOutcome {
        self.reconfigure(|cluster| cluster.with_profiling(true));
        let (outcome, _, _) = self.serve(Some(tracer));
        self.reconfigure(|cluster| cluster.with_profiling(false));
        outcome
    }

    fn check(&mut self) -> (Modeled, u64) {
        let (outcome, stats, _) = self.serve(None);
        (stats.modeled(&self.tenants.facts), outcome.failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, plain_ns_per_op: f64, layers: &mut Layers) {
        let counters = self.last.clone().unwrap_or_else(|| {
            let (_, _, report) = self.serve(None);
            SurgeCounters::of(&report.expect("the surge serve succeeds"))
        });
        let metrics = &counters.metrics;
        let submitted = (metrics.requests + metrics.rejects) as f64;
        layers.insert(
            "runtime.cluster.serve_ns_per_event",
            ratio(plain_ns_per_op * submitted, metrics.events_fired as f64),
        );
        let serve = tracer.totals("runtime.cluster.serve");
        layers.insert(
            "runtime.cluster.unattributed_share",
            ratio(serve.self_ns as f64, serve.total_ns as f64),
        );
        layers.insert("runtime.cluster.rejects", metrics.rejects as f64);
        layers.insert(
            "runtime.cluster.deadline_misses",
            metrics.deadline_misses as f64,
        );
        layers.insert(
            "runtime.cluster.memo_misses",
            metrics.sim_memo.misses as f64,
        );
        layers.insert("runtime.cluster.requeues", counters.requeues as f64);
        layers.insert("runtime.cluster.lost_work_us", counters.lost_work_us);
        layers.insert("runtime.cluster.faults", counters.faults as f64);
        layers.insert("runtime.route.transfers", counters.transfers as f64);
        layers.insert(
            "runtime.route.transfer_bytes",
            counters.transfer_bytes as f64,
        );
        layers.insert("runtime.route.host_loads", counters.host_loads as f64);
        layers.insert(
            "runtime.scenario.arrivals_ns_per_request",
            self.trace.arrivals_ns_per_request,
        );
        layers.insert("dfg.eval_ns_per_block", self.tenants.eval_ns_per_block);

        // The sharded executor: the same trace without faults or admission
        // limit on kernel-hash routing, one thread against two — on every
        // CPU the process may use, not the one the run is pinned to.
        let threads = pin::allowed_cpus().min(2);
        let sharded = |threads: usize| {
            Cluster::new(VARIANT, Self::DEVICES, Self::TILES_PER_DEVICE)
                .expect("the cluster is not empty")
                .with_threads(threads)
        };
        let mut lanes = [sharded(1), sharded(threads)];
        let mut walls = [Vec::new(), Vec::new()];
        let mut events = 0u64;
        pin::unpinned(|| {
            for round in 0..8 {
                for (cluster, walls) in lanes.iter_mut().zip(&mut walls) {
                    let requests = self.trace.requests.clone();
                    let started = Instant::now();
                    let report = cluster.serve(requests);
                    let wall = started.elapsed().as_nanos() as f64;
                    // Round 0 warms the stores and the memo.
                    if round > 0 {
                        walls.push(wall);
                    }
                    events = report.map_or(events, |r| r.metrics().events_fired);
                }
            }
        });
        let serial = stats::median(&walls[0]);
        let parallel = stats::median(&walls[1]);
        layers.insert(
            "runtime.shard.t2_ns_per_event",
            ratio(parallel, events as f64),
        );
        layers.insert("runtime.shard.t2_speedup", ratio(serial, parallel));
    }

    fn corrupt_reference(&mut self) {
        let (kernel, workload) = self.trace.keys[0];
        let value = &mut self.tenants.expected[kernel as usize][workload as usize][0][0];
        *value = value.wrapping_add(Value::new(1));
    }
}
