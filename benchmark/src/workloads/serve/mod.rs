//! The three serving workloads: `serve_steady`, `serve_cold` and
//! `cluster_surge`.
//!
//! All three replay an open-loop arrival schedule **in virtual time**:
//! arrivals are fixed by the seed, queues may grow and admission may refuse.
//! On the host each is a closed loop with one client — a repetition's copy
//! of the request trace is made before the timer starts, the timer covers
//! the serve call alone, and the report is dropped after it stops.

mod cold;
mod steady;
mod surge;

pub use cold::ServeCold;
pub use steady::ServeSteady;
pub use surge::ClusterSurge;

use std::time::{Duration, Instant};

use tm_overlay::dfg::{evaluate_stream, Value};
use tm_overlay::frontend::Benchmark;
use tm_overlay::runtime::obs::Stage;
use tm_overlay::runtime::{RejectedRequest, RequestOutcome};
use tm_overlay::{
    Compiler, FuVariant, KernelSpec, ProfileStats, Request, RuntimeMetrics, Scenario,
    ScenarioConfig, Workload as Blocks,
};

use super::{mix, paper_ii, Allocs, CodeFacts, Modeled, RepOutcome, SplitMix64, FIXED_DEPTH};
use crate::span::Tracer;
use crate::stats::{self, ratio};

const VARIANT: FuVariant = FuVariant::V4;
/// Every request's deadline: this long after it arrives, virtual µs.
const DEADLINE_US: f64 = 20.0;
/// Blocks per request.
const BLOCKS: usize = 2;

/// The kernels a serving workload's tenants run, with per-kernel workloads
/// and their reference outputs.
struct Tenants {
    specs: Vec<KernelSpec>,
    /// `[kernel][workload]`.
    workloads: Vec<Vec<Blocks>>,
    /// `[kernel][workload]` → one output record per block.
    expected: Vec<Vec<Vec<Vec<Value>>>>,
    facts: CodeFacts,
    eval_ns_per_block: f64,
}

impl Tenants {
    fn new(benchmarks: &[Benchmark], per_kernel: usize, rng: &mut SplitMix64) -> Self {
        let mut facts = CodeFacts::default();
        let mut eval_ns = 0u128;
        let mut specs = Vec::new();
        let mut workloads = Vec::new();
        let mut expected = Vec::new();
        for &benchmark in benchmarks {
            let dfg = benchmark.dfg().expect("the paper suite builds");
            let compiled = Compiler::new(VARIANT)
                .with_fixed_depth(FIXED_DEPTH)
                .compile_dfg(&dfg)
                .expect("the paper suite compiles");
            facts.push(
                compiled.ii,
                paper_ii(benchmark, VARIANT),
                compiled.program.total_instructions(),
            );
            let blocks: Vec<Blocks> = (0..per_kernel)
                .map(|_| Blocks::random(dfg.num_inputs(), BLOCKS, rng.next_u64()))
                .collect();
            let started = Instant::now();
            expected.push(
                blocks
                    .iter()
                    .map(|blocks| evaluate_stream(&dfg, blocks.records()).expect("evaluates"))
                    .collect(),
            );
            eval_ns += started.elapsed().as_nanos();
            workloads.push(blocks);
            specs.push(KernelSpec::from_benchmark(benchmark).expect("the paper suite builds"));
        }
        let blocks = (benchmarks.len() * per_kernel * BLOCKS) as f64;
        Tenants {
            specs,
            workloads,
            expected,
            facts,
            eval_ns_per_block: ratio(eval_ns as f64, blocks),
        }
    }
}

/// A request trace plus, per request id, which kernel and workload it
/// carries — what the output check looks the reference up by.
struct Trace {
    requests: Vec<Request>,
    keys: Vec<(u16, u16)>,
    arrivals_ns_per_request: f64,
}

impl Trace {
    /// One request per scenario arrival: the tenant picks the kernel, the
    /// seed picks one of the kernel's workloads.
    fn from_scenario(tenants: &Tenants, scenario: &Scenario, rng: &mut SplitMix64) -> Self {
        let started = Instant::now();
        let arrivals = scenario.arrivals();
        let arrivals_ns = started.elapsed().as_nanos() as f64;
        let mut requests = Vec::with_capacity(arrivals.len());
        let mut keys = Vec::with_capacity(arrivals.len());
        for (id, arrival) in arrivals.iter().enumerate() {
            let kernel = arrival.tenant;
            let workload = rng.below(tenants.workloads[kernel].len());
            requests.push(
                Request::new(
                    id as u64,
                    tenants.specs[kernel].clone(),
                    tenants.workloads[kernel][workload].clone(),
                )
                .at(arrival.arrival_us)
                .with_deadline(arrival.arrival_us + DEADLINE_US),
            );
            keys.push((kernel as u16, workload as u16));
        }
        Trace {
            arrivals_ns_per_request: ratio(arrivals_ns, requests.len() as f64),
            requests,
            keys,
        }
    }
}

/// The scenario both trace-driven workloads share: `tenants` tenants with a
/// 4:1 hot tenant rotating eight times over the schedule and a ±30 % diurnal
/// swing with four periods, sized to `requests` arrivals at `rate_per_ms`.
fn scenario_config(requests: usize, rate_per_ms: f64, tenants: usize, seed: u64) -> ScenarioConfig {
    let duration_us = requests as f64 / rate_per_ms * 1_000.0;
    ScenarioConfig {
        base_rate_per_ms: rate_per_ms,
        duration_us,
        diurnal_amplitude: 0.3,
        diurnal_period_us: duration_us / 4.0,
        tenants,
        hot_tenant_weight: 4.0,
        churn_period_us: duration_us / 8.0,
        pipeline_depth: 1,
        seed,
    }
}

/// Counts the ops of one serve that went wrong: an outcome whose outputs
/// differ from the reference, an id outside `ids`, an id seen twice, and
/// every id of `ids` that was neither served nor rejected.
fn verify<'a>(
    ids: std::ops::Range<u64>,
    outcomes: &[RequestOutcome],
    rejected: &[RejectedRequest],
    expected: impl Fn(u64) -> &'a [Vec<Value>],
) -> u64 {
    let mut seen = vec![false; (ids.end - ids.start) as usize];
    let mut failed = 0u64;
    let mut mark = |id: u64| match id.checked_sub(ids.start) {
        Some(slot) if slot < seen.len() as u64 && !seen[slot as usize] => {
            seen[slot as usize] = true;
            true
        }
        _ => false,
    };
    for outcome in outcomes {
        let known = mark(outcome.request_id);
        failed += !(known && outcome.outputs() == expected(outcome.request_id)) as u64;
    }
    for reject in rejected {
        failed += !mark(reject.id) as u64;
    }
    failed + seen.iter().filter(|seen| !**seen).count() as u64
}

/// What one serve handed back: its metrics, its outcomes and the requests it
/// refused; `None` when the serve call itself failed.
type Served<'a> = Option<(
    &'a RuntimeMetrics,
    &'a [RequestOutcome],
    &'a [RejectedRequest],
)>;

/// Adds up the serves of one repetition: host time and allocations inside
/// the serve calls, the modelled statistics, every latency (for a p99 over
/// the whole repetition) and the ops the output check found wrong.
#[derive(Default)]
struct Pooled {
    wall: Duration,
    allocs: Allocs,
    total: ServeStats,
    latencies_us: Vec<f64>,
    digest: u64,
    failed: u64,
}

impl Pooled {
    /// One serve of the requests `ids`, which took `timed`. A serve that
    /// failed counts every one of its requests as failed.
    fn add<'a>(
        &mut self,
        (wall, allocs): (Duration, Allocs),
        ids: std::ops::Range<u64>,
        served: Served<'_>,
        expected: impl Fn(u64) -> &'a [Vec<Value>],
    ) {
        self.wall += wall;
        self.allocs.count += allocs.count;
        self.allocs.bytes += allocs.bytes;
        let Some((metrics, outcomes, rejected)) = served else {
            self.failed += ids.end - ids.start;
            return;
        };
        self.failed += verify(ids, outcomes, rejected, expected);
        let stats = ServeStats::of(metrics);
        self.digest = mix(self.digest, stats.digest());
        self.total.submitted += stats.submitted;
        self.total.committed += stats.committed;
        self.total.met += stats.met;
        self.total.makespan_us += stats.makespan_us;
        self.latencies_us
            .extend(outcomes.iter().map(|outcome| outcome.latency_us));
    }

    /// The repetition's outcome and its modelled statistics.
    fn finish(mut self) -> (RepOutcome, ServeStats) {
        self.total.p99_us = stats::percentile(&self.latencies_us, 99.0);
        let outcome = RepOutcome {
            wall: self.wall,
            allocs: self.allocs,
            digest: mix(self.digest, self.total.p99_us.to_bits()),
            failed: self.failed,
        };
        (outcome, self.total)
    }
}

/// The modelled statistics of one serve (or of several, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ServeStats {
    submitted: u64,
    committed: u64,
    met: u64,
    makespan_us: f64,
    p99_us: f64,
}

impl ServeStats {
    fn of(metrics: &RuntimeMetrics) -> Self {
        ServeStats {
            submitted: (metrics.requests + metrics.rejects) as u64,
            committed: metrics.requests as u64,
            met: (metrics.deadline_requests - metrics.deadline_misses) as u64,
            makespan_us: metrics.makespan_us,
            p99_us: metrics.p99_latency_us,
        }
    }

    fn digest(&self) -> u64 {
        [
            self.submitted,
            self.committed,
            self.met,
            self.makespan_us.to_bits(),
            self.p99_us.to_bits(),
        ]
        .into_iter()
        .fold(0, mix)
    }

    fn modeled(&self, facts: &CodeFacts) -> Modeled {
        let (ii_geomean, ii_err_vs_paper, code_words_per_kernel) = facts.summary();
        Modeled {
            ops_per_s: ratio(self.committed as f64 * 1e6, self.makespan_us),
            p99_us: self.p99_us,
            met_share: ratio(self.met as f64, self.submitted as f64),
            ii_geomean,
            ii_err_vs_paper,
            code_words_per_kernel,
        }
    }
}

/// Adds a profiled serve's stage rows to the open span as its children.
fn profile_children(tracer: &mut Tracer, profile: Option<&ProfileStats>) {
    const NAMES: [&str; 5] = [
        "runtime.profile.scan",
        "runtime.profile.route",
        "runtime.profile.sim",
        "runtime.profile.memo",
        "runtime.profile.bookkeeping",
    ];
    if let Some(profile) = profile {
        for (name, stage) in NAMES.into_iter().zip(Stage::ALL) {
            tracer.child(name, profile.nanos(stage));
        }
    }
}

/// Times `work` `rounds` times and returns the median, ns per call.
fn median_ns(rounds: usize, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}
