//! The five workloads and what they share: sizing, the repetition contract
//! and the six modelled metrics.
//!
//! Every workload is a closed loop with one client: the next repetition
//! starts when the previous call returns. A repetition is identical work
//! every time, so its modelled statistics must repeat exactly; the host time
//! it takes is what varies.

pub mod compile_sweep;
pub mod serve;
pub mod sim_sweep;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tm_overlay::frontend::Benchmark;
use tm_overlay::FuVariant;

use crate::alloc;
use crate::span::Tracer;
use crate::stats;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "compile_sweep",
    "sim_sweep",
    "serve_steady",
    "serve_cold",
    "cluster_surge",
];

/// The fixed overlay depth of the write-back variants (the paper's 8).
pub const FIXED_DEPTH: usize = 8;

/// How much work one repetition is. `FULL` is what `BENCHMARK.json`
/// measures; `SMALL` is the same shape at a size the self-tests and the
/// cross-workload probes of a traced run can afford.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// `compile_sweep`: times the paper suite × every variant is compiled
    /// per pass (balances suite against synthetic time).
    pub compile_suite_repeats: usize,
    /// `compile_sweep`: seeded synthetic graphs (16–72 ops) per pass.
    pub compile_graphs: usize,
    /// `compile_sweep`: passes per repetition.
    pub compile_passes: usize,
    /// `sim_sweep`: blocks per kernel run.
    pub sim_blocks: usize,
    /// `sim_sweep`: seeded synthetic kernels next to the Table III set.
    pub sim_graphs: usize,
    /// `sim_sweep`: passes over the kernel set per repetition.
    pub sim_passes: usize,
    /// `serve_steady`: requests per repetition.
    pub steady_requests: usize,
    /// `serve_steady`: serves a repetition's requests are split over.
    pub steady_serves: usize,
    /// `cluster_surge`: requests per trace.
    pub surge_requests: usize,
    /// `serve_steady`, `cluster_surge`: distinct workloads per kernel.
    pub workloads_per_kernel: usize,
    /// `serve_cold`: fresh-runtime serves per repetition.
    pub cold_serves: usize,
}

impl Sizing {
    /// The sizes `BENCHMARK.json` is measured at.
    pub const FULL: Sizing = Sizing {
        compile_suite_repeats: 4,
        compile_graphs: 32,
        compile_passes: 1,
        sim_blocks: 256,
        sim_graphs: 4,
        sim_passes: 2,
        steady_requests: 200_000,
        steady_serves: 10,
        surge_requests: 40_000,
        workloads_per_kernel: 64,
        cold_serves: 80,
    };

    /// The same shapes, small.
    pub const SMALL: Sizing = Sizing {
        compile_suite_repeats: 1,
        compile_graphs: 6,
        compile_passes: 1,
        sim_blocks: 32,
        sim_graphs: 2,
        sim_passes: 2,
        steady_requests: 4_000,
        steady_serves: 2,
        surge_requests: 4_000,
        workloads_per_kernel: 16,
        cold_serves: 3,
    };
}

/// Heap allocations made while a [`Timer`] ran, over all threads. Zero in
/// the `bench` binary, which does not install the counting allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Calls that allocated or grew a block.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// The timer around a repetition's calls into the repo: wall time and the
/// allocations made meanwhile.
#[derive(Debug)]
pub struct Timer {
    started: Instant,
    allocs: (u64, u64),
}

impl Timer {
    /// Starts timing.
    pub fn start() -> Self {
        Timer {
            allocs: alloc::counts(),
            started: Instant::now(),
        }
    }

    /// Stops timing.
    pub fn stop(self) -> (Duration, Allocs) {
        let wall = self.started.elapsed();
        let (count, bytes) = alloc::counts();
        let allocs = Allocs {
            count: count - self.allocs.0,
            bytes: bytes - self.allocs.1,
        };
        (wall, allocs)
    }
}

/// What one repetition reports back to the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepOutcome {
    /// Wall time inside the repo's public functions (the timed part).
    pub wall: Duration,
    /// Allocations made during that time.
    pub allocs: Allocs,
    /// Digest of the repetition's modelled statistics; every repetition of
    /// a run must produce the same one.
    pub digest: u64,
    /// Ops of this repetition that returned `Err` or a wrong output.
    pub failed: u64,
}

/// The six metrics that are pure functions of the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Ops per simulated second.
    pub ops_per_s: f64,
    /// 99th-percentile simulated latency, µs.
    pub p99_us: f64,
    /// Share of ops that met their deadline (serves) or whose measured II
    /// equals the scheduler's model (sweeps).
    pub met_share: f64,
    /// Geometric-mean scheduler II over the kernel × variant set, cycles.
    pub ii_geomean: f64,
    /// Mean relative II error against the paper's Table III.
    pub ii_err_vs_paper: f64,
    /// Mean instruction words per compiled kernel.
    pub code_words_per_kernel: f64,
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload, set up and ready to repeat.
pub trait Workload {
    /// Ops in one repetition.
    fn ops_per_rep(&self) -> u64;

    /// Untimed repetitions that end every set-up: enough of them to fill
    /// the caches, memos and allocator the timed ones then run against, and
    /// to make set-up a fixed amount of work of about 0.7 s on the host the
    /// benchmark was sized on.
    fn warmup_reps(&self) -> usize;

    /// One repetition with tracing off.
    fn rep(&mut self) -> RepOutcome;

    /// The same repetition with spans around every call into a layer.
    fn rep_traced(&mut self, tracer: &mut Tracer) -> RepOutcome;

    /// The untimed check pass: the modelled metrics and the number of ops
    /// it found wrong.
    fn check(&mut self) -> (Modeled, u64);

    /// Adds this workload's per-layer metrics to `layers`, from the spans
    /// its traced repetitions recorded plus its own probes.
    /// `plain_ns_per_op` is the untraced cost of one op.
    fn layers(&mut self, tracer: &mut Tracer, plain_ns_per_op: f64, layers: &mut Layers);

    /// Falsifies one reference output, so the self-tests can see a wrong
    /// result counted as a failed op.
    fn corrupt_reference(&mut self);
}

/// Sets up workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, sizing: &Sizing) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile_sweep" => Box::new(compile_sweep::CompileSweep::new(seed, sizing)),
        "sim_sweep" => Box::new(sim_sweep::SimSweep::new(seed, sizing)),
        "serve_steady" => Box::new(serve::ServeSteady::new(seed, sizing)),
        "serve_cold" => Box::new(serve::ServeCold::new(seed, sizing)),
        "cluster_surge" => Box::new(serve::ClusterSurge::new(seed, sizing)),
        _ => return None,
    })
}

/// SplitMix64: the harness's own generator, so inputs depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Folds `word` into a running FNV-style digest.
pub fn mix(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The paper's Table III II for `benchmark` on `variant`, where it has one
/// (`gradient` is not a Table III member and V5 has no column).
pub fn paper_ii(benchmark: Benchmark, variant: FuVariant) -> Option<f64> {
    if !Benchmark::TABLE3.contains(&benchmark) {
        return None;
    }
    let record = benchmark.paper_record();
    match variant {
        FuVariant::Baseline => Some(record.ii_baseline),
        FuVariant::V1 => Some(record.ii_v1),
        FuVariant::V2 => Some(record.ii_v2),
        FuVariant::V3 => Some(record.ii_v3),
        FuVariant::V4 => Some(record.ii_v4),
        FuVariant::V5 => None,
    }
}

/// Accumulates the three code-quality metrics over a kernel × variant set.
#[derive(Debug, Default, Clone)]
pub struct CodeFacts {
    iis: Vec<f64>,
    paper_errors: Vec<f64>,
    words: Vec<f64>,
}

impl CodeFacts {
    /// Records one compiled kernel: its scheduler II, the paper's II if
    /// Table III has one, and its instruction-word count.
    pub fn push(&mut self, ii: f64, paper: Option<f64>, words: usize) {
        self.iis.push(ii);
        if let Some(paper) = paper {
            self.paper_errors.push((ii - paper).abs() / paper);
        }
        self.words.push(words as f64);
    }

    /// `(ii_geomean, ii_err_vs_paper, code_words_per_kernel)`.
    pub fn summary(&self) -> (f64, f64, f64) {
        (
            stats::geomean(&self.iis),
            stats::mean(&self.paper_errors),
            stats::mean(&self.words),
        )
    }
}
