//! `serve_cold`: the cold serving path.

use std::hint::black_box;
use std::time::Instant;

use tm_overlay::dfg::{evaluate_stream, Value};
use tm_overlay::frontend::Benchmark;
use tm_overlay::runtime::{KernelCache, KernelKey};
use tm_overlay::{Compiler, KernelSpec, Request, Runtime, ServeReport, Workload as Blocks};

use super::{median_ns, Pooled, ServeStats, Tenants, BLOCKS, DEADLINE_US, VARIANT};
use crate::span::Tracer;
use crate::stats::{self, ratio};
use crate::workloads::{
    CodeFacts, Layers, Modeled, RepOutcome, Sizing, SplitMix64, Timer, Workload, FIXED_DEPTH,
};

/// `serve_cold`: the source-text → committed-outcome path. Every op-group is
/// a fresh `Runtime::new(V4, 16)` serving 64 requests over the whole paper
/// suite with workloads unique to the request: compile-cache misses, memo
/// misses and inserts, simulations handed to worker threads, per-serve
/// thread spawn and aggregation. One op is one request committed.
pub struct ServeCold {
    specs: Vec<KernelSpec>,
    facts: CodeFacts,
    /// One request group per serve; ids are unique across groups.
    groups: Vec<Vec<Request>>,
    /// Per request id: one output record per block.
    expected: Vec<Vec<Vec<Value>>>,
    eval_ns_per_block: f64,
    last: ColdCounters,
}

#[derive(Debug, Default, Clone, Copy)]
struct ColdCounters {
    cache_misses: u64,
    cache_evictions: u64,
    memo_misses: u64,
    memo_evictions: u64,
}

impl ServeCold {
    /// Tiles in each fresh pool.
    pub const TILES: usize = 16;
    /// Requests per serve.
    pub const REQUESTS: usize = 64;
    /// Mean virtual µs between two arrivals of a group.
    const SPACING_US: f64 = 0.01;

    /// Draws every request's own workload from `seed` and computes its
    /// reference outputs.
    pub fn new(seed: u64, sizing: &Sizing) -> Self {
        let mut rng = SplitMix64(seed ^ 0xC01D);
        let tenants = Tenants::new(&Benchmark::ALL, 0, &mut rng);
        let dfgs: Vec<_> = Benchmark::ALL
            .iter()
            .map(|benchmark| benchmark.dfg().expect("the paper suite builds"))
            .collect();
        let mut expected = Vec::new();
        let mut eval_ns = 0u128;
        let groups: Vec<Vec<Request>> = (0..sizing.cold_serves)
            .map(|_| {
                let mut arrival_us = 0.0;
                (0..Self::REQUESTS)
                    .map(|slot| {
                        // Every kernel once, so each serve compiles the
                        // whole suite; the seed draws the rest, and with
                        // them the serve's modelled timeline.
                        let kernel = if slot < dfgs.len() {
                            slot
                        } else {
                            rng.below(dfgs.len())
                        };
                        let dfg = &dfgs[kernel];
                        // `Workload::random` draws from 17 values, so two
                        // one-input requests can collide; the id stamped
                        // into the first word makes every workload unique
                        // and every simulation a memo miss.
                        let id = expected.len() as u64;
                        let mut records = Blocks::random(dfg.num_inputs(), BLOCKS, rng.next_u64())
                            .records()
                            .to_vec();
                        records[0][0] = Value::new(id as i32);
                        let blocks = Blocks::from_records(records);
                        let started = Instant::now();
                        let outputs = evaluate_stream(dfg, blocks.records()).expect("evaluates");
                        eval_ns += started.elapsed().as_nanos();
                        expected.push(outputs);
                        // Gaps of 0.5–1.5 spacings, so the timeline (and
                        // with it every modelled figure) follows the seed.
                        arrival_us += Self::SPACING_US * (0.5 + rng.below(1024) as f64 / 1024.0);
                        Request::new(id, tenants.specs[kernel].clone(), blocks)
                            .at(arrival_us)
                            .with_deadline(arrival_us + DEADLINE_US)
                    })
                    .collect()
            })
            .collect();
        let eval_ns_per_block = ratio(eval_ns as f64, (expected.len() * BLOCKS) as f64);
        ServeCold {
            specs: tenants.specs,
            facts: tenants.facts,
            groups,
            expected,
            eval_ns_per_block,
            last: ColdCounters::default(),
        }
    }

    /// Serves every group on its own fresh runtime; `serve_group` is the
    /// timed call, which the traced repetition wraps in spans.
    fn repeat(
        &mut self,
        mut serve_group: impl FnMut(u64, Vec<Request>) -> Option<ServeReport>,
    ) -> (RepOutcome, ServeStats) {
        let mut pooled = Pooled::default();
        let mut counters = ColdCounters::default();
        let mut first_id = 0u64;
        for (op, group) in self.groups.iter().enumerate() {
            let ids = first_id..first_id + group.len() as u64;
            first_id = ids.end;
            let copy = group.clone();
            let timer = Timer::start();
            let report = serve_group(op as u64, copy);
            let timed = timer.stop();
            let served = report
                .as_ref()
                .map(|r| (r.metrics(), r.outcomes(), r.rejected()));
            pooled.add(timed, ids, served, |id| &self.expected[id as usize]);
            if let Some((metrics, _, _)) = served {
                counters.cache_misses += metrics.cache.misses as u64;
                counters.cache_evictions += metrics.cache.evictions as u64;
                counters.memo_misses += metrics.sim_memo.misses as u64;
                counters.memo_evictions += metrics.sim_memo.evictions as u64;
            }
        }
        self.last = counters;
        pooled.finish()
    }

    fn cold_serve(group: Vec<Request>) -> Option<ServeReport> {
        Runtime::new(VARIANT, Self::TILES).ok()?.serve(group).ok()
    }
}

impl Workload for ServeCold {
    fn ops_per_rep(&self) -> u64 {
        self.expected.len() as u64
    }

    fn warmup_reps(&self) -> usize {
        4
    }

    fn rep(&mut self) -> RepOutcome {
        self.repeat(|_, group| Self::cold_serve(group)).0
    }

    fn rep_traced(&mut self, tracer: &mut Tracer) -> RepOutcome {
        self.repeat(|op, group| {
            tracer.span("runtime.cold_serve", op, |tracer| {
                let runtime =
                    tracer.span("runtime.new", op, |_| Runtime::new(VARIANT, Self::TILES));
                tracer.span("runtime.serve", op, |_| runtime.ok()?.serve(group).ok())
            })
        })
        .0
    }

    fn check(&mut self) -> (Modeled, u64) {
        let (outcome, stats) = self.repeat(|_, group| Self::cold_serve(group));
        (stats.modeled(&self.facts), outcome.failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, plain_ns_per_op: f64, layers: &mut Layers) {
        let cold = tracer.totals("runtime.cold_serve");
        layers.insert(
            "runtime.cold_serve_us",
            ratio(cold.total_ns as f64, cold.count as f64) / 1e3,
        );
        let new = tracer.totals("runtime.new");
        layers.insert(
            "runtime.new_us",
            ratio(new.total_ns as f64, new.count as f64) / 1e3,
        );
        let counters = self.last;
        layers.insert("runtime.cache.misses", counters.cache_misses as f64);
        layers.insert("runtime.cache.evictions", counters.cache_evictions as f64);
        layers.insert("runtime.memo.misses", counters.memo_misses as f64);
        layers.insert("runtime.memo.evictions", counters.memo_evictions as f64);
        layers.insert("dfg.eval_ns_per_block", self.eval_ns_per_block);
        let _ = plain_ns_per_op;

        // The fixed cost of a serve: one request on a fresh runtime.
        let single = &self.groups[0][..1];
        let fixed_ns = median_ns(32, || {
            black_box(Self::cold_serve(single.to_vec()));
        });
        layers.insert("runtime.serve_fixed_us", fixed_ns / 1e3);

        // The miss path: the same serve with workloads unique to the
        // request against one workload per kernel (compiles still miss,
        // all but one simulation per kernel hit the memo).
        let unique = &self.groups[0];
        let repeated: Vec<Request> = unique
            .iter()
            .map(|request| {
                let donor = unique
                    .iter()
                    .find(|donor| donor.kernel.fingerprint() == request.kernel.fingerprint())
                    .expect("a request is its own donor at the latest");
                Request {
                    workload: donor.workload.clone(),
                    ..request.clone()
                }
            })
            .collect();
        let mut unique_ns = Vec::new();
        let mut repeated_ns = Vec::new();
        for _ in 0..16 {
            unique_ns.push(median_ns(1, || {
                black_box(Self::cold_serve(unique.clone()));
            }));
            repeated_ns.push(median_ns(1, || {
                black_box(Self::cold_serve(repeated.clone()));
            }));
        }
        layers.insert(
            "runtime.miss_path_ns_per_request",
            ratio(
                stats::median(&unique_ns) - stats::median(&repeated_ns),
                unique.len() as f64,
            ),
        );

        // A compile-cache miss: the compile a fresh cache pays per kernel.
        let lower = Default::default();
        let miss_ns = median_ns(8, || {
            let mut cache = KernelCache::new(Runtime::DEFAULT_CACHE_CAPACITY).expect("non-zero");
            for spec in &self.specs {
                let key = KernelKey {
                    fingerprint: spec.fingerprint(),
                    variant: VARIANT,
                    depth: FIXED_DEPTH,
                };
                let _ = black_box(cache.get_or_compile(key, || {
                    let dfg = spec.dfg(&lower)?;
                    Compiler::new(VARIANT)
                        .with_fixed_depth(FIXED_DEPTH)
                        .compile_dfg(&dfg)
                        .map_err(|_| tm_overlay::runtime::RuntimeError::EmptyPool)
                }));
            }
        });
        layers.insert(
            "runtime.cache.miss_ns",
            ratio(miss_ns, self.specs.len() as f64),
        );
    }

    fn corrupt_reference(&mut self) {
        let value = &mut self.expected[0][0][0];
        *value = value.wrapping_add(Value::new(1));
    }
}
