//! `sim_sweep`: the cycle-accurate simulator and nothing else.
//!
//! One op is one block (kernel invocation) simulated. Set-up compiles the
//! Table III kernels on V1, V3 and V4 plus a few seeded synthetic kernels on
//! V4 (so the modelled figures are a function of the seed, and the
//! simulator also runs NOP-padded clustered programs); a pass then streams
//! the same random blocks through each of them with `Overlay::execute`.

use std::hint::black_box;
use std::time::Instant;

use tm_overlay::dfg::{evaluate_stream, Dfg, Value};
use tm_overlay::frontend::Benchmark;
use tm_overlay::sim::OverlaySimulator;
use tm_overlay::{CompiledKernel, Compiler, FuVariant, Overlay, SimRun, Workload as Blocks};

use super::compile_sweep::{graph_sizes, synthetic_graph, MAX_GRAPH_OPS};
use super::{
    mix, paper_ii, CodeFacts, Layers, Modeled, RepOutcome, Sizing, SplitMix64, Timer, Workload,
    FIXED_DEPTH,
};
use crate::span::Tracer;
use crate::stats::{self, ratio};

const VARIANTS: [FuVariant; 3] = [FuVariant::V1, FuVariant::V3, FuVariant::V4];

struct Case {
    compiled: CompiledKernel,
    overlay: Overlay,
    simulator: OverlaySimulator,
    paper_ii: Option<f64>,
    blocks: Blocks,
    expected: Vec<Vec<Value>>,
}

/// See the module documentation.
pub struct SimSweep {
    cases: Vec<Case>,
    passes: usize,
    /// The last pass's runs, kept so their outputs are checked untimed.
    last_runs: Vec<SimRun>,
    eval_ns_per_block: f64,
    traced_cycles: u64,
    traced_ii_mismatches: u64,
    traced_errors: u64,
}

impl SimSweep {
    /// Compiles the kernel set, draws its blocks from `seed` and computes
    /// the reference outputs.
    pub fn new(seed: u64, sizing: &Sizing) -> Self {
        let mut rng = SplitMix64(seed ^ 0x51_4D5EED);
        let mut kernels: Vec<(Dfg, FuVariant, Option<f64>)> = Vec::new();
        for benchmark in Benchmark::TABLE3 {
            let dfg = benchmark.dfg().expect("the paper suite builds");
            for variant in VARIANTS {
                kernels.push((dfg.clone(), variant, paper_ii(benchmark, variant)));
            }
        }
        for ops in graph_sizes(sizing.sim_graphs, 32, MAX_GRAPH_OPS) {
            let dfg = synthetic_graph(&mut rng, ops, &mut 0);
            kernels.push((dfg, FuVariant::V4, None));
        }

        let mut eval_ns = 0u128;
        let cases: Vec<Case> = kernels
            .into_iter()
            .map(|(dfg, variant, paper_ii)| {
                let compiled = Compiler::new(variant)
                    .with_fixed_depth(FIXED_DEPTH)
                    .compile_dfg(&dfg)
                    .expect("the kernel set compiles");
                let blocks = Blocks::random(dfg.num_inputs(), sizing.sim_blocks, rng.next_u64());
                let started = Instant::now();
                let expected =
                    evaluate_stream(&dfg, blocks.records()).expect("reference evaluates");
                eval_ns += started.elapsed().as_nanos();
                Case {
                    overlay: Overlay::for_kernel(variant, &compiled).expect("depth is in range"),
                    simulator: OverlaySimulator::new(variant),
                    compiled,
                    paper_ii,
                    blocks,
                    expected,
                }
            })
            .collect();
        let blocks = (cases.len() * sizing.sim_blocks) as f64;
        SimSweep {
            cases,
            passes: sizing.sim_passes,
            last_runs: Vec::new(),
            eval_ns_per_block: ratio(eval_ns as f64, blocks),
            traced_cycles: 0,
            traced_ii_mismatches: 0,
            traced_errors: 0,
        }
    }

    fn blocks_per_pass(&self) -> u64 {
        self.cases.iter().map(|case| case.blocks.len() as u64).sum()
    }

    /// Runs the passes, calling `execute(pass, op, case)` per kernel, then
    /// checks the last pass's outputs against the reference, untimed.
    fn repeat(
        &mut self,
        mut execute: impl FnMut(usize, u64, &Case) -> Result<SimRun, tm_overlay::Error>,
    ) -> RepOutcome {
        let mut digest = 0u64;
        let mut failed = 0u64;
        self.last_runs.clear();
        let timer = Timer::start();
        for pass in 0..self.passes {
            for (op, case) in self.cases.iter().enumerate() {
                match execute(pass, op as u64, case) {
                    Ok(run) => {
                        let metrics = run.metrics();
                        digest = mix(digest, metrics.total_cycles as u64);
                        digest = mix(digest, metrics.latency_cycles as u64);
                        digest = mix(digest, metrics.steady_state_ii.to_bits());
                        if pass + 1 == self.passes {
                            self.last_runs.push(run);
                        }
                    }
                    Err(_) => failed += case.blocks.len() as u64,
                }
            }
        }
        let (wall, allocs) = timer.stop();
        // A kernel that failed has no run to compare, so pair by position
        // only when every kernel of the last pass produced one.
        if self.last_runs.len() == self.cases.len() {
            for (case, run) in self.cases.iter().zip(&self.last_runs) {
                failed += case
                    .expected
                    .iter()
                    .zip(run.outputs())
                    .filter(|(expected, got)| expected != got)
                    .count() as u64;
                failed += case.expected.len().abs_diff(run.outputs().len()) as u64;
            }
        }
        RepOutcome {
            wall,
            allocs,
            digest,
            failed,
        }
    }
}

impl Workload for SimSweep {
    fn ops_per_rep(&self) -> u64 {
        self.passes as u64 * self.blocks_per_pass()
    }

    fn warmup_reps(&self) -> usize {
        18
    }

    fn rep(&mut self) -> RepOutcome {
        self.repeat(|_, _, case| case.overlay.execute(&case.compiled, &case.blocks))
    }

    fn rep_traced(&mut self, tracer: &mut Tracer) -> RepOutcome {
        let mut cycles = 0u64;
        let mut mismatches = 0u64;
        let mut errors = 0u64;
        // `Overlay::execute` is a call straight into `OverlaySimulator::run`,
        // so alternate passes time one or the other: same work, both names.
        let outcome = self.repeat(|pass, op, case| {
            let run = if pass % 2 == 0 {
                tracer.span("core.execute", op, |_| {
                    case.overlay.execute(&case.compiled, &case.blocks)
                })
            } else {
                tracer.span("sim.run", op, |_| {
                    Ok(case.simulator.run(&case.compiled, &case.blocks)?)
                })
            };
            match &run {
                Ok(run) => {
                    cycles += run.metrics().total_cycles as u64;
                    let measured = run.metrics().steady_state_ii;
                    mismatches += ((measured - case.compiled.ii).abs() > 0.01) as u64;
                }
                Err(_) => errors += 1,
            }
            run
        });
        self.traced_cycles += cycles;
        self.traced_ii_mismatches += mismatches;
        self.traced_errors += errors;
        outcome
    }

    fn check(&mut self) -> (Modeled, u64) {
        let mut failed = 0u64;
        let mut facts = CodeFacts::default();
        let mut runtime_us = 0.0;
        let mut latencies_us = Vec::new();
        let mut ii_matches = 0usize;
        for case in &self.cases {
            let Ok(run) = case.overlay.execute(&case.compiled, &case.blocks) else {
                failed += case.blocks.len() as u64;
                continue;
            };
            failed += (run.outputs() != case.expected.as_slice()) as u64;
            let performance = case.overlay.performance(&case.compiled, &run);
            // Code-quality figures over the Table III kernels only: the same
            // for every seed, so they can be held to exact equality.
            if case.paper_ii.is_some() {
                let words = case.compiled.program.total_instructions();
                facts.push(case.compiled.ii, case.paper_ii, words);
            }
            runtime_us += run.metrics().runtime_us(performance.fmax_mhz);
            latencies_us.push(performance.latency_ns / 1e3);
            ii_matches += ((performance.measured_ii - case.compiled.ii).abs() <= 0.01) as usize;
        }
        let (ii_geomean, ii_err_vs_paper, code_words_per_kernel) = facts.summary();
        let modeled = Modeled {
            ops_per_s: ratio(self.blocks_per_pass() as f64 * 1e6, runtime_us),
            p99_us: stats::percentile(&latencies_us, 99.0),
            met_share: ratio(ii_matches as f64, self.cases.len() as f64),
            ii_geomean,
            ii_err_vs_paper,
            code_words_per_kernel,
        };
        (modeled, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, _plain_ns_per_op: f64, layers: &mut Layers) {
        // The fixed cost of a run: one block through each kernel.
        for (op, case) in self.cases.iter().enumerate() {
            let one = Blocks::from_records(case.blocks.records()[..1].to_vec());
            for _ in 0..8 {
                let _ = tracer.span("sim.run_fixed", op as u64, |_| {
                    black_box(case.simulator.run(&case.compiled, &one))
                });
            }
        }
        let blocks_per_call = ratio(self.blocks_per_pass() as f64, self.cases.len() as f64);
        let run = tracer.totals("sim.run");
        let execute = tracer.totals("core.execute");
        let calls = (run.count + execute.count) as f64;
        let call_ns = (run.total_ns + execute.total_ns) as f64;
        layers.insert(
            "sim.run_ns_per_block",
            ratio(
                ratio(run.total_ns as f64, run.count as f64),
                blocks_per_call,
            ),
        );
        layers.insert(
            "core.execute_ns_per_block",
            ratio(
                ratio(execute.total_ns as f64, execute.count as f64),
                blocks_per_call,
            ),
        );
        layers.insert(
            "sim.host_ns_per_sim_cycle",
            ratio(call_ns, self.traced_cycles as f64),
        );
        layers.insert(
            "sim.sim_cycles_per_block",
            ratio(self.traced_cycles as f64, calls * blocks_per_call),
        );
        layers.insert("sim.ii_mismatch_runs", self.traced_ii_mismatches as f64);
        layers.insert("sim.errors", self.traced_errors as f64);
        let fixed = tracer.totals("sim.run_fixed");
        layers.insert(
            "sim.run_fixed_ns",
            ratio(fixed.total_ns as f64, fixed.count as f64),
        );
        layers.insert("dfg.eval_ns_per_block", self.eval_ns_per_block);
    }

    fn corrupt_reference(&mut self) {
        let value = &mut self.cases[0].expected[0][0];
        *value = value.wrapping_add(Value::new(1));
    }
}
