//! `compile_sweep`: the tool flow and nothing else.
//!
//! One op is one kernel compiled to 32-bit FU instruction words at fixed
//! depth 8. A pass compiles the paper suite on every variant (DSL source
//! where the suite has it) plus seeded synthetic graphs of 16–72 ops on the
//! write-back variants, where their depth forces the greedy clustering.
//! The simulator and the runtime run only in the untimed check pass.

use std::hint::black_box;
use std::time::Instant;

use tm_overlay::arch::OverlayConfig;
use tm_overlay::dfg::{evaluate_stream, Dfg, DfgGenerator, GeneratorConfig, Value};
use tm_overlay::frontend::{
    compile_kernel_with, lower_kernel, parse_kernel, Benchmark, Lexer, LowerOptions,
};
use tm_overlay::isa::{assemble, disassemble};
use tm_overlay::scheduler::{
    asap_schedule, cluster_schedule, generate_program, ii_for_variant, ClusterOptions,
};
use tm_overlay::{CompiledKernel, Compiler, Error, FuVariant, Overlay, Workload as Blocks};

use super::{
    mix, paper_ii, CodeFacts, Layers, Modeled, RepOutcome, Sizing, SplitMix64, Timer, Workload,
    FIXED_DEPTH,
};
use crate::span::Tracer;
use crate::stats::{self, ratio};

/// Blocks the check pass streams through every compiled kernel: enough for
/// the simulator to leave pipeline fill and measure a steady-state II.
const CHECK_BLOCKS: usize = 24;

/// Write-back variants, the ones whose fixed depth forces clustering.
const WRITEBACK: [FuVariant; 3] = [FuVariant::V3, FuVariant::V4, FuVariant::V5];

#[derive(Debug, Clone, Copy)]
enum Source {
    Dsl(&'static str),
    Suite(Benchmark),
    Graph(usize),
}

#[derive(Debug, Clone, Copy)]
struct Case {
    source: Source,
    variant: FuVariant,
    paper_ii: Option<f64>,
    /// Index into `references`.
    kernel: usize,
}

/// The independent answer for one kernel: its DFG lowered without any
/// front-end optimisation, interpreted by `dfg::evaluate_stream`.
struct Reference {
    blocks: Blocks,
    expected: Vec<Vec<Value>>,
}

/// Largest synthetic graph, ops. At depth 8 a stage holds its loads, its ops
/// and its constants in 32 registers; past about 80 ops most random draws
/// overflow that, so the sweep stops short of it.
pub(super) const MAX_GRAPH_OPS: usize = 72;

/// A seeded synthetic graph of `ops` operations, deep enough that depth 8
/// forces clustering. A draw that overflows the register file on some
/// write-back variant is skipped and the next one taken, so no op of the
/// workload fails.
///
/// # Panics
///
/// If 64 draws in a row do not compile: the sizes above are wrong.
pub(super) fn synthetic_graph(rng: &mut SplitMix64, ops: usize, generate_ns: &mut u128) -> Dfg {
    let config = GeneratorConfig {
        inputs: 3 + ops / 32,
        ops,
        target_depth: (ops / 4).clamp(FIXED_DEPTH + 2, 16),
        ..GeneratorConfig::default()
    };
    for _ in 0..64 {
        let started = Instant::now();
        let dfg = DfgGenerator::new(rng.next_u64())
            .generate(&config)
            .expect("the configuration is valid");
        *generate_ns += started.elapsed().as_nanos();
        let compiles = WRITEBACK.iter().all(|&variant| {
            Compiler::new(variant)
                .with_fixed_depth(FIXED_DEPTH)
                .compile_dfg(&dfg)
                .is_ok()
        });
        if compiles {
            return dfg;
        }
    }
    panic!("no {ops}-op graph compiled at depth {FIXED_DEPTH} in 64 draws");
}

/// Op counts of `count` synthetic graphs, spread evenly over `lo..=hi`, so
/// every seed compiles the same amount of work.
pub(super) fn graph_sizes(count: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    (0..count).map(move |i| lo + i * (hi - lo) / count.saturating_sub(1).max(1))
}

/// The graph a traced compile works on: the one the front end just lowered,
/// or the pre-generated synthetic one.
fn graph_of<'a>(lowered: &'a Option<Dfg>, synthetic: Option<&'a Dfg>) -> &'a Dfg {
    lowered
        .as_ref()
        .or(synthetic)
        .expect("every source has a graph")
}

fn words_of(compiled: &CompiledKernel) -> usize {
    compiled
        .program
        .fu_programs()
        .iter()
        .map(|program| black_box(program.encode()).len())
        .sum()
}

/// See the module documentation.
pub struct CompileSweep {
    /// One pass: the suite × variants `compile_suite_repeats` times, then
    /// the graphs.
    cases: Vec<Case>,
    /// Every kernel × variant pair of a pass once — what the check pass and
    /// the probes visit, the suite repeats being the same compiles again.
    distinct: Vec<Case>,
    graphs: Vec<Dfg>,
    references: Vec<Reference>,
    passes: usize,
    generate_ns_per_graph: f64,
    eval_ns_per_block: f64,
    /// Counts gathered by the traced repetitions.
    traced: TracedCounts,
}

#[derive(Debug, Default, Clone, Copy)]
struct TracedCounts {
    kernels: u64,
    tokens: u64,
    nodes: u64,
    stages: u64,
    clustered: u64,
    words: u64,
    frontend_errors: u64,
    scheduler_errors: u64,
}

impl CompileSweep {
    /// Generates the synthetic graphs from `seed` and computes every
    /// kernel's reference outputs.
    pub fn new(seed: u64, sizing: &Sizing) -> Self {
        let mut rng = SplitMix64(seed ^ 0xC0_4D11E);
        let mut generate_ns = 0u128;
        let graphs: Vec<Dfg> = graph_sizes(sizing.compile_graphs, 16, MAX_GRAPH_OPS)
            .map(|ops| synthetic_graph(&mut rng, ops, &mut generate_ns))
            .collect();
        let generate_ns_per_graph = ratio(generate_ns as f64, graphs.len() as f64);

        let mut eval_ns = 0u128;
        let mut reference = |dfg: &Dfg| {
            let blocks = Blocks::random(dfg.num_inputs(), CHECK_BLOCKS, rng.next_u64());
            let started = Instant::now();
            let expected = evaluate_stream(dfg, blocks.records()).expect("reference evaluates");
            eval_ns += started.elapsed().as_nanos();
            Reference { blocks, expected }
        };
        let mut references: Vec<Reference> = Benchmark::ALL
            .iter()
            .map(|benchmark| {
                let dfg = match benchmark.source() {
                    Some(source) => compile_kernel_with(source, &LowerOptions::literal()),
                    None => benchmark.dfg(),
                }
                .expect("the paper suite builds");
                reference(&dfg)
            })
            .collect();
        references.extend(graphs.iter().map(&mut reference));
        let eval_ns_per_block = ratio(eval_ns as f64, (references.len() * CHECK_BLOCKS) as f64);

        let mut suite = Vec::new();
        for (kernel, &benchmark) in Benchmark::ALL.iter().enumerate() {
            for variant in FuVariant::ALL {
                suite.push(Case {
                    source: benchmark
                        .source()
                        .map_or(Source::Suite(benchmark), Source::Dsl),
                    variant,
                    paper_ii: paper_ii(benchmark, variant),
                    kernel,
                });
            }
        }
        let synthetic: Vec<Case> = (0..graphs.len())
            .map(|index| Case {
                source: Source::Graph(index),
                variant: WRITEBACK[index % WRITEBACK.len()],
                paper_ii: None,
                kernel: Benchmark::ALL.len() + index,
            })
            .collect();
        let mut cases = Vec::new();
        for _ in 0..sizing.compile_suite_repeats {
            cases.extend_from_slice(&suite);
        }
        cases.extend_from_slice(&synthetic);
        let distinct = [suite, synthetic].concat();
        CompileSweep {
            cases,
            distinct,
            graphs,
            references,
            passes: sizing.compile_passes,
            generate_ns_per_graph,
            eval_ns_per_block,
            traced: TracedCounts::default(),
        }
    }

    /// The façade path: what a user of the repo calls.
    fn compile(&self, case: &Case) -> Result<CompiledKernel, Error> {
        let compiler = Compiler::new(case.variant).with_fixed_depth(FIXED_DEPTH);
        match case.source {
            Source::Dsl(source) => compiler.compile_source(source),
            Source::Suite(benchmark) => compiler.compile_benchmark(benchmark),
            Source::Graph(index) => compiler.compile_dfg(&self.graphs[index]),
        }
    }

    /// The same compile, one public function per span. `frontend.lex`,
    /// `dfg.analysis` and `scheduler.ii` repeat work the next call does
    /// itself, so they run outside `core.compile`, whose children then add
    /// up to exactly the façade's work.
    fn compile_traced(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        case: &Case,
    ) -> Result<(CompiledKernel, usize), Error> {
        let variant = case.variant;
        let counts = &mut self.traced;
        counts.kernels += 1;
        if let Source::Dsl(source) = case.source {
            let tokens = tracer.span("frontend.lex", op, |_| Lexer::new(source).tokenize());
            counts.tokens += tokens.map_or(0, |tokens| tokens.len() as u64);
        }
        let synthetic = match case.source {
            Source::Graph(index) => Some(&self.graphs[index]),
            _ => None,
        };
        tracer
            .span("core.compile", op, |tracer| {
                let lowered = match case.source {
                    Source::Dsl(source) => {
                        let kernel = tracer.span("frontend.parse", op, |_| parse_kernel(source))?;
                        Some(tracer.span("frontend.lower", op, |_| {
                            lower_kernel(&kernel, &LowerOptions::default())
                        })?)
                    }
                    Source::Suite(benchmark) => {
                        Some(tracer.span("frontend.build", op, |_| benchmark.dfg())?)
                    }
                    Source::Graph(_) => None,
                };
                let dfg = graph_of(&lowered, synthetic);
                let stages = if variant.has_writeback() {
                    let options = ClusterOptions {
                        depth: FIXED_DEPTH,
                        iwp: variant.iwp().unwrap_or(1),
                    };
                    tracer.span("scheduler.cluster", op, |_| cluster_schedule(dfg, &options))
                } else {
                    tracer.span("scheduler.asap", op, |_| asap_schedule(dfg))
                }?;
                let compiled = tracer.span("scheduler.codegen", op, |_| {
                    generate_program(dfg, &stages, variant)
                })?;
                let words = tracer.span("isa.encode", op, |_| words_of(&compiled));
                Ok((lowered, compiled, words))
            })
            .inspect_err(|error| match error {
                Error::Frontend(_) => counts.frontend_errors += 1,
                _ => counts.scheduler_errors += 1,
            })
            .map(|(lowered, compiled, words)| {
                let dfg = graph_of(&lowered, synthetic);
                let analysis = tracer.span("dfg.analysis", op, |_| dfg.analysis());
                let ii = tracer.span("scheduler.ii", op, |_| {
                    ii_for_variant(&compiled.schedule, variant)
                });
                debug_assert_eq!(ii, compiled.ii);
                counts.nodes += dfg.num_nodes() as u64;
                counts.stages += compiled.schedule.num_stages() as u64;
                counts.clustered +=
                    (variant.has_writeback() && analysis.depth() > FIXED_DEPTH) as u64;
                counts.words += words as u64;
                (compiled, words)
            })
    }

    fn repeat(
        &mut self,
        mut compile: impl FnMut(&mut Self, u64, &Case) -> Result<(f64, usize), Error>,
    ) -> RepOutcome {
        let cases = std::mem::take(&mut self.cases);
        let mut digest = 0u64;
        let mut failed = 0u64;
        let timer = Timer::start();
        for _ in 0..self.passes {
            for (op, case) in cases.iter().enumerate() {
                match compile(self, op as u64, case) {
                    Ok((ii, words)) => digest = mix(mix(digest, ii.to_bits()), words as u64),
                    Err(_) => failed += 1,
                }
            }
        }
        let (wall, allocs) = timer.stop();
        self.cases = cases;
        RepOutcome {
            wall,
            allocs,
            digest,
            failed,
        }
    }
}

impl Workload for CompileSweep {
    fn ops_per_rep(&self) -> u64 {
        (self.passes * self.cases.len()) as u64
    }

    fn warmup_reps(&self) -> usize {
        18
    }

    fn rep(&mut self) -> RepOutcome {
        self.repeat(|sweep, _, case| {
            let compiled = sweep.compile(case)?;
            Ok((compiled.ii, words_of(&compiled)))
        })
    }

    fn rep_traced(&mut self, tracer: &mut Tracer) -> RepOutcome {
        self.repeat(|sweep, op, case| {
            let (compiled, words) = sweep.compile_traced(tracer, op, case)?;
            Ok((compiled.ii, words))
        })
    }

    fn check(&mut self) -> (Modeled, u64) {
        let mut failed = 0u64;
        let mut facts = CodeFacts::default();
        let mut blocks_per_s = Vec::new();
        let mut latencies_us = Vec::new();
        let mut ii_matches = 0usize;
        for case in &self.distinct {
            let reference = &self.references[case.kernel];
            let outcome = self.compile(case).and_then(|compiled| {
                let overlay = Overlay::for_kernel(case.variant, &compiled)?;
                let run = overlay.execute(&compiled, &reference.blocks)?;
                Ok((overlay.performance(&compiled, &run), compiled, run))
            });
            let Ok((performance, compiled, run)) = outcome else {
                failed += 1;
                continue;
            };
            failed += (run.outputs() != reference.expected.as_slice()) as u64;
            // The code-quality figures cover the paper suite only, so they
            // are the same for every seed and can be held to exact equality;
            // the seeded graphs show in the three `modeled_*` figures.
            if !matches!(case.source, Source::Graph(_)) {
                facts.push(compiled.ii, case.paper_ii, words_of(&compiled));
            }
            blocks_per_s.push(performance.fmax_mhz * 1e6 / compiled.ii);
            latencies_us.push(performance.latency_ns / 1e3);
            ii_matches += ((performance.measured_ii - compiled.ii).abs() <= 0.01) as usize;
        }
        let (ii_geomean, ii_err_vs_paper, code_words_per_kernel) = facts.summary();
        let modeled = Modeled {
            ops_per_s: stats::geomean(&blocks_per_s),
            p99_us: stats::percentile(&latencies_us, 99.0),
            met_share: ratio(ii_matches as f64, self.distinct.len() as f64),
            ii_geomean,
            ii_err_vs_paper,
            code_words_per_kernel,
        };
        (modeled, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, plain_ns_per_op: f64, layers: &mut Layers) {
        let counts = self.traced;
        // Probes of the public functions the compile path does not call:
        // the text assembler round trip, the architecture model and the
        // overlay constructor, once per distinct case.
        let mut disagreements = 0u64;
        for (op, case) in self.distinct.clone().iter().enumerate() {
            let op = op as u64;
            let Ok(compiled) = self.compile(case) else {
                continue;
            };
            let texts = tracer.span("isa.disassemble", op, |_| {
                let programs = compiled.program.fu_programs();
                programs.iter().map(disassemble).collect::<Vec<String>>()
            });
            let words: Vec<Vec<u32>> = tracer.span("isa.assemble", op, |_| {
                texts
                    .iter()
                    .map(|text| assemble(text).map_or_else(|_| Vec::new(), |p| p.encode()))
                    .collect()
            });
            let facade: Vec<Vec<u32>> = compiled
                .program
                .fu_programs()
                .iter()
                .map(|program| program.encode())
                .collect();
            disagreements += (words != facade) as u64;
            // The decomposed path must generate the façade's code.
            let decomposed = self.compile_traced(&mut Tracer::new(), op, case);
            disagreements += !decomposed.is_ok_and(|(other, _)| other == compiled) as u64;
            let _ = tracer.span("arch.config", op, |_| {
                let config = OverlayConfig::new(case.variant, compiled.num_fus().max(1));
                black_box(config.map(|c| (c.fmax_mhz(), c.resource_estimate())))
            });
            let _ = tracer.span("core.overlay_build", op, |_| {
                black_box(Overlay::for_kernel(case.variant, &compiled))
            });
        }

        let per = |name: &str| {
            let totals = tracer.totals(name);
            ratio(totals.total_ns as f64, totals.count as f64)
        };
        let kernels = counts.kernels as f64;
        let dsl_kernels = tracer.totals("frontend.lex").count as f64;
        layers.insert("frontend.lex_ns_per_kernel", per("frontend.lex"));
        layers.insert("frontend.parse_ns_per_kernel", per("frontend.parse"));
        layers.insert("frontend.lower_ns_per_kernel", per("frontend.lower"));
        layers.insert("frontend.build_ns_per_kernel", per("frontend.build"));
        layers.insert(
            "frontend.tokens_per_kernel",
            ratio(counts.tokens as f64, dsl_kernels),
        );
        layers.insert("frontend.errors", counts.frontend_errors as f64);
        layers.insert("dfg.analysis_ns_per_kernel", per("dfg.analysis"));
        layers.insert("dfg.nodes_per_kernel", ratio(counts.nodes as f64, kernels));
        layers.insert("dfg.generate_ns_per_graph", self.generate_ns_per_graph);
        layers.insert("dfg.eval_ns_per_block", self.eval_ns_per_block);
        layers.insert("scheduler.asap_ns_per_kernel", per("scheduler.asap"));
        layers.insert("scheduler.cluster_ns_per_kernel", per("scheduler.cluster"));
        layers.insert(
            "scheduler.clustered_share",
            ratio(counts.clustered as f64, kernels),
        );
        layers.insert("scheduler.ii_ns_per_kernel", per("scheduler.ii"));
        layers.insert("scheduler.codegen_ns_per_kernel", per("scheduler.codegen"));
        layers.insert(
            "scheduler.stages_per_kernel",
            ratio(counts.stages as f64, kernels),
        );
        layers.insert("scheduler.errors", counts.scheduler_errors as f64);
        layers.insert("isa.encode_ns_per_kernel", per("isa.encode"));
        layers.insert("isa.assemble_ns_per_kernel", per("isa.assemble"));
        layers.insert("isa.disassemble_ns_per_kernel", per("isa.disassemble"));
        layers.insert("isa.words_per_kernel", ratio(counts.words as f64, kernels));
        layers.insert("isa.roundtrip_mismatches", disagreements as f64);
        layers.insert("arch.config_ns_per_query", per("arch.config"));
        layers.insert("core.compile_ns_per_kernel", plain_ns_per_op);
        // Within the trace, so both sides saw the same host noise: the part
        // of the `core.compile` spans their children do not cover.
        let compile = tracer.totals("core.compile");
        layers.insert(
            "core.compile_unattributed_share",
            ratio(compile.self_ns as f64, compile.total_ns as f64),
        );
        layers.insert("core.overlay_build_ns", per("core.overlay_build"));
    }

    fn corrupt_reference(&mut self) {
        let value = &mut self.references[0].expected[0][0];
        *value = value.wrapping_add(Value::new(1));
    }
}
