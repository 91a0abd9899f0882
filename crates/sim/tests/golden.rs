//! Golden digests of the simulator's observable behaviour.
//!
//! Every digest below was generated by the engine as it stood before the
//! decode-once rewrite and must not be edited when the engine changes: a
//! mismatch means outputs, metrics, trace events, their order or the drop
//! accounting moved. On a mismatch the test prints the whole table as the
//! engine under test computes it.

use std::sync::Arc;

use overlay_arch::FuVariant;
use overlay_dfg::{DfgGenerator, GeneratorConfig, Op, Value};
use overlay_frontend::Benchmark;
use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex};
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{EventKind, OverlaySimulator, SimError, SimRun, Workload};

const BLOCKS: usize = 12;
const FIXED_DEPTH: usize = 8;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, value: Value) {
        self.word(u64::from(value.as_u32()));
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }
}

fn digest(run: &SimRun) -> u64 {
    let mut d = Digest::new();
    for record in run.outputs() {
        d.word(record.len() as u64);
        for &value in record {
            d.value(value);
        }
    }
    let metrics = run.metrics();
    d.word(metrics.total_cycles as u64);
    d.word(metrics.latency_cycles as u64);
    d.word(metrics.steady_state_ii.to_bits());
    for event in run.trace().events() {
        d.word(event.cycle as u64);
        d.word(event.fu as u64);
        d.word(event.block as u64);
        match &event.kind {
            EventKind::Load {
                register,
                value,
                forwarded,
            } => {
                d.word(1);
                d.word(*register as u64);
                d.value(*value);
                d.word(u64::from(*forwarded));
            }
            EventKind::Exec {
                mnemonic,
                value,
                writeback,
                forwarded,
            } => {
                d.word(2);
                d.text(mnemonic);
                d.value(*value);
                d.word(u64::from(*writeback));
                d.word(u64::from(*forwarded));
            }
            EventKind::Nop => d.word(3),
            EventKind::Output { position, value } => {
                d.word(4);
                d.word(*position as u64);
                d.value(*value);
            }
        }
    }
    d.word(run.trace().events().len() as u64);
    d.word(run.trace().dropped() as u64);
    d.0
}

fn compile(dfg: &overlay_dfg::Dfg, variant: FuVariant) -> CompiledKernel {
    let stages = schedule(dfg, variant, Some(FIXED_DEPTH)).unwrap();
    generate_program(dfg, &stages, variant).unwrap()
}

/// The two seeded synthetic graphs: 48 and 72 ops, deeper than the overlay,
/// so the write-back variants run NOP-padded clustered programs.
fn synthetic_graphs() -> Vec<overlay_dfg::Dfg> {
    [(48usize, 0x5EED_0001u64), (72, 0x5EED_0004)]
        .into_iter()
        .map(|(ops, seed)| {
            let config = GeneratorConfig {
                inputs: 3 + ops / 32,
                ops,
                target_depth: (ops / 4).clamp(FIXED_DEPTH + 2, 16),
                ..GeneratorConfig::default()
            };
            DfgGenerator::new(seed).generate(&config).unwrap()
        })
        .collect()
}

/// Every pinned case, in table order.
fn cases() -> Vec<(String, FuVariant, CompiledKernel, Workload)> {
    let mut cases = Vec::new();
    for (index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let dfg = benchmark.dfg().unwrap();
        let workload = Workload::random(dfg.num_inputs(), BLOCKS, 0x601D + index as u64);
        for variant in FuVariant::EVALUATED {
            cases.push((
                format!("{benchmark}/{variant}"),
                variant,
                compile(&dfg, variant),
                workload.clone(),
            ));
        }
    }
    for (index, dfg) in synthetic_graphs().iter().enumerate() {
        let workload = Workload::random(dfg.num_inputs(), BLOCKS, 0xC1A5 + index as u64);
        for variant in [FuVariant::V3, FuVariant::V4, FuVariant::V5] {
            let compiled = compile(dfg, variant);
            let nops: usize = compiled
                .program
                .fu_programs()
                .iter()
                .map(FuProgram::num_nops)
                .sum();
            assert!(nops > 0, "{} on {variant} is not NOP-padded", dfg.name());
            assert_eq!(compiled.num_fus(), FIXED_DEPTH);
            cases.push((
                format!("{}-{}ops/{variant}", dfg.name(), dfg.num_ops()),
                variant,
                compiled,
                workload.clone(),
            ));
        }
    }
    cases
}

/// `(case, digest at trace capacity 4096, digest at trace capacity 64)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("gradient/[14]", 0x26031f2812a62efa, 0xdcaa0fc50ca8e3dd),
    ("gradient/V1", 0x433ae704ad98e1df, 0xc51b1eb63976b041),
    ("gradient/V2", 0xdc40320df57fcf48, 0x5116dbdcc907564c),
    ("gradient/V3", 0x433ae704ad98e1df, 0xc51b1eb63976b041),
    ("gradient/V4", 0x433ae704ad98e1df, 0xc51b1eb63976b041),
    ("chebyshev/[14]", 0x45fbb762c7623803, 0xc72406d9665a98d6),
    ("chebyshev/V1", 0x8e351a5656638a67, 0x4762df8773492542),
    ("chebyshev/V2", 0x460d59ad73fe01c4, 0xc84480a89f6b3629),
    ("chebyshev/V3", 0x8e351a5656638a67, 0x4762df8773492542),
    ("chebyshev/V4", 0x8e351a5656638a67, 0x4762df8773492542),
    ("mibench/[14]", 0x188fd499ea107227, 0x8fe02b82a57729bb),
    ("mibench/V1", 0x9bfbb2c5dd95f691, 0xc725c29a2c428a71),
    ("mibench/V2", 0x3996622acb9db030, 0x7c32098b73944b02),
    ("mibench/V3", 0x9bfbb2c5dd95f691, 0xc725c29a2c428a71),
    ("mibench/V4", 0x9bfbb2c5dd95f691, 0xc725c29a2c428a71),
    ("qspline/[14]", 0xd07ca41dab4f85c4, 0x69759f8aeff7f51d),
    ("qspline/V1", 0x8f6deb3c2376422a, 0xddc93d91f82e8fcb),
    ("qspline/V2", 0x8cb42967cefa7aa4, 0xf3c9d00f1e36edbc),
    ("qspline/V3", 0x8f6deb3c2376422a, 0xddc93d91f82e8fcb),
    ("qspline/V4", 0x8f6deb3c2376422a, 0xddc93d91f82e8fcb),
    ("sgfilter/[14]", 0xce59518107ee8159, 0x190071dd49a6794f),
    ("sgfilter/V1", 0xe5cd0bce0e8c0f5c, 0x833ab07d26d1cf20),
    ("sgfilter/V2", 0xccb86f9e26787387, 0xa3d02e4f99cbfea5),
    ("sgfilter/V3", 0x88dfc90476e0c4ec, 0x5fdcd31532989b05),
    ("sgfilter/V4", 0x6bc9ad2017817f09, 0x5161a04a547c49d0),
    ("poly5/[14]", 0x092ba5394e70d40d, 0x645750ca1ff89e93),
    ("poly5/V1", 0xf8e91a840d5b0526, 0xe8034bdc4c27d314),
    ("poly5/V2", 0x7fed9ada9a38b547, 0x6105eab6a39b793e),
    ("poly5/V3", 0x2761d743bca408d6, 0x63ee680077e4fb98),
    ("poly5/V4", 0x2e0cd63fcc69ab80, 0xd05ea8fefde4dcde),
    ("poly6/[14]", 0xb72dc13242db920f, 0x1b51ef40cc0c3d79),
    ("poly6/V1", 0x54646a6b08ae1ee1, 0xe78e2fb4824c817a),
    ("poly6/V2", 0xfe702424bb42c021, 0x55dbac17c0902692),
    ("poly6/V3", 0xe723a2a29f617f16, 0xf029148e281dbcbc),
    ("poly6/V4", 0xdffa6ba011868205, 0x5b287449088a755c),
    ("poly7/[14]", 0xb55d0c5d3eb01f51, 0x7f774a4bbb8d313f),
    ("poly7/V1", 0xcd9460bb797ad6f6, 0xf5b1051d2b18e09e),
    ("poly7/V2", 0x0e7d8f7fcfe1c6b1, 0xd9d659c3d786d42a),
    ("poly7/V3", 0x3cf556c789f45f7a, 0x44a402dee0e8e9df),
    ("poly7/V4", 0xf038c052c75aec68, 0x89b73e57816cbe47),
    ("poly8/[14]", 0x44416dd2e0a39dbc, 0xa73d31256bb5d416),
    ("poly8/V1", 0xa66cb8294bb14de5, 0x45591996385acfc9),
    ("poly8/V2", 0x8c9c579c7990659a, 0x0368d3ca466f92f1),
    ("poly8/V3", 0xf99308af070d5ba1, 0x018c6e76c5487b24),
    ("poly8/V4", 0x7cb10a79a2c02b44, 0x0db9864bc884c3c0),
    (
        "synthetic-1-48ops/V3",
        0x80c9750c4bc48f04,
        0x5f8e5324ef6bbffd,
    ),
    (
        "synthetic-1-48ops/V4",
        0xa71e2dfad08c5f56,
        0x81a955a453b65328,
    ),
    (
        "synthetic-1-48ops/V5",
        0xf9e91910a16337f1,
        0x12538fef229d188b,
    ),
    (
        "synthetic-1-72ops/V3",
        0xe295539692b59def,
        0x6b6d58fc5e7f0c3f,
    ),
    (
        "synthetic-1-72ops/V4",
        0x826c015020ecc3db,
        0x65c86b82f81de903,
    ),
    (
        "synthetic-1-72ops/V5",
        0x2225c5e859eae9cc,
        0xd79860c11e6c5fe2,
    ),
];

#[test]
fn outputs_metrics_and_traces_match_the_golden_digests() {
    let computed: Vec<(String, u64, u64)> = cases()
        .into_iter()
        .map(|(name, variant, compiled, workload)| {
            let [full, small] = [4096, 64].map(|capacity| {
                let run = OverlaySimulator::new(variant)
                    .with_trace_capacity(capacity)
                    .run(&compiled, &workload)
                    .unwrap();
                // The small capacity must overflow, or it pins nothing about
                // drop accounting.
                assert!(capacity == 4096 || run.trace().dropped() > 0, "{name}");
                digest(&run)
            });
            (name, full, small)
        })
        .collect();
    let matches = computed.len() == GOLDEN.len()
        && computed
            .iter()
            .zip(GOLDEN)
            .all(|((name, full, small), golden)| (name.as_str(), *full, *small) == *golden);
    if !matches {
        let table: String = computed
            .iter()
            .map(|(name, full, small)| format!("    ({name:?}, {full:#018x}, {small:#018x}),\n"))
            .collect();
        panic!("digests differ from GOLDEN; the engine under test computes:\n{table}");
    }
}

fn r(index: u32) -> RegIndex {
    RegIndex::new(index).unwrap()
}

/// `compiled` with FU `fu`'s program rebuilt by `edit` from its constants
/// and instructions.
fn with_fu_program(
    compiled: &CompiledKernel,
    fu: usize,
    edit: impl FnOnce(&mut Vec<Instruction>),
) -> CompiledKernel {
    let mut programs = compiled.program.fu_programs().to_vec();
    let mut instructions = programs[fu].instructions().to_vec();
    edit(&mut instructions);
    let mut rebuilt: FuProgram = instructions.into_iter().collect();
    for &(reg, value) in programs[fu].constant_init() {
        rebuilt.preload_constant(reg, value);
    }
    programs[fu] = rebuilt;
    let mut edited = compiled.clone();
    edited.program = Arc::new(OverlayProgram::new(
        compiled.program.kernel(),
        programs,
        compiled.program.num_inputs(),
        compiled.program.num_outputs(),
        compiled.program.ii(),
    ));
    edited
}

fn run_error(variant: FuVariant, compiled: &CompiledKernel, capacity: usize) -> SimError {
    let workload = Workload::random(compiled.program.num_inputs(), BLOCKS, 0xBAD);
    OverlaySimulator::new(variant)
        .with_trace_capacity(capacity)
        .run(compiled, &workload)
        .unwrap_err()
}

fn gradient(variant: FuVariant) -> CompiledKernel {
    compile(&Benchmark::Gradient.dfg().unwrap(), variant)
}

#[test]
fn underflow_in_a_downstream_fu_names_that_fu() {
    for variant in [FuVariant::Baseline, FuVariant::V1, FuVariant::V2] {
        let compiled = with_fu_program(&gradient(variant), 2, |instructions| {
            instructions.insert(0, Instruction::load(r(20)));
        });
        for capacity in [0, 4096] {
            assert_eq!(
                run_error(variant, &compiled, capacity),
                SimError::StreamUnderflow { fu: 2, block: 0 },
                "{variant}"
            );
        }
    }
}

#[test]
fn underflow_at_the_output_fifo_names_the_index_past_the_last_fu() {
    let mut compiled = gradient(FuVariant::V1);
    compiled.output_stream_index[0] = 7;
    assert_eq!(
        run_error(FuVariant::V1, &compiled, 4096),
        SimError::StreamUnderflow { fu: 4, block: 0 }
    );
}

#[test]
fn uninitialised_read_in_a_later_fu_names_fu_register_and_block() {
    let compiled = with_fu_program(&gradient(FuVariant::V1), 3, |instructions| {
        instructions.push(Instruction::exec(Op::Add, r(21), r(0), r(19)));
    });
    assert_eq!(
        run_error(FuVariant::V1, &compiled, 0),
        SimError::UninitializedRegister {
            fu: 3,
            register: 19,
            block: 0
        }
    );
}

#[test]
fn the_first_error_along_the_chain_wins() {
    // FU1 reads an unwritten register and FU2 underflows: blocks are stepped
    // FU by FU, so FU1's error is the one reported.
    let compiled = with_fu_program(&gradient(FuVariant::V1), 1, |instructions| {
        instructions.push(Instruction::exec(Op::Mov, r(22), r(23), r(23)));
    });
    let compiled = with_fu_program(&compiled, 2, |instructions| {
        for reg in 10..20 {
            instructions.insert(0, Instruction::load(r(reg)));
        }
    });
    assert_eq!(
        run_error(FuVariant::V1, &compiled, 4096),
        SimError::UninitializedRegister {
            fu: 1,
            register: 23,
            block: 0
        }
    );
}

#[test]
fn a_three_operand_word_fails_with_the_arity_error_where_it_issues() {
    // The `Exec` word has two source fields; a MAC in one fails in `Op::apply`
    // at its slot, after the slots before it have been checked.
    let compiled = with_fu_program(&gradient(FuVariant::V1), 1, |instructions| {
        instructions.push(Instruction::exec(Op::MulAdd, r(22), r(0), r(1)));
    });
    assert_eq!(
        run_error(FuVariant::V1, &compiled, 0),
        SimError::Dfg(overlay_dfg::DfgError::ArityMismatch {
            op: Op::MulAdd,
            expected: 3,
            found: 2
        })
    );
    let earlier = with_fu_program(&compiled, 0, |instructions| {
        instructions.push(Instruction::exec(Op::Neg, r(22), r(30), r(30)));
    });
    assert_eq!(
        run_error(FuVariant::V1, &earlier, 0),
        SimError::UninitializedRegister {
            fu: 0,
            register: 30,
            block: 0
        }
    );
}

#[test]
fn iwp_hazard_in_a_later_fu_reports_observed_and_required_spacing() {
    // The write-back check depends on the program alone, so block 0 is always
    // the block that trips it; what varies is the FU, the spacing observed
    // and the spacing the variant requires.
    for (variant, required) in [(FuVariant::V3, 5), (FuVariant::V4, 4), (FuVariant::V5, 3)] {
        let dfg = Benchmark::Poly7.dfg().unwrap();
        let clean = compile(&dfg, variant);
        let (fu, producer, dst) = clean
            .program
            .fu_programs()
            .iter()
            .enumerate()
            .skip(1)
            .find_map(|(fu, program)| {
                let slots: Vec<&Instruction> = program
                    .instructions()
                    .iter()
                    .filter(|i| !i.is_load())
                    .collect();
                slots.iter().enumerate().find_map(|(slot, i)| match i {
                    Instruction::Exec { wb: true, dst, .. } => Some((fu, slot, *dst)),
                    _ => None,
                })
            })
            .expect("poly7 at depth 8 writes back in an FU past the first");
        // Re-read the written-back register two slots after its producer.
        let compiled = with_fu_program(&clean, fu, |instructions| {
            let loads = instructions.iter().filter(|i| i.is_load()).count();
            instructions.insert(
                loads + producer + 1,
                Instruction::exec_flags(Op::Mov, r(23), dst, dst, false, true),
            );
            instructions.insert(loads + producer + 1, Instruction::Nop);
        });
        for capacity in [0, 64] {
            assert_eq!(
                run_error(variant, &compiled, capacity),
                SimError::WritebackHazard {
                    fu,
                    block: 0,
                    observed: 2,
                    required
                },
                "{variant}"
            );
        }
    }
}
