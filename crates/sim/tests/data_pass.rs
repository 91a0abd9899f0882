//! Edges of the data pass: column boundaries, full-range words and the
//! trace capacity cutting a block in two.

use overlay_arch::FuVariant;
use overlay_dfg::{evaluate_stream, Dfg, DfgGenerator, GeneratorConfig, Op, Value};
use overlay_frontend::Benchmark;
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, Workload};

fn compile(dfg: &Dfg, variant: FuVariant) -> CompiledKernel {
    let stages = schedule(dfg, variant, Some(8)).unwrap();
    generate_program(dfg, &stages, variant).unwrap()
}

/// Wrapping extremes and shift counts on both sides of the 5-bit mask,
/// which `Workload::random`'s -8..=8 never draws.
const EDGES: [i32; 12] = [
    i32::MIN,
    i32::MAX,
    -1,
    0,
    1,
    31,
    32,
    33,
    -31,
    0x5555_5555,
    -0x1234_5678,
    46_341, // the smallest square to overflow
];

/// `blocks` records of edge values, every input walking `EDGES` at its own
/// stride so the pairs an operation sees differ from block to block.
fn edge_workload(inputs: usize, blocks: usize) -> Workload {
    (0..blocks)
        .map(|block| {
            (0..inputs)
                .map(|input| Value::new(EDGES[(block * (2 * input + 1) + input) % EDGES.len()]))
                .collect()
        })
        .collect()
}

#[test]
fn outputs_equal_the_reference_on_full_range_words_at_every_column_boundary() {
    // Every operation an `EXEC` word can carry, deeper than the overlay so
    // V4 runs a clustered program with write-backs.
    let config = GeneratorConfig {
        inputs: 4,
        ops: 56,
        target_depth: 12,
        const_probability: 0.2,
        op_pool: Op::ALL.into_iter().filter(|op| op.arity() <= 2).collect(),
    };
    let dfg = DfgGenerator::new(0xDA7A).generate(&config).unwrap();
    let drawn = dfg.op_histogram();
    let missing: Vec<&Op> = config
        .op_pool
        .iter()
        .filter(|op| !drawn.contains_key(op))
        .collect();
    assert!(missing.is_empty(), "the seed draws no {missing:?}");
    for variant in [FuVariant::V1, FuVariant::V2, FuVariant::V4] {
        let compiled = compile(&dfg, variant);
        for blocks in [1, 2, 63, 64, 65, 129] {
            let workload = edge_workload(dfg.num_inputs(), blocks);
            let reference = evaluate_stream(&dfg, workload.records()).unwrap();
            let run = OverlaySimulator::new(variant)
                .run(&compiled, &workload)
                .unwrap();
            assert_eq!(run.outputs(), reference, "{variant}, {blocks} blocks");
        }
    }
}

#[test]
fn a_capacity_keeps_exactly_that_prefix_of_the_full_trace() {
    const BLOCKS: usize = 5;
    let dfg = Benchmark::Gradient.dfg().unwrap();
    let workload = edge_workload(dfg.num_inputs(), BLOCKS);
    for variant in [FuVariant::V1, FuVariant::V2] {
        let compiled = compile(&dfg, variant);
        let trace_at = |capacity: usize| {
            let run = OverlaySimulator::new(variant)
                .with_trace_capacity(capacity)
                .run(&compiled, &workload)
                .unwrap();
            run.trace().clone()
        };
        let full = trace_at(4096);
        let total = full.events().len();
        let per_block = compiled.program.total_instructions() + compiled.output_stream_index.len();
        assert_eq!(total, BLOCKS * per_block);
        assert_eq!((full.dropped(), full.total()), (0, total));

        for capacity in [1, per_block - 1, per_block, per_block + 1, total, total + 1] {
            let trace = trace_at(capacity);
            let kept = capacity.min(total);
            assert_eq!(
                trace.events(),
                &full.events()[..kept],
                "{variant} at {capacity}"
            );
            assert_eq!(
                (trace.dropped(), trace.total()),
                (total - kept, total),
                "{variant} at {capacity}"
            );
        }
    }
}
