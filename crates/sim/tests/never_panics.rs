//! The simulator on programs no compiler wrote: whatever the FU programs,
//! constants, output indices, block count and trace capacity, a run is a
//! typed [`SimError`] or a run whose trace unpacks without panicking.

use std::sync::Arc;

use overlay_arch::FuVariant;
use overlay_dfg::{Op, Value};
use overlay_frontend::Benchmark;
use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex, REGISTER_FILE_SIZE};
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, SimError, Workload};

const CASES: usize = 20_000;

/// xorshift: `below(n)` draws from `0..n`.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// One FU's program: up to three constants, then a dozen words of loads,
/// NOPs and `EXEC`s over every operation. Three reads in four name a
/// register the FU has already written, so some programs get through.
fn fu_program(draw: &mut Draw) -> FuProgram {
    let mut written: Vec<u32> = Vec::new();
    let register = |draw: &mut Draw, written: &[u32]| match written.is_empty() || draw.below(4) == 0
    {
        true => RegIndex::new(draw.below(REGISTER_FILE_SIZE) as u32).unwrap(),
        false => RegIndex::new(draw.pick(written)).unwrap(),
    };
    let mut program = FuProgram::new();
    for _ in 0..draw.below(4) {
        let dst = register(draw, &[]);
        program.preload_constant(dst, Value::new(draw.0 as i32));
        written.push(dst.as_u32());
    }
    for _ in 0..draw.below(13) {
        let instruction = match draw.below(8) {
            0..=2 => Instruction::Load {
                dst: register(draw, &[]),
                fwd: draw.coin(),
            },
            3 => Instruction::Nop,
            _ => Instruction::Exec {
                op: draw.pick(&Op::ALL),
                dst: register(draw, &[]),
                src1: register(draw, &written),
                src2: register(draw, &written),
                wb: draw.coin(),
                ndf: draw.coin(),
            },
        };
        match instruction {
            Instruction::Load { dst, .. } | Instruction::Exec { dst, wb: true, .. } => {
                written.push(dst.as_u32());
            }
            _ => {}
        }
        program.push(instruction);
    }
    program
}

#[test]
fn random_programs_end_in_a_typed_error_or_a_trace_that_unpacks() {
    // Any compiled kernel for the variant: its program is replaced.
    let gradient = Benchmark::Gradient.dfg().unwrap();
    let templates: Vec<CompiledKernel> = FuVariant::ALL
        .into_iter()
        .map(|variant| {
            let stages = schedule(&gradient, variant, Some(8)).unwrap();
            generate_program(&gradient, &stages, variant).unwrap()
        })
        .collect();

    let mut draw = Draw(0x5EED_F022);
    let (mut runs, mut errors) = (0, 0);
    let mut kinds = std::collections::HashSet::new();
    for case in 0..CASES {
        let variant = draw.below(FuVariant::ALL.len());
        let inputs = draw.below(5);
        let programs: Vec<FuProgram> = (0..draw.below(5)).map(|_| fu_program(&mut draw)).collect();
        let outputs: Vec<usize> = (0..draw.below(4)).map(|_| draw.below(6)).collect();
        let blocks = match draw.coin() {
            true => draw.pick(&[1, 2, 3, 5, 63, 64, 65, 300]),
            false => 1 + draw.below(200),
        };
        let capacity = match draw.coin() {
            true => draw.pick(&[0, 1, 64, 4096, usize::MAX]),
            false => draw.below(400),
        };

        let mut compiled = templates[variant].clone();
        let num_outputs = outputs.len();
        compiled.program = Arc::new(OverlayProgram::new(
            "random",
            programs,
            inputs,
            num_outputs,
            1,
        ));
        compiled.output_stream_index = outputs;
        let workload = Workload::random(inputs, blocks, case as u64);
        let variant = FuVariant::ALL[variant];
        let result = OverlaySimulator::new(variant)
            .with_trace_capacity(capacity)
            .run(&compiled, &workload);
        match result {
            Ok(run) => {
                runs += 1;
                let trace = run.trace();
                assert_eq!(
                    trace.events().len(),
                    capacity.min(trace.total()),
                    "case {case}"
                );
                assert_eq!(run.outputs().len(), blocks, "case {case}");
                assert!(run
                    .outputs()
                    .iter()
                    .all(|record| record.len() == num_outputs));
            }
            Err(error) => {
                errors += 1;
                kinds.insert(std::mem::discriminant::<SimError>(&error));
            }
        }
    }
    // Both outcomes, and more than one kind of error, or this explored little.
    assert!(runs >= CASES / 20, "{runs} runs, {errors} errors");
    assert!(kinds.len() >= 3, "{} kinds of error", kinds.len());
}

#[test]
fn a_plan_answers_block_counts_no_workload_could_hold() {
    // A run's block count is bounded by a workload in memory, a plan's
    // metrics query by nothing: past what a `usize` holds, cycle counts
    // saturate rather than wrap.
    for benchmark in Benchmark::ALL {
        let dfg = benchmark.dfg().unwrap();
        for variant in FuVariant::ALL {
            let stages = schedule(&dfg, variant, Some(8)).unwrap();
            let compiled = generate_program(&dfg, &stages, variant).unwrap();
            let plan = OverlaySimulator::new(variant).plan(&compiled).unwrap();
            let mut previous = plan.metrics(1 << 20);
            for blocks in [1 << 40, usize::MAX / 2, usize::MAX - 1, usize::MAX] {
                let metrics = plan.metrics(blocks);
                let case = format!("{benchmark} on {variant}, {blocks} blocks");
                assert_eq!(metrics.blocks, blocks, "{case}");
                assert_eq!(metrics.latency_cycles, previous.latency_cycles, "{case}");
                assert!(metrics.total_cycles >= previous.total_cycles, "{case}");
                assert!(metrics.steady_state_ii.is_finite(), "{case}");
                previous = metrics;
            }
            assert_eq!(
                previous.total_cycles,
                usize::MAX,
                "{benchmark} on {variant}"
            );
        }
    }
}
