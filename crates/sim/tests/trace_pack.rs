//! The packed trace against an eager one.
//!
//! A run keeps the column table of every kept block and builds the events
//! on the first read, with every row past the timing pass's fixed point
//! written in closed form. The reference here steps every block through
//! every FU, values and cycles together, and builds each event as it
//! happens — the way the simulator recorded them before the trace was
//! packed. It lives here, not in the crate, so the two cannot share a
//! mistake.

use std::sync::Arc;

use proptest::prelude::*;

use overlay_arch::FuVariant;
use overlay_dfg::{Dfg, DfgGenerator, GeneratorConfig, Op, Value};
use overlay_frontend::Benchmark;
use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex, REGISTER_FILE_SIZE};
use overlay_scheduler::{generate_program, schedule, CompiledKernel, ScheduleError};
use overlay_sim::{Event, EventKind, OverlaySimulator, SimRun, Workload};

// The runtime shares runs between threads through `Arc`.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<SimRun>();
};

const BLOCKS: [usize; 8] = [1, 2, 3, 5, 63, 64, 65, 300];

/// Every event `workload` makes `compiled` emit on `variant`, block by
/// block, FU by FU, loads before issue slots, then the output FIFO.
fn eager(variant: FuVariant, compiled: &CompiledKernel, workload: &Workload) -> Vec<Event> {
    let serialized = variant == FuVariant::Baseline;
    let depth = variant.dsp_pipeline_depth();
    let lanes = variant.datapath_lanes();
    let programs = compiled.program.fu_programs();
    // (last load, last issue slot) of the previous block, per lane and FU.
    let mut clocks = vec![vec![(0, 0); programs.len()]; lanes];
    let mut events = Vec::new();
    for (block, record) in workload.records().iter().enumerate() {
        // The words entering the next FU and the cycle each departs; the
        // input FIFO holds the block's words from cycle 0.
        let mut stream: Vec<(Value, usize)> = record.iter().map(|&value| (value, 0)).collect();
        for (fu, (program, clock)) in programs.iter().zip(&mut clocks[block % lanes]).enumerate() {
            let mut registers = [None; REGISTER_FILE_SIZE];
            for &(register, value) in program.constant_init() {
                registers[register.index()] = Some(value);
            }
            let (last_load_end, last_exec_end) = *clock;
            let mut forwarded = Vec::new();

            let mut cursor = last_load_end + 2;
            if serialized {
                cursor = cursor.max(last_exec_end + 3);
            }
            let mut last_load = last_load_end;
            let mut words = stream.iter();
            for instruction in program.instructions() {
                let Instruction::Load { dst, fwd } = *instruction else {
                    continue;
                };
                let &(value, departs) = words.next().expect("the stream feeds every load");
                let cycle = cursor.max(departs + 1);
                cursor = cycle + 1;
                last_load = cycle;
                registers[dst.index()] = Some(value);
                if fwd {
                    forwarded.push((value, cycle));
                }
                events.push(Event {
                    cycle,
                    fu,
                    block,
                    kind: EventKind::Load {
                        register: dst.index(),
                        value,
                        forwarded: fwd,
                    },
                });
            }

            let mut start = (last_load + 1).max(last_exec_end + 3);
            if serialized {
                start = start.max(cursor);
            }
            let mut last_exec = last_exec_end;
            let slots = program.instructions().iter().filter(|i| !i.is_load());
            for (slot, instruction) in slots.enumerate() {
                let cycle = start + slot;
                last_exec = cycle;
                let kind = match *instruction {
                    Instruction::Exec {
                        op,
                        dst,
                        src1,
                        src2,
                        wb,
                        ndf,
                    } => {
                        // A run that succeeded reads no register inside the
                        // write-back delay, so results can land at once.
                        let read = |register: RegIndex| registers[register.index()].unwrap();
                        let value = op.apply(&[read(src1), read(src2)][..op.arity()]).unwrap();
                        if wb {
                            registers[dst.index()] = Some(value);
                        }
                        if !ndf {
                            forwarded.push((value, cycle + depth));
                        }
                        EventKind::Exec {
                            mnemonic: op.mnemonic(),
                            value,
                            writeback: wb,
                            forwarded: !ndf,
                        }
                    }
                    _ => EventKind::Nop,
                };
                events.push(Event {
                    cycle,
                    fu,
                    block,
                    kind,
                });
            }

            *clock = (last_load, last_exec);
            stream = forwarded;
        }
        for (position, &index) in compiled.output_stream_index.iter().enumerate() {
            let (value, departs) = stream[index];
            events.push(Event {
                cycle: departs + 1,
                fu: programs.len(),
                block,
                kind: EventKind::Output { position, value },
            });
        }
    }
    events
}

/// Holds the packed trace of `compiled` to the eager one at every block
/// count of [`BLOCKS`] and at capacities around one block's events, the
/// default and unbounded.
fn check(name: &str, variant: FuVariant, compiled: &CompiledKernel, seed: u64) {
    for blocks in BLOCKS {
        let workload = Workload::random(compiled.program.num_inputs(), blocks, seed);
        let eager = eager(variant, compiled, &workload);
        let cells = eager.len() / blocks;
        let capacities = [0, 1, cells.saturating_sub(1), cells, cells + 1, 4096];
        for capacity in capacities.into_iter().chain([usize::MAX]) {
            let run = OverlaySimulator::new(variant)
                .with_trace_capacity(capacity)
                .run(compiled, &workload)
                .unwrap();
            let trace = run.trace();
            let kept = capacity.min(eager.len());
            // Counted before anything is unpacked.
            assert_eq!(
                (trace.dropped(), trace.total()),
                (eager.len() - kept, eager.len()),
                "{name} on {variant}, {blocks} blocks, capacity {capacity}"
            );
            if let Some(at) = (0..kept).find(|&at| trace.events().get(at) != Some(&eager[at])) {
                panic!(
                    "{name} on {variant}, {blocks} blocks, capacity {capacity}: event {at} is {:?}, \
                     eagerly {:?}",
                    trace.events().get(at),
                    eager[at]
                );
            }
            assert_eq!(trace.events().len(), kept, "{name} on {variant}");
        }
    }
}

fn compile(dfg: &Dfg, variant: FuVariant, depth: usize) -> Result<CompiledKernel, ScheduleError> {
    schedule(dfg, variant, Some(depth)).and_then(|stages| generate_program(dfg, &stages, variant))
}

#[test]
fn the_suite_unpacks_to_the_eager_trace_on_every_variant() {
    for (index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let dfg = benchmark.dfg().unwrap();
        for variant in FuVariant::ALL {
            let compiled = compile(&dfg, variant, 8).unwrap();
            check(&benchmark.to_string(), variant, &compiled, index as u64);
        }
    }
}

#[test]
fn a_trace_reads_its_events_after_its_workload_and_its_run_are_dropped() {
    // A trace keeps its run's workload and evaluates the kept blocks again
    // on the first read: a planned run's trace still reads them once every
    // other holder of the workload is gone, and a clone's once the run it
    // was cloned from is gone too. 65 blocks: the pass makes two columns.
    for benchmark in [Benchmark::Gradient, Benchmark::Poly8] {
        let dfg = benchmark.dfg().unwrap();
        for variant in FuVariant::ALL {
            let compiled = compile(&dfg, variant, 8).unwrap();
            let workload = Workload::random(compiled.program.num_inputs(), 65, 0xD20);
            let expected = eager(variant, &compiled, &workload);
            let simulator = OverlaySimulator::new(variant).with_trace_capacity(usize::MAX);
            let plan = simulator.plan(&compiled).unwrap();
            let planned = plan.run(&workload).unwrap();
            let one_shot = simulator.run(&compiled, &workload).unwrap();
            let clone = one_shot.clone();
            drop((workload, plan, one_shot));
            for (which, run) in [("planned", &planned), ("clone", &clone)] {
                assert_eq!(
                    run.trace().events(),
                    expected,
                    "{benchmark} on {variant}: the {which} run's trace"
                );
            }
        }
    }
}

/// `programs` for `variant`, fed `inputs` words a block, with the kernel
/// outputs at `outputs` of the final stream.
fn chain(
    variant: FuVariant,
    programs: Vec<FuProgram>,
    inputs: usize,
    outputs: Vec<usize>,
) -> CompiledKernel {
    let dfg = Benchmark::Gradient.dfg().unwrap();
    let mut compiled = compile(&dfg, variant, 8).unwrap();
    compiled.program = Arc::new(OverlayProgram::new(
        "chain",
        programs,
        inputs,
        outputs.len(),
        1,
    ));
    compiled.output_stream_index = outputs;
    compiled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded graphs on every variant, the write-back ones also clustered
    /// at depth 8.
    #[test]
    fn generated_kernels_unpack_to_the_eager_trace(
        (seed, inputs, ops, depth) in (any::<u64>(), 2usize..6, 8usize..=72, 2usize..=16)
    ) {
        let config = GeneratorConfig {
            inputs,
            ops,
            target_depth: depth.min(ops),
            ..GeneratorConfig::default()
        };
        let dfg = DfgGenerator::new(seed).generate(&config).unwrap();
        for variant in FuVariant::ALL {
            let depths = match variant.has_writeback() {
                true => vec![dfg.analysis().depth(), 8],
                false => vec![8],
            };
            for depth in depths {
                match compile(&dfg, variant, depth) {
                    Ok(compiled) => check(&format!("{ops} ops at depth {depth}"), variant, &compiled, seed),
                    Err(ScheduleError::RegisterPressure { .. }) => {}
                    Err(other) => panic!("{variant} at depth {depth}: {other}"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hand-made chains whose uneven slots make the timing pass close late,
    /// if at all, so kept rows fall on both sides of the fixed point.
    #[test]
    fn irregular_chains_unpack_to_the_eager_trace(seed in any::<u64>()) {
        // xorshift; zero is its fixed point.
        let mut state = seed | 1;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let r = |index: usize| RegIndex::new(index as u32).unwrap();
        let variant = FuVariant::ALL[below(FuVariant::ALL.len())];
        let inputs = 1 + below(4);
        let mut arriving = inputs;
        let programs: Vec<FuProgram> = (0..2 + below(3))
            .map(|_| {
                let mut program = FuProgram::new();
                let mut forwarded = 1;
                for register in 0..1 + below(arriving) {
                    let forward = below(2) == 0;
                    forwarded += usize::from(forward);
                    program.push(Instruction::Load {
                        dst: r(register),
                        fwd: forward,
                    });
                }
                for _ in 0..below(24) {
                    program.push(match below(3) {
                        0 => Instruction::Nop,
                        _ => {
                            let forward = below(2) == 0;
                            forwarded += usize::from(forward);
                            Instruction::exec_flags(Op::Neg, r(20), r(0), r(0), false, !forward)
                        }
                    });
                }
                program.push(Instruction::exec(Op::Neg, r(20), r(0), r(0)));
                arriving = forwarded;
                program
            })
            .collect();
        let compiled = chain(variant, programs, inputs, vec![0, arriving - 1]);
        check("a chain", variant, &compiled, seed);
    }
}
