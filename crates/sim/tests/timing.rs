//! The timing pass, and the plans built on it, against an oracle.
//!
//! The oracle is a value-free transcription of the per-block interpreter
//! the three-pass engine replaced: every block goes down the chain FU by FU,
//! each lane keeps its own pair of clocks per FU, and nothing is ever closed
//! early. It lives here, not in the crate, so the engine cannot share a
//! mistake with it. A plan's runs are further held to fresh one-shot runs:
//! outputs, metrics and trace.

use proptest::prelude::*;

use overlay_arch::FuVariant;
use overlay_dfg::{evaluate_stream, Dfg, DfgGenerator, GeneratorConfig, Value};
use overlay_frontend::Benchmark;
use overlay_isa::Instruction;
use overlay_scheduler::{generate_program, schedule, CompiledKernel, ScheduleError};
use overlay_sim::{OverlaySimulator, SimMetrics, SimPlan, Workload};

const BLOCKS: [usize; 8] = [1, 2, 3, 5, 17, 64, 65, 300];

/// The cycle each of `blocks` blocks completes at.
fn completions(variant: FuVariant, compiled: &CompiledKernel, blocks: usize) -> Vec<usize> {
    let serialized = variant == FuVariant::Baseline;
    let depth = variant.dsp_pipeline_depth();
    let lanes = variant.datapath_lanes();
    let programs = compiled.program.fu_programs();
    // (last load, last issue slot) of the previous block, per lane and FU.
    let mut clocks = vec![vec![(0, 0); programs.len()]; lanes];
    (0..blocks)
        .map(|block| {
            // The input FIFO holds the block's words from cycle 0.
            let mut departs = vec![0; compiled.program.num_inputs()];
            for (program, clock) in programs.iter().zip(&mut clocks[block % lanes]) {
                let (last_load_end, last_exec_end) = *clock;
                let mut forwarded = Vec::new();

                let mut cursor = last_load_end + 2;
                if serialized {
                    cursor = cursor.max(last_exec_end + 3);
                }
                let mut last_load = last_load_end;
                let loads = program.instructions().iter().filter_map(|i| match i {
                    Instruction::Load { fwd, .. } => Some(*fwd),
                    _ => None,
                });
                for (fwd, depart) in loads.zip(&departs) {
                    let time = cursor.max(depart + 1);
                    cursor = time + 1;
                    last_load = time;
                    if fwd {
                        forwarded.push(time);
                    }
                }

                let mut start = (last_load + 1).max(last_exec_end + 3);
                if serialized {
                    start = start.max(cursor);
                }
                let mut last_exec = last_exec_end;
                let slots = program.instructions().iter().filter(|i| !i.is_load());
                for (slot, instruction) in slots.enumerate() {
                    last_exec = start + slot;
                    if let Instruction::Exec { ndf: false, .. } = instruction {
                        forwarded.push(start + slot + depth);
                    }
                }

                *clock = (last_load, last_exec);
                departs = forwarded;
            }
            compiled
                .output_stream_index
                .iter()
                .map(|&index| departs[index] + 1)
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// `(latency_cycles, total_cycles, steady_state_ii bits)` from completions.
fn metrics(compiled: &CompiledKernel, completions: &[usize]) -> (usize, usize, u64) {
    let blocks = completions.len();
    let warmup = compiled.num_fus().min(blocks.saturating_sub(2));
    let ii = if blocks > warmup + 1 {
        (completions[blocks - 1] as f64 - completions[warmup] as f64) / (blocks - warmup - 1) as f64
    } else {
        completions[0] as f64
    };
    let total = completions.iter().copied().max().unwrap();
    (completions[0], total, ii.to_bits())
}

fn kernel(seed: u64, inputs: usize, ops: usize, depth: usize) -> Dfg {
    let config = GeneratorConfig {
        inputs,
        ops,
        target_depth: depth,
        ..GeneratorConfig::default()
    };
    DfgGenerator::new(seed).generate(&config).unwrap()
}

/// `dfg` on every variant, the write-back ones at the kernel's own depth
/// (no clustering) and at the fixed depth of 8 (clustered when deeper).
/// Kernels whose stages overflow the register file are skipped.
fn compilations(dfg: &Dfg) -> Vec<(FuVariant, CompiledKernel)> {
    let mut compiled = Vec::new();
    for variant in FuVariant::ALL {
        let depths = match variant.has_writeback() {
            true => vec![dfg.analysis().depth(), 8],
            false => vec![8],
        };
        for depth in depths {
            let kernel = schedule(dfg, variant, Some(depth))
                .and_then(|stages| generate_program(dfg, &stages, variant));
            match kernel {
                Ok(kernel) => compiled.push((variant, kernel)),
                Err(ScheduleError::RegisterPressure { .. }) => {}
                Err(other) => panic!("{variant} at depth {depth}: {other}"),
            }
        }
    }
    compiled
}

/// `(latency_cycles, total_cycles, steady_state_ii bits)` as measured.
fn measured(metrics: &SimMetrics) -> (usize, usize, u64) {
    (
        metrics.latency_cycles,
        metrics.total_cycles,
        metrics.steady_state_ii.to_bits(),
    )
}

/// Holds one answer of `plan` (built by `simulator` for `compiled`) to the
/// oracle's `completions`, to the reference evaluator's outputs `reference`
/// and to a fresh one-shot run of `workload`: metrics, outputs and the
/// trace's `Debug` bytes. Both runs work in the thread's column scratch,
/// which the caller's kernels and block counts all share, so a run that read
/// what another left there would show against the reference.
fn check_answer(
    simulator: &OverlaySimulator,
    compiled: &CompiledKernel,
    plan: &SimPlan,
    completions: &[usize],
    workload: &Workload,
    reference: &[Vec<Value>],
) -> Result<(), String> {
    let blocks = workload.len();
    let expected = metrics(compiled, &completions[..blocks]);
    let answered = measured(&plan.metrics(blocks));
    if answered != expected {
        return Err(format!("metrics({blocks}): {answered:?} != {expected:?}"));
    }
    let planned = plan.run(workload).map_err(|e| e.to_string())?;
    let fresh = simulator
        .run(compiled, workload)
        .map_err(|e| e.to_string())?;
    if measured(planned.metrics()) != expected || planned.metrics() != fresh.metrics() {
        return Err(format!(
            "{blocks} blocks: planned {:?}, fresh {:?}",
            planned.metrics(),
            fresh.metrics()
        ));
    }
    if planned.outputs() != fresh.outputs() || planned.outputs() != reference {
        return Err(format!("{blocks} blocks: the outputs differ"));
    }
    if format!("{:?}", planned.trace()) != format!("{:?}", fresh.trace()) {
        return Err(format!("{blocks} blocks: the traces differ"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Latency, total cycles and steady-state II are the oracle's, bit for
    /// bit, at block counts below, at and past every threshold the engine
    /// has: the runs before the timing pass can close, one column, one
    /// column plus one, and long enough that nearly every block is closed,
    /// not stepped. One plan per kernel answers them all, and each of its
    /// runs equals a fresh one-shot run, trace included.
    #[test]
    fn metrics_equal_the_per_block_oracle(
        (seed, inputs, ops, depth) in (any::<u64>(), 2usize..6, 8usize..=72, 2usize..=16),
        capacity in 0usize..400,
    ) {
        let dfg = kernel(seed, inputs, ops, depth.min(ops));
        // Every variant runs the same workloads, so each is evaluated once.
        let workloads: Vec<(Workload, Vec<Vec<Value>>)> = BLOCKS
            .into_iter()
            .map(|blocks| {
                let workload = Workload::random(inputs, blocks, seed);
                let reference = evaluate_stream(&dfg, workload.records()).unwrap();
                (workload, reference)
            })
            .collect();
        for (variant, compiled) in compilations(&dfg) {
            let simulator = OverlaySimulator::new(variant).with_trace_capacity(capacity);
            let plan = simulator.plan(&compiled).unwrap();
            let oracle = completions(variant, &compiled, 300);
            for (workload, reference) in &workloads {
                let checked =
                    check_answer(&simulator, &compiled, &plan, &oracle, workload, reference);
                prop_assert!(
                    checked.is_ok(),
                    "{ops} ops on {variant}, {} FUs, capacity {capacity}: {}",
                    compiled.num_fus(),
                    checked.unwrap_err()
                );
            }
        }
    }
}

#[test]
fn one_plan_per_suite_kernel_answers_every_block_count() {
    // The paper suite on all six variants (the write-back ones at the
    // paper's depth of 8), every block count from 1 to 300, through one
    // column scratch; the traces keep 64 events, which cuts a block of most
    // kernels.
    for benchmark in Benchmark::ALL {
        let dfg = benchmark.dfg().unwrap();
        for variant in FuVariant::ALL {
            let stages = schedule(&dfg, variant, Some(8)).unwrap();
            let compiled = generate_program(&dfg, &stages, variant).unwrap();
            let simulator = OverlaySimulator::new(variant).with_trace_capacity(64);
            let plan = simulator.plan(&compiled).unwrap();
            let oracle = completions(variant, &compiled, 300);
            let records = Workload::random(dfg.num_inputs(), 300, 0x51_3A);
            let reference = evaluate_stream(&dfg, records.records()).unwrap();
            for blocks in 1..=300 {
                let workload = Workload::from_records(records.records()[..blocks].to_vec());
                let reference = &reference[..blocks];
                if let Err(message) =
                    check_answer(&simulator, &compiled, &plan, &oracle, &workload, reference)
                {
                    panic!(
                        "{benchmark} on {variant}, {} FUs: {message}",
                        compiled.num_fus()
                    );
                }
            }
        }
    }
}
