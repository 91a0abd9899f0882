//! Instruction generation: turning a stage schedule into per-FU programs.

use std::collections::HashMap;

use overlay_arch::FuVariant;
use overlay_dfg::{Dfg, NodeId, NodeKind};
use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex, REGISTER_FILE_SIZE};

use crate::error::ScheduleError;
use crate::ii::ii_for_variant;
use crate::liveness::StageLiveness;
use crate::stage::{Slot, StageSchedule};

/// A kernel compiled for a specific overlay variant: the per-FU instruction
/// streams plus the stream metadata the runtime (or simulator) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The per-FU programs and stream configuration.
    pub program: OverlayProgram,
    /// The stage schedule the program was generated from.
    pub schedule: StageSchedule,
    /// The overlay variant the program targets.
    pub variant: FuVariant,
    /// The values emerging from the last FU, in arrival order at the output
    /// FIFO.
    pub final_stream: Vec<NodeId>,
    /// For each kernel output position, the index within `final_stream` of
    /// the word carrying that output.
    pub output_stream_index: Vec<usize>,
    /// The analytical initiation interval for this variant.
    pub ii: f64,
}

impl CompiledKernel {
    /// Number of FUs the kernel occupies.
    pub fn num_fus(&self) -> usize {
        self.program.num_fus()
    }
}

/// Generates the per-FU instruction streams for `schedule` targeting
/// `variant`.
///
/// Register allocation per FU is straightforward because programs are small:
/// arriving values take `r0, r1, …` in arrival order, operation results take
/// the following registers in issue order, and constants are preloaded from
/// `r31` downwards.
///
/// # Errors
///
/// * [`ScheduleError::RegisterPressure`] if a stage needs more than the
///   32-entry register file,
/// * [`ScheduleError::OperandUnavailable`] if the schedule is inconsistent
///   (an operand neither arrives, is constant, nor is produced earlier in the
///   same stage),
/// * [`ScheduleError::UnsupportedArity`] if an operation takes more than the
///   two operands an `EXEC` word can name ([`overlay_dfg::Op::MulAdd`]).
///
/// # Example
///
/// ```
/// use overlay_frontend::Benchmark;
/// use overlay_arch::FuVariant;
/// use overlay_scheduler::{asap_schedule, generate_program};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = Benchmark::Gradient.dfg()?;
/// let schedule = asap_schedule(&dfg)?;
/// let compiled = generate_program(&dfg, &schedule, FuVariant::V1)?;
/// assert_eq!(compiled.program.num_fus(), 4);
/// assert_eq!(compiled.ii, 6.0);
/// # Ok(())
/// # }
/// ```
pub fn generate_program(
    dfg: &Dfg,
    schedule: &StageSchedule,
    variant: FuVariant,
) -> Result<CompiledKernel, ScheduleError> {
    let stage_ops: Vec<Vec<NodeId>> = schedule.stages().iter().map(|s| s.ops()).collect();
    let liveness = StageLiveness::compute(dfg, &stage_ops);

    let mut fu_programs = Vec::with_capacity(schedule.num_stages());
    for (stage_index, stage) in schedule.stages().iter().enumerate() {
        let loads = liveness.loads(stage_index);
        let load_forward = liveness.load_forward(stage_index);
        let result_forward = liveness.result_forward(stage_index);

        // --- register allocation -----------------------------------------
        let ops = stage.ops();
        // Constants used by this stage (allocated from the top of the file
        // once the pressure check has passed).
        let mut constant_ids: Vec<NodeId> = Vec::new();
        for &op in &ops {
            for &operand in dfg.node(op)?.operands() {
                if dfg.node(operand)?.kind().is_const() && !constant_ids.contains(&operand) {
                    constant_ids.push(operand);
                }
            }
        }
        let registers_needed = loads.len() + ops.len() + constant_ids.len();
        if registers_needed > REGISTER_FILE_SIZE {
            return Err(ScheduleError::RegisterPressure {
                stage: stage_index,
                needed: registers_needed,
            });
        }
        let mut reg_of: HashMap<NodeId, RegIndex> = HashMap::new();
        for (slot, &value) in loads.iter().enumerate() {
            reg_of.insert(value, RegIndex::new(slot as u32)?);
        }
        let mut result_reg: HashMap<NodeId, RegIndex> = HashMap::new();
        for (offset, &op) in ops.iter().enumerate() {
            result_reg.insert(op, RegIndex::new((loads.len() + offset) as u32)?);
        }
        let constants: Vec<(NodeId, RegIndex)> = constant_ids
            .iter()
            .enumerate()
            .map(|(offset, &id)| {
                RegIndex::new((REGISTER_FILE_SIZE - 1 - offset) as u32).map(|reg| (id, reg))
            })
            .collect::<Result<_, _>>()?;

        // --- instruction emission -----------------------------------------
        let mut program = FuProgram::new();
        for (value, reg) in &constants {
            if let NodeKind::Const { value: constant } = dfg.node(*value)?.kind() {
                program.preload_constant(*reg, *constant);
            }
        }
        for (slot, &value) in loads.iter().enumerate() {
            let dst = reg_of[&value];
            program.push(if load_forward[slot] {
                Instruction::load_forward(dst)
            } else {
                Instruction::load(dst)
            });
        }

        let lookup = |value: NodeId,
                      issued: &HashMap<NodeId, RegIndex>|
         -> Result<RegIndex, ScheduleError> {
            if let Some(&reg) = reg_of.get(&value) {
                return Ok(reg);
            }
            if let Some(&(_, reg)) = constants.iter().find(|(id, _)| *id == value) {
                return Ok(reg);
            }
            if let Some(&reg) = issued.get(&value) {
                return Ok(reg);
            }
            Err(ScheduleError::OperandUnavailable {
                node: value,
                operand: value,
                stage: stage_index,
            })
        };

        let mut issued: HashMap<NodeId, RegIndex> = HashMap::new();
        let mut exec_index = 0usize;
        for slot in &stage.slots {
            match slot {
                Slot::Nop => program.push(Instruction::Nop),
                Slot::Op(op_id) => {
                    let node = dfg.node(*op_id)?;
                    let op = node.op().expect("slot ops are operation nodes");
                    let operands = node.operands();
                    if op.arity() > 2 {
                        return Err(ScheduleError::UnsupportedArity {
                            node: *op_id,
                            op,
                            arity: op.arity(),
                        });
                    }
                    let src1 = lookup(operands[0], &issued).map_err(|_| {
                        ScheduleError::OperandUnavailable {
                            node: *op_id,
                            operand: operands[0],
                            stage: stage_index,
                        }
                    })?;
                    let src2 = if operands.len() > 1 {
                        lookup(operands[1], &issued).map_err(|_| {
                            ScheduleError::OperandUnavailable {
                                node: *op_id,
                                operand: operands[1],
                                stage: stage_index,
                            }
                        })?
                    } else {
                        src1
                    };
                    let dst = result_reg[op_id];
                    // Write back when a later op in this stage consumes the
                    // result through the register file.
                    let consumed_locally = stage
                        .ops()
                        .iter()
                        .any(|&other| dfg.node_unchecked(other).operands().contains(op_id));
                    let forwarded = result_forward.get(exec_index).copied().unwrap_or(true);
                    debug_assert!(
                        !consumed_locally || variant.has_writeback(),
                        "same-stage dependencies require a write-back variant"
                    );
                    program.push(Instruction::exec_flags(
                        op,
                        dst,
                        src1,
                        src2,
                        consumed_locally,
                        !forwarded,
                    ));
                    issued.insert(*op_id, dst);
                    exec_index += 1;
                }
            }
        }
        fu_programs.push(program);
    }

    let ii = ii_for_variant(schedule, variant);
    let final_stream: Vec<NodeId> = liveness.final_stream().to_vec();
    let mut output_stream_index = Vec::with_capacity(dfg.num_outputs());
    for &output in dfg.outputs() {
        let source = dfg.node(output)?.operands()[0];
        let index = final_stream
            .iter()
            .position(|&value| value == source)
            .ok_or(ScheduleError::OperandUnavailable {
                node: output,
                operand: source,
                stage: schedule.num_stages().saturating_sub(1),
            })?;
        output_stream_index.push(index);
    }

    let program = OverlayProgram::new(
        dfg.name(),
        fu_programs,
        dfg.num_inputs(),
        dfg.num_outputs(),
        ii.ceil() as usize,
    );
    Ok(CompiledKernel {
        program,
        schedule: schedule.clone(),
        variant,
        final_stream,
        output_stream_index,
        ii,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap_schedule;
    use crate::cluster::{cluster_schedule, ClusterOptions};
    use overlay_frontend::Benchmark;

    #[test]
    fn every_benchmark_compiles_for_every_evaluated_variant() {
        for benchmark in Benchmark::ALL {
            let dfg = benchmark.dfg().unwrap();
            for variant in FuVariant::EVALUATED {
                let schedule = crate::schedule(&dfg, variant, Some(8)).unwrap();
                let compiled = generate_program(&dfg, &schedule, variant).unwrap();
                assert!(
                    compiled.program.total_instructions() > 0,
                    "{benchmark} {variant}"
                );
                assert_eq!(
                    compiled.output_stream_index.len(),
                    dfg.num_outputs(),
                    "{benchmark} {variant}"
                );
                compiled
                    .program
                    .check_capacity(overlay_isa::program::DEFAULT_IMEM_CAPACITY)
                    .unwrap();
            }
        }
    }

    #[test]
    fn exec_count_matches_op_count_and_load_count_matches_liveness() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let compiled = generate_program(&dfg, &schedule, FuVariant::V1).unwrap();
        let programs = compiled.program.fu_programs();
        assert_eq!(programs.len(), 4);
        let execs: Vec<usize> = programs.iter().map(|p| p.num_execs()).collect();
        assert_eq!(execs, vec![4, 4, 2, 1]);
        let loads: Vec<usize> = programs.iter().map(|p| p.num_loads()).collect();
        assert_eq!(loads, vec![5, 4, 4, 2]);
    }

    #[test]
    fn constants_are_preloaded_not_streamed() {
        let dfg = Benchmark::Chebyshev.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let compiled = generate_program(&dfg, &schedule, FuVariant::V1).unwrap();
        let total_consts: usize = compiled
            .program
            .fu_programs()
            .iter()
            .map(|p| p.constant_init().len())
            .sum();
        assert!(total_consts >= 4, "chebyshev uses 4 literal coefficients");
        // Only one stream input, so FU0 loads exactly one word per block.
        assert_eq!(compiled.program.fu_programs()[0].num_loads(), 1);
    }

    #[test]
    fn writeback_flags_appear_only_in_clustered_schedules() {
        let dfg = Benchmark::Poly7.dfg().unwrap();
        let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 }).unwrap();
        let compiled = generate_program(&dfg, &schedule, FuVariant::V3).unwrap();
        let any_wb = compiled
            .program
            .fu_programs()
            .iter()
            .flat_map(|p| p.instructions())
            .any(|i| matches!(i, Instruction::Exec { wb: true, .. }));
        assert!(any_wb, "deep kernels must use the write-back path");

        let asap = asap_schedule(&dfg).unwrap();
        let compiled_v1 = generate_program(&dfg, &asap, FuVariant::V1).unwrap();
        let any_wb_v1 = compiled_v1
            .program
            .fu_programs()
            .iter()
            .flat_map(|p| p.instructions())
            .any(|i| matches!(i, Instruction::Exec { wb: true, .. }));
        assert!(!any_wb_v1, "ASAP schedules never write back");
    }

    #[test]
    fn output_stream_index_points_at_the_output_value() {
        let dfg = Benchmark::Mibench.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let compiled = generate_program(&dfg, &schedule, FuVariant::V1).unwrap();
        assert_eq!(compiled.output_stream_index.len(), 1);
        let index = compiled.output_stream_index[0];
        let value = compiled.final_stream[index];
        assert!(dfg.feeds_output(value));
    }

    #[test]
    fn nops_become_nop_instructions() {
        let dfg = Benchmark::Poly7.dfg().unwrap();
        let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 }).unwrap();
        let compiled = generate_program(&dfg, &schedule, FuVariant::V3).unwrap();
        let total_nops: usize = compiled
            .program
            .fu_programs()
            .iter()
            .map(|p| p.num_nops())
            .sum();
        assert_eq!(total_nops, schedule.total_nops());
    }

    #[test]
    fn three_operand_operations_are_rejected_with_a_typed_error() {
        // The EXEC word names two sources, so a MAC must not compile into a
        // word that silently drops its addend.
        let mut builder = overlay_dfg::DfgBuilder::new("mac");
        let x = builder.input("x");
        let y = builder.input("y");
        let z = builder.input("z");
        let sum = builder.op(overlay_dfg::Op::Add, &[x, y]).unwrap();
        let mac = builder.op(overlay_dfg::Op::MulAdd, &[sum, y, z]).unwrap();
        builder.output("out", mac);
        let dfg = builder.build().unwrap();
        for variant in FuVariant::ALL {
            let schedule = crate::schedule(&dfg, variant, Some(8)).unwrap();
            assert_eq!(
                generate_program(&dfg, &schedule, variant).unwrap_err(),
                ScheduleError::UnsupportedArity {
                    node: mac,
                    op: overlay_dfg::Op::MulAdd,
                    arity: 3,
                },
                "{variant}"
            );
        }
    }
}
