//! Instruction generation: turning a stage schedule into per-FU programs.

use std::sync::Arc;

use overlay_arch::FuVariant;
use overlay_dfg::{Dfg, NodeId, NodeKind};
use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex, REGISTER_FILE_SIZE};

use crate::error::ScheduleError;
use crate::ii::ii_for_variant;
use crate::stage::{Slot, StageSchedule};

/// A kernel compiled for a specific overlay variant: the per-FU instruction
/// streams plus the stream metadata the runtime (or simulator) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The per-FU programs and stream configuration, shared by every clone:
    /// two kernels holding the same program compare equal without reading
    /// it.
    pub program: Arc<OverlayProgram>,
    /// The stage schedule the program was generated from.
    pub schedule: StageSchedule,
    /// The overlay variant the program targets.
    pub variant: FuVariant,
    /// For each kernel output position, the index within the schedule's
    /// [`final_stream`](StageSchedule::final_stream) of the word carrying
    /// that output.
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
/// the following registers in issue order, and the constants the stage reads
/// are preloaded from `r31` downwards in order of first use. A value's register
/// in the stage in hand, and whether the stage reads it, is one table addressed
/// by [`NodeId::index`], wiped between stages. The `fwd`/`ndf` flags come from
/// one walk along what arrives after the stage: the loads it bypasses, in load
/// order, then the results it forwards, in issue order.
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
    generate_program_owned(dfg, schedule.clone(), variant)
}

/// [`generate_program`] for a caller that is done with `schedule`: it becomes
/// the compiled kernel's, without a copy.
///
/// # Errors
///
/// As [`generate_program`].
pub fn generate_program_owned(
    dfg: &Dfg,
    schedule: StageSchedule,
    variant: FuVariant,
) -> Result<CompiledKernel, ScheduleError> {
    /// A value in the stage in hand: its register (`ABSENT` if none), and
    /// whether an operation of the stage reads it.
    #[derive(Clone, Copy)]
    struct Held {
        reg: u8,
        read_here: bool,
    }
    const ABSENT: u8 = u8::MAX;
    const UNKNOWN: Held = Held {
        reg: ABSENT,
        read_here: false,
    };
    let mut held = vec![UNKNOWN; dfg.num_nodes()];
    let mut constants: Vec<NodeId> = Vec::new();

    let mut fu_programs = Vec::with_capacity(schedule.num_stages());
    let arrive_next = schedule.stages().skip(1).map(|next| next.loads);
    let arrive_next = arrive_next.chain([schedule.final_stream()]);
    for (stage, sent_on) in schedule.stages().zip(arrive_next) {
        let (stage_index, loads) = (stage.index, stage.loads);
        held.fill(UNKNOWN);
        let mut sent_on = sent_on.iter().peekable();
        let mut sends = |value: NodeId| sent_on.next_if_eq(&&value).is_some();

        // --- register allocation -----------------------------------------
        for (slot, &value) in loads.iter().enumerate() {
            held[value.index()].reg = slot as u8;
        }
        // Constants used by this stage, in order of first use (allocated
        // from the top of the file once the pressure check has passed); a
        // load, already in a register, is none.
        constants.clear();
        for op in stage.ops() {
            for &operand in dfg.node(op)?.operands() {
                let entry = &mut held[operand.index()];
                entry.read_here = true;
                if entry.reg == ABSENT
                    && dfg.node(operand)?.kind().is_const()
                    && !constants.contains(&operand)
                {
                    constants.push(operand);
                }
            }
        }
        let registers_needed = loads.len() + stage.num_ops() + constants.len();
        if registers_needed > REGISTER_FILE_SIZE {
            return Err(ScheduleError::RegisterPressure {
                stage: stage_index,
                needed: registers_needed,
            });
        }

        // --- instruction emission -----------------------------------------
        let mut program =
            FuProgram::with_capacity(loads.len() + stage.slots.len(), constants.len());
        for (offset, &id) in constants.iter().enumerate() {
            let reg = REGISTER_FILE_SIZE - 1 - offset;
            held[id.index()].reg = reg as u8;
            if let NodeKind::Const { value } = dfg.node(id)?.kind() {
                program.preload_constant(RegIndex::new(reg as u32)?, *value);
            }
        }
        for (slot, &value) in loads.iter().enumerate() {
            let dst = RegIndex::new(slot as u32)?;
            program.push(if sends(value) {
                Instruction::load_forward(dst)
            } else {
                Instruction::load(dst)
            });
        }

        let mut exec_index = 0usize;
        for slot in stage.slots {
            let Slot::Op(op_id) = *slot else {
                program.push(Instruction::Nop);
                continue;
            };
            let node = dfg.node(op_id)?;
            let op = node.op().expect("slot ops are operation nodes");
            let operands = node.operands();
            if op.arity() > 2 {
                return Err(ScheduleError::UnsupportedArity {
                    node: op_id,
                    op,
                    arity: op.arity(),
                });
            }
            let lookup = |operand: NodeId| match held[operand.index()].reg {
                ABSENT => Err(ScheduleError::OperandUnavailable {
                    node: op_id,
                    operand,
                    stage: stage_index,
                }),
                reg => Ok(RegIndex::new(u32::from(reg))?),
            };
            let src1 = lookup(operands[0])?;
            let src2 = match operands.get(1) {
                Some(&second) => lookup(second)?,
                None => src1,
            };
            let dst = RegIndex::new((loads.len() + exec_index) as u32)?;
            // Write back when an op of this stage consumes the result
            // through the register file.
            let consumed_locally = held[op_id.index()].read_here;
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
                !sends(op_id),
            ));
            held[op_id.index()].reg = dst.index() as u8;
            exec_index += 1;
        }
        debug_assert!(sent_on.next().is_none(), "every value sent on was met");
        fu_programs.push(program);
    }

    let ii = ii_for_variant(&schedule, variant);
    let mut output_stream_index = Vec::with_capacity(dfg.num_outputs());
    for &output in dfg.outputs() {
        let source = dfg.node(output)?.operands()[0];
        let index = schedule
            .final_stream()
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
        program: Arc::new(program),
        schedule,
        variant,
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
        let value = compiled.schedule.final_stream()[index];
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
