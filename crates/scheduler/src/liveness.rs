//! Stream liveness analysis: which values cross each stage boundary.
//!
//! The linear overlay has no global interconnect, so every value a later
//! stage needs must physically travel through each intermediate FU: the FU
//! loads it into its register file and bypasses it to its output (the `fwd`
//! flag on `LOAD`). The number of values crossing into a stage is therefore
//! that stage's `#load` in the paper's II equations, and the *order* in which
//! the upstream stage forwards values defines the downstream arrival (and
//! register allocation) order.
//!
//! It runs once per schedule, writing every stage's arrivals into the
//! schedule's one `loads` array, sized first: a value produced at stage `p`
//! (`-1` for an input) and needed until stage `u` (`N`, past the last stage,
//! for an output) arrives at the `u - p` stages after `p`. A stage sends on
//! exactly what arrives after it, so no `fwd`/`ndf` flag is stored.

use overlay_dfg::{Dfg, NodeId};

use crate::stage::{Slot, StageBound};

/// The arrivals of the stages that issue the `slots` between each two
/// `bounds`, stage after stage and then the final stream, with the `loads` of
/// every bound but the first (which is 0) set.
///
/// Every operation of `dfg` must appear exactly once in `slots`, and operands
/// must never be produced at a *later* stage than their consumer (same stage
/// is allowed — that is the write-back case — in an earlier slot).
pub(crate) fn arrivals(dfg: &Dfg, slots: &[Slot], bounds: &mut [StageBound]) -> Vec<NodeId> {
    let num_stages = bounds.len() - 1;
    let ops = |bounds: &[StageBound], stage: usize| {
        let issued = &slots[bounds[stage].slots..bounds[stage + 1].slots];
        issued.iter().filter_map(|slot| slot.op())
    };
    // Per node, addressed by `NodeId::index`: the last stage at which the
    // value is still needed — the last stage consuming it as an operand,
    // `num_stages` (the output FIFO) if it drives a kernel output, -1 if
    // nothing needs it.
    let mut needed_until = vec![-1isize; dfg.num_nodes()];
    for &output in dfg.outputs() {
        for operand in dfg.node_unchecked(output).operands() {
            needed_until[operand.index()] = num_stages as isize;
        }
    }
    // From the last slot back, every consumer of an operation is met before
    // the operation itself, so its entry is final by its own slot: it arrives
    // at every stage after its own up to that entry, which sizes `loads`.
    let mut total = 0isize;
    for stage in (0..num_stages).rev() {
        for op in ops(bounds, stage).rev() {
            total += (needed_until[op.index()] - stage as isize).max(0);
            for operand in dfg.node_unchecked(op).operands() {
                let last = &mut needed_until[operand.index()];
                *last = (*last).max(stage as isize);
            }
        }
    }
    let inputs = dfg.inputs().iter().copied();
    total += inputs
        .clone()
        .map(|input| needed_until[input.index()] + 1)
        .sum::<isize>();
    let mut loads = Vec::with_capacity(total as usize);

    // Arrival order at stage 0 is the input stream order. The next stage's
    // arrival order: bypassed loads first (in load order), then forwarded
    // results (in issue order). This matches the FU timeline, where incoming
    // words are bypassed as they arrive and computed results follow as they
    // complete.
    loads.extend(inputs.filter(|&input| needed_until[input.index()] >= 0));
    for stage in 0..num_stages {
        let needed_after = |value: NodeId| needed_until[value.index()] > stage as isize;
        let arrived = bounds[stage].loads..loads.len();
        bounds[stage + 1].loads = loads.len();
        for at in arrived {
            let value = loads[at];
            if needed_after(value) {
                loads.push(value);
            }
        }
        loads.extend(ops(bounds, stage).filter(|&op| needed_after(op)));
    }
    debug_assert_eq!(loads.len(), total as usize);
    loads
}

#[cfg(test)]
mod tests {
    use overlay_dfg::{DfgBuilder, Op};

    use crate::stage::{Slot, StageSchedule, Strategy};

    use super::*;

    /// The schedule issuing `stages[k]`'s operations at stage `k`.
    fn slots(dfg: &Dfg, stages: &[&[NodeId]]) -> StageSchedule {
        let issue = |ops: &&[NodeId]| ops.iter().map(|&op| Slot::Op(op)).collect::<Vec<_>>();
        let strategy = Strategy::FixedDepth {
            depth: stages.len(),
            iwp: 1,
        };
        StageSchedule::from_stages(dfg, strategy, stages.iter().map(issue))
    }

    fn load_counts(schedule: &StageSchedule) -> Vec<usize> {
        schedule.stages().map(|stage| stage.num_loads()).collect()
    }

    /// x is consumed at stage 0 and again at stage 2, so it must be carried
    /// through stage 1.
    fn pass_through_graph() -> (Dfg, StageSchedule) {
        let mut b = DfgBuilder::new("pass");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(Op::Add, &[x, y]).unwrap(); // stage 0
        let s = b.op(Op::Square, &[a]).unwrap(); // stage 1
        let m = b.op(Op::Mul, &[s, x]).unwrap(); // stage 2, uses x again
        b.output("o", m);
        let dfg = b.build().unwrap();
        let stages = slots(&dfg, &[&[a], &[s], &[m]]);
        (dfg, stages)
    }

    #[test]
    fn pass_through_values_are_loaded_at_every_intermediate_stage() {
        let (dfg, liveness) = pass_through_graph();
        let x = dfg.inputs()[0];
        assert_eq!(load_counts(&liveness), vec![2, 2, 2]);
        // Stage 1 receives x (bypassed) and the ADD result.
        assert!(liveness.stage(1).loads.contains(&x));
        // x is forwarded out of stage 0 and stage 1, but not out of stage 2.
        assert!(liveness.stage(1).loads.contains(&x));
        assert!(liveness.stage(2).loads.contains(&x));
        assert!(!liveness.final_stream().contains(&x));
    }

    #[test]
    fn final_stream_contains_exactly_the_output_values() {
        let (_, liveness) = pass_through_graph();
        let m = liveness.stage(2).slots[0].op().unwrap();
        // The MUL result is forwarded out of the last stage, and nothing else.
        assert_eq!(liveness.final_stream(), &[m]);
    }

    #[test]
    fn gradient_load_counts_match_the_paper_example() {
        // 5 inputs at stage 0, then 4, 4 and 2 values cross the boundaries —
        // exactly the counts behind the paper's II of 6 for V1.
        let mut b = DfgBuilder::new("gradient");
        let i: Vec<_> = (0..5).map(|k| b.input(format!("i{k}"))).collect();
        let s0 = b.op(Op::Sub, &[i[0], i[2]]).unwrap();
        let s1 = b.op(Op::Sub, &[i[1], i[2]]).unwrap();
        let s2 = b.op(Op::Sub, &[i[2], i[3]]).unwrap();
        let s3 = b.op(Op::Sub, &[i[2], i[4]]).unwrap();
        let q: Vec<_> = [s0, s1, s2, s3]
            .iter()
            .map(|&v| b.op(Op::Square, &[v]).unwrap())
            .collect();
        let a0 = b.op(Op::Add, &[q[0], q[1]]).unwrap();
        let a1 = b.op(Op::Add, &[q[2], q[3]]).unwrap();
        let a2 = b.op(Op::Add, &[a0, a1]).unwrap();
        b.output("o0", a2);
        let dfg = b.build().unwrap();
        let liveness = slots(&dfg, &[&[s0, s1, s2, s3], &q, &[a0, a1], &[a2]]);
        assert_eq!(load_counts(&liveness), vec![5, 4, 4, 2]);
        assert_eq!(liveness.final_stream().len(), 1);
    }

    #[test]
    fn same_stage_dependencies_do_not_create_loads() {
        // Both ops in one stage (write-back case): the ADD result reaches the
        // SQR through the register file, not the stream.
        let mut b = DfgBuilder::new("wb");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(Op::Add, &[x, y]).unwrap();
        let s = b.op(Op::Square, &[a]).unwrap();
        b.output("o", s);
        let dfg = b.build().unwrap();
        let liveness = slots(&dfg, &[&[a, s]]);
        assert_eq!(load_counts(&liveness), vec![2]);
        // The ADD result is not forwarded (consumed locally); SQR is.
        assert_eq!(liveness.final_stream(), &[s]);
    }
}
