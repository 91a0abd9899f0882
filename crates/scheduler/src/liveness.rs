//! Stream liveness analysis: which values cross each stage boundary.
//!
//! The linear overlay has no global interconnect, so every value a later
//! stage needs must physically travel through each intermediate FU: the FU
//! loads it into its register file and bypasses it to its output (the `fwd`
//! flag on `LOAD`). The number of values crossing into a stage is therefore
//! that stage's `#load` in the paper's II equations, and the *order* in which
//! the upstream stage forwards values defines the downstream arrival (and
//! register allocation) order.

use overlay_dfg::{Dfg, NodeId};

/// Per-stage load sets, forwarding decisions and the final output stream
/// order implied by a stage assignment of the operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLiveness {
    /// For each stage: the values arriving per invocation, in arrival order.
    loads: Vec<Vec<NodeId>>,
    /// For each stage: whether each arriving value (same indexing as
    /// `loads`) must be bypassed onwards to the next stage.
    load_forward: Vec<Vec<bool>>,
    /// For each stage: for each executed operation (in issue order), whether
    /// its result is forwarded downstream.
    result_forward: Vec<Vec<bool>>,
    /// The values emerging after the last stage, in arrival order at the
    /// output FIFO. Every entry feeds at least one kernel output.
    final_stream: Vec<NodeId>,
}

impl StageLiveness {
    /// Computes the liveness information for a stage assignment.
    ///
    /// `stage_ops[k]` lists the operation nodes executed by stage `k` in
    /// issue order; every operation of `dfg` must appear exactly once across
    /// all stages, and operands must never be produced at a *later* stage
    /// than their consumer (same stage is allowed — that is the write-back
    /// case).
    pub fn compute(dfg: &Dfg, stage_ops: &[Vec<NodeId>]) -> Self {
        let num_stages = stage_ops.len();
        // Per node, addressed by `NodeId::index`: the last stage at which
        // the value is still needed — the last stage consuming it as an
        // operand, `num_stages` (the output FIFO, after the last stage) if
        // it drives a kernel output, -1 if nothing needs it.
        let mut needed_until = vec![-1isize; dfg.num_nodes()];
        for (stage, ops) in stage_ops.iter().enumerate() {
            for &op in ops {
                for operand in dfg.node_unchecked(op).operands() {
                    let last = &mut needed_until[operand.index()];
                    *last = (*last).max(stage as isize);
                }
            }
        }
        for &output in dfg.outputs() {
            for operand in dfg.node_unchecked(output).operands() {
                needed_until[operand.index()] = num_stages as isize;
            }
        }
        let needed_at_or_after =
            |value: NodeId, k: isize| -> bool { needed_until[value.index()] >= k };

        let mut loads: Vec<Vec<NodeId>> = Vec::with_capacity(num_stages);
        let mut load_forward: Vec<Vec<bool>> = Vec::with_capacity(num_stages);
        let mut result_forward: Vec<Vec<bool>> = Vec::with_capacity(num_stages);

        // Arrival order at stage 0 is the input stream order.
        let mut incoming: Vec<NodeId> = dfg
            .inputs()
            .iter()
            .copied()
            .filter(|&input| needed_at_or_after(input, 0))
            .collect();

        for (stage, ops) in stage_ops.iter().enumerate() {
            let k = stage as isize;
            // A loaded value is forwarded if it is still needed beyond this
            // stage.
            let forwards: Vec<bool> = incoming
                .iter()
                .map(|&value| needed_at_or_after(value, k + 1))
                .collect();
            let results: Vec<bool> = ops
                .iter()
                .map(|&op| needed_at_or_after(op, k + 1))
                .collect();

            // The next stage's arrival order: bypassed loads first (in load
            // order), then forwarded results (in issue order). This matches
            // the FU timeline, where incoming words are bypassed as they
            // arrive and computed results follow as they complete.
            let mut next: Vec<NodeId> = incoming
                .iter()
                .zip(&forwards)
                .filter(|(_, &fwd)| fwd)
                .map(|(&value, _)| value)
                .collect();
            next.extend(
                ops.iter()
                    .zip(&results)
                    .filter(|(_, &fwd)| fwd)
                    .map(|(&op, _)| op),
            );

            loads.push(std::mem::replace(&mut incoming, next));
            load_forward.push(forwards);
            result_forward.push(results);
        }

        StageLiveness {
            loads,
            load_forward,
            result_forward,
            final_stream: incoming,
        }
    }

    /// The per-stage arrival lists themselves, for a schedule to keep.
    pub(crate) fn into_loads(self) -> Vec<Vec<NodeId>> {
        self.loads
    }

    /// The values arriving at stage `k`, in arrival order.
    pub fn loads(&self, stage: usize) -> &[NodeId] {
        &self.loads[stage]
    }

    /// Whether each arriving value of stage `k` is bypassed onwards.
    pub fn load_forward(&self, stage: usize) -> &[bool] {
        &self.load_forward[stage]
    }

    /// Whether each operation result of stage `k` (in issue order) is
    /// forwarded downstream.
    pub fn result_forward(&self, stage: usize) -> &[bool] {
        &self.result_forward[stage]
    }

    /// The stream emerging after the last stage, in arrival order at the
    /// output FIFO.
    pub fn final_stream(&self) -> &[NodeId] {
        &self.final_stream
    }

    /// Number of stages analysed.
    pub fn num_stages(&self) -> usize {
        self.loads.len()
    }

    /// The per-stage load counts (`#load` in the paper's II equations).
    pub fn load_counts(&self) -> Vec<usize> {
        self.loads.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::{DfgBuilder, Op};

    /// x is consumed at stage 0 and again at stage 2, so it must be carried
    /// through stage 1.
    fn pass_through_graph() -> (Dfg, Vec<Vec<NodeId>>) {
        let mut b = DfgBuilder::new("pass");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(Op::Add, &[x, y]).unwrap(); // stage 0
        let s = b.op(Op::Square, &[a]).unwrap(); // stage 1
        let m = b.op(Op::Mul, &[s, x]).unwrap(); // stage 2, uses x again
        b.output("o", m);
        let dfg = b.build().unwrap();
        let stages = vec![vec![a], vec![s], vec![m]];
        (dfg, stages)
    }

    #[test]
    fn pass_through_values_are_loaded_at_every_intermediate_stage() {
        let (dfg, stages) = pass_through_graph();
        let x = dfg.inputs()[0];
        let liveness = StageLiveness::compute(&dfg, &stages);
        assert_eq!(liveness.load_counts(), vec![2, 2, 2]);
        // Stage 1 receives x (bypassed) and the ADD result.
        assert!(liveness.loads(1).contains(&x));
        // x is forwarded out of stage 0 and stage 1, but not out of stage 2.
        let x_pos0 = liveness.loads(0).iter().position(|&v| v == x).unwrap();
        assert!(liveness.load_forward(0)[x_pos0]);
        let x_pos1 = liveness.loads(1).iter().position(|&v| v == x).unwrap();
        assert!(liveness.load_forward(1)[x_pos1]);
        let x_pos2 = liveness.loads(2).iter().position(|&v| v == x).unwrap();
        assert!(!liveness.load_forward(2)[x_pos2]);
    }

    #[test]
    fn final_stream_contains_exactly_the_output_values() {
        let (dfg, stages) = pass_through_graph();
        let liveness = StageLiveness::compute(&dfg, &stages);
        let m = stages[2][0];
        assert_eq!(liveness.final_stream(), &[m]);
        // The MUL result is marked as forwarded out of the last stage.
        assert_eq!(liveness.result_forward(2), &[true]);
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
        let stages = vec![vec![s0, s1, s2, s3], q.clone(), vec![a0, a1], vec![a2]];
        let liveness = StageLiveness::compute(&dfg, &stages);
        assert_eq!(liveness.load_counts(), vec![5, 4, 4, 2]);
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
        let liveness = StageLiveness::compute(&dfg, &[vec![a, s]]);
        assert_eq!(liveness.load_counts(), vec![2]);
        // The ADD result is not forwarded (consumed locally); SQR is.
        assert_eq!(liveness.result_forward(0), &[false, true]);
    }
}
