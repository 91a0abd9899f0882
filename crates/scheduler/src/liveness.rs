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

use crate::stage::Slot;

/// Which values each stage sends on, and what leaves the last one: the half
/// of the liveness result a schedule keeps beside its stages' load lists, so
/// that instruction generation reads the `fwd`/`ndf` flags off it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Forwarding {
    /// Stage after stage: one flag per arriving value (bypass it onwards?),
    /// then one per operation in issue order (forward its result?).
    flags: Vec<bool>,
    /// Where each stage's flags start in `flags`, and where the last end.
    starts: Vec<usize>,
    /// The values emerging after the last stage, in arrival order at the
    /// output FIFO.
    pub(crate) final_stream: Vec<NodeId>,
}

impl Forwarding {
    /// The flags of stage `stage`, which loads `num_loads` values: those of
    /// its loads, then those of its results.
    pub(crate) fn stage(&self, stage: usize, num_loads: usize) -> (&[bool], &[bool]) {
        self.flags[self.starts[stage]..self.starts[stage + 1]].split_at(num_loads)
    }
}

/// Per-stage load sets, forwarding decisions and the final output stream
/// order implied by a stage assignment of the operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLiveness {
    /// For each stage: the values arriving per invocation, in arrival order.
    loads: Vec<Vec<NodeId>>,
    forwarding: Forwarding,
}

impl StageLiveness {
    /// Computes the liveness information for a stage assignment.
    ///
    /// `stages[k]` lists what stage `k` issues, in issue order (its NOPs do
    /// not count); every operation of `dfg` must appear exactly once across
    /// all stages, and operands must never be produced at a *later* stage
    /// than their consumer (same stage is allowed — that is the write-back
    /// case).
    pub fn compute(dfg: &Dfg, stages: &[Vec<Slot>]) -> Self {
        let num_stages = stages.len();
        let ops = |stage: usize| stages[stage].iter().filter_map(|slot| slot.op());
        // Per node, addressed by `NodeId::index`: the last stage at which
        // the value is still needed — the last stage consuming it as an
        // operand, `num_stages` (the output FIFO, after the last stage) if
        // it drives a kernel output, -1 if nothing needs it.
        let mut needed_until = vec![-1isize; dfg.num_nodes()];
        for stage in 0..num_stages {
            for op in ops(stage) {
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
        let needed_after =
            |value: NodeId, stage: usize| -> bool { needed_until[value.index()] > stage as isize };

        let mut loads: Vec<Vec<NodeId>> = Vec::with_capacity(num_stages);
        let mut flags: Vec<bool> = Vec::with_capacity(2 * dfg.num_nodes());
        let mut starts: Vec<usize> = Vec::with_capacity(num_stages + 1);

        // Arrival order at stage 0 is the input stream order.
        let mut incoming: Vec<NodeId> = dfg
            .inputs()
            .iter()
            .copied()
            .filter(|&input| needed_until[input.index()] >= 0)
            .collect();

        for stage in 0..num_stages {
            let start = flags.len();
            starts.push(start);
            // A loaded value or a result is forwarded if it is still needed
            // beyond this stage.
            flags.extend(incoming.iter().map(|&value| needed_after(value, stage)));
            flags.extend(ops(stage).map(|op| needed_after(op, stage)));

            // The next stage's arrival order: bypassed loads first (in load
            // order), then forwarded results (in issue order). This matches
            // the FU timeline, where incoming words are bypassed as they
            // arrive and computed results follow as they complete.
            let sent = &flags[start..];
            let mut next = Vec::with_capacity(sent.iter().filter(|&&flag| flag).count());
            let values = incoming.iter().copied().chain(ops(stage));
            next.extend(
                values
                    .zip(sent)
                    .filter(|(_, &flag)| flag)
                    .map(|(value, _)| value),
            );

            loads.push(std::mem::replace(&mut incoming, next));
        }
        starts.push(flags.len());

        StageLiveness {
            loads,
            forwarding: Forwarding {
                flags,
                starts,
                final_stream: incoming,
            },
        }
    }

    /// The per-stage arrival lists and the forwarding decisions, for a
    /// schedule to keep.
    pub(crate) fn into_parts(self) -> (Vec<Vec<NodeId>>, Forwarding) {
        (self.loads, self.forwarding)
    }

    /// The values arriving at stage `k`, in arrival order.
    pub fn loads(&self, stage: usize) -> &[NodeId] {
        &self.loads[stage]
    }

    /// Whether each arriving value of stage `k` is bypassed onwards.
    pub fn load_forward(&self, stage: usize) -> &[bool] {
        self.forwarding.stage(stage, self.loads[stage].len()).0
    }

    /// Whether each operation result of stage `k` (in issue order) is
    /// forwarded downstream.
    pub fn result_forward(&self, stage: usize) -> &[bool] {
        self.forwarding.stage(stage, self.loads[stage].len()).1
    }

    /// The stream emerging after the last stage, in arrival order at the
    /// output FIFO.
    pub fn final_stream(&self) -> &[NodeId] {
        &self.forwarding.final_stream
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
    fn slots(stages: &[&[NodeId]]) -> Vec<Vec<Slot>> {
        let issue = |ops: &&[NodeId]| ops.iter().map(|&op| Slot::Op(op)).collect();
        stages.iter().map(issue).collect()
    }

    fn pass_through_graph() -> (Dfg, Vec<Vec<Slot>>) {
        let mut b = DfgBuilder::new("pass");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(Op::Add, &[x, y]).unwrap(); // stage 0
        let s = b.op(Op::Square, &[a]).unwrap(); // stage 1
        let m = b.op(Op::Mul, &[s, x]).unwrap(); // stage 2, uses x again
        b.output("o", m);
        let dfg = b.build().unwrap();
        (dfg, slots(&[&[a], &[s], &[m]]))
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
        let m = stages[2][0].op().unwrap();
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
        let stages = slots(&[&[s0, s1, s2, s3], &q, &[a0, a1], &[a2]]);
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
        let liveness = StageLiveness::compute(&dfg, &slots(&[&[a, s]]));
        assert_eq!(liveness.load_counts(), vec![2]);
        // The ADD result is not forwarded (consumed locally); SQR is.
        assert_eq!(liveness.result_forward(0), &[false, true]);
    }
}
