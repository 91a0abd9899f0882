//! Stage-level schedule representation.
//!
//! A schedule is three flat arrays: every stage's issue slots back to back,
//! every stage's arriving values back to back (followed by the values leaving
//! the last stage), and the bounds between the stages' shares of the two. A
//! [`Stage`] is a view of one stage's share.

use std::collections::HashSet;
use std::fmt;

use overlay_dfg::{Dfg, NodeId};

use crate::liveness;

/// One issue slot of a stage's execution window: either a DFG operation or an
/// idle cycle inserted to respect the internal write-back path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Execute the given DFG operation node.
    Op(NodeId),
    /// Idle cycle.
    Nop,
}

impl Slot {
    /// The operation node, if this slot executes one.
    pub fn op(self) -> Option<NodeId> {
        match self {
            Slot::Op(id) => Some(id),
            Slot::Nop => None,
        }
    }
}

/// The work assigned to one functional unit for one kernel invocation: a
/// view into the [`StageSchedule`] it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage<'a> {
    /// 0-based FU index along the chain (FU0 receives the input stream).
    pub index: usize,
    /// Values arriving at this stage per invocation, in arrival order. Each
    /// entry is the id of the producing node (an input node or an operation
    /// node from an earlier stage).
    pub loads: &'a [NodeId],
    /// Issue slots, in order: operations plus any inserted NOPs.
    pub slots: &'a [Slot],
}

impl<'a> Stage<'a> {
    /// The operation nodes executed by this stage, in issue order.
    pub fn ops(self) -> impl Iterator<Item = NodeId> + 'a {
        self.slots.iter().filter_map(|slot| slot.op())
    }

    /// Number of operations (excluding NOPs).
    pub fn num_ops(self) -> usize {
        self.ops().count()
    }

    /// Number of inserted NOPs.
    pub fn num_nops(self) -> usize {
        self.slots.len() - self.num_ops()
    }

    /// Number of values loaded per invocation.
    pub fn num_loads(self) -> usize {
        self.loads.len()
    }

    /// Total issue slots (operations + NOPs).
    pub fn num_slots(self) -> usize {
        self.slots.len()
    }
}

/// The scheduling strategy that produced a [`StageSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ASAP level scheduling: one DFG level per FU; the overlay depth equals
    /// the kernel depth (used for `[14]`, V1 and V2).
    Asap,
    /// Fixed-depth iterative greedy clustering with write-back (V3–V5).
    FixedDepth {
        /// The fixed overlay depth (number of clusters).
        depth: usize,
        /// The internal write-back path the NOP insertion respected.
        iwp: usize,
    },
}

/// A bound between stages in a [`StageSchedule`]'s flat arrays: how many
/// slots, and how many arriving values, the stages before it hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageBound {
    pub(crate) slots: usize,
    pub(crate) loads: usize,
}

/// A complete stage-level schedule of one kernel.
///
/// Produced by [`crate::asap_schedule`] or [`crate::cluster_schedule`];
/// consumed by the II models and the instruction generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    pub(crate) kernel: String,
    pub(crate) strategy: Strategy,
    /// Every stage's issue slots, stage after stage.
    slots: Vec<Slot>,
    /// Every stage's arriving values, stage after stage, then the values
    /// leaving the last stage for the output FIFO.
    loads: Vec<NodeId>,
    /// Stage `k`'s share of both lies between `bounds[k]` and `bounds[k + 1]`.
    bounds: Vec<StageBound>,
    /// The operations among the slots, counted once.
    ops: usize,
}

impl StageSchedule {
    /// Builds the schedule whose stage `k` issues the slots between
    /// `bounds[k].slots` and `bounds[k + 1].slots`: the liveness analysis
    /// writes every stage's arrivals and their bounds, once.
    pub(crate) fn assemble(
        dfg: &Dfg,
        strategy: Strategy,
        slots: Vec<Slot>,
        mut bounds: Vec<StageBound>,
    ) -> Self {
        let loads = liveness::arrivals(dfg, &slots, &mut bounds);
        StageSchedule {
            kernel: dfg.name().to_owned(),
            strategy,
            ops: slots.iter().filter_map(|slot| slot.op()).count(),
            slots,
            loads,
            bounds,
        }
    }

    /// The kernel name.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The scheduling strategy used.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The stages in pipeline order.
    pub fn stages(&self) -> impl ExactSizeIterator<Item = Stage<'_>> + Clone {
        let view = |(index, pair): (usize, &[StageBound])| Stage {
            index,
            loads: &self.loads[pair[0].loads..pair[1].loads],
            slots: &self.slots[pair[0].slots..pair[1].slots],
        };
        self.bounds.windows(2).enumerate().map(view)
    }

    /// Stage `index`, which must be below [`num_stages`](Self::num_stages).
    pub fn stage(&self, index: usize) -> Stage<'_> {
        self.stages()
            .nth(index)
            .expect("a stage index below `num_stages`")
    }

    /// Number of FUs the schedule occupies.
    pub fn num_stages(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The values emerging after the last stage, in arrival order at the
    /// output FIFO.
    pub fn final_stream(&self) -> &[NodeId] {
        &self.loads[self.bounds[self.num_stages()].loads..]
    }

    /// The stage index an operation node was assigned to, if it was placed.
    pub fn stage_of(&self, node: NodeId) -> Option<usize> {
        let at = self.slots.iter().position(|&slot| slot == Slot::Op(node))?;
        Some(self.bounds.partition_point(|bound| bound.slots <= at) - 1)
    }

    /// Total number of operations across all stages.
    pub fn total_ops(&self) -> usize {
        self.ops
    }

    /// Total number of inserted NOPs across all stages.
    pub fn total_nops(&self) -> usize {
        self.slots.len() - self.total_ops()
    }

    /// Checks the schedule against the kernel graph and the spacing its
    /// [`Strategy`] promises: every operation is placed once, and each of its
    /// operands is a constant, a load of its stage, or issued earlier in the
    /// stage — never under [`Strategy::Asap`], at least `iwp` slots earlier
    /// under [`Strategy::FixedDepth`]. Tests use it; no compile path does.
    pub fn is_consistent_with(&self, dfg: &Dfg) -> bool {
        let mut placed = HashSet::new();
        let mut ops = self.slots.iter().filter_map(|slot| slot.op());
        if !ops.all(|op| placed.insert(op)) || placed.len() != dfg.num_ops() {
            return false;
        }
        // Whether an operand issued at `from` is ready at `at` in the stage.
        let spaced = |from: usize, at: usize| match self.strategy {
            Strategy::Asap => false,
            Strategy::FixedDepth { iwp, .. } => at - from >= iwp,
        };
        let available = |stage: Stage, at: usize, operand: NodeId| {
            let issued = stage.slots[..at]
                .iter()
                .position(|&s| s == Slot::Op(operand));
            dfg.node(operand).is_ok_and(|node| node.kind().is_const())
                || stage.loads.contains(&operand)
                || issued.is_some_and(|from| spaced(from, at))
        };
        self.stages().all(|stage| {
            stage.slots.iter().enumerate().all(|(at, slot)| match slot {
                Slot::Op(op) => dfg.node(*op).is_ok_and(|node| {
                    let mut operands = node.operands().iter();
                    operands.all(|&operand| available(stage, at, operand))
                }),
                Slot::Nop => true,
            })
        })
    }
}

impl fmt::Display for StageSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule for `{}` ({} stage(s), {:?})",
            self.kernel,
            self.num_stages(),
            self.strategy
        )?;
        for stage in self.stages() {
            writeln!(
                f,
                "  FU{}: {} load(s), {} op(s), {} nop(s)",
                stage.index,
                stage.num_loads(),
                stage.num_ops(),
                stage.num_nops()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl StageSchedule {
    /// The schedule whose stage `k` issues the `k`-th of `stages`.
    pub(crate) fn from_stages<S: AsRef<[Slot]>>(
        dfg: &Dfg,
        strategy: Strategy,
        stages: impl IntoIterator<Item = S>,
    ) -> Self {
        let (mut slots, mut bounds) = (Vec::new(), vec![StageBound::default()]);
        for stage in stages {
            slots.extend_from_slice(stage.as_ref());
            let slots = slots.len();
            bounds.push(StageBound { slots, loads: 0 });
        }
        StageSchedule::assemble(dfg, strategy, slots, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::{DfgBuilder, Op};

    #[test]
    fn stage_counters() {
        let stage = Stage {
            index: 0,
            loads: &[NodeId::from_raw(0), NodeId::from_raw(1)],
            slots: &[
                Slot::Op(NodeId::from_raw(2)),
                Slot::Nop,
                Slot::Op(NodeId::from_raw(3)),
            ],
        };
        assert_eq!(stage.num_loads(), 2);
        assert_eq!(stage.num_ops(), 2);
        assert_eq!(stage.num_nops(), 1);
        assert_eq!(stage.num_slots(), 3);
        assert_eq!(stage.ops().count(), 2);
        assert_eq!(Slot::Nop.op(), None);
    }

    /// `s = x + y`, then `q = s²`: `[x, y, s, q]`.
    fn add_then_square() -> (Dfg, [NodeId; 4]) {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.op(Op::Add, &[x, y]).unwrap();
        let q = b.op(Op::Square, &[s]).unwrap();
        b.output("o", q);
        (b.build().unwrap(), [x, y, s, q])
    }

    #[test]
    fn consistency_check_detects_missing_operand() {
        let (dfg, [x, y, s, q]) = add_then_square();

        let stage_slots = [[Slot::Op(s)], [Slot::Op(q)]];
        let good = StageSchedule::from_stages(&dfg, Strategy::Asap, stage_slots);
        assert_eq!(good.stage(0).loads, [x, y]);
        assert_eq!(good.stage(1).loads, [s]);
        assert!(good.is_consistent_with(&dfg));
        assert_eq!(good.stage_of(q), Some(1));
        assert_eq!(good.total_ops(), 2);

        // Stage 1 loses its one arrival.
        let mut bad = good.clone();
        bad.loads.remove(bad.bounds[1].loads);
        bad.bounds[2].loads -= 1;
        assert!(bad.stage(1).loads.is_empty());
        assert!(!bad.is_consistent_with(&dfg));
    }

    #[test]
    fn consistency_check_rejects_a_same_stage_operand_under_asap() {
        let (dfg, [_, _, s, q]) = add_then_square();
        let one_stage = [[Slot::Op(s), Slot::Op(q)]];
        let asap = StageSchedule::from_stages(&dfg, Strategy::Asap, one_stage);
        assert!(!asap.is_consistent_with(&dfg));
        // The same slots keep their promise under a fixed depth with IWP 1.
        let fixed = Strategy::FixedDepth { depth: 1, iwp: 1 };
        assert!(StageSchedule::from_stages(&dfg, fixed, one_stage).is_consistent_with(&dfg));
    }

    #[test]
    fn consistency_check_rejects_an_operand_closer_than_the_iwp() {
        let (dfg, [_, _, s, q]) = add_then_square();
        let fixed = Strategy::FixedDepth { depth: 1, iwp: 3 };
        let close = [Slot::Op(s), Slot::Nop, Slot::Op(q)];
        let spaced = [Slot::Op(s), Slot::Nop, Slot::Nop, Slot::Op(q)];
        assert!(!StageSchedule::from_stages(&dfg, fixed, [close]).is_consistent_with(&dfg));
        assert!(StageSchedule::from_stages(&dfg, fixed, [spaced]).is_consistent_with(&dfg));
    }
}
