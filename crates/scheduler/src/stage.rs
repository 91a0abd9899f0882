//! Stage-level schedule representation.

use std::fmt;

use overlay_dfg::{Dfg, NodeId};

use crate::liveness::{Forwarding, StageLiveness};

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

/// The work assigned to one functional unit for one kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// 0-based FU index along the chain (FU0 receives the input stream).
    pub index: usize,
    /// Values arriving at this stage per invocation, in arrival order. Each
    /// entry is the id of the producing node (an input node or an operation
    /// node from an earlier stage).
    pub loads: Vec<NodeId>,
    /// Issue slots, in order: operations plus any inserted NOPs.
    pub slots: Vec<Slot>,
}

impl Stage {
    /// The operation nodes executed by this stage, in issue order.
    pub fn ops(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().filter_map(|slot| slot.op())
    }

    /// Number of operations (excluding NOPs).
    pub fn num_ops(&self) -> usize {
        self.ops().count()
    }

    /// Number of inserted NOPs.
    pub fn num_nops(&self) -> usize {
        self.slots.len() - self.num_ops()
    }

    /// Number of values loaded per invocation.
    pub fn num_loads(&self) -> usize {
        self.loads.len()
    }

    /// Total issue slots (operations + NOPs).
    pub fn num_slots(&self) -> usize {
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

/// A complete stage-level schedule of one kernel.
///
/// Produced by [`crate::asap_schedule`] or [`crate::cluster_schedule`];
/// consumed by the II models, the instruction generator and the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    pub(crate) kernel: String,
    pub(crate) strategy: Strategy,
    pub(crate) stages: Vec<Stage>,
    /// What the liveness pass that derived the stages' `loads` decided about
    /// forwarding.
    pub(crate) forwarding: Forwarding,
}

impl StageSchedule {
    /// Builds the schedule whose stage `k` issues `stage_slots[k]`: runs the
    /// liveness analysis over that assignment, once, for the per-stage loads
    /// and the forwarding decisions.
    pub(crate) fn assemble(dfg: &Dfg, strategy: Strategy, stage_slots: Vec<Vec<Slot>>) -> Self {
        let (loads, forwarding) = StageLiveness::compute(dfg, &stage_slots).into_parts();
        let stages = loads
            .into_iter()
            .zip(stage_slots)
            .enumerate()
            .map(|(index, (loads, slots))| Stage {
                index,
                loads,
                slots,
            })
            .collect();
        StageSchedule {
            kernel: dfg.name().to_owned(),
            strategy,
            stages,
            forwarding,
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
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of FUs the schedule occupies.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The stage index an operation node was assigned to, if it was placed.
    pub fn stage_of(&self, node: NodeId) -> Option<usize> {
        let holds = |stage: &&Stage| stage.ops().any(|op| op == node);
        self.stages.iter().find(holds).map(|stage| stage.index)
    }

    /// Total number of operations across all stages.
    pub fn total_ops(&self) -> usize {
        self.stages.iter().map(Stage::num_ops).sum()
    }

    /// Total number of inserted NOPs across all stages.
    pub fn total_nops(&self) -> usize {
        self.stages.iter().map(Stage::num_nops).sum()
    }

    /// Checks internal consistency against the kernel graph: every operation
    /// is placed exactly once, and every operand of every operation is
    /// produced at an earlier stage, arrives as a load, is a constant, or is
    /// produced earlier within the same stage (write-back).
    ///
    /// This is used by tests and by the simulator as a precondition.
    pub fn is_consistent_with(&self, dfg: &Dfg) -> bool {
        let mut placed = std::collections::HashSet::new();
        for stage in &self.stages {
            for op in stage.ops() {
                if !placed.insert(op) {
                    return false;
                }
            }
        }
        if placed.len() != dfg.num_ops() {
            return false;
        }
        for stage in &self.stages {
            let mut seen_in_stage: Vec<NodeId> = Vec::new();
            for op in stage.ops() {
                let node = match dfg.node(op) {
                    Ok(node) => node,
                    Err(_) => return false,
                };
                for &operand in node.operands() {
                    let operand_node = match dfg.node(operand) {
                        Ok(node) => node,
                        Err(_) => return false,
                    };
                    let available = operand_node.kind().is_const()
                        || stage.loads.contains(&operand)
                        || seen_in_stage.contains(&operand);
                    if !available {
                        return false;
                    }
                }
                seen_in_stage.push(op);
            }
        }
        true
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
        for stage in &self.stages {
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
mod tests {
    use super::*;
    use overlay_dfg::{DfgBuilder, Op};

    #[test]
    fn stage_counters() {
        let stage = Stage {
            index: 0,
            loads: vec![NodeId::from_raw(0), NodeId::from_raw(1)],
            slots: vec![
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

    #[test]
    fn consistency_check_detects_missing_operand() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.op(Op::Add, &[x, y]).unwrap();
        let q = b.op(Op::Square, &[s]).unwrap();
        b.output("o", q);
        let dfg = b.build().unwrap();

        let stage_slots = vec![vec![Slot::Op(s)], vec![Slot::Op(q)]];
        let good = StageSchedule::assemble(&dfg, Strategy::Asap, stage_slots);
        assert_eq!(good.stages[0].loads, [x, y]);
        assert_eq!(good.stages[1].loads, [s]);
        assert!(good.is_consistent_with(&dfg));
        assert_eq!(good.stage_of(q), Some(1));
        assert_eq!(good.total_ops(), 2);

        let mut bad = good.clone();
        bad.stages[1].loads.clear();
        assert!(!bad.is_consistent_with(&dfg));
    }
}
