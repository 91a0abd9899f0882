//! Structural analyses over a [`Dfg`]: dependence levels and depth, and on
//! demand ALAP levels, slack and a critical path.
//!
//! The ASAP level assignment is the basis of the paper's scheduling for the
//! `[14]`, V1 and V2 overlays ("nodes at the same (horizontal) level \[are\]
//! allocated to a single FU"), and the depth is the overlay depth those
//! variants require; the fixed-depth scheduler for the write-back variants
//! (V3–V5) clusters the same levels. Both read [`DfgAnalysis::depth`],
//! [`DfgAnalysis::asap_level`] and the level lists, which is all
//! [`DfgAnalysis::new`] computes. Nothing in the mapping flow reads ALAP
//! levels, slack or the critical path: they are reporting aids, computed by
//! the call that asks for them.

use crate::graph::Dfg;
use crate::node::NodeId;

/// Result of running the level analysis over a graph.
///
/// Levels are 1-based over *operation* nodes: an operation whose operands are
/// all inputs or constants has ASAP level 1; the graph depth is the maximum
/// ASAP level (the paper's `Depth` column in Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgAnalysis {
    /// ASAP level per node, addressed by [`NodeId::index`]; 0 marks a node
    /// that is not an operation (levels are 1-based).
    asap: Vec<usize>,
    /// The operations sorted by level, creation order within a level.
    by_level: Vec<NodeId>,
    /// `bounds[k]`: how many operations sit at level `k` or below, so level
    /// `k` is `by_level[bounds[k - 1]..bounds[k]]`; `depth + 1` entries.
    bounds: Vec<usize>,
}

/// Summary statistics of a DFG, matching the columns the paper reports for
/// its benchmark set (Table III) plus a few extra shape metrics.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DfgStats {
    /// Kernel name.
    pub name: String,
    /// Number of stream inputs.
    pub inputs: usize,
    /// Number of stream outputs.
    pub outputs: usize,
    /// Number of operation nodes.
    pub ops: usize,
    /// Graph depth (critical path length in operations).
    pub depth: usize,
    /// Largest number of operations in any single ASAP level.
    pub max_level_width: usize,
    /// Average operation fan-out.
    pub avg_fanout: f64,
}

impl DfgAnalysis {
    /// Runs the level analysis over `dfg`.
    ///
    /// This is equivalent to [`Dfg::analysis`]; the free constructor exists so
    /// the analysis can also be run on borrowed graphs in generic code.
    pub fn new(dfg: &Dfg) -> Self {
        let operations = || dfg.nodes().iter().filter(|n| n.kind().is_operation());
        let mut asap = vec![0usize; dfg.num_nodes()];
        // First the size of each level at `bounds[level]`.
        let mut bounds: Vec<usize> = Vec::with_capacity(16);
        bounds.push(0);
        // Creation order is topological, so a single forward sweep suffices.
        for node in operations() {
            let level = node
                .operands()
                .iter()
                .map(|operand| asap[operand.index()])
                .max()
                .unwrap_or(0)
                + 1;
            asap[node.id().index()] = level;
            if level >= bounds.len() {
                bounds.resize(level + 1, 0);
            }
            bounds[level] += 1;
        }
        let mut total = 0;
        for bound in &mut bounds {
            total += *bound;
            *bound = total;
        }

        // Counting sort: `bounds[level - 1]` is where the level's next
        // operation goes, which leaves every bound one entry early.
        let mut by_level = vec![NodeId(0); total];
        for node in operations() {
            let next = &mut bounds[asap[node.id().index()] - 1];
            by_level[*next] = node.id();
            *next += 1;
        }
        bounds.rotate_right(1);
        bounds[0] = 0;

        DfgAnalysis {
            asap,
            by_level,
            bounds,
        }
    }

    /// One longest dependence chain through `dfg` (which must be the graph
    /// the analysis was built from), earliest operation first: it ends at the
    /// lowest-numbered deepest operation and follows, level by level, the
    /// first operand one level up.
    pub fn critical_path(&self, dfg: &Dfg) -> Vec<NodeId> {
        let depth = self.depth();
        if depth == 0 {
            return Vec::new();
        }
        let deepest = self
            .asap
            .iter()
            .position(|&level| level == depth)
            .expect("a node exists at the maximum level");
        let mut current = dfg.nodes()[deepest].id();
        let mut path = vec![current];
        for level in (1..depth).rev() {
            let parent = dfg
                .node_unchecked(current)
                .operands()
                .iter()
                .copied()
                .find(|operand| self.asap[operand.index()] == level)
                .expect("critical path parent exists at each level");
            path.push(parent);
            current = parent;
        }
        path.reverse();
        path
    }

    /// ALAP level per node of `dfg` (which must be the graph the analysis was
    /// built from), addressed by [`NodeId::index`]; 0 for a node that is not
    /// an operation. An operation's slack is its ALAP level minus its
    /// [`DfgAnalysis::asap_level`].
    pub fn alap_levels(&self, dfg: &Dfg) -> Vec<usize> {
        let depth = self.depth();
        // One backward sweep. Every consumer of a node comes after it, so a
        // node's own level is final by the time the sweep reaches it and can
        // be pushed down onto its operands.
        let mut alap: Vec<usize> = self
            .asap
            .iter()
            .map(|&level| if level > 0 { depth } else { 0 })
            .collect();
        for node in dfg.nodes().iter().rev() {
            if !node.kind().is_operation() {
                continue;
            }
            let latest = alap[node.id().index()] - 1;
            for operand in node.operands() {
                let slot = &mut alap[operand.index()];
                *slot = (*slot).min(latest);
            }
        }
        alap
    }

    /// ASAP level of an operation node (1-based), or `None` for non-operation
    /// nodes.
    pub fn asap_level(&self, id: NodeId) -> Option<usize> {
        self.asap
            .get(id.index())
            .copied()
            .filter(|&level| level > 0)
    }

    /// Graph depth: the number of ASAP levels, equal to the critical path
    /// length. This is the paper's `Depth` column and the number of FUs the
    /// non-write-back overlays need.
    pub fn depth(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The operation nodes grouped by ASAP level, level 1 first.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + Clone {
        self.bounds
            .windows(2)
            .map(|bound| &self.by_level[bound[0]..bound[1]])
    }

    /// Operation nodes at a given 1-based level.
    pub fn level(&self, level: usize) -> &[NodeId] {
        let level = level
            .checked_sub(1)
            .and_then(|below| self.levels().nth(below));
        level.unwrap_or(&[])
    }

    /// The operations of levels `below + 1..=last`, by level and in creation
    /// order within one.
    ///
    /// # Panics
    ///
    /// If `below > last` or `last` exceeds the depth.
    pub fn level_span(&self, below: usize, last: usize) -> &[NodeId] {
        &self.by_level[self.bounds[below]..self.bounds[last]]
    }

    /// `level_bounds()[k]`: how many operations sit at level `k` or below
    /// (`depth + 1` entries, the first 0, the last the operation count).
    pub fn level_bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Computes the summary statistics for `dfg` (which must be the graph the
    /// analysis was built from).
    pub fn stats(&self, dfg: &Dfg) -> DfgStats {
        let op_ids = dfg.op_ids();
        let total_fanout: usize = op_ids.iter().map(|&id| dfg.fanout(id)).sum();
        DfgStats {
            name: dfg.name().to_owned(),
            inputs: dfg.num_inputs(),
            outputs: dfg.num_outputs(),
            ops: op_ids.len(),
            depth: self.depth(),
            max_level_width: self.levels().map(<[NodeId]>::len).max().unwrap_or(0),
            avg_fanout: if op_ids.is_empty() {
                0.0
            } else {
                total_fanout as f64 / op_ids.len() as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::op::Op;

    /// The paper's gradient benchmark (Fig. 2b): 5 inputs, 11 ops, depth 4.
    fn gradient() -> Dfg {
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
        b.build().unwrap()
    }

    #[test]
    fn gradient_depth_matches_paper() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        assert_eq!(analysis.depth(), 4);
        assert_eq!(analysis.levels().len(), 4);
        assert_eq!(analysis.level_bounds(), &[0, 4, 8, 10, 11]);
        assert_eq!(analysis.level_span(1, 3), &dfg.op_ids()[4..10]);
        assert!(analysis.level(0).is_empty() && analysis.level(5).is_empty());
        assert_eq!(analysis.level(1).len(), 4); // 4 SUB
        assert_eq!(analysis.level(2).len(), 4); // 4 SQR
        assert_eq!(analysis.level(3).len(), 2); // 2 ADD
        assert_eq!(analysis.level(4).len(), 1); // final ADD
    }

    #[test]
    fn critical_path_has_depth_length_and_is_a_chain() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        let path = analysis.critical_path(&dfg);
        assert_eq!(path.len(), 4);
        for window in path.windows(2) {
            let (parent, child) = (window[0], window[1]);
            assert!(dfg.node_unchecked(child).operands().contains(&parent));
        }
    }

    #[test]
    fn critical_path_ends_at_the_lowest_numbered_deepest_node() {
        // Two depth-3 sinks: the path must end at the first one created and
        // be the same in every process (it used to follow hash order).
        let mut b = DfgBuilder::new("two-sinks");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(Op::Add, &[x, y]).unwrap();
        let m = b.op(Op::Mul, &[x, y]).unwrap();
        let a2 = b.op(Op::Square, &[a]).unwrap();
        let m2 = b.op(Op::Square, &[m]).unwrap();
        let first = b.op(Op::Sub, &[m2, a2]).unwrap();
        let second = b.op(Op::Add, &[a2, m2]).unwrap();
        b.output("p", first);
        b.output("q", second);
        let dfg = b.build().unwrap();
        let analysis = dfg.analysis();
        assert_eq!(analysis.asap_level(first), analysis.asap_level(second));
        assert_eq!(analysis.critical_path(&dfg), [m, m2, first]);
        assert_eq!(analysis, dfg.analysis());
        // Every operation has zero slack.
        let alap = analysis.alap_levels(&dfg);
        for op in [a, m, a2, m2, first, second] {
            assert_eq!(Some(alap[op.index()]), analysis.asap_level(op));
        }
    }

    #[test]
    fn slack_is_zero_on_critical_path_nodes() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        let alap = analysis.alap_levels(&dfg);
        for id in analysis.critical_path(&dfg) {
            assert_eq!(Some(alap[id.index()]), analysis.asap_level(id));
        }
    }

    #[test]
    fn alap_never_precedes_asap() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        let alap = analysis.alap_levels(&dfg);
        for id in dfg.op_ids() {
            assert!(alap[id.index()] >= analysis.asap_level(id).unwrap());
        }
    }

    #[test]
    fn stats_summarise_the_graph() {
        let dfg = gradient();
        let stats = dfg.analysis().stats(&dfg);
        assert_eq!(stats.inputs, 5);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.ops, 11);
        assert_eq!(stats.depth, 4);
        assert_eq!(stats.max_level_width, 4);
        assert!(stats.avg_fanout > 0.0);
    }

    #[test]
    fn chain_graph_has_full_depth_and_no_slack() {
        let mut b = DfgBuilder::new("chain");
        let x = b.input("x");
        let mut prev = b.op(Op::Square, &[x]).unwrap();
        for _ in 0..6 {
            prev = b.op(Op::Square, &[prev]).unwrap();
        }
        b.output("o", prev);
        let dfg = b.build().unwrap();
        let analysis = dfg.analysis();
        assert_eq!(analysis.depth(), 7);
        let alap = analysis.alap_levels(&dfg);
        for op in dfg.op_ids() {
            assert_eq!(Some(alap[op.index()]), analysis.asap_level(op));
        }
    }

    #[test]
    fn non_operation_nodes_have_no_level() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        let input = dfg.inputs()[0];
        assert_eq!(analysis.asap_level(input), None);
        assert_eq!(analysis.alap_levels(&dfg)[input.index()], 0);
    }
}
