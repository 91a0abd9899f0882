//! Structural analyses over a [`Dfg`]: dependence levels, depth, critical
//! path and slack.
//!
//! The ASAP level assignment is the basis of the paper's scheduling for the
//! `[14]`, V1 and V2 overlays ("nodes at the same (horizontal) level [are]
//! allocated to a single FU"), and the critical path length is the overlay
//! depth those variants require. The ALAP levels and per-node slack are used
//! by the fixed-depth greedy scheduler for the write-back variants (V3–V5).

use crate::graph::Dfg;
use crate::node::NodeId;

/// Result of running the level/critical-path analyses over a graph.
///
/// Levels are 1-based over *operation* nodes: an operation whose operands are
/// all inputs or constants has ASAP level 1; the graph depth is the maximum
/// ASAP level (the paper's `Depth` column in Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgAnalysis {
    /// ASAP and ALAP level per node, addressed by [`NodeId::index`]; 0 marks a
    /// node that is not an operation (levels are 1-based).
    asap: Vec<usize>,
    alap: Vec<usize>,
    depth: usize,
    critical_path: CriticalPath,
    levels: Vec<Vec<NodeId>>,
}

/// A longest dependence chain through the operation nodes of a graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    nodes: Vec<NodeId>,
}

impl CriticalPath {
    /// The nodes on the path, from the earliest operation to the latest.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Path length in operations (equal to the graph depth).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path is empty (a graph with no operations).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
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
    /// Runs the analyses over `dfg`.
    ///
    /// This is equivalent to [`Dfg::analysis`]; the free constructor exists so
    /// the analysis can also be run on borrowed graphs in generic code.
    pub fn new(dfg: &Dfg) -> Self {
        let operations = || dfg.nodes().iter().filter(|n| n.kind().is_operation());
        let mut asap = vec![0usize; dfg.num_nodes()];
        let mut level_sizes: Vec<usize> = Vec::new();
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
            if level > level_sizes.len() {
                level_sizes.resize(level, 0);
            }
            level_sizes[level - 1] += 1;
        }
        let depth = level_sizes.len();

        // ALAP: one backward sweep. Every consumer of a node comes after it,
        // so a node's own level is final by the time the sweep reaches it and
        // can be pushed down onto its operands.
        let mut alap: Vec<usize> = asap
            .iter()
            .map(|&level| if level > 0 { depth } else { 0 })
            .collect();
        for node in operations().rev() {
            let latest = alap[node.id().index()] - 1;
            for operand in node.operands() {
                let slot = &mut alap[operand.index()];
                *slot = (*slot).min(latest);
            }
        }

        let mut levels: Vec<Vec<NodeId>> = level_sizes
            .iter()
            .map(|&size| Vec::with_capacity(size))
            .collect();
        for node in operations() {
            levels[asap[node.id().index()] - 1].push(node.id());
        }

        let critical_path = Self::extract_critical_path(dfg, &asap, depth);

        DfgAnalysis {
            asap,
            alap,
            depth,
            critical_path,
            levels,
        }
    }

    fn extract_critical_path(dfg: &Dfg, asap: &[usize], depth: usize) -> CriticalPath {
        if depth == 0 {
            return CriticalPath::default();
        }
        // Start from the lowest-numbered deepest node and walk backwards
        // through the first operand whose level is exactly one less.
        let deepest = asap
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
                .find(|operand| asap[operand.index()] == level)
                .expect("critical path parent exists at each level");
            path.push(parent);
            current = parent;
        }
        path.reverse();
        CriticalPath { nodes: path }
    }

    /// ASAP level of an operation node (1-based), or `None` for non-operation
    /// nodes.
    pub fn asap_level(&self, id: NodeId) -> Option<usize> {
        self.asap
            .get(id.index())
            .copied()
            .filter(|&level| level > 0)
    }

    /// ALAP level of an operation node (1-based), or `None` for non-operation
    /// nodes.
    pub fn alap_level(&self, id: NodeId) -> Option<usize> {
        self.alap
            .get(id.index())
            .copied()
            .filter(|&level| level > 0)
    }

    /// Scheduling slack of an operation node (`alap − asap`), or `None` for
    /// non-operation nodes.
    pub fn slack(&self, id: NodeId) -> Option<usize> {
        Some(self.alap_level(id)? - self.asap_level(id)?)
    }

    /// Graph depth: the number of ASAP levels, equal to the critical path
    /// length. This is the paper's `Depth` column and the number of FUs the
    /// non-write-back overlays need.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The operation nodes grouped by ASAP level; `levels()[k]` holds the
    /// nodes of level `k + 1`.
    pub fn levels(&self) -> &[Vec<NodeId>] {
        &self.levels
    }

    /// Operation nodes at a given 1-based level.
    pub fn level(&self, level: usize) -> &[NodeId] {
        self.levels
            .get(level.wrapping_sub(1))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// One longest dependence chain through the graph.
    pub fn critical_path(&self) -> &CriticalPath {
        &self.critical_path
    }

    /// Nodes whose slack is zero — every one of them lies on *some* longest
    /// path, so moving them between scheduling stages changes the depth.
    pub fn zero_slack_nodes(&self) -> Vec<NodeId> {
        (0..self.asap.len())
            .filter(|&index| self.asap[index] > 0 && self.alap[index] == self.asap[index])
            .map(|index| NodeId(index as u32))
            .collect()
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
            depth: self.depth,
            max_level_width: self.levels.iter().map(Vec::len).max().unwrap_or(0),
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
        assert_eq!(analysis.level(1).len(), 4); // 4 SUB
        assert_eq!(analysis.level(2).len(), 4); // 4 SQR
        assert_eq!(analysis.level(3).len(), 2); // 2 ADD
        assert_eq!(analysis.level(4).len(), 1); // final ADD
    }

    #[test]
    fn critical_path_has_depth_length_and_is_a_chain() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        let path = analysis.critical_path();
        assert_eq!(path.len(), 4);
        for window in path.nodes().windows(2) {
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
        assert_eq!(analysis.critical_path().nodes(), &[m, m2, first]);
        assert_eq!(analysis, dfg.analysis());
        assert_eq!(
            analysis.zero_slack_nodes(),
            vec![a, m, a2, m2, first, second]
        );
    }

    #[test]
    fn slack_is_zero_on_critical_path_nodes() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        for &id in analysis.critical_path().nodes() {
            assert_eq!(analysis.slack(id), Some(0));
        }
    }

    #[test]
    fn alap_never_precedes_asap() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        for id in dfg.op_ids() {
            assert!(analysis.alap_level(id).unwrap() >= analysis.asap_level(id).unwrap());
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
        assert_eq!(analysis.zero_slack_nodes().len(), 7);
    }

    #[test]
    fn non_operation_nodes_have_no_level() {
        let dfg = gradient();
        let analysis = dfg.analysis();
        let input = dfg.inputs()[0];
        assert_eq!(analysis.asap_level(input), None);
        assert_eq!(analysis.slack(input), None);
    }
}
