//! The data flow graph container.

use std::collections::HashMap;

use crate::analysis::DfgAnalysis;
use crate::error::DfgError;
use crate::node::{Node, NodeId, NodeKind};
use crate::op::Op;

/// A kernel data flow graph.
///
/// Nodes are stored densely and identified by [`NodeId`]. The graph is
/// directed and — by construction through [`crate::DfgBuilder`] — acyclic:
/// operands must already exist when an operation node is created, which is
/// exactly the feed-forward structure the linear overlay exploits.
///
/// A `Dfg` is immutable once built; all scheduling and simulation passes
/// treat it as read-only input.
///
/// # Example
///
/// ```
/// use overlay_dfg::{DfgBuilder, Op};
///
/// # fn main() -> Result<(), overlay_dfg::DfgError> {
/// let mut b = DfgBuilder::new("axpy");
/// let a = b.input("a");
/// let x = b.input("x");
/// let y = b.input("y");
/// let ax = b.op(Op::Mul, &[a, x])?;
/// let r = b.op(Op::Add, &[ax, y])?;
/// b.output("r", r);
/// let dfg = b.build()?;
/// assert_eq!(dfg.num_ops(), 2);
/// assert_eq!(dfg.consumers(ax), vec![r]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Dfg {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
}

impl Dfg {
    /// The kernel name (e.g. `"gradient"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, in creation order (which is also a topological order).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnknownNode`] if the id is not part of this graph.
    pub fn node(&self, id: NodeId) -> Result<&Node, DfgError> {
        self.nodes.get(id.index()).ok_or(DfgError::UnknownNode(id))
    }

    /// Looks up a node by id, panicking on an unknown id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph. Use [`Dfg::node`] for a
    /// fallible lookup.
    pub fn node_unchecked(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Ids of the input nodes, in stream order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Ids of the output nodes, in stream order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Ids of all operation nodes, in creation (topological) order.
    pub fn op_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_operation())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all constant nodes.
    pub fn const_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_const())
            .map(|n| n.id)
            .collect()
    }

    /// Number of kernel inputs (the `I` in the paper's `I/O` column).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of kernel outputs (the `O` in the paper's `I/O` column).
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of operation nodes (the paper's `#Ops` column).
    pub fn num_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_operation()).count()
    }

    /// Total node count including inputs, constants and outputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of operation nodes using each [`Op`].
    pub fn op_histogram(&self) -> HashMap<Op, usize> {
        let mut histogram = HashMap::new();
        for node in &self.nodes {
            if let Some(op) = node.op() {
                *histogram.entry(op).or_insert(0) += 1;
            }
        }
        histogram
    }

    /// Ids of the nodes that consume `id` as an operand (operation nodes and
    /// output nodes), in creation order.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.operands().contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// Fan-out of a node: how many operand slots reference it.
    pub fn fanout(&self, id: NodeId) -> usize {
        self.nodes
            .iter()
            .map(|n| n.operands().iter().filter(|&&o| o == id).count())
            .sum()
    }

    /// Whether a value is consumed by any output node.
    pub fn feeds_output(&self, id: NodeId) -> bool {
        self.outputs
            .iter()
            .any(|&out| self.node_unchecked(out).operands().contains(&id))
    }

    /// A topological ordering of the operation nodes.
    ///
    /// Because the builder only allows operands that already exist, creation
    /// order is a valid topological order; this method re-derives it from the
    /// edges so it remains correct for graphs deserialised from elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::CyclicDependency`] if the graph contains a cycle.
    pub fn topological_ops(&self) -> Result<Vec<NodeId>, DfgError> {
        // Depth-first over the operand edges, roots in index order: a root
        // whose walk meets a node still on the stack depends on a cycle, and
        // every lower-numbered operation has already been cleared.
        const NEW: u8 = 0;
        const ON_STACK: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![NEW; self.nodes.len()];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in self.nodes.iter().filter(|n| n.kind.is_operation()) {
            if state[root.id.index()] != NEW {
                continue;
            }
            state[root.id.index()] = ON_STACK;
            stack.push((root.id.index(), 0));
            while let Some((index, next)) = stack.last_mut() {
                let Some(&operand) = self.nodes[*index].operands().get(*next) else {
                    state[*index] = DONE;
                    stack.pop();
                    continue;
                };
                *next += 1;
                if !self.node_unchecked(operand).kind.is_operation() {
                    continue;
                }
                match state[operand.index()] {
                    NEW => {
                        state[operand.index()] = ON_STACK;
                        stack.push((operand.index(), 0));
                    }
                    ON_STACK => return Err(DfgError::CyclicDependency(root.id)),
                    _ => {}
                }
            }
        }
        Ok(self.op_ids())
    }

    /// Validates structural invariants: operand ids exist, arities match,
    /// outputs are driven by operations, the graph is acyclic, there is at
    /// least one output, and every input feeds some operation.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`DfgError`].
    pub fn validate(&self) -> Result<(), DfgError> {
        let mut consumed = vec![false; self.nodes.len()];
        // Whether every operand was created before its consumer, as the
        // builder guarantees: creation order is then a topological order.
        let mut feed_forward = true;
        for (index, node) in self.nodes.iter().enumerate() {
            for &operand in node.operands() {
                let operand_node = self.node(operand)?;
                if operand_node.kind.is_output() {
                    return Err(DfgError::OperandIsOutput(operand));
                }
                consumed[operand.index()] = true;
                feed_forward &= operand.index() < index;
            }
            match &node.kind {
                NodeKind::Operation { op, operands } if operands.len() != op.arity() => {
                    return Err(DfgError::ArityMismatch {
                        op: *op,
                        expected: op.arity(),
                        found: operands.len(),
                    });
                }
                NodeKind::Output { source, .. } if !self.node(*source)?.kind.is_operation() => {
                    return Err(DfgError::InvalidOutputSource(*source));
                }
                _ => {}
            }
        }
        if self.outputs.is_empty() {
            return Err(DfgError::NoOutputs);
        }
        if let Some(&unused) = self.inputs.iter().find(|input| !consumed[input.index()]) {
            return Err(DfgError::UnusedInput(unused));
        }
        if !feed_forward {
            self.topological_ops()?;
        }
        Ok(())
    }

    /// Runs the level analysis (ASAP levels, depth) over the graph. See
    /// [`DfgAnalysis`].
    pub fn analysis(&self) -> DfgAnalysis {
        DfgAnalysis::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::node::Operands;
    use crate::value::Value;

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.op(Op::Add, &[x, y]).unwrap();
        let p = b.op(Op::Mul, &[x, y]).unwrap();
        let d = b.op(Op::Sub, &[s, p]).unwrap();
        b.output("out", d);
        b.build().unwrap()
    }

    #[test]
    fn counts_reflect_structure() {
        let dfg = diamond();
        assert_eq!(dfg.num_inputs(), 2);
        assert_eq!(dfg.num_outputs(), 1);
        assert_eq!(dfg.num_ops(), 3);
        assert_eq!(dfg.num_nodes(), 6);
    }

    #[test]
    fn consumers_and_fanout() {
        let dfg = diamond();
        let x = dfg.inputs()[0];
        assert_eq!(dfg.fanout(x), 2);
        assert_eq!(dfg.consumers(x).len(), 2);
        let last_op = *dfg.op_ids().last().unwrap();
        assert!(dfg.feeds_output(last_op));
        assert_eq!(dfg.fanout(last_op), 1);
    }

    #[test]
    fn op_histogram_counts_each_operation() {
        let dfg = diamond();
        let histogram = dfg.op_histogram();
        assert_eq!(histogram[&Op::Add], 1);
        assert_eq!(histogram[&Op::Mul], 1);
        assert_eq!(histogram[&Op::Sub], 1);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let dfg = diamond();
        let order = dfg.topological_ops().unwrap();
        assert_eq!(order.len(), 3);
        let position: HashMap<_, _> = order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for &id in &order {
            for &operand in dfg.node_unchecked(id).operands() {
                if dfg.node_unchecked(operand).kind.is_operation() {
                    assert!(position[&operand] < position[&id]);
                }
            }
        }
    }

    #[test]
    fn a_cycle_is_reported_at_its_lowest_numbered_dependant() {
        let mut dfg = diamond();
        let ops = dfg.op_ids();
        // s = x + y, p = x * y, d = s - p; make p consume d: p and d form the
        // cycle, s stays clear of it.
        if let NodeKind::Operation { operands, .. } = &mut dfg.nodes[ops[1].index()].kind {
            *operands = Operands::new(&[ops[2], operands[1]]).unwrap();
        }
        assert_eq!(
            dfg.topological_ops(),
            Err(DfgError::CyclicDependency(ops[1]))
        );
        assert_eq!(dfg.validate(), Err(DfgError::CyclicDependency(ops[1])));
    }

    #[test]
    fn validate_accepts_well_formed_graph() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn validate_rejects_unused_input() {
        let mut b = DfgBuilder::new("unused");
        let x = b.input("x");
        let _unused = b.input("y");
        let sq = b.op(Op::Square, &[x]).unwrap();
        b.output("o", sq);
        let dfg = b.build_unvalidated();
        assert!(matches!(dfg.validate(), Err(DfgError::UnusedInput(_))));
    }

    #[test]
    fn validate_rejects_missing_outputs() {
        let mut b = DfgBuilder::new("no-out");
        let x = b.input("x");
        let _sq = b.op(Op::Square, &[x]).unwrap();
        let dfg = b.build_unvalidated();
        assert_eq!(dfg.validate(), Err(DfgError::NoOutputs));
    }

    #[test]
    fn node_lookup_rejects_foreign_ids() {
        let dfg = diamond();
        assert!(dfg.node(NodeId::from_raw(999)).is_err());
    }

    #[test]
    fn constants_are_listed() {
        let mut b = DfgBuilder::new("with-const");
        let x = b.input("x");
        let c = b.constant(Value::new(3));
        let m = b.op(Op::Mul, &[x, c]).unwrap();
        b.output("o", m);
        let dfg = b.build().unwrap();
        assert_eq!(dfg.const_ids().len(), 1);
    }
}
