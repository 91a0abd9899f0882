//! Incremental construction of [`Dfg`] graphs.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::BuildHasher;

use crate::error::DfgError;
use crate::graph::Dfg;
use crate::node::{Node, NodeId, NodeKind, Operands};
use crate::op::Op;
use crate::value::Value;

/// Builder for [`Dfg`] graphs.
///
/// Nodes are created in dependence order: an operation can only reference
/// operands that already exist, which guarantees the resulting graph is
/// acyclic (the feed-forward property the linear overlay relies on).
///
/// # Example
///
/// ```
/// use overlay_dfg::{DfgBuilder, Op, Value};
///
/// # fn main() -> Result<(), overlay_dfg::DfgError> {
/// let mut b = DfgBuilder::new("scale-offset");
/// let x = b.input("x");
/// let gain = b.constant(Value::new(5));
/// let offset = b.constant(Value::new(-3));
/// let scaled = b.op(Op::Mul, &[x, gain])?;
/// let result = b.op(Op::Add, &[scaled, offset])?;
/// b.output("y", result);
/// let dfg = b.build()?;
/// assert_eq!(dfg.name(), "scale-offset");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DfgBuilder {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// The keyed hash of every name in use, not the names: a hash that is
    /// absent proves a name new, one that is present is confirmed against the
    /// nodes.
    used_names: HashSet<u64>,
}

impl DfgBuilder {
    /// Starts building a graph for the kernel called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder::with_capacity(name, 0)
    }

    /// Like [`DfgBuilder::new`], with room for `nodes` nodes (inputs,
    /// constants, operations and outputs together) before anything regrows.
    pub fn with_capacity(name: impl Into<String>, nodes: usize) -> Self {
        DfgBuilder {
            name: name.into(),
            nodes: Vec::with_capacity(nodes),
            inputs: Vec::new(),
            outputs: Vec::new(),
            used_names: HashSet::with_capacity(nodes),
        }
    }

    fn next_id(&self) -> NodeId {
        NodeId(self.nodes.len() as u32)
    }

    /// Claims `name`; `false` if a node already carries it.
    fn claim(&mut self, name: &str) -> bool {
        let hash = self.used_names.hasher().hash_one(name);
        self.used_names.insert(hash) || !self.nodes.iter().any(|node| node.name == name)
    }

    fn unique_name(&mut self, requested: String) -> String {
        if self.claim(&requested) {
            return requested;
        }
        let mut counter = 1usize;
        loop {
            let candidate = format!("{requested}_{counter}");
            if self.claim(&candidate) {
                return candidate;
            }
            counter += 1;
        }
    }

    /// Adds a kernel input node and returns its id.
    ///
    /// Inputs are delivered to the first functional unit in stream order, so
    /// the order of `input` calls defines the input stream layout.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.next_id();
        let position = self.inputs.len();
        let name = self.unique_name(name.into());
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Input { position },
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant node and returns its id.
    ///
    /// Constants become instruction immediates rather than streamed data.
    pub fn constant(&mut self, value: Value) -> NodeId {
        let id = self.next_id();
        let mut name = String::with_capacity(12);
        let _ = write!(name, "c{}", value.get());
        let name = self.unique_name(name);
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Const { value },
        });
        id
    }

    /// Adds an operation node with the given operands and returns its id.
    ///
    /// # Errors
    ///
    /// * [`DfgError::ArityMismatch`] if the operand count does not match the
    ///   operation's arity.
    /// * [`DfgError::UnknownNode`] if an operand id was not created by this
    ///   builder.
    /// * [`DfgError::OperandIsOutput`] if an operand refers to an output node.
    pub fn op(&mut self, op: Op, operands: &[NodeId]) -> Result<NodeId, DfgError> {
        // Sized for the longest mnemonic and a five-digit index, so the name
        // is one allocation.
        let mut name = String::with_capacity(10);
        let _ = write!(name, "{}_N{}", op.mnemonic(), self.nodes.len());
        self.named_op(name, op, operands)
    }

    /// Adds an operation node with an explicit name (e.g. to mirror the
    /// paper's `SUB_N6` labels).
    ///
    /// # Errors
    ///
    /// Same as [`DfgBuilder::op`].
    pub fn named_op(
        &mut self,
        name: impl Into<String>,
        op: Op,
        operands: &[NodeId],
    ) -> Result<NodeId, DfgError> {
        if operands.len() != op.arity() {
            return Err(DfgError::ArityMismatch {
                op,
                expected: op.arity(),
                found: operands.len(),
            });
        }
        for &operand in operands {
            let node = self
                .nodes
                .get(operand.index())
                .ok_or(DfgError::UnknownNode(operand))?;
            if node.kind.is_output() {
                return Err(DfgError::OperandIsOutput(operand));
            }
        }
        let id = self.next_id();
        let name = self.unique_name(name.into());
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Operation {
                op,
                operands: Operands::new(operands).expect("no operation takes more than three"),
            },
        });
        Ok(id)
    }

    /// Marks the value produced by `source` as a kernel output.
    ///
    /// Output order defines the output stream layout. If `source` is not an
    /// operation node the error is reported by [`DfgBuilder::build`] /
    /// [`Dfg::validate`].
    pub fn output(&mut self, name: impl Into<String>, source: NodeId) -> NodeId {
        let id = self.next_id();
        let position = self.outputs.len();
        let name = self.unique_name(name.into());
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Output { position, source },
        });
        self.outputs.push(id);
        id
    }

    /// A node created so far, or `None` for an id this builder did not hand
    /// out.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been created yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finishes construction, validating the graph.
    ///
    /// # Errors
    ///
    /// Returns any error reported by [`Dfg::validate`].
    pub fn build(self) -> Result<Dfg, DfgError> {
        let dfg = self.build_unvalidated();
        dfg.validate()?;
        Ok(dfg)
    }

    /// Finishes construction without validating.
    ///
    /// Useful in tests that deliberately construct malformed graphs; regular
    /// code should prefer [`DfgBuilder::build`].
    pub fn build_unvalidated(self) -> Dfg {
        Dfg {
            name: self.name,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = DfgBuilder::new("dense");
        let a = b.input("a");
        let c = b.constant(Value::new(7));
        let s = b.op(Op::Add, &[a, c]).unwrap();
        let o = b.output("o", s);
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        assert_eq!(s.index(), 2);
        assert_eq!(o.index(), 3);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    fn duplicate_names_are_made_unique() {
        let mut b = DfgBuilder::new("dup");
        let a = b.input("x");
        let c = b.input("x");
        let s = b.op(Op::Add, &[a, c]).unwrap();
        b.output("x", s);
        let dfg = b.build().unwrap();
        let names: HashSet<_> = dfg.nodes().iter().map(|n| n.name().to_owned()).collect();
        assert_eq!(names.len(), dfg.num_nodes());
    }

    #[test]
    fn op_rejects_wrong_arity() {
        let mut b = DfgBuilder::new("arity");
        let a = b.input("a");
        assert!(matches!(
            b.op(Op::Add, &[a]),
            Err(DfgError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn op_rejects_unknown_operand() {
        let mut b = DfgBuilder::new("unknown");
        let bogus = NodeId::from_raw(42);
        assert!(matches!(
            b.op(Op::Neg, &[bogus]),
            Err(DfgError::UnknownNode(_))
        ));
    }

    #[test]
    fn op_rejects_output_operand() {
        let mut b = DfgBuilder::new("out-operand");
        let a = b.input("a");
        let sq = b.op(Op::Square, &[a]).unwrap();
        let out = b.output("o", sq);
        assert!(matches!(
            b.op(Op::Neg, &[out]),
            Err(DfgError::OperandIsOutput(_))
        ));
    }

    #[test]
    fn build_validates_output_source() {
        let mut b = DfgBuilder::new("bad-output");
        let a = b.input("a");
        let a2 = b.input("b");
        let s = b.op(Op::Add, &[a, a2]).unwrap();
        let _ok = b.output("ok", s);
        // Driving an output directly from an input is rejected: the overlay
        // always routes outputs through an FU.
        b.output("bad", a);
        assert!(matches!(b.build(), Err(DfgError::InvalidOutputSource(_))));
    }
}
