//! Nodes of the data flow graph.

use std::fmt;
use std::ops::Deref;

use crate::op::Op;
use crate::value::Value;

/// Identifier of a node within its owning [`crate::Dfg`].
///
/// Node ids are dense indices assigned in creation order; they are only
/// meaningful relative to the graph that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests; normal code obtains ids from
    /// [`crate::DfgBuilder`] or [`crate::Dfg`] accessors.
    pub const fn from_raw(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The operand ids of an operation node, in operand order, stored inline: no
/// operation takes more than [`Operands::MAX`] ([`Op::MulAdd`]). Reads as a
/// `[NodeId]` slice.
#[derive(Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Operands {
    len: u8,
    /// Slots past `len` stay `NodeId(0)`, so the derived equality is the
    /// slices' equality.
    ids: [NodeId; Operands::MAX],
}

impl Operands {
    /// The largest operand count of any [`Op`].
    pub const MAX: usize = 3;

    /// Copies `ids`, or returns `None` for more than [`Operands::MAX`] of
    /// them.
    pub fn new(ids: &[NodeId]) -> Option<Self> {
        let mut operands = Operands {
            len: ids.len() as u8,
            ids: [NodeId(0); Operands::MAX],
        };
        operands.ids.get_mut(..ids.len())?.copy_from_slice(ids);
        Some(operands)
    }
}

impl Deref for Operands {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The role a node plays in the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NodeKind {
    /// A kernel input, delivered over the streaming interface (one word per
    /// invocation).
    Input {
        /// Position within the input stream (0-based).
        position: usize,
    },
    /// A compile-time constant, materialised as an instruction immediate.
    Const {
        /// The constant value.
        value: Value,
    },
    /// An arithmetic/logic operation executed by a functional unit.
    Operation {
        /// The operation.
        op: Op,
        /// Operand node ids, in operand order.
        operands: Operands,
    },
    /// A kernel output, written to the output FIFO.
    Output {
        /// Position within the output stream (0-based).
        position: usize,
        /// The operation node whose value is emitted.
        source: NodeId,
    },
}

impl NodeKind {
    /// Returns `true` for [`NodeKind::Operation`] nodes.
    pub const fn is_operation(&self) -> bool {
        matches!(self, NodeKind::Operation { .. })
    }

    /// Returns `true` for [`NodeKind::Input`] nodes.
    pub const fn is_input(&self) -> bool {
        matches!(self, NodeKind::Input { .. })
    }

    /// Returns `true` for [`NodeKind::Const`] nodes.
    pub const fn is_const(&self) -> bool {
        matches!(self, NodeKind::Const { .. })
    }

    /// Returns `true` for [`NodeKind::Output`] nodes.
    pub const fn is_output(&self) -> bool {
        matches!(self, NodeKind::Output { .. })
    }
}

/// A node of the data flow graph: its id, an optional user-facing name and
/// its [`NodeKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
}

impl Node {
    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's user-visible name (e.g. `SUB_N6` in the paper's figures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Operand ids for operation and output nodes; empty otherwise.
    pub fn operands(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Operation { operands, .. } => operands,
            NodeKind::Output { source, .. } => std::slice::from_ref(source),
            _ => &[],
        }
    }

    /// The operation of an operation node, if any.
    pub fn op(&self) -> Option<Op> {
        match &self.kind {
            NodeKind::Operation { op, .. } => Some(*op),
            _ => None,
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            NodeKind::Input { position } => write!(f, "{}: input[{position}]", self.name),
            NodeKind::Const { value } => write!(f, "{}: const {value}", self.name),
            NodeKind::Operation { op, operands } => {
                write!(f, "{}: {op}(", self.name)?;
                for (i, operand) in operands.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{operand}")?;
                }
                write!(f, ")")
            }
            NodeKind::Output { position, source } => {
                write!(f, "{}: output[{position}] <- {source}", self.name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId::from_raw(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn kind_predicates_are_mutually_exclusive() {
        let kinds = [
            NodeKind::Input { position: 0 },
            NodeKind::Const {
                value: Value::new(1),
            },
            NodeKind::Operation {
                op: Op::Add,
                operands: Operands::new(&[NodeId::from_raw(0), NodeId::from_raw(1)]).unwrap(),
            },
            NodeKind::Output {
                position: 0,
                source: NodeId::from_raw(2),
            },
        ];
        for (i, kind) in kinds.iter().enumerate() {
            let flags = [
                kind.is_input(),
                kind.is_const(),
                kind.is_operation(),
                kind.is_output(),
            ];
            assert_eq!(flags.iter().filter(|f| **f).count(), 1);
            assert!(flags[i]);
        }
    }

    #[test]
    fn operands_hold_up_to_three_ids_inline() {
        let ids = [3, 1, 2, 0].map(NodeId::from_raw);
        assert_eq!(&*Operands::new(&ids[..3]).unwrap(), &ids[..3]);
        assert!(Operands::new(&[]).unwrap().is_empty());
        assert_eq!(Operands::new(&ids), None);
        assert_ne!(Operands::new(&ids[..1]), Operands::new(&ids[..2]));
        assert_eq!(
            format!("{:?}", Operands::new(&ids[..1]).unwrap()),
            "[NodeId(3)]"
        );
    }

    #[test]
    fn node_display_shows_structure() {
        let node = Node {
            id: NodeId::from_raw(3),
            name: "SUB_N6".into(),
            kind: NodeKind::Operation {
                op: Op::Sub,
                operands: Operands::new(&[NodeId::from_raw(0), NodeId::from_raw(2)]).unwrap(),
            },
        };
        assert_eq!(node.to_string(), "SUB_N6: SUB(n0, n2)");
        assert_eq!(node.operands(), &[NodeId::from_raw(0), NodeId::from_raw(2)]);
        assert_eq!(node.op(), Some(Op::Sub));
    }
}
