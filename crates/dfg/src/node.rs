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
        let none = NodeId(0);
        // Spelt out rather than copied: a call to copy three ids at most
        // costs more than the ids, and the copy stalls the reads after it.
        let slots = match *ids {
            [] => [none; Operands::MAX],
            [a] => [a, none, none],
            [a, b] => [a, b, none],
            [a, b, c] => [a, b, c],
            _ => return None,
        };
        Some(Operands {
            len: ids.len() as u8,
            ids: slots,
        })
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

/// A node's name, stored in place when it fits in [`NodeName::INLINE`] bytes
/// and boxed otherwise. Every name the builder derives (`MAC_N4294967295`,
/// `c-2147483648`) fits; only a long given name is boxed. A name that fits is
/// always inline, so the derived equality is the strings' equality. It is as
/// large as a `String`, so a [`Node`] is no larger than when it held one.
#[derive(Clone, PartialEq, Eq)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(into = "String", from = "String")
)]
pub(crate) enum NodeName {
    /// Bytes past `len` stay zero.
    Inline {
        len: u8,
        bytes: [u8; NodeName::INLINE],
    },
    Boxed(Box<str>),
}

const _: () = assert!(std::mem::size_of::<NodeName>() == std::mem::size_of::<String>());

impl NodeName {
    /// The longest name stored in place.
    pub(crate) const INLINE: usize = 22;

    /// The empty name, which a node is pushed with before its name is spelt
    /// into it.
    pub(crate) const EMPTY: NodeName = NodeName::Inline {
        len: 0,
        bytes: [0; NodeName::INLINE],
    };

    /// A copy of `name`.
    pub(crate) fn new(name: &str) -> Self {
        let mut copy = NodeName::EMPTY;
        copy.spell(name, "", None);
        copy
    }

    /// Overwrites this name with `head`, `tail` and the decimal digits of
    /// `number`, if any (after a `-` when it is negative): a given name, a
    /// derived one (`MUL_N12`), a constant's (`c-3`) or a suffixed one
    /// (`x_2`). A name that fits is spelt byte by byte where it lies, not
    /// through `core::fmt`.
    #[inline]
    pub(crate) fn spell(&mut self, head: &str, tail: &str, number: Option<i64>) {
        let negative = number.is_some_and(|number| number < 0);
        let mut rest = number.map_or(0, i64::unsigned_abs);
        let digits = match number {
            Some(_) => rest.checked_ilog10().unwrap_or(0) as usize + 1,
            None => 0,
        };
        let prefix = head.len() + tail.len() + usize::from(negative);
        let end = prefix + digits;
        let NodeName::Inline { len, bytes } = self else {
            return self.respell(head, tail, number);
        };
        if end > NodeName::INLINE {
            return self.respell(head, tail, number);
        }
        let mut at = 0;
        for part in [
            head.as_bytes(),
            tail.as_bytes(),
            &b"-"[..usize::from(negative)],
        ] {
            for &byte in part {
                bytes[at] = byte;
                at += 1;
            }
        }
        for slot in bytes[prefix..end].iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        // What a longer name overwritten leaves past the end.
        if usize::from(*len) > end {
            bytes[end..].fill(0);
        }
        *len = end as u8;
    }

    /// [`NodeName::spell`] for a name that is or becomes boxed.
    #[cold]
    fn respell(&mut self, head: &str, tail: &str, number: Option<i64>) {
        let mut name = [head, tail].concat();
        name.extend(number.map(|number| number.to_string()));
        *self = NodeName::EMPTY;
        if name.len() > NodeName::INLINE {
            *self = NodeName::Boxed(name.into());
        } else {
            self.spell(&name, "", None);
        }
    }

    /// The name as a string slice.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            // The bytes are whole `str`s copied end to end, so they are
            // UTF-8 and the check never falls back.
            NodeName::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            NodeName::Boxed(name) => name,
        }
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<String> for NodeName {
    fn from(name: String) -> Self {
        NodeName::new(&name)
    }
}

impl From<NodeName> for String {
    fn from(name: NodeName) -> Self {
        name.as_str().to_owned()
    }
}

/// A node of the data flow graph: its id, its name and its [`NodeKind`].
///
/// Every node has a name, unique within its graph: the one it was given, or
/// one the builder derived (see [`crate::builder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: NodeName,
    pub(crate) kind: NodeKind,
}

impl Node {
    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's user-visible name (e.g. `SUB_N6` in the paper's figures).
    pub fn name(&self) -> &str {
        self.name.as_str()
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
        let name = self.name();
        match &self.kind {
            NodeKind::Input { position } => write!(f, "{name}: input[{position}]"),
            NodeKind::Const { value } => write!(f, "{name}: const {value}"),
            NodeKind::Operation { op, operands } => {
                write!(f, "{name}: {op}(")?;
                for (i, operand) in operands.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{operand}")?;
                }
                write!(f, ")")
            }
            NodeKind::Output { position, source } => {
                write!(f, "{name}: output[{position}] <- {source}")
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
            name: NodeName::new("SUB_N6"),
            kind: NodeKind::Operation {
                op: Op::Sub,
                operands: Operands::new(&[NodeId::from_raw(0), NodeId::from_raw(2)]).unwrap(),
            },
        };
        assert_eq!(node.to_string(), "SUB_N6: SUB(n0, n2)");
        assert_eq!(node.operands(), &[NodeId::from_raw(0), NodeId::from_raw(2)]);
        assert_eq!(node.op(), Some(Op::Sub));
    }

    #[test]
    fn names_up_to_the_inline_length_are_stored_in_place() {
        let fits = "A".repeat(NodeName::INLINE);
        let boxed = "A".repeat(NodeName::INLINE + 1);
        assert!(matches!(NodeName::new(&fits), NodeName::Inline { .. }));
        assert!(matches!(NodeName::new(&boxed), NodeName::Boxed(_)));
        for name in ["", "x", "SUB_N6", "é€𝄞", fits.as_str(), boxed.as_str()] {
            let stored = NodeName::new(name);
            assert_eq!(stored.as_str(), name);
            assert_eq!(format!("{stored:?}"), format!("{name:?}"));
            assert_eq!(String::from(stored.clone()), name);
            assert_eq!(NodeName::from(name.to_owned()), stored);
        }
        let mut split = NodeName::new("a longer name than the derived one");
        split.spell("MAC", "_N", Some(4_294_967_295));
        assert_eq!(split.as_str(), "MAC_N4294967295");
        assert_eq!(split, NodeName::new("MAC_N4294967295"));
        assert!(matches!(split, NodeName::Inline { .. }));
        split.spell("c", "", Some(-5));
        assert_eq!(split, NodeName::new("c-5"));
    }
}
