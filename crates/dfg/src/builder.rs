//! Incremental construction of [`Dfg`] graphs.
//!
//! # Node names
//!
//! Every node carries a name, unique within its graph. An input, an output
//! and a [`DfgBuilder::named_op`] take the name they are given. A constant is
//! named `c{value}` (`c-3`), and an operation from [`DfgBuilder::op`]
//! `{MNEMONIC}_N{index}` (`MUL_N12`), where the index is the node's own id.
//! A name some node already carries gets the first free suffix `_1`, `_2`, …
//! instead. Derived names are written by hand into the node, which holds up
//! to 22 bytes in place.
//!
//! The builder claims a name by inserting its FNV-1a hash into a set; a hash
//! already there is confirmed by scanning the nodes. Every given name,
//! constant name and suffixed candidate is claimed. A derived operation name
//! is claimed only once some given name has had the shape `[A-Z]+_N[0-9]+`,
//! and such a given name is checked against the nodes by a scan. Skipping the
//! other claims is exact: no two derived operation names share an index; a
//! constant name starts with a lowercase `c` and a suffixed name ends in
//! `_<digits>`, which a derived operation name never does; so only a given
//! name of that shape can equal one.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::DfgError;
use crate::graph::Dfg;
use crate::node::{Node, NodeId, NodeKind, NodeName, Operands};
use crate::op::Op;
use crate::value::Value;

/// Builder for [`Dfg`] graphs.
///
/// Nodes are created in dependence order: an operation can only reference
/// operands that already exist, which guarantees the resulting graph is
/// acyclic (the feed-forward property the linear overlay relies on). How
/// nodes are named is set out in the [module documentation](self).
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
    /// The FNV-1a hash of every claimed name, not the names: a hash that is
    /// absent proves a name new, one that is present is confirmed against the
    /// nodes. The names come from kernel source, but a kernel that fits an
    /// overlay has a few dozen nodes, so a crafted collision costs one scan.
    claimed: HashSet<u64, BuildHasherDefault<PassThrough>>,
    /// Whether a given name has had the shape of a derived operation name;
    /// until one has, derived operation names are not claimed.
    claim_derived: bool,
}

/// Hashes a key to itself: the claimed set's keys are hashes already.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed, through `write_u64`.
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// FNV-1a over the bytes of `name`.
fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether `name` has the shape `[A-Z]+_N[0-9]+`, the only shape of a given
/// name that can equal a derived operation name.
fn has_derived_shape(name: &str) -> bool {
    name.split_once("_N").is_some_and(|(mnemonic, index)| {
        !mnemonic.is_empty()
            && !index.is_empty()
            && mnemonic.bytes().all(|byte| byte.is_ascii_uppercase())
            && index.bytes().all(|byte| byte.is_ascii_digit())
    })
}

/// The decimal digits of `value`, with a leading `-` when it is negative,
/// written into `buffer` by hand rather than through `core::fmt`.
fn decimal(value: i64, buffer: &mut [u8; 20]) -> &str {
    let mut magnitude = value.unsigned_abs();
    let mut start = buffer.len();
    loop {
        start -= 1;
        buffer[start] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if value < 0 {
        start -= 1;
        buffer[start] = b'-';
    }
    // ASCII digits and a sign: the check never falls back.
    std::str::from_utf8(&buffer[start..]).unwrap_or_default()
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
            inputs: Vec::with_capacity(nodes),
            outputs: Vec::with_capacity(nodes),
            claimed: HashSet::with_capacity_and_hasher(nodes, Default::default()),
            claim_derived: false,
        }
    }

    fn next_id(&self) -> NodeId {
        NodeId(self.nodes.len() as u32)
    }

    /// Whether a node already carries `name`.
    fn in_use(&self, name: &str) -> bool {
        self.nodes.iter().any(|node| node.name() == name)
    }

    /// Claims `name`; `false` if a node already carries it.
    fn claim(&mut self, name: &str) -> bool {
        self.claimed.insert(fnv1a(name)) || !self.in_use(name)
    }

    /// `name` if `claimed` says it was free, else the first suffixed
    /// `name_k` that is, claimed.
    fn unique(&mut self, name: NodeName, claimed: bool) -> NodeName {
        if claimed {
            return name;
        }
        let mut digits = [0; 20];
        let mut counter = 1;
        loop {
            let candidate = NodeName::concat(&[name.as_str(), "_", decimal(counter, &mut digits)]);
            if self.claim(candidate.as_str()) {
                return candidate;
            }
            counter += 1;
        }
    }

    /// The unique name for a node given `name`.
    fn given_name(&mut self, name: &str) -> NodeName {
        let claimed = if has_derived_shape(name) {
            // Derived operation names made before this one were not claimed.
            self.claim_derived = true;
            self.claimed.insert(fnv1a(name));
            !self.in_use(name)
        } else {
            self.claim(name)
        };
        self.unique(NodeName::new(name), claimed)
    }

    /// Adds a kernel input node and returns its id.
    ///
    /// Inputs are delivered to the first functional unit in stream order, so
    /// the order of `input` calls defines the input stream layout.
    pub fn input(&mut self, name: impl AsRef<str>) -> NodeId {
        let id = self.next_id();
        let position = self.inputs.len();
        let name = self.given_name(name.as_ref());
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Input { position },
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant node, named `c{value}`, and returns its id.
    ///
    /// Constants become instruction immediates rather than streamed data.
    pub fn constant(&mut self, value: Value) -> NodeId {
        let id = self.next_id();
        let mut digits = [0; 20];
        let name = NodeName::concat(&["c", decimal(value.get().into(), &mut digits)]);
        let claimed = self.claim(name.as_str());
        let name = self.unique(name, claimed);
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Const { value },
        });
        id
    }

    /// Adds an operation node, named `{MNEMONIC}_N{index}`, with the given
    /// operands and returns its id.
    ///
    /// # Errors
    ///
    /// * [`DfgError::ArityMismatch`] if the operand count does not match the
    ///   operation's arity.
    /// * [`DfgError::UnknownNode`] if an operand id was not created by this
    ///   builder.
    /// * [`DfgError::OperandIsOutput`] if an operand refers to an output node.
    pub fn op(&mut self, op: Op, operands: &[NodeId]) -> Result<NodeId, DfgError> {
        let operands = self.operands(op, operands)?;
        let id = self.next_id();
        let mut digits = [0; 20];
        let name = NodeName::concat(&[op.mnemonic(), "_N", decimal(id.0.into(), &mut digits)]);
        let claimed = !self.claim_derived || self.claim(name.as_str());
        let name = self.unique(name, claimed);
        Ok(self.push_op(name, op, operands))
    }

    /// Adds an operation node with an explicit name (e.g. to mirror the
    /// paper's `SUB_N6` labels).
    ///
    /// # Errors
    ///
    /// Same as [`DfgBuilder::op`].
    pub fn named_op(
        &mut self,
        name: impl AsRef<str>,
        op: Op,
        operands: &[NodeId],
    ) -> Result<NodeId, DfgError> {
        let operands = self.operands(op, operands)?;
        let name = self.given_name(name.as_ref());
        Ok(self.push_op(name, op, operands))
    }

    /// `operands`, checked for `op`.
    fn operands(&self, op: Op, operands: &[NodeId]) -> Result<Operands, DfgError> {
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
        Ok(Operands::new(operands).expect("no operation takes more than three"))
    }

    fn push_op(&mut self, name: NodeName, op: Op, operands: Operands) -> NodeId {
        let id = self.next_id();
        self.nodes.push(Node {
            id,
            name,
            kind: NodeKind::Operation { op, operands },
        });
        id
    }

    /// Marks the value produced by `source` as a kernel output.
    ///
    /// Output order defines the output stream layout. If `source` is not an
    /// operation node the error is reported by [`DfgBuilder::build`] /
    /// [`Dfg::validate`].
    pub fn output(&mut self, name: impl AsRef<str>, source: NodeId) -> NodeId {
        let id = self.next_id();
        let position = self.outputs.len();
        let name = self.given_name(name.as_ref());
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

    fn names(builder: DfgBuilder) -> Vec<String> {
        let dfg = builder.build_unvalidated();
        dfg.nodes().iter().map(|n| n.name().to_owned()).collect()
    }

    #[test]
    fn a_derived_name_is_suffixed_after_a_given_one_of_its_shape() {
        let mut b = DfgBuilder::new("given-first");
        let x = b.input("ADD_N2");
        let c = b.constant(Value::new(-2));
        b.op(Op::Add, &[x, c]).unwrap();
        b.named_op("c-2", Op::Neg, &[x]).unwrap();
        assert_eq!(names(b), ["ADD_N2", "c-2", "ADD_N2_1", "c-2_1"]);
    }

    #[test]
    fn a_given_name_is_suffixed_after_the_derived_one_it_equals() {
        let mut b = DfgBuilder::new("derived-first");
        let x = b.input("x");
        let sq = b.op(Op::Square, &[x]).unwrap();
        let neg = b.op(Op::Neg, &[sq]).unwrap();
        b.output("SQR_N1", neg);
        b.output("NEG_N2_1", neg);
        b.output("NEG_N2", neg);
        assert_eq!(
            names(b),
            ["x", "SQR_N1", "NEG_N2", "SQR_N1_1", "NEG_N2_1", "NEG_N2_2"]
        );
    }

    #[test]
    fn only_the_derived_shape_switches_claims_on() {
        for name in ["ADD_N3", "A_N0", "MAC_N4294967295"] {
            assert!(has_derived_shape(name), "{name}");
        }
        for name in [
            "add_N3", "ADD_N", "_N3", "ADD_N3_1", "ADD_N3a", "A1_N3", "c5", "x",
        ] {
            assert!(!has_derived_shape(name), "{name}");
        }
    }

    #[test]
    fn long_given_names_are_kept_whole() {
        let long = "a_parameter_name_longer_than_the_inline_bytes";
        let mut b = DfgBuilder::new("long");
        let x = b.input(long);
        let y = b.input(long);
        let s = b.op(Op::Add, &[x, y]).unwrap();
        b.output(String::from("y"), s);
        assert_eq!(names(b), [long, &format!("{long}_1"), "ADD_N2", "y"]);
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

    #[test]
    fn decimal_matches_display_at_the_extremes() {
        let mut buffer = [0; 20];
        for value in [
            0,
            7,
            -1,
            10,
            -10,
            4_294_967_295,
            i64::from(i32::MIN),
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(decimal(value, &mut buffer), value.to_string());
        }
    }
}
