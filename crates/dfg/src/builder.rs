//! Incremental construction of [`Dfg`] graphs.
//!
//! # Node names
//!
//! Every node carries a name, unique within its graph. An input, an output
//! and a [`DfgBuilder::named_op`] take the name they are given. A constant is
//! named `c{value}` (`c-3`), and an operation from [`DfgBuilder::op`]
//! `{MNEMONIC}_N{index}` (`MUL_N12`), where the index is the node's own id.
//! A name some node already carries gets the first free suffix `_1`, `_2`, …
//! instead. A name is spelt once, byte by byte, into the node it names,
//! which holds up to 22 bytes in place.
//!
//! The builder claims a name by entering its FNV-1a hash in a table, with
//! the node that carries it. A hash already there is confirmed against that
//! one node; only a hash two different names have claimed is confirmed by
//! scanning the nodes. The entry of a name that has been suffixed remembers
//! the next suffix to try, so the `k`-th duplicate of a name costs one claim,
//! not `k`. Every given name, constant name and suffixed candidate is
//! claimed. A derived operation name is claimed only once some given name
//! has had the shape `[A-Z]+_N[0-9]+`, and such a given name is checked
//! against the nodes by a scan. Skipping the other claims is exact: no two
//! derived operation names share an index; a constant name starts with a
//! lowercase `c` and a suffixed name ends in `_<digits>`, which a derived
//! operation name never does; so only a given name of that shape can equal
//! one.
//!
//! # Validation
//!
//! Each call checks what it adds: an operation's arity and operands at
//! once, an output's source as it is recorded. The builder also notes which
//! inputs have been read, so [`DfgBuilder::build`] checks three facts —
//! every output's source was an operation node, there is an output, every
//! input is read — instead of walking the graph again. An output added with
//! a source that was not then an operation node (or a graph with more than
//! 128 inputs) is left to [`Dfg::validate`], which reports exactly what is
//! wrong.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
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
/// nodes are named and checked is set out in the
/// [module documentation](self).
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
    /// The FNV-1a hash of every claimed name, not the names, with the node
    /// that carries it. The names come from kernel source, but a crafted
    /// collision only costs a scan of the nodes for the names that share it.
    claimed: HashMap<u64, Claim, BuildHasherDefault<PassThrough>>,
    /// Whether a given name has had the shape of a derived operation name;
    /// until one has, derived operation names are not claimed.
    claim_derived: bool,
    /// Bit `p` is set once input `p` has been read by an operation.
    consumed: u128,
    /// Whether an output was given a source that was not then an operation
    /// node: [`Dfg::validate`] then judges the graph.
    irregular_output: bool,
}

/// The inputs whose reads [`DfgBuilder`] tracks itself.
const TRACKED_INPUTS: usize = u128::BITS as usize;

/// A claimed hash's entry.
#[derive(Debug, Clone, Copy)]
struct Claim {
    /// The node whose name has this hash, or [`Claim::SHARED`] once two
    /// different names have had it.
    holder: u32,
    /// The holder's name with suffixes `_1` up to `_{next_suffix - 1}` is
    /// taken.
    next_suffix: u32,
}

impl Claim {
    const SHARED: u32 = u32::MAX;
}

/// Hashes a key to itself: the claimed table's keys are hashes already.
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
    let bytes = name.as_bytes();
    let mnemonic = bytes
        .iter()
        .take_while(|byte| byte.is_ascii_uppercase())
        .count();
    match bytes[mnemonic..].strip_prefix(b"_N") {
        Some(index) => mnemonic > 0 && !index.is_empty() && index.iter().all(u8::is_ascii_digit),
        None => false,
    }
}

/// Claims `name` in `claimed` for the node `holder`; `false` if one of
/// `before`, the nodes made before it, already carries the name.
fn claim(
    claimed: &mut HashMap<u64, Claim, BuildHasherDefault<PassThrough>>,
    before: &[Node],
    name: &str,
    holder: NodeId,
) -> bool {
    match claimed.entry(fnv1a(name)) {
        Entry::Vacant(entry) => {
            entry.insert(Claim {
                holder: holder.0,
                next_suffix: 1,
            });
            true
        }
        Entry::Occupied(mut entry) => {
            let entry = entry.get_mut();
            if entry.holder == Claim::SHARED {
                return !before.iter().any(|node| node.name() == name);
            }
            let holder = before.get(entry.holder as usize);
            if holder.is_some_and(|node| node.name() == name) {
                return false;
            }
            // Another name has this hash; from now on a scan decides.
            entry.holder = Claim::SHARED;
            true
        }
    }
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
            claimed: HashMap::with_capacity_and_hasher(nodes, Default::default()),
            claim_derived: false,
            consumed: 0,
            irregular_output: false,
        }
    }

    /// Pushes a node of `kind` with the empty name, to be spelt in place.
    fn push(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let name = NodeName::EMPTY;
        self.nodes.push(Node { id, name, kind });
        id
    }

    /// Settles the name node `id` was spelt with: kept if it is free, else
    /// replaced by the first free suffixed form.
    fn settle(&mut self, id: NodeId) {
        let (before, node) = self.nodes.split_at(id.index());
        if claim(&mut self.claimed, before, node[0].name(), id) {
            return;
        }
        let base = node[0].name.clone();
        self.suffix(id, base.as_str());
    }

    /// Names node `id` with the first suffixed `base_k` no node before it
    /// carries.
    fn suffix(&mut self, id: NodeId, base: &str) {
        let hash = fnv1a(base);
        let remembered = self.claimed.get(&hash).and_then(|entry| {
            let holder = self.nodes.get(entry.holder as usize);
            let holds = holder.is_some_and(|node| node.name() == base);
            holds.then_some(entry.next_suffix)
        });
        let mut counter = remembered.unwrap_or(1);
        loop {
            let (before, node) = self.nodes.split_at_mut(id.index());
            let name = &mut node[0].name;
            name.spell(base, "_", Some(counter.into()));
            if claim(&mut self.claimed, before, name.as_str(), id) {
                break;
            }
            counter += 1;
        }
        if let (Some(_), Some(entry)) = (remembered, self.claimed.get_mut(&hash)) {
            entry.next_suffix = counter + 1;
        }
    }

    /// Names node `id` `name`, or its first free suffixed form.
    fn give(&mut self, id: NodeId, name: &str) {
        if has_derived_shape(name) {
            // Derived operation names made before this one were not claimed.
            self.claim_derived = true;
            let before = &self.nodes[..id.index()];
            if let Some(carrier) = before.iter().position(|node| node.name() == name) {
                let carrier = NodeId(carrier as u32);
                claim(&mut self.claimed, before, name, carrier);
                return self.suffix(id, name);
            }
        }
        self.nodes[id.index()].name.spell(name, "", None);
        self.settle(id);
    }

    /// Adds a kernel input node and returns its id.
    ///
    /// Inputs are delivered to the first functional unit in stream order, so
    /// the order of `input` calls defines the input stream layout.
    pub fn input(&mut self, name: impl AsRef<str>) -> NodeId {
        let position = self.inputs.len();
        let id = self.push(NodeKind::Input { position });
        self.give(id, name.as_ref());
        self.inputs.push(id);
        id
    }

    /// Adds a constant node, named `c{value}`, and returns its id.
    ///
    /// Constants become instruction immediates rather than streamed data.
    pub fn constant(&mut self, value: Value) -> NodeId {
        let id = self.push(NodeKind::Const { value });
        let name = &mut self.nodes[id.index()].name;
        name.spell("c", "", Some(value.get().into()));
        self.settle(id);
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
        let id = self.push(NodeKind::Operation { op, operands });
        let name = &mut self.nodes[id.index()].name;
        name.spell(op.mnemonic(), "_N", Some(id.0.into()));
        if self.claim_derived {
            self.settle(id);
        }
        Ok(id)
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
        let id = self.push(NodeKind::Operation { op, operands });
        self.give(id, name.as_ref());
        Ok(id)
    }

    /// `operands`, checked for `op`; the inputs among them are marked read.
    fn operands(&mut self, op: Op, operands: &[NodeId]) -> Result<Operands, DfgError> {
        if operands.len() != op.arity() {
            return Err(DfgError::ArityMismatch {
                op,
                expected: op.arity(),
                found: operands.len(),
            });
        }
        let mut consumed = 0;
        for &operand in operands {
            let node = self
                .nodes
                .get(operand.index())
                .ok_or(DfgError::UnknownNode(operand))?;
            match node.kind {
                NodeKind::Output { .. } => return Err(DfgError::OperandIsOutput(operand)),
                NodeKind::Input { position } if position < TRACKED_INPUTS => {
                    consumed |= 1 << position;
                }
                _ => {}
            }
        }
        self.consumed |= consumed;
        Ok(Operands::new(operands).expect("no operation takes more than three"))
    }

    /// Marks the value produced by `source` as a kernel output.
    ///
    /// Output order defines the output stream layout. If `source` is not an
    /// operation node the error is reported by [`DfgBuilder::build`] /
    /// [`Dfg::validate`].
    pub fn output(&mut self, name: impl AsRef<str>, source: NodeId) -> NodeId {
        let is_operation = self
            .nodes
            .get(source.index())
            .is_some_and(|node| node.kind.is_operation());
        self.irregular_output |= !is_operation;
        let position = self.outputs.len();
        let id = self.push(NodeKind::Output { position, source });
        self.give(id, name.as_ref());
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

    /// Finishes construction, validating the graph: with the three checks
    /// of the [module documentation](self#validation), which report what
    /// [`Dfg::validate`] would.
    ///
    /// # Errors
    ///
    /// Returns any error reported by [`Dfg::validate`].
    pub fn build(self) -> Result<Dfg, DfgError> {
        let tracked = !self.irregular_output && self.inputs.len() <= TRACKED_INPUTS;
        let unread = !self.consumed;
        let dfg = self.build_unvalidated();
        if !tracked {
            dfg.validate()?;
        } else if dfg.outputs.is_empty() {
            return Err(DfgError::NoOutputs);
        } else if let Some(&input) = dfg.inputs.get(unread.trailing_zeros() as usize) {
            return Err(DfgError::UnusedInput(input));
        }
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
    use std::collections::HashSet;

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
    fn build_reports_what_validate_reports() {
        let mut cases = Vec::new();
        let mut b = DfgBuilder::new("no-outputs");
        let x = b.input("x");
        b.op(Op::Square, &[x]).unwrap();
        cases.push(b);
        let mut b = DfgBuilder::new("unused");
        let [x, _, z] = ["x", "y", "z"].map(|name| b.input(name));
        let sum = b.op(Op::Add, &[x, z]).unwrap();
        b.output("o", sum);
        cases.push(b);
        // A source that is not an operation, an output, or not made yet.
        for source in [0, 2, 5, 4] {
            let mut b = DfgBuilder::new("odd-output");
            let x = b.input("x");
            let sq = b.op(Op::Square, &[x]).unwrap();
            b.output("o", sq);
            b.output("p", NodeId(source));
            if source == 4 {
                b.op(Op::Neg, &[x]).unwrap();
            }
            cases.push(b);
        }
        // Past the inputs whose reads the builder tracks itself.
        let mut b = DfgBuilder::new("wide");
        let inputs: Vec<NodeId> = (0..200).map(|i| b.input(format!("i{i}"))).collect();
        let mut sum = inputs[0];
        for &input in inputs.iter().skip(1).filter(|input| input.index() != 150) {
            sum = b.op(Op::Add, &[sum, input]).unwrap();
        }
        b.output("o", sum);
        cases.push(b);
        let mut outcomes = Vec::new();
        for b in cases {
            let expected = b.clone().build_unvalidated().validate();
            outcomes.push(expected.clone().err());
            assert_eq!(b.build().err(), expected.err());
        }
        // The cases reach every verdict the builder gives itself.
        assert_eq!(
            outcomes,
            [
                Some(DfgError::NoOutputs),
                Some(DfgError::UnusedInput(NodeId(1))),
                Some(DfgError::InvalidOutputSource(NodeId(0))),
                Some(DfgError::OperandIsOutput(NodeId(2))),
                Some(DfgError::UnknownNode(NodeId(5))),
                None,
                Some(DfgError::UnusedInput(NodeId(150))),
            ]
        );
    }

    #[test]
    fn a_hash_two_names_share_is_confirmed_by_a_scan() {
        let mut b = DfgBuilder::new("collision");
        let x = b.input("x");
        // Forge a collision: the hash of `y` is claimed by the node of `x`.
        b.claimed.insert(
            fnv1a("y"),
            Claim {
                holder: x.0,
                next_suffix: 1,
            },
        );
        b.input("y");
        assert_eq!(b.claimed[&fnv1a("y")].holder, Claim::SHARED);
        b.input("y");
        b.input("x");
        b.input("x");
        assert_eq!(names(b), ["x", "y", "y_1", "x_1", "x_2"]);
    }

    #[test]
    fn decimal_matches_display_at_the_extremes() {
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
            for (head, tail) in [("c", ""), ("a_name_longer_than_the", "_")] {
                let mut name = NodeName::EMPTY;
                name.spell(head, tail, Some(value));
                assert_eq!(name, NodeName::new(&format!("{head}{tail}{value}")));
            }
        }
    }
}
