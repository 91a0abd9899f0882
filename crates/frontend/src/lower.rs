//! Lowering from the kernel AST to an [`overlay_dfg::Dfg`].

use std::collections::HashMap;

use overlay_dfg::{Dfg, DfgBuilder, NodeId, NodeKind, Op, Value};

use crate::ast::{BinaryOp, Expr, ExprId, Kernel, Stmt, UnaryFn};
use crate::error::FrontendError;
use crate::parser::Sink;

/// Options controlling the lowering of kernel ASTs to DFGs.
///
/// The defaults perform *direct* lowering (one operation node per source
/// operator) with square detection, which keeps the resulting operation count
/// predictable — important when reproducing the paper's per-benchmark `#Ops`
/// figures. Enable [`LowerOptions::cse`] to share identical subexpressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Fold operations whose operands are all literals at compile time.
    pub fold_constants: bool,
    /// Reuse a node when an identical `(op, operands)` combination recurs.
    pub cse: bool,
    /// Turn `x * x` into a single [`Op::Square`] node (matching the paper's
    /// `SQR` nodes).
    pub detect_squares: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            fold_constants: true,
            cse: false,
            detect_squares: true,
        }
    }
}

impl LowerOptions {
    /// Options for fully optimised lowering (constant folding, CSE and square
    /// detection all enabled).
    pub fn optimized() -> Self {
        LowerOptions {
            fold_constants: true,
            cse: true,
            detect_squares: true,
        }
    }

    /// Options for completely literal lowering (no folding, no CSE, no square
    /// detection) — every source operator becomes exactly one node.
    pub fn literal() -> Self {
        LowerOptions {
            fold_constants: false,
            cse: false,
            detect_squares: false,
        }
    }
}

/// Lowers a parsed [`Kernel`] to a [`Dfg`] through the sink
/// [`crate::compile_kernel_with`] parses into: both make the same graph.
///
/// # Errors
///
/// The first in source order of:
///
/// * [`FrontendError::DuplicateDefinition`] for re-bound names,
/// * [`FrontendError::UndefinedVariable`] for uses of unknown names,
/// * [`FrontendError::NoOutputs`] if the kernel has no `out` statement,
/// * [`FrontendError::Dfg`] if the resulting graph fails validation.
///
/// # Example
///
/// ```
/// use overlay_frontend::{lower_kernel, parse_kernel, LowerOptions};
///
/// # fn main() -> Result<(), overlay_frontend::FrontendError> {
/// let kernel = parse_kernel("kernel f(x) { out y = x * x; }")?;
/// let dfg = lower_kernel(&kernel, &LowerOptions::default())?;
/// // `x * x` became a single SQR node thanks to square detection.
/// assert_eq!(dfg.num_ops(), 1);
/// # Ok(())
/// # }
/// ```
pub fn lower_kernel(kernel: &Kernel<'_>, options: &LowerOptions) -> Result<Dfg, FrontendError> {
    // Every expression is at most one node, every output one more.
    let nodes = kernel.params.len() + kernel.exprs.len() + kernel.body.len();
    let mut lowerer = Lowerer::new(*options, nodes, kernel.params.len() + kernel.body.len());
    lowerer.kernel(kernel.name);
    for &param in &kernel.params {
        lowerer.param(param);
    }
    for &stmt in &kernel.body {
        let stmt = match stmt {
            Stmt::Let { name, expr } => {
                lowerer.define(name);
                let expr = lowerer.replay(kernel, expr);
                Stmt::Let { name, expr }
            }
            Stmt::Out { name, expr } => {
                let expr = lowerer.replay(kernel, expr);
                Stmt::Out { name, expr }
            }
        };
        lowerer.stmt(stmt);
    }
    lowerer.finish()
}

/// The graph sink: emits into a [`DfgBuilder`] through the scope, constant
/// and CSE tables. It keeps the first error for [`Sink::finish`]; values
/// after it are placeholders.
pub(crate) struct Lowerer<'src> {
    options: LowerOptions,
    name: &'src str,
    /// Nodes to make room for once the kernel's name is known.
    nodes: usize,
    /// Also the record of what each node is: its kind tells a literal or a
    /// parameter from an operation.
    builder: DfgBuilder,
    /// Parameters and `let` bindings with their [`key`]s, searched linearly:
    /// a kernel that fits an overlay binds a few dozen names.
    scope: Vec<(u64, &'src str, NodeId)>,
    /// The constant node of each literal value in use, searched linearly.
    constants: Vec<(i32, NodeId)>,
    /// `(op, operands)` to the node computing it, with one operand repeated
    /// for a unary operation and a commutative pair sorted; filled only under
    /// [`LowerOptions::cse`].
    cse_cache: HashMap<(Op, [NodeId; 2]), NodeId>,
    has_output: bool,
    error: Option<FrontendError>,
}

/// The first eight bytes of `name`, zero-padded: names in scope are compared
/// by it and their length, and by their text only past eight bytes.
fn key(name: &str) -> u64 {
    // Shifted in, not copied: a copy's call stalls the read of the word.
    let bytes = name.bytes().take(8).enumerate();
    bytes.fold(0, |key, (at, byte)| key | u64::from(byte) << (8 * at))
}

/// What a value is after a lowering error.
const PLACEHOLDER: NodeId = NodeId::from_raw(0);

impl<'src> Lowerer<'src> {
    /// A sink with room for `nodes` nodes and `names` bindings.
    pub(crate) fn new(options: LowerOptions, nodes: usize, names: usize) -> Self {
        Lowerer {
            options,
            name: "",
            nodes,
            builder: DfgBuilder::new(""),
            scope: Vec::with_capacity(names),
            constants: Vec::new(),
            cse_cache: HashMap::new(),
            has_output: false,
            error: None,
        }
    }

    fn lookup(&self, name: &str) -> Option<NodeId> {
        let key = key(name);
        let mut scope = self.scope.iter();
        let binding = scope.find(|&&(bound_key, bound, _)| {
            bound_key == key && bound.len() == name.len() && (name.len() <= 8 || bound == name)
        });
        binding.map(|&(_, _, id)| id)
    }

    /// The value of a node that is a literal.
    fn literal(&self, id: NodeId) -> Option<Value> {
        match self.builder.node(id)?.kind() {
            NodeKind::Const { value } => Some(*value),
            _ => None,
        }
    }

    fn constant(&mut self, value: i32) -> NodeId {
        if let Some(&(_, id)) = self.constants.iter().find(|(known, _)| *known == value) {
            return id;
        }
        let id = self.builder.constant(Value::new(value));
        self.constants.push((value, id));
        id
    }

    /// The node computing `op` over `operands`; a unary operation's one
    /// operand stands twice.
    fn emit(&mut self, op: Op, operands: [NodeId; 2]) -> NodeId {
        let arity = op.arity();
        // Constant folding.
        if self.options.fold_constants {
            if let [Some(first), Some(second)] = operands.map(|id| self.literal(id)) {
                if let Ok(folded) = op.apply(&[first, second][..arity]) {
                    return self.constant(folded.get());
                }
            }
        }
        // Common subexpression elimination.
        let mut key = (op, operands);
        if self.options.cse {
            if op.is_commutative() {
                key.1.sort();
            }
            if let Some(&existing) = self.cse_cache.get(&key) {
                return existing;
            }
        }
        match self.builder.op(op, &operands[..arity]) {
            Ok(id) => {
                if self.options.cse {
                    self.cse_cache.insert(key, id);
                }
                id
            }
            Err(error) => {
                self.error.get_or_insert(error.into());
                PLACEHOLDER
            }
        }
    }

    /// Replays `expr` of `kernel` into this sink, operands first.
    fn replay(&mut self, kernel: &Kernel<'src>, expr: ExprId) -> NodeId {
        let expr = kernel
            .expr(expr)
            .map(|operand| self.replay(kernel, operand));
        self.expr(expr)
    }
}

impl<'src> Sink<'src> for Lowerer<'src> {
    type Value = NodeId;
    type Output = Dfg;

    fn kernel(&mut self, name: &'src str) {
        self.name = name;
        self.builder = DfgBuilder::with_capacity(name, self.nodes);
    }

    fn param(&mut self, name: &'src str) {
        self.define(name);
        let id = self.builder.input(name);
        self.scope.push((key(name), name, id));
    }

    fn define(&mut self, name: &'src str) {
        if self.lookup(name).is_some() {
            let name = name.to_owned();
            self.error
                .get_or_insert(FrontendError::DuplicateDefinition { name });
        }
    }

    fn stmt(&mut self, stmt: Stmt<'src, NodeId>) {
        let (name, id) = match stmt {
            Stmt::Let { name, expr } => return self.scope.push((key(name), name, expr)),
            Stmt::Out { name, expr } => (name, expr),
        };
        self.has_output = true;
        // Outputs must be driven by an operation node; wrap bare
        // inputs/constants in a MOV so the FU forwards them.
        let source = match self.builder.node(id).and_then(|node| node.op()) {
            Some(_) => id,
            None => self.emit(Op::Mov, [id; 2]),
        };
        self.builder.output(name, source);
    }

    fn expr(&mut self, expr: Expr<'src, NodeId>) -> NodeId {
        let (op, operands) = match expr {
            Expr::Var(name) => {
                return self.lookup(name).unwrap_or_else(|| {
                    let name = name.to_owned();
                    self.error
                        .get_or_insert(FrontendError::UndefinedVariable { name });
                    PLACEHOLDER
                })
            }
            Expr::Literal(value) => return self.constant(value),
            Expr::Neg(operand) => (Op::Neg, [operand; 2]),
            Expr::Binary { op, lhs, rhs } => {
                if self.options.detect_squares && op == BinaryOp::Mul && lhs == rhs {
                    (Op::Square, [lhs; 2])
                } else {
                    let op = match op {
                        BinaryOp::Add => Op::Add,
                        BinaryOp::Sub => Op::Sub,
                        BinaryOp::Mul => Op::Mul,
                        BinaryOp::Shl => Op::Shl,
                        BinaryOp::Shr => Op::Shr,
                        BinaryOp::And => Op::And,
                        BinaryOp::Or => Op::Or,
                        BinaryOp::Xor => Op::Xor,
                    };
                    (op, [lhs, rhs])
                }
            }
            Expr::Call { function, args } => {
                let op = match function {
                    UnaryFn::Sqr => Op::Square,
                    UnaryFn::Abs => Op::Abs,
                    UnaryFn::Min => Op::Min,
                    UnaryFn::Max => Op::Max,
                };
                (op, args)
            }
        };
        self.emit(op, operands)
    }

    fn finish(self) -> Result<Dfg, FrontendError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if !self.has_output {
            let kernel = self.name.to_owned();
            return Err(FrontendError::NoOutputs { kernel });
        }
        Ok(self.builder.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;
    use overlay_dfg::evaluate;

    fn lower(source: &str, options: LowerOptions) -> Result<Dfg, FrontendError> {
        lower_kernel(&parse_kernel(source).unwrap(), &options)
    }

    #[test]
    fn direct_lowering_counts_ops_one_per_operator() {
        let dfg = lower(
            "kernel k(a, b) { let t = a + b; out y = t * t - 4; }",
            LowerOptions::literal(),
        )
        .unwrap();
        // a+b, t*t (no square detection), -4 constant sub -> 3 ops
        assert_eq!(dfg.num_ops(), 3);
    }

    #[test]
    fn square_detection_uses_sqr_nodes() {
        let dfg = lower("kernel k(a) { out y = a * a; }", LowerOptions::default()).unwrap();
        assert_eq!(dfg.num_ops(), 1);
        assert_eq!(dfg.op_histogram()[&Op::Square], 1);
    }

    #[test]
    fn constant_folding_collapses_literal_math() {
        let dfg = lower(
            "kernel k(a) { out y = a + (2 * 3 + 4); }",
            LowerOptions::default(),
        )
        .unwrap();
        assert_eq!(dfg.num_ops(), 1); // only the a + 10 add survives
        let out = evaluate(&dfg, &[Value::new(1)]).unwrap();
        assert_eq!(out, vec![Value::new(11)]);
    }

    #[test]
    fn cse_shares_identical_subexpressions() {
        let source = "kernel k(a, b) { out y = (a + b) * (a + b); }";
        let without = lower(source, LowerOptions::default()).unwrap();
        let with = lower(source, LowerOptions::optimized()).unwrap();
        assert_eq!(without.num_ops(), 3); // two adds and a mul
        assert_eq!(with.num_ops(), 2); // shared add, then a SQR of it
    }

    #[test]
    fn cse_respects_commutativity() {
        let source = "kernel k(a, b) { out y = (a + b) * (b + a); }";
        let dfg = lower(source, LowerOptions::optimized()).unwrap();
        assert_eq!(dfg.num_ops(), 2);
    }

    #[test]
    fn undefined_variable_is_reported() {
        assert!(matches!(
            lower("kernel k(a) { out y = a + q; }", LowerOptions::default()),
            Err(FrontendError::UndefinedVariable { .. })
        ));
    }

    #[test]
    fn duplicate_let_is_reported() {
        assert!(matches!(
            lower(
                "kernel k(a) { let t = a; let t = a + 1; out y = t; }",
                LowerOptions::default()
            ),
            Err(FrontendError::DuplicateDefinition { .. })
        ));
    }

    #[test]
    fn kernel_without_outputs_is_rejected() {
        assert!(matches!(
            lower("kernel k(a) { let t = a + 1; }", LowerOptions::default()),
            Err(FrontendError::NoOutputs { .. })
        ));
    }

    #[test]
    fn output_of_plain_input_gets_a_mov() {
        let dfg = lower("kernel k(a) { out y = a; }", LowerOptions::default()).unwrap();
        assert_eq!(dfg.num_ops(), 1);
        assert_eq!(dfg.op_histogram()[&Op::Mov], 1);
        assert_eq!(
            evaluate(&dfg, &[Value::new(17)]).unwrap(),
            vec![Value::new(17)]
        );
    }

    #[test]
    fn lowered_kernels_evaluate_correctly() {
        let dfg = lower(
            "kernel f(a, b, c) { let t = a * b; out y = abs(t - c) + min(a, b) * max(a, c); }",
            LowerOptions::default(),
        )
        .unwrap();
        // a=2, b=-3, c=4: t=-6; |−6−4|=10; min(2,−3)=−3; max(2,4)=4; 10 + (−12) = −2
        let out = evaluate(&dfg, &[Value::new(2), Value::new(-3), Value::new(4)]).unwrap();
        assert_eq!(out, vec![Value::new(-2)]);
    }

    #[test]
    fn negation_lowers_to_neg_node() {
        let dfg = lower("kernel k(a) { out y = -(a * 3); }", LowerOptions::default()).unwrap();
        assert_eq!(dfg.op_histogram()[&Op::Neg], 1);
        assert_eq!(
            evaluate(&dfg, &[Value::new(5)]).unwrap(),
            vec![Value::new(-15)]
        );
    }

    #[test]
    fn the_most_negative_literal_lowers_to_itself() {
        let options = LowerOptions::default();
        let dfg = lower("kernel k(a) { out y = a + (-2147483648); }", options).unwrap();
        assert_eq!(
            evaluate(&dfg, &[Value::new(5)]).unwrap(),
            vec![Value::new(i32::MIN + 5)]
        );
        let dfg = lower("kernel k(a) { out y = a * - 2147483648 * 1; }", options).unwrap();
        assert_eq!(
            evaluate(&dfg, &[Value::new(1)]).unwrap(),
            vec![Value::new(i32::MIN)]
        );
    }

    #[test]
    fn duplicate_parameter_is_rejected() {
        assert!(matches!(
            lower("kernel k(a, a) { out y = a; }", LowerOptions::default()),
            Err(FrontendError::DuplicateDefinition { .. })
        ));
    }
}
