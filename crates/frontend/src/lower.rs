//! Lowering from the kernel AST to an [`overlay_dfg::Dfg`].

use std::collections::HashMap;

use overlay_dfg::{Dfg, DfgBuilder, NodeId, NodeKind, Op, Value};

use crate::ast::{BinaryOp, Expr, ExprId, Kernel, Stmt, UnaryFn};
use crate::error::FrontendError;

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

/// Lowers a parsed [`Kernel`] to a [`Dfg`].
///
/// # Errors
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
    Lowerer::new(kernel, *options).lower()
}

struct Lowerer<'k, 'src> {
    kernel: &'k Kernel<'src>,
    options: LowerOptions,
    /// Also the record of what each node is: its kind tells a literal or a
    /// parameter from an operation.
    builder: DfgBuilder,
    /// Parameters and `let` bindings in definition order, searched linearly:
    /// a kernel that fits an overlay binds a few dozen names.
    scope: Vec<(&'src str, NodeId)>,
    /// The constant node of each literal value in use, searched linearly.
    constants: Vec<(i32, NodeId)>,
    /// `(op, operands)` to the node computing it, with one operand repeated
    /// for a unary operation and a commutative pair sorted; filled only under
    /// [`LowerOptions::cse`].
    cse_cache: HashMap<(Op, [NodeId; 2]), NodeId>,
}

impl<'k, 'src> Lowerer<'k, 'src> {
    fn new(kernel: &'k Kernel<'src>, options: LowerOptions) -> Self {
        // Every expression is at most one node, every output one more.
        let nodes = kernel.params.len() + kernel.exprs.len() + kernel.body.len();
        Lowerer {
            kernel,
            options,
            builder: DfgBuilder::with_capacity(kernel.name, nodes),
            scope: Vec::with_capacity(kernel.params.len() + kernel.body.len()),
            constants: Vec::new(),
            cse_cache: HashMap::new(),
        }
    }

    fn lookup(&self, name: &str) -> Option<NodeId> {
        let binding = self.scope.iter().find(|(bound, _)| *bound == name);
        binding.map(|&(_, id)| id)
    }

    fn check_undefined(&self, name: &str) -> Result<(), FrontendError> {
        match self.lookup(name) {
            Some(_) => Err(FrontendError::DuplicateDefinition {
                name: name.to_owned(),
            }),
            None => Ok(()),
        }
    }

    fn lower(mut self) -> Result<Dfg, FrontendError> {
        for &param in &self.kernel.params {
            self.check_undefined(param)?;
            let id = self.builder.input(param);
            self.scope.push((param, id));
        }

        let mut has_output = false;
        for stmt in &self.kernel.body {
            match *stmt {
                Stmt::Let { name, expr } => {
                    self.check_undefined(name)?;
                    let id = self.lower_expr(expr)?;
                    self.scope.push((name, id));
                }
                Stmt::Out { name, expr } => {
                    has_output = true;
                    let id = self.lower_expr(expr)?;
                    // Outputs must be driven by an operation node; wrap bare
                    // inputs/constants in a MOV so the FU forwards them.
                    let is_operation = self.builder.node(id).and_then(|node| node.op()).is_some();
                    let source = if is_operation {
                        id
                    } else {
                        self.emit(Op::Mov, &[id])?
                    };
                    self.builder.output(name, source);
                }
            }
        }
        if !has_output {
            return Err(FrontendError::NoOutputs {
                kernel: self.kernel.name.to_owned(),
            });
        }
        Ok(self.builder.build()?)
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

    /// The node computing `op` over `operands` (one or two of them).
    fn emit(&mut self, op: Op, operands: &[NodeId]) -> Result<NodeId, FrontendError> {
        // A unary operation's one operand stands twice.
        let pair = [operands[0], operands[operands.len() - 1]];
        // Constant folding.
        if self.options.fold_constants {
            if let [Some(first), Some(second)] = pair.map(|id| self.literal(id)) {
                if let Ok(folded) = op.apply(&[first, second][..operands.len()]) {
                    return Ok(self.constant(folded.get()));
                }
            }
        }
        // Common subexpression elimination.
        if self.options.cse {
            let mut key = (op, pair);
            if op.is_commutative() {
                key.1.sort();
            }
            if let Some(&existing) = self.cse_cache.get(&key) {
                return Ok(existing);
            }
            let id = self.builder.op(op, operands)?;
            self.cse_cache.insert(key, id);
            return Ok(id);
        }
        Ok(self.builder.op(op, operands)?)
    }

    fn lower_expr(&mut self, expr: ExprId) -> Result<NodeId, FrontendError> {
        match self.kernel.expr(expr) {
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| FrontendError::UndefinedVariable {
                    name: name.to_owned(),
                }),
            Expr::Literal(value) => Ok(self.constant(value)),
            Expr::Neg(inner) => {
                let operand = self.lower_expr(inner)?;
                self.emit(Op::Neg, &[operand])
            }
            Expr::Call { function, args } => {
                let mut operands = [NodeId::from_raw(0); 2];
                let arity = function.arity();
                for (operand, &arg) in operands.iter_mut().zip(&args[..arity]) {
                    *operand = self.lower_expr(arg)?;
                }
                let op = match function {
                    UnaryFn::Sqr => Op::Square,
                    UnaryFn::Abs => Op::Abs,
                    UnaryFn::Min => Op::Min,
                    UnaryFn::Max => Op::Max,
                };
                self.emit(op, &operands[..arity])
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs_id = self.lower_expr(lhs)?;
                let rhs_id = self.lower_expr(rhs)?;
                if self.options.detect_squares && op == BinaryOp::Mul && lhs_id == rhs_id {
                    return self.emit(Op::Square, &[lhs_id]);
                }
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
                self.emit(op, &[lhs_id, rhs_id])
            }
        }
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
