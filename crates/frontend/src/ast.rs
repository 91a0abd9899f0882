//! Abstract syntax tree for the kernel language.

use std::fmt;

/// A parsed kernel: a name, ordered parameters (the stream inputs) and a body
/// of `let`/`out` statements. Names borrow from the source text, and every
/// expression of the body lives in one arena owned by the kernel, addressed by
/// [`ExprId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel<'src> {
    /// Kernel name.
    pub name: &'src str,
    /// Input parameter names, in stream order.
    pub params: Vec<&'src str>,
    /// Body statements, in source order.
    pub body: Vec<Stmt<'src>>,
    pub(crate) exprs: Vec<Expr<'src>>,
}

/// An expression of one [`Kernel`], as an index into that kernel's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

impl<'src> Kernel<'src> {
    /// A kernel without parameters, statements or expressions, for `exprs`
    /// expressions.
    pub fn new(name: &'src str, exprs: usize) -> Self {
        Kernel {
            name,
            params: Vec::new(),
            body: Vec::new(),
            exprs: Vec::with_capacity(exprs),
        }
    }

    /// Adds `expr`, whose operands must already be in this kernel, and
    /// returns its id.
    pub fn add(&mut self, expr: Expr<'src>) -> ExprId {
        self.exprs.push(expr);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// The expression `id` names.
    ///
    /// # Panics
    ///
    /// If `id` came from another kernel and is out of range here.
    pub fn expr(&self, id: ExprId) -> Expr<'src> {
        self.exprs[id.0 as usize]
    }

    pub(crate) fn expr_mut(&mut self, id: ExprId) -> &mut Expr<'src> {
        &mut self.exprs[id.0 as usize]
    }

    /// Names of the kernel outputs, in stream order.
    pub fn output_names(&self) -> Vec<&'src str> {
        self.body
            .iter()
            .filter_map(|stmt| match stmt {
                Stmt::Out { name, .. } => Some(*name),
                Stmt::Let { .. } => None,
            })
            .collect()
    }

    /// Number of operation nodes a direct (no CSE, no folding) lowering of
    /// `expr` produces.
    pub fn op_count(&self, expr: ExprId) -> usize {
        let operands = self.expr(expr).operands();
        let own = usize::from(operands.len() > 0);
        own + operands
            .map(|operand| self.op_count(operand))
            .sum::<usize>()
    }

    /// Free variables referenced by `expr`, in first-appearance order.
    pub fn free_vars(&self, expr: ExprId) -> Vec<&'src str> {
        let mut vars = Vec::new();
        self.collect_vars(expr, &mut vars);
        vars
    }

    fn collect_vars(&self, expr: ExprId, vars: &mut Vec<&'src str>) {
        match self.expr(expr) {
            Expr::Var(name) if !vars.contains(&name) => vars.push(name),
            expr => expr
                .operands()
                .for_each(|operand| self.collect_vars(operand, vars)),
        }
    }
}

/// A statement in a kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt<'src> {
    /// `let name = expr;` — binds an intermediate value.
    Let {
        /// Bound name.
        name: &'src str,
        /// Right-hand side.
        expr: ExprId,
    },
    /// `out name = expr;` — defines a kernel output.
    Out {
        /// Output name.
        name: &'src str,
        /// Right-hand side.
        expr: ExprId,
    },
}

/// Binary operators of the expression grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbol = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
            BinaryOp::Xor => "^",
        };
        f.write_str(symbol)
    }
}

/// Intrinsic unary/binary functions callable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryFn {
    /// `sqr(x)` — squaring (maps to the DSP multiplier with both ports tied).
    Sqr,
    /// `abs(x)` — absolute value.
    Abs,
    /// `min(a, b)` — signed minimum.
    Min,
    /// `max(a, b)` — signed maximum.
    Max,
}

impl UnaryFn {
    /// Number of arguments the intrinsic requires.
    pub const fn arity(self) -> usize {
        match self {
            UnaryFn::Sqr | UnaryFn::Abs => 1,
            UnaryFn::Min | UnaryFn::Max => 2,
        }
    }

    /// The source-level name of the intrinsic.
    pub const fn name(self) -> &'static str {
        match self {
            UnaryFn::Sqr => "sqr",
            UnaryFn::Abs => "abs",
            UnaryFn::Min => "min",
            UnaryFn::Max => "max",
        }
    }

    /// Looks an intrinsic up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "sqr" => Some(UnaryFn::Sqr),
            "abs" => Some(UnaryFn::Abs),
            "min" => Some(UnaryFn::Min),
            "max" => Some(UnaryFn::Max),
            _ => None,
        }
    }
}

/// An expression; its operands are ids into the owning [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr<'src> {
    /// A reference to a parameter or `let` binding.
    Var(&'src str),
    /// An integer literal.
    Literal(i32),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Unary negation (`-x`).
    Neg(ExprId),
    /// An intrinsic function call.
    Call {
        /// The intrinsic.
        function: UnaryFn,
        /// The arguments, in order; only the first `function.arity()` count.
        args: [ExprId; 2],
    },
}

impl Expr<'_> {
    /// The expressions this one reads, in evaluation order.
    pub fn operands(self) -> impl ExactSizeIterator<Item = ExprId> {
        let (ids, len) = match self {
            Expr::Var(_) | Expr::Literal(_) => ([ExprId(0); 2], 0),
            Expr::Neg(inner) => ([inner; 2], 1),
            Expr::Binary { lhs, rhs, .. } => ([lhs, rhs], 2),
            Expr::Call { function, args } => (args, function.arity()),
        };
        ids.into_iter().take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_counts_every_operator() {
        let mut kernel = Kernel::new("k", 6);
        let [a, b, c] = ["a", "b", "c"].map(|name| kernel.add(Expr::Var(name)));
        let product = kernel.add(Expr::Binary {
            op: BinaryOp::Mul,
            lhs: a,
            rhs: b,
        });
        let square = kernel.add(Expr::Call {
            function: UnaryFn::Sqr,
            args: [c, c],
        });
        let sum = kernel.add(Expr::Binary {
            op: BinaryOp::Add,
            lhs: product,
            rhs: square,
        });
        assert_eq!(kernel.op_count(sum), 3);
    }

    #[test]
    fn free_vars_are_deduplicated_in_order() {
        let mut kernel = Kernel::new("k", 5);
        let x = kernel.add(Expr::Var("x"));
        let y = kernel.add(Expr::Var("y"));
        let sum = kernel.add(Expr::Binary {
            op: BinaryOp::Add,
            lhs: x,
            rhs: y,
        });
        let x_again = kernel.add(Expr::Var("x"));
        let difference = kernel.add(Expr::Binary {
            op: BinaryOp::Sub,
            lhs: sum,
            rhs: x_again,
        });
        assert_eq!(kernel.free_vars(difference), vec!["x", "y"]);
    }

    #[test]
    fn intrinsics_round_trip_by_name() {
        for f in [UnaryFn::Sqr, UnaryFn::Abs, UnaryFn::Min, UnaryFn::Max] {
            assert_eq!(UnaryFn::by_name(f.name()), Some(f));
        }
        assert_eq!(UnaryFn::by_name("cos"), None);
    }

    #[test]
    fn kernel_output_names_preserve_order() {
        let mut kernel = Kernel::new("two-out", 1);
        kernel.params.push("a");
        let expr = kernel.add(Expr::Var("a"));
        kernel.body.push(Stmt::Out {
            name: "first",
            expr,
        });
        kernel.body.push(Stmt::Out {
            name: "second",
            expr,
        });
        assert_eq!(kernel.output_names(), vec!["first", "second"]);
    }
}
