//! Abstract syntax tree for the kernel language.

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
}

/// A statement in a kernel body; its expression is an [`ExprId`], or a
/// graph node where the parser emits straight into a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt<'src, Id = ExprId> {
    /// `let name = expr;` — binds an intermediate value.
    Let {
        /// Bound name.
        name: &'src str,
        /// Right-hand side.
        expr: Id,
    },
    /// `out name = expr;` — defines a kernel output.
    Out {
        /// Output name.
        name: &'src str,
        /// Right-hand side.
        expr: Id,
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

/// An expression; its operands are ids into the owning [`Kernel`], or graph
/// nodes where the parser emits straight into a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr<'src, Id = ExprId> {
    /// A reference to a parameter or `let` binding.
    Var(&'src str),
    /// An integer literal.
    Literal(i32),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Id,
        /// Right operand.
        rhs: Id,
    },
    /// Unary negation (`-x`).
    Neg(Id),
    /// An intrinsic function call.
    Call {
        /// The intrinsic.
        function: UnaryFn,
        /// The arguments, in order; only the first `function.arity()` count.
        args: [Id; 2],
    },
}

impl<'src, Id: Copy> Expr<'src, Id> {
    /// This expression over `f` of each operand, called in evaluation order
    /// and once for a one-argument call's argument, which stands twice.
    pub fn map<T: Copy>(self, mut f: impl FnMut(Id) -> T) -> Expr<'src, T> {
        match self {
            Expr::Var(name) => Expr::Var(name),
            Expr::Literal(value) => Expr::Literal(value),
            Expr::Neg(inner) => Expr::Neg(f(inner)),
            Expr::Binary { op, lhs, rhs } => {
                let lhs = f(lhs);
                let rhs = f(rhs);
                Expr::Binary { op, lhs, rhs }
            }
            Expr::Call { function, args } => {
                let first = f(args[0]);
                let second = (function.arity() > 1).then(|| f(args[1]));
                let second = second.unwrap_or(first);
                let args = [first, second];
                Expr::Call { function, args }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsics_round_trip_by_name() {
        for (name, f) in [
            ("sqr", UnaryFn::Sqr),
            ("abs", UnaryFn::Abs),
            ("min", UnaryFn::Min),
            ("max", UnaryFn::Max),
        ] {
            assert_eq!(UnaryFn::by_name(name), Some(f));
        }
        assert_eq!(UnaryFn::by_name("cos"), None);
    }
}
