//! Recursive-descent parser for the kernel language.
//!
//! Grammar (in rough EBNF):
//!
//! ```text
//! kernel     := 'kernel' IDENT '(' [ IDENT { ',' IDENT } ] ')' '{' { stmt } '}'
//! stmt       := ( 'let' | 'out' ) IDENT '=' expr ';'
//! expr       := or
//! or         := xor { '|' xor }
//! xor        := and { '^' and }
//! and        := shift { '&' shift }
//! shift      := add { ( '<<' | '>>' ) add }
//! add        := mul { ( '+' | '-' ) mul }
//! mul        := unary { '*' unary }
//! unary      := '-' unary | primary
//! primary    := NUMBER | IDENT [ '(' [ expr { ',' expr } ] ')' ] | '(' expr ')'
//! ```

use crate::ast::{BinaryOp, Expr, ExprId, Kernel, Stmt, UnaryFn};
use crate::error::FrontendError;
use crate::lexer::{Lexer, Token, TokenKind, MAX_MAGNITUDE};

/// Parses a complete kernel definition from source text. The kernel borrows
/// its names from `source`.
///
/// # Errors
///
/// Returns a [`FrontendError`] describing the first lexical or syntactic
/// problem encountered.
///
/// # Example
///
/// ```
/// use overlay_frontend::parse_kernel;
///
/// # fn main() -> Result<(), overlay_frontend::FrontendError> {
/// let kernel = parse_kernel("kernel f(a, b) { out y = a * b + 1; }")?;
/// assert_eq!(kernel.name, "f");
/// assert_eq!(kernel.params, vec!["a", "b"]);
/// assert_eq!(kernel.body.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_kernel(source: &str) -> Result<Kernel<'_>, FrontendError> {
    let mut lexer = Lexer::new(source);
    let current = lexer.next_token()?;
    // An operand or an operator rarely takes fewer than 8 bytes, a statement
    // fewer than 16.
    let mut kernel = Kernel::new("", source.len() / 8 + 8);
    kernel.body.reserve(source.len() / 16);
    Parser {
        lexer,
        current,
        kernel,
    }
    .kernel()
}

/// Reads tokens as it needs them, one ahead. A lexical error anywhere in the
/// source still outranks a syntax error before it: see [`Parser::fail`].
struct Parser<'src> {
    lexer: Lexer<'src>,
    current: Token<'src>,
    kernel: Kernel<'src>,
}

/// The operator a token stands for between two operands, and how tightly it
/// binds (`|` loosest).
fn binary_operator(kind: TokenKind<'_>) -> Option<(BinaryOp, usize)> {
    Some(match kind {
        TokenKind::Pipe => (BinaryOp::Or, 0),
        TokenKind::Caret => (BinaryOp::Xor, 1),
        TokenKind::Ampersand => (BinaryOp::And, 2),
        TokenKind::ShiftLeft => (BinaryOp::Shl, 3),
        TokenKind::ShiftRight => (BinaryOp::Shr, 3),
        TokenKind::Plus => (BinaryOp::Add, 4),
        TokenKind::Minus => (BinaryOp::Sub, 4),
        TokenKind::Star => (BinaryOp::Mul, 5),
        _ => return None,
    })
}

impl<'src> Parser<'src> {
    fn bump(&mut self) -> Result<(), FrontendError> {
        self.current = self.lexer.next_token()?;
        Ok(())
    }

    /// The error to report for the syntax error `error`: the first lexical
    /// error in what is left of the source if there is one, as if the whole
    /// source had been tokenised before parsing began.
    fn fail(&mut self, error: FrontendError) -> FrontendError {
        while self.current.kind != TokenKind::Eof {
            if let Err(lexical) = self.bump() {
                return lexical;
            }
        }
        error
    }

    fn unexpected(&mut self, expected: &str) -> FrontendError {
        let token = self.current;
        let expected = expected.to_owned();
        self.fail(if token.kind == TokenKind::Eof {
            FrontendError::UnexpectedEof { expected }
        } else {
            FrontendError::UnexpectedToken {
                found: token.kind.describe(),
                expected,
                span: token.span,
            }
        })
    }

    fn expect(&mut self, kind: TokenKind<'_>, expected: &str) -> Result<(), FrontendError> {
        if self.current.kind == kind {
            self.bump()
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn expect_ident(&mut self, expected: &str) -> Result<&'src str, FrontendError> {
        match self.current.kind {
            TokenKind::Ident(name) => {
                self.bump()?;
                Ok(name)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// Whether a comma was consumed, i.e. another list element follows.
    fn comma(&mut self) -> Result<bool, FrontendError> {
        let found = self.current.kind == TokenKind::Comma;
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn kernel(mut self) -> Result<Kernel<'src>, FrontendError> {
        self.expect(TokenKind::Kernel, "`kernel`")?;
        self.kernel.name = self.expect_ident("kernel name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        if self.current.kind != TokenKind::RParen {
            loop {
                let param = self.expect_ident("parameter name")?;
                self.kernel.params.push(param);
                if !self.comma()? {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::LBrace, "`{`")?;
        while self.current.kind != TokenKind::RBrace {
            let stmt = self.stmt()?;
            self.kernel.body.push(stmt);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        self.expect(TokenKind::Eof, "end of input")?;
        Ok(self.kernel)
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, FrontendError> {
        let is_out = match self.current.kind {
            TokenKind::Let => false,
            TokenKind::Out => true,
            _ => return Err(self.unexpected("`let` or `out`")),
        };
        self.bump()?;
        let name = self.expect_ident("binding name")?;
        self.expect(TokenKind::Equals, "`=`")?;
        let expr = self.expr()?;
        self.expect(TokenKind::Semicolon, "`;`")?;
        Ok(if is_out {
            Stmt::Out { name, expr }
        } else {
            Stmt::Let { name, expr }
        })
    }

    fn expr(&mut self) -> Result<ExprId, FrontendError> {
        self.binary(0)
    }

    /// Precedence climbing: a `unary`, then every operator binding at least
    /// as tightly as `min_binding`, each taking as its right operand what
    /// binds tighter still — so operators of one level associate to the left.
    fn binary(&mut self, min_binding: usize) -> Result<ExprId, FrontendError> {
        let mut lhs = self.unary()?;
        while let Some((op, binding)) = binary_operator(self.current.kind) {
            if binding < min_binding {
                break;
            }
            self.bump()?;
            let rhs = self.binary(binding + 1)?;
            lhs = self.kernel.add(Expr::Binary { op, lhs, rhs });
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, FrontendError> {
        if self.current.kind != TokenKind::Minus {
            return self.primary();
        }
        self.bump()?;
        // The one magnitude that fits only negated.
        if self.current.kind == TokenKind::Number(MAX_MAGNITUDE) {
            self.bump()?;
            return Ok(self.kernel.add(Expr::Literal(i32::MIN)));
        }
        let inner = self.unary()?;
        // Fold negation of literals immediately so `-5` is a literal.
        if let Expr::Literal(value) = self.kernel.expr_mut(inner) {
            *value = value.wrapping_neg();
            return Ok(inner);
        }
        Ok(self.kernel.add(Expr::Neg(inner)))
    }

    fn primary(&mut self) -> Result<ExprId, FrontendError> {
        let token = self.current;
        match token.kind {
            TokenKind::Number(magnitude) => {
                let Ok(value) = i32::try_from(magnitude) else {
                    return Err(self.fail(FrontendError::LiteralOutOfRange {
                        text: magnitude.to_string(),
                        span: token.span,
                    }));
                };
                self.bump()?;
                Ok(self.kernel.add(Expr::Literal(value)))
            }
            TokenKind::LParen => {
                self.bump()?;
                let expr = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(expr)
            }
            TokenKind::Ident(name) => {
                self.bump()?;
                if self.current.kind != TokenKind::LParen {
                    return Ok(self.kernel.add(Expr::Var(name)));
                }
                self.bump()?;
                // No intrinsic takes more than two arguments; the rest are
                // parsed and counted.
                let mut args = [None; 2];
                let mut found = 0;
                if self.current.kind != TokenKind::RParen {
                    loop {
                        let arg = self.expr()?;
                        if let Some(slot) = args.get_mut(found) {
                            *slot = Some(arg);
                        }
                        found += 1;
                        if !self.comma()? {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen, "`)`")?;
                let Some(function) = UnaryFn::by_name(name) else {
                    return Err(self.fail(FrontendError::UnknownFunction {
                        name: name.to_owned(),
                        span: token.span,
                    }));
                };
                if found != function.arity() {
                    return Err(self.fail(FrontendError::WrongArgumentCount {
                        name: name.to_owned(),
                        expected: function.arity(),
                        found,
                    }));
                }
                let first = args[0].expect("every intrinsic takes an argument");
                let args = [first, args[1].unwrap_or(first)];
                Ok(self.kernel.add(Expr::Call { function, args }))
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Span;

    /// The right-hand side of the kernel's last statement.
    fn last_expr<'src>(kernel: &Kernel<'src>) -> Expr<'src> {
        let (Stmt::Let { expr, .. } | Stmt::Out { expr, .. }) = kernel.body.last().unwrap();
        kernel.expr(*expr)
    }

    #[test]
    fn parses_parameters_and_statements() {
        let kernel = parse_kernel("kernel k(a, b, c) { let t = a + b; out y = t * c; }").unwrap();
        assert_eq!(kernel.params, vec!["a", "b", "c"]);
        assert_eq!(kernel.body.len(), 2);
        assert_eq!(kernel.output_names(), vec!["y"]);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let kernel = parse_kernel("kernel k(a, b, c) { out y = a + b * c; }").unwrap();
        match last_expr(&kernel) {
            Expr::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => assert!(matches!(
                kernel.expr(rhs),
                Expr::Binary {
                    op: BinaryOp::Mul,
                    ..
                }
            )),
            other => panic!("unexpected tree {other:?}"),
        }
    }

    #[test]
    fn operators_of_one_level_associate_to_the_left() {
        let kernel = parse_kernel("kernel k(a, b, c) { out y = a - b + c << 1 >> 2; }").unwrap();
        // ((a - b) + c) << 1) >> 2
        let mut ops = Vec::new();
        let mut expr = last_expr(&kernel);
        while let Expr::Binary { op, lhs, rhs } = expr {
            assert!(!matches!(kernel.expr(rhs), Expr::Binary { .. }));
            ops.push(op);
            expr = kernel.expr(lhs);
        }
        let expected = [BinaryOp::Shr, BinaryOp::Shl, BinaryOp::Add, BinaryOp::Sub];
        assert_eq!(ops, expected);
    }

    #[test]
    fn parentheses_override_precedence() {
        let kernel = parse_kernel("kernel k(a, b, c) { out y = (a + b) * c; }").unwrap();
        assert!(matches!(
            last_expr(&kernel),
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn negative_literals_fold_into_literal() {
        let kernel = parse_kernel("kernel k(a) { out y = a + -3; }").unwrap();
        match last_expr(&kernel) {
            Expr::Binary { rhs, .. } => assert_eq!(kernel.expr(rhs), Expr::Literal(-3)),
            other => panic!("unexpected tree {other:?}"),
        }
    }

    #[test]
    fn the_most_negative_literal_is_exact() {
        for text in ["-2147483648", "- 2147483648", "-(-(-2147483648))"] {
            let source = format!("kernel k(a) {{ out y = {text}; }}");
            let kernel = parse_kernel(&source).unwrap();
            assert_eq!(last_expr(&kernel), Expr::Literal(i32::MIN), "{text}");
        }
        let kernel = parse_kernel("kernel k(a) { out y = a * - 2147483648 * a; }").unwrap();
        let Expr::Binary { lhs, .. } = last_expr(&kernel) else {
            panic!("expected a product");
        };
        let Expr::Binary { rhs, .. } = kernel.expr(lhs) else {
            panic!("expected a product");
        };
        assert_eq!(kernel.expr(rhs), Expr::Literal(i32::MIN));
    }

    #[test]
    fn two_to_the_31_needs_its_minus_sign() {
        for (source, column) in [
            ("kernel k(a) { out y = a + 2147483648; }", 27),
            ("kernel k(a) { out y = -(2147483648); }", 25),
            ("kernel k(a) { out y = a - 2147483648; }", 27),
        ] {
            let text = "2147483648".to_owned();
            let span = Span { line: 1, column };
            let expected = FrontendError::LiteralOutOfRange { text, span };
            assert_eq!(parse_kernel(source).unwrap_err(), expected, "{source}");
        }
        assert_eq!(
            parse_kernel("kernel k(a) { out y = a + -2147483649; }").unwrap_err(),
            FrontendError::LiteralOutOfRange {
                text: "2147483649".to_owned(),
                span: Span {
                    line: 1,
                    column: 28
                },
            }
        );
    }

    #[test]
    fn a_lexical_error_outranks_an_earlier_syntax_error() {
        for source in [
            "kernel (a) { out y = a $ 1; }",
            "kernel k(a) { out y = hypot(a); out z = a $ 1; }",
            "kernel k(a) { out y = sqr(a, a);\n $",
            "kernel k(a) { out y = 2147483648; } $",
            "kernel k(a) { out y = a + ; $ 99999999999",
        ] {
            assert!(
                matches!(
                    parse_kernel(source),
                    Err(FrontendError::UnexpectedChar { ch: '$', .. })
                ),
                "{source}"
            );
        }
        // The first lexical error, not the last.
        assert!(matches!(
            parse_kernel("kernel k(a) { out = 99999999999 $"),
            Err(FrontendError::LiteralOutOfRange { .. })
        ));
    }

    #[test]
    fn intrinsic_calls_check_arity() {
        assert!(parse_kernel("kernel k(a) { out y = sqr(a); }").is_ok());
        assert!(matches!(
            parse_kernel("kernel k(a) { out y = sqr(a, a); }"),
            Err(FrontendError::WrongArgumentCount { .. })
        ));
        assert!(matches!(
            parse_kernel("kernel k(a) { out y = min(a, a, a, a); }"),
            Err(FrontendError::WrongArgumentCount { found: 4, .. })
        ));
        assert!(matches!(
            parse_kernel("kernel k(a) { out y = hypot(a, a); }"),
            Err(FrontendError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn missing_semicolon_is_a_syntax_error() {
        assert!(matches!(
            parse_kernel("kernel k(a) { out y = a }"),
            Err(FrontendError::UnexpectedToken { .. })
        ));
    }

    #[test]
    fn truncated_input_reports_eof() {
        assert!(matches!(
            parse_kernel("kernel k(a) { out y = a + "),
            Err(FrontendError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn empty_parameter_list_is_allowed() {
        let kernel = parse_kernel("kernel constant() { out y = 3 * 4; }").unwrap();
        assert!(kernel.params.is_empty());
    }

    #[test]
    fn shift_and_bitwise_operators_parse() {
        let kernel = parse_kernel("kernel k(a, b) { out y = (a << 2) & b | 7 ^ b >> 1; }");
        assert!(kernel.is_ok());
    }
}
