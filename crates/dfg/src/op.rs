//! Arithmetic/logic operations supported by the time-multiplexed functional
//! unit.
//!
//! The FU datapath is a DSP48E1-style block: a pre-adder, a 25×18 multiplier
//! and a 48-bit ALU. The operation repertoire below is the subset exposed by
//! the overlay instruction set (Sec. III of the paper); every operation maps
//! onto a single pass through the DSP pipeline.

use std::fmt;
use std::str::FromStr;

use crate::error::DfgError;
use crate::value::Value;

/// An operation performed by a DFG node / FU instruction.
///
/// All binary operations take two register operands; [`Op::Square`], [`Op::Abs`]
/// and [`Op::Neg`] are unary (the square is implemented by routing the same
/// operand to both multiplier ports, as in the paper's `SQR` nodes).
///
/// # Example
///
/// ```
/// use overlay_dfg::{Op, Value};
///
/// assert_eq!(Op::Mul.arity(), 2);
/// assert_eq!(Op::Square.arity(), 1);
/// assert_eq!(Op::Add.apply(&[Value::new(2), Value::new(3)]).unwrap(), Value::new(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Op {
    /// Two's-complement addition (`a + b`).
    Add,
    /// Two's-complement subtraction (`a - b`).
    Sub,
    /// Truncated 32-bit multiplication (`a * b`).
    Mul,
    /// Squaring (`a * a`); the paper's `SQR` nodes.
    Square,
    /// Unary negation (`-a`).
    Neg,
    /// Absolute value (`|a|`).
    Abs,
    /// Signed minimum (`min(a, b)`).
    Min,
    /// Signed maximum (`max(a, b)`).
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (`a << (b & 31)`).
    Shl,
    /// Arithmetic shift right (`a >> (b & 31)`).
    Shr,
    /// Multiply-accumulate (`a * b + c`): three-operand DSP operation.
    ///
    /// Graph-level only: the kernel DSL never emits it, and the 32-bit `EXEC`
    /// word has no third source field, so instruction generation rejects a
    /// graph that holds one (`ScheduleError::UnsupportedArity`).
    MulAdd,
    /// Pass-through / copy (`a`); used for forwarding values across stages.
    Mov,
}

impl Op {
    /// All operations, in a stable order (useful for exhaustive tests).
    pub const ALL: [Op; 15] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Square,
        Op::Neg,
        Op::Abs,
        Op::Min,
        Op::Max,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::MulAdd,
        Op::Mov,
    ];

    /// Number of operands the operation consumes (1, 2 or 3).
    pub const fn arity(self) -> usize {
        match self {
            Op::Square | Op::Neg | Op::Abs | Op::Mov => 1,
            Op::MulAdd => 3,
            _ => 2,
        }
    }

    /// Whether swapping the two operands leaves the result unchanged.
    ///
    /// Only meaningful for binary operations; unary and ternary operations
    /// return `false`.
    pub const fn is_commutative(self) -> bool {
        matches!(
            self,
            Op::Add | Op::Mul | Op::Min | Op::Max | Op::And | Op::Or | Op::Xor
        )
    }

    /// Whether the operation uses the DSP multiplier (as opposed to only the
    /// ALU). Multiplier operations constrain the INMODE encoding used by the
    /// instruction set.
    pub const fn uses_multiplier(self) -> bool {
        matches!(self, Op::Mul | Op::Square | Op::MulAdd)
    }

    /// The short upper-case mnemonic used in schedules and the assembler
    /// (e.g. `SUB`, `SQR`), matching the paper's node labels.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "ADD",
            Op::Sub => "SUB",
            Op::Mul => "MUL",
            Op::Square => "SQR",
            Op::Neg => "NEG",
            Op::Abs => "ABS",
            Op::Min => "MIN",
            Op::Max => "MAX",
            Op::And => "AND",
            Op::Or => "OR",
            Op::Xor => "XOR",
            Op::Shl => "SHL",
            Op::Shr => "SHR",
            Op::MulAdd => "MAC",
            Op::Mov => "MOV",
        }
    }

    /// The datapath's result for operands `a`, `b` and `c`; an operation reads
    /// only the operands its arity counts. This is the one table of datapath
    /// semantics: [`Op::apply`] and [`Op::apply_columns`] both evaluate it.
    #[inline(always)]
    fn kernel(self, a: Value, b: Value, c: Value) -> Value {
        match self {
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Mul => a.wrapping_mul(b),
            Op::Square => a.wrapping_mul(a),
            Op::Neg => a.wrapping_neg(),
            Op::Abs => a.wrapping_abs(),
            Op::Min => a.min(b),
            Op::Max => a.max(b),
            Op::And => a.and(b),
            Op::Or => a.or(b),
            Op::Xor => a.xor(b),
            Op::Shl => a.shl(b),
            Op::Shr => a.shr(b),
            Op::MulAdd => a.wrapping_mul(b).wrapping_add(c),
            Op::Mov => a,
        }
    }

    fn arity_mismatch(self, found: usize) -> DfgError {
        DfgError::ArityMismatch {
            op: self,
            expected: self.arity(),
            found,
        }
    }

    /// Applies the operation to a slice of operand values.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::ArityMismatch`] if `operands.len()` differs from
    /// [`Op::arity`].
    pub fn apply(self, operands: &[Value]) -> Result<Value, DfgError> {
        if operands.len() != self.arity() {
            return Err(self.arity_mismatch(operands.len()));
        }
        let operand = |index: usize| operands.get(index).copied().unwrap_or(Value::ZERO);
        Ok(self.kernel(operand(0), operand(1), operand(2)))
    }

    /// Applies the operation element-wise to two operand columns:
    /// `out[i] = op(a[i], b[i])` up to the shortest of the three slices. A
    /// unary operation reads `a` only.
    ///
    /// The operation is matched once, outside the loop, so each loop is a
    /// single expression over three slices and vectorises in optimised
    /// builds; this is how the simulator evaluates one `EXEC` over a column
    /// of blocks.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::ArityMismatch`] for an operation of more than two
    /// operands ([`Op::MulAdd`]), which two columns cannot feed.
    ///
    /// # Example
    ///
    /// ```
    /// use overlay_dfg::{Op, Value};
    ///
    /// let a = [1, 2, 3].map(Value::new);
    /// let b = [10, 20, 30].map(Value::new);
    /// let mut out = [Value::ZERO; 3];
    /// Op::Sub.apply_columns(&a, &b, &mut out).unwrap();
    /// assert_eq!(out, [-9, -18, -27].map(Value::new));
    /// ```
    pub fn apply_columns(
        self,
        a: &[Value],
        b: &[Value],
        out: &mut [Value],
    ) -> Result<(), DfgError> {
        if self.arity() > 2 {
            return Err(self.arity_mismatch(2));
        }
        // One arm per operation: inside an arm `kernel` is called on a
        // constant, so it folds to that operation's expression.
        macro_rules! columns {
            ($($op:ident)*) => {
                match self {
                    $(Op::$op => {
                        for ((out, &a), &b) in out.iter_mut().zip(a).zip(b) {
                            *out = Op::$op.kernel(a, b, Value::ZERO);
                        }
                    })*
                }
            };
        }
        columns!(Add Sub Mul Square Neg Abs Min Max And Or Xor Shl Shr MulAdd Mov);
        Ok(())
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for Op {
    type Err = DfgError;

    /// Parses a mnemonic (case-insensitive), e.g. `"sub"` or `"SQR"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Op::ALL
            .iter()
            .copied()
            .find(|op| op.mnemonic().eq_ignore_ascii_case(s))
            .ok_or_else(|| DfgError::UnknownOp(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_operand_count() {
        for op in Op::ALL {
            let operands = vec![Value::new(3); op.arity()];
            assert!(op.apply(&operands).is_ok(), "{op} should accept its arity");
            let wrong = vec![Value::new(3); op.arity() + 1];
            assert!(op.apply(&wrong).is_err(), "{op} should reject wrong arity");
        }
    }

    #[test]
    fn commutative_ops_are_order_insensitive() {
        let a = Value::new(7);
        let b = Value::new(-13);
        for op in Op::ALL.iter().filter(|op| op.is_commutative()) {
            assert_eq!(op.apply(&[a, b]).unwrap(), op.apply(&[b, a]).unwrap());
        }
    }

    #[test]
    fn non_commutative_sub_is_order_sensitive() {
        let a = Value::new(7);
        let b = Value::new(3);
        assert_ne!(
            Op::Sub.apply(&[a, b]).unwrap(),
            Op::Sub.apply(&[b, a]).unwrap()
        );
    }

    #[test]
    fn square_is_self_multiplication() {
        let a = Value::new(-9);
        assert_eq!(
            Op::Square.apply(&[a]).unwrap(),
            Op::Mul.apply(&[a, a]).unwrap()
        );
    }

    #[test]
    fn mul_add_combines_multiplier_and_alu() {
        let result = Op::MulAdd
            .apply(&[Value::new(3), Value::new(4), Value::new(5)])
            .unwrap();
        assert_eq!(result, Value::new(17));
    }

    #[test]
    fn columns_equal_apply_element_wise_on_edge_values() {
        // Wrapping extremes and shift counts on both sides of the 5-bit mask.
        let edges = [i32::MIN, i32::MAX, -1, 0, 1, 7, -13, 31, 32, 33].map(Value::new);
        let a: Vec<Value> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |_| a))
            .collect();
        let b: Vec<Value> = edges.iter().flat_map(|_| edges).collect();
        for op in Op::ALL {
            let mut out = vec![Value::new(0x5A5A); a.len()];
            if op.arity() > 2 {
                assert_eq!(
                    op.apply_columns(&a, &b, &mut out),
                    Err(DfgError::ArityMismatch {
                        op,
                        expected: 3,
                        found: 2
                    })
                );
                continue;
            }
            op.apply_columns(&a, &b, &mut out).unwrap();
            for ((&a, &b), &got) in a.iter().zip(&b).zip(&out) {
                let operands = [a, b];
                let expected = op.apply(&operands[..op.arity()]).unwrap();
                assert_eq!(got, expected, "{op} {a} {b}");
            }
        }
    }

    #[test]
    fn mnemonics_round_trip_through_from_str() {
        for op in Op::ALL {
            let parsed: Op = op.mnemonic().parse().unwrap();
            assert_eq!(parsed, op);
            let parsed_lower: Op = op.mnemonic().to_ascii_lowercase().parse().unwrap();
            assert_eq!(parsed_lower, op);
        }
        assert!("bogus".parse::<Op>().is_err());
    }

    #[test]
    fn multiplier_classification() {
        assert!(Op::Mul.uses_multiplier());
        assert!(Op::Square.uses_multiplier());
        assert!(Op::MulAdd.uses_multiplier());
        assert!(!Op::Add.uses_multiplier());
        assert!(!Op::Shl.uses_multiplier());
    }
}
