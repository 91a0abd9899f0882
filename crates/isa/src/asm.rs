//! A tiny textual assembler/disassembler for FU programs.
//!
//! The format is the one produced by [`FuProgram`]'s `Display`
//! implementation, so `assemble(&program.to_string())` round-trips:
//!
//! ```text
//! .const r31 = -48
//! LOAD r0
//! LOAD r1
//! SUB r2, r0, r31
//! SQR r3, r2 [wb]
//! NOP
//! ```

use overlay_dfg::{Op, Value};

use crate::error::IsaError;
use crate::instruction::Instruction;
use crate::program::FuProgram;
use crate::reg::RegIndex;

/// Assembles textual FU assembly into a [`FuProgram`].
///
/// Blank lines and lines starting with `;` are ignored.
///
/// # Errors
///
/// Returns [`IsaError::ParseAsm`] with the offending line number for any
/// syntax problem.
///
/// # Example
///
/// ```
/// use overlay_isa::assemble;
///
/// # fn main() -> Result<(), overlay_isa::IsaError> {
/// let program = assemble("LOAD r0\nLOAD r1\nADD r2, r0, r1\n")?;
/// assert_eq!(program.len(), 3);
/// assert_eq!(program.num_execs(), 1);
/// # Ok(())
/// # }
/// ```
pub fn assemble(text: &str) -> Result<FuProgram, IsaError> {
    // `NOP` is the shortest line; most take three times its four bytes.
    let mut program = FuProgram::with_capacity(text.len() / 8, 0);
    for (index, raw_line) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".const") {
            let (reg, value) = parse_const(rest, line_no)?;
            program.preload_constant(reg, value);
            continue;
        }
        program.push(parse_instruction(line, line_no)?);
    }
    Ok(program)
}

/// Renders a program back to its textual form (identical to the program's
/// `Display` output).
pub fn disassemble(program: &FuProgram) -> String {
    program.to_string()
}

fn parse_error(line: usize, message: impl Into<String>) -> IsaError {
    IsaError::ParseAsm {
        line,
        message: message.into(),
    }
}

fn parse_reg(token: &str, line: usize) -> Result<RegIndex, IsaError> {
    let token = token.trim().trim_end_matches(',');
    let digits = token
        .strip_prefix('r')
        .ok_or_else(|| parse_error(line, format!("expected a register, found `{token}`")))?;
    let index: u32 = digits
        .parse()
        .map_err(|_| parse_error(line, format!("invalid register `{token}`")))?;
    RegIndex::new(index).map_err(|_| parse_error(line, format!("register `{token}` out of range")))
}

fn parse_const(rest: &str, line: usize) -> Result<(RegIndex, Value), IsaError> {
    let mut parts = rest.splitn(2, '=');
    let reg = parse_reg(
        parts
            .next()
            .ok_or_else(|| parse_error(line, "missing register in .const"))?,
        line,
    )?;
    let value_text = parts
        .next()
        .ok_or_else(|| parse_error(line, "missing value in .const"))?
        .trim();
    let value: i32 = value_text
        .parse()
        .map_err(|_| parse_error(line, format!("invalid constant value `{value_text}`")))?;
    Ok((reg, Value::new(value)))
}

/// The flag annotations, which may stand anywhere on a line.
const FLAGS: [&str; 3] = ["[wb]", "[ndf]", "[fwd]"];

fn parse_instruction(line: &str, line_no: usize) -> Result<Instruction, IsaError> {
    let flagged = line.contains('[');
    let [wb, ndf, fwd] = FLAGS.map(|flag| flagged && line.contains(flag));
    // What is left of the line without its flags, word by word.
    let mut tokens = line.split_whitespace().filter_map(|mut token| {
        if flagged {
            while let Some(rest) = FLAGS.iter().find_map(|flag| token.strip_suffix(flag)) {
                token = rest;
            }
        }
        (!token.is_empty()).then_some(token)
    });
    let mnemonic = tokens
        .next()
        .ok_or_else(|| parse_error(line_no, "empty instruction"))?;
    if mnemonic.eq_ignore_ascii_case("NOP") {
        return Ok(Instruction::Nop);
    }
    let mut reg = |missing: &str| {
        let token = tokens.next().ok_or_else(|| parse_error(line_no, missing))?;
        parse_reg(token, line_no)
    };
    if mnemonic.eq_ignore_ascii_case("LOAD") {
        let dst = reg("LOAD needs a destination register")?;
        return Ok(Instruction::Load { dst, fwd });
    }
    let op: Op = mnemonic.parse().map_err(|_| {
        let mnemonic = mnemonic.to_ascii_uppercase();
        parse_error(line_no, format!("unknown mnemonic `{mnemonic}`"))
    })?;
    let dst = reg("missing destination register")?;
    let src1 = reg("missing first source register")?;
    let src2 = match tokens.next() {
        Some(token) => parse_reg(token, line_no)?,
        None if op.arity() == 1 => src1,
        None => {
            return Err(parse_error(
                line_no,
                format!("{op} needs a second source register"),
            ))
        }
    };
    Ok(Instruction::Exec {
        op,
        dst,
        src1,
        src2,
        wb,
        ndf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_text() {
        let source = "\
; gradient FU0
.const r31 = -48
LOAD r0 [fwd]
LOAD r1
SUB r2, r0, r31
SQR r3, r2 [wb]
MOV r4, r3 [ndf]
NOP
";
        let program = assemble(source).unwrap();
        assert_eq!(program.len(), 6);
        assert_eq!(program.constant_init().len(), 1);
        let rendered = disassemble(&program);
        let reassembled = assemble(&rendered).unwrap();
        assert_eq!(reassembled, program);
    }

    #[test]
    fn flags_are_parsed() {
        let program = assemble("ADD r2, r0, r1 [wb] [ndf]\n").unwrap();
        match program.instructions()[0] {
            Instruction::Exec { wb, ndf, .. } => {
                assert!(wb);
                assert!(ndf);
            }
            _ => panic!("expected EXEC"),
        }
    }

    #[test]
    fn unary_ops_accept_two_or_three_operands() {
        let program = assemble("SQR r3, r2\nABS r4, r3, r3\n").unwrap();
        assert_eq!(program.num_execs(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("LOAD r0\nFROB r1, r2, r3\n").unwrap_err();
        match err {
            IsaError::ParseAsm { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn mnemonics_ignore_case_and_flags_may_stand_anywhere() {
        let program = assemble("load r0 [fwd]\nadd [wb] r2, r0, r0[ndf]\nnop\n").unwrap();
        assert_eq!(
            disassemble(&program),
            "LOAD r0 [fwd]\nADD r2, r0, r0 [wb] [ndf]\nNOP\n"
        );
    }

    #[test]
    fn error_messages_name_what_is_missing() {
        for (text, expected) in [
            ("frob r1, r2, r3", "unknown mnemonic `FROB`"),
            ("LOAD [fwd]", "LOAD needs a destination register"),
            ("[wb]", "empty instruction"),
            ("add", "missing destination register"),
            ("add r1", "missing first source register"),
            ("add r1, r2", "ADD needs a second source register"),
            ("ADD r1, q2, r3", "expected a register, found `q2`"),
            ("ADD r1, r2 [fwd] [zz]", "expected a register, found `[zz]`"),
            ("ADD r1, r2, r32", "register `r32` out of range"),
            ("LOAD rx", "invalid register `rx`"),
        ] {
            let text = format!("NOP\n{text}\n");
            let message = expected.to_owned();
            let line = 2;
            assert_eq!(assemble(&text), Err(IsaError::ParseAsm { line, message }));
        }
    }

    #[test]
    fn bad_register_is_reported() {
        assert!(assemble("LOAD r99\n").is_err());
        assert!(assemble("LOAD x3\n").is_err());
        assert!(assemble("ADD r1, r2\n").is_err());
    }

    #[test]
    fn const_lines_require_register_and_value() {
        assert!(assemble(".const r5 = 123\n").is_ok());
        assert!(assemble(".const r5\n").is_err());
        assert!(assemble(".const r5 = abc\n").is_err());
    }
}
