//! Per-FU programs and whole-overlay kernel configurations.

use std::fmt;

use overlay_dfg::Value;

use crate::error::IsaError;
use crate::instruction::Instruction;
use crate::reg::RegIndex;

/// Default capacity of the LUTRAM instruction memory of one FU, in
/// instructions.
///
/// The paper keeps the instruction storage deliberately small ("the
/// architecture allows us to store just those instructions used by an
/// individual FU"); 256 entries comfortably holds every benchmark in the
/// evaluation while staying within a handful of LUTRAMs.
pub const DEFAULT_IMEM_CAPACITY: usize = 256;

/// The instruction stream (and constant preload) of a single FU.
///
/// A program represents **one initiation interval** of the steady-state
/// schedule: the FU executes it cyclically, once per data block.
///
/// # Example
///
/// ```
/// use overlay_isa::{FuProgram, Instruction, RegIndex};
/// use overlay_dfg::Op;
///
/// # fn main() -> Result<(), overlay_isa::IsaError> {
/// let mut program = FuProgram::new();
/// program.push(Instruction::load(RegIndex::new(0)?));
/// program.push(Instruction::load(RegIndex::new(1)?));
/// program.push(Instruction::exec(Op::Add, RegIndex::new(2)?, RegIndex::new(0)?, RegIndex::new(1)?));
/// assert_eq!(program.num_loads(), 2);
/// assert_eq!(program.num_execs(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuProgram {
    instructions: Vec<Instruction>,
    constant_init: Vec<(RegIndex, Value)>,
}

impl FuProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        FuProgram::default()
    }

    /// Creates an empty program with room for `instructions` instructions
    /// and `constants` preloaded constants.
    pub fn with_capacity(instructions: usize, constants: usize) -> Self {
        FuProgram {
            instructions: Vec::with_capacity(instructions),
            constant_init: Vec::with_capacity(constants),
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// Registers a constant that must be preloaded into the register file as
    /// part of the FU configuration (constants are not streamed).
    pub fn preload_constant(&mut self, reg: RegIndex, value: Value) {
        self.constant_init.push((reg, value));
    }

    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The constants preloaded into the register file at configuration time.
    pub fn constant_init(&self) -> &[(RegIndex, Value)] {
        &self.constant_init
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Number of `LOAD` instructions.
    pub fn num_loads(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_load()).count()
    }

    /// Number of `EXEC` instructions.
    pub fn num_execs(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_exec()).count()
    }

    /// Number of `NOP` instructions.
    pub fn num_nops(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_nop()).count()
    }

    /// Encodes the program into 32-bit instruction words.
    pub fn encode(&self) -> Vec<u32> {
        self.instructions.iter().map(Instruction::encode).collect()
    }

    /// Checks the program fits in an instruction memory of `capacity`
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ProgramTooLong`] if it does not.
    pub fn check_capacity(&self, capacity: usize) -> Result<(), IsaError> {
        if self.len() > capacity {
            Err(IsaError::ProgramTooLong {
                len: self.len(),
                capacity,
            })
        } else {
            Ok(())
        }
    }

    /// Size of this FU's configuration data in bits: 32 bits per instruction
    /// plus 37 bits (5-bit register address + 32-bit value) per preloaded
    /// constant.
    pub fn config_bits(&self) -> usize {
        self.len() * 32 + self.constant_init.len() * 37
    }
}

impl FromIterator<Instruction> for FuProgram {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        FuProgram {
            instructions: iter.into_iter().collect(),
            constant_init: Vec::new(),
        }
    }
}

impl Extend<Instruction> for FuProgram {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

impl fmt::Display for FuProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (reg, value) in &self.constant_init {
            writeln!(f, ".const {reg} = {value}")?;
        }
        for instruction in &self.instructions {
            writeln!(f, "{instruction}")?;
        }
        Ok(())
    }
}

/// The complete configuration of a linear overlay for one kernel: one
/// [`FuProgram`] per functional unit plus stream metadata.
///
/// This is what the host processor writes into the overlay at kernel-switch
/// time; its size drives the hardware-context-switch model of
/// `overlay-arch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayProgram {
    kernel: String,
    fu_programs: Vec<FuProgram>,
    num_inputs: usize,
    num_outputs: usize,
    ii: usize,
}

impl OverlayProgram {
    /// Assembles an overlay program from per-FU programs.
    ///
    /// `ii` is the steady-state initiation interval in cycles (the length of
    /// the longest per-FU program, including any separator cycles the
    /// scheduler accounts for).
    pub fn new(
        kernel: impl Into<String>,
        fu_programs: Vec<FuProgram>,
        num_inputs: usize,
        num_outputs: usize,
        ii: usize,
    ) -> Self {
        OverlayProgram {
            kernel: kernel.into(),
            fu_programs,
            num_inputs,
            num_outputs,
            ii,
        }
    }

    /// The kernel name this configuration implements.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Per-FU programs, in pipeline order (FU0 receives the input stream).
    pub fn fu_programs(&self) -> &[FuProgram] {
        &self.fu_programs
    }

    /// Number of FUs used (the overlay depth occupied by the kernel).
    pub fn num_fus(&self) -> usize {
        self.fu_programs.len()
    }

    /// Number of stream inputs per invocation.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of stream outputs per invocation.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Steady-state initiation interval in cycles.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// Total instruction count across all FUs.
    pub fn total_instructions(&self) -> usize {
        self.fu_programs.iter().map(FuProgram::len).sum()
    }

    /// Total configuration size in bits (what must be transferred on a
    /// hardware context switch).
    pub fn config_bits(&self) -> usize {
        self.fu_programs.iter().map(FuProgram::config_bits).sum()
    }

    /// Total configuration size in bytes, rounded up.
    pub fn config_bytes(&self) -> usize {
        self.config_bits().div_ceil(8)
    }

    /// Checks every FU program fits an instruction memory of `capacity`
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ProgramTooLong`] for the first FU that does not
    /// fit.
    pub fn check_capacity(&self, capacity: usize) -> Result<(), IsaError> {
        for program in &self.fu_programs {
            program.check_capacity(capacity)?;
        }
        Ok(())
    }
}

impl fmt::Display for OverlayProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; kernel `{}`: {} FU(s), II = {}, {} in / {} out",
            self.kernel,
            self.fu_programs.len(),
            self.ii,
            self.num_inputs,
            self.num_outputs
        )?;
        for (index, program) in self.fu_programs.iter().enumerate() {
            writeln!(f, "FU{index}:")?;
            for line in program.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::Op;

    fn r(i: u32) -> RegIndex {
        RegIndex::new(i).unwrap()
    }

    fn sample_program() -> FuProgram {
        let mut p = FuProgram::new();
        p.preload_constant(r(31), Value::new(-48));
        p.push(Instruction::load(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Sub, r(2), r(0), r(31)));
        p.push(Instruction::Nop);
        p
    }

    #[test]
    fn instruction_kind_counts() {
        let p = sample_program();
        assert_eq!(p.len(), 4);
        assert_eq!(p.num_loads(), 2);
        assert_eq!(p.num_execs(), 1);
        assert_eq!(p.num_nops(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn config_bits_accounts_for_instructions_and_constants() {
        let p = sample_program();
        assert_eq!(p.config_bits(), 4 * 32 + 37);
    }

    #[test]
    fn capacity_check_flags_oversized_programs() {
        let p = sample_program();
        assert!(p.check_capacity(4).is_ok());
        assert!(matches!(
            p.check_capacity(3),
            Err(IsaError::ProgramTooLong {
                len: 4,
                capacity: 3
            })
        ));
    }

    #[test]
    fn encode_produces_one_word_per_instruction() {
        let p = sample_program();
        let words = p.encode();
        assert_eq!(words.len(), p.len());
        assert_eq!(
            Instruction::decode(words[0]).unwrap(),
            Instruction::load(r(0))
        );
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut p: FuProgram = vec![Instruction::Nop, Instruction::load(r(3))]
            .into_iter()
            .collect();
        p.extend([Instruction::Nop]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_nops(), 2);
    }

    #[test]
    fn overlay_program_aggregates_fu_programs() {
        let overlay = OverlayProgram::new(
            "gradient",
            vec![sample_program(), sample_program(), FuProgram::new()],
            5,
            1,
            6,
        );
        assert_eq!(overlay.num_fus(), 3);
        assert_eq!(overlay.total_instructions(), 8);
        assert_eq!(overlay.ii(), 6);
        assert_eq!(overlay.config_bits(), 2 * (4 * 32 + 37));
        assert_eq!(overlay.config_bytes(), overlay.config_bits().div_ceil(8));
        assert!(overlay.check_capacity(8).is_ok());
        assert!(overlay.check_capacity(2).is_err());
    }

    #[test]
    fn display_renders_fu_sections() {
        let overlay = OverlayProgram::new("k", vec![sample_program()], 2, 1, 4);
        let text = overlay.to_string();
        assert!(text.contains("FU0:"));
        assert!(text.contains("LOAD r0"));
        assert!(text.contains(".const r31 = -48"));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the sizing contract
    fn default_capacity_holds_every_benchmark_sized_program() {
        assert!(DEFAULT_IMEM_CAPACITY >= 64);
    }
}
