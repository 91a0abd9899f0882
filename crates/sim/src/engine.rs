//! Per-FU execution engine.
//!
//! Each functional unit is modelled as two cooperating machines, following
//! the V1+ microarchitecture of Fig. 3:
//!
//! * the **input controller** (the rotating register file's write port)
//!   writes one arriving stream word per cycle into the register file and,
//!   for words tagged `fwd`, bypasses them to the downstream FU;
//! * the **execution engine** issues one `EXEC`/`NOP` slot per cycle through
//!   the DSP datapath once the block's data is resident, with a two-cycle
//!   pipeline flush between consecutive blocks (the `+2` of the paper's II
//!   equations) and a one-cycle separator between the load bursts of
//!   consecutive blocks (the `+1`).
//!
//! The `[14]` baseline has a single-port register file, so its loads and
//! executions serialise through one issue slot — which is exactly why its II
//! is `#load + #op + 2`.
//!
//! # Decode once, step per block
//!
//! A run lowers the per-FU programs once into a [`DecodedProgram`]: two flat
//! vectors, one of load entries `(dst, fwd)` and one of issue slots (`NOP`,
//! or an `EXEC` with its operand count and flags already worked out), with
//! each FU owning a range of both, plus the FU's constant image (a
//! [`RegisterFile`] with the preloaded constants). The decoded program is
//! immutable and shared by every datapath lane.
//!
//! A [`FuEngine`] is one FU on one lane: borrowed views of its ranges and
//! image, and the only state that survives a block, the cycles at which the
//! previous block's last load and last issue slot happened.
//! [`FuEngine::process_block`] is the single step function. It reads the
//! upstream words from a slice, overwrites a caller-owned buffer with the
//! words it forwards, and keeps the block's registers on the stack: the block
//! context starts as a copy of the constant image (so block-local writes
//! shadow constants, see [`crate::regfile`]) and a fixed 32-entry table
//! remembers which slot wrote each register back, for the IWP spacing check.
//! Nothing in the step allocates, and a trace event is only built if the
//! trace will keep it.

use std::ops::Range;

use overlay_arch::FuVariant;
use overlay_dfg::{Op, Value};
use overlay_isa::{FuProgram, Instruction, RegIndex, REGISTER_FILE_SIZE};

use crate::error::SimError;
use crate::regfile::RegisterFile;
use crate::trace::{Event, EventKind, Trace};

/// A stream word travelling between stages: its value and the cycle it
/// leaves the producing stage (it becomes visible downstream one cycle
/// later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedWord {
    /// The 32-bit payload.
    pub value: Value,
    /// Cycle at which the word departs the producing stage.
    pub depart: usize,
}

impl TimedWord {
    /// The cycle at which the word is available to the consuming stage.
    pub fn arrival(&self) -> usize {
        self.depart + 1
    }
}

/// One word the input controller takes from the upstream stream.
#[derive(Debug, Clone, Copy)]
struct LoadEntry {
    dst: RegIndex,
    fwd: bool,
}

/// One issue slot of the execution engine.
#[derive(Debug, Clone, Copy)]
enum IssueSlot {
    Nop,
    Exec {
        op: Op,
        dst: RegIndex,
        src1: RegIndex,
        src2: RegIndex,
        /// The operation reads `src1` only.
        unary: bool,
        wb: bool,
        ndf: bool,
    },
}

#[derive(Debug)]
struct DecodedFu {
    loads: Range<usize>,
    slots: Range<usize>,
    constants: RegisterFile,
}

/// The per-FU programs of one kernel, lowered once per run into the flat
/// form the engines step over. See the [module documentation](self).
#[derive(Debug)]
pub struct DecodedProgram {
    variant: FuVariant,
    loads: Vec<LoadEntry>,
    slots: Vec<IssueSlot>,
    fus: Vec<DecodedFu>,
    stream_width: usize,
}

impl DecodedProgram {
    /// Lowers `programs` (in chain order) for an overlay built from
    /// `variant`.
    pub fn decode(variant: FuVariant, programs: &[FuProgram]) -> Self {
        let words: usize = programs.iter().map(FuProgram::len).sum();
        let mut loads = Vec::with_capacity(words);
        let mut slots = Vec::with_capacity(words);
        let mut fus = Vec::with_capacity(programs.len());
        let mut stream_width = 0;
        for program in programs {
            let (first_load, first_slot) = (loads.len(), slots.len());
            let mut forwarded = 0;
            for instruction in program.instructions() {
                match *instruction {
                    Instruction::Load { dst, fwd } => {
                        forwarded += usize::from(fwd);
                        loads.push(LoadEntry { dst, fwd });
                    }
                    Instruction::Nop => slots.push(IssueSlot::Nop),
                    Instruction::Exec {
                        op,
                        dst,
                        src1,
                        src2,
                        wb,
                        ndf,
                    } => {
                        forwarded += usize::from(!ndf);
                        slots.push(IssueSlot::Exec {
                            op,
                            dst,
                            src1,
                            src2,
                            unary: op.arity() == 1,
                            wb,
                            ndf,
                        });
                    }
                }
            }
            stream_width = stream_width.max(forwarded);
            let mut constants = RegisterFile::new();
            for &(reg, value) in program.constant_init() {
                constants.write(reg, value);
            }
            fus.push(DecodedFu {
                loads: first_load..loads.len(),
                slots: first_slot..slots.len(),
                constants,
            });
        }
        DecodedProgram {
            variant,
            loads,
            slots,
            fus,
            stream_width,
        }
    }

    /// Number of FUs along the chain.
    pub fn num_fus(&self) -> usize {
        self.fus.len()
    }

    /// Trace events one block emits on its way down the chain: one per load
    /// and one per issue slot.
    pub fn events_per_block(&self) -> usize {
        self.loads.len() + self.slots.len()
    }

    /// The most words any FU forwards downstream per block.
    pub fn stream_width(&self) -> usize {
        self.stream_width
    }

    /// The engine of FU `index`, with its inter-block timing state at rest.
    ///
    /// # Panics
    ///
    /// If `index` is not below [`DecodedProgram::num_fus`].
    pub fn engine(&self, index: usize) -> FuEngine<'_> {
        let fu = &self.fus[index];
        FuEngine {
            index,
            serialized: matches!(self.variant, FuVariant::Baseline),
            pipeline_depth: self.variant.dsp_pipeline_depth(),
            iwp: self.variant.iwp().unwrap_or(0).max(1),
            loads: &self.loads[fu.loads.clone()],
            slots: &self.slots[fu.slots.clone()],
            constants: &fu.constants,
            last_load_end: 0,
            last_exec_end: 0,
        }
    }
}

/// One FU on one datapath lane: views into the [`DecodedProgram`] plus the
/// timing state that persists across blocks.
#[derive(Debug)]
pub struct FuEngine<'p> {
    index: usize,
    serialized: bool,
    pipeline_depth: usize,
    /// Issue slots a consumer must trail the producer of a written-back
    /// register by.
    iwp: usize,
    loads: &'p [LoadEntry],
    slots: &'p [IssueSlot],
    constants: &'p RegisterFile,
    last_load_end: usize,
    last_exec_end: usize,
}

impl FuEngine<'_> {
    /// Processes one kernel invocation (`block`): consumes the words arriving
    /// from upstream in `incoming` and overwrites `outgoing` with the words
    /// forwarded downstream.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on stream underflow, uninitialised register
    /// reads or write-back hazards.
    pub fn process_block(
        &mut self,
        block: usize,
        incoming: &[TimedWord],
        outgoing: &mut Vec<TimedWord>,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        let fu = self.index;
        outgoing.clear();

        // ---- input phase ---------------------------------------------------
        if self.loads.len() > incoming.len() {
            return Err(SimError::StreamUnderflow { fu, block });
        }
        let mut context = *self.constants;
        let mut cursor = self.last_load_end + 2; // one idle separator cycle
        if self.serialized {
            // The single-port baseline cannot start a new block's loads until
            // the previous block's execution (and flush) has finished.
            cursor = cursor.max(self.last_exec_end + 3);
        }
        let mut last_load_time = self.last_load_end;
        for (load, word) in self.loads.iter().zip(incoming) {
            let time = cursor.max(word.arrival());
            cursor = time + 1;
            last_load_time = time;
            context.write(load.dst, word.value);
            if load.fwd {
                outgoing.push(TimedWord {
                    value: word.value,
                    depart: time,
                });
            }
            trace.record_with(|| Event {
                cycle: time,
                fu,
                block,
                kind: EventKind::Load {
                    register: load.dst.index(),
                    value: word.value,
                    forwarded: load.fwd,
                },
            });
        }

        // ---- execution phase -----------------------------------------------
        // Execution starts once the block's data is resident and the previous
        // block has drained the DSP pipeline (two flush cycles).
        let mut exec_time = (last_load_time + 1).max(self.last_exec_end + 3);
        if self.serialized {
            exec_time = exec_time.max(cursor);
        }
        // Slot index at which each register was produced by a write-back, to
        // check the IWP spacing; a bit of `written_back` says the entry is set.
        let mut producer_slot = [0usize; REGISTER_FILE_SIZE];
        let mut written_back = 0u32;
        let mut last_exec_time = self.last_exec_end;

        for (slot_index, slot) in self.slots.iter().enumerate() {
            let time = exec_time + slot_index;
            last_exec_time = time;
            match *slot {
                IssueSlot::Nop => trace.record_with(|| Event {
                    cycle: time,
                    fu,
                    block,
                    kind: EventKind::Nop,
                }),
                IssueSlot::Exec {
                    op,
                    dst,
                    src1,
                    src2,
                    unary,
                    wb,
                    ndf,
                } => {
                    let read = |reg: RegIndex| -> Result<Value, SimError> {
                        if written_back & (1 << reg.index()) != 0 {
                            let observed = slot_index - producer_slot[reg.index()];
                            if observed < self.iwp {
                                return Err(SimError::WritebackHazard {
                                    fu,
                                    block,
                                    observed,
                                    required: self.iwp,
                                });
                            }
                        }
                        context.read(reg).ok_or(SimError::UninitializedRegister {
                            fu,
                            register: reg.index(),
                            block,
                        })
                    };
                    let a = read(src1)?;
                    let operands = [a, if unary { a } else { read(src2)? }];
                    let result = op
                        .apply(&operands[..if unary { 1 } else { 2 }])
                        .map_err(SimError::Dfg)?;
                    if wb {
                        context.write(dst, result);
                        producer_slot[dst.index()] = slot_index;
                        written_back |= 1 << dst.index();
                    }
                    if !ndf {
                        outgoing.push(TimedWord {
                            value: result,
                            depart: time + self.pipeline_depth,
                        });
                    }
                    trace.record_with(|| Event {
                        cycle: time,
                        fu,
                        block,
                        kind: EventKind::Exec {
                            mnemonic: op.mnemonic(),
                            value: result,
                            writeback: wb,
                            forwarded: !ndf,
                        },
                    });
                }
            }
        }

        self.last_load_end = last_load_time;
        self.last_exec_end = last_exec_time;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::Op;
    use overlay_isa::RegIndex;

    fn r(i: u32) -> RegIndex {
        RegIndex::new(i).unwrap()
    }

    fn word(value: i32) -> TimedWord {
        TimedWord {
            value: Value::new(value),
            depart: 0,
        }
    }

    fn adder_program() -> FuProgram {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Add, r(2), r(0), r(1)));
        p
    }

    /// Steps `engine` through one block and returns the forwarded words.
    fn step(
        engine: &mut FuEngine<'_>,
        block: usize,
        incoming: &[TimedWord],
        trace: &mut Trace,
    ) -> Result<Vec<TimedWord>, SimError> {
        let mut outgoing = Vec::new();
        engine.process_block(block, incoming, &mut outgoing, trace)?;
        Ok(outgoing)
    }

    #[test]
    fn single_fu_adds_two_words() {
        let decoded = DecodedProgram::decode(FuVariant::V1, &[adder_program()]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::with_capacity(16);
        let out = step(&mut engine, 0, &[word(3), word(4)], &mut trace).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::new(7));
        // loads at cycles 2 and 3, exec at cycle 4, result departs at 4 + 3.
        assert_eq!(out[0].depart, 7);
        assert_eq!(trace.events().len(), 3);
    }

    #[test]
    fn v1_steady_state_period_matches_eq2() {
        // 2 loads, 1 op: II = max(2 + 1, 1 + 2) = 3.
        let decoded = DecodedProgram::decode(FuVariant::V1, &[adder_program()]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let mut departs = Vec::new();
        for block in 0..6 {
            let out = step(&mut engine, block, &[word(1), word(2)], &mut trace).unwrap();
            departs.push(out[0].depart);
        }
        let deltas: Vec<usize> = departs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas[2..].iter().all(|&d| d == 3), "got {deltas:?}");
    }

    #[test]
    fn baseline_serialises_loads_and_execs() {
        // Same program on [14]: II = 2 + 1 + 2 = 5.
        let decoded = DecodedProgram::decode(FuVariant::Baseline, &[adder_program()]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let mut departs = Vec::new();
        for block in 0..6 {
            let out = step(&mut engine, block, &[word(1), word(2)], &mut trace).unwrap();
            departs.push(out[0].depart);
        }
        let deltas: Vec<usize> = departs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas[2..].iter().all(|&d| d == 5), "got {deltas:?}");
    }

    #[test]
    fn forwarded_loads_are_bypassed_downstream() {
        let mut p = FuProgram::new();
        p.push(Instruction::load_forward(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Mul, r(2), r(0), r(1)));
        let decoded = DecodedProgram::decode(FuVariant::V1, &[p]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let out = step(&mut engine, 0, &[word(5), word(6)], &mut trace).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, Value::new(5)); // the bypassed word first
        assert_eq!(out[1].value, Value::new(30));
        assert!(out[0].depart < out[1].depart);
    }

    #[test]
    fn stream_underflow_is_detected() {
        let programs = [FuProgram::new(), FuProgram::new(), adder_program()];
        let decoded = DecodedProgram::decode(FuVariant::V1, &programs);
        let mut engine = decoded.engine(2);
        let mut trace = Trace::disabled();
        let err = step(&mut engine, 0, &[word(1)], &mut trace).unwrap_err();
        assert!(matches!(err, SimError::StreamUnderflow { fu: 2, block: 0 }));
    }

    #[test]
    fn uninitialised_register_is_detected() {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Add, r(2), r(0), r(9)));
        let decoded = DecodedProgram::decode(FuVariant::V1, &[p]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let err = step(&mut engine, 0, &[word(1)], &mut trace).unwrap_err();
        assert!(matches!(
            err,
            SimError::UninitializedRegister { register: 9, .. }
        ));
    }

    #[test]
    fn writeback_hazard_is_detected_when_dependents_are_too_close() {
        // Two dependent execs back to back on a V3 FU (IWP = 5) violate the
        // write-back spacing and must be flagged.
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec_flags(
            Op::Square,
            r(1),
            r(0),
            r(0),
            true,
            true,
        ));
        p.push(Instruction::exec(Op::Add, r(2), r(1), r(0)));
        let decoded = DecodedProgram::decode(FuVariant::V3, &[p]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let err = step(&mut engine, 0, &[word(2)], &mut trace).unwrap_err();
        assert!(matches!(err, SimError::WritebackHazard { required: 5, .. }));
    }

    #[test]
    fn writeback_read_succeeds_after_the_iwp_delay() {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec_flags(
            Op::Square,
            r(1),
            r(0),
            r(0),
            true,
            true,
        ));
        for _ in 0..4 {
            p.push(Instruction::Nop);
        }
        p.push(Instruction::exec(Op::Add, r(2), r(1), r(0)));
        let decoded = DecodedProgram::decode(FuVariant::V3, &[p]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let out = step(&mut engine, 0, &[word(3)], &mut trace).unwrap();
        // 3^2 + 3 = 12
        assert_eq!(out.last().unwrap().value, Value::new(12));
    }

    #[test]
    fn constants_are_readable_from_the_static_region() {
        let mut p = FuProgram::new();
        p.preload_constant(r(31), Value::new(10));
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Mul, r(1), r(0), r(31)));
        let decoded = DecodedProgram::decode(FuVariant::V1, &[p]);
        let mut engine = decoded.engine(0);
        let mut trace = Trace::disabled();
        let out = step(&mut engine, 0, &[word(7)], &mut trace).unwrap();
        assert_eq!(out[0].value, Value::new(70));
    }
}
