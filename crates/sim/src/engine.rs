//! The execution engine: one decode walk, a timing pass and a data pass.
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
//! The FU programs have no branches and the datapath cannot fault, so
//! neither *when* something happens nor *whether it is legal* depends on the
//! data. A run is therefore three passes, each over what it alone needs.
//!
//! # 1. The decode walk ([`Program::decode`])
//!
//! One walk down the chain checks the program and renames it. Every block
//! runs the same instructions, so the checks are made once, for block 0, in
//! the order a block meets them: FU by FU, a load the upstream stream cannot
//! feed (underflow), then slot by slot and operand by operand a read inside
//! the write-back delay (IWP hazard), a read of a register nothing wrote, an
//! operation the `EXEC` word cannot feed; last, an output the final stream
//! does not carry.
//!
//! The same walk value-numbers the chain. Every kernel input, preloaded
//! constant and `EXEC` result gets a *column*; a 32-entry rename table per FU
//! says which column each register currently names (and, for a write-back,
//! from which slot on it may be read). The table starts from the FU's
//! constants, so a load or write-back to a constant's register shadows the
//! constant for the rest of the block. Loads, forwards and write-backs only
//! move names around, so they disappear: what is left is a straight-line
//! tape of `(op, a, b) -> result` columns, plus, for every load, slot and
//! output, the column the trace will print and the event that sends the word
//! downstream.
//!
//! # 2. The timing pass ([`Program::law`])
//!
//! A block's events are *cells* of one row, in trace order. A cell's cycle
//! is built from constants, `+ c`, `max`, earlier cells of the same block
//! (the event that sent the word a load waits for) and two cells of the FU's
//! own previous block (its last load and last issue slot). The pass steps
//! the row in place, block after block; the datapath lanes of V2 run
//! identical programs from identical state, so one row sequence serves both
//! and block `b` reads row `b / lanes`.
//!
//! **Closing in O(1).** The model has no back-pressure, so the cells advance
//! by different amounts per block and "everything moved by one period" never
//! holds. The pass instead notes both arguments of every `max` it evaluates
//! and, over blocks `j-2`, `j-1`, `j`, asks of each `max`: did its *result*
//! advance by the same amount over both steps, did the same argument win at
//! `j-1` and `j`, and did the winner advance at least as much as the loser?
//! If so for all of them, write `Δτ = τ(j) - τ(j-1)` for every term `τ`; then
//! `τ(i) = τ(j) + (i-j)·Δτ` for all `i ≥ j`, by induction over blocks and,
//! within a block, evaluation order: a constant has `Δ = 0`; `σ + c` inherits
//! from `σ`; a term read from the previous block is a `max` result plus a
//! constant, whose equal advance over both steps makes `Δ` of the reader
//! equal `Δ` of the cell read; and at a `max` the winner stays ahead because
//! it leads at `j` and gains at least as fast, so the result keeps the
//! winner's `Δ`. From there a block's completion is `completion(j) +
//! (i-j)·Δ`, and stepping stops, traced or not: the law holds for every
//! cell, so the trace needs no row past `j` (§4).
//!
//! **Once per kernel.** Nothing above depends on the block count either, so
//! the pass runs once per compiled kernel, when its plan
//! ([`crate::SimPlan`]) is built, and returns a [`TimingLaw`]: it steps
//! lane-blocks until the test closes, at most [`PLAN_CAP`] of them, and
//! keeps each stepped lane-block's completion, their running maximum and
//! `Δ`, all in the one allocation the pass steps in. A run of any length
//! reads its latency, II samples and total cycles off the law in O(1)
//! (saturating at `usize::MAX` cycles). A law still open at the cap keeps its
//! last row instead, and each longer run steps the lane-blocks past it, with
//! the same [`Program::step`]. Compiled kernels close at lane-block 2 or 3.
//! A plan made for one run alone is capped at the run's own lane-blocks, and
//! below five it does not look for the fixed point at all: stepping them all
//! is cheaper than the bookkeeping.
//!
//! # 3. The data pass ([`Program::evaluate`])
//!
//! The tape runs over columns of up to [`LANE_WIDTH`] blocks in one flat
//! buffer, the thread's column scratch, which every run on the thread shares
//! and which grows to the widest run it has made (every lane a chunk reads
//! is written first, so what an earlier run left there never shows): inputs
//! are scattered in, each `EXEC` is one [`Op::apply_columns`] call (one
//! dispatch per chunk, loops the compiler vectorises), and every block's
//! outputs are written into one buffer, record after record. That is all a
//! run evaluates, whether it keeps events or not.
//!
//! # 4. The packed trace ([`PackedTrace`])
//!
//! A traced run keeps the program (shared with its plan, or moved in by a
//! run made alone: [`HeldProgram`]), its workload (shared, not copied), the
//! lane-block `j` the timing law closed at and how many events it keeps.
//! [`PackedTrace::unpack`], called on the first read of the events, makes
//! §3's pass again over the kept blocks alone and, block by block, steps the
//! kept rows up to `j` again and writes every later one as
//! `row(r) = row(j) + (r-j)·(row(j) - row(j-1))`, cell by cell — §2's
//! induction, which covers every cell, not only completions — then builds
//! the events in the order the hardware produces them. A trace nobody reads
//! costs its run one small allocation.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use overlay_arch::FuVariant;
use overlay_dfg::{DfgError, Op, Value};
use overlay_isa::{FuProgram, Instruction, RegIndex, REGISTER_FILE_SIZE};

use crate::error::SimError;
use crate::trace::{Event, EventKind, Trace};
use crate::workload::Workload;

/// Blocks the data pass evaluates per column.
const LANE_WIDTH: usize = 64;

thread_local! {
    /// The data pass's working columns: one buffer per thread, as wide as
    /// the widest run it has made (§3).
    static COLUMNS: Cell<Vec<Value>> = const { Cell::new(Vec::new()) };
}

/// Lane-blocks the timing pass steps, at most, looking for the fixed point
/// (§2). Far past where compiled kernels close, and few enough that a chain
/// which never does costs a plan little.
pub(crate) const PLAN_CAP: usize = 64;

/// Caps at or below which the timing pass does not look for the fixed
/// point: stepping them all is cheaper than the bookkeeping.
const ALWAYS_STEPPED: usize = 4;

/// A stream word as the walk sees it.
#[derive(Debug, Clone, Copy)]
struct Word {
    /// Column holding the word's value for every block.
    column: usize,
    /// Cell of the event that sends the word downstream; the cell past the
    /// last event, always cycle 0, stands for the input FIFO, which holds a
    /// block's words from the start.
    sender: usize,
    /// Cycles from the sender's event to the word's arrival: 1 off a
    /// bypassing load or the FIFO, the DSP pipeline more off an `EXEC`.
    lag: usize,
}

/// One cell: a load, an issue slot or a kernel output. A trace event per
/// block and, for an `EXEC`, an entry of the tape.
#[derive(Debug, Clone, Copy)]
enum Step {
    Load {
        register: RegIndex,
        forwarded: bool,
        word: Word,
    },
    Nop,
    Exec {
        op: Op,
        writeback: bool,
        forwarded: bool,
        a: usize,
        b: usize,
        result: usize,
    },
    Output {
        word: Word,
    },
}

/// The stream leaving one stage of the chain, read off the steps already
/// decoded: forwarded loads first, then forwarded results, as the hardware
/// emits them.
#[derive(Debug, Clone)]
enum Stream {
    /// The kernel inputs not yet taken, and the FIFO's cell.
    Inputs(Range<usize>, usize),
    /// The cells of the upstream FU not yet looked at, and the lag of an
    /// `EXEC` result.
    Stage(Range<usize>, usize),
}

impl Stream {
    fn next(&mut self, steps: &[Step]) -> Option<Word> {
        match self {
            Stream::Inputs(inputs, fifo) => inputs.next().map(|column| Word {
                column,
                sender: *fifo,
                lag: 1,
            }),
            Stream::Stage(cells, piped) => cells.find_map(|sender| match steps[sender] {
                Step::Load {
                    forwarded: true,
                    word,
                    ..
                } => Some(Word {
                    column: word.column,
                    sender,
                    lag: 1,
                }),
                Step::Exec {
                    forwarded: true,
                    result,
                    ..
                } => Some(Word {
                    column: result,
                    sender,
                    lag: *piped,
                }),
                _ => None,
            }),
        }
    }

    /// The word `index` places further on.
    fn nth(mut self, steps: &[Step], index: usize) -> Option<Word> {
        for _ in 0..index {
            self.next(steps)?;
        }
        self.next(steps)
    }
}

/// What each register names while the walk is inside one FU.
struct Rename {
    bound: u32,
    column: [usize; REGISTER_FILE_SIZE],
    /// First issue slot that may read the register: past the write-back
    /// delay for a written-back result, 0 for loads and constants.
    ready: [usize; REGISTER_FILE_SIZE],
}

// One `bound` bit per register.
const _: () = assert!(REGISTER_FILE_SIZE <= u32::BITS as usize);

impl Rename {
    fn bind(&mut self, register: RegIndex, column: usize, ready: usize) {
        self.bound |= 1 << register.index();
        self.column[register.index()] = column;
        self.ready[register.index()] = ready;
    }
}

/// One FU's cells: its loads, then its issue slots.
#[derive(Debug, Clone)]
struct Stage {
    loads: Range<usize>,
    slots: Range<usize>,
}

/// A kernel's per-FU programs, checked and renamed. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// Every FU's loads and slots, in chain order.
    steps: Vec<Step>,
    stages: Vec<Stage>,
    /// The kernel outputs' cells, by position, after every FU's.
    outputs: Range<usize>,
    inputs: usize,
    /// The preloaded constants' values, in column order.
    constants: Vec<Value>,
    /// Inputs, then constants, then `EXEC` results.
    columns: usize,
    lanes: usize,
    serialized: bool,
}

/// A kernel's completion cycles at every block count, from one timing pass:
/// see the [module documentation](self), §2.
#[derive(Debug, Clone)]
pub(crate) struct TimingLaw {
    /// Per stepped lane-block, its completion cycle and the latest
    /// completion up to and including it, pair after pair; an open law's
    /// row follows them.
    table: Vec<usize>,
    stepped: usize,
    /// Proven at the last stepped lane-block: each later one completes one
    /// period after the one before. `None` if the cap came first, and
    /// later lane-blocks are stepped from the row.
    period: Option<usize>,
}

/// A program as a run holds it: shared with the plan it came from, or owned
/// by a run made alone.
#[derive(Debug, Clone)]
pub(crate) enum HeldProgram {
    Shared(Arc<Program>),
    Owned(Program),
}

impl std::ops::Deref for HeldProgram {
    type Target = Program;

    fn deref(&self) -> &Program {
        match self {
            HeldProgram::Shared(program) => program,
            HeldProgram::Owned(program) => program,
        }
    }
}

/// What a traced run keeps: see the [module documentation](self), §4.
#[derive(Debug, Clone)]
pub(crate) struct PackedTrace {
    program: HeldProgram,
    /// The run's blocks, shared: the kept ones are evaluated again.
    workload: Workload,
    closed_at: Option<usize>,
    kept: usize,
}

/// Evaluates `max` and, while the fixed point is being looked for, notes
/// both arguments.
struct Maxes<'a> {
    /// Both arguments of each `max`, one after the other.
    log: Option<&'a mut [usize]>,
    next: usize,
}

impl Maxes<'_> {
    fn max(&mut self, a: usize, b: usize) -> usize {
        if let Some(log) = &mut self.log {
            log[self.next..][..2].copy_from_slice(&[a, b]);
            self.next += 2;
        }
        a.max(b)
    }
}

/// The fixed-point test over one `max` at blocks `j-2`, `j-1`, `j`. Written
/// without subtractions: the cycles only grow, but nothing here relies on it.
fn settled(old: &[usize], mid: &[usize], new: &[usize]) -> bool {
    let result = |arguments: &[usize]| arguments[0].max(arguments[1]);
    let stays_ahead = |w: usize, l: usize| {
        mid[w] >= mid[l] && new[w] >= new[l] && new[w] + mid[l] >= new[l] + mid[w]
    };
    result(new) + result(old) == 2 * result(mid) && (stays_ahead(0, 1) || stays_ahead(1, 0))
}

impl Program {
    /// Walks `programs` (in chain order) for an overlay built from `variant`
    /// fed `inputs` words per block, whose output `p` is word
    /// `output_stream_index[p]` of the stream leaving the last FU.
    ///
    /// # Errors
    ///
    /// The first hardware constraint a block would violate, as block 0's.
    pub(crate) fn decode(
        variant: FuVariant,
        programs: &[FuProgram],
        inputs: usize,
        output_stream_index: &[usize],
    ) -> Result<Self, SimError> {
        let iwp = variant.iwp().unwrap_or(0).max(1);
        let piped = variant.dsp_pipeline_depth() + 1;
        let constants: usize = programs.iter().map(|p| p.constant_init().len()).sum();
        let words: usize = programs.iter().map(FuProgram::len).sum();
        let mut steps = Vec::with_capacity(words + output_stream_index.len());
        let mut stages = Vec::with_capacity(programs.len());
        let mut constant_values = Vec::with_capacity(constants);
        let mut next_constant = inputs;
        let mut next_result = inputs + constants;
        let mut stream = Stream::Inputs(0..inputs, words + output_stream_index.len());
        let mut rename = Rename {
            bound: 0,
            column: [0; REGISTER_FILE_SIZE],
            ready: [0; REGISTER_FILE_SIZE],
        };

        for (fu, program) in programs.iter().enumerate() {
            rename.bound = 0;
            for &(register, value) in program.constant_init() {
                rename.bind(register, next_constant, 0);
                constant_values.push(value);
                next_constant += 1;
            }

            let first = steps.len();
            for instruction in program.instructions() {
                let Instruction::Load { dst, fwd } = *instruction else {
                    continue;
                };
                let word = stream
                    .next(&steps)
                    .ok_or(SimError::StreamUnderflow { fu, block: 0 })?;
                rename.bind(dst, word.column, 0);
                steps.push(Step::Load {
                    register: dst,
                    forwarded: fwd,
                    word,
                });
            }

            let first_slot = steps.len();
            for instruction in program.instructions() {
                let slot = steps.len() - first_slot;
                match *instruction {
                    Instruction::Load { .. } => {}
                    Instruction::Nop => steps.push(Step::Nop),
                    Instruction::Exec {
                        op,
                        dst,
                        src1,
                        src2,
                        wb,
                        ndf,
                    } => {
                        let read = |register: RegIndex| {
                            let index = register.index();
                            if rename.bound & (1 << index) == 0 {
                                Err(SimError::UninitializedRegister {
                                    fu,
                                    register: index,
                                    block: 0,
                                })
                            } else if slot < rename.ready[index] {
                                Err(SimError::WritebackHazard {
                                    fu,
                                    block: 0,
                                    observed: slot + iwp - rename.ready[index],
                                    required: iwp,
                                })
                            } else {
                                Ok(rename.column[index])
                            }
                        };
                        let arity = op.arity();
                        let a = read(src1)?;
                        let b = if arity == 1 { a } else { read(src2)? };
                        if arity > 2 {
                            // The word has two source fields.
                            return Err(SimError::Dfg(DfgError::ArityMismatch {
                                op,
                                expected: arity,
                                found: 2,
                            }));
                        }
                        let result = next_result;
                        next_result += 1;
                        if wb {
                            rename.bind(dst, result, slot + iwp);
                        }
                        steps.push(Step::Exec {
                            op,
                            writeback: wb,
                            forwarded: !ndf,
                            a,
                            b,
                            result,
                        });
                    }
                }
            }
            stages.push(Stage {
                loads: first..first_slot,
                slots: first_slot..steps.len(),
            });
            stream = Stream::Stage(first..steps.len(), piped);
        }

        let first_output = steps.len();
        for &index in output_stream_index {
            let word = stream
                .clone()
                .nth(&steps, index)
                .ok_or(SimError::StreamUnderflow {
                    fu: programs.len(),
                    block: 0,
                })?;
            steps.push(Step::Output { word });
        }
        Ok(Program {
            outputs: first_output..steps.len(),
            constants: constant_values,
            steps,
            stages,
            inputs,
            columns: next_result,
            lanes: variant.datapath_lanes(),
            serialized: matches!(variant, FuVariant::Baseline),
        })
    }

    /// Trace events one block emits on its way down the chain: one per load,
    /// per issue slot and per output.
    pub(crate) fn events_per_block(&self) -> usize {
        self.outputs.end
    }

    /// Words per block in.
    pub(crate) fn inputs(&self) -> usize {
        self.inputs
    }

    /// Kernel outputs per block out.
    pub(crate) fn record(&self) -> usize {
        self.outputs.len()
    }

    /// The word each kernel output is, by position, and its cell.
    fn output_words(&self) -> impl Iterator<Item = (usize, Word)> + '_ {
        let steps = &self.steps[self.outputs.clone()];
        self.outputs
            .clone()
            .zip(steps)
            .filter_map(|(cell, step)| match *step {
                Step::Output { word } => Some((cell, word)),
                _ => None,
            })
    }

    /// Steps one lane-block: overwrites `row`, which holds the lane's
    /// previous block, cell by cell and returns the block's completion cycle.
    fn step(&self, row: &mut [usize], maxes: &mut Maxes<'_>) -> usize {
        for stage in &self.stages {
            // Both still hold the previous block's cycles (0 before block 0).
            let last_load_end = stage.loads.clone().last().map_or(0, |cell| row[cell]);
            let last_exec_end = stage.slots.clone().last().map_or(0, |cell| row[cell]);

            let mut cursor = last_load_end + 2; // one idle separator cycle
            if self.serialized {
                // The single-port baseline cannot start a new block's loads
                // until the previous block's execution (and flush) is over.
                cursor = maxes.max(cursor, last_exec_end + 3);
            }
            let mut last_load = last_load_end;
            for (cell, step) in stage.loads.clone().zip(&self.steps[stage.loads.clone()]) {
                let Step::Load { word, .. } = step else {
                    continue;
                };
                last_load = maxes.max(cursor, row[word.sender] + word.lag);
                row[cell] = last_load;
                cursor = last_load + 1;
            }

            // Execution starts once the block's data is resident and the
            // previous block has drained the DSP pipeline (two flush cycles).
            let mut start = maxes.max(last_load + 1, last_exec_end + 3);
            if self.serialized {
                start = maxes.max(start, cursor);
            }
            for (slot, cycle) in row[stage.slots.clone()].iter_mut().enumerate() {
                *cycle = start + slot;
            }
        }
        let mut completion = 0;
        for (cell, word) in self.output_words() {
            let arrival = row[word.sender] + word.lag;
            row[cell] = arrival;
            completion = maxes.max(completion, arrival);
        }
        completion
    }

    /// `max` evaluations in one [`Program::step`].
    fn maxes_per_step(&self) -> usize {
        let per_stage = if self.serialized { 3 } else { 1 };
        let loads: usize = self.stages.iter().map(|stage| stage.loads.len()).sum();
        loads + per_stage * self.stages.len() + self.outputs.len()
    }

    /// The timing pass, once for every block count: steps lane-blocks until
    /// the fixed point is proven or `cap` of them have been stepped.
    pub(crate) fn law(&self, cap: usize) -> TimingLaw {
        let cells = self.events_per_block();
        // One allocation: the law's table, with room for every lane-block
        // the cap allows, then the row the pass steps in place (every
        // event's cell, then the FIFO's) and, when the cap leaves room to
        // look for the fixed point, a ring of the last three steps' `max`
        // arguments. Whichever way the pass ends, what the law keeps is a
        // prefix. Filled, not zeroed: a zeroed allocation costs a short run
        // more than the fill.
        let logged = 2 * self.maxes_per_step();
        let searching = cap > ALWAYS_STEPPED;
        let ring = if searching { 3 * logged } else { 0 };
        let mut table: Vec<usize> = std::iter::repeat_n(0, 2 * cap + cells + 1 + ring).collect();
        let (pairs, scratch) = table.split_at_mut(2 * cap);
        let (row, log) = scratch.split_at_mut(cells + 1);
        let mut peak = 0;
        for lane_block in 0..cap {
            let mut noted = Maxes {
                log: searching.then(|| &mut log[lane_block % 3 * logged..][..logged]),
                next: 0,
            };
            let completion = self.step(row, &mut noted);
            peak = peak.max(completion);
            pairs[2 * lane_block..][..2].copy_from_slice(&[completion, peak]);
            if searching && lane_block >= 2 {
                let at =
                    |age: usize| log[(lane_block - age) % 3 * logged..][..logged].chunks_exact(2);
                let (old, mid, new) = (at(2), at(1), at(0));
                if old
                    .zip(mid)
                    .zip(new)
                    .all(|((old, mid), new)| settled(old, mid, new))
                {
                    let period = completion - pairs[2 * (lane_block - 1)];
                    table.truncate(2 * (lane_block + 1));
                    return TimingLaw {
                        table,
                        stepped: lane_block + 1,
                        period: Some(period),
                    };
                }
            }
        }
        // Every pair is filled, so the row follows the last.
        table.truncate(2 * cap + cells + 1);
        TimingLaw {
            table,
            stepped: cap,
            period: None,
        }
    }

    /// The data pass over `records` (at least one): runs the tape a chunk of
    /// up to [`LANE_WIDTH`] blocks at a time in the thread's column scratch
    /// and hands `chunk` each chunk's blocks, the column width and the
    /// columns.
    ///
    /// # Errors
    ///
    /// None that [`Program::decode`] has not already ruled out.
    fn pass(
        &self,
        records: &[Vec<Value>],
        mut chunk: impl FnMut(Range<usize>, usize, &[Value]),
    ) -> Result<(), SimError> {
        let width = LANE_WIDTH.min(records.len());
        let size = self.columns * width;
        // Taken, not borrowed: a pass that fails leaves the thread an empty
        // scratch, and the next one makes another.
        let mut scratch = COLUMNS.take();
        if scratch.len() < size {
            // Replaced, not resized: nothing in it is read before it is
            // written.
            scratch = vec![Value::ZERO; size];
        }
        let columns = &mut scratch[..size];
        for (column, &value) in (self.inputs..).zip(&self.constants) {
            columns[column * width..][..width].fill(value);
        }
        for (records, first_block) in records.chunks(width).zip((0..).step_by(width)) {
            let blocks = records.len();
            for (lane, record) in records.iter().enumerate() {
                for (input, &value) in record.iter().enumerate() {
                    columns[input * width + lane] = value;
                }
            }
            for step in &self.steps {
                if let Step::Exec {
                    op, a, b, result, ..
                } = *step
                {
                    let (operands, results) = columns.split_at_mut(result * width);
                    op.apply_columns(
                        &operands[a * width..][..blocks],
                        &operands[b * width..][..blocks],
                        &mut results[..blocks],
                    )
                    .map_err(SimError::Dfg)?;
                }
            }
            chunk(first_block..first_block + blocks, width, columns);
        }
        COLUMNS.set(scratch);
        Ok(())
    }

    /// Every block's outputs over `records` (at least one), record after
    /// record, in one buffer: §3.
    ///
    /// # Errors
    ///
    /// None that [`Program::decode`] has not already ruled out.
    pub(crate) fn evaluate(&self, records: &[Vec<Value>]) -> Result<Vec<Value>, SimError> {
        let record = self.outputs.len();
        let mut outputs = vec![Value::ZERO; records.len() * record];
        self.pass(records, |blocks, width, columns| {
            let written = &mut outputs[blocks.start * record..blocks.end * record];
            for (position, (_, word)) in self.output_words().enumerate() {
                let column = &columns[word.column * width..][..blocks.len()];
                let slots = written[position..].iter_mut().step_by(record);
                for (slot, &value) in slots.zip(column) {
                    *slot = value;
                }
            }
        })?;
        Ok(outputs)
    }
}

impl HeldProgram {
    /// The trace of a run of this program over `workload` that keeps its
    /// first `capacity` events and counts the rest; `closed_at` is the
    /// timing law's. It keeps the program and the workload, from which the
    /// events are built on the first read: §4.
    pub(crate) fn trace(
        self,
        workload: &Workload,
        closed_at: Option<usize>,
        capacity: usize,
    ) -> Trace {
        let events = workload.len().saturating_mul(self.events_per_block());
        let kept = events.min(capacity);
        let packed = (kept > 0).then(|| {
            Box::new(PackedTrace {
                program: self,
                workload: workload.clone(),
                closed_at,
                kept,
            })
        });
        Trace::new(packed, capacity, events - kept)
    }
}

impl Program {
    /// Appends `block`'s events in the order the parts of the overlay
    /// produce them: FU by FU, loads before issue slots, then the output
    /// FIFO (the index past the last FU). `row` holds the cycles, `value`
    /// reads the block's columns.
    fn unpack_block(
        &self,
        block: usize,
        row: &[usize],
        value: impl Fn(usize) -> Value,
        events: &mut Vec<Event>,
    ) {
        let stages = self
            .stages
            .iter()
            .map(|stage| stage.loads.start..stage.slots.end);
        for (fu, cells) in stages.chain([self.outputs.clone()]).enumerate() {
            for (cell, step) in cells.clone().zip(&self.steps[cells]) {
                let kind = match *step {
                    Step::Load {
                        register,
                        forwarded,
                        word,
                    } => EventKind::Load {
                        register: register.index(),
                        value: value(word.column),
                        forwarded,
                    },
                    Step::Nop => EventKind::Nop,
                    Step::Exec {
                        op,
                        writeback,
                        forwarded,
                        result,
                        ..
                    } => EventKind::Exec {
                        mnemonic: op.mnemonic(),
                        value: value(result),
                        writeback,
                        forwarded,
                    },
                    Step::Output { word } => EventKind::Output {
                        position: cell - self.outputs.start,
                        value: value(word.column),
                    },
                };
                events.push(Event {
                    cycle: row[cell],
                    fu,
                    block,
                    kind,
                });
            }
        }
    }
}

impl TimingLaw {
    /// The lane-block at which the fixed point was proven, if it was.
    pub(crate) fn closed_at(&self) -> Option<usize> {
        self.period.map(|_| self.stepped - 1)
    }

    /// The proven period per block, for `program`, the law's own: cycles
    /// per lane-block over the lanes that share one.
    pub(crate) fn steady_ii(&self, program: &Program) -> Option<f64> {
        self.period
            .map(|period| period as f64 / program.lanes as f64)
    }

    /// A stepped lane-block's completion cycle and the latest completion up
    /// to and including it.
    fn pair(&self, lane_block: usize) -> Option<[usize; 2]> {
        (lane_block < self.stepped)
            .then(|| [self.table[2 * lane_block], self.table[2 * lane_block + 1]])
    }

    /// The completion cycle of each block in `sample` and of the last of
    /// `blocks` blocks (at least one, and more than any sampled) to finish,
    /// for `program`, the law's own. Past a closed law's table the cycles
    /// saturate at `usize::MAX`: a block count no workload could hold still
    /// gets an answer.
    pub(crate) fn completions(
        &self,
        program: &Program,
        blocks: usize,
        sample: [usize; 3],
    ) -> ([usize; 3], usize) {
        let last = (blocks - 1) / program.lanes;
        let sample = sample.map(|block| block / program.lanes);
        let known = self.stepped;
        match self.period {
            Some(period) => {
                let closed = known - 1;
                let [closing, peak] = [self.table[2 * closed], self.table[2 * closed + 1]];
                let at = |lane_block: usize| match self.pair(lane_block) {
                    Some([completion, _]) => completion,
                    None => (lane_block - closed)
                        .saturating_mul(period)
                        .saturating_add(closing),
                };
                let total = match self.pair(last) {
                    Some([_, peak]) => peak,
                    None => peak.max(at(last)),
                };
                (sample.map(at), total)
            }
            None if last < known => (sample.map(|b| self.table[2 * b]), self.table[2 * last + 1]),
            None => {
                // Step on from where the law stopped, as the pass would have.
                let mut row = self.table[2 * known..].to_vec();
                let mut sampled = sample.map(|b| self.pair(b).map_or(0, |s| s[0]));
                let mut total = known.checked_sub(1).map_or(0, |b| self.table[2 * b + 1]);
                for lane_block in known..=last {
                    let completion = program.step(&mut row, &mut Maxes { log: None, next: 0 });
                    total = total.max(completion);
                    for (wanted, sampled) in sample.iter().zip(&mut sampled) {
                        if *wanted == lane_block {
                            *sampled = completion;
                        }
                    }
                }
                (sampled, total)
            }
        }
    }
}

impl PackedTrace {
    /// How many events the trace keeps.
    pub(crate) fn kept(&self) -> usize {
        self.kept
    }

    /// The kept events, block by block: see the
    /// [module documentation](self), §4.
    pub(crate) fn unpack(&self) -> Vec<Event> {
        let program = &*self.program;
        let cells = program.events_per_block();
        let blocks = self.kept.div_ceil(cells);
        let mut events = Vec::with_capacity(blocks * cells);
        let mut row = vec![0; cells + 1];
        // Cell by cell, the last stepped row minus the one before it.
        let mut period = vec![0; cells];
        let records = &self.workload.records()[..blocks];
        let evaluated = program.pass(records, |chunk, width, columns| {
            for (lane, block) in chunk.enumerate() {
                if block % program.lanes == 0 {
                    let lane_block = block / program.lanes;
                    if self.closed_at.is_some_and(|closed| lane_block > closed) {
                        for (cycle, period) in row.iter_mut().zip(&period) {
                            *cycle += period;
                        }
                    } else {
                        period.copy_from_slice(&row[..cells]);
                        program.step(&mut row, &mut Maxes { log: None, next: 0 });
                        for (period, cycle) in period.iter_mut().zip(&row) {
                            *period = cycle - *period;
                        }
                    }
                }
                let value = |column: usize| columns[column * width + lane];
                program.unpack_block(block, &row, value, &mut events);
            }
        });
        evaluated.expect("the run made this pass over these blocks");
        events.truncate(self.kept);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegIndex {
        RegIndex::new(i).unwrap()
    }

    fn adder_program() -> FuProgram {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Add, r(2), r(0), r(1)));
        p
    }

    /// Runs `programs` over `records` with every event traced; output `p`
    /// is word `outputs[p]` of the final stream.
    fn run(
        variant: FuVariant,
        programs: &[FuProgram],
        records: &[Vec<i32>],
        outputs: &[usize],
    ) -> Result<(Vec<Vec<Value>>, Trace), SimError> {
        let workload: Workload = records
            .iter()
            .map(|record| record.iter().copied().map(Value::new).collect())
            .collect();
        let program = Program::decode(variant, programs, records[0].len(), outputs)?;
        let closed_at = program.law(PLAN_CAP).closed_at();
        let flat = program.evaluate(workload.records())?;
        let trace = HeldProgram::Owned(program).trace(&workload, closed_at, usize::MAX);
        let width = outputs.len();
        let outputs = (0..records.len())
            .map(|block| flat[block * width..][..width].to_vec())
            .collect();
        Ok((outputs, trace))
    }

    /// Cycle of each block's (only) output event.
    fn output_cycles(trace: &Trace) -> Vec<usize> {
        trace
            .events()
            .iter()
            .filter(|event| matches!(event.kind, EventKind::Output { .. }))
            .map(|event| event.cycle)
            .collect()
    }

    #[test]
    fn single_fu_adds_two_words() {
        let (outputs, trace) = run(FuVariant::V1, &[adder_program()], &[vec![3, 4]], &[0]).unwrap();
        assert_eq!(outputs, [[Value::new(7)]]);
        // loads at cycles 2 and 3, exec at cycle 4, the result departs at
        // 4 + 3 and reaches the output FIFO a cycle later.
        let cycles: Vec<usize> = trace.events().iter().map(|event| event.cycle).collect();
        assert_eq!(cycles, [2, 3, 4, 8]);
    }

    #[test]
    fn v1_steady_state_period_matches_eq2() {
        // 2 loads, 1 op: II = max(2 + 1, 1 + 2) = 3.
        let records = vec![vec![1, 2]; 6];
        let (_, trace) = run(FuVariant::V1, &[adder_program()], &records, &[0]).unwrap();
        let deltas: Vec<usize> = output_cycles(&trace)
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert_eq!(deltas.len(), 5);
        assert!(deltas[2..].iter().all(|&d| d == 3), "got {deltas:?}");
    }

    #[test]
    fn baseline_serialises_loads_and_execs() {
        // Same program on [14]: II = 2 + 1 + 2 = 5.
        let records = vec![vec![1, 2]; 6];
        let (_, trace) = run(FuVariant::Baseline, &[adder_program()], &records, &[0]).unwrap();
        let deltas: Vec<usize> = output_cycles(&trace)
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert_eq!(deltas.len(), 5);
        assert!(deltas[2..].iter().all(|&d| d == 5), "got {deltas:?}");
    }

    #[test]
    fn forwarded_loads_are_bypassed_downstream() {
        let mut p = FuProgram::new();
        p.push(Instruction::load_forward(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Mul, r(2), r(0), r(1)));
        let (outputs, trace) = run(FuVariant::V1, &[p], &[vec![5, 6]], &[0, 1]).unwrap();
        // The bypassed word first, then the product.
        assert_eq!(outputs, [[Value::new(5), Value::new(30)]]);
        let cycles = output_cycles(&trace);
        assert!(cycles[0] < cycles[1], "got {cycles:?}");
    }

    #[test]
    fn stream_underflow_is_detected() {
        // The empty FUs forward nothing, so the adder's loads find no words.
        let programs = [FuProgram::new(), FuProgram::new(), adder_program()];
        let err = run(FuVariant::V1, &programs, &[vec![1]], &[0]).unwrap_err();
        assert_eq!(err, SimError::StreamUnderflow { fu: 2, block: 0 });
    }

    #[test]
    fn uninitialised_register_is_detected() {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Add, r(2), r(0), r(9)));
        let err = run(FuVariant::V1, &[p], &[vec![1]], &[0]).unwrap_err();
        assert!(matches!(
            err,
            SimError::UninitializedRegister { register: 9, .. }
        ));
    }

    /// A square written back to `r1`, `gap` NOPs, then `r1 + r0`.
    fn dependent_pair(gap: usize) -> FuProgram {
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
        for _ in 0..gap {
            p.push(Instruction::Nop);
        }
        p.push(Instruction::exec(Op::Add, r(2), r(1), r(0)));
        p
    }

    #[test]
    fn writeback_hazard_is_detected_when_dependents_are_too_close() {
        // Two dependent execs back to back on a V3 FU (IWP = 5) violate the
        // write-back spacing and must be flagged.
        let err = run(FuVariant::V3, &[dependent_pair(0)], &[vec![2]], &[0]).unwrap_err();
        assert!(matches!(
            err,
            SimError::WritebackHazard {
                observed: 1,
                required: 5,
                ..
            }
        ));
    }

    #[test]
    fn writeback_read_succeeds_after_the_iwp_delay() {
        let (outputs, ..) = run(FuVariant::V3, &[dependent_pair(4)], &[vec![3]], &[0]).unwrap();
        // 3^2 + 3 = 12
        assert_eq!(outputs, [[Value::new(12)]]);
    }

    #[test]
    fn a_chain_without_fus_passes_its_inputs_through() {
        let (outputs, trace) = run(FuVariant::V1, &[], &[vec![1, 2], vec![3, 4]], &[1, 0]).unwrap();
        assert_eq!(outputs, [[2, 1].map(Value::new), [4, 3].map(Value::new)]);
        // The FIFO holds every block's words from cycle 0.
        assert_eq!(output_cycles(&trace), [1; 4]);

        // Nothing in, nothing out: no columns and no events at all.
        let (outputs, trace) = run(FuVariant::V1, &[], &[vec![], vec![], vec![]], &[]).unwrap();
        assert_eq!(outputs, [[], [], []]);
        assert_eq!(trace.total(), 0);
    }

    #[test]
    fn constants_are_readable_from_the_static_region() {
        let mut p = FuProgram::new();
        p.preload_constant(r(31), Value::new(10));
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Mul, r(1), r(0), r(31)));
        let (outputs, ..) = run(FuVariant::V1, &[p], &[vec![7]], &[0]).unwrap();
        assert_eq!(outputs, [[Value::new(70)]]);
    }

    #[test]
    fn a_block_shadows_a_constant_and_the_next_block_gets_it_back() {
        // r31 = 10 by configuration. Each block reads it (x * 10), writes a
        // result back over it, then reads it again (x * 10 + x * 10): the
        // write-back wins for the rest of the block only.
        let mut p = FuProgram::new();
        p.preload_constant(r(31), Value::new(10));
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec_flags(
            Op::Mul,
            r(31),
            r(0),
            r(31),
            true,
            false,
        ));
        p.push(Instruction::exec(Op::Add, r(2), r(31), r(31)));
        let (outputs, ..) = run(FuVariant::V1, &[p], &[vec![2], vec![3]], &[0, 1]).unwrap();
        assert_eq!(
            outputs,
            [[20, 40].map(Value::new), [30, 60].map(Value::new)]
        );

        // A load over a constant's register shadows it the same way.
        let mut p = FuProgram::new();
        p.preload_constant(r(0), Value::new(10));
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Mov, r(1), r(0), r(0)));
        let (outputs, ..) = run(FuVariant::V1, &[p], &[vec![4], vec![5]], &[0]).unwrap();
        assert_eq!(outputs, [[Value::new(4)], [Value::new(5)]]);
    }

    /// Completions of blocks 0, `blocks / 2` and `blocks - 1` and of the
    /// last to finish, read off the law with the given cap (if `Some`) or
    /// with every lane-block stepped.
    fn completions(program: &Program, blocks: usize, cap: Option<usize>) -> ([usize; 3], usize) {
        let sample = [0, blocks / 2, blocks - 1];
        if let Some(cap) = cap {
            return program.law(cap).completions(program, blocks, sample);
        }
        let mut row = vec![0; program.events_per_block() + 1];
        let stepped: Vec<usize> = (0..blocks.div_ceil(program.lanes))
            .map(|_| program.step(&mut row, &mut Maxes { log: None, next: 0 }))
            .collect();
        let total = stepped.iter().copied().max().unwrap_or(0);
        (sample.map(|block| stepped[block / program.lanes]), total)
    }

    /// One FU from a sketch: `L` a load, `F` a forwarded load, `n` a NOP,
    /// `x` an `EXEC` whose result is forwarded.
    fn sketch(pattern: &str) -> FuProgram {
        let mut loads = 0;
        pattern
            .chars()
            .map(|c| match c {
                'L' | 'F' => {
                    loads += 1;
                    Instruction::Load {
                        dst: r(loads - 1),
                        fwd: c == 'F',
                    }
                }
                'n' => Instruction::Nop,
                _ => Instruction::exec(Op::Neg, r(20), r(0), r(0)),
            })
            .collect()
    }

    #[test]
    fn winners_that_flip_late_close_late_and_match_stepping() {
        // FU 0 runs 16 cycles per block and FU 1 17, both sending results at
        // uneven slots. FU 1's bypassed word keeps FU 0's pace while its
        // results fall behind a cycle per block, so at FU 2 the gaps between
        // arrivals close one after another, and until the last has closed
        // some `max` is still changing hands.
        let programs = ["Lnnxnxnxnnnxxx", "Fnxnxnxnnxnxnxn", "FFx"].map(sketch);
        let program = Program::decode(FuVariant::V1, &programs, 1, &[2]).unwrap();

        let closed_at = program.law(PLAN_CAP).closed_at().unwrap();
        assert!((8..PLAN_CAP).contains(&closed_at), "closed at {closed_at}");
        for blocks in [5, closed_at, closed_at + 1, closed_at + 2, 299, 300] {
            assert_eq!(
                completions(&program, blocks, Some(PLAN_CAP)),
                completions(&program, blocks, None),
                "{blocks} blocks"
            );
        }
    }

    #[test]
    fn a_law_left_open_at_its_cap_steps_the_rest_and_matches_stepping() {
        // The late closer above and a plain adder on one and on two lanes.
        // Capped before (or at 0, without) any step, or, for the late
        // closer, before its fixed point, each law stays open, and every
        // answer past the cap is stepped from the row it kept.
        let late = ["Lnnxnxnxnnnxxx", "Fnxnxnxnnxnxnxn", "FFx"].map(sketch);
        let adder = [adder_program()];
        let cases = [
            (FuVariant::V1, &late[..], 1, 2, 7),
            (FuVariant::V1, &adder[..], 2, 0, 2),
            (FuVariant::V2, &adder[..], 2, 0, 2),
            (FuVariant::Baseline, &adder[..], 2, 0, 2),
        ];
        for (variant, programs, inputs, output, open_cap) in cases {
            let program = Program::decode(variant, programs, inputs, &[output]).unwrap();
            for cap in 0..=open_cap {
                let law = program.law(cap);
                assert_eq!(law.closed_at(), None, "{variant} at cap {cap}");
                for blocks in [1, 2, 3, 4, 5, 64, 65, 300] {
                    assert_eq!(
                        completions(&program, blocks, Some(cap)),
                        completions(&program, blocks, None),
                        "{variant} at cap {cap}, {blocks} blocks"
                    );
                }
            }

            // An open law's trace steps every kept row, a closed one's
            // extrapolates them: the same events either way.
            let program = Arc::new(program);
            let workload = Workload::from_records(vec![vec![Value::new(3); inputs]; 40]);
            let closed = program.law(PLAN_CAP).closed_at();
            assert!(closed.is_some(), "{variant}");
            let traced = |closed_at| {
                let trace = HeldProgram::Shared(Arc::clone(&program)).trace(
                    &workload,
                    closed_at,
                    usize::MAX,
                );
                trace.events().to_vec()
            };
            assert_eq!(traced(None), traced(closed), "{variant}");
        }
    }

    #[test]
    fn closing_matches_stepping_on_random_chains() {
        // xorshift: irregular hand-made chains, which compiled kernels are not.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut latest = 0;
        for _ in 0..1500 {
            let variant = [FuVariant::Baseline, FuVariant::V1, FuVariant::V2][below(3)];
            let inputs = 1 + below(4);
            let mut arriving = inputs;
            let programs: Vec<FuProgram> = (0..2 + below(3))
                .map(|_| {
                    let mut program = FuProgram::new();
                    let mut forwarded = 1;
                    for register in 0..1 + below(arriving) {
                        let forward = below(2) == 0;
                        forwarded += usize::from(forward);
                        program.push(Instruction::Load {
                            dst: r(register as u32),
                            fwd: forward,
                        });
                    }
                    for _ in 0..below(24) {
                        program.push(match below(3) {
                            0 => Instruction::Nop,
                            _ => {
                                let forward = below(2) == 0;
                                forwarded += usize::from(forward);
                                Instruction::exec_flags(Op::Neg, r(20), r(0), r(0), false, !forward)
                            }
                        });
                    }
                    program.push(Instruction::exec(Op::Neg, r(20), r(0), r(0)));
                    arriving = forwarded;
                    program
                })
                .collect();
            let program = Program::decode(variant, &programs, inputs, &[0, arriving - 1]).unwrap();
            let blocks = 5 + below(200);
            latest = latest.max(program.law(PLAN_CAP).closed_at().unwrap_or(0));
            assert_eq!(
                completions(&program, blocks, Some(PLAN_CAP)),
                completions(&program, blocks, None),
                "{variant}, {blocks} blocks: {programs:?}"
            );
        }
        // Some of the chains must have closed late, or this tested nothing.
        assert!(latest > 8, "latest closure at {latest}");
    }
}
