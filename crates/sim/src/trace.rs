//! Execution traces.

use std::fmt;
use std::sync::OnceLock;

use overlay_dfg::Value;

use crate::engine::PackedTrace;

/// What happened in one traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The input controller wrote an arriving word into the register file.
    Load {
        /// Destination register index.
        register: usize,
        /// The word value.
        value: Value,
        /// Whether the word was also bypassed downstream.
        forwarded: bool,
    },
    /// The DSP datapath produced a result.
    Exec {
        /// Operation mnemonic.
        mnemonic: &'static str,
        /// Result value.
        value: Value,
        /// Whether the result was written back to the register file.
        writeback: bool,
        /// Whether the result was forwarded downstream.
        forwarded: bool,
    },
    /// An idle (NOP) issue slot.
    Nop,
    /// A word was pushed into the output FIFO.
    Output {
        /// Output stream position.
        position: usize,
        /// The word value.
        value: Value,
    },
}

/// One traced event: when, where, what.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Cycle number (1-based, matching the paper's Table II).
    pub cycle: usize,
    /// FU index (the output FIFO uses the index one past the last FU).
    pub fu: usize,
    /// Kernel invocation (block) index.
    pub block: usize,
    /// The event itself.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Load {
                register,
                value,
                forwarded,
            } => write!(
                f,
                "cycle {:>4} FU{} blk{}: load r{register} <- {value}{}",
                self.cycle,
                self.fu,
                self.block,
                if *forwarded { " [fwd]" } else { "" }
            ),
            EventKind::Exec {
                mnemonic,
                value,
                writeback,
                forwarded,
            } => write!(
                f,
                "cycle {:>4} FU{} blk{}: {mnemonic} -> {value}{}{}",
                self.cycle,
                self.fu,
                self.block,
                if *writeback { " [wb]" } else { "" },
                if *forwarded { " [fwd]" } else { "" }
            ),
            EventKind::Nop => {
                write!(
                    f,
                    "cycle {:>4} FU{} blk{}: nop",
                    self.cycle, self.fu, self.block
                )
            }
            EventKind::Output { position, value } => write!(
                f,
                "cycle {:>4} OUT blk{}: out[{position}] = {value}",
                self.cycle, self.block
            ),
        }
    }
}

/// A run's bounded event trace: the first events of the run, up to the
/// simulator's trace capacity, and a count of the rest.
///
/// Only the simulator builds one. It keeps the program, the run's workload
/// and the timing the events are read off; the kept blocks are evaluated
/// again and the typed [`Event`]s built once, on the first call to
/// [`Trace::events`]. [`Trace::dropped`] and [`Trace::total`] never build
/// them.
#[derive(Clone)]
pub struct Trace {
    /// Boxed: a run is moved whole, and most runs keep no events.
    packed: Option<Box<PackedTrace>>,
    /// Read by `Debug` alone, which prints what the trace was given.
    capacity: usize,
    dropped: usize,
    events: OnceLock<Vec<Event>>,
}

impl Trace {
    /// A trace of at most `capacity` events that keeps those of `packed`
    /// (none if `None`) and counts `dropped` more.
    pub(crate) fn new(packed: Option<Box<PackedTrace>>, capacity: usize, dropped: usize) -> Self {
        Trace {
            packed,
            capacity,
            dropped,
            events: OnceLock::new(),
        }
    }

    /// The kept events, in the order the overlay produces them. The first
    /// call builds them; later calls return the same slice.
    pub fn events(&self) -> &[Event] {
        self.events.get_or_init(|| {
            self.packed
                .as_ref()
                .map_or_else(Vec::new, |packed| packed.unpack())
        })
    }

    /// How many events did not fit in the capacity.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Total events observed (kept + dropped).
    pub fn total(&self) -> usize {
        self.packed.as_ref().map_or(0, |packed| packed.kept()) + self.dropped
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.dropped == other.dropped && self.events() == other.events()
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OverlaySimulator, SimRun, Workload};
    use overlay_arch::FuVariant;
    use overlay_frontend::Benchmark;
    use overlay_scheduler::{generate_program, schedule};

    const BLOCKS: usize = 5;

    /// Gradient on V1 over [`BLOCKS`] blocks, keeping `capacity` events, and
    /// the events one block emits.
    fn gradient(capacity: usize) -> (SimRun, usize) {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let stages = schedule(&dfg, FuVariant::V1, None).unwrap();
        let compiled = generate_program(&dfg, &stages, FuVariant::V1).unwrap();
        let run = OverlaySimulator::new(FuVariant::V1)
            .with_trace_capacity(capacity)
            .run(&compiled, &Workload::ramp(dfg.num_inputs(), BLOCKS))
            .unwrap();
        let per_block = compiled.program.total_instructions() + compiled.output_stream_index.len();
        (run, per_block)
    }

    #[test]
    fn a_run_keeps_its_capacity_and_counts_the_rest() {
        let (run, per_block) = gradient(2);
        let trace = run.trace();
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.total(), BLOCKS * per_block);
        assert_eq!(trace.dropped(), trace.total() - 2);
    }

    #[test]
    fn a_disabled_trace_keeps_nothing_but_counts_every_event() {
        let (run, per_block) = gradient(0);
        let trace = run.trace();
        assert!(trace.packed.is_none());
        assert!(trace.events().is_empty());
        assert_eq!(trace.total(), BLOCKS * per_block);
        assert_eq!(trace.dropped(), trace.total());
    }

    #[test]
    fn counting_the_events_does_not_build_them() {
        let per_block = gradient(0).1;
        let (run, _) = gradient(per_block + 1);
        let trace = run.trace();
        assert_eq!(trace.dropped(), (BLOCKS - 1) * per_block - 1);
        assert_eq!(trace.total(), BLOCKS * per_block);
        assert!(trace.events.get().is_none());
        // Built once, on the first read.
        let events = trace.events();
        assert_eq!(events.len(), per_block + 1);
        assert!(std::ptr::eq(events, trace.events()));
        // Clones and comparisons go by the events, not by the packing.
        assert_eq!(trace.clone(), *trace);
        assert_ne!(gradient(per_block + 2).0.trace(), trace);
    }

    #[test]
    fn events_render_readably() {
        let load = Event {
            cycle: 3,
            fu: 1,
            block: 0,
            kind: EventKind::Load {
                register: 2,
                value: Value::new(7),
                forwarded: true,
            },
        };
        let text = load.to_string();
        assert!(text.contains("FU1"));
        assert!(text.contains("r2"));
        assert!(text.contains("[fwd]"));
        let out = Event {
            cycle: 9,
            fu: 4,
            block: 1,
            kind: EventKind::Output {
                position: 0,
                value: Value::new(10),
            },
        };
        assert!(out.to_string().contains("out[0] = 10"));
    }
}
