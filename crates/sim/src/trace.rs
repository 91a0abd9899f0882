//! Execution traces.

use std::fmt;

use overlay_dfg::Value;

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

/// A bounded event trace.
///
/// Tracing every cycle of a long simulation would dominate memory, so the
/// trace stores at most `capacity` events and counts the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    events: Vec<Event>,
    capacity: usize,
    dropped: usize,
}

impl Trace {
    /// Creates a trace that keeps at most `capacity` events. Nothing is
    /// allocated until [`Trace::reserve`] or the first recorded event.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// A trace that records nothing (used for performance runs).
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }

    /// Allocates, once, the storage for a run known to emit `expected` more
    /// events: room for `min(capacity, expected)` of them, so the event
    /// vector never regrows while the run records.
    pub fn reserve(&mut self, expected: usize) {
        let room = self.capacity.saturating_sub(self.events.len());
        self.events.reserve_exact(expected.min(room));
    }

    /// Records an event (or counts it as dropped once the capacity is
    /// reached).
    pub fn record(&mut self, event: Event) {
        self.record_with(|| event);
    }

    /// Like [`Trace::record`], but builds the event only if it will be kept:
    /// a full or disabled trace counts the drop and never calls `event`.
    pub fn record_with(&mut self, event: impl FnOnce() -> Event) {
        if self.events.len() < self.capacity {
            self.events.push(event());
        } else {
            self.dropped += 1;
        }
    }

    /// Records `events`, in order, building only those the trace keeps and
    /// counting the rest as dropped.
    pub(crate) fn record_all(&mut self, events: impl ExactSizeIterator<Item = Event>) {
        let room = self.capacity.saturating_sub(self.events.len());
        self.dropped += events.len().saturating_sub(room);
        self.events.extend(events.take(room));
    }

    /// Counts `events` events nobody built because the trace is full.
    pub(crate) fn count_dropped(&mut self, events: usize) {
        self.dropped += events;
    }

    /// The recorded events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// How many events did not fit in the capacity.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Total events observed (recorded + dropped).
    pub fn total(&self) -> usize {
        self.events.len() + self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cycle: usize) -> Event {
        Event {
            cycle,
            fu: 0,
            block: 0,
            kind: EventKind::Nop,
        }
    }

    #[test]
    fn trace_respects_its_capacity() {
        let mut trace = Trace::with_capacity(2);
        for cycle in 1..=5 {
            trace.record(event(cycle));
        }
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.total(), 5);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::disabled();
        trace.record(event(1));
        assert!(trace.events().is_empty());
        assert_eq!(trace.total(), 1);
    }

    #[test]
    fn a_full_trace_counts_drops_without_building_the_event() {
        let mut trace = Trace::with_capacity(1);
        trace.record_with(|| event(1));
        trace.record_with(|| unreachable!("the trace is full"));
        assert_eq!(trace.events().len(), 1);
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn reserve_allocates_no_more_than_the_capacity_or_the_expected_events() {
        let mut trace = Trace::with_capacity(8);
        trace.reserve(3);
        assert!((3..8).contains(&trace.events.capacity()));
        let mut trace = Trace::with_capacity(8);
        trace.reserve(usize::MAX);
        assert!((8..16).contains(&trace.events.capacity()));
        let mut trace = Trace::disabled();
        trace.reserve(100);
        assert_eq!(trace.events.capacity(), 0);
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
