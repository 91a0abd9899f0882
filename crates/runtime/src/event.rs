//! The virtual-time event queue at the heart of the online runtime.
//!
//! [`serve_stream`](crate::Runtime::serve_stream) is a discrete-event
//! simulation over *modeled* (virtual) time: request arrivals and tile
//! completions are [`Event`]s ordered by their virtual timestamp, and every
//! dispatch decision happens when its event fires — never with knowledge of
//! the future trace. The [`EventQueue`] enforces the two invariants the
//! runtime's correctness arguments lean on:
//!
//! * **monotonicity** — events pop in non-decreasing virtual time, so
//!   completions are observed in timeline order;
//! * **no time travel** — an event can only be scheduled at or after the
//!   current virtual time (`push` asserts this).
//!
//! Ties are broken by insertion order, which keeps the whole loop
//! deterministic for a given submission order.
//!
//! The event pop is also the observability sampling point: both serve loops
//! record the pre-update waiting count into the queue-depth
//! [`LogHistogram`](crate::obs::LogHistogram) and attribute the queue-area
//! bookkeeping to the `Bookkeeping` stage of the opt-in
//! [`StageProfiler`](crate::obs::StageProfiler) at every event head, so one
//! sample lands per fired event in both the [`Runtime`](crate::Runtime) and
//! [`Cluster`](crate::Cluster) loops — identically, which is what keeps the
//! histograms bitwise comparable across the two tiers.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A submitted request reaches the dispatcher (admission + placement).
    Arrival {
        /// Intake index of the request (submission order).
        index: usize,
    },
    /// A tile finishes its running request and can start its next one.
    TileFree {
        /// The tile that became free.
        tile: usize,
    },
    /// A scheduled fault fires (cluster tier only; never scheduled without
    /// an installed [`FaultPlan`](crate::FaultPlan)).
    Fault {
        /// Index into the validated fault plan's event list.
        fault: usize,
    },
    /// A request displaced off a dead or draining device re-enters routing
    /// (cluster tier only; never scheduled without faults).
    Requeue {
        /// Intake index of the displaced request.
        index: usize,
    },
}

/// One scheduled occurrence on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time at which the event fires, microseconds.
    pub time_us: f64,
    /// Insertion sequence number, the deterministic tie-break.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

/// Internal heap entry: min-heap by `(time_us, seq)` on top of the std
/// max-heap.
#[derive(Debug)]
struct HeapEntry(Event);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.time_us.total_cmp(&other.0.time_us) == Ordering::Equal && self.0.seq == other.0.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the std BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        other
            .0
            .time_us
            .total_cmp(&self.0.time_us)
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

/// A monotone virtual-time priority queue of [`Event`]s.
///
/// Two lanes share one total order by `(time, seq)`: a binary heap for
/// events scheduled in arbitrary order (tile completions), and a plain FIFO
/// for the *monotone* lane ([`push_monotone`](EventQueue::push_monotone)) —
/// request arrivals enter in non-decreasing time order, so they need no
/// heap sift at all.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
    monotone: VecDeque<Event>,
    next_seq: u64,
    now_us: f64,
    fired: u64,
}

impl EventQueue {
    /// An empty queue with the virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Schedules `kind` to fire at `time_us`.
    ///
    /// # Panics
    ///
    /// Panics if `time_us` is NaN or earlier than the current virtual time —
    /// the online runtime never schedules into the past.
    pub fn push(&mut self, time_us: f64, kind: EventKind) {
        assert!(
            time_us >= self.now_us,
            "event at {time_us} us scheduled before virtual now ({} us)",
            self.now_us
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Event { time_us, seq, kind }));
    }

    /// Schedules `kind` at `time_us` on the monotone lane: times must be
    /// non-decreasing across `push_monotone` calls, which is exactly the
    /// order submissions arrive in — so the event needs a FIFO append
    /// instead of a heap sift. Ordering relative to [`push`](Self::push)ed
    /// events is identical (one `(time, seq)` order spans both lanes).
    ///
    /// # Panics
    ///
    /// Panics if `time_us` is NaN, earlier than the current virtual time, or
    /// earlier than the last monotone event.
    pub fn push_monotone(&mut self, time_us: f64, kind: EventKind) {
        assert!(
            time_us >= self.now_us,
            "event at {time_us} us scheduled before virtual now ({} us)",
            self.now_us
        );
        if let Some(last) = self.monotone.back() {
            assert!(
                time_us >= last.time_us,
                "monotone event at {time_us} us scheduled before the lane's tail ({} us)",
                last.time_us
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.monotone.push_back(Event { time_us, seq, kind });
    }

    /// Whether the heap lane's head fires before the monotone lane's head.
    fn heap_first(&self) -> bool {
        match (self.heap.peek(), self.monotone.front()) {
            (Some(_), None) => true,
            (None, _) => false,
            (Some(entry), Some(front)) => {
                (entry.0.time_us, entry.0.seq) < (front.time_us, front.seq)
            }
        }
    }

    /// The virtual time of the earliest pending event, if any.
    pub fn peek_time_us(&self) -> Option<f64> {
        if self.heap_first() {
            self.heap.peek().map(|entry| entry.0.time_us)
        } else {
            self.monotone.front().map(|event| event.time_us)
        }
    }

    /// Pops the earliest pending event and advances the virtual clock to it.
    pub fn pop(&mut self) -> Option<Event> {
        let event = if self.heap_first() {
            self.heap.pop()?.0
        } else {
            self.monotone.pop_front()?
        };
        debug_assert!(event.time_us >= self.now_us, "virtual time ran backwards");
        self.now_us = event.time_us;
        self.fired += 1;
        Some(event)
    }

    /// Number of events fired (popped) so far — the host-side event count
    /// throughput benchmarks divide wall time by.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.monotone.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.monotone.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_virtual_time_order() {
        let mut queue = EventQueue::new();
        queue.push(5.0, EventKind::TileFree { tile: 1 });
        queue.push(1.0, EventKind::Arrival { index: 0 });
        queue.push(3.0, EventKind::Arrival { index: 1 });
        let times: Vec<f64> = std::iter::from_fn(|| queue.pop().map(|e| e.time_us)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(queue.now_us(), 5.0);
        assert_eq!(queue.fired(), 3);
        assert!(queue.is_empty());
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut queue = EventQueue::new();
        queue.push(2.0, EventKind::Arrival { index: 7 });
        queue.push(2.0, EventKind::TileFree { tile: 3 });
        queue.push(2.0, EventKind::Arrival { index: 8 });
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.peek_time_us(), Some(2.0));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| queue.pop().map(|e| e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrival { index: 7 },
                EventKind::TileFree { tile: 3 },
                EventKind::Arrival { index: 8 },
            ]
        );
    }

    /// The monotone lane and the heap lane share one `(time, seq)` order:
    /// interleaved pushes fire exactly as they would from a single heap.
    #[test]
    fn monotone_and_heap_lanes_interleave_by_time_then_insertion() {
        let mut queue = EventQueue::new();
        queue.push_monotone(1.0, EventKind::Arrival { index: 0 });
        queue.push(3.0, EventKind::TileFree { tile: 0 });
        queue.push_monotone(3.0, EventKind::Arrival { index: 1 });
        queue.push(2.0, EventKind::TileFree { tile: 1 });
        queue.push_monotone(4.0, EventKind::Arrival { index: 2 });
        assert_eq!(queue.len(), 5);
        let fired: Vec<(f64, EventKind)> =
            std::iter::from_fn(|| queue.pop().map(|e| (e.time_us, e.kind))).collect();
        assert_eq!(
            fired,
            vec![
                (1.0, EventKind::Arrival { index: 0 }),
                (2.0, EventKind::TileFree { tile: 1 }),
                // Same timestamp: the tile-free was pushed first, so its
                // lower seq fires first.
                (3.0, EventKind::TileFree { tile: 0 }),
                (3.0, EventKind::Arrival { index: 1 }),
                (4.0, EventKind::Arrival { index: 2 }),
            ]
        );
        assert!(queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "before the lane's tail")]
    fn monotone_lane_rejects_time_regressions() {
        let mut queue = EventQueue::new();
        queue.push_monotone(5.0, EventKind::Arrival { index: 0 });
        queue.push_monotone(4.0, EventKind::Arrival { index: 1 });
    }

    #[test]
    fn the_clock_only_moves_forward() {
        let mut queue = EventQueue::new();
        queue.push(4.0, EventKind::TileFree { tile: 0 });
        queue.pop();
        // Scheduling at the current instant is fine...
        queue.push(4.0, EventKind::TileFree { tile: 0 });
        queue.pop();
        assert_eq!(queue.now_us(), 4.0);
    }

    #[test]
    #[should_panic(expected = "scheduled before virtual now")]
    fn scheduling_into_the_past_panics() {
        let mut queue = EventQueue::new();
        queue.push(10.0, EventKind::TileFree { tile: 0 });
        queue.pop();
        queue.push(9.0, EventKind::TileFree { tile: 0 });
    }
}
