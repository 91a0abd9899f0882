//! Online, context-switch-aware placement of requests onto tiles.
//!
//! The dispatcher is consulted twice per request, both times against *live*
//! per-tile queue state and never with knowledge of the future trace:
//!
//! 1. **at the arrival event** — [`Dispatcher::place`] picks the tile whose
//!    queue the request joins, estimating each tile's completion as its
//!    backlog plus any required context switch. The switch estimate charges
//!    the [`overlay_arch::ReconfigModel`] cost: a ~0.25 µs instruction
//!    reload on the write-back variants (V3–V5), a ~1 ms PCAP partial
//!    reconfiguration on the feed-forward ones — which is exactly why kernel
//!    affinity matters so much more for V1/V2 pools.
//! 2. **at the tile-free event** — the freed tile's queue yields the request
//!    it runs next. [`KernelAffinity`](DispatchPolicy::KernelAffinity)
//!    takes the oldest; [`SlackAware`] takes the least *slack* —
//!    time to deadline minus modeled service and the switch cost the tile
//!    would pay — so a request whose kernel is already resident (zero
//!    switch) is correctly seen as less urgent than one that must pay a
//!    reload first.
//!
//! # Indexed decisions, one reference
//!
//! Placement is answered from the [`TilePool`]'s residency index in a
//! handful of first-entry lookups, and tile queues drain through a `TileQueue` — a per-policy
//! ordered structure (FIFO deque or per-kernel slack buckets) that pops in
//! O(log depth) instead of an O(depth) scan-and-remove. The event loop has
//! no other path, and this file keeps no second copy of either decision.
//!
//! Their definitions live in the dev-only reference serve,
//! `tests/support/reference.rs`: placement as the minimum of `(completion,
//! needs switch, evicts warm, tile)` over every tile, queue order as the
//! oldest waiter or the minimum of `(adjusted slack, slack, intake index)`
//! over every waiter. Every serve is held to it bitwise, by a proptest in
//! `tests/runtime_equivalence.rs` and an exhaustive small-scope enumeration
//! in `tests/small_scope.rs`. [`SlackAware`] ties on *exactly* equal
//! adjusted slack prefer the request needing no switch, then the lowest
//! intake index; the buckets compare the same `(adjusted, base, index)`
//! key, so no floating-point re-association separates the two.
//!
//! [`SlackAware`]: DispatchPolicy::SlackAware
//!
//! During a pipeline serve ([`Cluster::serve_pipelines`]) each stage of a
//! [`PipelineRequest`](crate::PipelineRequest) flows through these same two
//! decision points as an ordinary request — the only session-tier additions
//! the dispatcher sees are an activation-transfer charge folded into the
//! stage's switch estimate, and the pipeline deadline carried by sink
//! stages of latency-tier pipelines, which [`SlackAware`] treats exactly
//! like a per-request deadline.
//!
//! [`Cluster::serve_pipelines`]: crate::Cluster::serve_pipelines
//!
//! Both decision points are also instrumented: the serve's opt-in host-time
//! timers bill placement to [`Stage::Route`](crate::obs::Stage::Route) and
//! queue-drain selection to [`Stage::Scan`](crate::obs::Stage::Scan) (zero
//! clock reads when off), and with tracing on the outcome of each decision
//! lands in the request's span timeline — the queue it joined as
//! `QueueWait`, the switch it paid as `ContextSwitch` — so the per-policy
//! cost *and* effect are both visible in one trace. `tests/observability.rs` pins that the
//! instrumentation never perturbs a decision.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::cache::{FnvHashMap, KernelKey};
use crate::pool::{TilePool, TileState, TimeKey};

/// How the dispatcher places arrivals and orders tile queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchPolicy {
    /// Greedy earliest-completion placement that charges the modeled
    /// context-switch cost for every kernel swap; tile queues drain FIFO.
    #[default]
    KernelAffinity,
    /// Earliest-completion placement, with tile queues drained in order of
    /// *slack*: deadline − modeled service − modeled switch cost against the
    /// tile's resident kernel (requests without a deadline go last, FIFO
    /// among themselves). Unlike a plain deadline order this sees that a
    /// request needing a ~1 ms PCAP swap is closer to its deadline than its
    /// timestamp alone suggests. Slack ties prefer the request that needs no
    /// switch, then FIFO order.
    SlackAware,
}

impl DispatchPolicy {
    /// Every policy, in documentation order.
    pub const ALL: [DispatchPolicy; 2] =
        [DispatchPolicy::KernelAffinity, DispatchPolicy::SlackAware];
}

impl fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPolicy::KernelAffinity => f.write_str("kernel-affinity"),
            DispatchPolicy::SlackAware => f.write_str("slack-aware"),
        }
    }
}

/// One admitted request as the dispatcher sees it at an event: its kernel
/// identity plus the modeled cost estimates decisions are made from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchRequest {
    /// The compiled-kernel identity the request needs.
    pub key: KernelKey,
    /// Estimated execution (service) time, microseconds.
    pub est_exec_us: f64,
    /// Context-switch cost if a tile must swap to this kernel, microseconds.
    pub switch_us: f64,
    /// Absolute completion deadline, if the request carries one.
    pub deadline_us: Option<f64>,
}

impl DispatchRequest {
    /// The request's slack on `tile` at virtual time `now_us`: time to its
    /// deadline minus the modeled service and the switch cost the tile would
    /// pay. `INFINITY` for requests without a deadline.
    pub fn slack_us(&self, tile: &TileState, now_us: f64) -> f64 {
        match self.deadline_us {
            Some(deadline) => {
                deadline - now_us - self.est_exec_us - tile.switch_cost(self.key, self.switch_us)
            }
            None => f64::INFINITY,
        }
    }

    /// The time-independent part of the slack ordering: deadline
    /// (`INFINITY` when none) minus modeled service. The uniform `now`
    /// offset cancels out of any comparison between queued requests, so
    /// selection drops it — which is what lets the same key live in an
    /// incremental heap.
    fn slack_base(&self) -> f64 {
        self.deadline_us.unwrap_or(f64::INFINITY) - self.est_exec_us
    }
}

/// Makes per-event placement and queue-ordering decisions under a
/// [`DispatchPolicy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Dispatcher {
    policy: DispatchPolicy,
}

impl Dispatcher {
    /// A dispatcher using `policy`.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Placement decision at an arrival event: the tile whose queue the
    /// request joins, given the pool's live queue state at virtual time
    /// `now_us`. Both policies place at the earliest estimated completion.
    pub fn place(&mut self, request: &DispatchRequest, now_us: f64, pool: &TilePool) -> usize {
        pool.place_earliest_indexed(request.key, request.est_exec_us, request.switch_us, now_us)
    }
}

/// One tile's waiting queue: an
/// insertion-ordered deque (for FIFO draining and the residency-projection
/// tail query) plus a policy-specific ordered structure so the next request
/// pops in O(log depth) instead of an O(depth) scan-and-remove.
///
/// Selection removes entries logically by flagging them in the caller's
/// `taken` bitmap; the deque and heaps drop flagged entries lazily, so every
/// entry is pushed and popped at most once — O(log depth) amortized per
/// event.
#[derive(Debug)]
pub(crate) struct TileQueue {
    /// `(intake index, kernel)` in insertion (FIFO) order. Lazily cleaned
    /// against the `taken` bitmap at both ends.
    order: VecDeque<(usize, KernelKey)>,
    /// Per-kernel FIFO of intake indices, lazily cleaned at the front —
    /// answers the batcher's "oldest waiter of the resident kernel" query
    /// in O(1) amortized. Maintained only while batching is enabled
    /// (`track_kernels`), so the default configuration pays nothing.
    by_kernel: FnvHashMap<KernelKey, VecDeque<usize>>,
    /// Whether `by_kernel` is maintained.
    track_kernels: bool,
    /// Number of live (not yet taken) entries.
    live: usize,
    index: QueueOrder,
}

#[derive(Debug)]
enum QueueOrder {
    /// Kernel affinity pops straight off the deque.
    Fifo,
    /// Slack-aware: per-kernel buckets, each a min-heap by (deadline −
    /// service, intake index). Within a bucket the switch cost is constant
    /// (one compiled artifact per kernel key), so the bucket order *is* the
    /// slack order; across buckets the selection adjusts each bucket's best
    /// by that bucket's switch cost against the resident kernel — O(distinct
    /// queued kernels) per pop, with kernel affinity keeping that count low.
    Slack(FnvHashMap<KernelKey, SlackBucket>),
}

#[derive(Debug)]
struct SlackBucket {
    switch_us: f64,
    heap: BinaryHeap<Reverse<(TimeKey, usize)>>,
}

impl TileQueue {
    /// A queue ordered for `policy`; `track_kernels` additionally maintains
    /// the per-kernel FIFO index the batching layer queries (skip it when
    /// batching is disabled — nothing would ever read it).
    pub(crate) fn new(policy: DispatchPolicy, track_kernels: bool) -> Self {
        let index = match policy {
            DispatchPolicy::KernelAffinity => QueueOrder::Fifo,
            DispatchPolicy::SlackAware => QueueOrder::Slack(FnvHashMap::default()),
        };
        TileQueue {
            order: VecDeque::new(),
            by_kernel: FnvHashMap::default(),
            track_kernels,
            live: 0,
            index,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Appends an arriving request (by intake index, with its cached
    /// dispatch view).
    pub(crate) fn push(&mut self, index: usize, view: &DispatchRequest) {
        self.order.push_back((index, view.key));
        if self.track_kernels {
            self.by_kernel.entry(view.key).or_default().push_back(index);
        }
        self.live += 1;
        match &mut self.index {
            QueueOrder::Fifo => {}
            QueueOrder::Slack(buckets) => {
                let bucket = buckets.entry(view.key).or_insert_with(|| SlackBucket {
                    switch_us: view.switch_us,
                    heap: BinaryHeap::new(),
                });
                bucket
                    .heap
                    .push(Reverse((TimeKey(view.slack_base()), index)));
            }
        }
    }

    /// The intake index the freed tile (hosting `resident`) would run next
    /// under the dispatch policy, without removing it — the choice the
    /// batching layer inspects before committing. Taken entries are lazily
    /// dropped off the ordered structures on the way (they are already
    /// logically removed).
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub(crate) fn peek_next(&mut self, resident: Option<KernelKey>, taken: &[bool]) -> usize {
        assert!(self.live > 0, "pop from an empty tile queue");
        match &mut self.index {
            QueueOrder::Fifo => loop {
                let &(index, _) = self.order.front().expect("live entries imply a front");
                if taken[index] {
                    self.order.pop_front();
                } else {
                    break index;
                }
            },
            QueueOrder::Slack(buckets) => {
                let mut best: Option<(TimeKey, TimeKey, usize)> = None;
                let mut drained: Vec<KernelKey> = Vec::new();
                for (&kernel, bucket) in buckets.iter_mut() {
                    // Lazily drop taken entries off this bucket's top.
                    while let Some(&Reverse((_, index))) = bucket.heap.peek() {
                        if taken[index] {
                            bucket.heap.pop();
                        } else {
                            break;
                        }
                    }
                    let Some(&Reverse((base, index))) = bucket.heap.peek() else {
                        drained.push(kernel);
                        continue;
                    };
                    let adjusted = if resident == Some(kernel) {
                        base
                    } else {
                        TimeKey(base.0 - bucket.switch_us)
                    };
                    let candidate = (adjusted, base, index);
                    if best.is_none_or(|current| candidate < current) {
                        best = Some(candidate);
                    }
                }
                for kernel in drained {
                    buckets.remove(&kernel);
                }
                best.expect("live entries imply a candidate").2
            }
        }
    }

    /// Logically removes intake `index` (a live entry of this queue) by
    /// flagging it in `taken`; the ordered structures drop it lazily.
    pub(crate) fn take(&mut self, index: usize, taken: &mut [bool]) {
        debug_assert!(!taken[index], "an entry is taken at most once");
        taken[index] = true;
        self.live -= 1;
    }

    /// The oldest live waiter for `kernel` (FIFO within the kernel), if any
    /// — the batching layer's same-kernel candidate.
    pub(crate) fn oldest_for_kernel(&mut self, kernel: KernelKey, taken: &[bool]) -> Option<usize> {
        debug_assert!(self.track_kernels, "batching queries an untracked queue");
        let deque = self.by_kernel.get_mut(&kernel)?;
        while let Some(&index) = deque.front() {
            if taken[index] {
                deque.pop_front();
            } else {
                return Some(index);
            }
        }
        self.by_kernel.remove(&kernel);
        None
    }

    /// Empties the queue, returning the live intake indices in FIFO
    /// (insertion) order — fault injection's bulk evacuation of a dead or
    /// draining tile. Every ordered structure is fully reset, so stale
    /// entries cannot resurface if an evacuated index is later re-enqueued
    /// here with its `taken` flag cleared. The flags themselves are left
    /// untouched; evacuated requests re-enter routing as displaced work.
    pub(crate) fn drain_live(&mut self, taken: &[bool]) -> Vec<usize> {
        let live: Vec<usize> = self
            .order
            .drain(..)
            .filter_map(|(index, _)| (!taken[index]).then_some(index))
            .collect();
        debug_assert_eq!(live.len(), self.live, "live count matches the deque");
        self.by_kernel.clear();
        self.live = 0;
        match &mut self.index {
            QueueOrder::Fifo => {}
            QueueOrder::Slack(buckets) => buckets.clear(),
        }
        live
    }

    /// The kernel of the request currently last in the queue (FIFO order),
    /// skipping taken entries — what the pool's residency projection needs
    /// after a mid-queue removal.
    pub(crate) fn tail_key(&mut self, taken: &[bool]) -> Option<KernelKey> {
        while let Some(&(index, _)) = self.order.back() {
            if taken[index] {
                self.order.pop_back();
            } else {
                break;
            }
        }
        self.order.back().map(|&(_, kernel)| kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_arch::{FuVariant, TileComposition};

    fn key(fingerprint: u64) -> KernelKey {
        KernelKey {
            fingerprint,
            variant: FuVariant::V4,
            depth: 8,
        }
    }

    fn request(fingerprint: u64) -> DispatchRequest {
        DispatchRequest {
            key: key(fingerprint),
            est_exec_us: 10.0,
            switch_us: 0.25,
            deadline_us: None,
        }
    }

    fn with_deadline(fingerprint: u64, deadline_us: f64) -> DispatchRequest {
        DispatchRequest {
            deadline_us: Some(deadline_us),
            ..request(fingerprint)
        }
    }

    fn pool(tiles: usize) -> TilePool {
        TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, tiles).unwrap()
    }

    /// Replays a trace through place + charge + release, as the event loop
    /// would with every tile draining instantly (no queueing).
    fn place_all(
        dispatcher: &mut Dispatcher,
        trace: &[(f64, DispatchRequest)],
    ) -> (TilePool, Vec<usize>) {
        let mut p = pool(3);
        let mut tiles = Vec::new();
        for (arrival, req) in trace {
            for tile in 0..p.num_tiles() {
                if p.states()[tile].running && p.states()[tile].available_us <= *arrival {
                    p.release(tile);
                }
            }
            let tile = dispatcher.place(req, *arrival, &p);
            p.charge(tile, req.key, *arrival, req.switch_us, req.est_exec_us);
            tiles.push(tile);
        }
        (p, tiles)
    }

    /// With arrivals spaced out (no queueing pressure), affinity placement
    /// settles into one tile per kernel and only ever pays the cold-start
    /// switches.
    #[test]
    fn affinity_pins_kernels_when_tiles_are_not_contended() {
        let trace: Vec<(f64, DispatchRequest)> = (0..16u64)
            .map(|i| (i as f64 * 50.0, request(i % 2)))
            .collect();
        let mut dispatcher = Dispatcher::new(DispatchPolicy::KernelAffinity);
        let (p, tiles) = place_all(&mut dispatcher, &trace);
        let switches: usize = p.states().iter().map(|s| s.switches).sum();
        assert_eq!(switches, 2, "one cold start per kernel, then pinned");
        assert_eq!(tiles[0], 0, "first kernel takes the lowest index");
    }

    #[test]
    fn affinity_prefers_the_resident_tile_over_an_expensive_swap() {
        // Tile 0 hosts kernel 1 and is busy until t=5; tile 1 is idle but
        // cold. With a 1000 us switch cost, waiting for tile 0 wins.
        let expensive = DispatchRequest {
            key: key(1),
            est_exec_us: 10.0,
            switch_us: 1000.0,
            deadline_us: None,
        };
        let mut p = pool(2);
        p.charge(0, key(1), 0.0, 0.0, 5.0);
        let mut dispatcher = Dispatcher::new(DispatchPolicy::KernelAffinity);
        assert_eq!(dispatcher.place(&expensive, 0.0, &p), 0);
    }

    #[test]
    fn placement_counts_queued_backlog_and_projected_residency() {
        // Tile 0 hosts kernel 1 but has 3 queued requests (30 us of backlog)
        // with kernel 2 last in line; tile 1 is idle and cold. The queue
        // makes tile 1's cold start the earlier completion, and tile 0's
        // projected resident (kernel 2) means kernel 1 would switch anyway.
        let mut p = pool(2);
        p.charge(0, key(1), 0.0, 0.0, 1.0);
        for fp in [1, 1, 2] {
            p.enqueue(0, key(fp), 10.0);
        }
        let mut dispatcher = Dispatcher::new(DispatchPolicy::KernelAffinity);
        assert_eq!(
            dispatcher.place(&request(1), 0.0, &p),
            1,
            "queued backlog outweighs residency"
        );
    }

    /// The intake index a `policy` queue of `views` (intake indices in
    /// order) runs next on a tile holding `resident`.
    fn next_of(
        policy: DispatchPolicy,
        resident: Option<KernelKey>,
        views: &[DispatchRequest],
    ) -> usize {
        let mut queue = TileQueue::new(policy, false);
        for (index, view) in views.iter().enumerate() {
            queue.push(index, view);
        }
        queue.peek_next(resident, &vec![false; views.len()])
    }

    #[test]
    fn fifo_policies_always_take_the_oldest_queued_request() {
        let queue = [with_deadline(1, 5.0), with_deadline(2, 1.0)];
        assert_eq!(
            next_of(DispatchPolicy::KernelAffinity, None, &queue),
            0,
            "kernel affinity drains FIFO"
        );
    }

    #[test]
    fn slack_aware_charges_the_switch_cost_against_the_deadline() {
        // Two requests with the same deadline and service time; the tile
        // hosts kernel 1, so kernel 2 must pay a switch and has less slack.
        let mut p = pool(1);
        p.charge(0, key(1), 0.0, 0.0, 5.0);
        let resident = with_deadline(1, 100.0);
        let cold = DispatchRequest {
            switch_us: 20.0,
            ..with_deadline(2, 100.0)
        };
        assert_eq!(
            next_of(DispatchPolicy::SlackAware, Some(key(1)), &[resident, cold]),
            1,
            "the swap eats 20 us of kernel 2's slack"
        );
        assert!((resident.slack_us(&p.states()[0], 0.0) - 90.0).abs() < 1e-12);
        assert!((cold.slack_us(&p.states()[0], 0.0) - 70.0).abs() < 1e-12);
        assert_eq!(request(1).slack_us(&p.states()[0], 0.0), f64::INFINITY);
    }

    /// On an exact slack tie, the request whose kernel is already resident
    /// wins (no gratuitous switch); exact full ties fall back to FIFO.
    #[test]
    fn slack_ties_prefer_the_resident_kernel_then_fifo() {
        // Request 1 (cold, switch 20): adjusted slack 100-10-20 = 70.
        // Request 2 (resident): deadline 80 gives the same 80-10 = 70.
        let cold = DispatchRequest {
            switch_us: 20.0,
            ..with_deadline(1, 100.0)
        };
        let resident = with_deadline(2, 80.0);
        let slack_aware =
            |views: &[DispatchRequest]| next_of(DispatchPolicy::SlackAware, Some(key(2)), views);
        assert_eq!(
            slack_aware(&[cold, resident]),
            1,
            "equal slack resolves to the no-switch request"
        );
        // Identical requests: FIFO.
        assert_eq!(slack_aware(&[cold, cold]), 0, "exact ties drain FIFO");
    }

    #[test]
    fn policies_display_and_default() {
        assert_eq!(DispatchPolicy::default(), DispatchPolicy::KernelAffinity);
        let names: Vec<String> = DispatchPolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["kernel-affinity", "slack-aware"]);
        assert_eq!(
            Dispatcher::default().policy(),
            DispatchPolicy::KernelAffinity
        );
    }
}
