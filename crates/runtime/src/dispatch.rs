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
//!    it runs next. The FIFO policies take the oldest;
//!    [`EarliestDeadlineFirst`](DispatchPolicy::EarliestDeadlineFirst)
//!    takes the tightest absolute deadline; and
//!    [`SlackAware`](DispatchPolicy::SlackAware) takes the least *slack* —
//!    time to deadline minus modeled service and the switch cost the tile
//!    would pay — so a request whose kernel is already resident (zero
//!    switch) is correctly seen as less urgent than one that must pay a
//!    reload first.
//!
//! # Indexed decisions, linear references
//!
//! Placement is answered from the [`TilePool`]'s residency index in a
//! handful of first-entry lookups, and tile queues drain through [`TileQueue`] — a per-policy
//! ordered structure (FIFO deque, deadline min-heap, or per-kernel slack
//! buckets) that pops in O(log depth) instead of an O(depth)
//! scan-and-remove. The event loop has no other path.
//!
//! The original linear scans survive only as decision-level references the
//! unit tests compare against, one decision at a time:
//! `Dispatcher::earliest_completion_linear` (test-only) for placement and
//! [`Dispatcher::select_next`] for queue ordering. [`SlackAware`] ties on
//! *exactly* equal adjusted slack prefer the request needing no switch over
//! pure FIFO order; the reference and the incremental heaps compare the
//! same `(adjusted, base, position)` key, which keeps them bit-for-bit
//! agreed without floating-point re-association hazards.
//!
//! [`SlackAware`]: DispatchPolicy::SlackAware
//!
//! During a pipeline serve ([`Cluster::serve_pipelines`]) each stage of a
//! [`PipelineRequest`](crate::PipelineRequest) flows through these same two
//! decision points as an ordinary request — the only session-tier additions
//! the dispatcher sees are an activation-transfer charge folded into the
//! stage's switch estimate, and the pipeline deadline carried by sink
//! stages of latency-tier pipelines, which the deadline-aware policies
//! treat exactly like a per-request deadline.
//!
//! [`Cluster::serve_pipelines`]: crate::Cluster::serve_pipelines
//!
//! Both decision points are also instrumented: the opt-in
//! [`StageProfiler`](crate::obs::StageProfiler) bills placement and
//! queue-drain selection to its `Scan` stage (host nanoseconds, zero clock
//! reads when off), and with tracing on the outcome of each decision lands
//! in the request's span timeline — the queue it joined as `QueueWait`, the
//! switch it paid as `ContextSwitch` — so the per-policy cost *and* effect
//! are both visible in one trace. `tests/observability.rs` pins that the
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
    /// Naive round-robin placement, blind to resident kernels, switch costs
    /// and deadlines; tile queues drain FIFO.
    RoundRobin,
    /// Earliest-completion placement like
    /// [`KernelAffinity`](DispatchPolicy::KernelAffinity), but each tile
    /// drains its queue in order of absolute deadline (requests without a
    /// deadline go last, FIFO among themselves).
    EarliestDeadlineFirst,
    /// Earliest-completion placement, with tile queues drained in order of
    /// *slack*: deadline − modeled service − modeled switch cost against the
    /// tile's resident kernel. Unlike EDF this sees that a request needing a
    /// ~1 ms PCAP swap is closer to its deadline than its timestamp alone
    /// suggests. Slack ties prefer the request that needs no switch, then
    /// FIFO order.
    SlackAware,
}

impl DispatchPolicy {
    /// Every policy, in documentation order.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::KernelAffinity,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::EarliestDeadlineFirst,
        DispatchPolicy::SlackAware,
    ];

    /// Whether the policy reorders tile queues by deadline urgency.
    pub fn is_deadline_aware(self) -> bool {
        matches!(
            self,
            DispatchPolicy::EarliestDeadlineFirst | DispatchPolicy::SlackAware
        )
    }
}

impl fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPolicy::KernelAffinity => f.write_str("kernel-affinity"),
            DispatchPolicy::RoundRobin => f.write_str("round-robin"),
            DispatchPolicy::EarliestDeadlineFirst => f.write_str("edf"),
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

    /// The EDF selection key: the absolute deadline, `INFINITY` when none.
    fn edf_key(&self) -> f64 {
        self.deadline_us.unwrap_or(f64::INFINITY)
    }

    /// The time-independent part of the slack ordering: deadline minus
    /// modeled service. The uniform `now` offset cancels out of any
    /// comparison between queued requests, so selection drops it — which is
    /// what lets the same key live in an incremental heap.
    fn slack_base(&self) -> f64 {
        self.edf_key() - self.est_exec_us
    }

    /// The slack selection key against `resident`: `(adjusted, base)` where
    /// `adjusted` subtracts the switch cost the tile would pay. The `base`
    /// component breaks adjusted ties in favor of the request that needs no
    /// switch (then FIFO order breaks exact ties).
    fn slack_key(&self, resident: Option<KernelKey>) -> (TimeKey, TimeKey) {
        let base = self.slack_base();
        let adjusted = if resident == Some(self.key) {
            base
        } else {
            base - self.switch_us
        };
        (TimeKey(adjusted), TimeKey(base))
    }
}

/// Makes per-event placement and queue-ordering decisions under a
/// [`DispatchPolicy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    next_tile: usize,
}

impl Dispatcher {
    /// A dispatcher using `policy`.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher {
            policy,
            next_tile: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Clears per-serve state (the round-robin cursor).
    pub fn reset(&mut self) {
        self.next_tile = 0;
    }

    /// Placement decision at an arrival event: the tile whose queue the
    /// request joins, given the pool's live queue state at virtual time
    /// `now_us`.
    pub fn place(&mut self, request: &DispatchRequest, now_us: f64, pool: &TilePool) -> usize {
        match self.policy {
            DispatchPolicy::RoundRobin => {
                let tile = self.next_tile % pool.num_tiles();
                self.next_tile = self.next_tile.wrapping_add(1);
                tile
            }
            DispatchPolicy::KernelAffinity
            | DispatchPolicy::EarliestDeadlineFirst
            | DispatchPolicy::SlackAware => pool.place_earliest_indexed(
                request.key,
                request.est_exec_us,
                request.switch_us,
                now_us,
            ),
        }
    }

    /// The linear-scan reference for earliest-completion placement:
    /// every tile's completion for `request` is estimated as its backlog
    /// (running + queued work) plus any required context switch against the
    /// kernel the tile will be hosting once that backlog drains. Completion
    /// ties are broken by preferring (in order) a tile that needs no switch,
    /// a cold tile over evicting another warm kernel, and the lowest index —
    /// so equal-latency choices never spend switch time or kernel residency
    /// gratuitously, and decisions stay deterministic.
    ///
    /// [`TilePool::place_earliest_indexed`] answers the same query from the
    /// residency index without the scan; the unit tests hold the two to
    /// identical answers on every decision.
    #[cfg(test)]
    pub(crate) fn earliest_completion_linear(
        request: &DispatchRequest,
        now_us: f64,
        pool: &TilePool,
    ) -> usize {
        let mut best = (f64::INFINITY, true, true, usize::MAX);
        for state in pool.states() {
            let projected = state.projected_resident();
            let needs_switch = projected != Some(request.key);
            let evicts_warm = needs_switch && projected.is_some();
            let start = state.available_us.max(now_us) + state.queued_est_us;
            let switch = if needs_switch { request.switch_us } else { 0.0 };
            let completion = start + switch + request.est_exec_us;
            let candidate = (completion, needs_switch, evicts_warm, state.index);
            if candidate < best {
                best = candidate;
            }
        }
        best.3
    }

    /// The linear-scan queue-ordering reference: the position in `queue`
    /// (held in submission order) of the request `tile` should run next.
    ///
    /// Returns 0 (FIFO) for the deadline-blind policies and for an empty
    /// queue; EDF picks the tightest deadline, slack-aware the least
    /// [`slack`](DispatchRequest::slack_us) (ties prefer the request whose
    /// kernel is already resident). Exact ties fall back to FIFO.
    /// The event loop answers the same query from `TileQueue`'s
    /// incrementally-ordered structure; the unit tests hold the two to
    /// identical answers.
    pub fn select_next(&self, tile: &TileState, queue: &[DispatchRequest]) -> usize {
        match self.policy {
            DispatchPolicy::KernelAffinity | DispatchPolicy::RoundRobin => 0,
            DispatchPolicy::EarliestDeadlineFirst => {
                Self::argmin_by(queue, |request| (TimeKey(request.edf_key()), TimeKey(0.0)))
            }
            DispatchPolicy::SlackAware => {
                Self::argmin_by(queue, |request| request.slack_key(tile.resident))
            }
        }
    }

    /// Position of the minimum of `urgency` over `queue`, first-wins on ties
    /// (FIFO). Returns 0 for an empty queue.
    fn argmin_by(
        queue: &[DispatchRequest],
        urgency: impl Fn(&DispatchRequest) -> (TimeKey, TimeKey),
    ) -> usize {
        let mut best: Option<((TimeKey, TimeKey), usize)> = None;
        for (position, request) in queue.iter().enumerate() {
            let value = urgency(request);
            if best.is_none_or(|(current, _)| value < current) {
                best = Some((value, position));
            }
        }
        best.map_or(0, |(_, position)| position)
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
    /// FIFO policies pop straight off the deque.
    Fifo,
    /// EDF: min-heap by (deadline, intake index).
    Deadline(BinaryHeap<Reverse<(TimeKey, usize)>>),
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
            DispatchPolicy::KernelAffinity | DispatchPolicy::RoundRobin => QueueOrder::Fifo,
            DispatchPolicy::EarliestDeadlineFirst => QueueOrder::Deadline(BinaryHeap::new()),
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

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
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
            QueueOrder::Deadline(heap) => {
                heap.push(Reverse((TimeKey(view.edf_key()), index)));
            }
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
            QueueOrder::Deadline(heap) => loop {
                let &Reverse((_, index)) = heap.peek().expect("live entries imply a heap top");
                if taken[index] {
                    heap.pop();
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

    /// Removes and returns the intake index the freed tile (hosting
    /// `resident`) runs next, flagging it in `taken` —
    /// [`peek_next`](Self::peek_next) + [`take`](Self::take). (The event
    /// loops peek and take separately so the batching layer can intervene;
    /// this composition is kept for the selection-equivalence tests.)
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    #[cfg(test)]
    pub(crate) fn pop_next(&mut self, resident: Option<KernelKey>, taken: &mut [bool]) -> usize {
        let index = self.peek_next(resident, taken);
        self.take(index, taken);
        index
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
            QueueOrder::Deadline(heap) => heap.clear(),
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

    /// `dispatcher`'s placement of `request` — checked, for the
    /// earliest-completion policies, against the linear reference on the way.
    fn place_checked(
        dispatcher: &mut Dispatcher,
        request: &DispatchRequest,
        now_us: f64,
        pool: &TilePool,
    ) -> usize {
        let tile = dispatcher.place(request, now_us, pool);
        if dispatcher.policy() != DispatchPolicy::RoundRobin {
            assert_eq!(
                tile,
                Dispatcher::earliest_completion_linear(request, now_us, pool),
                "indexed placement diverged from the linear reference"
            );
        }
        tile
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
            let tile = place_checked(dispatcher, req, *arrival, &p);
            p.charge(tile, req.key, *arrival, req.switch_us, req.est_exec_us);
            tiles.push(tile);
        }
        (p, tiles)
    }

    /// The seed requirement carried over from the batch dispatcher: on a
    /// repeating 2-kernel trace, affinity placement settles into one tile per
    /// kernel while round-robin keeps cycling kernels across tiles and swaps
    /// on every single request (3 tiles, so the stride never aligns with the
    /// kernel period).
    #[test]
    fn affinity_beats_round_robin_on_a_repeating_two_kernel_trace() {
        let trace: Vec<(f64, DispatchRequest)> =
            (0..16u64).map(|i| (0.0, request(i % 2))).collect();

        let (affinity_pool, _) =
            place_all(&mut Dispatcher::new(DispatchPolicy::KernelAffinity), &trace);
        let affinity_switches: usize = affinity_pool.states().iter().map(|s| s.switches).sum();

        let (rr_pool, _) = place_all(&mut Dispatcher::new(DispatchPolicy::RoundRobin), &trace);
        let rr_switches: usize = rr_pool.states().iter().map(|s| s.switches).sum();

        assert_eq!(rr_switches, 16, "round-robin swaps on every request");
        assert!(
            affinity_switches < rr_switches,
            "affinity must switch strictly less: {affinity_switches} vs {rr_switches}"
        );
        assert!(
            affinity_switches <= rr_switches / 2,
            "affinity mostly sticks to resident kernels, got {affinity_switches}"
        );
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

    /// Indexed and linear placement agree on every decision of an
    /// interleaved, contended trace (switch costs at both the instruction-
    /// reload and the PCAP scale).
    #[test]
    fn scan_modes_place_identically() {
        let trace: Vec<(f64, DispatchRequest)> = (0..64u64)
            .map(|i| {
                let mut req = request(i % 5);
                req.est_exec_us = 5.0 + (i % 7) as f64;
                req.switch_us = if i % 3 == 0 { 1000.0 } else { 0.25 };
                (i as f64 * 3.0, req)
            })
            .collect();
        // `place_all` holds every decision to the linear reference.
        place_all(&mut Dispatcher::new(DispatchPolicy::KernelAffinity), &trace);
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
        assert_eq!(place_checked(&mut dispatcher, &expensive, 0.0, &p), 0);
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
            place_checked(&mut dispatcher, &request(1), 0.0, &p),
            1,
            "queued backlog outweighs residency"
        );
    }

    #[test]
    fn round_robin_cycles_tiles_in_order_and_resets() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::RoundRobin);
        let p = pool(3);
        let tiles: Vec<usize> = (0..6)
            .map(|i| dispatcher.place(&request(i), 0.0, &p))
            .collect();
        assert_eq!(tiles, vec![0, 1, 2, 0, 1, 2]);
        dispatcher.reset();
        assert_eq!(dispatcher.place(&request(9), 0.0, &p), 0);
    }

    #[test]
    fn fifo_policies_always_take_the_oldest_queued_request() {
        let p = pool(1);
        let queue = [with_deadline(1, 5.0), with_deadline(2, 1.0)];
        for policy in [DispatchPolicy::KernelAffinity, DispatchPolicy::RoundRobin] {
            assert_eq!(
                Dispatcher::new(policy).select_next(&p.states()[0], &queue),
                0,
                "{policy} drains FIFO"
            );
            assert!(!policy.is_deadline_aware());
        }
    }

    #[test]
    fn edf_takes_the_tightest_deadline_and_parks_deadline_free_requests() {
        let p = pool(1);
        let dispatcher = Dispatcher::new(DispatchPolicy::EarliestDeadlineFirst);
        let queue = [request(1), with_deadline(2, 90.0), with_deadline(3, 40.0)];
        assert_eq!(dispatcher.select_next(&p.states()[0], &queue), 2);
        // Without any deadlines EDF degenerates to FIFO.
        let queue = [request(1), request(2)];
        assert_eq!(dispatcher.select_next(&p.states()[0], &queue), 0);
        assert!(DispatchPolicy::EarliestDeadlineFirst.is_deadline_aware());
    }

    #[test]
    fn slack_aware_charges_the_switch_cost_against_the_deadline() {
        // Two requests with the same deadline and service time; the tile
        // hosts kernel 1, so kernel 2 must pay a switch and has less slack.
        let mut p = pool(1);
        p.states_mut()[0].resident = Some(key(1));
        let dispatcher = Dispatcher::new(DispatchPolicy::SlackAware);
        let resident = with_deadline(1, 100.0);
        let cold = DispatchRequest {
            switch_us: 20.0,
            ..with_deadline(2, 100.0)
        };
        assert_eq!(
            dispatcher.select_next(&p.states()[0], &[resident, cold]),
            1,
            "the swap eats 20 us of kernel 2's slack"
        );
        // EDF, blind to the switch cost, would have kept FIFO order.
        assert_eq!(
            Dispatcher::new(DispatchPolicy::EarliestDeadlineFirst)
                .select_next(&p.states()[0], &[resident, cold]),
            0
        );
        assert!((resident.slack_us(&p.states()[0], 0.0) - 90.0).abs() < 1e-12);
        assert!((cold.slack_us(&p.states()[0], 0.0) - 70.0).abs() < 1e-12);
        assert_eq!(request(1).slack_us(&p.states()[0], 0.0), f64::INFINITY);
    }

    /// On an exact slack tie, the request whose kernel is already resident
    /// wins (no gratuitous switch); exact full ties fall back to FIFO.
    #[test]
    fn slack_ties_prefer_the_resident_kernel_then_fifo() {
        let mut p = pool(1);
        p.states_mut()[0].resident = Some(key(2));
        let dispatcher = Dispatcher::new(DispatchPolicy::SlackAware);
        // Request 1 (cold, switch 20): adjusted slack 100-10-20 = 70.
        // Request 2 (resident): deadline 80 gives the same 80-10 = 70.
        let cold = DispatchRequest {
            switch_us: 20.0,
            ..with_deadline(1, 100.0)
        };
        let resident = with_deadline(2, 80.0);
        assert_eq!(
            dispatcher.select_next(&p.states()[0], &[cold, resident]),
            1,
            "equal slack resolves to the no-switch request"
        );
        // Identical requests: FIFO.
        assert_eq!(
            dispatcher.select_next(&p.states()[0], &[cold, cold]),
            0,
            "exact ties drain FIFO"
        );
    }

    /// The indexed tile queue pops the same request the linear argmin picks,
    /// across policies, including after mid-queue removals — and its
    /// per-kernel FIFO (the batcher's divert candidate) names the first
    /// linear position holding that kernel, however the `take`s interleave.
    #[test]
    fn tile_queue_matches_the_linear_selection_reference() {
        let mut p = pool(1);
        p.states_mut()[0].resident = Some(key(2));
        let views = [
            with_deadline(1, 90.0),
            request(2),
            with_deadline(2, 95.0),
            with_deadline(3, 40.0),
            request(1),
            with_deadline(2, 40.0),
        ];
        for policy in DispatchPolicy::ALL {
            let dispatcher = Dispatcher::new(policy);
            let mut queue = TileQueue::new(policy, true);
            let mut taken = vec![false; views.len()];
            for (index, view) in views.iter().enumerate() {
                queue.push(index, view);
            }
            assert_eq!(queue.len(), views.len());
            // Mirror of the linear queue: (intake index, view), FIFO order.
            let mut linear: Vec<(usize, DispatchRequest)> =
                views.iter().copied().enumerate().collect();
            let mut step = 0;
            while !queue.is_empty() {
                for fingerprint in 0..5 {
                    let oldest = linear
                        .iter()
                        .find(|(_, view)| view.key == key(fingerprint))
                        .map(|&(index, _)| index);
                    assert_eq!(
                        queue.oldest_for_kernel(key(fingerprint), &taken),
                        oldest,
                        "{policy} oldest waiter of kernel {fingerprint} diverged"
                    );
                }
                // Every other step is a batching divert: the oldest waiter
                // of the resident kernel jumps the policy's choice.
                let diverted = (step % 2 == 1)
                    .then(|| linear.iter().position(|(_, view)| view.key == key(2)))
                    .flatten();
                step += 1;
                if let Some(position) = diverted {
                    let (index, _) = linear.remove(position);
                    queue.take(index, &mut taken);
                } else {
                    let linear_views: Vec<DispatchRequest> =
                        linear.iter().map(|&(_, view)| view).collect();
                    let position = dispatcher.select_next(&p.states()[0], &linear_views);
                    let (expected, _) = linear.remove(position);
                    let got = queue.pop_next(p.states()[0].resident, &mut taken);
                    assert_eq!(got, expected, "{policy} diverged");
                }
                assert_eq!(
                    queue.tail_key(&taken),
                    linear.last().map(|&(_, view)| view.key),
                    "{policy} tail projection diverged"
                );
            }
            assert_eq!(queue.oldest_for_kernel(key(2), &taken), None);
        }
    }

    #[test]
    fn policies_display_and_default() {
        assert_eq!(DispatchPolicy::default(), DispatchPolicy::KernelAffinity);
        let names: Vec<String> = DispatchPolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            names,
            vec!["kernel-affinity", "round-robin", "edf", "slack-aware"]
        );
        assert_eq!(
            Dispatcher::default().policy(),
            DispatchPolicy::KernelAffinity
        );
    }
}
