//! The tile pool: N replicated overlay tiles on the Sec. III-A.3 NoC, each
//! hosting one resident kernel at a time — plus the **residency index** that
//! answers placement from a few first-entry lookups instead of an O(tiles)
//! scan per arrival.
//!
//! # The residency index
//!
//! Every tile is, at any instant, in exactly one of three classes:
//!
//! * **idle-cold** — free, never charged (no resident kernel);
//! * **idle-warm** — free with kernel `k` resident;
//! * **busy** — running (or transiently mid-transition), projected to host
//!   kernel `k` once its backlog drains, with a *backlog-done* timestamp
//!   `available_us + queued_est_us` that is static between transitions.
//!
//! [`TilePool`] keeps the classes in flat storage, allocated once per tile
//! and once per kernel and reused from then on. Kernels are interned to
//! dense ids on first sight (forgotten by [`reset`](TilePool::reset)). The
//! idle classes are `u64`-word bitsets — the cold tiles, each kernel's warm
//! tiles, and the union of those — so "lowest tile" is a first-set-bit scan
//! and "lowest warm tile of *another* kernel" that scan over `union & !own`.
//! The busy class is a sorted `(backlog-done, tile)` lane per kernel plus
//! one lane of every kernel's earliest entry, which the evict query walks
//! for at most two steps.
//!
//! A transition ([`enqueue`](TilePool::enqueue), [`charge`](TilePool::charge),
//! [`release`](TilePool::release), …) sets or clears two bits or
//! binary-searches one or two lanes: no allocation, and a hash probe only
//! when the tile changes kernel. A query
//! ([`TilePool::place_earliest_indexed`]) is one probe for the arriving
//! kernel's id, three scans of `tiles / 64` words and two lane fronts.
//!
//! The lanes are sorted `Vec`s: a binary search and a `memmove`. At 64 tiles
//! and 8 kernels a transition takes ~40 ns where the B-tree sets this
//! replaced took ~145 ns; at 1024 tiles on one kernel (a 16 KiB lane) or on
//! 1024 (a 16 KiB `busy_best`) ~130–150 ns against ~180–210 ns, and there
//! the query's scans cost ~35–50 ns against ~18 ns. A ring buffer halved the
//! lanes' worst case but cost small lanes ~14 ns per operation; a
//! lazily-cleaned heap would not bound its stale entries.

use std::fmt;

use overlay_arch::{
    ArchError, FuVariant, NocConfig, OverlayConfig, ResourceUsage, Tile, TileComposition,
};

use crate::cache::{FnvHashMap, KernelKey};
use crate::error::RuntimeError;

/// A totally-ordered wrapper over a finite `f64` timestamp, so virtual-time
/// keys can live in sorted index structures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What one [`TileState::charge`] call did to the tile's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeOutcome {
    /// When queueing ended and the switch/execution began, microseconds.
    pub start_us: f64,
    /// When the request completes on the tile, microseconds.
    pub completion_us: f64,
    /// Whether a hardware context switch was charged.
    pub switched: bool,
}

/// Dynamic serving state of one tile.
///
/// The online event loop drives a tile through four kinds of transition:
/// [`enqueue`](TileState::enqueue) when the dispatcher places an arrival on
/// it, [`dequeue`](TileState::dequeue) when a queued request is selected to
/// run, [`charge`](TileState::charge) when that request's switch + execution
/// is committed to the timeline (marking the tile running), and
/// [`release`](TileState::release) when the tile-free event fires.
#[derive(Debug, Clone, PartialEq)]
pub struct TileState {
    /// Tile index (row-major across the NoC).
    pub index: usize,
    /// `(row, col)` position on the NoC torus.
    pub coords: (usize, usize),
    /// The kernel currently loaded, if any.
    pub resident: Option<KernelKey>,
    /// Modeled time at which the tile next becomes free, in microseconds.
    pub available_us: f64,
    /// Accumulated busy time (switching + executing), in microseconds.
    pub busy_us: f64,
    /// Number of hardware context switches performed.
    pub switches: usize,
    /// Accumulated context-switch time, in microseconds.
    pub switch_us: f64,
    /// Number of requests served.
    pub served: usize,
    /// Requests currently waiting in the tile's queue (placed, not started).
    pub queue_depth: usize,
    /// High-water mark of [`queue_depth`](TileState::queue_depth).
    pub peak_queue_depth: usize,
    /// Estimated service time queued on the tile, microseconds — the backlog
    /// the dispatcher adds to completion estimates.
    pub queued_est_us: f64,
    /// Kernel of the most recently enqueued request: the dispatcher's
    /// estimate of what the tile will host once its backlog drains. `None`
    /// when the queue is empty (the resident kernel is the projection).
    pub last_enqueued: Option<KernelKey>,
    /// Whether the tile is executing a request (between its
    /// [`charge`](TileState::charge) and its [`release`](TileState::release)).
    pub running: bool,
}

impl TileState {
    fn new(index: usize, coords: (usize, usize)) -> Self {
        TileState {
            index,
            coords,
            resident: None,
            available_us: 0.0,
            busy_us: 0.0,
            switches: 0,
            switch_us: 0.0,
            served: 0,
            queue_depth: 0,
            peak_queue_depth: 0,
            queued_est_us: 0.0,
            last_enqueued: None,
            running: false,
        }
    }

    /// The kernel the tile is projected to host once its queue drains: the
    /// last enqueued kernel if any request is waiting, the resident kernel
    /// otherwise. Placement estimates switch needs against this, not against
    /// [`resident`](TileState::resident), so a queue ending in kernel B does
    /// not pretend kernel A is still warm.
    pub fn projected_resident(&self) -> Option<KernelKey> {
        self.last_enqueued.or(self.resident)
    }

    /// Records a placed-but-not-started request: grows the queue and the
    /// backlog estimate by `est_us`.
    pub fn enqueue(&mut self, key: KernelKey, est_us: f64) {
        self.queue_depth += 1;
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue_depth);
        self.queued_est_us += est_us;
        self.last_enqueued = Some(key);
    }

    /// Removes one queued request (about to start executing), shrinking the
    /// backlog estimate by the same `est_us` it was enqueued with.
    ///
    /// `remaining_tail` is the kernel of the request now *last* in the
    /// queue. Deadline-aware policies can remove from mid-queue — including
    /// the tail — so the caller, who sees the queue, keeps the residency
    /// projection honest.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty — a dequeue must pair with an enqueue.
    pub fn dequeue(&mut self, est_us: f64, remaining_tail: Option<KernelKey>) {
        assert!(self.queue_depth > 0, "dequeue from an empty tile queue");
        self.queue_depth -= 1;
        if self.queue_depth == 0 {
            self.queued_est_us = 0.0;
            self.last_enqueued = None;
        } else {
            // Clamp: floating-point drift must not leave a phantom backlog.
            self.queued_est_us = (self.queued_est_us - est_us).max(0.0);
            self.last_enqueued = remaining_tail;
        }
    }

    /// Charges one request onto this tile's timeline: an optional context
    /// switch of `switch_us` followed by `exec_us` of execution, starting no
    /// earlier than `arrival_us`. Marks the tile running until
    /// [`release`](TileState::release).
    ///
    /// The returned [`ChargeOutcome`] is also the anchor of the request's
    /// trace timeline: `[arrival, start]` is its queue wait and
    /// `[start, completion]` its switch (+ any image acquisition, charged
    /// inside `switch_us` by the cluster) and run — the lifecycle spans
    /// tile those two intervals exactly, which is what lets
    /// `tests/observability.rs` reconcile span sums against the reported
    /// latency bit for bit.
    pub fn charge(
        &mut self,
        key: KernelKey,
        arrival_us: f64,
        switch_us: f64,
        exec_us: f64,
    ) -> ChargeOutcome {
        let start = self.available_us.max(arrival_us);
        let switched = self.resident != Some(key);
        let switch = if switched {
            self.switches += 1;
            self.switch_us += switch_us;
            switch_us
        } else {
            0.0
        };
        let completion = start + switch + exec_us;
        self.resident = Some(key);
        self.available_us = completion;
        self.busy_us += switch + exec_us;
        self.served += 1;
        self.running = true;
        ChargeOutcome {
            start_us: start,
            completion_us: completion,
            switched,
        }
    }

    /// Marks the tile free again (its tile-free event fired).
    pub fn release(&mut self) {
        self.running = false;
    }

    /// The context-switch cost the tile would pay to run `key` next: zero if
    /// the kernel is already resident, `switch_us` otherwise.
    pub fn switch_cost(&self, key: KernelKey, switch_us: f64) -> f64 {
        if self.resident == Some(key) {
            0.0
        } else {
            switch_us
        }
    }
}

/// A tile's class in the residency index: derived from its state with the
/// kernel named by `K = KernelKey`, held in the index by the kernel's dense id.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TileClass<K = KernelKey> {
    /// Free and never charged: any kernel is a cold start.
    IdleCold,
    /// Free with this kernel resident.
    IdleWarm(K),
    /// Running (or mid-transition): projected kernel + backlog-done time.
    Busy(K, TimeKey),
}

impl<K: Copy> TileClass<K> {
    fn kernel(&self) -> Option<K> {
        match *self {
            TileClass::IdleCold => None,
            TileClass::IdleWarm(kernel) | TileClass::Busy(kernel, _) => Some(kernel),
        }
    }
}

fn classify(state: &TileState) -> TileClass {
    if !state.running && state.queue_depth == 0 {
        match state.resident {
            None => TileClass::IdleCold,
            Some(key) => TileClass::IdleWarm(key),
        }
    } else {
        let projected = state
            .projected_resident()
            .expect("a busy tile always projects a kernel");
        TileClass::Busy(projected, TimeKey(state.available_us + state.queued_est_us))
    }
}

/// A `(backlog-done, tile)` lane kept sorted, earliest first.
type BusyLane = Vec<(TimeKey, usize)>;

/// Inserts `entry` into a sorted lane; true when it became the first.
fn lane_insert(lane: &mut BusyLane, entry: (TimeKey, usize)) -> bool {
    let at = lane.partition_point(|&held| held < entry);
    lane.insert(at, entry);
    at == 0
}

/// Removes `entry` from a sorted lane; true when it was the first.
fn lane_remove(lane: &mut BusyLane, entry: (TimeKey, usize)) -> bool {
    let at = lane.binary_search(&entry).expect("indexed busy entry");
    lane.remove(at);
    at == 0
}

fn set_bit(bits: &mut [u64], tile: usize, member: bool) {
    let (word, bit) = (&mut bits[tile / 64], tile % 64);
    *word = (*word & !(1 << bit)) | (u64::from(member) << bit);
}

/// The lowest tile in `bits` that is not in `except` (which may be shorter:
/// the empty slice excludes nothing).
fn first_set(bits: &[u64], except: &[u64]) -> Option<usize> {
    for (at, &word) in bits.iter().enumerate() {
        let word = word & !except.get(at).copied().unwrap_or(0);
        if word != 0 {
            return Some(at * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

/// Incrementally-maintained flat views over the tile classes (see the
/// module docs). All storage is sized by the pool's tile and kernel counts
/// and reused across transitions and resets.
#[derive(Debug, Clone, Default, PartialEq)]
struct ResidencyIndex {
    /// `u64` words per tile bitset.
    words: usize,
    /// The kernels seen since the last reset, by dense id, and the ids back.
    kernels: Vec<KernelKey>,
    ids: FnvHashMap<KernelKey, usize>,
    /// Each tile's class as indexed — what its next transition removes.
    classes: Vec<TileClass<usize>>,
    /// Idle tiles with no resident kernel.
    idle_cold: Vec<u64>,
    /// Idle tiles with any kernel resident: the union of `idle_warm`.
    idle_warm_all: Vec<u64>,
    /// Idle tiles by resident kernel: `words` words per kernel id.
    idle_warm: Vec<u64>,
    /// Busy tiles by projected kernel id.
    busy: Vec<BusyLane>,
    /// One entry per kernel with busy tiles: its earliest-backlog one.
    busy_best: BusyLane,
}

impl ResidencyIndex {
    fn idle_warm(&self, kernel: usize) -> &[u64] {
        &self.idle_warm[kernel * self.words..][..self.words]
    }

    /// The dense id of `key`, interning it on first sight. `hint` — the
    /// kernel the tile was indexed under — answers the warm case (same
    /// kernel before and after) without a hash probe.
    fn intern(&mut self, key: KernelKey, hint: Option<usize>) -> usize {
        if let Some(id) = hint.filter(|&id| self.kernels[id] == key) {
            return id;
        }
        let id = *self.ids.entry(key).or_insert(self.kernels.len());
        if id == self.kernels.len() {
            self.kernels.push(key);
            if self.busy.len() <= id {
                self.busy.push(BusyLane::new());
                self.idle_warm.resize((id + 1) * self.words, 0);
            }
        }
        id
    }

    /// Adds `tile` to (`member`) or removes it from the views of `class`.
    fn set_member(&mut self, class: TileClass<usize>, tile: usize, member: bool) {
        match class {
            TileClass::IdleCold => set_bit(&mut self.idle_cold, tile, member),
            TileClass::IdleWarm(kernel) => {
                set_bit(&mut self.idle_warm_all, tile, member);
                set_bit(&mut self.idle_warm[kernel * self.words..], tile, member);
            }
            TileClass::Busy(kernel, backlog) => {
                let (entry, lane) = ((backlog, tile), &mut self.busy[kernel]);
                if member {
                    if lane_insert(lane, entry) {
                        if let Some(&displaced) = lane.get(1) {
                            lane_remove(&mut self.busy_best, displaced);
                        }
                        lane_insert(&mut self.busy_best, entry);
                    }
                } else if lane_remove(lane, entry) {
                    lane_remove(&mut self.busy_best, entry);
                    if let Some(&next) = lane.first() {
                        lane_insert(&mut self.busy_best, next);
                    }
                }
            }
        }
    }

    /// Moves `tile` to `class` if that differs from the class it is indexed
    /// under (releasing a tile whose queue keeps it busy at the same
    /// backlog, say, does not).
    fn update(&mut self, tile: usize, class: TileClass) {
        let before = self.classes[tile];
        let after = match class {
            TileClass::IdleCold => TileClass::IdleCold,
            TileClass::IdleWarm(key) => TileClass::IdleWarm(self.intern(key, before.kernel())),
            TileClass::Busy(key, backlog) => {
                TileClass::Busy(self.intern(key, before.kernel()), backlog)
            }
        };
        if before != after {
            self.set_member(before, tile, false);
            self.set_member(after, tile, true);
            self.classes[tile] = after;
        }
    }

    /// Empties every view and re-derives it from `states`, keeping the
    /// interned kernels (and every allocation).
    fn rebuild(&mut self, states: &[TileState]) {
        self.words = states.len().div_ceil(64);
        for bits in [&mut self.idle_cold, &mut self.idle_warm_all] {
            bits.clear();
            bits.resize(self.words, 0);
        }
        self.idle_warm.fill(0);
        self.busy.iter_mut().for_each(BusyLane::clear);
        self.busy_best.clear();
        self.classes.clear();
        self.classes.resize(states.len(), TileClass::IdleCold);
        for state in states {
            set_bit(&mut self.idle_cold, state.index, true);
            self.update(state.index, classify(state));
        }
    }

    /// Panics unless the index is exactly what `states` rebuild to.
    #[cfg(debug_assertions)]
    fn check(&self, states: &[TileState]) {
        let mut rebuilt = self.clone();
        rebuilt.rebuild(states);
        assert!(rebuilt == *self, "the index diverged from the tile states");
    }
}

/// A pool of identical tiles (built from [`NocConfig`]) with per-tile serving
/// state and the residency index placement queries run against.
///
/// For the write-back variants (V3–V5) a tile hosts a fixed-depth overlay
/// whose kernel is swapped by instruction reload; for the feed-forward
/// variants (`[14]`, V1, V2) a tile models one relocatable partial-
/// reconfiguration region whose kernel swap requires PCAP reconfiguration.
#[derive(Debug, Clone)]
pub struct TilePool {
    noc: NocConfig,
    states: Vec<TileState>,
    /// Per tile: NoC round trip to the ingress corner, fixed by the layout.
    roundtrip: Vec<usize>,
    index: ResidencyIndex,
    waiting: usize,
}

impl TilePool {
    /// A pool laid out as `noc`.
    pub fn new(noc: NocConfig) -> Self {
        let states: Vec<TileState> = (0..noc.num_tiles())
            .map(|index| TileState::new(index, (index / noc.cols, index % noc.cols)))
            .collect();
        let roundtrip = states
            .iter()
            .map(|s| noc.route_latency((0, 0), s.coords) + noc.route_latency(s.coords, (0, 0)))
            .collect();
        let mut index = ResidencyIndex::default();
        index.rebuild(&states);
        TilePool {
            noc,
            states,
            roundtrip,
            index,
            waiting: 0,
        }
    }

    /// A pool of `tiles` tiles of `variant` in one NoC row.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyPool`] when `tiles` is 0.
    pub fn with_tiles(
        variant: FuVariant,
        composition: TileComposition,
        tiles: usize,
    ) -> Result<Self, RuntimeError> {
        let noc = NocConfig::new(1, tiles, Tile::new(variant, composition))
            .map_err(|_| RuntimeError::EmptyPool)?;
        Ok(Self::new(noc))
    }

    /// The NoC layout.
    pub fn noc(&self) -> &NocConfig {
        &self.noc
    }

    /// The replicated tile.
    pub fn tile(&self) -> Tile {
        self.noc.tile
    }

    /// The FU variant of every tile.
    pub fn variant(&self) -> FuVariant {
        self.noc.tile.variant
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.states.len()
    }

    /// The overlay depth a kernel sees on a tile (16 for series composition,
    /// 8 for parallel).
    pub fn logical_depth(&self) -> usize {
        self.noc.tile.logical_depth()
    }

    /// The fixed overlay configuration hosted by each tile of a write-back
    /// pool (`None` for the feed-forward variants, whose overlay geometry
    /// follows each kernel).
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] if the tile's logical depth is out of range.
    pub fn overlay_config(&self) -> Result<Option<OverlayConfig>, ArchError> {
        if self.variant().has_writeback() {
            Ok(Some(OverlayConfig::new(
                self.variant(),
                self.logical_depth(),
            )?))
        } else {
            Ok(None)
        }
    }

    /// Estimated FPGA resources of the whole array.
    pub fn resource_estimate(&self) -> ResourceUsage {
        self.noc.resource_estimate()
    }

    /// Round-trip NoC latency in cycles between the array's ingress corner
    /// `(0, 0)` and tile `index`: request words route in, results route back.
    pub fn roundtrip_cycles(&self, index: usize) -> usize {
        self.roundtrip[index]
    }

    /// The per-tile serving states.
    pub fn states(&self) -> &[TileState] {
        &self.states
    }

    /// Total requests waiting (placed, not started) across all tile queues —
    /// the quantity admission control bounds. O(1): maintained by the
    /// enqueue/dequeue transitions.
    pub fn total_waiting(&self) -> usize {
        debug_assert_eq!(self.waiting, self.total_waiting_scan());
        self.waiting
    }

    /// The linear-scan recomputation of [`total_waiting`](Self::total_waiting):
    /// the reference the maintained counter is checked against.
    pub fn total_waiting_scan(&self) -> usize {
        self.states.iter().map(|s| s.queue_depth).sum()
    }

    /// Applies `mutate` to one tile's state, keeping the residency index
    /// coherent around the transition.
    fn transition<R>(&mut self, tile: usize, mutate: impl FnOnce(&mut TileState) -> R) -> R {
        let result = mutate(&mut self.states[tile]);
        self.index.update(tile, classify(&self.states[tile]));
        result
    }

    /// Places a waiting request on `tile`'s queue (see [`TileState::enqueue`]).
    pub fn enqueue(&mut self, tile: usize, key: KernelKey, est_us: f64) {
        self.waiting += 1;
        self.transition(tile, |state| state.enqueue(key, est_us));
    }

    /// Removes one waiting request from `tile`'s queue
    /// (see [`TileState::dequeue`]).
    pub fn dequeue(&mut self, tile: usize, est_us: f64, remaining_tail: Option<KernelKey>) {
        self.transition(tile, |state| state.dequeue(est_us, remaining_tail));
        self.waiting -= 1;
    }

    /// Starts a queued request in one step: dequeues it (see
    /// [`TileState::dequeue`]) and charges its switch + execution onto the
    /// timeline (see [`TileState::charge`]) under a single residency-index
    /// update — the tile-free hot path's combined transition.
    #[allow(clippy::too_many_arguments)]
    pub fn start_queued(
        &mut self,
        tile: usize,
        est_us: f64,
        remaining_tail: Option<KernelKey>,
        key: KernelKey,
        arrival_us: f64,
        switch_us: f64,
        exec_us: f64,
    ) -> ChargeOutcome {
        let outcome = self.transition(tile, |state| {
            state.dequeue(est_us, remaining_tail);
            state.charge(key, arrival_us, switch_us, exec_us)
        });
        self.waiting -= 1;
        outcome
    }

    /// Commits one request to `tile`'s timeline (see [`TileState::charge`]).
    pub fn charge(
        &mut self,
        tile: usize,
        key: KernelKey,
        arrival_us: f64,
        switch_us: f64,
        exec_us: f64,
    ) -> ChargeOutcome {
        self.transition(tile, |state| {
            state.charge(key, arrival_us, switch_us, exec_us)
        })
    }

    /// Marks `tile` free (its tile-free event fired).
    pub fn release(&mut self, tile: usize) {
        self.transition(tile, |state| state.release());
    }

    /// The indexed earliest-completion placement: the tile with the earliest
    /// estimated completion for a request needing `key` (`est_us` service,
    /// `switch_us` on a kernel swap) at virtual time `now_us`, with
    /// completion ties broken by preferring no-switch over cold over
    /// evicting a warm kernel, then the lowest tile index — exactly the
    /// linear scan's ordering, found in one id probe and five first-entry
    /// lookups.
    pub fn place_earliest_indexed(
        &self,
        key: KernelKey,
        est_us: f64,
        switch_us: f64,
        now_us: f64,
    ) -> usize {
        self.earliest_candidate_indexed(key, est_us, switch_us, now_us)
            .3
    }

    /// The full best-candidate tuple behind
    /// [`place_earliest_indexed`](Self::place_earliest_indexed):
    /// `(completion estimate, needs switch, evicts warm kernel, tile)` — the
    /// exact comparison key the placement minimizes. The cluster's
    /// estimate-based device routing compares these tuples *across* pools,
    /// so two devices are ranked by the same total order tile placement
    /// uses within one.
    pub(crate) fn earliest_candidate_indexed(
        &self,
        key: KernelKey,
        est_us: f64,
        switch_us: f64,
        now_us: f64,
    ) -> (f64, bool, bool, usize) {
        let mut best = (f64::INFINITY, true, true, usize::MAX);
        let mut consider = |candidate: (f64, bool, bool, usize)| {
            if candidate < best {
                best = candidate;
            }
        };
        let index = &self.index;
        // A kernel the pool has never seen has no warm tile anywhere.
        let kernel = index.ids.get(&key).copied();
        let own_idle = kernel.map_or(&[][..], |kernel| index.idle_warm(kernel));
        // Warm candidates: no switch, no eviction.
        if let Some(&(backlog, tile)) = kernel.and_then(|kernel| index.busy[kernel].first()) {
            consider(((backlog.0 + 0.0) + est_us, false, false, tile));
        }
        if let Some(tile) = first_set(own_idle, &[]) {
            consider(((now_us + 0.0) + est_us, false, false, tile));
        }
        // Cold start: switch, but nothing warm is evicted.
        if let Some(tile) = first_set(&index.idle_cold, &[]) {
            consider(((now_us + switch_us) + est_us, true, false, tile));
        }
        // Evict candidates: the best tile projected to a *different* kernel.
        // `busy_best` holds one entry per kernel, so the arriving kernel's
        // own entry is skipped in at most two steps.
        if let Some(&(backlog, tile)) = index
            .busy_best
            .iter()
            .find(|&&(_, tile)| index.classes[tile].kernel() != kernel)
        {
            consider(((backlog.0 + switch_us) + est_us, true, true, tile));
        }
        if let Some(tile) = first_set(&index.idle_warm_all, own_idle) {
            consider(((now_us + switch_us) + est_us, true, true, tile));
        }
        debug_assert!(best.3 != usize::MAX, "a non-empty pool always has a tile");
        best
    }

    /// Evacuates every tile queue without touching execution state or
    /// cumulative counters — fault injection's graceful drain. Queued work
    /// leaves (the caller requeues it elsewhere); resident kernels,
    /// timelines and running requests are untouched so in-flight work
    /// finishes normally.
    pub fn evacuate_queues(&mut self) {
        for tile in 0..self.states.len() {
            let drained = self.transition(tile, |state| {
                let depth = state.queue_depth;
                state.queue_depth = 0;
                state.queued_est_us = 0.0;
                state.last_enqueued = None;
                depth
            });
            self.waiting -= drained;
        }
        #[cfg(debug_assertions)]
        self.index.check(&self.states);
    }

    /// Evacuates every tile outright — fault injection's device kill. On
    /// top of [`evacuate_queues`](Self::evacuate_queues), running requests
    /// are abandoned, resident kernels are wiped (the device's store is
    /// lost) and timelines rewind to `now_us` so a later revival charges
    /// from the present, not from an abandoned run's completion time.
    /// Cumulative counters (`busy_us`, `switches`, `served`, …) are
    /// preserved: they record attempts, including work the fault destroyed.
    pub fn evacuate(&mut self, now_us: f64) {
        for tile in 0..self.states.len() {
            let drained = self.transition(tile, |state| {
                let depth = state.queue_depth;
                state.queue_depth = 0;
                state.queued_est_us = 0.0;
                state.last_enqueued = None;
                state.running = false;
                state.resident = None;
                state.available_us = now_us;
                depth
            });
            self.waiting -= drained;
        }
        #[cfg(debug_assertions)]
        self.index.check(&self.states);
    }

    /// Mutable access for unit tests. Mutations made through this bypass the
    /// residency index — the event loop must use the pool-level transition
    /// methods instead.
    #[cfg(test)]
    pub(crate) fn states_mut(&mut self) -> &mut [TileState] {
        &mut self.states
    }

    /// Clears all dynamic state (resident kernels, timelines, counters) and
    /// rebuilds the residency index.
    pub fn reset(&mut self) {
        for state in &mut self.states {
            *state = TileState::new(state.index, state.coords);
        }
        self.waiting = 0;
        self.index.ids.clear();
        self.index.kernels.clear();
        self.index.rebuild(&self.states);
    }
}

impl fmt::Display for TilePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} tile(s))", self.noc, self.num_tiles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn key(fingerprint: u64) -> KernelKey {
        KernelKey {
            fingerprint,
            variant: FuVariant::V4,
            depth: 8,
        }
    }

    #[test]
    fn pool_layout_follows_the_noc() {
        let noc =
            NocConfig::new(2, 3, Tile::new(FuVariant::V4, TileComposition::Parallel)).unwrap();
        let pool = TilePool::new(noc);
        assert_eq!(pool.num_tiles(), 6);
        assert_eq!(pool.states()[4].coords, (1, 1));
        assert_eq!(pool.logical_depth(), 8);
        assert!(pool.to_string().contains("2x3"));
        // Round trip to the ingress corner itself still pays two router exits.
        assert_eq!(pool.roundtrip_cycles(0), 2);
        assert!(pool.roundtrip_cycles(4) > pool.roundtrip_cycles(0));
    }

    #[test]
    fn writeback_pools_host_a_fixed_overlay_feedforward_pools_do_not() {
        let wb = TilePool::with_tiles(FuVariant::V3, TileComposition::Series, 2).unwrap();
        let config = wb.overlay_config().unwrap().unwrap();
        assert_eq!(config.depth(), 16);
        let ff = TilePool::with_tiles(FuVariant::V1, TileComposition::Parallel, 2).unwrap();
        assert!(ff.overlay_config().unwrap().is_none());
    }

    #[test]
    fn empty_pools_are_rejected() {
        assert!(matches!(
            TilePool::with_tiles(FuVariant::V3, TileComposition::Parallel, 0),
            Err(RuntimeError::EmptyPool)
        ));
    }

    #[test]
    fn charging_requests_advances_the_timeline_and_counts_switches() {
        let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, 1).unwrap();
        let tile = &mut pool.states_mut()[0];
        // Cold start: switch charged.
        let outcome = tile.charge(key(1), 0.0, 0.25, 10.0);
        assert_eq!(outcome.start_us, 0.0);
        assert!((outcome.completion_us - 10.25).abs() < 1e-12);
        assert!(outcome.switched);
        assert!(tile.running);
        assert_eq!(tile.switches, 1);
        // Same kernel again: no switch, queued behind the first request.
        let outcome = tile.charge(key(1), 5.0, 0.25, 10.0);
        assert!((outcome.start_us - 10.25).abs() < 1e-12);
        assert!((outcome.completion_us - 20.25).abs() < 1e-12);
        assert!(!outcome.switched);
        assert_eq!(tile.switches, 1);
        // Different kernel: switch charged; idle gap until arrival is not busy time.
        let outcome = tile.charge(key(2), 100.0, 0.25, 10.0);
        assert_eq!(outcome.start_us, 100.0);
        assert!(outcome.switched);
        assert_eq!(tile.switches, 2);
        assert!((tile.busy_us - 30.5).abs() < 1e-9);
        assert_eq!(tile.served, 3);
        assert_eq!(tile.switch_cost(key(2), 0.25), 0.0);
        assert_eq!(tile.switch_cost(key(3), 0.25), 0.25);
        tile.release();
        assert!(!tile.running);
    }

    #[test]
    fn reset_returns_the_pool_to_cold_state() {
        let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, 2).unwrap();
        pool.charge(1, key(9), 0.0, 1.0, 5.0);
        pool.enqueue(1, key(9), 5.0);
        assert_eq!(pool.total_waiting(), 1);
        pool.reset();
        assert!(pool.states().iter().all(|s| {
            s.resident.is_none()
                && s.available_us == 0.0
                && s.served == 0
                && s.switches == 0
                && s.queue_depth == 0
                && s.peak_queue_depth == 0
                && s.queued_est_us == 0.0
                && s.last_enqueued.is_none()
                && !s.running
        }));
        assert_eq!(pool.total_waiting(), 0);
    }

    /// The online path's enqueue → dequeue → charge lifecycle: depth and
    /// backlog estimates track, the peak is a high-water mark, and the
    /// projected resident follows the queue tail rather than the loaded
    /// kernel.
    #[test]
    fn queue_transitions_track_depth_backlog_and_projection() {
        let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, 1).unwrap();
        assert_eq!(pool.states()[0].projected_resident(), None);

        pool.charge(0, key(1), 0.0, 0.25, 10.0);
        assert_eq!(
            pool.states()[0].projected_resident(),
            Some(key(1)),
            "resident projects"
        );

        pool.enqueue(0, key(1), 10.0);
        pool.enqueue(0, key(2), 20.0);
        let tile = &pool.states()[0];
        assert_eq!(tile.queue_depth, 2);
        assert_eq!(tile.peak_queue_depth, 2);
        assert!((tile.queued_est_us - 30.0).abs() < 1e-12);
        assert_eq!(
            tile.projected_resident(),
            Some(key(2)),
            "the queue tail, not the loaded kernel, is what placement sees"
        );
        assert_eq!(pool.total_waiting(), 2);

        pool.dequeue(0, 10.0, Some(key(2)));
        let tile = &pool.states()[0];
        assert_eq!(tile.queue_depth, 1);
        assert_eq!(tile.peak_queue_depth, 2, "peak is a high-water mark");
        assert!((tile.queued_est_us - 20.0).abs() < 1e-12);

        pool.dequeue(0, 20.0, None);
        let tile = &pool.states()[0];
        assert_eq!(tile.queue_depth, 0);
        assert_eq!(tile.queued_est_us, 0.0);
        assert_eq!(
            tile.projected_resident(),
            Some(key(1)),
            "empty queue falls back to the resident kernel"
        );
        assert_eq!(pool.total_waiting(), 0);
    }

    /// A deadline-aware policy can pull the *tail* out of the queue; the
    /// caller-supplied remaining tail keeps the residency projection honest.
    #[test]
    fn dequeuing_the_tail_reprojects_onto_the_remaining_queue() {
        let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, 1).unwrap();
        pool.charge(0, key(7), 0.0, 0.25, 1.0);
        pool.enqueue(0, key(1), 10.0);
        pool.enqueue(0, key(2), 10.0);
        assert_eq!(pool.states()[0].projected_resident(), Some(key(2)));
        // EDF pops the urgent tail (kernel 2): the queue now ends in kernel 1.
        pool.dequeue(0, 10.0, Some(key(1)));
        assert_eq!(
            pool.states()[0].projected_resident(),
            Some(key(1)),
            "the projection must follow the remaining queue, not the removed tail"
        );
    }

    #[test]
    fn dequeue_clamps_float_drift_out_of_the_backlog() {
        let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, 1).unwrap();
        pool.charge(0, key(1), 0.0, 0.25, 1.0);
        pool.enqueue(0, key(1), 0.1);
        pool.enqueue(0, key(1), 0.2);
        // Remove slightly more than was added: the estimate clamps at zero
        // instead of going negative and skewing placement.
        pool.dequeue(0, 0.2 + 1e-9, Some(key(1)));
        assert!(pool.states()[0].queued_est_us >= 0.0);
        pool.dequeue(0, 0.1, None);
        assert_eq!(pool.states()[0].queued_est_us, 0.0);
    }

    #[test]
    #[should_panic(expected = "dequeue from an empty tile queue")]
    fn unpaired_dequeue_panics() {
        let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, 1).unwrap();
        pool.dequeue(0, 1.0, None);
    }

    /// The linear earliest-completion reference the indexed query must match
    /// bit-for-bit (mirrors `Dispatcher::earliest_completion_linear`).
    fn candidate_linear(
        pool: &TilePool,
        key: KernelKey,
        est_us: f64,
        switch_us: f64,
        now_us: f64,
    ) -> (f64, bool, bool, usize) {
        let mut best = (f64::INFINITY, true, true, usize::MAX);
        for state in pool.states() {
            let projected = state.projected_resident();
            let needs_switch = projected != Some(key);
            let evicts_warm = needs_switch && projected.is_some();
            let start = state.available_us.max(now_us) + state.queued_est_us;
            let switch = if needs_switch { switch_us } else { 0.0 };
            let completion = start + switch + est_us;
            let candidate = (completion, needs_switch, evicts_warm, state.index);
            if candidate < best {
                best = candidate;
            }
        }
        best
    }

    /// Drives pools on both sides of the bitset word boundaries, with fewer
    /// and with more kernels than tiles, through a pseudo-random but
    /// loop-shaped transition schedule (queues only form on running tiles;
    /// virtual time never passes a running tile's completion without a
    /// release firing) that also drains queues, kills the device and resets
    /// mid-run. After every step the index must be what the states rebuild
    /// to, and the indexed query must return the linear reference's whole
    /// candidate tuple for warm, cold and never-seen kernels alike.
    #[test]
    fn indexed_placement_matches_the_linear_scan_under_churn() {
        for tiles in [1, 7, 64, 65, 130] {
            for kernels in [4, 200] {
                churn(tiles, kernels);
            }
        }
    }

    fn churn(tiles: usize, kernels: u64) {
        const STEPS: usize = 600;
        let mut pool =
            TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, tiles).unwrap();
        let mut now = 0.0_f64;
        let mut seed = 0x1234_5678_9ABC_DEFFu64 ^ (tiles as u64) << 32 ^ kernels;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Mirror of each tile's queue, oldest first, so dequeues stay paired.
        let mut queues: Vec<VecDeque<(f64, KernelKey)>> = vec![VecDeque::new(); tiles];
        for step in 0..STEPS {
            // Advance virtual time, firing any tile-free transitions it
            // passes (exactly what the event loop's TileFree events do).
            now += (rng() % 8) as f64 * 0.5;
            for (tile, queue) in queues.iter_mut().enumerate() {
                while pool.states()[tile].running && pool.states()[tile].available_us <= now {
                    pool.release(tile);
                    if let Some((est, _)) = queue.pop_front() {
                        let tail = queue.back().map(|&(_, k)| k);
                        let kernel = key(rng() % kernels);
                        // Both start paths: the split dequeue + charge and
                        // the combined transition.
                        if rng() % 2 == 0 {
                            pool.dequeue(tile, est, tail);
                            pool.charge(tile, kernel, now, 0.25, est);
                        } else {
                            pool.start_queued(tile, est, tail, kernel, now, 0.25, est);
                        }
                    }
                }
            }
            // A new arrival: either start it on an idle tile or queue it
            // behind a running one.
            let kernel = key(rng() % kernels);
            let est = (rng() % 50) as f64 * 0.5 + 1.0;
            let switch = (rng() % 3) as f64 * 0.25;
            let tile = (rng() % tiles as u64) as usize;
            if !pool.states()[tile].running {
                pool.charge(tile, kernel, now, switch, est);
            } else {
                pool.enqueue(tile, kernel, est);
                queues[tile].push_back((est, kernel));
            }
            // The bulk transitions: a graceful drain, a device kill, and a
            // mid-run reset that forgets every interned kernel.
            if step % 97 == 96 {
                pool.evacuate_queues();
                queues.iter_mut().for_each(VecDeque::clear);
            } else if step % 211 == 210 {
                pool.evacuate(now);
                queues.iter_mut().for_each(VecDeque::clear);
            } else if step == STEPS / 2 {
                pool.reset();
                queues.iter_mut().for_each(VecDeque::clear);
            }
            #[cfg(debug_assertions)]
            pool.index.check(&pool.states);
            assert_eq!(pool.total_waiting(), pool.total_waiting_scan());
            // The arriving kernel, a handful of others (warm or not) and one
            // the pool has never seen.
            let probes = [kernel, key(u64::MAX)]
                .into_iter()
                .chain((0..4).map(|p| key((rng() % kernels + p) % kernels)));
            for probe in probes {
                assert_eq!(
                    pool.earliest_candidate_indexed(probe, est, switch, now),
                    candidate_linear(&pool, probe, est, switch, now),
                    "{tiles} tiles, {kernels} kernels, step {step}: index diverged from the scan"
                );
            }
        }
    }
}
