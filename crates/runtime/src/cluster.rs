//! The serving runtime: one or more NoC tile arrays ([`Device`]s) behind
//! one event loop, one [`Submitter`] and a device-routing layer.
//!
//! A [`Cluster`] is the only serving type, from one device up: each device
//! wraps its own [`TilePool`] (with its PR 3 residency index), its own
//! [`KernelCache`] acting as the device-local kernel-image store, and its
//! own [`Dispatcher`]. Every arrival is **routed** to a device by a
//! [`RoutePolicy`] (stable kernel-hash sharding or power-of-two-choices
//! over completion estimates) and then **placed** on a tile by that
//! device's dispatcher.
//!
//! Moving a kernel to a device that has never hosted it is not free: the
//! transfer model (see [`route`](crate::route)) charges either a host load
//! (the "local cold load") or an inter-device transfer from the nearest
//! device already holding the image — whichever is cheaper — and that
//! acquisition delay is threaded
//! into the completion estimates routing and placement compare, and into
//! the switch phase the winning tile actually charges. Per-device
//! [`DeviceMetrics`] report utilization, queue depth, cache hit rate and
//! the transfer traffic; cluster totals reuse [`RuntimeMetrics`].
//!
//! A 1-device cluster (`Cluster::new(variant, 1, tiles)` or
//! [`Cluster::from_noc`]) is the degenerate case: routing collapses to
//! device 0 and no image is ever acquired (they enter the store at compile
//! time). The one event loop here runs fixed phases — intake, admit,
//! route, run, commit — and is compiled per serve from one choice, made
//! once, from what the serve can observe: its tier. `plain` for one
//! device with no fault plan installed and no pipeline, where every
//! routing and fault step folds away at compile time; `fleet` for
//! everything else. Every fleet serve arms the fault state, from no events
//! when no plan is installed, so a fault-free fleet serve *is* the
//! empty-plan serve and routing, transfer pricing and fault accounting each
//! have one implementation. Batching and a pipeline's session tier are not
//! named here: each phase where one acts calls the serve's crate-private
//! `control::Tiers`, whose methods do nothing while their tier is off.
//! `tests/runtime_equivalence.rs` holds a one-device cluster forced onto
//! the fleet tier (by an empty plan) to the plain tier **bitwise** on
//! randomized traces.
//!
//! # Example
//!
//! ```
//! use overlay_runtime::{Cluster, KernelSpec, Request, RoutePolicy};
//! use overlay_arch::FuVariant;
//! use overlay_sim::Workload;
//!
//! # fn main() -> Result<(), overlay_runtime::RuntimeError> {
//! let mut cluster = Cluster::new(FuVariant::V4, 2, 2)?
//!     .with_route_policy(RoutePolicy::KernelHash);
//!
//! let saxpy = KernelSpec::from_source("saxpy", "kernel saxpy(a, x, y) { out r = a * x + y; }");
//! let poly = KernelSpec::from_source("poly", "kernel poly(x) { out y = (x * x + 3) * x; }");
//! let trace: Vec<Request> = (0..8u64)
//!     .map(|i| {
//!         let (kernel, inputs) = if i % 2 == 0 { (saxpy.clone(), 3) } else { (poly.clone(), 1) };
//!         Request::new(i, kernel, Workload::ramp(inputs, 8)).at(i as f64)
//!     })
//!     .collect();
//!
//! let report = cluster.serve(trace)?;
//! assert_eq!(report.outcomes().len(), 8);
//! // Kernel-hash routing pins each kernel to one shard.
//! for outcome in report.outcomes() {
//!     assert!(outcome.device < 2);
//! }
//! assert_eq!(report.device_metrics().len(), 2);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::Instant;

use overlay_arch::{FuVariant, NocConfig, TileComposition};

use crate::cache::CacheStats;
use crate::control::{FreedTile, Gate, Tiers};
use crate::dispatch::TileQueue;
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::metrics::{self, BatchStats, DeviceMetrics, RuntimeMetrics};
use crate::obs;
use crate::request::IntakeCheck;
use crate::route::{
    cheapest_acquisition, kernel_home, kernel_home_eligible, power_of_two_pair_eligible,
    AcquireSource, Acquisition, ExclusionSet, Exclusions, RoutePolicy, Routed, TransferModel,
};
use crate::{
    prepare_request, with_feeder, BatchConfig, DispatchPolicy, DispatchRequest, Dispatcher,
    InFlight, Ingest, Intake, KernelCache, KernelEntry, KernelKey, LoopTables, PrepContext,
    RejectedRequest, Request, RequestOutcome, RuntimeError, ServeReport, SimMemo, SimResults,
    Start, Submitter, TilePool, RESERVED_DEPTHS,
};

/// One NoC tile array inside a [`Cluster`]: a [`TilePool`] (with its
/// residency index), the device-local kernel-image store, and the tile
/// dispatcher that places requests routed here.
#[derive(Debug)]
pub struct Device {
    id: usize,
    pub(crate) pool: TilePool,
    pub(crate) cache: KernelCache,
    dispatcher: Dispatcher,
}

impl Device {
    /// The device id (its position on the linear inter-device link).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device's tile pool (holding the state left by the last serve).
    pub fn pool(&self) -> &TilePool {
        &self.pool
    }

    /// The device-local kernel store (counters accumulate across serves).
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }
}

/// Per-device counters the loop keeps as it runs, one row per device.
#[derive(Debug, Clone, Default)]
struct DeviceTally {
    /// High-water mark of the device's waiting count.
    peak_queue: usize,
    /// Requests routed here but shed by admission control.
    rejects: usize,
    /// Inter-device image transfers in, and their bytes.
    transfers: usize,
    transfer_bytes: u64,
    /// Host image loads.
    host_loads: usize,
    /// Latencies recorded at charge time, merged into the cluster total
    /// through the histogram merge path.
    latency_hist: obs::LogHistogram,
}

/// Mutable event-loop state, separate from the `Cluster` so placement (on
/// `self`) and bookkeeping borrows stay disjoint. It holds no outcome: each
/// [`RequestOutcome`] is built once, when the loop ends.
struct ClusterState<'t> {
    /// Per-tile waiting queues, indexed by global tile id
    /// (`device * tiles_per_device + local`).
    queues: Vec<TileQueue>,
    /// On loan from [`LoopTables`] for the serve, like the tables below.
    taken: &'t mut Vec<bool>,
    events: EventQueue,
    /// Per intake index: where and when the request started, if it did.
    starts: &'t mut Vec<Option<Start>>,
    rejected: Vec<RejectedRequest>,
    sim: SimResults<'t>,
    /// What the optional tiers do at each phase of the loop.
    tiers: Tiers<'t>,
    /// Per global tile: consecutive starts of its resident kernel, what
    /// tracing reports as batch membership (0 after a kill).
    runs: Vec<usize>,
    peak_queue_depth: usize,
    queue_area_us: f64,
    last_event_us: f64,
    /// Per intake index, fleet tier only: what routing decided.
    routed: &'t mut Vec<Routed>,
    /// Fleet tier only: the devices each displaced request was displaced
    /// off, which routing avoids.
    exclusions: Exclusions,
    tallies: Vec<DeviceTally>,
    /// The one recorder every observation family reads the loop through.
    probe: obs::Probe,
    /// Per cluster-wide queue depth: the events popped at it.
    depths: &'t mut Vec<u64>,
    /// Per global tile, fleet tier only: the intake index currently running
    /// there (kills must know what to abandon, and the tiers which request
    /// a tile-free event completes).
    running_index: Vec<Option<usize>>,
    /// Per global tile, fleet tier only: the completion time of the run the
    /// tile is waiting on. A tile-free event that does not match is a stale
    /// completion of work a kill evacuated and is dropped.
    pending_free: Vec<Option<f64>>,
}

/// What the cluster event loop hands back for aggregation.
struct ClusterLoopOutput {
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    peak_queue_depth: usize,
    queue_area_us: f64,
    events_fired: u64,
    batch: BatchStats,
    tallies: Vec<DeviceTally>,
    queue_depth_hist: obs::LogHistogram,
    observed: obs::Observed,
}

/// The serving runtime: one or more devices of one overlay variant behind
/// one event loop.
///
/// See the [crate-level documentation](crate) for the moving parts and a
/// streaming example, and the [module-level documentation](self) for
/// routing across devices.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) devices: Vec<Device>,
    route: RoutePolicy,
    sim_memo: SimMemo,
    ingest_capacity: usize,
    admission_limit: usize,
    batching: BatchConfig,
    /// Tracing, profiling and telemetry (each off by default).
    observing: obs::Observing,
    /// The per-intake tables, kept across serves so their storage (and its
    /// warmed pages) amortizes, and empty between serves.
    tables: LoopTables,
    tiles_per_device: usize,
    /// The installed fault schedule, if any ([`Cluster::with_fault_plan`]).
    fault_plan: Option<FaultPlan>,
    /// Per-serve fault state (fleet flags + availability accounting),
    /// re-armed in place on every fleet serve; a plain-tier serve never
    /// touches it.
    pub(crate) fault: FaultState,
}

impl Cluster {
    /// Default capacity of each device's kernel cache.
    pub const DEFAULT_CACHE_CAPACITY: usize = 64;

    /// Default capacity of the simulation memo.
    pub const DEFAULT_SIM_MEMO_CAPACITY: usize = 1024;

    /// Default bound of the streaming ingest channel.
    pub const DEFAULT_INGEST_CAPACITY: usize = 64;

    /// A cluster of `devices` identical arrays, each a single-row NoC of
    /// `tiles_per_device` parallel-composition tiles of `variant`, using
    /// kernel-affinity tile dispatch and kernel-hash device routing.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyCluster`] when `devices` is 0 and
    /// [`RuntimeError::EmptyPool`] when `tiles_per_device` is 0.
    pub fn new(
        variant: FuVariant,
        devices: usize,
        tiles_per_device: usize,
    ) -> Result<Self, RuntimeError> {
        if devices == 0 {
            return Err(RuntimeError::EmptyCluster);
        }
        let pools = (0..devices)
            .map(|_| TilePool::with_tiles(variant, TileComposition::Parallel, tiles_per_device))
            .collect::<Result<_, RuntimeError>>()?;
        Ok(Self::from_pools(pools))
    }

    /// One device laid out as `noc` (rows × cols of a chosen tile), using
    /// kernel-affinity tile dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyPool`] when `noc` has no tiles (its
    /// fields are public, so a layout can skip [`NocConfig::new`]'s check).
    pub fn from_noc(noc: NocConfig) -> Result<Self, RuntimeError> {
        if noc.num_tiles() == 0 {
            return Err(RuntimeError::EmptyPool);
        }
        Ok(Self::from_pools(vec![TilePool::new(noc)]))
    }

    /// A cluster of one device per pool; the pools are alike and at least
    /// one, each with at least one tile.
    fn from_pools(pools: Vec<TilePool>) -> Self {
        let tiles_per_device = pools[0].num_tiles();
        let devices = pools
            .into_iter()
            .enumerate()
            .map(|(id, pool)| Device {
                id,
                pool,
                // The only error is a zero capacity, and the default is 64.
                cache: KernelCache::new(Self::DEFAULT_CACHE_CAPACITY)
                    .expect("default capacity is non-zero"),
                dispatcher: Dispatcher::default(),
            })
            .collect();
        Cluster {
            devices,
            route: RoutePolicy::default(),
            sim_memo: SimMemo::new(Self::DEFAULT_SIM_MEMO_CAPACITY),
            ingest_capacity: Self::DEFAULT_INGEST_CAPACITY,
            admission_limit: usize::MAX,
            batching: BatchConfig::disabled(),
            observing: obs::Observing::default(),
            tables: LoopTables::default(),
            tiles_per_device,
            fault_plan: None,
            fault: FaultState::new(),
        }
    }

    /// Sets the tile-dispatch policy used inside every device.
    #[must_use]
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        for device in &mut self.devices {
            device.dispatcher = Dispatcher::new(policy);
        }
        self
    }

    /// Sets the device-routing policy.
    #[must_use]
    pub fn with_route_policy(mut self, route: RoutePolicy) -> Self {
        self.route = route;
        self
    }

    /// Replaces every device's kernel store with one of `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ZeroCacheCapacity`] when `capacity` is 0.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Result<Self, RuntimeError> {
        for device in &mut self.devices {
            device.cache = KernelCache::new(capacity)?;
        }
        Ok(self)
    }

    /// Replaces the (cluster-shared) simulation memo with one of `capacity`
    /// entries. A capacity of 0 disables memoization — every request
    /// simulates.
    #[must_use]
    pub fn with_sim_memo_capacity(mut self, capacity: usize) -> Self {
        self.sim_memo = SimMemo::new(capacity);
        self
    }

    /// Sets the bound of the streaming ingest channel (`0` makes every
    /// [`Submitter::submit`] rendezvous with the event loop).
    #[must_use]
    pub fn with_ingest_capacity(mut self, capacity: usize) -> Self {
        self.ingest_capacity = capacity;
        self
    }

    /// Sets the cluster-wide admission-control limit on *waiting* requests:
    /// an arrival that would have to queue while this many requests are
    /// already waiting across all tiles is rejected. An arrival is always
    /// admitted when the tile it is routed and placed on can start it
    /// immediately — note the placement decision comes first, so a policy
    /// that prefers waiting for a warm tile over an idle-but-cold one (e.g.
    /// affinity on a PCAP pool) can still see its request rejected while
    /// another tile sits idle. Defaults to unlimited.
    #[must_use]
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit;
        self
    }

    /// Configures the same-kernel batching layer on every device's tiles:
    /// when a tile frees, up to [`BatchConfig::max_batch`] consecutive runs
    /// of the resident kernel may jump the dispatch policy's queue order
    /// (never past the staleness bound, and never when a bypassed deadline
    /// would become infeasible). The default [`BatchConfig::disabled`]
    /// leaves every decision to the dispatch policy — bitwise identical to
    /// the un-batched loop.
    #[must_use]
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batching = config;
        self
    }

    /// Configures request-span tracing: every serve keeps the rows its
    /// spans are made from and hands the [`Trace`](obs::Trace) back on
    /// [`ServeReport::trace`], every request's lifecycle spans in it. The
    /// default [`TraceConfig::disabled`](obs::TraceConfig::disabled) keeps
    /// nothing and leaves the serve bitwise identical to an untraced one.
    #[must_use]
    pub fn with_tracing(mut self, config: obs::TraceConfig) -> Self {
        self.observing.tracing = config;
        self
    }

    /// Enables the host-time hot-path profiler: the serve attributes its
    /// wall-clock nanoseconds to scan/route/sim/memo/bookkeeping stages and
    /// reports [`ProfileStats`](obs::ProfileStats) on
    /// [`ServeReport::profile`]. Off (the default) no clock is ever read on
    /// the hot path.
    #[must_use]
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.observing.profiling = enabled;
        self
    }

    /// Configures windowed telemetry: the serve accumulates a per-window
    /// [`TimeSeries`](obs::TimeSeries) (throughput, miss-rate, queue depth,
    /// utilization, per-class latency percentiles) on the virtual timeline
    /// and hands it back on [`ServeReport::telemetry`]. The default
    /// [`TelemetryConfig::disabled`](obs::TelemetryConfig::disabled)
    /// accumulates nothing and leaves the serve bitwise identical.
    #[must_use]
    pub fn with_telemetry(mut self, config: obs::TelemetryConfig) -> Self {
        self.observing.telemetry = config;
        self
    }

    /// Installs a [`FaultPlan`]: its events are scheduled into the serve's
    /// virtual timeline and the loop reacts as they fire — kills displace
    /// and requeue work with the dead device excluded, drains stop
    /// admission but finish resident work, revivals rejoin routing, link
    /// degradation reprices transfers. The plan is validated at serve time
    /// ([`RuntimeError::InvalidFaultPlan`] on a bad schedule). No plan —
    /// the default — leaves the serve bitwise identical to a fault-free
    /// build.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    // Identity stub kept for the frozen `benchmark/src/workloads/serve/surge.rs:224`.
    #[doc(hidden)]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// The overlay variant all devices are built from.
    pub fn variant(&self) -> FuVariant {
        self.devices[0].pool.variant()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Tiles on each device.
    pub fn tiles_per_device(&self) -> usize {
        self.tiles_per_device
    }

    /// Total tiles across the cluster.
    pub fn total_tiles(&self) -> usize {
        self.num_devices() * self.tiles_per_device
    }

    /// The active tile-dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.devices[0].dispatcher.policy()
    }

    /// The active device-routing policy.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
    }

    /// The bound of the streaming ingest channel.
    pub fn ingest_capacity(&self) -> usize {
        self.ingest_capacity
    }

    /// The cluster-wide admission-control limit on waiting requests.
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// The active same-kernel batching configuration.
    pub fn batching(&self) -> BatchConfig {
        self.batching
    }

    /// The active tracing configuration.
    pub fn tracing(&self) -> obs::TraceConfig {
        self.observing.tracing
    }

    /// Whether host-time stage profiling is on.
    pub fn profiling(&self) -> bool {
        self.observing.profiling
    }

    /// The devices (holding the state left by the last serve).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The shared simulation memo (counters accumulate across serves).
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim_memo
    }

    /// Serves a pre-collected trace, taken by value so streaming it through
    /// the loop never deep-clones a workload. The requests are consumed in
    /// iteration order and dispatched online exactly as
    /// [`serve_stream`](Cluster::serve_stream) would dispatch live traffic —
    /// but straight off the trace, with no ingest channel or feeder thread
    /// in between. Pass `trace.clone()` to keep a trace for a later replay.
    ///
    /// Each request moves, by value, into a row of the cluster's intake
    /// table. That table and the others indexed by intake position belong
    /// to the cluster, not to the serve: they come back empty — nothing a
    /// request carried outlives its serve, on success or error — but keep
    /// their storage, so the one allocation of a warm serve that grows with
    /// the trace is the report's outcomes. A table that ends a completed
    /// serve with over four times the capacity the serve used is cut back
    /// to that: serves of similar size never reallocate, one outsized serve
    /// pins its footprint only until the next ordinary one, and since
    /// nothing about a caller changes that trade the factor is not a knob.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoRequests`] for an empty trace, the intake
    /// check's error for the first request with an invalid or out-of-order
    /// arrival ([`InvalidArrival`](RuntimeError::InvalidArrival),
    /// [`OutOfOrderArrival`](RuntimeError::OutOfOrderArrival)), a deadline
    /// that is not finite ([`InvalidDeadline`](RuntimeError::InvalidDeadline))
    /// or an id already submitted
    /// ([`DuplicateRequestId`](RuntimeError::DuplicateRequestId)), or any
    /// compile/simulation failure. A failed serve leaves the cluster as warm
    /// as it found it.
    pub fn serve<I>(&mut self, requests: I) -> Result<ServeReport, RuntimeError>
    where
        I: IntoIterator<Item = Request>,
    {
        let requests: Vec<Request> = requests.into_iter().collect();
        self.run_serve(Ingest::Batch(requests.into_iter()), None)
    }

    /// Serves a live request stream: `feed` runs on its own thread and
    /// submits requests through the [`Submitter`] (blocking when the bounded
    /// ingest channel is full) while the event loop consumes them on the
    /// virtual timeline. The serve ends when `feed` returns (dropping the
    /// submitter) and every admitted request has completed.
    ///
    /// Requests must be submitted in non-decreasing arrival order — that is
    /// what lets the loop prove no earlier event can still arrive. The loop
    /// pulls each request at the same point of its event sequence as
    /// [`serve`](Cluster::serve) would, so every serve, batch or streamed,
    /// is a pure function of its submission order: a stream serve equals the
    /// batch serve of the same sequence, however the feeder's timing falls.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoRequests`] when nothing was submitted, the
    /// intake check's error for the first submission [`serve`](Cluster::serve)
    /// would refuse (an invalid or out-of-order arrival, a deadline that is
    /// not finite, an id already submitted), or any compile/simulation
    /// failure: a compile failure when the failing request is pulled off the
    /// stream, a simulation failure at the failing request's admission (a
    /// request admission control rejects is never simulated).
    pub fn serve_stream<F>(&mut self, feed: F) -> Result<ServeReport, RuntimeError>
    where
        F: FnOnce(Submitter) + Send,
    {
        with_feeder(self.ingest_capacity, feed, |ingest| {
            self.run_serve(ingest, None)
        })
    }

    /// The transfer model in force right now: the one model, slowed by the
    /// fault tier's fleet-wide link multiplier when degradation is active.
    pub(crate) fn active_transfer(&self) -> TransferModel {
        TransferModel::new().degraded(self.fault.link_multiplier)
    }

    /// How `device` would obtain `key`'s compiled image, without mutating
    /// anything: resident in its store, a host load, or a transfer from the
    /// nearest peer holding the image — whichever is cheaper. The rule is
    /// uniform across devices (a home shard whose store evicted the image
    /// pays to re-acquire it like anyone else); only a 1-device cluster is
    /// exempt, because it has no peers and models no separate host image
    /// path (the `ReconfigModel` switch *is* the whole load there) — on the
    /// loop's plain tier, which asks nothing here, and its fleet tier alike.
    pub(crate) fn peek_acquisition(
        &self,
        device: usize,
        key: KernelKey,
        bytes: usize,
    ) -> Acquisition {
        if self.num_devices() == 1 || self.devices[device].cache.contains(&key) {
            return Acquisition::Resident;
        }
        cheapest_acquisition(&self.active_transfer(), self.holders(key), device, bytes)
    }

    /// The devices whose stores currently hold `key`'s image.
    pub(crate) fn holders(&self, key: KernelKey) -> impl Iterator<Item = usize> + '_ {
        self.devices
            .iter()
            .filter(move |device| device.cache.contains(&key))
            .map(Device::id)
    }

    /// Commits an admitted request's acquisition: adopts the image into the
    /// routed device's store (counting the store lookup and refreshing its
    /// LRU slot) and records the transfer/host-load traffic. Returns the
    /// acquisition delay to charge ahead of the context switch.
    ///
    /// The charge is *single-payer by design*: the image enters the store
    /// now, and the requester that triggered the fetch carries its delay in
    /// its own switch phase; later arrivals for the same kernel find the
    /// image resident and ride the same fetch for free — the image-store
    /// analogue of a simulation-memo hit. A 1-device cluster
    /// never commits anything (see `peek_acquisition`).
    fn commit_acquisition(
        &mut self,
        device: usize,
        kernel: &KernelEntry,
        acquisition: Acquisition,
        state: &mut ClusterState,
    ) -> f64 {
        let lone = self.num_devices() == 1;
        let store = &mut self.devices[device].cache;
        match acquisition {
            Acquisition::Resident => {
                if !lone {
                    store.get_or_share(kernel.key, &kernel.kernel);
                }
                0.0
            }
            Acquisition::HostLoad { cost_us } => {
                store.get_or_share(kernel.key, &kernel.kernel);
                state.tallies[device].host_loads += 1;
                cost_us
            }
            Acquisition::Transfer { cost_us, bytes, .. } => {
                store.get_or_share(kernel.key, &kernel.kernel);
                state.tallies[device].transfers += 1;
                state.tallies[device].transfer_bytes += bytes as u64;
                cost_us
            }
        }
    }

    /// The `(completion, needs switch, evicts warm, device)` estimate for
    /// serving `view`, whose kernel image is `image_bytes`, on `device`,
    /// acquisition cost included — the cross-device comparison key
    /// power-of-two routing minimizes. Returns the acquisition alongside so
    /// the winner's is not recomputed.
    fn completion_estimate(
        &self,
        device: usize,
        view: &DispatchRequest,
        image_bytes: usize,
        now_us: f64,
    ) -> ((f64, bool, bool, usize), Acquisition) {
        let acquisition = self.peek_acquisition(device, view.key, image_bytes);
        let (completion, needs_switch, evicts_warm, _tile) =
            self.devices[device].pool.earliest_candidate_indexed(
                view.key,
                view.est_exec_us,
                view.switch_us + acquisition.cost_us(),
                now_us,
            );
        ((completion, needs_switch, evicts_warm, device), acquisition)
    }

    /// The fleet tier's router, run at every arrival and requeue: the
    /// chosen device plus how it will acquire the kernel image (computed
    /// once, here). Only devices that are alive and admitting are eligible.
    /// Devices the request was already displaced off are avoided while any
    /// other eligible device exists; if only they remain (e.g. the device
    /// revived), they become eligible again rather than shedding the
    /// request spuriously. Returns `None` only when no device in the fleet
    /// is alive and admitting — never on a fault-free serve, where every
    /// device is eligible and no request carries exclusions. The decision
    /// is reported to the probe for request `index` — with every
    /// candidate's completion estimate, which under power-of-two choices
    /// exposes the losing device's next to the winner's.
    fn route_device_excluding(
        &self,
        index: usize,
        intake: Intake<'_>,
        now_us: f64,
        exclusions: &ExclusionSet,
        probe: &mut obs::Probe,
    ) -> Option<(usize, Acquisition)> {
        let mut route = obs::RouteMark::default();
        let strict = |device: usize| self.fault.available(device) && !exclusions.contains(device);
        let relaxed = |device: usize| self.fault.available(device);
        let picked = self
            .pick_eligible(index, intake, now_us, strict, &mut route)
            .or_else(|| {
                if exclusions.is_empty() {
                    None // relaxed == strict; nothing new to try
                } else {
                    self.pick_eligible(index, intake, now_us, relaxed, &mut route)
                }
            });
        let (device, acquisition) = picked?;
        probe.routed(index, now_us, device, route);
        Some((device, acquisition))
    }

    /// One eligibility-filtered pass of the routing policy — the selector
    /// core [`route_device_excluding`](Cluster::route_device_excluding)
    /// runs once strictly and once relaxed.
    fn pick_eligible(
        &self,
        index: usize,
        intake: Intake<'_>,
        now_us: f64,
        eligible: impl Fn(usize) -> bool + Copy,
        route: &mut obs::RouteMark,
    ) -> Option<(usize, Acquisition)> {
        let devices = self.num_devices();
        if devices == 1 {
            return eligible(0).then_some((0, Acquisition::Resident));
        }
        let (key, bytes) = {
            let kernel = intake.kernel(index);
            (kernel.key, kernel.image_bytes)
        };
        match self.route {
            RoutePolicy::KernelHash => kernel_home_eligible(key.fingerprint, devices, eligible)
                .map(|device| (device, self.peek_acquisition(device, key, bytes))),
            RoutePolicy::PowerOfTwoChoices => {
                let id = intake.rows[index].id;
                let view = intake.view(index);
                power_of_two_pair_eligible(key.fingerprint, id, devices, eligible).map(
                    |(first, second)| {
                        let (a, a_acquisition) =
                            self.completion_estimate(first, &view, bytes, now_us);
                        let (b, b_acquisition) =
                            self.completion_estimate(second, &view, bytes, now_us);
                        route.weigh(a.3, a.0);
                        if second != first {
                            route.weigh(b.3, b.0);
                        }
                        if b < a {
                            (b.3, b_acquisition)
                        } else {
                            (a.3, a_acquisition)
                        }
                    },
                )
            }
        }
    }

    /// Records rejected request `index`, and sheds with it what the tiers
    /// shed (a failed pipeline's parked stages), each with a record of its
    /// own so the served-or-rejected intake invariant holds request by
    /// request. A shed request, like one no device can serve (the whole fleet
    /// is dead or draining), counts in the cluster-total rejects but against
    /// no device's [`DeviceMetrics::rejects`] — there is no device to blame —
    /// so per-device rejects need not sum to the cluster total.
    fn reject(&self, index: usize, now_us: f64, rows: &[InFlight], state: &mut ClusterState) {
        let record = |index: usize| {
            let row = &rows[index];
            RejectedRequest {
                id: row.id,
                kernel: Arc::clone(&row.name),
                arrival_us: row.arrival_us,
                deadline_us: row.deadline_us,
            }
        };
        state.rejected.push(record(index));
        for shed in state.tiers.rejected(index, now_us) {
            state.probe.shed(shed, now_us);
            state.rejected.push(record(shed));
        }
    }

    /// Applies scheduled fault `fault_index` at `now_us`: flips the fleet
    /// flags, records the fault span, and performs the structural reaction
    /// (evacuation and requeues).
    fn apply_fault(&mut self, fault_index: usize, now_us: f64, state: &mut ClusterState) {
        let kind = self.fault.apply(fault_index, now_us);
        state.probe.fault(now_us, kind);
        match kind {
            FaultKind::Kill { device } => self.evacuate(device, true, now_us, state),
            FaultKind::Drain { device } => self.evacuate(device, false, now_us, state),
            // Routing and pricing read the fleet flags live.
            FaultKind::Revive { .. }
            | FaultKind::Undrain { .. }
            | FaultKind::DegradeLinks { .. } => {}
        }
    }

    /// The structural reaction to a kill (`kill`) or a drain of `device`.
    /// Both displace every queued request. A kill also abandons the running
    /// ones (progress counted as lost work, start withdrawn — the simulation
    /// stays sourced for the retry), rewinds the tile timelines and wipes
    /// the kernel store. A drain lets running work finish and keeps the
    /// store warm for the undrain.
    fn evacuate(&mut self, device: usize, kill: bool, now_us: f64, state: &mut ClusterState) {
        let base = device * self.tiles_per_device;
        for tile in base..base + self.tiles_per_device {
            if let Some(index) = state.running_index[tile].take_if(|_| kill) {
                // `start_request` fills the slot as it sets `running_index`.
                let start = state.starts[index]
                    .take()
                    .expect("a running request has a start");
                self.fault.device_mut(device).lost_work_us += (now_us - start.start_us).max(0.0);
                self.displace(index, device, now_us, true, state);
            }
            for index in state.queues[tile].drain_live(state.taken) {
                state.tiers.queued(index, false);
                self.displace(index, device, now_us, false, state);
            }
            if kill {
                state.pending_free[tile] = None;
                state.runs[tile] = 0;
            }
        }
        let evacuated = &mut self.devices[device];
        if !kill {
            evacuated.pool.evacuate_queues();
            return;
        }
        evacuated.pool.evacuate(now_us);
        evacuated.cache.wipe();
    }

    /// Displacement bookkeeping shared by kill and drain: the losing
    /// device enters the request's exclusion set and a requeue event at
    /// the current instant sends it back through routing (after every
    /// same-instant fault, so a coordinated kill+revive script is seen in
    /// its final state). `ran` is whether the displaced attempt had
    /// started.
    fn displace(
        &mut self,
        index: usize,
        from_device: usize,
        now_us: f64,
        ran: bool,
        state: &mut ClusterState,
    ) {
        state.exclusions.insert(index, from_device);
        self.fault.device_mut(from_device).requeues += 1;
        state.events.push(now_us, EventKind::Requeue { index });
        state.probe.requeued(index, now_us, from_device, ran);
    }

    /// The shared serve body: resets per-serve state, picks the loop's tier,
    /// lends the recycled tables to the event loop, folds its output into a
    /// report and takes the tables back on every exit path — a serve that
    /// fails costs the next one nothing. `pipelines` is a pipeline serve's
    /// tiers; every other serve runs the tiers the cluster is configured
    /// with.
    pub(crate) fn run_serve(
        &mut self,
        ingest: Ingest,
        pipelines: Option<Tiers<'_>>,
    ) -> Result<ServeReport, RuntimeError> {
        // One device with nothing to route around and no stage to park
        // serves on the plain tier; everything else is a fleet. An installed
        // plan, even an empty one, makes a fleet.
        let fleet = self.num_devices() > 1 || self.fault_plan.is_some() || pipelines.is_some();
        let tiers = pipelines.unwrap_or_else(|| Tiers::new(self, None));
        // Every fleet serve validates and arms the fault schedule before the
        // loop starts — from no events when no plan is installed.
        if fleet {
            self.fault
                .arm(self.fault_plan.as_ref(), self.num_devices())?;
        }
        for device in &mut self.devices {
            device.pool.reset();
        }
        let cache_before: Vec<CacheStats> = self.devices.iter().map(|d| d.cache.stats()).collect();
        let memo_before = self.sim_memo.stats();
        let mut tables = std::mem::take(&mut self.tables);
        let output = if fleet {
            self.event_loop::<true>(ingest, &mut tables, tiers)
        } else {
            self.event_loop::<false>(ingest, &mut tables, tiers)
        };
        let report = output.map(|mut output| {
            let sim_memo = self.sim_memo.stats().since(memo_before);
            let (metrics, devices) =
                self.aggregate(&mut output, &mut tables.latencies, &cache_before, sim_memo);
            ServeReport {
                policy: self.policy(),
                route: self.route,
                outcomes: output.outcomes,
                rejected: output.rejected,
                metrics,
                devices,
                observed: output.observed,
            }
        });

        tables.release(report.is_ok());
        self.tables = tables;
        report
    }

    /// The global id of `device`'s tile `local`. The plain tier's one
    /// device's tiles are the cluster's.
    #[inline(always)]
    fn global_tile<const FLEET: bool>(&self, device: usize, local: usize) -> usize {
        if FLEET {
            device * self.tiles_per_device + local
        } else {
            local
        }
    }

    /// The cluster-wide waiting count (what admission control bounds and
    /// the queue-area integrand): O(devices) over the per-pool O(1)
    /// counters.
    #[inline(always)]
    fn waiting_count<const FLEET: bool>(&self) -> usize {
        if FLEET {
            self.devices.iter().map(|d| d.pool.total_waiting()).sum()
        } else {
            self.devices[0].pool.total_waiting()
        }
    }

    /// The discrete-event core: pulls submissions from `ingest`, fires
    /// arrival/tile-free (and, on a fleet, fault/requeue) events in
    /// virtual-time order, and returns the per-request outcomes. Between an
    /// arrival and its tile placement sits the device-routing step with its
    /// acquisition charge.
    ///
    /// `FLEET` is the serve's tier ([`run_serve`](Cluster::run_serve) picks
    /// it): off, every fault guard below is a constant, device and tile
    /// arithmetic folds to device 0, no routing decision is taken and the
    /// [`Routed`] rows are neither grown nor read. `tiers` is what the
    /// optional tiers do at each phase.
    ///
    /// The horizon rule makes laziness sound: submissions arrive in
    /// non-decreasing arrival order, so once a request with arrival `h` has
    /// been received (or the channel has closed, `h = ∞`), every pending
    /// event at time ≤ `h` can fire without being preempted by a
    /// still-unseen arrival.
    fn event_loop<const FLEET: bool>(
        &mut self,
        mut ingest: Ingest,
        tables: &mut LoopTables,
        tiers: Tiers<'_>,
    ) -> Result<ClusterLoopOutput, RuntimeError> {
        let mut prep = PrepContext::for_pool(&self.devices[0].pool)?;
        let devices = self.num_devices();
        let total_tiles = self.total_tiles();
        let dispatch = self.policy();
        let expected = ingest.expected();
        tables.intake.reserve(expected);
        tables.taken.reserve(expected);
        tables.ready.reserve(expected);
        tables.starts.reserve(expected);
        tables.depths.reserve(expected.min(RESERVED_DEPTHS - 1) + 1);
        if FLEET {
            tables.routed.reserve(expected);
        }
        let probe = obs::Probe::new(&self.observing, expected, devices, total_tiles, || {
            tiers.classes()
        });
        // Kills must know what to abandon, and the tiers which request a
        // tile-free event completes; the plain tier has neither.
        let run_slots = if FLEET { total_tiles } else { 0 };
        let rows = &mut tables.intake;
        let mut state = ClusterState {
            queues: (0..total_tiles)
                .map(|_| TileQueue::new(dispatch, self.batching.enabled()))
                .collect(),
            taken: &mut tables.taken,
            events: EventQueue::new(),
            starts: &mut tables.starts,
            rejected: Vec::new(),
            sim: SimResults::new(&mut tables.ready),
            tiers,
            runs: vec![0; total_tiles],
            peak_queue_depth: 0,
            queue_area_us: 0.0,
            last_event_us: 0.0,
            routed: &mut tables.routed,
            exclusions: Exclusions::default(),
            tallies: vec![DeviceTally::default(); devices],
            probe,
            depths: &mut tables.depths,
            running_index: vec![None; run_slots],
            pending_free: vec![None; run_slots],
        };
        // Arm the fault schedule: pre-pushed at virtual time zero, the
        // fault events hold the lowest sequence numbers and therefore fire
        // ahead of arrivals and completions at the same instant.
        if FLEET {
            for (index, event) in self.fault.events.iter().enumerate() {
                state
                    .events
                    .push(event.time_us, EventKind::Fault { fault: index });
            }
        }
        let mut check = IntakeCheck::default();
        let mut ingest_open = true;

        loop {
            // The horizon-ruled submission pull: requests are pulled (and
            // prepared) one at a time until the earliest pending event is at
            // or before the horizon and therefore safe to fire. Every serve,
            // batch or streamed, prepares request k at the same point of the
            // event sequence.
            while ingest_open
                && state
                    .events
                    .peek_time_us()
                    .is_none_or(|time| time > check.horizon_us)
            {
                let Some(request) = ingest.recv() else {
                    // Every submitter is gone: the trace is complete.
                    ingest_open = false;
                    check.horizon_us = f64::INFINITY;
                    break;
                };
                check.admit(&request, || rows.iter().map(|row| row.id))?;
                let arrival_us = request.arrival_us;
                // The kernel's home shard is its compile authority: the
                // artifact is built (or found) in the home device's store;
                // other devices adopt the image when routing first sends the
                // kernel their way. A dead home must not hold the image (its
                // store is conceptually gone), so authority walks to the
                // next living device — or stays put when the whole fleet is
                // down.
                let home = if FLEET {
                    let fingerprint = request.kernel.fingerprint();
                    kernel_home_eligible(fingerprint, devices, |d| self.fault.alive(d))
                        .unwrap_or_else(|| kernel_home(fingerprint, devices))
                } else {
                    0
                };
                let index = rows.len();
                prepare_request(&mut self.devices[home].cache, &mut prep, request, rows)?;
                // Arrivals enter in non-decreasing time order: the monotone
                // lane appends instead of heap-sifting.
                state
                    .events
                    .push_monotone(arrival_us, EventKind::Arrival { index });
                state.starts.push(None);
                state.taken.push(false);
                state.sim.push_slot();
                if FLEET {
                    state.routed.push(Routed::default());
                }
            }
            let Some(event) = state.events.pop() else {
                // The pull loop only exits with the ingest open when an
                // event at or before the horizon is pending, so an empty
                // queue here means the trace is complete.
                debug_assert!(!ingest_open, "event queue drained while ingest is open");
                break;
            };
            let now_us = event.time_us;
            let intake = Intake {
                rows,
                kernels: &prep.kernels,
            };
            let bookkeeping = state.probe.begin();
            let waiting = self.waiting_count::<FLEET>();
            state.queue_area_us += waiting as f64 * (now_us - state.last_event_us);
            state.depths.resize(state.depths.len().max(waiting + 1), 0);
            state.depths[waiting] += 1;
            state.probe.queue(state.last_event_us, now_us, waiting);
            state.last_event_us = now_us;
            state.probe.end(obs::Stage::Bookkeeping, bookkeeping);

            match event.kind {
                EventKind::Arrival { index } => {
                    // Sessions make a fleet serve (see `run_serve`): the
                    // plain tier has no gate, no fair share and no queue
                    // count to keep.
                    let gate = if FLEET {
                        state.tiers.gate(index)
                    } else {
                        Gate::Proceed
                    };
                    match gate {
                        Gate::Proceed => {}
                        Gate::Park => continue,
                        Gate::Reject => {
                            state.probe.shed(index, now_us);
                            self.reject(index, now_us, intake.rows, &mut state);
                            continue;
                        }
                    }
                    // The route to a device (resolving how it gets the
                    // kernel image). One plain device holds every image it
                    // compiles: nothing to decide.
                    let route = state.probe.begin();
                    let routed = if FLEET {
                        self.route_device_excluding(
                            index,
                            intake,
                            now_us,
                            state.exclusions.of(index),
                            &mut state.probe,
                        )
                    } else {
                        Some((0, Acquisition::Resident))
                    };
                    self.place_routed::<FLEET>(index, routed, route, true, intake, &mut state)?;
                }
                EventKind::TileFree { tile } => {
                    let (device, local_tile) = if FLEET {
                        (tile / self.tiles_per_device, tile % self.tiles_per_device)
                    } else {
                        (0, tile)
                    };
                    if FLEET {
                        // A kill evacuated this tile after the completion
                        // event was scheduled: the event is a stale echo of
                        // abandoned work, and releasing on it would free a
                        // tile that is not running (or double-free one that
                        // restarted). Only the completion the tile is
                        // actually waiting on releases it. (The tiers ride
                        // the same bookkeeping to learn which request just
                        // completed — without faults every completion
                        // matches.)
                        if state.pending_free[tile].map(f64::to_bits) != Some(now_us.to_bits()) {
                            continue;
                        }
                        state.pending_free[tile] = None;
                        if let Some(index) = state.running_index[tile].take() {
                            let (events, probe) = (&mut state.events, &mut state.probe);
                            state.tiers.completed(index, device, now_us, events, probe);
                        }
                    }
                    self.devices[device].pool.release(local_tile);
                    if !state.queues[tile].is_empty() {
                        self.start_next::<FLEET>(device, local_tile, intake, &mut state);
                    }
                }
                EventKind::Fault { fault } if FLEET => {
                    self.apply_fault(fault, now_us, &mut state);
                }
                EventKind::Requeue { index } if FLEET => {
                    // A displaced request re-enters routing. It was already
                    // admitted (and its simulation sourced) at its arrival,
                    // so neither is repeated; only the placement is redone,
                    // avoiding the devices it was displaced off.
                    let route = state.probe.begin();
                    let routed = self.route_device_excluding(
                        index,
                        intake,
                        now_us,
                        state.exclusions.of(index),
                        &mut state.probe,
                    );
                    self.place_routed::<FLEET>(index, routed, route, false, intake, &mut state)?;
                }
                EventKind::Fault { .. } | EventKind::Requeue { .. } => {
                    // Faults are armed only `if FLEET`; requeues come only from faults.
                    unreachable!("only the fleet tier schedules fault and requeue events")
                }
            }
        }

        if rows.is_empty() {
            return Err(RuntimeError::NoRequests);
        }
        let events_fired = state.events.fired();
        let mut queue_depth_hist = obs::LogHistogram::new();
        queue_depth_hist.record_counts(state.depths);
        // The makespan is the last event's time — the final tile-free.
        let observed = state.probe.finish(
            rows.iter().map(|row| (row.id, row.arrival_us)),
            FLEET.then(|| self.route.label()),
            state.last_event_us,
        );
        let served = rows.len().saturating_sub(state.rejected.len());
        let outcomes = state.sim.into_outcomes(rows, state.starts, served);
        let batch = state.tiers.finish();
        Ok(ClusterLoopOutput {
            outcomes,
            rejected: state.rejected,
            peak_queue_depth: state.peak_queue_depth,
            queue_area_us: state.queue_area_us,
            events_fired,
            batch,
            tallies: state.tallies,
            queue_depth_hist,
            observed,
        })
    }

    /// What happens to a request once routing has answered — the tail a
    /// fresh arrival and a displaced requeue share: 1. the tiers may
    /// override the device; 2. the device's dispatcher places the request
    /// on a tile with the acquisition-adjusted switch cost; 3. the
    /// acquisition and activation are committed; 4. the request starts, or
    /// joins the tile's queue. A `fresh` arrival must on the way also pass
    /// admission control and source its simulation; a requeued request did
    /// both at its first arrival and repeats neither. `route` is the caller's open
    /// `Route` stage timer, closed here once the tile is known. Steps 1
    /// and 3 are the fleet tier's: one plain device has no other device to
    /// prefer and acquires nothing.
    #[inline(always)]
    fn place_routed<const FLEET: bool>(
        &mut self,
        index: usize,
        routed: Option<(usize, Acquisition)>,
        route: Option<Instant>,
        fresh: bool,
        intake: Intake<'_>,
        state: &mut ClusterState,
    ) -> Result<(), RuntimeError> {
        let now_us = state.events.now_us();
        let Some(mut routed) = routed else {
            // Every device is dead or draining: nothing can take the
            // request. Shed it like an admission reject (it is one — the
            // cluster has no capacity).
            state.probe.end(obs::Stage::Route, route);
            state.probe.shed(index, now_us);
            self.reject(index, now_us, intake.rows, state);
            return Ok(());
        };
        // The tile queue keys on the request's own view; placement also
        // weighs what routing adds to its switch.
        let queued = intake.view(index);
        let mut view = queued;
        if FLEET {
            // The tiers may override the load-driven choice, and price into
            // the routing row what the final device adds to the switch.
            let (row, exclusions) = (&mut state.routed[index], state.exclusions.of(index));
            routed = state
                .tiers
                .reroute(self, index, routed, intake, exclusions, row);
            view.switch_us = view.switch_us + routed.1.cost_us() + row.activation_us;
        }
        let (device, acquisition) = routed;
        let routed_device = &mut self.devices[device];
        let local_tile = routed_device
            .dispatcher
            .place(&view, now_us, &routed_device.pool);
        state.probe.end(obs::Stage::Route, route);
        let tile = self.global_tile::<FLEET>(device, local_tile);
        let starts_now = !self.devices[device].pool.states()[local_tile].running;
        if fresh && !self.admit::<FLEET>(index, device, starts_now, intake.rows, state) {
            return Ok(());
        }
        if FLEET {
            let kernel = intake.kernel(index);
            let acquire_us = self.commit_acquisition(device, kernel, acquisition, state);
            let row = &mut state.routed[index];
            row.acquire_us = acquire_us;
            row.acquire_src = acquisition.source();
            let activation_us = row.activation_us;
            state
                .tiers
                .committed(index, device, activation_us, now_us, &mut state.probe);
        }
        if fresh {
            let (memo, probe) = (&mut self.sim_memo, &mut state.probe);
            state.sim.source(index, intake, memo, probe)?;
        } else {
            // A started-then-killed request may still carry the taken flag
            // from its first life; clear it so the new queue entry is live.
            state.taken[index] = false;
        }
        if starts_now {
            self.start_request::<FLEET>(device, local_tile, index, intake, state, None);
            return Ok(());
        }
        let scan = state.probe.begin();
        self.devices[device]
            .pool
            .enqueue(local_tile, queued.key, queued.est_exec_us);
        state.queues[tile].push(index, &queued);
        if FLEET {
            state.tiers.queued(index, true);
        }
        state.probe.end(obs::Stage::Scan, scan);
        state.peak_queue_depth = state.peak_queue_depth.max(self.waiting_count::<FLEET>());
        let tally = &mut state.tallies[device];
        tally.peak_queue = tally
            .peak_queue
            .max(self.devices[device].pool.total_waiting());
        Ok(())
    }

    /// Admission control for a fresh arrival placed on `device`: a request
    /// that starts at once is always admitted; one that would queue is
    /// admitted while the cluster-wide waiting count is under the limit and
    /// the tiers find it within its share of it. Records the decision, and
    /// on a refusal the reject itself (with the tiers' cascade). Returns
    /// whether it was admitted.
    #[inline(always)]
    fn admit<const FLEET: bool>(
        &self,
        index: usize,
        device: usize,
        starts_now: bool,
        rows: &[InFlight],
        state: &mut ClusterState,
    ) -> bool {
        let now_us = state.events.now_us();
        let limit = self.admission_limit;
        let admitted = starts_now
            || (self.waiting_count::<FLEET>() < limit
                && (!FLEET || state.tiers.fair(index, limit)));
        state.probe.admitted(index, device, now_us, admitted);
        if admitted {
            return true;
        }
        state.tallies[device].rejects += 1;
        self.reject(index, now_us, rows, state);
        false
    }

    /// Pulls the next queued request off a freed tile's queue and starts
    /// it: the per-tile ordered queue pops the policy's choice in
    /// O(log depth). The tiers' pick sits over the dispatch policy's
    /// choice: it may run another waiter instead (batching runs
    /// the oldest same-kernel one, amortizing the switch the choice would
    /// have paid).
    #[inline(always)]
    fn start_next<const FLEET: bool>(
        &mut self,
        device: usize,
        local_tile: usize,
        intake: Intake<'_>,
        state: &mut ClusterState,
    ) {
        let tile = self.global_tile::<FLEET>(device, local_tile);
        let now_us = state.events.now_us();
        let scan = state.probe.begin();
        let queue = &mut state.queues[tile];
        let tile_state = &self.devices[device].pool.states()[local_tile];
        let freed = FreedTile {
            tile,
            run_len: state.runs[tile],
            run: tile_state.switches,
            resident: tile_state.resident,
        };
        let choice = queue.peek_next(freed.resident, state.taken);
        // The deadline-feasibility guard must see what the choice will
        // actually be charged: its switch *plus* the image-acquisition and
        // activation-transfer delays committed at its arrival.
        let mut choice_view = intake.view(choice);
        if FLEET {
            let row = &state.routed[choice];
            choice_view.switch_us = choice_view.switch_us + row.acquire_us + row.activation_us;
        }
        let picked = state.tiers.pick(
            freed,
            now_us,
            &choice_view,
            intake.rows[choice].arrival_us,
            |key| {
                queue
                    .oldest_for_kernel(key, state.taken)
                    .map(|i| (i, intake.rows[i].est_exec_us))
            },
        );
        let index = picked.unwrap_or(choice);
        queue.take(index, state.taken);
        if FLEET {
            state.tiers.queued(index, false);
        }
        // Deadline-aware removal may have taken the queue tail; tell the
        // pool what the queue ends in now so residency projection stays
        // honest for later placements. The dequeue and the charge are one
        // combined pool transition (a single index update).
        let remaining_tail = queue.tail_key(state.taken);
        let est_us = intake.rows[index].est_exec_us;
        state.probe.end(obs::Stage::Scan, scan);
        self.start_request::<FLEET>(
            device,
            local_tile,
            index,
            intake,
            state,
            Some((est_us, remaining_tail)),
        );
    }

    /// Commits request `index` to its routed device's tile at the current
    /// virtual time: reads its measured cycle count, charges the tile's
    /// timeline with acquisition + switch + execution, records where and
    /// when it started and schedules the tile-free event at the completion.
    #[inline(always)]
    fn start_request<const FLEET: bool>(
        &mut self,
        device: usize,
        local_tile: usize,
        index: usize,
        intake: Intake<'_>,
        state: &mut ClusterState,
        from_queue: Option<(f64, Option<KernelKey>)>,
    ) {
        let now_us = state.events.now_us();
        let tile = self.global_tile::<FLEET>(device, local_tile);
        let (row, kernel) = (&intake.rows[index], intake.kernel(index));
        let serving = &mut self.devices[device];
        let exec_cycles =
            state.sim.run(index).metrics().total_cycles + serving.pool.roundtrip_cycles(local_tile);
        let exec_us = exec_cycles as f64 / kernel.fmax_mhz;
        // The image acquisition (inter-device transfer or host load)
        // resolved at the arrival event is charged ahead of the context
        // switch, as is the inter-stage activation transfer on a pipeline
        // serve; a request whose tile does not switch pays none of them.
        let mut switch_us = kernel.switch_us;
        if FLEET {
            let routed = &state.routed[index];
            switch_us = switch_us + routed.acquire_us + routed.activation_us;
        }
        let charged = match from_queue {
            Some((est_us, remaining_tail)) => serving.pool.start_queued(
                local_tile,
                est_us,
                remaining_tail,
                kernel.key,
                now_us,
                switch_us,
                exec_us,
            ),
            None => serving
                .pool
                .charge(local_tile, kernel.key, now_us, switch_us, exec_us),
        };
        // A switch opens a new same-kernel run; a warm start extends it.
        let run_len = &mut state.runs[tile];
        *run_len = if charged.switched { 1 } else { *run_len + 1 };
        let run_len = *run_len;
        let latency_us = charged.completion_us - row.arrival_us;
        state.tallies[device].latency_hist.record(latency_us);
        let start = Start {
            device: device as u32,
            tile: local_tile as u32,
            start_us: charged.start_us,
            completion_us: charged.completion_us,
            switched: charged.switched,
            missed_deadline: row
                .deadline_us
                .is_some_and(|deadline| charged.completion_us > deadline),
        };
        // The acquisition is only paid (and only spanned) as part of a
        // context switch — a warm tile rides the resident image free. A
        // transfer moves the whole image over the link.
        let routed = FLEET.then(|| {
            let routed = &state.routed[index];
            let moved = routed.acquire_src == AcquireSource::Transfer;
            (routed, if moved { kernel.image_bytes as u64 } else { 0 })
        });
        let switch_us = kernel.switch_us;
        state
            .probe
            .started(index, &start, latency_us, run_len, switch_us, routed);
        state.starts[index] = Some(start);
        if FLEET {
            // Kills must know what to abandon, and stale completions of
            // abandoned work must be told apart from this run's. The
            // tiers read the same bookkeeping to learn which request a
            // tile-free event just completed.
            state.running_index[tile] = Some(index);
            state.pending_free[tile] = Some(charged.completion_us);
        }
        state
            .events
            .push(charged.completion_us, EventKind::TileFree { tile });
    }

    /// Folds the loop output into cluster totals plus the per-device
    /// breakdown — one pass over the outcomes in submission order for the
    /// counters and sums, with their latencies going into the recycled
    /// `latencies` table (and on several devices a second to scatter them
    /// device-major), then selection (not a sort) for the percentiles: each
    /// device's on its own sub-range, the cluster's on the whole.
    fn aggregate(
        &self,
        output: &mut ClusterLoopOutput,
        latencies: &mut Vec<f64>,
        cache_before: &[CacheStats],
        sim_memo: CacheStats,
    ) -> (RuntimeMetrics, Vec<DeviceMetrics>) {
        /// One device's share of the outcomes; `end` is where its latencies
        /// stop in the table once it is device-major.
        #[derive(Clone, Copy, Default)]
        struct DeviceSums {
            requests: usize,
            end: usize,
            latency_sum: f64,
            max_latency_us: f64,
            deadline_misses: usize,
            deadline_requests: usize,
        }
        let outcomes = &output.outcomes;
        let requests = outcomes.len();
        let mut sums = vec![DeviceSums::default(); self.num_devices()];
        let mut invocations = 0usize;
        let mut makespan_us = 0.0_f64;
        let mut latency_sum = 0.0_f64;
        latencies.reserve(requests);
        for outcome in outcomes {
            invocations += outcome.sim().blocks;
            makespan_us = makespan_us.max(outcome.completion_us);
            latency_sum += outcome.latency_us;
            latencies.push(outcome.latency_us);
            let device = &mut sums[outcome.device];
            device.requests += 1;
            device.latency_sum += outcome.latency_us;
            device.max_latency_us = device.max_latency_us.max(outcome.latency_us);
            device.deadline_misses += usize::from(outcome.missed_deadline);
            device.deadline_requests += usize::from(outcome.deadline_us.is_some());
        }
        if let [only] = sums.as_mut_slice() {
            // One device: submission order is device-major already.
            only.end = requests;
        } else {
            // `end` walks up from the device's first slot as the scatter
            // fills it.
            let mut first = 0;
            for device in &mut sums {
                device.end = first;
                first += device.requests;
            }
            for outcome in outcomes {
                let device = &mut sums[outcome.device];
                latencies[device.end] = outcome.latency_us;
                device.end += 1;
            }
        }
        let per_second = if makespan_us > 0.0 {
            1.0e6 / makespan_us
        } else {
            0.0
        };
        let utilization = |busy_us: f64| {
            if makespan_us > 0.0 {
                busy_us / makespan_us
            } else {
                0.0
            }
        };

        let device_metrics: Vec<DeviceMetrics> = self
            .devices
            .iter()
            .zip(&sums)
            .zip(&output.tallies)
            .map(|((device, sums), tally)| {
                let id = device.id;
                let states = device.pool.states();
                let faults = self.fault.device(id);
                let latencies = &mut latencies[sums.end - sums.requests..sums.end];
                DeviceMetrics {
                    device: id,
                    requests: sums.requests,
                    mean_latency_us: sums.latency_sum / sums.requests.max(1) as f64,
                    p50_latency_us: metrics::percentile_by_selection(latencies, 0.50),
                    p99_latency_us: metrics::percentile_by_selection(latencies, 0.99),
                    max_latency_us: sums.max_latency_us,
                    switch_count: states.iter().map(|s| s.switches).sum(),
                    total_switch_us: states.iter().map(|s| s.switch_us).sum(),
                    tile_utilization: states.iter().map(|s| utilization(s.busy_us)).collect(),
                    tile_requests: states.iter().map(|s| s.served).collect(),
                    cache: device.cache.stats().since(cache_before[id]),
                    deadline_misses: sums.deadline_misses,
                    deadline_requests: sums.deadline_requests,
                    rejects: tally.rejects,
                    peak_queue_depth: tally.peak_queue,
                    transfers_in: tally.transfers,
                    transfer_bytes_in: tally.transfer_bytes,
                    host_loads: tally.host_loads,
                    availability: faults.availability(makespan_us),
                    faults: faults.faults,
                    requeues_out: faults.requeues,
                    lost_work_us: faults.lost_work_us,
                }
            })
            .collect();
        // One device's percentiles are the cluster's.
        let (p50_latency_us, p99_latency_us) = match device_metrics.as_slice() {
            [only] => (only.p50_latency_us, only.p99_latency_us),
            _ => (
                metrics::percentile_by_selection(latencies, 0.50),
                metrics::percentile_by_selection(latencies, 0.99),
            ),
        };

        let all_states = || self.devices.iter().flat_map(|d| d.pool.states());
        let cache_total = device_metrics
            .iter()
            .fold(CacheStats::default(), |acc, d| CacheStats {
                hits: acc.hits + d.cache.hits,
                misses: acc.misses + d.cache.misses,
                evictions: acc.evictions + d.cache.evictions,
            });
        let totals = RuntimeMetrics {
            requests,
            invocations,
            makespan_us,
            requests_per_sec: requests as f64 * per_second,
            invocations_per_sec: invocations as f64 * per_second,
            mean_latency_us: latency_sum / requests.max(1) as f64,
            p50_latency_us,
            p99_latency_us,
            max_latency_us: sums.iter().fold(0.0, |max, d| max.max(d.max_latency_us)),
            switch_count: all_states().map(|s| s.switches).sum(),
            total_switch_us: all_states().map(|s| s.switch_us).sum(),
            tile_utilization: all_states().map(|s| utilization(s.busy_us)).collect(),
            tile_requests: all_states().map(|s| s.served).collect(),
            cache: cache_total,
            sim_memo,
            events_fired: output.events_fired,
            deadline_misses: sums.iter().map(|d| d.deadline_misses).sum(),
            deadline_requests: sums.iter().map(|d| d.deadline_requests).sum(),
            batch: output.batch,
            rejects: output.rejected.len(),
            rejected_deadlines: output
                .rejected
                .iter()
                .filter(|r| r.deadline_us.is_some())
                .count(),
            peak_queue_depth: output.peak_queue_depth,
            mean_queue_depth: if makespan_us > 0.0 {
                output.queue_area_us / makespan_us
            } else {
                0.0
            },
            tile_peak_queue: all_states().map(|s| s.peak_queue_depth).collect(),
            latency_hist: obs::LogHistogram::merged(
                &output
                    .tallies
                    .iter()
                    .map(|tally| &tally.latency_hist)
                    .collect::<Vec<_>>(),
            ),
            queue_depth_hist: std::mem::take(&mut output.queue_depth_hist),
        };
        (totals, device_metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{PipelineRequest, PipelineStage, Session, SloClass};
    use crate::tests::benchmark_trace;
    use crate::{KernelSpec, Request};
    use overlay_frontend::Benchmark;
    use overlay_sim::Workload;
    use std::sync::Arc;

    #[test]
    fn empty_clusters_and_pools_are_rejected() {
        assert!(matches!(
            Cluster::new(FuVariant::V4, 0, 4),
            Err(RuntimeError::EmptyCluster)
        ));
        assert!(matches!(
            Cluster::new(FuVariant::V4, 2, 0),
            Err(RuntimeError::EmptyPool)
        ));
    }

    #[test]
    fn builders_configure_every_device() {
        let cluster = Cluster::new(FuVariant::V3, 3, 2)
            .unwrap()
            .with_policy(DispatchPolicy::SlackAware)
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_cache_capacity(8)
            .unwrap()
            .with_admission_limit(5);
        assert_eq!(cluster.num_devices(), 3);
        assert_eq!(cluster.tiles_per_device(), 2);
        assert_eq!(cluster.total_tiles(), 6);
        assert_eq!(cluster.variant(), FuVariant::V3);
        assert_eq!(cluster.policy(), DispatchPolicy::SlackAware);
        assert_eq!(cluster.route_policy(), RoutePolicy::PowerOfTwoChoices);
        assert_eq!(cluster.admission_limit(), 5);
        for (id, device) in cluster.devices().iter().enumerate() {
            assert_eq!(device.id(), id);
            assert_eq!(device.pool().num_tiles(), 2);
            assert_eq!(device.cache().capacity(), 8);
        }
    }

    #[test]
    fn kernel_hash_routing_pins_each_kernel_to_one_device() {
        let requests = benchmark_trace(24, 4, 0xC105);
        let mut cluster = Cluster::new(FuVariant::V4, 4, 2).unwrap();
        let report = cluster.serve(requests).unwrap();
        assert_eq!(report.route_policy(), RoutePolicy::KernelHash);
        let mut device_of: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for outcome in report.outcomes() {
            let previous = device_of.insert(outcome.kernel.to_string(), outcome.device);
            if let Some(previous) = previous {
                assert_eq!(previous, outcome.device, "{} moved shards", outcome.kernel);
            }
        }
        // A sharded kernel never leaves its home, so nothing ever transfers.
        assert_eq!(report.transfers(), 0);
        assert_eq!(report.host_loads(), 0);
    }

    #[test]
    fn transfers_beat_host_loads_when_the_link_is_cheaper() {
        // A burst power-of-two routing spreads, first over the default
        // link, then with the link priced out from the start: no transfers.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let burst: Vec<Request> = (0..8)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
            .collect();
        let mut linked = Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices);
        let linked_report = linked.serve(burst.clone()).unwrap();
        assert!(linked_report.transfers() > 0, "default link beats the host");
        assert!(linked_report.transfer_bytes() > 0);

        let mut hosted = Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_fault_plan(FaultPlan::new().degrade_links(0.0, 1.0e12));
        let hosted_report = hosted.serve(burst).unwrap();
        assert_eq!(hosted_report.transfers(), 0, "host loads win");
        assert_eq!(hosted_report.host_loads(), 3);
    }

    #[test]
    fn per_device_metrics_roll_up_to_the_cluster_totals() {
        let requests = benchmark_trace(32, 4, 0xC105);
        let mut cluster = Cluster::new(FuVariant::V4, 3, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices);
        let report = cluster.serve(requests).unwrap();
        let totals = report.metrics();
        let devices = report.device_metrics();
        assert_eq!(devices.len(), 3);
        assert_eq!(
            devices.iter().map(|d| d.requests).sum::<usize>(),
            totals.requests
        );
        assert_eq!(
            devices.iter().map(|d| d.switch_count).sum::<usize>(),
            totals.switch_count
        );
        assert_eq!(
            devices
                .iter()
                .map(|d| d.cache.hits + d.cache.misses)
                .sum::<usize>(),
            totals.cache.hits + totals.cache.misses
        );
        let flattened: Vec<usize> = devices
            .iter()
            .flat_map(|d| d.tile_requests.iter().copied())
            .collect();
        assert_eq!(flattened, totals.tile_requests);
        for device in devices {
            assert!(device.p50_latency_us <= device.p99_latency_us);
            assert!(device.p99_latency_us <= device.max_latency_us);
            assert!(device.max_latency_us <= totals.max_latency_us);
            assert!(device.peak_queue_depth <= totals.peak_queue_depth);
        }
        // The merged cluster percentiles bracket the per-device extremes.
        assert!(totals.p99_latency_us <= totals.max_latency_us);
    }

    /// Acquisition rules are uniform under store eviction: a device whose
    /// capacity-1 store thrashes between kernels pays to re-acquire evicted
    /// images (home shard included), while a 1-device cluster under the
    /// same eviction pressure still never acquires — the fleet tier (an
    /// empty fault plan puts `single` there) stays bitwise equivalent to
    /// the plain one an unplanned one-device cluster serves on. The fleet
    /// serves the trace as one burst: spaced out, power-of-two routing keeps
    /// every request on the home that just compiled its kernel.
    #[test]
    fn tiny_stores_reacquire_evicted_images_and_one_device_stays_exempt() {
        let trace = benchmark_trace(16, 4, 0xC105);
        let burst: Vec<Request> = trace.iter().cloned().map(|r| r.at(0.0)).collect();
        let mut thrashing = Cluster::new(FuVariant::V4, 2, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_cache_capacity(1)
            .unwrap();
        let report = thrashing.serve(burst).unwrap();
        assert_eq!(report.outcomes().len(), 16);
        assert!(
            report.transfers() + report.host_loads() > 2,
            "4 kernels through capacity-1 stores must keep re-acquiring, got {} + {}",
            report.transfers(),
            report.host_loads()
        );

        let mut single = Cluster::new(FuVariant::V4, 1, 2)
            .unwrap()
            .with_fault_plan(FaultPlan::new())
            .with_cache_capacity(1)
            .unwrap();
        let mut runtime = Cluster::new(FuVariant::V4, 1, 2)
            .unwrap()
            .with_cache_capacity(1)
            .unwrap();
        let cluster_report = single.serve(trace.clone()).unwrap();
        let runtime_report = runtime.serve(trace).unwrap();
        assert_eq!(cluster_report.transfers(), 0);
        assert_eq!(cluster_report.host_loads(), 0);
        assert_eq!(cluster_report.metrics(), runtime_report.metrics());
    }

    #[test]
    fn cluster_admission_limit_is_cluster_wide() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let burst: Vec<Request> = (0..12)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
            .collect();
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_admission_limit(2);
        let report = cluster.serve(burst).unwrap();
        // 2 start immediately (one per device), 2 wait, the rest shed.
        assert_eq!(report.outcomes().len(), 4);
        assert_eq!(report.metrics().rejects, 8);
        assert_eq!(
            report
                .device_metrics()
                .iter()
                .map(|d| d.rejects)
                .sum::<usize>(),
            8
        );
    }

    #[test]
    fn invalid_cluster_traces_are_rejected() {
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1).unwrap();
        assert!(matches!(
            cluster.serve(Vec::new()),
            Err(RuntimeError::NoRequests)
        ));
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let first = Request::new(0, spec.clone(), Workload::ramp(5, 2)).at(10.0);
        let stale = Request::new(1, spec, Workload::ramp(5, 2)).at(5.0);
        assert!(matches!(
            cluster.serve(vec![first, stale]),
            Err(RuntimeError::OutOfOrderArrival { request: 1, .. })
        ));
    }

    fn benchmark_chain(id: u64, session: u64, stages: usize, arrival_us: f64) -> PipelineRequest {
        let suite = [
            Benchmark::Gradient,
            Benchmark::Chebyshev,
            Benchmark::Qspline,
            Benchmark::Poly5,
        ];
        PipelineRequest::chain(
            id,
            session,
            (0..stages).map(|stage| {
                let benchmark = suite[stage % suite.len()];
                let spec = KernelSpec::from_benchmark(benchmark).unwrap();
                let inputs = benchmark.dfg().unwrap().num_inputs();
                (spec, Workload::random(inputs, 4, id ^ stage as u64))
            }),
        )
        .at(arrival_us)
    }

    #[test]
    fn pipeline_stages_run_in_dependency_order_with_activation_transfers() {
        let mut cluster = Cluster::new(FuVariant::V4, 4, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices);
        let pipelines: Vec<PipelineRequest> = (0..6)
            .map(|i| benchmark_chain(i, i % 2, 3, i as f64 * 5.0))
            .collect();
        let sessions = [Session::new(0), Session::new(1).with_slo(SloClass::Latency)];
        let report = cluster
            .serve_pipelines(pipelines.clone(), &sessions)
            .unwrap();
        assert_eq!(report.pipelines.len(), 6);
        assert_eq!(report.completed(), 6);
        // Every stage is one cluster outcome: 6 pipelines × 3 stages.
        assert_eq!(report.cluster.outcomes().len(), 18);
        // Dependency order: each stage of a chain starts no earlier than
        // its predecessor's completion.
        for (submitted, pipeline) in pipelines.iter().zip(&report.pipelines) {
            let by_stage: Vec<&RequestOutcome> = (0..pipeline.stages)
                .map(|stage| {
                    let id = submitted.stage_request_id(stage);
                    report
                        .cluster
                        .outcomes()
                        .iter()
                        .find(|o| o.request_id == id)
                        .expect("every stage has an outcome")
                })
                .collect();
            for pair in by_stage.windows(2) {
                assert!(
                    pair[1].start_us >= pair[0].completion_us,
                    "a stage started before its input committed"
                );
            }
            assert_eq!(pipeline.finish_us, by_stage[2].completion_us);
            assert!(pipeline.commit_us >= pipeline.finish_us);
        }
        // Depth buckets 0..=2 and both SLO classes are reported.
        assert_eq!(report.stages.len(), 3);
        assert!(report.stages.iter().all(|s| s.served == 6));
        assert!(report.class(SloClass::Latency).is_some());
        assert!(report.class(SloClass::Standard).is_some());
    }

    #[test]
    fn stage_affinity_cuts_activation_transfers() {
        // Heavy activations under kernel-hash routing: routing alone sends
        // each stage to its kernel's home device, and consecutive stages'
        // kernels home apart, so every edge would pay a transfer. Affinity
        // keeps consumers on their producers.
        let homes: Vec<usize> = benchmark_chain(0, 0, 3, 0.0)
            .stages
            .iter()
            .map(|stage| kernel_home(stage.kernel.fingerprint(), 4))
            .collect();
        assert!(homes.windows(2).all(|edge| edge[0] != edge[1]), "{homes:?}");
        let mut cluster = Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::KernelHash);
        let pipelines: Vec<PipelineRequest> = (0..8)
            .map(|i| {
                let mut pipeline = benchmark_chain(i, i, 3, i as f64 * 2.0);
                for stage in &mut pipeline.stages {
                    stage.output_bytes = 1 << 20;
                }
                pipeline
            })
            .collect();
        let sessions: Vec<Session> = (0..8).map(Session::new).collect();
        let affine = cluster.serve_pipelines(pipelines, &sessions).unwrap();
        assert_eq!(affine.completed(), 8);
        assert_eq!(affine.activation_transfers(), 0);
    }

    #[test]
    fn single_stage_standard_pipelines_match_the_plain_serve_bitwise() {
        let trace = benchmark_trace(12, 4, 0xC105);
        let pipelines: Vec<PipelineRequest> = trace
            .iter()
            .map(|request| {
                PipelineRequest::new(request.id, request.id % 3)
                    .at(request.arrival_us)
                    .stage(PipelineStage::new(
                        request.kernel.clone(),
                        request.workload.clone(),
                    ))
            })
            .collect();
        let requests: Vec<Request> = trace
            .into_iter()
            .zip(&pipelines)
            .map(|(request, pipeline)| Request {
                id: pipeline.stage_request_id(0),
                ..request
            })
            .collect();
        let sessions: Vec<Session> = (0..3).map(Session::new).collect();
        let mut plain = Cluster::new(FuVariant::V4, 2, 2).unwrap();
        let mut piped = Cluster::new(FuVariant::V4, 2, 2).unwrap();
        let plain_report = plain.serve(requests).unwrap();
        let piped_report = piped.serve_pipelines(pipelines, &sessions).unwrap();
        assert_eq!(
            plain_report.outcomes().len(),
            piped_report.cluster.outcomes().len()
        );
        for (lhs, rhs) in plain_report
            .outcomes()
            .iter()
            .zip(piped_report.cluster.outcomes())
        {
            assert_eq!(lhs.request_id, rhs.request_id);
            assert_eq!(lhs.device, rhs.device);
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.start_us.to_bits(), rhs.start_us.to_bits());
            assert_eq!(lhs.completion_us.to_bits(), rhs.completion_us.to_bits());
        }
        assert_eq!(plain_report.metrics(), piped_report.cluster.metrics());
    }

    #[test]
    fn weighted_fair_admission_shields_the_latency_tier() {
        // A saturating burst: one single-tile device, admission limit 6.
        // Best-effort floods, latency trickles. Weighted-fair shares keep
        // queue slots for the latency session that a plain FIFO limit
        // would let the flood consume.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let mut pipelines = Vec::new();
        for i in 0..12u64 {
            pipelines.push(
                PipelineRequest::new(i, 9)
                    .at(0.0)
                    .stage(PipelineStage::new(spec.clone(), Workload::random(5, 64, i)))
                    .with_deadline(1e9),
            );
        }
        for i in 12..16u64 {
            pipelines.push(
                PipelineRequest::new(i, 7)
                    .at(1.0)
                    .stage(PipelineStage::new(spec.clone(), Workload::random(5, 64, i)))
                    .with_deadline(1e9),
            );
        }
        let sessions = [
            Session::new(9).with_slo(SloClass::BestEffort),
            Session::new(7).with_slo(SloClass::Latency),
        ];
        let mut cluster = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_admission_limit(6);
        let report = cluster.serve_pipelines(pipelines, &sessions).unwrap();
        let latency = report.class(SloClass::Latency).unwrap();
        let best_effort = report.class(SloClass::BestEffort).unwrap();
        // Weighted shares of 6 over total weight 5: latency 4, best 1 —
        // the flood cannot take the whole queue.
        assert_eq!(latency.pipelines, 4);
        assert!(
            latency.rejected < best_effort.rejected,
            "latency tier ({} rejects) should shed less than best-effort ({})",
            latency.rejected,
            best_effort.rejected
        );
        assert!(best_effort.rejected > 0, "the flood must actually shed");
    }

    #[test]
    fn a_mid_serve_kill_requeues_stages_without_losing_finished_work() {
        let pipelines: Vec<PipelineRequest> = (0..6)
            .map(|i| benchmark_chain(i, i, 3, i as f64 * 10.0))
            .collect();
        let sessions: Vec<Session> = (0..6).map(Session::new).collect();
        let mut cluster = Cluster::new(FuVariant::V4, 3, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices)
            .with_fault_plan(FaultPlan::new().kill(40.0, 1));
        let report = cluster.serve_pipelines(pipelines, &sessions).unwrap();
        // The kill displaces resident stages but never un-completes
        // upstream ones: every pipeline still runs all stages.
        assert_eq!(report.completed(), 6);
        for pipeline in &report.pipelines {
            assert_eq!(pipeline.completed_stages, 3);
            assert!(!pipeline.rejected);
        }
        assert_eq!(report.cluster.outcomes().len(), 18);
        // Nothing lands on the dead device after the kill.
        for outcome in report.cluster.outcomes() {
            if outcome.start_us >= 40.0 {
                assert_ne!(outcome.device, 1, "a stage started on the dead device");
            }
        }
    }

    /// A request killed mid-run is reported where and when its retry ran,
    /// and the device it died on books the run it lost from its first start.
    #[test]
    fn a_killed_request_is_reported_where_its_retry_ran() {
        let inputs = Benchmark::Poly5.dfg().unwrap().num_inputs();
        let spec = KernelSpec::from_benchmark(Benchmark::Poly5).unwrap();
        let request = Request::new(7, spec, Workload::random(inputs, 4_096, 0xF00)).at(5.0);
        let build = |plan| {
            Cluster::new(FuVariant::V4, 2, 2)
                .unwrap()
                .with_fault_plan(plan)
        };
        let undisturbed = build(FaultPlan::new())
            .serve(vec![request.clone()])
            .unwrap();
        let first = &undisturbed.outcomes()[0];
        let kill_us = (first.start_us + first.completion_us) / 2.0;
        let mut cluster = build(FaultPlan::new().kill(kill_us, first.device));
        let report = cluster.serve(vec![request]).unwrap();

        assert_eq!(report.requeues(), 1);
        let [retry] = report.outcomes() else {
            panic!("one outcome, not {}", report.outcomes().len());
        };
        assert_ne!(retry.device, first.device, "the retry ran on the survivor");
        assert_eq!(retry.start_us, kill_us, "the retry started at the kill");
        assert_eq!(retry.queued_us, kill_us - 5.0);
        assert_eq!(retry.latency_us, retry.completion_us - 5.0);
        let tile = &cluster.devices()[retry.device].pool().states()[retry.tile];
        assert_eq!((tile.served, tile.available_us), (1, retry.completion_us));
        let lost = report.device_metrics()[first.device].lost_work_us;
        assert_eq!(lost, kill_us - first.start_us);
        assert!(lost > 0.0);
    }

    #[test]
    fn invalid_pipelines_are_rejected_before_serving() {
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1).unwrap();
        assert!(matches!(
            cluster.serve_pipelines(Vec::new(), &[]),
            Err(RuntimeError::NoRequests)
        ));
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let cyclic = PipelineRequest::new(3, 0)
            .stage(PipelineStage::new(spec.clone(), Workload::ramp(5, 2)).after(&[1]))
            .stage(PipelineStage::new(spec, Workload::ramp(5, 2)).after(&[0]));
        assert!(matches!(
            cluster.serve_pipelines(vec![cyclic], &[]),
            Err(RuntimeError::InvalidPipeline { pipeline: 3, .. })
        ));
    }

    /// A warm-able trace: four kernels, three workloads each, arrivals far
    /// closer than a run lasts (so queues form), a deadline on every fifth.
    fn repeating_trace(count: usize) -> Vec<Request> {
        let suite = [
            Benchmark::Gradient,
            Benchmark::Chebyshev,
            Benchmark::Qspline,
            Benchmark::Poly5,
        ]
        .map(|benchmark| {
            let inputs = benchmark.dfg().unwrap().num_inputs();
            let workloads = [1, 2, 3].map(|seed| Workload::random(inputs, 2, seed));
            (KernelSpec::from_benchmark(benchmark).unwrap(), workloads)
        });
        (0..count)
            .map(|i| {
                let (kernel, workloads) = &suite[i % suite.len()];
                let arrival_us = i as f64 * 0.02;
                let request = Request::new(i as u64, kernel.clone(), workloads[i % 3].clone());
                match i % 5 {
                    0 => request.at(arrival_us).with_deadline(arrival_us + 2.0),
                    _ => request.at(arrival_us),
                }
            })
            .collect()
    }

    /// Everything a serve decided and computed: outcomes (with their
    /// outputs) and rejects in report order, the metrics and the per-device
    /// breakdown — minus the per-device split of compile-cache lookups,
    /// which on a streamed serve follows ingest timing (the totals do not).
    fn decided(report: &ServeReport) -> (String, RuntimeMetrics, Vec<DeviceMetrics>) {
        let requests = format!("{:?}\n{:?}", report.outcomes(), report.rejected());
        let devices = report
            .device_metrics()
            .iter()
            .map(|device| DeviceMetrics {
                cache: CacheStats::default(),
                ..device.clone()
            })
            .collect();
        (requests, report.metrics().clone(), devices)
    }

    /// The admitted ids of `trace`, in intake order.
    fn admitted_ids(trace: &[Request], rejected: &[RejectedRequest]) -> Vec<u64> {
        trace
            .iter()
            .map(|request| request.id)
            .filter(|id| rejected.iter().all(|reject| reject.id != *id))
            .collect()
    }

    /// Serves a long trace, a short one, the long one under a tight
    /// admission limit (so the outcome drain meets requests that never
    /// started) and
    /// a stream of shared requests on one cluster, each
    /// report held to the one a twin returns that lives through the same
    /// serves (its kernel-image stores and memo are as warm) but has its
    /// tables thrown away before each.
    fn reused_tables_match_fresh_ones(build: impl Fn() -> Cluster) {
        let long = repeating_trace(2_000);
        let short = repeating_trace(300);
        let (mut reused, mut twin) = (build(), build());
        for trace in [&long, &short] {
            let report = reused.serve(trace.clone()).unwrap();
            twin.tables = LoopTables::default();
            assert_eq!(
                decided(&report),
                decided(&twin.serve(trace.clone()).unwrap())
            );
            assert!(report.rejected().is_empty());
            let ids: Vec<u64> = report.outcomes().iter().map(|o| o.request_id).collect();
            assert_eq!(ids, admitted_ids(trace, &[]), "intake order");
        }

        let mut reused = reused.with_admission_limit(4);
        let mut twin = twin.with_admission_limit(4);
        let report = reused.serve(long.clone()).unwrap();
        twin.tables = LoopTables::default();
        assert_eq!(
            decided(&report),
            decided(&twin.serve(long.clone()).unwrap())
        );
        assert!(!report.rejected().is_empty() && !report.outcomes().is_empty());
        let ids: Vec<u64> = report.outcomes().iter().map(|o| o.request_id).collect();
        assert_eq!(ids, admitted_ids(&long, report.rejected()), "intake order");

        // The producer keeps its share of every request it submits: the
        // loop has to copy out of the `Arc`.
        let shared: Vec<Arc<Request>> = short.iter().cloned().map(Arc::new).collect();
        let feed = |submitter: Submitter| {
            for request in &shared {
                submitter.submit(Arc::clone(request)).unwrap();
            }
        };
        let mut reused = reused.with_admission_limit(usize::MAX);
        let mut twin = twin.with_admission_limit(usize::MAX);
        let report = reused.serve_stream(feed).unwrap();
        twin.tables = LoopTables::default();
        assert_eq!(decided(&report), decided(&twin.serve_stream(feed).unwrap()));
        let ids: Vec<u64> = report.outcomes().iter().map(|o| o.request_id).collect();
        assert_eq!(ids, admitted_ids(&short, &[]), "intake order");
        assert!(
            shared.iter().all(|request| Arc::strong_count(request) == 1),
            "nothing of a request outlives its serve"
        );
    }

    #[test]
    fn recycled_tables_carry_nothing_from_one_serve_to_the_next() {
        // Once per tier of the loop: one device serves on the plain one.
        reused_tables_match_fresh_ones(|| Cluster::new(FuVariant::V4, 1, 3).unwrap());
        reused_tables_match_fresh_ones(|| {
            Cluster::new(FuVariant::V4, 4, 2)
                .unwrap()
                .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        });
    }

    #[test]
    fn a_failed_pipeline_serve_leaves_nothing_behind() {
        // Three stages of `x * 3 + tag`; a broken pipeline's middle stage
        // does not parse.
        let chain = |id: u64, arrival_us: f64, broken: bool| {
            PipelineRequest::chain(
                id,
                id,
                (0..3u64).map(|tag| {
                    let source = if broken && tag == 1 {
                        "kernel k1(x) { out y = ; }".to_string()
                    } else {
                        format!("kernel k{tag}(x) {{ out y = x * 3 + {tag}; }}")
                    };
                    let kernel = KernelSpec::from_source(format!("k{tag}"), source);
                    (kernel, Workload::ramp(1, 4))
                }),
            )
            .at(arrival_us)
        };
        let sessions = [Session::new(0).with_slo(SloClass::Latency)];
        let build = |plan| {
            Cluster::new(FuVariant::V4, 2, 2)
                .unwrap()
                .with_fault_plan(plan)
        };
        let trace = repeating_trace(300);
        let failures = [
            // The broken pipeline arrives once the first one's stages are
            // running, so the serve fails at its intake, mid-serve.
            (
                vec![chain(0, 0.0, false), chain(1, 50.0, true)],
                FaultPlan::new(),
            ),
            // A plan naming a device the cluster lacks fails the serve
            // before its loop starts.
            (vec![chain(0, 0.0, false)], FaultPlan::new().kill(1.0, 9)),
        ];
        for (pipelines, plan) in failures {
            let mut cluster = build(plan);
            assert!(matches!(
                cluster.serve_pipelines(pipelines, &sessions),
                Err(RuntimeError::Frontend(_) | RuntimeError::InvalidFaultPlan { .. })
            ));
            let mut cluster = cluster.with_fault_plan(FaultPlan::new());
            assert_eq!(
                decided(&cluster.serve(trace.clone()).unwrap()),
                decided(&build(FaultPlan::new()).serve(trace.clone()).unwrap())
            );
        }
    }

    #[test]
    fn retained_table_capacity_follows_the_four_times_rule() {
        const BIG: usize = 50_000;
        const SMALL: usize = 100;
        let capacities = |t: &LoopTables| {
            [
                t.intake.capacity(),
                t.taken.capacity(),
                t.ready.capacity(),
                t.latencies.capacity(),
                t.routed.capacity(),
            ]
        };
        let mut runtime = Cluster::new(FuVariant::V4, 1, 8).unwrap();
        let mut cluster = Cluster::new(FuVariant::V4, 2, 4).unwrap();
        assert_eq!(capacities(&runtime.tables), [0; 5], "nothing up front");
        assert_eq!(capacities(&cluster.tables), [0; 5], "nothing up front");

        runtime.serve(repeating_trace(BIG)).unwrap();
        cluster.serve(repeating_trace(BIG)).unwrap();
        let kept = capacities(&runtime.tables);
        assert!(
            kept[..4].iter().all(|&capacity| capacity >= BIG),
            "{kept:?}"
        );
        assert_eq!(kept[4], 0, "the plain tier never touches the fleet's");
        let kept = capacities(&cluster.tables);
        assert!(kept.iter().all(|&capacity| capacity >= BIG), "{kept:?}");

        for _ in 0..2 {
            runtime.serve(repeating_trace(SMALL)).unwrap();
            cluster.serve(repeating_trace(SMALL)).unwrap();
            for kept in [capacities(&runtime.tables), capacities(&cluster.tables)] {
                assert!(
                    kept.iter().all(|&capacity| capacity <= 4 * SMALL),
                    "{kept:?}"
                );
            }
        }
        // Within the slack nothing is given back: a serve of a third the
        // size keeps the tables the larger one grew.
        let before = capacities(&cluster.tables);
        cluster.serve(repeating_trace(SMALL / 3)).unwrap();
        assert_eq!(capacities(&cluster.tables), before);
        // A failed serve says nothing about what is worth keeping.
        assert!(cluster.serve(Vec::new()).is_err());
        assert_eq!(capacities(&cluster.tables), before);
    }
}
