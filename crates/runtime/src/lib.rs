//! # overlay-runtime — an online multi-tile serving runtime for the TM overlay
//!
//! The paper's Sec. III-A.3 proposes replicating depth-8 write-back overlays
//! into NoC-connected *tiles*, and Sec. V shows their killer feature: a
//! ~0.25 µs hardware context switch (instruction reload) against ~1 ms of
//! PCAP partial reconfiguration for the feed-forward overlays. This crate
//! turns those models into an **online, event-driven** serving system whose
//! host-side hot path never scans the tiles or a queue per event as the pool
//! and the queues grow. The serving type is the [`Cluster`]: one or more
//! devices, each a tile array, behind one event loop —
//! `Cluster::new(variant, 1, tiles)` is a single tile array, and
//! [`Cluster::from_noc`] lays one out explicitly. Every serve returns a
//! [`ServeReport`]. The moving parts:
//!
//! * [`Submitter`] — streaming request ingestion over a bounded channel:
//!   [`Cluster::serve_stream`] accepts requests as they are produced, with
//!   backpressure when the ingest buffer fills and an admission-control
//!   reject path when tile queues overflow. Requests stream as
//!   [`Arc<Request>`] — no workload is ever deep-cloned on the way in — and
//!   reach the loop by value (a batch [`Cluster::serve`] moves them straight
//!   off the trace);
//! * a virtual-time **event loop** ([`event`]) — every dispatch decision
//!   happens at an arrival or tile-free event against live per-tile queue
//!   state, never with knowledge of the future trace;
//! * [`Dispatcher`] — context-switch-aware placement and deadline-aware
//!   queue ordering: [`DispatchPolicy::KernelAffinity`] charges the
//!   [`overlay_arch::ReconfigModel`] swap cost (µs instruction reload for
//!   V3–V5, ms PCAP for `[14]`/V1/V2) whenever a tile must change kernels;
//!   [`DispatchPolicy::SlackAware`] drains tile queues by deadline urgency.
//!   Placement consults the [`TilePool`]'s **residency index** (bitsets
//!   and sorted lanes) instead of scanning every tile, and queue draining
//!   pops from per-tile ordered structures instead of scanning every waiter;
//! * [`TilePool`] — N replicated tiles (from [`overlay_arch::Tile`] /
//!   [`overlay_arch::NocConfig`]), each hosting one resident kernel plus a
//!   live queue, indexed by residency and backlog;
//! * [`KernelCache`] — an LRU over compiled kernels keyed by source hash +
//!   variant + depth, so each distinct kernel compiles once per trace — and
//!   a [`SimMemo`] over finished simulation runs keyed by (kernel,
//!   workload digest), so a repeated tenant request skips the functional
//!   simulation entirely;
//! * functional execution — an admitted request the memo cannot answer runs
//!   its kernel's [`overlay_sim::SimPlan`] on the event loop's own thread, at
//!   its admission: the plan is the cached [`Kernel`]'s, made at the kernel's
//!   first memo miss and kept for as long as the kernel, so every miss pays
//!   only the data pass, in one column buffer the serve keeps; a batch serve
//!   starts no thread at all;
//! * [`RuntimeMetrics`] — requests/s, p50/p99 modeled latency, per-tile
//!   utilization, cache and memo hit rates, context-switch totals, queue
//!   depths, admission rejects, deadline miss rates and the host-side event
//!   count;
//! * the **control plane** — optional same-kernel batching
//!   over the tile-free queue drain ([`BatchConfig`],
//!   [`Cluster::with_batching`]), off by default and bitwise identical to
//!   the un-batched event loop when off.
//!
//! # Example
//!
//! ```
//! use overlay_runtime::{Cluster, DispatchPolicy, KernelSpec, Request};
//! use overlay_arch::FuVariant;
//! use overlay_sim::Workload;
//!
//! # fn main() -> Result<(), overlay_runtime::RuntimeError> {
//! // One device of two tiles.
//! let mut runtime = Cluster::new(FuVariant::V4, 1, 2)?
//!     .with_policy(DispatchPolicy::SlackAware);
//!
//! let saxpy = KernelSpec::from_source("saxpy", "kernel saxpy(a, x, y) { out r = a * x + y; }");
//! let poly = KernelSpec::from_source("poly", "kernel poly(x) { out y = (x * x + 3) * x; }");
//!
//! // Requests are *streamed* into the runtime: the dispatcher sees each one
//! // only when it arrives on the virtual timeline.
//! let report = runtime.serve_stream(|submitter| {
//!     for i in 0..8u64 {
//!         let (kernel, inputs) = if i % 2 == 0 { (saxpy.clone(), 3) } else { (poly.clone(), 1) };
//!         let request = Request::new(i, kernel, Workload::ramp(inputs, 16))
//!             .at(i as f64)
//!             .with_deadline(i as f64 + 500.0);
//!         submitter.submit(request).expect("serve loop is live");
//!     }
//! })?;
//!
//! assert_eq!(report.outcomes().len(), 8);
//! // Each kernel compiled once; every later request hit the cache.
//! assert_eq!(report.metrics().cache.misses, 2);
//! assert_eq!(report.metrics().cache.hits, 6);
//! // Each (kernel, workload) simulated once; the repeats were memoized.
//! assert_eq!(report.metrics().sim_memo.misses, 2);
//! assert_eq!(report.metrics().sim_memo.hits, 6);
//! // Nothing was turned away and the generous deadlines were all met.
//! assert_eq!(report.metrics().rejects, 0);
//! assert_eq!(report.metrics().deadline_misses, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod cluster;
mod control;
mod dispatch;
mod error;
pub mod event;
mod fault;
mod metrics;
pub mod obs;
mod pool;
mod request;
mod route;
mod session;
mod shim;
mod submit;

pub use cache::{CacheStats, Kernel, KernelCache, KernelKey, SimKey, SimMemo};
pub use obs::{
    explain, Attribution, AttributionReport, ClassWindow, LogHistogram, ProfileStats, SpanKind,
    TelemetryConfig, TimeSeries, Trace, TraceConfig, TraceEvent, WindowStats,
};

use cache::FnvHashMap;
pub use cluster::{Cluster, Device};
pub use control::BatchConfig;
pub use dispatch::{DispatchPolicy, DispatchRequest, Dispatcher};
pub use error::RuntimeError;
pub use fault::scenario::{FlashCrowd, Scenario, ScenarioArrival, ScenarioConfig};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{BatchStats, ClassMetrics, DeviceMetrics, RuntimeMetrics, StageMetrics};
pub use pool::{ChargeOutcome, TilePool, TileState};
use request::workload_digest;
pub use request::{KernelSpec, Request};
pub use route::RoutePolicy;
pub use session::{
    PipelineOutcome, PipelineReport, PipelineRequest, PipelineStage, ReorderBuffer, Session,
    SloClass,
};
#[doc(hidden)]
pub use shim::{ClusterReport, Runtime};
pub use submit::{SubmitError, Submitter};

use std::collections::VecDeque;
use std::fmt;
use std::sync::{mpsc, Arc};
use std::thread;

use overlay_arch::{FuVariant, OverlayConfig, ReconfigModel};
use overlay_frontend::LowerOptions;
use overlay_scheduler::{generate_program_owned, schedule};
use overlay_sim::{Records, SimError, SimMetrics, SimRun, Workload};

/// What happened to one served request: where it ran, what it produced and
/// the modeled timing it experienced.
///
/// An outcome is built once, when the serve ends, from where and when its
/// request started: it takes over the request's kernel name and the
/// (possibly memoized) simulation run behind its outputs and its
/// [`sim`](RequestOutcome::sim) metrics, copying neither.
#[derive(Clone)]
pub struct RequestOutcome {
    /// The caller-chosen request id.
    pub request_id: u64,
    /// The kernel name (shared with the request's spec).
    pub kernel: Arc<str>,
    /// The device that served the request: the routing decision (always 0
    /// on a one-device [`Cluster`]).
    pub device: usize,
    /// The tile that served the request (device-local index).
    pub tile: usize,
    /// The simulation run behind this outcome (shared, possibly memoized).
    run: Arc<SimRun>,
    /// When queueing ended and the switch/execution began, microseconds.
    pub start_us: f64,
    /// Time spent waiting in the tile queue (start − arrival), microseconds.
    pub queued_us: f64,
    /// When the last output left the NoC, microseconds.
    pub completion_us: f64,
    /// Completion minus arrival, microseconds.
    pub latency_us: f64,
    /// Whether serving this request required a hardware context switch.
    pub switched: bool,
    /// The request's absolute deadline, if it carried one.
    pub deadline_us: Option<f64>,
    /// Whether a deadline was set and missed.
    pub missed_deadline: bool,
}

impl RequestOutcome {
    /// Functional outputs, one record per invocation — a view into the one
    /// output buffer of the shared simulation run.
    pub fn outputs(&self) -> Records<'_> {
        self.run.outputs()
    }

    /// The simulator's cycle-level metrics for this request: those of the
    /// shared simulation run behind its outputs, which a memoized repeat
    /// shares with the request that ran it.
    pub fn sim(&self) -> &SimMetrics {
        self.run.metrics()
    }
}

/// Prints the fields in declaration order with the run's metrics as `sim`
/// after `run`, as the outcome printed while it stored a copy of them.
impl fmt::Debug for RequestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestOutcome")
            .field("request_id", &self.request_id)
            .field("kernel", &self.kernel)
            .field("device", &self.device)
            .field("tile", &self.tile)
            .field("run", &self.run)
            .field("sim", self.sim())
            .field("start_us", &self.start_us)
            .field("queued_us", &self.queued_us)
            .field("completion_us", &self.completion_us)
            .field("latency_us", &self.latency_us)
            .field("switched", &self.switched)
            .field("deadline_us", &self.deadline_us)
            .field("missed_deadline", &self.missed_deadline)
            .finish()
    }
}

/// A request turned away by admission control: it was never placed on a
/// tile and produced no outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedRequest {
    /// The caller-chosen request id.
    pub id: u64,
    /// The kernel name (shared with the request's spec).
    pub kernel: Arc<str>,
    /// When the request arrived, microseconds.
    pub arrival_us: f64,
    /// The deadline the request carried, if any — shed deadline work is
    /// reported in [`RuntimeMetrics::rejected_deadlines`], not as a miss.
    pub deadline_us: Option<f64>,
}

/// The result of one serve: per-request outcomes (with their device ids, in
/// submission order), admission rejects, fleet-total [`RuntimeMetrics`], the
/// per-device [`DeviceMetrics`] breakdown and whatever observability the
/// serve was configured for.
#[derive(Debug, Clone)]
pub struct ServeReport {
    policy: DispatchPolicy,
    route: RoutePolicy,
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    metrics: RuntimeMetrics,
    devices: Vec<DeviceMetrics>,
    observed: obs::Observed,
}

impl ServeReport {
    /// Per-request outcomes of every *admitted* request, in submission
    /// order. Each outcome's [`device`](RequestOutcome::device) records the
    /// routing decision; [`tile`](RequestOutcome::tile) is device-local.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Requests rejected by admission control, in submission order.
    pub fn rejected(&self) -> &[RejectedRequest] {
        &self.rejected
    }

    /// Fleet-total serving metrics (per-tile vectors are device-major
    /// concatenations across the cluster).
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The per-device metrics breakdown, indexed by device id.
    pub fn device_metrics(&self) -> &[DeviceMetrics] {
        &self.devices
    }

    /// The tile-dispatch policy that produced this report.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The device-routing policy that produced this report.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
    }

    /// Total kernel images moved over the inter-device link.
    pub fn transfers(&self) -> usize {
        self.devices.iter().map(|d| d.transfers_in).sum()
    }

    /// Total bytes moved over the inter-device link.
    pub fn transfer_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.transfer_bytes_in).sum()
    }

    /// Total kernel images loaded from the host (local cold loads).
    pub fn host_loads(&self) -> usize {
        self.devices.iter().map(|d| d.host_loads).sum()
    }

    /// Total requests displaced off dead or draining devices and sent back
    /// through routing (0 on a fault-free serve).
    pub fn requeues(&self) -> usize {
        self.devices.iter().map(|d| d.requeues_out).sum()
    }

    /// Total started-but-abandoned execution time destroyed by device
    /// kills, in virtual microseconds (0 on a fault-free serve).
    pub fn lost_work_us(&self) -> f64 {
        self.devices.iter().map(|d| d.lost_work_us).sum()
    }

    /// Total faults (kills + drains) that hit the fleet during the serve.
    pub fn faults(&self) -> usize {
        self.devices.iter().map(|d| d.faults).sum()
    }

    /// Per-device availability — the fraction of the serve's makespan each
    /// device was alive and admitting, indexed by device id (all 1.0 on a
    /// fault-free serve).
    pub fn availability(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.availability).collect()
    }

    /// Every request's lifecycle spans, when the serve ran with
    /// [`Cluster::with_tracing`] enabled: the trace is built from the rows
    /// the serve kept, on first access to [`events`](obs::Trace::events).
    pub fn trace(&self) -> Option<&obs::Trace> {
        self.observed.trace.as_ref()
    }

    /// The host-time stage attribution, when the serve ran with
    /// [`Cluster::with_profiling`] enabled.
    pub fn profile(&self) -> Option<&obs::ProfileStats> {
        self.observed.profile.as_ref()
    }

    /// The windowed telemetry time-series, when the serve ran with
    /// [`Cluster::with_telemetry`] enabled.
    pub fn telemetry(&self) -> Option<&obs::TimeSeries> {
        self.observed.telemetry.as_ref()
    }
}

/// Per-serve context shared by every request's preparation, including the
/// serve's kernel table: the facts derived once per distinct kernel rather
/// than once per request (operating frequency and switch cost depend on the
/// tile and the reconfiguration model, so they are the serve's; the
/// kernel's simulation plan is the [`Kernel`]'s own).
pub(crate) struct PrepContext {
    variant: FuVariant,
    writeback: bool,
    depth: usize,
    tile_overlay: Option<OverlayConfig>,
    reconfig: ReconfigModel,
    /// The kernel table's slot for each kernel the serve has seen.
    slots: FnvHashMap<KernelKey, u32>,
    /// The kernel table, in first-seen order: every intake row names its
    /// kernel by a slot here.
    pub(crate) kernels: Vec<KernelEntry>,
}

impl PrepContext {
    /// The shared per-serve preparation facts for `pool` (every device of a
    /// cluster replicates the same tile, so one context serves them all).
    pub(crate) fn for_pool(pool: &TilePool) -> Result<Self, RuntimeError> {
        let variant = pool.variant();
        let writeback = variant.has_writeback();
        Ok(PrepContext {
            variant,
            writeback,
            depth: if writeback { pool.logical_depth() } else { 0 },
            tile_overlay: pool.overlay_config()?,
            reconfig: ReconfigModel::new(),
            slots: FnvHashMap::default(),
            kernels: Vec::new(),
        })
    }

    /// The slot of `key`'s entry, made from `kernel` the first time the
    /// serve sees the key.
    fn slot(&mut self, key: KernelKey, kernel: &Arc<Kernel>) -> Result<u32, RuntimeError> {
        if let Some(&slot) = self.slots.get(&key) {
            return Ok(slot);
        }
        let compiled = kernel.compiled();
        let config_bits = compiled.program.config_bits();
        let (fmax_mhz, switch_us) = match &self.tile_overlay {
            // Write-back tile: fixed overlay, instruction reload only.
            Some(config) => (
                config.fmax_mhz(),
                self.reconfig
                    .program_only_switch(self.variant, config_bits)
                    .total_us(),
            ),
            // Feed-forward tile: the overlay is rebuilt to the kernel's
            // depth, so a swap pays PCAP reconfiguration.
            None => {
                let config = OverlayConfig::new(self.variant, compiled.num_fus())?;
                (
                    config.fmax_mhz(),
                    self.reconfig.full_switch(&config, config_bits).total_us(),
                )
            }
        };
        let slot = u32::try_from(self.kernels.len()).expect("a serve has under 2³² kernels");
        self.kernels.push(KernelEntry {
            key,
            kernel: Arc::clone(kernel),
            fmax_mhz,
            switch_us,
            image_bytes: compiled.program.config_bytes(),
            fill_cycles: (4 * compiled.num_fus()) as f64,
        });
        self.slots.insert(key, slot);
        Ok(slot)
    }
}

/// One kernel of a serve's kernel table: its identity, the artifact the
/// home device's store returned the first time the serve asked for it, and
/// the facts every request for it shares.
pub(crate) struct KernelEntry {
    pub(crate) key: KernelKey,
    pub(crate) kernel: Arc<Kernel>,
    pub(crate) fmax_mhz: f64,
    /// The context switch a tile pays to swap to this kernel.
    pub(crate) switch_us: f64,
    /// The compiled image size the transfer model charges for moving this
    /// kernel between devices.
    pub(crate) image_bytes: usize,
    /// The planning estimate's pipeline-fill allowance, in cycles.
    fill_cycles: f64,
}

/// Compiles (via `cache`) and derives the figures one request needs before
/// it can be dispatched, and pushes the request's row onto `intake`. Every
/// request asks `cache`, the kernel's home-device store, so its counters
/// and LRU order see each one; kernel-dependent facts (frequency, switch
/// cost, image size) are derived once per distinct kernel into the
/// context's kernel table, and the row keeps only a slot there. The spec's
/// body and fingerprint are dropped here. Every kernel lowers with the
/// default [`LowerOptions`], which is why [`KernelKey`] need not encode
/// them.
pub(crate) fn prepare_request(
    cache: &mut KernelCache,
    ctx: &mut PrepContext,
    request: Request,
    intake: &mut Vec<InFlight>,
) -> Result<(), RuntimeError> {
    let key = KernelKey {
        fingerprint: request.kernel.fingerprint(),
        variant: ctx.variant,
        depth: ctx.depth,
    };
    let kernel = cache.get_or_compile(key, || {
        let dfg = request.kernel.dfg(&LowerOptions::default())?;
        let stages = schedule(&dfg, ctx.variant, ctx.writeback.then_some(ctx.depth))?;
        Ok(generate_program_owned(&dfg, stages, ctx.variant)?)
    })?;
    let slot = ctx.slot(key, &kernel)?;
    let entry = &ctx.kernels[slot as usize];
    // Planning estimate: steady-state II per invocation plus a
    // pipeline-fill allowance, at the overlay's operating frequency.
    let est_exec_us =
        (kernel.compiled().ii * request.workload.len() as f64 + entry.fill_cycles) / entry.fmax_mhz;
    intake.push(InFlight {
        id: request.id,
        arrival_us: request.arrival_us,
        deadline_us: request.deadline_us,
        est_exec_us,
        workload: request.workload,
        name: request.kernel.name,
        slot,
    });
    Ok(())
}

/// One request as the loop keeps it from intake to outcome: only what is
/// its own. What it shares with every request for its kernel (key,
/// artifact, frequency, switch cost, image size) is the kernel table's,
/// named by `slot`; [`Intake::view`] joins the two into the
/// [`DispatchRequest`] placement reads. A row is 80 bytes of the intake
/// table with no allocation of its own.
#[derive(Debug)]
pub(crate) struct InFlight {
    pub(crate) id: u64,
    pub(crate) arrival_us: f64,
    pub(crate) deadline_us: Option<f64>,
    /// Estimated execution (service) time, microseconds.
    pub(crate) est_exec_us: f64,
    pub(crate) workload: Workload,
    /// The kernel name (shared with the request's spec).
    pub(crate) name: Arc<str>,
    /// The request's kernel in [`PrepContext::kernels`].
    slot: u32,
}

/// A serve's intake as the loop's phases read it: the rows, and the kernel
/// table their slots index.
#[derive(Clone, Copy)]
pub(crate) struct Intake<'a> {
    pub(crate) rows: &'a [InFlight],
    pub(crate) kernels: &'a [KernelEntry],
}

impl<'a> Intake<'a> {
    /// Request `index`'s kernel-table entry.
    #[inline(always)]
    pub(crate) fn kernel(self, index: usize) -> &'a KernelEntry {
        &self.kernels[self.rows[index].slot as usize]
    }

    /// Request `index` as the dispatcher sees it: kernel identity and
    /// modeled costs.
    #[inline(always)]
    pub(crate) fn view(self, index: usize) -> DispatchRequest {
        let row = &self.rows[index];
        let kernel = &self.kernels[row.slot as usize];
        DispatchRequest {
            key: kernel.key,
            est_exec_us: row.est_exec_us,
            switch_us: kernel.switch_us,
            deadline_us: row.deadline_us,
        }
    }
}

/// Runs `serve` over a live ingest beside the streaming serve's feeder
/// thread — the only thread a serve ever starts (a batch serve starts none).
/// The ingest receiver moves into `serve`'s event loop, so the loop
/// returning, success or error, disconnects the feeder and lets the scope
/// join it.
pub(crate) fn with_feeder<F, R>(capacity: usize, feed: F, serve: impl FnOnce(Ingest) -> R) -> R
where
    F: FnOnce(Submitter) + Send,
{
    let (ingest_tx, ingest_rx) = mpsc::sync_channel::<Arc<Request>>(capacity);
    thread::scope(|scope| {
        scope.spawn(move || feed(Submitter::new(ingest_tx)));
        serve(Ingest::Stream {
            rx: ingest_rx,
            buffered: VecDeque::new(),
            capacity,
        })
    })
}

/// How far above what a serve used a recycled table's capacity may end
/// before it is cut back to that: serves of similar size never reallocate,
/// one outsized serve does not pin its footprint for the instance's life.
const RETAINED_SLACK: usize = 4;

/// How many queue depths a batch serve reserves room for at most: one page.
/// No more can wait than were submitted, so a smaller serve reserves all it
/// can need and allocates the table once; only a queue deeper than a page
/// (rare) grows the table by doubling. A depth per submission would instead
/// hold memory that a long warm serve, whose queue stays a few tens deep,
/// never touches, and move where its other allocations land.
pub(crate) const RESERVED_DEPTHS: usize = 4096 / std::mem::size_of::<u64>();

/// Empties `table` for the next serve, keeping its storage unless the serve
/// that completed `used` under a quarter of it (`None`: it failed).
fn recycle<T>(used: Option<usize>, table: &mut Vec<T>) {
    table.clear();
    if let Some(used) = used.filter(|&used| table.capacity() > RETAINED_SLACK * used) {
        table.shrink_to(used);
    }
}

/// Where and when a request started, all the loop keeps until its outcome
/// (32 bytes as an `Option`). Device and tile ids fit in 32 bits: every tile
/// holds far more than a byte of state, so no cluster has 2³² of them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Start {
    pub(crate) device: u32,
    /// The device-local tile.
    pub(crate) tile: u32,
    pub(crate) start_us: f64,
    pub(crate) completion_us: f64,
    pub(crate) switched: bool,
    pub(crate) missed_deadline: bool,
}

/// The tables a serve indexes by intake position or by queue depth (and the
/// latency scratch its aggregation sorts). They belong to the [`Cluster`],
/// not to the serve: a serve takes them, reserves room for the submissions
/// it knows are coming and hands them back emptied on every exit path, so a
/// warm serve neither allocates them nor first-touches their pages again.
/// Each holds only per-request facts: what a request shares with the others
/// for its kernel is in the serve's kernel table ([`PrepContext`]), which an
/// intake row names by slot. A request costs 80 bytes of intake row, a
/// 32-byte start, an 8-byte run slot and a flag, and on the fleet tier a
/// 24-byte routing row (a displaced request's exclusions are kept apart).
#[derive(Debug, Default)]
pub(crate) struct LoopTables {
    /// Per intake index: the request's own facts ([`InFlight`]).
    pub(crate) intake: Vec<InFlight>,
    /// Per intake index: logically removed from its tile queue (the ordered
    /// structures drop flagged entries lazily).
    pub(crate) taken: Vec<bool>,
    /// Per intake index: the simulation sourced at admission ([`SimResults`]).
    pub(crate) ready: Vec<Option<Arc<SimRun>>>,
    /// Per intake index: where and when the request started, if it did.
    pub(crate) starts: Vec<Option<Start>>,
    /// Per queue depth: how many events saw the cluster wait that deep
    /// (room for [`RESERVED_DEPTHS`] reserved up front).
    pub(crate) depths: Vec<u64>,
    /// Per outcome: the latencies `aggregate` selects percentiles from.
    pub(crate) latencies: Vec<f64>,
    /// Per intake index, on the event loop's fleet tier only: what routing
    /// decided. The plain tier never grows it.
    pub(crate) routed: Vec<route::Routed>,
}

impl LoopTables {
    /// Drops what the serve left in the tables and keeps their storage for
    /// the next one; only a serve that `completed` says how much of it is
    /// worth keeping ([`RETAINED_SLACK`]), a failed one stopped short. The
    /// outcomes drained the intake and its runs, so `taken` counts the rows.
    pub(crate) fn release(&mut self, completed: bool) {
        let kept = |used: usize| completed.then_some(used);
        let submitted = kept(self.taken.len());
        recycle(submitted, &mut self.intake);
        recycle(submitted, &mut self.taken);
        recycle(submitted, &mut self.ready);
        recycle(submitted, &mut self.starts);
        recycle(submitted, &mut self.depths);
        recycle(kept(self.latencies.len()), &mut self.latencies);
        recycle(kept(self.routed.len()), &mut self.routed);
    }
}

/// Sim results as the event loop consumes them: an admitted request's
/// (placement-independent) simulation is sourced at admission — answered
/// from the memo or run there and then on the loop's own thread — and parked
/// in the request's slot until a tile is about to execute it.
pub(crate) struct SimResults<'t> {
    /// One slot per intake index — no hashing on the hot path.
    ready: &'t mut Vec<Option<Arc<SimRun>>>,
}

impl<'t> SimResults<'t> {
    /// A result tracker over the (empty) recycled slot table `ready`.
    pub(crate) fn new(ready: &'t mut Vec<Option<Arc<SimRun>>>) -> Self {
        SimResults { ready }
    }

    /// Grows the per-intake slot table by one (a request was streamed in).
    pub(crate) fn push_slot(&mut self) {
        self.ready.push(None);
    }

    /// Sources the simulation for an admitted request `index`: answers from
    /// the memo, or runs the kernel's plan (which the kernel makes at its
    /// first miss) and memoizes the run — with the memo counters tracking
    /// which (a disabled memo never answers, so every request simulates).
    /// Keying (kernel, workload digest), lookup and insert are timed as
    /// [`obs::Stage::Memo`], planning and the run as [`obs::Stage::Sim`],
    /// and a memo hit is reported to the probe.
    ///
    /// # Errors
    ///
    /// The simulator's error for this request's kernel and workload: the
    /// workload's own, else the plan's.
    pub(crate) fn source(
        &mut self,
        index: usize,
        intake: Intake<'_>,
        memo: &mut SimMemo,
        probe: &mut obs::Probe,
    ) -> Result<(), SimError> {
        let lookup = probe.begin();
        let (row, kernel) = (&intake.rows[index], intake.kernel(index));
        let key = SimKey {
            kernel: kernel.key,
            workload: workload_digest(&row.workload),
        };
        let hit = memo.get(&key);
        probe.end(obs::Stage::Memo, lookup);
        let run = match hit {
            Some(run) => {
                probe.memo_hit(index);
                run
            }
            None => {
                memo.note_miss();
                let sim = probe.begin();
                let run = simulate(&kernel.kernel, &row.workload);
                probe.end(obs::Stage::Sim, sim);
                let run = Arc::new(run?);
                let insert = probe.begin();
                memo.insert(key, Arc::clone(&run));
                probe.end(obs::Stage::Memo, insert);
                run
            }
        };
        self.ready[index] = Some(run);
        Ok(())
    }

    /// The `served` outcomes in submission order, each taking its row's name
    /// and run; every row is dropped here, after the trace has read them.
    pub(crate) fn into_outcomes(
        self,
        intake: &mut Vec<InFlight>,
        starts: &[Option<Start>],
        served: usize,
    ) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::with_capacity(served);
        for ((info, run), start) in intake.drain(..).zip(self.ready.drain(..)).zip(starts) {
            if let (Some(start), Some(run)) = (start, run) {
                outcomes.push(RequestOutcome {
                    request_id: info.id,
                    kernel: info.name,
                    device: start.device as usize,
                    tile: start.tile as usize,
                    run,
                    start_us: start.start_us,
                    queued_us: start.start_us - info.arrival_us,
                    completion_us: start.completion_us,
                    latency_us: start.completion_us - info.arrival_us,
                    switched: start.switched,
                    deadline_us: info.deadline_us,
                    missed_deadline: start.missed_deadline,
                });
            }
        }
        debug_assert_eq!(outcomes.len(), served, "unstarted requests are rejected");
        outcomes
    }

    /// The run sourced for `index` at its admission, kept in the slot for a
    /// killed run's retry and then for the outcome.
    pub(crate) fn run(&self, index: usize) -> &SimRun {
        // `source` fills the slot at admission, before any start.
        let run = self.ready[index].as_deref();
        run.expect("an admitted request's simulation was sourced")
    }
}

/// Runs `kernel` over `workload` with the kernel's plan. Kept out of line:
/// a memo hit, which is all a warm serve sees, never comes here.
#[inline(never)]
fn simulate(kernel: &Kernel, workload: &Workload) -> Result<SimRun, SimError> {
    kernel.run(workload)
}

/// Where the event loop pulls submissions from: a live bounded channel
/// (streaming serves) or the pre-collected trace itself (batch serves skip
/// the channel and its per-request synchronization entirely). Either way
/// the loop receives each [`Request`] by value: a batch request moves off
/// the trace, a streamed one out of its `Arc` — or, when the submitter kept
/// a share, is cloned shallowly (three reference-count bumps).
pub(crate) enum Ingest {
    Stream {
        rx: mpsc::Receiver<Arc<Request>>,
        /// Submissions taken off the channel and not yet pulled: at most one
        /// blocking receive plus the channel's capacity.
        buffered: VecDeque<Arc<Request>>,
        /// The channel's bound: how many already-sent submissions a refill
        /// takes after its blocking receive.
        capacity: usize,
    },
    Batch(std::vec::IntoIter<Request>),
}

impl Ingest {
    /// How many submissions are known to be coming: the rest of a batch, 0
    /// for a live stream. Sizes the per-intake tables once up front.
    pub(crate) fn expected(&self) -> usize {
        match self {
            Ingest::Stream { .. } => 0,
            Ingest::Batch(iter) => iter.len(),
        }
    }

    /// Blocking pull of the next submission; `None` means the trace is
    /// complete. The loop's one way to pull: it asks for request k at the
    /// same point of the event sequence however the trace arrives. A stream
    /// refills its buffer only when it is empty — one blocking receive,
    /// then whatever was already sent, up to the channel's capacity — so one
    /// channel synchronization serves a whole burst. The pull that drains a
    /// batch frees its buffer: every request has moved into the intake table
    /// by then.
    pub(crate) fn recv(&mut self) -> Option<Request> {
        match self {
            Ingest::Stream {
                rx,
                buffered,
                capacity,
            } => {
                if buffered.is_empty() {
                    buffered.push_back(rx.recv().ok()?);
                    buffered.extend(rx.try_iter().take(*capacity));
                }
                buffered.pop_front().map(Arc::unwrap_or_clone)
            }
            Ingest::Batch(iter) => {
                let next = iter.next();
                if iter.len() == 0 {
                    *iter = Vec::new().into_iter();
                }
                next
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_arch::NocConfig;
    use overlay_dfg::evaluate_stream;
    use overlay_frontend::Benchmark;
    use overlay_sim::Workload;

    /// A mixed-kernel trace over the paper's benchmark suite: `count`
    /// requests, one every 2 µs, cycling through four kernels, request `i`'s
    /// workload seeded `seed ^ i`.
    pub(crate) fn benchmark_trace(count: usize, blocks: usize, seed: u64) -> Vec<Request> {
        let suite = [
            Benchmark::Gradient,
            Benchmark::Chebyshev,
            Benchmark::Qspline,
            Benchmark::Poly5,
        ];
        (0..count)
            .map(|i| {
                let benchmark = suite[i % suite.len()];
                let spec = KernelSpec::from_benchmark(benchmark).unwrap();
                let inputs = benchmark.dfg().unwrap().num_inputs();
                let workload = Workload::random(inputs, blocks, seed ^ i as u64);
                Request::new(i as u64, spec, workload).at(i as f64 * 2.0)
            })
            .collect()
    }

    /// The per-request rows a serve writes hold only per-request facts:
    /// an intake row names its kernel by a slot in the serve's kernel table
    /// (168 bytes while it copied the key, artifact, frequency, switch cost
    /// and image size), a start is all the loop keeps until the outcome is
    /// built (40 bytes with `usize` device and tile), a fleet routing row
    /// keeps no image size (56 bytes while it did) and no exclusion set (48
    /// bytes while every row carried one) and an outcome keeps its metrics
    /// only in its run (144 bytes while it copied them).
    #[test]
    fn per_request_rows_stay_slim() {
        use std::mem::size_of;
        let sizes = [
            ("InFlight", size_of::<InFlight>(), 80),
            ("Option<Start>", size_of::<Option<Start>>(), 32),
            ("Routed", size_of::<route::Routed>(), 24),
            ("RequestOutcome", size_of::<RequestOutcome>(), 104),
        ];
        for (row, size, bound) in sizes {
            assert!(size <= bound, "{row} is {size} bytes, over {bound}");
        }
    }

    /// A 1 M-request serve stays under 350 MiB of peak resident memory:
    /// one-block requests over the four suite kernels, each kernel's one
    /// workload shared by all its requests, on a one-device V4 cluster. A
    /// request costs its intake row, start, run slot and outcome (and its
    /// `Request` until the batch is drained), ≈0.3 KiB. Ignored by default
    /// as it takes seconds and the whole process's peak: run it alone, in
    /// release, with `cargo test --release -p overlay-runtime --lib --
    /// --ignored --exact tests::a_million_request_serve_fits_in_350_mib`.
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore]
    fn a_million_request_serve_fits_in_350_mib() {
        const REQUESTS: usize = 1_000_000;
        let suite = [
            Benchmark::Gradient,
            Benchmark::Chebyshev,
            Benchmark::Qspline,
            Benchmark::Poly5,
        ];
        let tenants: Vec<(KernelSpec, Workload)> = suite
            .iter()
            .enumerate()
            .map(|(seed, &benchmark)| {
                let inputs = benchmark.dfg().unwrap().num_inputs();
                let workload = Workload::random(inputs, 1, seed as u64);
                (KernelSpec::from_benchmark(benchmark).unwrap(), workload)
            })
            .collect();
        let requests = (0..REQUESTS).map(|i| {
            let (spec, workload) = &tenants[i % tenants.len()];
            Request::new(i as u64, spec.clone(), workload.clone()).at(i as f64 * 0.05)
        });
        let mut cluster = Cluster::new(FuVariant::V4, 1, 64).unwrap();
        let report = cluster.serve(requests).unwrap();
        assert_eq!(report.outcomes().len() + report.rejected().len(), REQUESTS);
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|line| line.starts_with("VmHWM:"));
        let kib: f64 = line
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|kib| kib.parse().ok())
            .expect("/proc/self/status reports VmHWM");
        let mib = kib / 1024.0;
        println!(
            "VmHWM {mib:.1} MiB for {REQUESTS} requests, {} served",
            report.outcomes().len()
        );
        assert!(mib < 350.0, "peak resident {mib:.1} MiB");
    }

    #[test]
    fn serving_matches_the_reference_evaluator_per_request() {
        let requests = benchmark_trace(12, 8, 0xFEED);
        let mut runtime = Cluster::new(FuVariant::V3, 1, 4).unwrap();
        let report = runtime.serve(requests.clone()).unwrap();
        assert_eq!(report.outcomes().len(), 12);
        for (request, outcome) in requests.iter().zip(report.outcomes()) {
            let dfg = request.kernel.dfg(&LowerOptions::default()).unwrap();
            let expected = evaluate_stream(&dfg, request.workload.records()).unwrap();
            assert_eq!(outcome.outputs(), expected, "request {}", request.id);
            assert_eq!(outcome.request_id, request.id);
            assert!(outcome.latency_us > 0.0);
            assert!(outcome.queued_us >= 0.0);
            assert!(outcome.start_us >= request.arrival_us);
        }
    }

    #[test]
    fn serve_is_deterministic_across_calls_and_policies_agree_functionally() {
        let requests = benchmark_trace(10, 6, 0xFEED);
        let mut affinity = Cluster::new(FuVariant::V4, 1, 4).unwrap();
        let mut slack_aware = Cluster::new(FuVariant::V4, 1, 4)
            .unwrap()
            .with_policy(DispatchPolicy::SlackAware);
        let a1 = affinity.serve(requests.clone()).unwrap();
        let a2 = affinity.serve(requests.clone()).unwrap();
        let slack = slack_aware.serve(requests).unwrap();
        let tiles = |report: &ServeReport| -> Vec<usize> {
            report.outcomes().iter().map(|o| o.tile).collect()
        };
        assert_eq!(tiles(&a1), tiles(&a2));
        assert_eq!(a1.metrics().makespan_us, a2.metrics().makespan_us);
        for (lhs, rhs) in a1.outcomes().iter().zip(slack.outcomes()) {
            assert_eq!(
                lhs.outputs(),
                rhs.outputs(),
                "placement must not change results"
            );
        }
    }

    #[test]
    fn feed_forward_pools_charge_pcap_scale_switches() {
        // On a V1 pool every kernel swap costs ~1 ms of PCAP time, so a
        // single tile cycling through 4 kernels pays milliseconds of
        // switching.
        let requests = benchmark_trace(8, 4, 0xFEED);
        let mut runtime = Cluster::new(FuVariant::V1, 1, 1).unwrap();
        let report = runtime.serve(requests.clone()).unwrap();
        assert!(
            report.metrics().total_switch_us > 1_000.0,
            "PCAP switches are on the millisecond scale, got {} us",
            report.metrics().total_switch_us
        );
        // The same trace on a V3 pool swaps in microseconds.
        let mut writeback = Cluster::new(FuVariant::V3, 1, 1).unwrap();
        let wb = writeback.serve(requests).unwrap();
        assert!(wb.metrics().total_switch_us < 100.0);
        assert!(wb.metrics().total_switch_us > 0.0);
    }

    #[test]
    fn cache_compiles_each_kernel_once_per_serve() {
        let requests = benchmark_trace(16, 4, 0xFEED);
        let mut runtime = Cluster::new(FuVariant::V4, 1, 4).unwrap();
        let report = runtime.serve(requests.clone()).unwrap();
        assert_eq!(report.metrics().cache.misses, 4, "4 distinct kernels");
        assert_eq!(report.metrics().cache.hits, 12);
        // Distinct workloads per request: every simulation actually ran.
        assert_eq!(report.metrics().sim_memo.misses, 16);
        assert_eq!(report.metrics().sim_memo.hits, 0);
        // A second serve of the same trace is all hits — compile cache *and*
        // simulation memo.
        let again = runtime.serve(requests).unwrap();
        assert_eq!(again.metrics().cache.misses, 0);
        assert_eq!(again.metrics().cache.hits, 16);
        assert_eq!(again.metrics().sim_memo.misses, 0);
        assert_eq!(again.metrics().sim_memo.hits, 16);
    }

    #[test]
    fn sim_memo_skips_repeat_simulations_without_changing_results() {
        // One kernel, one workload, repeated: the memoized runtime simulates
        // once; the memo-disabled runtime simulates every request. Outcomes
        // must be identical.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 8, 42);
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::new(i, spec.clone(), workload.clone()).at(i as f64 * 3.0))
            .collect();
        let mut memoized = Cluster::new(FuVariant::V4, 1, 2).unwrap();
        let mut unmemoized = Cluster::new(FuVariant::V4, 1, 2)
            .unwrap()
            .with_sim_memo_capacity(0);
        // With the memo disabled a simultaneous burst of identical
        // requests must still simulate one per request.
        let burst: Vec<Request> = (0..6)
            .map(|i| {
                Request::new(
                    100 + i,
                    KernelSpec::from_benchmark(Benchmark::Gradient).unwrap(),
                    Workload::random(5, 8, 42),
                )
                .at(0.0)
            })
            .collect();
        let mut burst_runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_sim_memo_capacity(0);
        let burst_report = burst_runtime.serve(burst).unwrap();
        assert_eq!(burst_report.metrics().sim_memo.misses, 6);
        assert_eq!(burst_report.metrics().sim_memo.hits, 0);
        let with_memo = memoized.serve(requests.clone()).unwrap();
        let without = unmemoized.serve(requests).unwrap();
        assert_eq!(with_memo.metrics().sim_memo.misses, 1, "one real sim");
        assert_eq!(with_memo.metrics().sim_memo.hits, 9);
        assert_eq!(without.metrics().sim_memo.misses, 10, "memo disabled");
        assert_eq!(without.metrics().sim_memo.hits, 0);
        assert_eq!(memoized.sim_memo().len(), 1);
        assert!(unmemoized.sim_memo().is_empty());
        for (lhs, rhs) in with_memo.outcomes().iter().zip(without.outcomes()) {
            assert_eq!(lhs.outputs(), rhs.outputs());
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.completion_us, rhs.completion_us);
        }
    }

    /// A blocker on the single tile, then 8 identical requests queued behind
    /// it at the same instant.
    fn blocked_identical_burst() -> Vec<Request> {
        let blocker = Request::new(
            0,
            KernelSpec::from_benchmark(Benchmark::Gradient).unwrap(),
            Workload::random(5, 32, 1),
        )
        .at(0.0);
        let spec = KernelSpec::from_benchmark(Benchmark::Chebyshev).unwrap();
        let workload = Workload::random(1, 16, 7);
        let mut requests = vec![blocker];
        requests.extend((1..=8).map(|i| Request::new(i, spec.clone(), workload.clone()).at(0.0)));
        requests
    }

    #[test]
    fn the_memo_answers_a_burst_of_identical_queued_requests() {
        // The first of the burst simulates at its admission and memoizes
        // the run, so the seven queued behind it never simulate — although
        // none of the eight has started on the tile yet.
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1).unwrap();
        let report = runtime.serve(blocked_identical_burst()).unwrap();
        // Two real simulations: the blocker and one shared chebyshev run.
        assert_eq!(report.metrics().sim_memo.misses, 2);
        assert_eq!(report.metrics().sim_memo.hits, 7, "7 memo hits");
        let reference = &report.outcomes()[1].outputs();
        for outcome in &report.outcomes()[1..] {
            assert_eq!(&outcome.outputs(), reference);
        }
    }

    #[test]
    fn memo_counter_tracks_are_a_function_of_the_input() {
        // The memo-hit track depends on nothing but the trace: two fresh
        // traced serves of the burst record it identically, one sample per
        // repeat.
        let counter_track = || {
            let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
                .unwrap()
                .with_tracing(TraceConfig::enabled());
            let report = runtime.serve(blocked_identical_burst()).unwrap();
            let trace = report.trace().expect("tracing was enabled");
            trace
                .events()
                .iter()
                .filter_map(|event| match event.kind {
                    SpanKind::MemoHits { value } => Some((event.time_us.to_bits(), value)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let first = counter_track();
        assert_eq!(first, counter_track());
        assert_eq!(first.len(), 7, "one counter event per repeat");
        assert_eq!(first.last().unwrap().1, 7, "the running total ends at 7");
    }

    #[test]
    fn metrics_account_every_request_and_tile() {
        let requests = benchmark_trace(20, 5, 0xFEED);
        let mut runtime = Cluster::new(FuVariant::V5, 1, 4).unwrap();
        let report = runtime.serve(requests).unwrap();
        let metrics = report.metrics();
        assert_eq!(metrics.requests, 20);
        assert_eq!(metrics.invocations, 100);
        assert_eq!(metrics.tile_requests.iter().sum::<usize>(), 20);
        assert_eq!(metrics.rejects, 0);
        assert_eq!(metrics.deadline_requests, 0);
        assert_eq!(metrics.deadline_miss_rate(), 0.0);
        assert!(metrics.makespan_us > 0.0);
        assert!(metrics.requests_per_sec > 0.0);
        assert!(metrics.p50_latency_us <= metrics.p99_latency_us);
        assert!(metrics.p99_latency_us <= metrics.max_latency_us);
        assert!(metrics.mean_queue_depth >= 0.0);
        assert!(metrics.peak_queue_depth as f64 >= metrics.mean_queue_depth);
        assert_eq!(metrics.tile_peak_queue.len(), 4);
        assert_eq!(
            metrics.sim_memo.hits + metrics.sim_memo.misses,
            20,
            "every admitted request is a memo hit or a simulation run"
        );
        assert!(
            metrics.events_fired >= 40,
            "every served request fires an arrival and a tile-free event"
        );
        assert!(metrics
            .tile_utilization
            .iter()
            .all(|u| (0.0..=1.0 + 1e-9).contains(u)));
    }

    #[test]
    fn admission_limit_rejects_overflow_and_reports_it() {
        // 12 simultaneous arrivals on one tile with room for 2 waiting
        // requests: 1 runs, 2 wait, the rest are rejected.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let requests: Vec<Request> = (0..12)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
            .collect();
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_admission_limit(2);
        let report = runtime.serve(requests).unwrap();
        assert_eq!(report.outcomes().len(), 3);
        assert_eq!(report.rejected().len(), 9);
        assert_eq!(report.metrics().rejects, 9);
        assert!((report.metrics().reject_rate() - 0.75).abs() < 1e-12);
        assert_eq!(report.metrics().peak_queue_depth, 2);
        // Served and rejected ids partition the submitted ids.
        let mut ids: Vec<u64> = report
            .outcomes()
            .iter()
            .map(|o| o.request_id)
            .chain(report.rejected().iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_admission_limit_serves_idle_tiles_but_rejects_all_waiters() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_admission_limit(0);
        // Spaced arrivals on an idle tile never wait: all admitted, and the
        // queue-depth metrics report a genuinely empty queue.
        let spaced: Vec<Request> = (0..4)
            .map(|i| {
                Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(i as f64 * 1_000_000.0)
            })
            .collect();
        let report = runtime.serve(spaced).unwrap();
        assert_eq!(report.outcomes().len(), 4);
        assert_eq!(report.metrics().rejects, 0);
        assert_eq!(report.metrics().peak_queue_depth, 0);
        assert_eq!(report.metrics().mean_queue_depth, 0.0);
        // A simultaneous burst: only the request that can start runs; the
        // shed deadline work is reported separately from misses.
        let burst: Vec<Request> = (0..5)
            .map(|i| {
                Request::new(i, spec.clone(), Workload::random(5, 4, i))
                    .at(0.0)
                    .with_deadline(1e9)
            })
            .collect();
        let report = runtime.serve(burst).unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.metrics().rejects, 4);
        assert_eq!(report.metrics().rejected_deadlines, 4);
        assert_eq!(report.metrics().deadline_requests, 1);
        assert!(report.rejected().iter().all(|r| r.deadline_us == Some(1e9)));
    }

    #[test]
    fn edf_reorders_a_backlogged_queue_by_deadline() {
        // One tile; request 0 occupies it while 1..=4 queue up. The tight
        // deadline arrives last in FIFO order, so affinity misses it while
        // slack-aware dispatch runs it first.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 64, 7);
        let mut requests: Vec<Request> = (0..4)
            .map(|i| Request::new(i, spec.clone(), workload.clone()).at(i as f64 * 0.01))
            .collect();
        // The per-request service time is far over 10 us, so the last-queued
        // request can only meet an (arrival + service + margin) deadline by
        // jumping the whole queue.
        let mut probe = Cluster::new(FuVariant::V4, 1, 1).unwrap();
        let service_us = probe.serve(requests.clone()).unwrap().outcomes()[0].completion_us;
        requests.push(
            Request::new(4, spec.clone(), workload.clone())
                .at(0.05)
                .with_deadline(0.05 + 2.0 * service_us),
        );

        let mut affinity = Cluster::new(FuVariant::V4, 1, 1).unwrap();
        let fifo = affinity.serve(requests.clone()).unwrap();
        assert_eq!(fifo.metrics().deadline_requests, 1);
        assert_eq!(fifo.metrics().deadline_misses, 1, "FIFO strands request 4");

        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_policy(DispatchPolicy::SlackAware);
        let report = runtime.serve(requests).unwrap();
        assert_eq!(
            report.metrics().deadline_misses,
            0,
            "slack-aware dispatch must run the urgent request ahead of the backlog"
        );
        let urgent = report
            .outcomes()
            .iter()
            .find(|o| o.request_id == 4)
            .unwrap();
        assert!(urgent.queued_us < fifo.outcomes()[4].queued_us);
    }

    #[test]
    fn deadlines_are_checked_against_completion() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 16, 3);
        let requests = vec![
            Request::new(0, spec.clone(), workload.clone()).with_deadline(1e9),
            Request::new(1, spec, workload).with_deadline(1e-9),
        ];
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1).unwrap();
        let report = runtime.serve(requests).unwrap();
        assert!(!report.outcomes()[0].missed_deadline);
        assert!(report.outcomes()[1].missed_deadline);
        assert_eq!(report.metrics().deadline_misses, 1);
        assert_eq!(report.metrics().deadline_requests, 2);
        assert!((report.metrics().deadline_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let mut runtime = Cluster::new(FuVariant::V4, 1, 2).unwrap();
        assert!(matches!(
            runtime.serve(Vec::new()),
            Err(RuntimeError::NoRequests)
        ));
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let bad = Request::new(9, spec.clone(), Workload::ramp(5, 2)).at(f64::NAN);
        assert!(matches!(
            runtime.serve(vec![bad]),
            Err(RuntimeError::InvalidArrival { request: 9, .. })
        ));
        // The online loop needs non-decreasing arrivals to be deterministic.
        let first = Request::new(0, spec.clone(), Workload::ramp(5, 2)).at(10.0);
        let stale = Request::new(1, spec, Workload::ramp(5, 2)).at(5.0);
        assert!(matches!(
            runtime.serve(vec![first, stale]),
            Err(RuntimeError::OutOfOrderArrival {
                request: 1,
                horizon_us: h,
                ..
            }) if h == 10.0
        ));
    }

    #[test]
    fn simulation_failures_surface_the_failing_request() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let good = Request::new(0, spec.clone(), Workload::ramp(5, 4));
        // Gradient takes 5 inputs; a 2-wide record is malformed.
        let bad = Request::new(1, spec, Workload::ramp(2, 4));
        let trace = vec![good, bad];
        let mut runtime = Cluster::new(FuVariant::V4, 1, 2).unwrap();
        assert!(matches!(
            runtime.serve(trace.clone()),
            Err(RuntimeError::Sim(_))
        ));
        let mut cluster = Cluster::new(FuVariant::V4, 2, 2).unwrap();
        assert!(matches!(
            cluster.serve(trace.clone()),
            Err(RuntimeError::Sim(_))
        ));
        // The failure belongs to the admission that caused it: with the one
        // tile busy and no room to wait, admission control turns the
        // malformed request away, it is never simulated, and the serve
        // succeeds — on both tiers (kernel-hash routing sends the two, one
        // kernel, to one of the cluster's single-tile devices).
        let mut runtime = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_admission_limit(0);
        let report = runtime.serve(trace.clone()).unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.rejected()[0].id, 1);
        assert_eq!(report.metrics().sim_memo.misses, 1, "only `good` ran");
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1)
            .unwrap()
            .with_admission_limit(0);
        let report = cluster.serve(trace).unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.rejected()[0].id, 1);
        assert_eq!(report.metrics().sim_memo.misses, 1, "only `good` ran");
    }

    /// `NocConfig`'s fields are public, so a layout with no tiles can skip
    /// `NocConfig::new`'s check; `from_noc` refuses it instead of building
    /// a cluster whose serve would find no tile to place on.
    #[test]
    fn a_zero_tile_noc_is_an_empty_pool() {
        let tile = overlay_arch::Tile::new(FuVariant::V4, overlay_arch::TileComposition::Parallel);
        for (rows, cols) in [(0, 3), (2, 0), (0, 0)] {
            let noc = NocConfig { rows, cols, tile };
            assert!(matches!(
                Cluster::from_noc(noc),
                Err(RuntimeError::EmptyPool)
            ));
        }
        let noc = NocConfig {
            rows: 1,
            cols: 1,
            tile,
        };
        let spec = KernelSpec::from_source("poly", "kernel poly(x) { out y = x * x + 3; }");
        let request = Request::new(0, spec, Workload::ramp(1, 4));
        let report = Cluster::from_noc(noc).unwrap().serve(vec![request]);
        assert_eq!(report.unwrap().outcomes().len(), 1);
    }

    /// A traced serve over an explicit NoC — two rows, so round trips
    /// differ by row, of series-composed depth-16 tiles — under slack-aware
    /// dispatch, admission pressure and batching.
    fn from_noc_serve() -> ServeReport {
        let tile = overlay_arch::Tile::new(FuVariant::V4, overlay_arch::TileComposition::Series);
        let noc = NocConfig::new(2, 3, tile).unwrap();
        let requests: Vec<Request> = benchmark_trace(60, 24, 0xFEED)
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                let arrival_us = i as f64 * 0.05;
                let request = request.at(arrival_us);
                match i % 3 {
                    0 => request.with_deadline(arrival_us + 3.0),
                    _ => request,
                }
            })
            .collect();
        let mut runtime = Cluster::from_noc(noc)
            .unwrap()
            .with_policy(DispatchPolicy::SlackAware)
            .with_admission_limit(16)
            .with_batching(BatchConfig::with_max_batch(4))
            .with_tracing(TraceConfig::enabled());
        runtime.serve(requests).unwrap()
    }

    /// [`from_noc_serve`] pinned to the bytes the single-array runtime's own event loop
    /// produced before it became a one-device [`Cluster`] (whose
    /// constructor only ever built single-row parallel pools), with the
    /// trace in its request-major order: that earlier dump, its events
    /// reordered by the rule [`Trace::events`](obs::Trace::events)
    /// documents, digests to this constant. Never edit the constant to make
    /// this pass.
    #[test]
    fn a_from_noc_serve_matches_its_golden_digest() {
        use std::hash::Hasher;
        const GOLDEN_FNV: u64 = 0xc706_495d_748b_c306;
        let report = from_noc_serve();
        let metrics = report.metrics();
        assert!(metrics.rejects > 0 && metrics.deadline_misses > 0);
        assert!(metrics.batch.switches_avoided > 0);
        let dump = format!(
            "{:?}\n{:?}\n{:?}\n{:?}",
            report.outcomes(),
            report.rejected(),
            metrics,
            report.trace().expect("tracing was enabled").events()
        );
        let mut hasher = cache::FnvHasher::default();
        hasher.write(dump.as_bytes());
        assert_eq!(
            hasher.finish(),
            GOLDEN_FNV,
            "digest {:#018x} is not the golden one",
            hasher.finish()
        );
    }

    /// The Perfetto export of [`from_noc_serve`]'s trace, byte for byte.
    /// Never edit the constant to make this pass; a mismatch prints the
    /// JSON the exporter writes now.
    #[test]
    fn a_from_noc_serve_exports_its_golden_perfetto_json() {
        use std::hash::Hasher;
        const GOLDEN_FNV: u64 = 0xc3c9_b66b_b497_32ad;
        let report = from_noc_serve();
        let trace = report.trace().expect("tracing was enabled");
        let json = obs::perfetto_trace_json(trace, None, "from_noc");
        obs::validate_chrome_trace(&json).expect("the export validates");
        let mut hasher = cache::FnvHasher::default();
        hasher.write(json.as_bytes());
        assert_eq!(
            hasher.finish(),
            GOLDEN_FNV,
            "digest {:#018x} of the Perfetto JSON below is not the golden one\n{json}",
            hasher.finish()
        );
    }

    #[test]
    fn random_workloads_are_deterministic_per_seed() {
        // The dispatcher and trace builders rely on this reproducibility.
        assert_eq!(Workload::random(4, 32, 11), Workload::random(4, 32, 11));
        assert_ne!(Workload::random(4, 32, 11), Workload::random(4, 32, 12));
    }
}
