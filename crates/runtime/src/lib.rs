//! # overlay-runtime — an online multi-tile serving runtime for the TM overlay
//!
//! The paper's Sec. III-A.3 proposes replicating depth-8 write-back overlays
//! into NoC-connected *tiles*, and Sec. V shows their killer feature: a
//! ~0.25 µs hardware context switch (instruction reload) against ~1 ms of
//! PCAP partial reconfiguration for the feed-forward overlays. This crate
//! turns those models into an **online, event-driven** serving system whose
//! host-side hot path never scans the tiles or a queue per event as the pool
//! and the queues grow:
//!
//! * [`Submitter`] — streaming request ingestion over a bounded channel:
//!   [`Runtime::serve_stream`] accepts requests as they are produced, with
//!   backpressure when the ingest buffer fills and an admission-control
//!   reject path when tile queues overflow. Requests stream as
//!   [`Arc<Request>`] — no workload is ever deep-cloned on the way in — and
//!   reach the loop by value (a batch [`Runtime::serve`] moves them straight
//!   off the trace);
//! * a virtual-time **event loop** ([`event`]) — every dispatch decision
//!   happens at an arrival or tile-free event against live per-tile queue
//!   state, never with knowledge of the future trace;
//! * [`Dispatcher`] — context-switch-aware placement and deadline-aware
//!   queue ordering: [`DispatchPolicy::KernelAffinity`] charges the
//!   [`overlay_arch::ReconfigModel`] swap cost (µs instruction reload for
//!   V3–V5, ms PCAP for `[14]`/V1/V2) whenever a tile must change kernels;
//!   [`DispatchPolicy::EarliestDeadlineFirst`] and
//!   [`DispatchPolicy::SlackAware`] drain tile queues by deadline urgency.
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
//! * functional execution — an admitted request the memo cannot answer is
//!   run through the cycle-accurate [`overlay_sim::OverlaySimulator`] on the
//!   event loop's own thread, at its admission; a batch serve starts no
//!   thread at all;
//! * [`RuntimeMetrics`] — requests/s, p50/p99 modeled latency, per-tile
//!   utilization, cache and memo hit rates, context-switch totals, queue
//!   depths, admission rejects, deadline miss rates and the host-side event
//!   count;
//! * the **control plane** ([`control`]) — optional same-kernel batching
//!   over the tile-free queue drain ([`BatchConfig`],
//!   [`Runtime::with_batching`]) and, on a [`Cluster`], rate-driven kernel
//!   replication ahead of demand ([`ReplicationConfig`],
//!   [`Cluster::with_replication`]). Both are off by default and leave the
//!   runtime bitwise identical to the un-batched event loop when off.
//!
//! # Example
//!
//! ```
//! use overlay_runtime::{DispatchPolicy, KernelSpec, Request, Runtime};
//! use overlay_arch::FuVariant;
//! use overlay_sim::Workload;
//!
//! # fn main() -> Result<(), overlay_runtime::RuntimeError> {
//! let mut runtime = Runtime::new(FuVariant::V4, 2)?
//!     .with_policy(DispatchPolicy::EarliestDeadlineFirst);
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

pub mod cache;
pub mod cluster;
pub mod control;
pub mod dispatch;
pub mod error;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod request;
pub mod route;
pub mod session;
pub mod submit;

pub use cache::{CacheStats, KernelCache, KernelKey, SimKey, SimMemo};
pub use obs::{
    explain, Attribution, AttributionReport, BurnAlert, BurnSample, ClassWindow, LogHistogram,
    ProfileStats, SloConfig, SloObjective, SloReport, SloStatus, SpanKind, TelemetryConfig,
    TimeSeries, Trace, TraceConfig, TraceEvent, WindowStats,
};

use cache::FnvHashMap;
pub use cluster::{Cluster, ClusterReport, Device};
pub use control::{BatchConfig, RateEstimator, ReplicationConfig};
pub use dispatch::{DispatchPolicy, DispatchRequest, Dispatcher};
pub use error::RuntimeError;
pub use fault::scenario::{FlashCrowd, Scenario, ScenarioArrival, ScenarioConfig};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{
    BatchStats, ClassMetrics, DeviceMetrics, ReplicationStats, RuntimeMetrics, StageMetrics,
};
pub use pool::{ChargeOutcome, TilePool, TileState};
pub use request::{KernelSpec, Request};
pub use route::{RoutePolicy, TransferModel};
pub use session::{
    PipelineOutcome, PipelineReport, PipelineRequest, PipelineStage, ReorderBuffer, Session,
    SloClass,
};
pub use submit::{SubmitError, Submitter};

use std::sync::{mpsc, Arc};
use std::thread;

use control::Batcher;
use dispatch::TileQueue;
use event::{EventKind, EventQueue};
use overlay_arch::{FuVariant, NocConfig, OverlayConfig, ReconfigModel, TileComposition};
use overlay_dfg::Value;
use overlay_frontend::LowerOptions;
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, SimError, SimMetrics, SimRun};

/// What happened to one served request: where it ran, what it produced and
/// the modeled timing it experienced.
///
/// Outcomes are allocation-light by construction: the kernel name is shared
/// with the request's [`KernelSpec`] and the functional outputs are shared
/// with the (possibly memoized) simulation run — recording an outcome never
/// deep-copies either.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The caller-chosen request id.
    pub request_id: u64,
    /// The kernel name (shared with the request's spec).
    pub kernel: Arc<str>,
    /// The device that served the request (always 0 for a single
    /// [`Runtime`]; the routing decision for a [`Cluster`]).
    pub device: usize,
    /// The tile that served the request (device-local index).
    pub tile: usize,
    /// The simulation run behind this outcome (shared, possibly memoized).
    run: Arc<SimRun>,
    /// The simulator's cycle-level metrics for this request.
    pub sim: SimMetrics,
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
    /// Functional outputs, one record per invocation — a view into the
    /// shared simulation run.
    pub fn outputs(&self) -> &[Vec<Value>] {
        self.run.outputs()
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

/// The result of one serve: per-request outcomes (in submission order),
/// admission rejects and aggregate metrics.
#[derive(Debug, Clone)]
pub struct ServeReport {
    policy: DispatchPolicy,
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    metrics: RuntimeMetrics,
    trace: Option<obs::Trace>,
    profile: Option<obs::ProfileStats>,
    telemetry: Option<obs::TimeSeries>,
    slo: Option<obs::SloReport>,
}

impl ServeReport {
    /// Per-request outcomes of every *admitted* request, in submission order.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Requests rejected by admission control, in submission order.
    pub fn rejected(&self) -> &[RejectedRequest] {
        &self.rejected
    }

    /// Aggregate serving metrics.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The dispatch policy that produced this report.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The recorded request-span trace, when the serve ran with
    /// [`Runtime::with_tracing`] enabled.
    pub fn trace(&self) -> Option<&obs::Trace> {
        self.trace.as_ref()
    }

    /// The host-time stage attribution, when the serve ran with
    /// [`Runtime::with_profiling`] enabled.
    pub fn profile(&self) -> Option<&obs::ProfileStats> {
        self.profile.as_ref()
    }

    /// The windowed telemetry time-series, when the serve ran with
    /// [`Runtime::with_telemetry`] enabled.
    pub fn telemetry(&self) -> Option<&obs::TimeSeries> {
        self.telemetry.as_ref()
    }

    /// The SLO burn-rate tracking, when the serve ran with both
    /// [`Runtime::with_telemetry`] and [`Runtime::with_slo`] enabled.
    pub fn slo(&self) -> Option<&obs::SloReport> {
        self.slo.as_ref()
    }
}

/// Per-serve context shared by every request's preparation, including the
/// per-kernel derived timing figures (operating frequency, switch cost,
/// steady-state II) so they are computed once per distinct kernel rather
/// than once per request.
pub(crate) struct PrepContext {
    variant: FuVariant,
    writeback: bool,
    depth: usize,
    tile_overlay: Option<OverlayConfig>,
    derived: FnvHashMap<KernelKey, DerivedTiming>,
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
            derived: FnvHashMap::default(),
        })
    }
}

/// Kernel-dependent timing facts reused across every request for that
/// kernel within one serve.
#[derive(Clone, Copy)]
struct DerivedTiming {
    fmax_mhz: f64,
    switch_us: f64,
    ii: f64,
    fill_cycles: f64,
    image_bytes: usize,
}

/// Compiles (via `cache`) and derives the timing figures one request needs
/// before it can be dispatched — including the [`DispatchRequest`] view
/// every later event reuses and the [`SimKey`] the memo answers.
/// Kernel-dependent timing (frequency, switch cost, II, image size) is
/// computed once per distinct kernel and reused from the context. Shared by
/// [`Runtime`] and [`Cluster`] (where `cache` is the kernel's home-device
/// store).
pub(crate) fn prepare_request(
    cache: &mut KernelCache,
    lower: &LowerOptions,
    reconfig: &ReconfigModel,
    ctx: &mut PrepContext,
    request: Request,
) -> Result<InFlight, RuntimeError> {
    let key = KernelKey {
        fingerprint: request.kernel.fingerprint(),
        variant: ctx.variant,
        depth: ctx.depth,
    };
    let spec = &request.kernel;
    let writeback = ctx.writeback;
    let depth = ctx.depth;
    let compiled = cache.get_or_compile(key, || {
        let dfg = spec.dfg(lower)?;
        let fixed_depth = writeback.then_some(depth);
        let stages = schedule(&dfg, ctx.variant, fixed_depth)?;
        Ok(generate_program(&dfg, &stages, ctx.variant)?)
    })?;
    let timing = match ctx.derived.get(&key) {
        Some(&timing) => timing,
        None => {
            let config_bits = compiled.program.config_bits();
            let (fmax_mhz, switch_us) = match &ctx.tile_overlay {
                // Write-back tile: fixed overlay, instruction reload only.
                Some(config) => (
                    config.fmax_mhz(),
                    reconfig
                        .program_only_switch(ctx.variant, config_bits)
                        .total_us(),
                ),
                // Feed-forward tile: the overlay is rebuilt to the
                // kernel's depth, so a swap pays PCAP reconfiguration.
                None => {
                    let config = OverlayConfig::new(ctx.variant, compiled.num_fus())?;
                    (
                        config.fmax_mhz(),
                        reconfig.full_switch(&config, config_bits).total_us(),
                    )
                }
            };
            let timing = DerivedTiming {
                fmax_mhz,
                switch_us,
                ii: compiled.ii,
                fill_cycles: (4 * compiled.num_fus()) as f64,
                image_bytes: compiled.program.config_bytes(),
            };
            ctx.derived.insert(key, timing);
            timing
        }
    };
    // Planning estimate: steady-state II per invocation plus a
    // pipeline-fill allowance, at the overlay's operating frequency.
    let est_exec_us =
        (timing.ii * request.workload.len() as f64 + timing.fill_cycles) / timing.fmax_mhz;
    let sim_key = SimKey {
        kernel: key,
        workload: request.workload_digest(),
    };
    let view = DispatchRequest {
        key,
        est_exec_us,
        switch_us: timing.switch_us,
        deadline_us: request.deadline_us,
    };
    Ok(InFlight {
        request,
        sim_key,
        compiled,
        fmax_mhz: timing.fmax_mhz,
        image_bytes: timing.image_bytes,
        view,
    })
}

/// Everything the loop derives for a request when it is streamed in: the
/// dispatch view (kernel identity + modeled costs) is computed once here and
/// reused at every event the request participates in. The request is held
/// by value — moved off the batch or out of the stream's `Arc` — so a record
/// is one row of the intake table with no allocation of its own.
#[derive(Debug)]
pub(crate) struct InFlight {
    pub(crate) request: Request,
    pub(crate) sim_key: SimKey,
    pub(crate) compiled: Arc<CompiledKernel>,
    pub(crate) fmax_mhz: f64,
    /// The compiled image size the transfer model charges for moving this
    /// kernel between devices.
    pub(crate) image_bytes: usize,
    pub(crate) view: DispatchRequest,
}

/// Records the lifecycle spans of one started request onto its tile track:
/// queue wait (arrival → start), image acquisition and context switch when
/// paid, the run itself, batch membership and the commit instant. The span
/// durations sum to the request's reported `latency_us` by construction —
/// the reconciliation the observability test suite audits. Shared by the
/// [`Runtime`] and [`Cluster`] start paths (`acquire` is the cluster's
/// image-acquisition charge: duration, source label, bytes).
pub(crate) fn record_request_spans(
    recorder: &mut obs::TraceRecorder,
    place: (usize, usize),
    info: &InFlight,
    charged: &ChargeOutcome,
    acquire: Option<(f64, &'static str, u64)>,
    activation_us: f64,
    run_len: usize,
) {
    let (device, tile) = place;
    let request = &info.request;
    let span = |time_us: f64, dur_us: f64, kind: obs::SpanKind| obs::TraceEvent {
        time_us,
        dur_us,
        request_id: Some(request.id),
        device,
        tile: Some(tile),
        kind,
    };
    let start = charged.start_us;
    // The always-adjacent pairs (queue wait + batch membership, run +
    // commit) go through the recorder's fused capture paths: half the ring
    // pushes for the per-request burst, split back apart at decode.
    recorder.queue_wait_batch(
        request.arrival_us,
        start - request.arrival_us,
        request.id,
        device,
        tile,
        run_len as u64,
    );
    let mut cursor = start;
    if let Some((acquire_us, source, bytes)) = acquire {
        if acquire_us > 0.0 {
            recorder.record(span(
                cursor,
                acquire_us,
                obs::SpanKind::Acquire { source, bytes },
            ));
            cursor += acquire_us;
        }
    }
    if charged.switched {
        if activation_us > 0.0 {
            recorder.record(span(cursor, activation_us, obs::SpanKind::Activation));
            cursor += activation_us;
        }
        let switch_us = info.view.switch_us;
        recorder.record(span(cursor, switch_us, obs::SpanKind::ContextSwitch));
        cursor += switch_us;
    }
    recorder.run_commit(
        cursor,
        charged.completion_us - cursor,
        charged.completion_us,
        request.id,
        device,
        tile,
    );
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
        serve(Ingest::Stream(ingest_rx))
    })
}

/// How far above what a serve used a recycled table's capacity may end
/// before it is cut back to that: serves of similar size never reallocate,
/// one outsized serve does not pin its footprint for the instance's life.
const RETAINED_SLACK: usize = 4;

/// Empties `table` for the next serve, keeping its storage unless the serve
/// that just `completed` used under a quarter of it.
fn recycle<T>(table: &mut Vec<T>, completed: bool) {
    let used = table.len();
    table.clear();
    if completed && table.capacity() > RETAINED_SLACK * used {
        table.shrink_to(used);
    }
}

/// The tables a serve indexes by intake position (and the latency scratch
/// its aggregation sorts). They belong to the [`Runtime`]/[`Cluster`], not
/// to the serve: a serve takes them, reserves room for the submissions it
/// knows are coming and hands them back emptied on every exit path, so a
/// warm serve neither allocates them nor first-touches their pages again.
/// A plain [`Runtime`] leaves the cluster-only ones unallocated.
#[derive(Debug, Default)]
pub(crate) struct LoopTables {
    pub(crate) intake: Vec<InFlight>,
    /// Per intake index: logically removed from its tile queue (the ordered
    /// structures drop flagged entries lazily).
    pub(crate) taken: Vec<bool>,
    /// Per intake index: the simulation sourced at admission ([`SimResults`]).
    pub(crate) ready: Vec<Option<Arc<SimRun>>>,
    /// Per outcome: the latencies `aggregate` selects percentiles from.
    pub(crate) latencies: Vec<f64>,
    /// Cluster only, per intake index: the image-acquisition delay resolved
    /// at arrival and its `(source, bytes)` for the acquire span.
    pub(crate) acquire_us: Vec<f64>,
    pub(crate) acquire_src: Vec<(&'static str, u64)>,
    /// Cluster only, per intake index: devices a fault displaced the request
    /// off — routing avoids them while any other serviceable device exists.
    pub(crate) exclusions: Vec<route::ExclusionSet>,
    /// Cluster only, per intake index: the inter-stage activation delay
    /// priced at the routing commit (all zero without a session driver).
    pub(crate) activation_us: Vec<f64>,
}

impl LoopTables {
    /// Room for `expected` submissions in the tables both loops index.
    pub(crate) fn reserve(&mut self, expected: usize) {
        self.intake.reserve(expected);
        self.taken.reserve(expected);
        self.ready.reserve(expected);
    }

    /// Drops what the serve left in the tables and keeps their storage for
    /// the next one; only a serve that `completed` says how much of it is
    /// worth keeping ([`RETAINED_SLACK`]), a failed one stopped short.
    pub(crate) fn release(&mut self, completed: bool) {
        recycle(&mut self.intake, completed);
        recycle(&mut self.taken, completed);
        recycle(&mut self.ready, completed);
        recycle(&mut self.latencies, completed);
        recycle(&mut self.acquire_us, completed);
        recycle(&mut self.acquire_src, completed);
        recycle(&mut self.exclusions, completed);
        recycle(&mut self.activation_us, completed);
    }
}

/// Compacts the per-intake outcome slots (a rejected request left its slot
/// `None`) into the report's outcomes inside the slots' own allocation:
/// each outcome is written once, into the table that leaves with the report.
pub(crate) fn compact_outcomes(slots: Vec<Option<RequestOutcome>>) -> Vec<RequestOutcome> {
    // `filter_map`, not `flatten`: only the former collects in place (both
    // element types are 144 bytes; `tests/allocs.rs` pins the reuse).
    #[allow(clippy::filter_map_identity)]
    slots.into_iter().filter_map(|slot| slot).collect()
}

/// Sim results as the event loop consumes them: an admitted request's
/// (placement-independent) simulation is sourced at admission — answered
/// from the memo or run there and then on the loop's own thread — and parked
/// in the request's slot until a tile is about to execute it.
pub(crate) struct SimResults<'t> {
    simulator: OverlaySimulator,
    /// One slot per intake index — no hashing on the hot path.
    ready: &'t mut Vec<Option<Arc<SimRun>>>,
}

impl<'t> SimResults<'t> {
    /// A result tracker over the (empty) recycled slot table `ready`, for a
    /// serve on tiles of `variant`.
    pub(crate) fn new(variant: FuVariant, ready: &'t mut Vec<Option<Arc<SimRun>>>) -> Self {
        SimResults {
            simulator: OverlaySimulator::new(variant).with_trace_capacity(0),
            ready,
        }
    }

    /// Grows the per-intake slot table by one (a request was streamed in).
    pub(crate) fn push_slot(&mut self) {
        self.ready.push(None);
    }

    /// Sources the simulation for an admitted request `index`: answers from
    /// the memo, or simulates and memoizes the run — with the memo counters
    /// tracking which (a disabled memo never answers, so every request
    /// simulates). The lookup and insert are profiled as [`obs::Stage::Memo`],
    /// the simulation as [`obs::Stage::Sim`]. Returns whether the memo
    /// answered, so tracing can emit the matching counter event.
    ///
    /// # Errors
    ///
    /// The simulator's error for this request's kernel and workload.
    pub(crate) fn source(
        &mut self,
        index: usize,
        info: &InFlight,
        memo: &mut SimMemo,
        profiler: &mut obs::StageProfiler,
    ) -> Result<bool, SimError> {
        let lookup = profiler.begin();
        let hit = memo.get(&info.sim_key);
        profiler.end(obs::Stage::Memo, lookup);
        let memo_hit = hit.is_some();
        let run = match hit {
            Some(run) => run,
            None => {
                memo.note_miss();
                let sim = profiler.begin();
                let run = self.simulator.run(&info.compiled, &info.request.workload);
                profiler.end(obs::Stage::Sim, sim);
                let run = Arc::new(run?);
                let insert = profiler.begin();
                memo.insert(info.sim_key, Arc::clone(&run));
                profiler.end(obs::Stage::Memo, insert);
                run
            }
        };
        self.ready[index] = Some(run);
        Ok(memo_hit)
    }

    /// The run sourced for `index` at its admission. The slot keeps its
    /// share, so a request fault injection abandons and requeues finds its
    /// simulation still waiting when the retry starts.
    pub(crate) fn run(&self, index: usize) -> Arc<SimRun> {
        Arc::clone(
            self.ready[index]
                .as_ref()
                .expect("an admitted request's simulation was sourced"),
        )
    }
}

/// Where the event loop pulls submissions from: a live bounded channel
/// (streaming serves) or the pre-collected trace itself (batch serves skip
/// the channel and its per-request synchronization entirely). Either way
/// the loop receives each [`Request`] by value: a batch request moves off
/// the trace, a streamed one out of its `Arc` — or, when the submitter kept
/// a share, is cloned shallowly (three reference-count bumps).
pub(crate) enum Ingest {
    Stream(mpsc::Receiver<Arc<Request>>),
    Batch(std::vec::IntoIter<Request>),
}

impl Ingest {
    /// How many submissions are known to be coming: the rest of a batch, 0
    /// for a live stream. Sizes the per-intake tables once up front.
    pub(crate) fn expected(&self) -> usize {
        match self {
            Ingest::Stream(_) => 0,
            Ingest::Batch(iter) => iter.len(),
        }
    }

    /// Blocking pull of the next submission; `None` means the trace is
    /// complete.
    pub(crate) fn recv(&mut self) -> Option<Request> {
        match self {
            Ingest::Stream(rx) => rx.recv().ok().map(Arc::unwrap_or_clone),
            Ingest::Batch(iter) => iter.next(),
        }
    }

    /// Non-blocking pull of an already-available submission, letting the
    /// loop drain the stream buffer in batches instead of paying one
    /// channel synchronization per request. Batch ingest always answers
    /// `None`: with no channel to amortize, pulling strictly by the horizon
    /// rule keeps the event heap small.
    pub(crate) fn try_recv(&mut self) -> Option<Request> {
        match self {
            Ingest::Stream(rx) => rx.try_recv().ok().map(Arc::unwrap_or_clone),
            Ingest::Batch(_) => None,
        }
    }
}

/// The horizon-ruled submission pull shared by the [`Runtime`] and
/// [`Cluster`] event loops: requests are pulled (and prepared) until the
/// earliest pending event is at or before the horizon and therefore safe to
/// fire. After each blocking pull, whatever else is already buffered is
/// drained in the same pass — pulling ahead of the horizon is always sound
/// (it only schedules future arrival events) and amortizes the channel
/// synchronization across a whole burst.
///
/// Arrival validation (finite, non-negative, non-decreasing) lives here, in
/// exactly one place.
pub(crate) struct SubmissionPull {
    pub(crate) horizon_us: f64,
    pub(crate) ingest_open: bool,
}

impl SubmissionPull {
    pub(crate) fn new() -> Self {
        SubmissionPull {
            horizon_us: 0.0,
            ingest_open: true,
        }
    }

    /// Pulls until an event at or before the horizon is pending (or the
    /// ingest closes, setting the horizon to ∞). `prepare` compiles one
    /// submission into its [`InFlight`] record; `grow_slots` extends the
    /// caller's per-intake side tables by one before the record is pushed
    /// (and, with tracing on, records the submission span — which is why it
    /// sees the prepared record).
    pub(crate) fn pull<P, G>(
        &mut self,
        ingest: &mut Ingest,
        events: &mut EventQueue,
        intake: &mut Vec<InFlight>,
        mut prepare: P,
        mut grow_slots: G,
    ) -> Result<(), RuntimeError>
    where
        P: FnMut(Request) -> Result<InFlight, RuntimeError>,
        G: FnMut(&InFlight),
    {
        while self.ingest_open
            && events
                .peek_time_us()
                .is_none_or(|time| time > self.horizon_us)
        {
            let Some(request) = ingest.recv() else {
                // Every submitter is gone: the trace is complete.
                self.ingest_open = false;
                self.horizon_us = f64::INFINITY;
                break;
            };
            let mut next = Some(request);
            while let Some(request) = next.take() {
                let arrival_us = request.arrival_us;
                if !arrival_us.is_finite() || arrival_us < 0.0 {
                    return Err(RuntimeError::InvalidArrival {
                        request: request.id,
                        arrival_us,
                    });
                }
                if arrival_us < self.horizon_us {
                    return Err(RuntimeError::OutOfOrderArrival {
                        request: request.id,
                        arrival_us,
                        horizon_us: self.horizon_us,
                    });
                }
                self.horizon_us = arrival_us;
                let inflight = prepare(request)?;
                let index = intake.len();
                // Arrivals enter in non-decreasing time order: the
                // monotone lane appends instead of heap-sifting.
                events.push_monotone(arrival_us, EventKind::Arrival { index });
                grow_slots(&inflight);
                intake.push(inflight);
                next = ingest.try_recv();
            }
        }
        Ok(())
    }
}

/// Mutable event-loop state, separate from the `Runtime` so placement (on
/// `self`) and bookkeeping borrows stay disjoint.
struct OnlineState<'t> {
    /// The per-tile waiting queues, ordered for the dispatch policy.
    queues: Vec<TileQueue>,
    /// [`LoopTables::taken`], on loan for the serve.
    taken: &'t mut Vec<bool>,
    events: EventQueue,
    /// Per intake index: the outcome written at the request's start. The one
    /// table a serve allocates: it leaves with the report ([`compact_outcomes`]).
    outcome_slots: Vec<Option<RequestOutcome>>,
    rejected: Vec<RejectedRequest>,
    sim: SimResults<'t>,
    /// The same-kernel batching layer over the tile-free queue drain (a
    /// no-op at the default `max_batch = 1`).
    batcher: Batcher,
    peak_queue_depth: usize,
    queue_area_us: f64,
    last_event_us: f64,
    /// Request-span recorder (inert under the default disabled config), on
    /// loan from [`Runtime::trace_scratch`] for the serve.
    recorder: &'t mut obs::TraceRecorder,
    /// Host-time stage timers (inert unless profiling was enabled).
    profiler: obs::StageProfiler,
    /// Online latency histogram, recorded as requests complete.
    latency_hist: obs::LogHistogram,
    /// Online queue-depth histogram, sampled at every event-loop step.
    queue_depth_hist: obs::LogHistogram,
    /// Windowed telemetry partitions (inert under the default disabled
    /// config): the single device lane and the queue-integral series.
    lane_series: obs::LaneSeries,
    global_series: obs::GlobalSeries,
}

/// What the event loop hands back for aggregation.
struct LoopOutput {
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    peak_queue_depth: usize,
    queue_area_us: f64,
    events_fired: u64,
    batch: metrics::BatchStats,
    trace: Option<obs::Trace>,
    profile: Option<obs::ProfileStats>,
    latency_hist: obs::LogHistogram,
    queue_depth_hist: obs::LogHistogram,
    telemetry: Option<obs::TimeSeries>,
    slo: Option<obs::SloReport>,
}

/// An online multi-tile serving runtime over one overlay variant.
///
/// See the [crate-level documentation](crate) for the moving parts and an
/// end-to-end example.
#[derive(Debug)]
pub struct Runtime {
    pool: TilePool,
    dispatcher: Dispatcher,
    cache: KernelCache,
    sim_memo: SimMemo,
    reconfig: ReconfigModel,
    lower: LowerOptions,
    ingest_capacity: usize,
    admission_limit: usize,
    batching: BatchConfig,
    tracing: obs::TraceConfig,
    /// Recorder kept across serves so the ring's backing allocation (and
    /// its warmed pages) amortize instead of being re-faulted per serve.
    /// Lent to the event loop's state and handed back at serve end.
    trace_scratch: obs::TraceRecorder,
    /// The per-intake tables, kept likewise and empty between serves.
    tables: LoopTables,
    profiling: bool,
    telemetry: obs::TelemetryConfig,
    slo: obs::SloConfig,
}

impl Runtime {
    /// Default capacity of the kernel cache.
    pub const DEFAULT_CACHE_CAPACITY: usize = 64;

    /// Default capacity of the simulation memo.
    pub const DEFAULT_SIM_MEMO_CAPACITY: usize = 1024;

    /// Default bound of the streaming ingest channel.
    pub const DEFAULT_INGEST_CAPACITY: usize = 64;

    /// A runtime of `tiles` parallel-composition tiles of `variant` on a
    /// single-row NoC, using kernel-affinity dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyPool`] when `tiles` is 0.
    pub fn new(variant: FuVariant, tiles: usize) -> Result<Self, RuntimeError> {
        let pool = TilePool::with_tiles(variant, TileComposition::Parallel, tiles)?;
        Ok(Self::from_pool(pool))
    }

    /// A runtime over an explicit NoC layout (rows × cols of a chosen tile).
    pub fn from_noc(noc: NocConfig) -> Self {
        Self::from_pool(TilePool::new(noc))
    }

    fn from_pool(pool: TilePool) -> Self {
        Runtime {
            pool,
            dispatcher: Dispatcher::default(),
            cache: KernelCache::new(Self::DEFAULT_CACHE_CAPACITY)
                .expect("default capacity is non-zero"),
            sim_memo: SimMemo::new(Self::DEFAULT_SIM_MEMO_CAPACITY),
            reconfig: ReconfigModel::new(),
            lower: LowerOptions::default(),
            ingest_capacity: Self::DEFAULT_INGEST_CAPACITY,
            admission_limit: usize::MAX,
            batching: BatchConfig::disabled(),
            tracing: obs::TraceConfig::disabled(),
            trace_scratch: obs::TraceRecorder::new(obs::TraceConfig::disabled()),
            tables: LoopTables::default(),
            profiling: false,
            telemetry: obs::TelemetryConfig::disabled(),
            slo: obs::SloConfig::disabled(),
        }
    }

    /// Sets the dispatch policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        self.dispatcher = Dispatcher::new(policy);
        self
    }

    /// Replaces the kernel cache with one of `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ZeroCacheCapacity`] when `capacity` is 0.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Result<Self, RuntimeError> {
        self.cache = KernelCache::new(capacity)?;
        Ok(self)
    }

    /// Replaces the simulation memo with one of `capacity` entries.
    /// A capacity of 0 disables memoization — every request simulates.
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

    /// Sets the admission-control limit on *waiting* requests: an arrival
    /// that would have to queue while this many requests are already
    /// waiting across all tiles is rejected. An arrival is always admitted
    /// when the tile the dispatcher places it on can start it immediately —
    /// note the placement decision comes first, so a policy that prefers
    /// waiting for a warm tile over an idle-but-cold one (e.g. affinity on
    /// a PCAP pool) can still see its request rejected while another tile
    /// sits idle. Defaults to unlimited.
    #[must_use]
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit;
        self
    }

    /// Overrides the reconfiguration timing model.
    #[must_use]
    pub fn with_reconfig(mut self, model: ReconfigModel) -> Self {
        self.reconfig = model;
        self
    }

    /// Configures the same-kernel batching layer: when a tile frees, up to
    /// [`BatchConfig::max_batch`] consecutive runs of the resident kernel
    /// may jump the dispatch policy's queue order (never past the staleness
    /// bound, and never when a bypassed deadline would become infeasible).
    /// The default [`BatchConfig::disabled`] leaves every decision to the
    /// dispatch policy — bitwise identical to the un-batched runtime.
    #[must_use]
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batching = config;
        self
    }

    /// Configures request-span tracing: every serve records its lifecycle
    /// spans into a bounded drop-oldest ring and hands the completed
    /// [`Trace`](obs::Trace) back on the report. The default
    /// [`TraceConfig::disabled`](obs::TraceConfig::disabled) records nothing
    /// and leaves the serve bitwise identical to an untraced one.
    #[must_use]
    pub fn with_tracing(mut self, config: obs::TraceConfig) -> Self {
        self.tracing = config;
        self.trace_scratch = obs::TraceRecorder::new(config);
        self
    }

    /// Enables the host-time hot-path profiler: the serve attributes its
    /// wall-clock nanoseconds to scan/route/sim/memo/bookkeeping stages and
    /// reports [`ProfileStats`](obs::ProfileStats). Off (the default) no
    /// clock is ever read on the hot path.
    #[must_use]
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Configures windowed telemetry: the serve accumulates a per-window
    /// [`TimeSeries`](obs::TimeSeries) (throughput, miss-rate, queue depth,
    /// utilization, per-class latency percentiles) on the virtual timeline
    /// and hands it back on the report. The default
    /// [`TelemetryConfig::disabled`](obs::TelemetryConfig::disabled)
    /// accumulates nothing and leaves the serve bitwise identical.
    #[must_use]
    pub fn with_telemetry(mut self, config: obs::TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Configures SLO objectives: against the windowed telemetry series the
    /// serve tracks per-class error-budget burn rates, fires/clears
    /// multi-window burn alerts (as [`SloBurn`](obs::SpanKind::SloBurn) /
    /// [`SloClear`](obs::SpanKind::SloClear) trace spans when tracing is on)
    /// and reports an [`SloReport`](obs::SloReport). Needs
    /// [`with_telemetry`](Runtime::with_telemetry); the default
    /// [`SloConfig::disabled`](obs::SloConfig::disabled) tracks nothing.
    #[must_use]
    pub fn with_slo(mut self, config: obs::SloConfig) -> Self {
        self.slo = config;
        self
    }

    /// Overrides the front-end lowering options.
    ///
    /// Clears the kernel cache and the simulation memo: cached artifacts
    /// were compiled under the old options and their [`KernelKey`] does not
    /// encode lowering options.
    #[must_use]
    pub fn with_lower_options(mut self, options: LowerOptions) -> Self {
        self.lower = options;
        self.cache.clear();
        self.sim_memo.clear();
        self
    }

    /// The overlay variant all tiles are built from.
    pub fn variant(&self) -> FuVariant {
        self.pool.variant()
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.dispatcher.policy()
    }

    /// The bound of the streaming ingest channel.
    pub fn ingest_capacity(&self) -> usize {
        self.ingest_capacity
    }

    /// The admission-control limit on waiting requests.
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// The active same-kernel batching configuration.
    pub fn batching(&self) -> BatchConfig {
        self.batching
    }

    /// The active tracing configuration.
    pub fn tracing(&self) -> obs::TraceConfig {
        self.tracing
    }

    /// Whether host-time stage profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The tile pool (holding the state left by the last serve).
    pub fn pool(&self) -> &TilePool {
        &self.pool
    }

    /// The kernel cache (counters accumulate across serves).
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// The simulation memo (counters accumulate across serves).
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim_memo
    }

    /// Serves a pre-collected trace, taken by value so streaming it through
    /// the loop never deep-clones a workload. The requests are consumed in
    /// iteration order and dispatched online exactly as
    /// [`serve_stream`](Runtime::serve_stream) would dispatch live traffic —
    /// but straight off the trace, with no ingest channel or feeder thread
    /// in between. Pass `trace.clone()` to keep a trace for a later replay.
    ///
    /// Each request moves, by value, into a row of the runtime's intake
    /// table. That table and the others indexed by intake position belong
    /// to the runtime, not to the serve: they come back empty — nothing a
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
    /// Returns a [`RuntimeError`] for an empty trace, invalid or
    /// out-of-order arrival times, or any compile/simulation failure. A
    /// failed serve leaves the runtime as warm as it found it.
    pub fn serve<I>(&mut self, requests: I) -> Result<ServeReport, RuntimeError>
    where
        I: IntoIterator<Item = Request>,
    {
        let requests: Vec<Request> = requests.into_iter().collect();
        self.run_serve(Ingest::Batch(requests.into_iter()))
    }

    /// Serves a live request stream: `feed` runs on its own thread and
    /// submits requests through the [`Submitter`] (blocking when the bounded
    /// ingest channel is full) while the event loop consumes them on the
    /// virtual timeline. The serve ends when `feed` returns (dropping the
    /// submitter) and every admitted request has completed.
    ///
    /// Requests must be submitted in non-decreasing arrival order — that is
    /// what lets the loop prove no earlier event can still arrive and makes
    /// the whole serve deterministic for a given submission order.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when nothing was submitted, for invalid or
    /// out-of-order arrival times, or for any compile/simulation failure: a
    /// compile failure when the failing request is pulled off the stream, a
    /// simulation failure at the failing request's admission (a request
    /// admission control rejects is never simulated).
    pub fn serve_stream<F>(&mut self, feed: F) -> Result<ServeReport, RuntimeError>
    where
        F: FnOnce(Submitter) + Send,
    {
        with_feeder(self.ingest_capacity, feed, |ingest| self.run_serve(ingest))
    }

    /// The shared serve body: resets per-serve state, lends the recycled
    /// tables and the warm trace recorder to the event loop, folds its output
    /// into a report and takes both back on every exit path — a serve that
    /// fails costs the next one nothing.
    fn run_serve(&mut self, ingest: Ingest) -> Result<ServeReport, RuntimeError> {
        self.pool.reset();
        self.dispatcher.reset();
        let cache_before = self.cache.stats();
        let memo_before = self.sim_memo.stats();
        let mut tables = std::mem::take(&mut self.tables);
        let mut recorder = self.trace_scratch.take_warm(self.tracing);

        let output = self.event_loop(ingest, &mut tables, &mut recorder);
        let report = output.map(|mut output| {
            let cache = self.cache.stats().since(cache_before);
            let sim_memo = self.sim_memo.stats().since(memo_before);
            let metrics = self.aggregate(&mut output, &mut tables.latencies, cache, sim_memo);
            ServeReport {
                policy: self.dispatcher.policy(),
                outcomes: output.outcomes,
                rejected: output.rejected,
                metrics,
                trace: output.trace,
                profile: output.profile,
                telemetry: output.telemetry,
                slo: output.slo,
            }
        });

        tables.release(report.is_ok());
        self.tables = tables;
        self.trace_scratch = recorder;
        report
    }

    /// The discrete-event core: pulls submissions from `ingest`, fires
    /// arrival/tile-free events in virtual-time order, and returns the
    /// per-request outcomes.
    ///
    /// The horizon rule makes laziness sound: submissions arrive in
    /// non-decreasing arrival order, so once a request with arrival `h` has
    /// been received (or the channel has closed, `h = ∞`), every pending
    /// event at time ≤ `h` can fire without being preempted by a
    /// still-unseen arrival.
    fn event_loop(
        &mut self,
        mut ingest: Ingest,
        tables: &mut LoopTables,
        recorder: &mut obs::TraceRecorder,
    ) -> Result<LoopOutput, RuntimeError> {
        let mut ctx = self.prep_context()?;
        let tiles = self.pool.num_tiles();
        let expected = ingest.expected();
        tables.reserve(expected);
        let intake = &mut tables.intake;
        let mut state = OnlineState {
            queues: (0..tiles)
                .map(|_| TileQueue::new(self.dispatcher.policy(), self.batching.enabled()))
                .collect(),
            taken: &mut tables.taken,
            events: EventQueue::new(),
            outcome_slots: Vec::with_capacity(expected),
            rejected: Vec::new(),
            sim: SimResults::new(self.pool.variant(), &mut tables.ready),
            batcher: Batcher::new(self.batching, tiles),
            peak_queue_depth: 0,
            queue_area_us: 0.0,
            last_event_us: 0.0,
            recorder,
            profiler: obs::StageProfiler::new(self.profiling),
            latency_hist: obs::LogHistogram::new(),
            queue_depth_hist: obs::LogHistogram::new(),
            lane_series: obs::LaneSeries::new(self.telemetry),
            global_series: obs::GlobalSeries::new(self.telemetry),
        };
        let mut pull = SubmissionPull::new();

        loop {
            {
                let OnlineState {
                    events,
                    outcome_slots,
                    taken,
                    sim,
                    recorder,
                    ..
                } = &mut state;
                let cache = &mut self.cache;
                let lower = &self.lower;
                let reconfig = &self.reconfig;
                pull.pull(
                    &mut ingest,
                    events,
                    intake,
                    |request| prepare_request(cache, lower, reconfig, &mut ctx, request),
                    |inflight| {
                        outcome_slots.push(None);
                        taken.push(false);
                        sim.push_slot();
                        if recorder.enabled() {
                            recorder.record(obs::TraceEvent {
                                time_us: inflight.request.arrival_us,
                                dur_us: 0.0,
                                request_id: Some(inflight.request.id),
                                device: 0,
                                tile: None,
                                kind: obs::SpanKind::Submit,
                            });
                        }
                    },
                )?;
            }
            let Some(event) = state.events.pop() else {
                // The pull loop only exits with the ingest open when an
                // event at or before the horizon is pending, so an empty
                // queue here means the trace is complete.
                debug_assert!(
                    !pull.ingest_open,
                    "event queue drained while ingest is open"
                );
                break;
            };
            let now_us = event.time_us;
            let bookkeeping = state.profiler.begin();
            let waiting = self.pool.total_waiting();
            state.queue_area_us += waiting as f64 * (now_us - state.last_event_us);
            state.queue_depth_hist.record(waiting as f64);
            state
                .global_series
                .note_queue(state.last_event_us, now_us, waiting);
            state.last_event_us = now_us;
            state.profiler.end(obs::Stage::Bookkeeping, bookkeeping);

            match event.kind {
                EventKind::Arrival { index } => {
                    let info = &intake[index];
                    let route = state.profiler.begin();
                    let tile = self.dispatcher.place(&info.view, now_us, &self.pool);
                    state.profiler.end(obs::Stage::Route, route);
                    // Admission control bounds *waiters*: a request that can
                    // start immediately on its (idle) tile is always
                    // admitted, one that would join a queue already holding
                    // `admission_limit` waiters pool-wide is rejected.
                    let starts_now = !self.pool.states()[tile].running;
                    let admitted = starts_now || self.pool.total_waiting() < self.admission_limit;
                    if state.recorder.enabled() {
                        state.recorder.record(obs::TraceEvent {
                            time_us: now_us,
                            dur_us: 0.0,
                            request_id: Some(info.request.id),
                            device: 0,
                            tile: None,
                            kind: obs::SpanKind::Admission { admitted },
                        });
                    }
                    if !admitted {
                        if state.recorder.enabled() {
                            state.recorder.record(obs::TraceEvent {
                                time_us: now_us,
                                dur_us: 0.0,
                                request_id: Some(info.request.id),
                                device: 0,
                                tile: None,
                                kind: obs::SpanKind::Reject,
                            });
                        }
                        state.rejected.push(RejectedRequest {
                            id: info.request.id,
                            kernel: info.request.kernel.shared_name(),
                            arrival_us: info.request.arrival_us,
                            deadline_us: info.request.deadline_us,
                        });
                        state.lane_series.note_reject(SloClass::Standard, now_us);
                        continue;
                    }
                    // Functional execution is placement-independent, so an
                    // admitted request's simulation is sourced right away:
                    // from the memo, or by running it here. A request
                    // admission control turned away is never simulated.
                    let memo_hit =
                        state
                            .sim
                            .source(index, info, &mut self.sim_memo, &mut state.profiler)?;
                    if memo_hit {
                        state.recorder.counter(now_us, 0, obs::CounterName::MemoHit);
                    }
                    if starts_now {
                        self.start_request(tile, index, intake, &mut state, None);
                    } else {
                        let scan = state.profiler.begin();
                        self.pool
                            .enqueue(tile, info.view.key, info.view.est_exec_us);
                        state.queues[tile].push(index, &info.view);
                        state.profiler.end(obs::Stage::Scan, scan);
                        state.peak_queue_depth =
                            state.peak_queue_depth.max(self.pool.total_waiting());
                    }
                }
                EventKind::TileFree { tile } => {
                    self.pool.release(tile);
                    if !state.queues[tile].is_empty() {
                        self.start_next(tile, intake, &mut state);
                    }
                }
                // Fault injection is a cluster-tier feature; the
                // single-device runtime never schedules these.
                EventKind::Fault { .. } | EventKind::Requeue { .. } => {
                    unreachable!("fault events never reach the single-device loop")
                }
            }
        }

        if intake.is_empty() {
            return Err(RuntimeError::NoRequests);
        }
        let events_fired = state.events.fired();
        let outcomes = compact_outcomes(state.outcome_slots);
        debug_assert_eq!(
            outcomes.len() + state.rejected.len(),
            intake.len(),
            "every submitted request is either served or rejected"
        );
        let recorder = state.recorder;
        // Assemble the windowed series (the makespan is the last event's
        // time — the final tile-free) and evaluate SLO burn against it, with
        // the burn alerts recorded as spans before the recorder drains.
        let telemetry = self.telemetry.is_enabled().then(|| {
            obs::TimeSeries::assemble(
                self.telemetry,
                state.last_event_us,
                self.pool.num_tiles(),
                &state.global_series,
                std::slice::from_ref(&state.lane_series),
            )
        });
        let slo = match (&telemetry, self.slo.is_enabled()) {
            (Some(series), true) => {
                let report = obs::evaluate_slo(series, &self.slo);
                obs::record_burn_spans(recorder, &report);
                Some(report)
            }
            _ => None,
        };
        let trace = recorder.finish();
        Ok(LoopOutput {
            outcomes,
            rejected: state.rejected,
            peak_queue_depth: state.peak_queue_depth,
            queue_area_us: state.queue_area_us,
            events_fired,
            batch: state.batcher.stats(),
            trace,
            profile: state.profiler.finish(),
            latency_hist: state.latency_hist,
            queue_depth_hist: state.queue_depth_hist,
            telemetry,
            slo,
        })
    }

    /// Pulls the next queued request off a free `tile`'s queue and starts
    /// it: the per-tile ordered queue pops the policy's choice in
    /// O(log depth). The [`Batcher`] sits over the policy's choice: it may
    /// run the oldest same-kernel waiter instead, amortizing the context
    /// switch the choice would have paid.
    fn start_next(&mut self, tile: usize, intake: &[InFlight], state: &mut OnlineState) {
        let now_us = state.events.now_us();
        let resident = self.pool.states()[tile].resident;
        let OnlineState {
            queues,
            taken,
            batcher,
            profiler,
            ..
        } = state;
        let scan = profiler.begin();
        let queue = &mut queues[tile];
        let choice = queue.peek_next(resident, taken);
        let index = batcher
            .divert(
                tile,
                now_us,
                resident,
                &intake[choice].view,
                intake[choice].request.arrival_us,
                |key| {
                    queue
                        .oldest_for_kernel(key, taken)
                        .map(|i| (i, intake[i].view.est_exec_us))
                },
            )
            .unwrap_or(choice);
        queue.take(index, taken);
        let remaining_tail = queue.tail_key(taken);
        state.profiler.end(obs::Stage::Scan, scan);
        // Deadline-aware removal may have taken the queue tail; tell the
        // pool what the queue ends in now so residency projection stays
        // honest for later placements. The dequeue and the charge are one
        // combined pool transition (a single index update).
        let est_us = intake[index].view.est_exec_us;
        self.start_request(tile, index, intake, state, Some((est_us, remaining_tail)));
    }

    /// Commits request `index` to `tile` at the current virtual time: reads
    /// its measured cycle count, charges the tile's timeline with the
    /// switch + execution, records the outcome and schedules the tile-free
    /// event at the completion.
    fn start_request(
        &mut self,
        tile: usize,
        index: usize,
        intake: &[InFlight],
        state: &mut OnlineState,
        from_queue: Option<(f64, Option<KernelKey>)>,
    ) {
        let now_us = state.events.now_us();
        let info = &intake[index];
        let run = state.sim.run(index);
        let exec_cycles = run.metrics().total_cycles + self.pool.roundtrip_cycles(tile);
        let exec_us = exec_cycles as f64 / info.fmax_mhz;
        let charged = match from_queue {
            Some((est_us, remaining_tail)) => self.pool.start_queued(
                tile,
                est_us,
                remaining_tail,
                info.view.key,
                now_us,
                info.view.switch_us,
                exec_us,
            ),
            None => self
                .pool
                .charge(tile, info.view.key, now_us, info.view.switch_us, exec_us),
        };
        state.batcher.note_start(tile, charged.switched);
        if state.recorder.enabled() {
            record_request_spans(
                state.recorder,
                (0, tile),
                info,
                &charged,
                None,
                0.0,
                state.batcher.run_len(tile),
            );
        }
        state
            .latency_hist
            .record(charged.completion_us - info.request.arrival_us);
        state.lane_series.note_start(
            SloClass::Standard,
            charged.start_us,
            charged.completion_us,
            charged.completion_us - info.request.arrival_us,
            info.request
                .deadline_us
                .is_some_and(|deadline| charged.completion_us > deadline),
            false,
        );
        let request = &info.request;
        state.outcome_slots[index] = Some(RequestOutcome {
            request_id: request.id,
            kernel: request.kernel.shared_name(),
            device: 0,
            tile,
            sim: *run.metrics(),
            run,
            start_us: charged.start_us,
            queued_us: charged.start_us - request.arrival_us,
            completion_us: charged.completion_us,
            latency_us: charged.completion_us - request.arrival_us,
            switched: charged.switched,
            deadline_us: request.deadline_us,
            missed_deadline: request
                .deadline_us
                .is_some_and(|deadline| charged.completion_us > deadline),
        });
        state
            .events
            .push(charged.completion_us, EventKind::TileFree { tile });
    }

    /// The per-serve facts every request's preparation shares.
    fn prep_context(&self) -> Result<PrepContext, RuntimeError> {
        PrepContext::for_pool(&self.pool)
    }

    /// Folds per-request outcomes and pool state into [`RuntimeMetrics`] —
    /// one pass over the outcomes for the counters and sums, selection (not
    /// a full sort) for the latency percentiles.
    fn aggregate(
        &self,
        output: &mut LoopOutput,
        latencies: &mut Vec<f64>,
        cache: CacheStats,
        sim_memo: CacheStats,
    ) -> RuntimeMetrics {
        let outcomes = &output.outcomes;
        let requests = outcomes.len();
        let mut invocations = 0usize;
        let mut makespan_us = 0.0_f64;
        let mut latency_sum = 0.0_f64;
        let mut max_latency_us = 0.0_f64;
        let mut deadline_misses = 0usize;
        let mut deadline_requests = 0usize;
        latencies.reserve(requests);
        for outcome in outcomes {
            invocations += outcome.sim.blocks;
            makespan_us = makespan_us.max(outcome.completion_us);
            latency_sum += outcome.latency_us;
            max_latency_us = max_latency_us.max(outcome.latency_us);
            deadline_misses += usize::from(outcome.missed_deadline);
            deadline_requests += usize::from(outcome.deadline_us.is_some());
            latencies.push(outcome.latency_us);
        }
        let mean_latency_us = latency_sum / requests.max(1) as f64;
        let p50_latency_us = metrics::percentile_by_selection(latencies, 0.50);
        let p99_latency_us = metrics::percentile_by_selection(latencies, 0.99);
        let per_second = if makespan_us > 0.0 {
            1.0e6 / makespan_us
        } else {
            0.0
        };
        let states = self.pool.states();
        RuntimeMetrics {
            requests,
            invocations,
            makespan_us,
            requests_per_sec: requests as f64 * per_second,
            invocations_per_sec: invocations as f64 * per_second,
            mean_latency_us,
            p50_latency_us,
            p99_latency_us,
            max_latency_us,
            switch_count: states.iter().map(|s| s.switches).sum(),
            total_switch_us: states.iter().map(|s| s.switch_us).sum(),
            tile_utilization: states
                .iter()
                .map(|s| {
                    if makespan_us > 0.0 {
                        s.busy_us / makespan_us
                    } else {
                        0.0
                    }
                })
                .collect(),
            tile_requests: states.iter().map(|s| s.served).collect(),
            cache,
            sim_memo,
            events_fired: output.events_fired,
            deadline_misses,
            deadline_requests,
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
            tile_peak_queue: states.iter().map(|s| s.peak_queue_depth).collect(),
            latency_hist: std::mem::take(&mut output.latency_hist),
            queue_depth_hist: std::mem::take(&mut output.queue_depth_hist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::evaluate_stream;
    use overlay_frontend::Benchmark;
    use overlay_sim::Workload;

    fn benchmark_trace(count: usize, blocks: usize) -> Vec<Request> {
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
                let workload = Workload::random(inputs, blocks, 0xFEED ^ i as u64);
                Request::new(i as u64, spec, workload).at(i as f64 * 2.0)
            })
            .collect()
    }

    #[test]
    fn serving_matches_the_reference_evaluator_per_request() {
        let requests = benchmark_trace(12, 8);
        let mut runtime = Runtime::new(FuVariant::V3, 4).unwrap();
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
        let requests = benchmark_trace(10, 6);
        let mut affinity = Runtime::new(FuVariant::V4, 4).unwrap();
        let mut round_robin = Runtime::new(FuVariant::V4, 4)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let a1 = affinity.serve(requests.clone()).unwrap();
        let a2 = affinity.serve(requests.clone()).unwrap();
        let rr = round_robin.serve(requests).unwrap();
        let tiles = |report: &ServeReport| -> Vec<usize> {
            report.outcomes().iter().map(|o| o.tile).collect()
        };
        assert_eq!(tiles(&a1), tiles(&a2));
        assert_eq!(a1.metrics().makespan_us, a2.metrics().makespan_us);
        for (lhs, rhs) in a1.outcomes().iter().zip(rr.outcomes()) {
            assert_eq!(
                lhs.outputs(),
                rhs.outputs(),
                "placement must not change results"
            );
        }
    }

    #[test]
    fn serve_stream_from_a_live_producer_matches_the_batch_shim() {
        let requests = benchmark_trace(10, 4);
        let mut runtime = Runtime::new(FuVariant::V4, 3).unwrap();
        let batch = runtime.serve(requests.clone()).unwrap();
        let streamed = runtime
            .serve_stream(|submitter| {
                for request in &requests {
                    submitter.submit(request.clone()).unwrap();
                }
            })
            .unwrap();
        assert_eq!(batch.outcomes().len(), streamed.outcomes().len());
        for (lhs, rhs) in batch.outcomes().iter().zip(streamed.outcomes()) {
            assert_eq!(lhs.request_id, rhs.request_id);
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.completion_us, rhs.completion_us);
            assert_eq!(lhs.outputs(), rhs.outputs());
        }
        assert_eq!(batch.metrics().makespan_us, streamed.metrics().makespan_us);
    }

    #[test]
    fn affinity_spends_less_switch_time_than_round_robin_on_writeback_tiles() {
        // 3 tiles against a 4-kernel cycle, so the round-robin stride never
        // aligns with the kernel period and it swaps on nearly every request.
        let requests = benchmark_trace(32, 4);
        let mut affinity = Runtime::new(FuVariant::V3, 3).unwrap();
        let mut round_robin = Runtime::new(FuVariant::V3, 3)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let a = affinity.serve(requests.clone()).unwrap();
        let rr = round_robin.serve(requests).unwrap();
        assert!(
            a.metrics().total_switch_us < rr.metrics().total_switch_us,
            "affinity {} us vs round-robin {} us",
            a.metrics().total_switch_us,
            rr.metrics().total_switch_us
        );
        assert!(a.metrics().switch_count < rr.metrics().switch_count);
    }

    #[test]
    fn feed_forward_pools_charge_pcap_scale_switches() {
        // On a V1 pool every kernel swap costs ~1 ms of PCAP time, so the
        // 4-kernel round-robin trace pays milliseconds of switching.
        let requests = benchmark_trace(8, 4);
        let mut runtime = Runtime::new(FuVariant::V1, 2)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let report = runtime.serve(requests.clone()).unwrap();
        assert!(
            report.metrics().total_switch_us > 1_000.0,
            "PCAP switches are on the millisecond scale, got {} us",
            report.metrics().total_switch_us
        );
        // The same trace on a V3 pool swaps in microseconds.
        let mut writeback = Runtime::new(FuVariant::V3, 2)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let wb = writeback.serve(requests).unwrap();
        assert!(wb.metrics().total_switch_us < 100.0);
        assert!(wb.metrics().total_switch_us > 0.0);
    }

    #[test]
    fn cache_compiles_each_kernel_once_per_serve() {
        let requests = benchmark_trace(16, 4);
        let mut runtime = Runtime::new(FuVariant::V4, 4).unwrap();
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
        let mut memoized = Runtime::new(FuVariant::V4, 2).unwrap();
        let mut unmemoized = Runtime::new(FuVariant::V4, 2)
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
        let mut burst_runtime = Runtime::new(FuVariant::V4, 1)
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
        let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap();
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
        // Which counter a repeat lands on depends on nothing but the trace:
        // two fresh traced serves of the burst record identical counter
        // tracks, all seven repeats as `sim_memo_hits`.
        let counter_track = || {
            let mut runtime = Runtime::new(FuVariant::V4, 1)
                .unwrap()
                .with_tracing(TraceConfig::with_capacity(4096));
            let report = runtime.serve(blocked_identical_burst()).unwrap();
            let trace = report.trace().expect("tracing was enabled");
            trace
                .events()
                .iter()
                .filter_map(|event| match event.kind {
                    SpanKind::Counter { name, value } => {
                        Some((event.time_us.to_bits(), name.label(), value))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let first = counter_track();
        assert_eq!(first, counter_track());
        assert_eq!(first.len(), 7, "one counter event per repeat");
        assert!(first.iter().all(|&(_, label, _)| label == "sim_memo_hits"));
        assert_eq!(first.last().unwrap().2, 7, "the running total ends at 7");
    }

    #[test]
    fn metrics_account_every_request_and_tile() {
        let requests = benchmark_trace(20, 5);
        let mut runtime = Runtime::new(FuVariant::V5, 4).unwrap();
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
        let mut runtime = Runtime::new(FuVariant::V4, 1)
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
        let mut runtime = Runtime::new(FuVariant::V4, 1)
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
        // EDF runs it first.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 64, 7);
        let mut requests: Vec<Request> = (0..4)
            .map(|i| Request::new(i, spec.clone(), workload.clone()).at(i as f64 * 0.01))
            .collect();
        // The per-request service time is far over 10 us, so the last-queued
        // request can only meet an (arrival + service + margin) deadline by
        // jumping the whole queue.
        let mut probe = Runtime::new(FuVariant::V4, 1).unwrap();
        let service_us = probe.serve(requests.clone()).unwrap().outcomes()[0].completion_us;
        requests.push(
            Request::new(4, spec.clone(), workload.clone())
                .at(0.05)
                .with_deadline(0.05 + 2.0 * service_us),
        );

        let mut affinity = Runtime::new(FuVariant::V4, 1).unwrap();
        let fifo = affinity.serve(requests.clone()).unwrap();
        assert_eq!(fifo.metrics().deadline_requests, 1);
        assert_eq!(fifo.metrics().deadline_misses, 1, "FIFO strands request 4");

        for policy in [
            DispatchPolicy::EarliestDeadlineFirst,
            DispatchPolicy::SlackAware,
        ] {
            let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap().with_policy(policy);
            let report = runtime.serve(requests.clone()).unwrap();
            assert_eq!(
                report.metrics().deadline_misses,
                0,
                "{policy} must run the urgent request ahead of the backlog"
            );
            let urgent = report
                .outcomes()
                .iter()
                .find(|o| o.request_id == 4)
                .unwrap();
            assert!(urgent.queued_us < fifo.outcomes()[4].queued_us);
        }
    }

    #[test]
    fn changing_lower_options_invalidates_the_cache() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let requests = vec![Request::new(0, spec, Workload::ramp(5, 4))];
        let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap();
        runtime.serve(requests.clone()).unwrap();
        assert_eq!(runtime.cache().len(), 1);
        assert_eq!(runtime.sim_memo().len(), 1);
        // The key does not encode lowering options, so swapping them must
        // drop the stale artifacts rather than serve them as hits.
        let mut runtime = runtime.with_lower_options(LowerOptions::default());
        assert!(runtime.cache().is_empty());
        assert!(runtime.sim_memo().is_empty());
        let report = runtime.serve(requests).unwrap();
        assert_eq!(report.metrics().cache.misses, 1);
        assert_eq!(report.metrics().sim_memo.misses, 1);
    }

    #[test]
    fn deadlines_are_checked_against_completion() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 16, 3);
        let requests = vec![
            Request::new(0, spec.clone(), workload.clone()).with_deadline(1e9),
            Request::new(1, spec, workload).with_deadline(1e-9),
        ];
        let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap();
        let report = runtime.serve(requests).unwrap();
        assert!(!report.outcomes()[0].missed_deadline);
        assert!(report.outcomes()[1].missed_deadline);
        assert_eq!(report.metrics().deadline_misses, 1);
        assert_eq!(report.metrics().deadline_requests, 2);
        assert!((report.metrics().deadline_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let mut runtime = Runtime::new(FuVariant::V4, 2).unwrap();
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
        let mut runtime = Runtime::new(FuVariant::V4, 2).unwrap();
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
        // succeeds — on both tiers.
        let mut runtime = Runtime::new(FuVariant::V4, 1)
            .unwrap()
            .with_admission_limit(0);
        let report = runtime.serve(trace.clone()).unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.rejected()[0].id, 1);
        assert_eq!(report.metrics().sim_memo.misses, 1, "only `good` ran");
        let mut cluster = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_admission_limit(0);
        let report = cluster.serve(trace).unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.rejected()[0].id, 1);
        assert_eq!(report.metrics().sim_memo.misses, 1, "only `good` ran");
    }

    #[test]
    fn random_workloads_are_deterministic_per_seed() {
        // The dispatcher and trace builders rely on this reproducibility.
        assert_eq!(Workload::random(4, 32, 11), Workload::random(4, 32, 11));
        assert_ne!(Workload::random(4, 32, 11), Workload::random(4, 32, 12));
    }
}
