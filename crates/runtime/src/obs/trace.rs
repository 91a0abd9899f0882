//! Request-span tracing on the virtual timeline.
//!
//! A [`TraceRecorder`] is a bounded, drop-oldest ring buffer of typed
//! [`TraceEvent`]s. The event loop owns exactly one recorder per serve and runs on
//! a single thread, so recording is a plain (lock-free) ring push — no
//! atomics, no allocation per span beyond what the span itself carries — and
//! with the default [`TraceConfig::disabled`] every hook is one branch on
//! [`TraceRecorder::enabled`] and otherwise free. That zero-cost-off
//! property is what lets the equivalence proptests pin tracing-off serves
//! bitwise-identical to the pre-observability runtime.
//!
//! Spans cover the full request lifecycle — submit, admission verdict, route
//! choice (with the losing candidate's completion estimate), queue wait,
//! image acquisition/prefetch, context switch, batch membership, run,
//! commit/reject — plus control-plane counters (replica push/demote, memo
//! hit). Times are virtual microseconds, the same clock the
//! [`EventQueue`](crate::event) runs on.

/// Whether — and how much — the serve records spans.
///
/// Follows the control-plane idiom ([`BatchConfig::disabled`](crate::BatchConfig::disabled)):
/// the default is off, and off is proptest-pinned bitwise-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    capacity: usize,
}

impl TraceConfig {
    /// Tracing off (the default): every hook short-circuits, no event is
    /// ever stored, and the serve is bitwise-identical to one on a build
    /// without observability.
    pub fn disabled() -> Self {
        TraceConfig { capacity: 0 }
    }

    /// Tracing on with a bounded ring of `capacity` events; once full, the
    /// oldest event is dropped (and counted) per new event. A capacity of 0
    /// is [`disabled`](TraceConfig::disabled).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig { capacity }
    }

    /// Tracing on with the default ring capacity (65 536 events — roughly
    /// ten thousand requests of full lifecycle spans).
    pub fn enabled() -> Self {
        TraceConfig::with_capacity(65_536)
    }

    /// True when spans will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Which control-plane counter a [`SpanKind::Counter`] event samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterName {
    /// A kernel image was pushed ahead of demand by the replicator.
    ReplicaPushed,
    /// A pushed replica was demoted from a pressured device store.
    ReplicaDemoted,
    /// A request's simulation was answered from the memo.
    MemoHit,
}

impl CounterName {
    /// The counter's export name.
    pub fn label(&self) -> &'static str {
        match self {
            CounterName::ReplicaPushed => "replicas_pushed",
            CounterName::ReplicaDemoted => "replicas_demoted",
            CounterName::MemoHit => "sim_memo_hits",
        }
    }

    fn index(&self) -> usize {
        match self {
            CounterName::ReplicaPushed => 0,
            CounterName::ReplicaDemoted => 1,
            CounterName::MemoHit => 2,
        }
    }
}

/// The cluster router's weighed decision for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteChoice {
    /// The routing policy's export label.
    pub policy: &'static str,
    /// The chosen device.
    pub chosen: usize,
    /// `(device, estimated completion µs)` for each candidate weighed;
    /// empty for policies that never estimate (hash, least-loaded).
    pub candidates: Vec<(usize, f64)>,
}

/// What a span records — one lifecycle stage of a request, or a counter
/// sample from the control plane.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// The request entered the runtime's in-flight set (instant, at its
    /// arrival timestamp).
    Submit,
    /// The admission verdict at arrival (instant).
    Admission {
        /// False when admission control shed the request.
        admitted: bool,
    },
    /// The cluster router's pick (instant, device-level). Boxed to keep the
    /// common lifecycle spans small in the ring — route choices are one
    /// event per request, the rest are the hot path.
    RouteChoice(Box<RouteChoice>),
    /// From arrival to tile start — the queueing portion of latency.
    QueueWait,
    /// Kernel-image acquisition serialized ahead of this request's context
    /// switch (cluster only: inter-device transfer or host load).
    Acquire {
        /// Where the image came from (`"transfer"` or `"host"`).
        source: &'static str,
        /// Image bytes moved (0 for host loads).
        bytes: u64,
    },
    /// A replication push moving an image ahead of demand (instant,
    /// device-level, off the request critical path).
    Prefetch {
        /// Image bytes prefetched.
        bytes: u64,
    },
    /// The tile's instruction-reload context switch for this request.
    ContextSwitch,
    /// The request was dispatched as part of a same-kernel batch (instant,
    /// at tile start).
    Batch {
        /// Length of the same-kernel run so far, this request included.
        run_len: u32,
    },
    /// Kernel execution on the tile, from switch end to completion.
    Run,
    /// The request completed and its outcome was committed (instant).
    Commit,
    /// The request was rejected by admission control (instant).
    Reject,
    /// A control-plane counter sample: `value` is the running total at this
    /// virtual time.
    Counter {
        /// Which counter.
        name: CounterName,
        /// The counter's cumulative value after this event.
        value: u64,
    },
    /// A device died abruptly (instant, device-level): its queued and
    /// in-flight work requeues and its kernel store is wiped.
    DeviceDown,
    /// A device rejoined the fleet after a death or drain (instant,
    /// device-level).
    DeviceUp,
    /// A graceful-drain phase boundary (instant, device-level).
    DrainPhase {
        /// True when the drain begins (the device stops admitting), false
        /// when it rejoins warm.
        begin: bool,
    },
    /// A request displaced off a dead or draining device re-entered routing
    /// (instant; `device` is the one it left).
    Requeue,
    /// The interconnect's transfer cost was rescaled (instant, fleet-wide;
    /// recorded on device 0).
    LinkDegrade {
        /// The absolute multiplier applied to link costs (1.0 restores).
        multiplier: f64,
    },
    /// A pipeline stage's last input arrived and it became dispatchable
    /// (instant; `device` is the producing device that released it).
    StageReady {
        /// How many producer stages fed this stage.
        deps: u32,
    },
    /// An inter-device activation transfer priced ahead of a stage's run
    /// (instant, at dispatch; `device` is the consumer's device).
    StageTransfer {
        /// The producing device the activations move from.
        from: usize,
        /// Activation bytes moved.
        bytes: u64,
    },
    /// The weighted-fair SLO admission verdict for a stage (instant).
    SloAdmit {
        /// The session's SLO class.
        class: crate::session::SloClass,
        /// False when the session's weighted-fair share was exhausted.
        admitted: bool,
    },
    /// The inter-stage activation transfer charged on this request's start
    /// critical path, between image acquisition and the context switch
    /// (pipeline serves only).
    Activation,
    /// An SLO error-budget burn alert fired: the class's fast- and
    /// slow-window burn rates both crossed the objective's threshold at
    /// this window close (instant, device 0).
    SloBurn {
        /// The alerting SLO class.
        class: crate::session::SloClass,
        /// The telemetry window index the alert fired at.
        window: u64,
    },
    /// A previously fired burn alert cleared: the fast-window burn rate
    /// dropped back under threshold (instant, device 0).
    SloClear {
        /// The recovering SLO class.
        class: crate::session::SloClass,
        /// The telemetry window index the alert cleared at.
        window: u64,
    },
}

impl SpanKind {
    /// The span's export name.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Submit => "submit",
            SpanKind::Admission { .. } => "admission",
            SpanKind::RouteChoice(_) => "route",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Acquire { .. } => "acquire",
            SpanKind::Prefetch { .. } => "prefetch",
            SpanKind::ContextSwitch => "context-switch",
            SpanKind::Batch { .. } => "batch",
            SpanKind::Run => "run",
            SpanKind::Commit => "commit",
            SpanKind::Reject => "reject",
            SpanKind::Counter { name, .. } => name.label(),
            SpanKind::DeviceDown => "device-down",
            SpanKind::DeviceUp => "device-up",
            SpanKind::DrainPhase { .. } => "drain",
            SpanKind::Requeue => "requeue",
            SpanKind::LinkDegrade { .. } => "link-degrade",
            SpanKind::StageReady { .. } => "stage-ready",
            SpanKind::StageTransfer { .. } => "stage-transfer",
            SpanKind::SloAdmit { .. } => "slo-admit",
            SpanKind::Activation => "activation",
            SpanKind::SloBurn { .. } => "slo-burn",
            SpanKind::SloClear { .. } => "slo-clear",
        }
    }
}

/// One recorded span: a [`SpanKind`] anchored on the virtual timeline.
///
/// `dur_us` is 0 for instants. `device` is 0 for a plain
/// [`Runtime`](crate::Runtime) serve; `tile` is `None` for device-level
/// events (submission, admission, routing, counters).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span start, virtual microseconds.
    pub time_us: f64,
    /// Span duration, virtual microseconds (0 for instants).
    pub dur_us: f64,
    /// The request this span belongs to (`None` for counters/prefetches).
    pub request_id: Option<u64>,
    /// The device the span happened on.
    pub device: usize,
    /// The tile the span happened on (`None` for device-level events).
    pub tile: Option<usize>,
    /// What happened.
    pub kind: SpanKind,
}

/// The completed trace a serve report hands back when tracing was on.
///
/// Internally this still holds the packed binary records the ring captured;
/// the typed [`TraceEvent`]s are decoded once, lazily, on first access to
/// [`events`](Trace::events). Decoding off the serve's timed path is the
/// other half of the sub-5%-overhead bargain: the serve only pays for the
/// fixed-width capture, and whoever reads the trace pays the (one-time)
/// expansion.
#[derive(Debug)]
pub struct Trace {
    packed: Vec<Packed>,
    routes: Vec<RouteChoice>,
    sources: Vec<&'static str>,
    dropped: u64,
    decoded: std::sync::OnceLock<Vec<TraceEvent>>,
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            packed: self.packed.clone(),
            routes: self.routes.clone(),
            sources: self.sources.clone(),
            dropped: self.dropped,
            decoded: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.dropped == other.dropped && self.events() == other.events()
    }
}

impl Trace {
    /// Every retained span, in recording order (monotone non-decreasing
    /// `time_us` per device). The first call decodes the packed records;
    /// later calls return the cached expansion.
    pub fn events(&self) -> &[TraceEvent] {
        self.decoded.get_or_init(|| {
            let mut out = Vec::with_capacity(self.packed.len() * 2);
            for p in &self.packed {
                unpack_into(p, &self.routes, &self.sources, &mut out);
            }
            out
        })
    }

    /// How many spans the bounded ring dropped (oldest-first) to stay
    /// within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans of one request, in recording order.
    pub fn spans_for(&self, request_id: u64) -> Vec<&TraceEvent> {
        self.events()
            .iter()
            .filter(|event| event.request_id == Some(request_id))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Packed ring storage.
//
// The ring does not store `TraceEvent`s: at ~88 bytes each (the `SpanKind`
// enum alone is 32), a serve's worth of spans streams half a megabyte of
// writes through the cache and the measured tracing overhead blows the ≤5%
// budget. Instead the hot path packs every span into 40 fixed bytes — two
// timestamps, a request id, a tag|device|tile word and one payload word —
// and `finish()` expands back to the typed public `TraceEvent`s once, off
// the timed path. Route choices (the one variant with real structure) park
// their payload in a side ring indexed by the packed word; acquire-source
// labels are interned. Sub-5%-overhead tracers (Perfetto's SDK, LTTng) use
// exactly this shape: fixed-width binary records now, decode later.
// ---------------------------------------------------------------------------

/// One ring slot: `meta` is `tag | device << 8 | tile << 36` (28 bits each
/// for device and tile, all-ones tile = none), `payload` is tag-specific.
#[derive(Debug, Clone, Copy)]
struct Packed {
    time_us: f64,
    dur_us: f64,
    /// `u64::MAX` encodes "no request".
    request_id: u64,
    meta: u64,
    payload: u64,
}

/// Every packed-record tag, in one exhaustive enum — the single registry a
/// new span type must be added to, so tag bytes cannot collide the way
/// scattered constants could. The discriminant *is* the on-ring byte
/// (low 8 bits of `meta`); [`SpanTag::from_byte`] is its inverse, and the
/// round-trip test pins the two agree on every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub(crate) enum SpanTag {
    Submit = 0,
    Admission = 1,
    Route = 2,
    QueueWait = 3,
    Acquire = 4,
    Prefetch = 5,
    ContextSwitch = 6,
    Batch = 7,
    Run = 8,
    Commit = 9,
    Reject = 10,
    Counter = 11,
    // Fused lifecycle records — the event loop emits a request's spans in
    // one burst at commit time, and every ring push is an in-situ cache
    // touch, so always-adjacent pairs share one record and split back apart
    // at decode.
    /// Queue wait plus batch membership: the span is the wait, `payload` is
    /// the same-kernel run length (a Batch instant decodes out when ≥ 2).
    QueueBatch = 12,
    /// Run plus the commit instant at its end; `payload` is the exact
    /// `f64::to_bits` of the commit timestamp (`time + dur` can differ from
    /// the modeled completion by an ulp).
    RunCommit = 13,
    // Fault-injection spans — all instants with no side-table payloads.
    DeviceDown = 14,
    DeviceUp = 15,
    /// Payload is 1 at drain begin, 0 when the device rejoins warm.
    Drain = 16,
    Requeue = 17,
    /// Payload is the link multiplier's `f64::to_bits`.
    LinkDegrade = 18,
    // Session-tier spans — instants with no side-table payloads.
    /// Payload is the number of producer stages that fed this stage.
    StageReady = 19,
    /// Payload is `from_device | bytes << 16` (activation transfer).
    StageTransfer = 20,
    /// Payload is `admitted | class_index << 1`.
    SloAdmit = 21,
    /// A request-level activation-transfer span on the start critical path.
    Activation = 22,
    // Telemetry burn-alert spans — instants with no side-table payloads.
    /// Payload is `class_index | window << 2`.
    SloBurn = 23,
    /// Payload is `class_index | window << 2`.
    SloClear = 24,
}

impl SpanTag {
    /// Every tag, in discriminant order.
    pub(crate) const ALL: [SpanTag; 25] = [
        SpanTag::Submit,
        SpanTag::Admission,
        SpanTag::Route,
        SpanTag::QueueWait,
        SpanTag::Acquire,
        SpanTag::Prefetch,
        SpanTag::ContextSwitch,
        SpanTag::Batch,
        SpanTag::Run,
        SpanTag::Commit,
        SpanTag::Reject,
        SpanTag::Counter,
        SpanTag::QueueBatch,
        SpanTag::RunCommit,
        SpanTag::DeviceDown,
        SpanTag::DeviceUp,
        SpanTag::Drain,
        SpanTag::Requeue,
        SpanTag::LinkDegrade,
        SpanTag::StageReady,
        SpanTag::StageTransfer,
        SpanTag::SloAdmit,
        SpanTag::Activation,
        SpanTag::SloBurn,
        SpanTag::SloClear,
    ];

    /// The inverse of the discriminant cast: the tag whose on-ring byte is
    /// `byte`, or `None` for bytes no variant claims.
    pub(crate) fn from_byte(byte: u64) -> Option<SpanTag> {
        SpanTag::ALL.get(byte as usize).copied()
    }
}

const FIELD_BITS: u64 = 28;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
const NO_TILE: u64 = FIELD_MASK;

/// Decoded device id meaning "the real id exceeded the 28-bit meta field".
///
/// Ids at or above this value saturate to it at encode (with a debug
/// assertion), so a decoded trace reports "out of range" instead of silently
/// attributing spans to an aliased device.
pub const DEVICE_ID_OUT_OF_RANGE: usize = FIELD_MASK as usize;

/// Decoded tile id meaning "the real id exceeded the 28-bit meta field"
/// (`FIELD_MASK` itself encodes "no tile", so the sentinel sits one below).
pub const TILE_ID_OUT_OF_RANGE: usize = (FIELD_MASK - 1) as usize;

/// Acquire-source label decoded when the interning table overflowed its
/// 16-bit index field — the 65 536th and later distinct source strings all
/// report as this sentinel instead of aliasing an earlier source.
pub const ACQUIRE_SOURCE_OVERFLOW: &str = "source-overflow";

/// Bits of the `Acquire` payload that hold the interned-source index; the
/// remaining 48 hold the byte count.
const ACQUIRE_INDEX_BITS: u64 = 16;
const ACQUIRE_INDEX_MASK: u64 = (1 << ACQUIRE_INDEX_BITS) - 1;
/// Largest byte count the 48-bit `Acquire` payload field can carry; larger
/// counts saturate (with a debug assertion) instead of silently dropping
/// their top bits.
const ACQUIRE_BYTES_MAX: u64 = (1 << (64 - ACQUIRE_INDEX_BITS)) - 1;

/// Bits of the `StageTransfer` payload that hold the producing device; the
/// remaining 48 hold the activation byte count (same split as `Acquire`).
const STAGE_FROM_BITS: u64 = 16;
/// Largest activation byte count the `StageTransfer` payload can carry.
const STAGE_BYTES_MAX: u64 = (1 << (64 - STAGE_FROM_BITS)) - 1;

#[inline]
fn pack_meta(tag: SpanTag, device: usize, tile: Option<usize>) -> u64 {
    let tag = tag as u64;
    debug_assert!(
        (device as u64) < FIELD_MASK,
        "device id {device} exceeds the 28-bit trace meta field"
    );
    let device = (device as u64).min(DEVICE_ID_OUT_OF_RANGE as u64);
    let tile = tile.map_or(NO_TILE, |t| {
        debug_assert!(
            (t as u64) < TILE_ID_OUT_OF_RANGE as u64,
            "tile id {t} exceeds the 28-bit trace meta field"
        );
        (t as u64).min(TILE_ID_OUT_OF_RANGE as u64)
    });
    tag | (device << 8) | (tile << (8 + FIELD_BITS))
}

/// The bounded drop-oldest ring the event loop records into.
///
/// Single-threaded and lock-free by construction: the loop owns it
/// exclusively. All hooks no-op (one branch) when built from
/// [`TraceConfig::disabled`]. Storage is the packed 40-byte-per-span ring
/// described above; [`finish`](TraceRecorder::finish) pays the one-time
/// expansion to [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    events: std::collections::VecDeque<Packed>,
    /// Side ring of route-choice payloads, same capacity as the event ring
    /// (`payload` holds the slot). A slot is only reused after `capacity`
    /// further route events, by which point the packed event that pointed
    /// at it has itself been dropped from the ring — so live events never
    /// see a recycled slot.
    routes: Vec<RouteChoice>,
    route_seq: usize,
    /// Interned acquire-source labels (`payload` holds the 16-bit `index`
    /// plus `bytes << 16`; the table is capped at the index field with an
    /// [`ACQUIRE_SOURCE_OVERFLOW`] sentinel).
    sources: Vec<&'static str>,
    dropped: u64,
    counters: [u64; 3],
}

impl TraceRecorder {
    /// A recorder for `config` — inert when the config is disabled. The
    /// ring's backing store starts at a modest preallocation and grows
    /// toward `capacity` on demand: preallocating multi-megabyte rings up
    /// front costs fresh page faults per serve, which is exactly the
    /// overhead the packed layout exists to avoid.
    pub fn new(config: TraceConfig) -> Self {
        TraceRecorder {
            capacity: config.capacity(),
            events: std::collections::VecDeque::with_capacity(config.capacity().min(8_192)),
            routes: Vec::new(),
            route_seq: 0,
            sources: Vec::new(),
            dropped: 0,
            counters: [0; 3],
        }
    }

    /// True when spans are being recorded. Call sites guard any span whose
    /// construction allocates (e.g. route candidates) behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Takes this recorder — the drained one a holder kept from its
    /// previous serve, with its warm ring allocation — leaving a disabled
    /// one in its place; rebuilds only if the config changed since. A serve
    /// that failed handed it back with its spans still in it: they are
    /// dropped here (a no-op after a serve that finished).
    pub(crate) fn take_warm(&mut self, config: TraceConfig) -> TraceRecorder {
        let mut warm = std::mem::replace(self, TraceRecorder::new(TraceConfig::disabled()));
        if warm.capacity == config.capacity() {
            warm.reset();
            warm
        } else {
            TraceRecorder::new(config)
        }
    }

    /// Interns an acquire-source label, returning its payload index. The
    /// table is capped at the 16-bit index field: the 65 536th and later
    /// distinct sources all map to the [`ACQUIRE_SOURCE_OVERFLOW`] sentinel
    /// index instead of aliasing an earlier entry.
    fn intern_source(&mut self, source: &'static str) -> u64 {
        if let Some(position) = self
            .sources
            .iter()
            .position(|&s| std::ptr::eq(s, source) || s == source)
        {
            return position as u64;
        }
        if self.sources.len() as u64 >= ACQUIRE_INDEX_MASK {
            debug_assert!(
                false,
                "acquire source interning table overflowed its 16-bit index field"
            );
            return ACQUIRE_INDEX_MASK;
        }
        self.sources.push(source);
        (self.sources.len() - 1) as u64
    }

    #[inline]
    fn push(&mut self, packed: Packed) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(packed);
    }

    /// Records one span, dropping (and counting) the oldest if the ring is
    /// full. No-op when disabled.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let (tag, payload) = match event.kind {
            SpanKind::Submit => (SpanTag::Submit, 0),
            SpanKind::Admission { admitted } => (SpanTag::Admission, admitted as u64),
            SpanKind::RouteChoice(choice) => {
                let slot = self.route_seq % self.capacity;
                self.route_seq += 1;
                if slot < self.routes.len() {
                    self.routes[slot] = *choice;
                } else {
                    self.routes.push(*choice);
                }
                (SpanTag::Route, slot as u64)
            }
            SpanKind::QueueWait => (SpanTag::QueueWait, 0),
            SpanKind::Acquire { source, bytes } => {
                let index = self.intern_source(source);
                debug_assert!(
                    bytes <= ACQUIRE_BYTES_MAX,
                    "acquire byte count {bytes} exceeds the 48-bit trace payload field"
                );
                let bytes = bytes.min(ACQUIRE_BYTES_MAX);
                (SpanTag::Acquire, index | (bytes << ACQUIRE_INDEX_BITS))
            }
            SpanKind::Prefetch { bytes } => (SpanTag::Prefetch, bytes),
            SpanKind::ContextSwitch => (SpanTag::ContextSwitch, 0),
            SpanKind::Batch { run_len } => (SpanTag::Batch, run_len as u64),
            SpanKind::Run => (SpanTag::Run, 0),
            SpanKind::Commit => (SpanTag::Commit, 0),
            SpanKind::Reject => (SpanTag::Reject, 0),
            SpanKind::Counter { name, value } => {
                (SpanTag::Counter, (name.index() as u64) | (value << 8))
            }
            SpanKind::DeviceDown => (SpanTag::DeviceDown, 0),
            SpanKind::DeviceUp => (SpanTag::DeviceUp, 0),
            SpanKind::DrainPhase { begin } => (SpanTag::Drain, begin as u64),
            SpanKind::Requeue => (SpanTag::Requeue, 0),
            SpanKind::LinkDegrade { multiplier } => (SpanTag::LinkDegrade, multiplier.to_bits()),
            SpanKind::StageReady { deps } => (SpanTag::StageReady, deps as u64),
            SpanKind::StageTransfer { from, bytes } => {
                debug_assert!(
                    (from as u64) < (1 << STAGE_FROM_BITS),
                    "producer device {from} exceeds the 16-bit stage-transfer field"
                );
                debug_assert!(
                    bytes <= STAGE_BYTES_MAX,
                    "activation byte count {bytes} exceeds the 48-bit trace payload field"
                );
                let from = (from as u64).min((1 << STAGE_FROM_BITS) - 1);
                let bytes = bytes.min(STAGE_BYTES_MAX);
                (SpanTag::StageTransfer, from | (bytes << STAGE_FROM_BITS))
            }
            SpanKind::SloAdmit { class, admitted } => (
                SpanTag::SloAdmit,
                (admitted as u64) | ((class.index() as u64) << 1),
            ),
            SpanKind::Activation => (SpanTag::Activation, 0),
            SpanKind::SloBurn { class, window } => {
                (SpanTag::SloBurn, (class.index() as u64) | (window << 2))
            }
            SpanKind::SloClear { class, window } => {
                (SpanTag::SloClear, (class.index() as u64) | (window << 2))
            }
        };
        self.push(Packed {
            time_us: event.time_us,
            dur_us: event.dur_us,
            request_id: event.request_id.unwrap_or(u64::MAX),
            meta: pack_meta(tag, event.device, event.tile),
            payload,
        });
    }

    /// Fused capture of a request's queue-wait span plus its batch
    /// membership (`run_len`, a Batch instant at span end when ≥ 2) — one
    /// ring push instead of two for the always-adjacent pair. No-op when
    /// disabled.
    #[inline]
    pub(crate) fn queue_wait_batch(
        &mut self,
        time_us: f64,
        dur_us: f64,
        request_id: u64,
        device: usize,
        tile: usize,
        run_len: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.push(Packed {
            time_us,
            dur_us,
            request_id,
            meta: pack_meta(SpanTag::QueueBatch, device, Some(tile)),
            payload: run_len,
        });
    }

    /// Fused capture of a request's run span plus the commit instant at its
    /// exact modeled completion time. No-op when disabled.
    #[inline]
    pub(crate) fn run_commit(
        &mut self,
        time_us: f64,
        dur_us: f64,
        completion_us: f64,
        request_id: u64,
        device: usize,
        tile: usize,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.push(Packed {
            time_us,
            dur_us,
            request_id,
            meta: pack_meta(SpanTag::RunCommit, device, Some(tile)),
            payload: completion_us.to_bits(),
        });
    }

    /// Bumps a control-plane counter and records the sample. No-op when
    /// disabled (the running totals are part of trace state, so they stay
    /// untouched on the bitwise-pinned path).
    pub fn counter(&mut self, time_us: f64, device: usize, name: CounterName) {
        if self.capacity == 0 {
            return;
        }
        let slot = name.index();
        self.counters[slot] += 1;
        let value = self.counters[slot];
        self.push(Packed {
            time_us,
            dur_us: 0.0,
            request_id: u64::MAX,
            meta: pack_meta(SpanTag::Counter, device, None),
            payload: (slot as u64) | (value << 8),
        });
    }

    /// Drains the recorder into a [`Trace`], or `None` when tracing was
    /// disabled. The packed records move out as a tight copy (the typed
    /// expansion happens lazily, on first [`Trace::events`] access); the
    /// ring's backing allocation is retained for the next serve — a fresh
    /// multi-hundred-kilobyte ring per serve means a fresh `mmap` and a
    /// stream of soft page faults on first touch, which measurement showed
    /// dwarfs the per-span packing cost.
    pub fn finish(&mut self) -> Option<Trace> {
        if self.capacity == 0 {
            return None;
        }
        let trace = Trace {
            packed: self.events.iter().copied().collect(),
            routes: std::mem::take(&mut self.routes),
            sources: std::mem::take(&mut self.sources),
            dropped: self.dropped,
            decoded: std::sync::OnceLock::new(),
        };
        self.reset();
        Some(trace)
    }

    /// Forgets everything recorded, keeping the ring's allocation.
    fn reset(&mut self) {
        self.events.clear();
        self.routes.clear();
        self.sources.clear();
        self.route_seq = 0;
        self.counters = [0; 3];
        self.dropped = 0;
    }
}

/// Decodes a 2-bit packed SLO-class index back to the class.
fn unpack_slo_class(index: u64) -> crate::session::SloClass {
    match index {
        0 => crate::session::SloClass::Latency,
        1 => crate::session::SloClass::Standard,
        _ => crate::session::SloClass::BestEffort,
    }
}

/// Decodes one packed ring record back to typed public events — one for
/// plain records, two for the fused lifecycle pairs.
fn unpack_into(
    packed: &Packed,
    routes: &[RouteChoice],
    sources: &[&'static str],
    out: &mut Vec<TraceEvent>,
) {
    let tag = packed.meta & 0xff;
    let device = ((packed.meta >> 8) & FIELD_MASK) as usize;
    let tile_raw = (packed.meta >> (8 + FIELD_BITS)) & FIELD_MASK;
    let tile = (tile_raw != NO_TILE).then_some(tile_raw as usize);
    let request_id = (packed.request_id != u64::MAX).then_some(packed.request_id);
    let payload = packed.payload;
    let part = |time_us: f64, dur_us: f64, kind: SpanKind| TraceEvent {
        time_us,
        dur_us,
        request_id,
        device,
        tile,
        kind,
    };
    match SpanTag::from_byte(tag) {
        Some(SpanTag::QueueBatch) => {
            out.push(part(packed.time_us, packed.dur_us, SpanKind::QueueWait));
            if payload >= 2 {
                out.push(part(
                    packed.time_us + packed.dur_us,
                    0.0,
                    SpanKind::Batch {
                        run_len: payload as u32,
                    },
                ));
            }
            return;
        }
        Some(SpanTag::RunCommit) => {
            out.push(part(packed.time_us, packed.dur_us, SpanKind::Run));
            out.push(part(f64::from_bits(payload), 0.0, SpanKind::Commit));
            return;
        }
        _ => {}
    }
    let kind = match SpanTag::from_byte(tag) {
        Some(SpanTag::Submit) => SpanKind::Submit,
        Some(SpanTag::Admission) => SpanKind::Admission {
            admitted: payload != 0,
        },
        Some(SpanTag::Route) => SpanKind::RouteChoice(Box::new(routes[payload as usize].clone())),
        Some(SpanTag::QueueWait) => SpanKind::QueueWait,
        Some(SpanTag::Acquire) => SpanKind::Acquire {
            source: sources
                .get((payload & ACQUIRE_INDEX_MASK) as usize)
                .copied()
                .unwrap_or(ACQUIRE_SOURCE_OVERFLOW),
            bytes: payload >> ACQUIRE_INDEX_BITS,
        },
        Some(SpanTag::Prefetch) => SpanKind::Prefetch { bytes: payload },
        Some(SpanTag::ContextSwitch) => SpanKind::ContextSwitch,
        Some(SpanTag::Batch) => SpanKind::Batch {
            run_len: payload as u32,
        },
        Some(SpanTag::Run) => SpanKind::Run,
        Some(SpanTag::Commit) => SpanKind::Commit,
        Some(SpanTag::Reject) => SpanKind::Reject,
        Some(SpanTag::DeviceDown) => SpanKind::DeviceDown,
        Some(SpanTag::DeviceUp) => SpanKind::DeviceUp,
        Some(SpanTag::Drain) => SpanKind::DrainPhase {
            begin: payload != 0,
        },
        Some(SpanTag::Requeue) => SpanKind::Requeue,
        Some(SpanTag::LinkDegrade) => SpanKind::LinkDegrade {
            multiplier: f64::from_bits(payload),
        },
        Some(SpanTag::StageReady) => SpanKind::StageReady {
            deps: payload as u32,
        },
        Some(SpanTag::StageTransfer) => SpanKind::StageTransfer {
            from: (payload & ((1 << STAGE_FROM_BITS) - 1)) as usize,
            bytes: payload >> STAGE_FROM_BITS,
        },
        Some(SpanTag::SloAdmit) => SpanKind::SloAdmit {
            class: match payload >> 1 {
                0 => crate::session::SloClass::Latency,
                1 => crate::session::SloClass::Standard,
                _ => crate::session::SloClass::BestEffort,
            },
            admitted: payload & 1 != 0,
        },
        Some(SpanTag::Activation) => SpanKind::Activation,
        Some(SpanTag::SloBurn) => SpanKind::SloBurn {
            class: unpack_slo_class(payload & 0x3),
            window: payload >> 2,
        },
        Some(SpanTag::SloClear) => SpanKind::SloClear {
            class: unpack_slo_class(payload & 0x3),
            window: payload >> 2,
        },
        // QueueBatch/RunCommit returned above; Counter is the remaining
        // claimed byte, and unclaimed bytes (impossible for a ring packed by
        // this module) decode as counters for want of anything better —
        // exactly the pre-enum fallback arm.
        Some(SpanTag::Counter) | Some(SpanTag::QueueBatch) | Some(SpanTag::RunCommit) | None => {
            let name = match payload & 0xff {
                0 => CounterName::ReplicaPushed,
                1 => CounterName::ReplicaDemoted,
                _ => CounterName::MemoHit,
            };
            SpanKind::Counter {
                name,
                value: payload >> 8,
            }
        }
    };
    out.push(part(packed.time_us, packed.dur_us, kind));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(time_us: f64, kind: SpanKind) -> TraceEvent {
        TraceEvent {
            time_us,
            dur_us: 0.0,
            request_id: Some(1),
            device: 0,
            tile: None,
            kind,
        }
    }

    #[test]
    fn disabled_recorder_stores_nothing_and_finishes_to_none() {
        let mut recorder = TraceRecorder::new(TraceConfig::disabled());
        assert!(!recorder.enabled());
        recorder.record(instant(1.0, SpanKind::Submit));
        recorder.counter(2.0, 0, CounterName::MemoHit);
        assert!(recorder.finish().is_none());
        assert!(!TraceConfig::default().is_enabled());
    }

    #[test]
    fn the_ring_drops_oldest_and_counts_the_drops() {
        let mut recorder = TraceRecorder::new(TraceConfig::with_capacity(2));
        assert!(recorder.enabled());
        for i in 0..5 {
            recorder.record(instant(i as f64, SpanKind::Submit));
        }
        let trace = recorder.finish().expect("tracing was on");
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.events()[0].time_us, 3.0);
        assert_eq!(trace.events()[1].time_us, 4.0);
    }

    #[test]
    fn counters_carry_running_totals() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.counter(1.0, 0, CounterName::MemoHit);
        recorder.counter(2.0, 1, CounterName::MemoHit);
        recorder.counter(3.0, 0, CounterName::ReplicaPushed);
        let trace = recorder.finish().unwrap();
        let values: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|event| match event.kind {
                SpanKind::Counter {
                    name: CounterName::MemoHit,
                    value,
                } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![1, 2]);
        assert_eq!(trace.spans_for(9).len(), 0);
    }

    #[test]
    fn spans_filter_by_request() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(instant(1.0, SpanKind::Submit));
        recorder.record(TraceEvent {
            request_id: Some(2),
            ..instant(2.0, SpanKind::Commit)
        });
        let trace = recorder.finish().unwrap();
        assert_eq!(trace.spans_for(1).len(), 1);
        assert_eq!(trace.spans_for(1)[0].kind.label(), "submit");
        assert_eq!(trace.spans_for(2)[0].kind.label(), "commit");
    }

    #[test]
    fn fused_lifecycle_records_decode_to_their_span_pairs() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        // A batched request: the wait carries run_len 3, the run carries an
        // exact commit timestamp that `time + dur` would miss by an ulp.
        let completion = 0.1 + 0.2; // 0.30000000000000004
        recorder.queue_wait_batch(0.0, 0.1, 7, 1, 2, 3);
        recorder.run_commit(0.1, completion - 0.1, completion, 7, 1, 2);
        // An unbatched request decodes no Batch instant.
        recorder.queue_wait_batch(5.0, 1.0, 8, 0, 0, 1);
        let trace = recorder.finish().unwrap();

        let batched = trace.spans_for(7);
        let labels: Vec<&str> = batched.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["queue-wait", "batch", "run", "commit"]);
        assert_eq!(batched[1].time_us, 0.1);
        assert!(matches!(batched[1].kind, SpanKind::Batch { run_len: 3 }));
        assert_eq!(batched[2].dur_us, completion - 0.1);
        // The commit instant reproduces the modeled completion bitwise.
        assert_eq!(batched[3].time_us.to_bits(), completion.to_bits());
        assert!((batched.iter().map(|e| e.dur_us).sum::<f64>() - completion).abs() < 1e-12);
        assert!(batched.iter().all(|e| e.device == 1 && e.tile == Some(2)));

        let plain = trace.spans_for(8);
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].kind.label(), "queue-wait");
    }

    fn acquire(time_us: f64, source: &'static str, bytes: u64) -> TraceEvent {
        TraceEvent {
            time_us,
            dur_us: 1.0,
            request_id: Some(1),
            device: 0,
            tile: Some(0),
            kind: SpanKind::Acquire { source, bytes },
        }
    }

    #[test]
    fn acquire_sources_beyond_256_round_trip_without_aliasing() {
        // The old payload masked the interned index to 8 bits, so the 257th
        // distinct source aliased back onto the first at decode.
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        let labels: Vec<&'static str> = (0..300)
            .map(|i| &*format!("src-{i}").leak() as &'static str)
            .collect();
        for (i, &label) in labels.iter().enumerate() {
            recorder.record(acquire(i as f64, label, i as u64));
        }
        let trace = recorder.finish().unwrap();
        assert_eq!(trace.events().len(), labels.len());
        for (i, event) in trace.events().iter().enumerate() {
            match event.kind {
                SpanKind::Acquire { source, bytes } => {
                    assert_eq!(source, labels[i], "source {i} aliased");
                    assert_eq!(bytes, i as u64);
                }
                ref other => panic!("expected an acquire span, got {other:?}"),
            }
        }
    }

    #[test]
    fn acquire_bytes_round_trip_at_the_48_bit_field_boundary() {
        // The old payload packed `bytes << 8`, silently dropping the top 8
        // bits of counts ≥ 2^56; the boundary value must survive exactly.
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(acquire(0.0, "transfer", ACQUIRE_BYTES_MAX));
        recorder.record(acquire(1.0, "host", 1 << 40));
        let trace = recorder.finish().unwrap();
        match trace.events()[0].kind {
            SpanKind::Acquire { bytes, .. } => assert_eq!(bytes, ACQUIRE_BYTES_MAX),
            ref other => panic!("expected an acquire span, got {other:?}"),
        }
        match trace.events()[1].kind {
            SpanKind::Acquire { bytes, .. } => assert_eq!(bytes, 1 << 40),
            ref other => panic!("expected an acquire span, got {other:?}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the 48-bit trace payload field")]
    fn acquire_bytes_beyond_the_field_assert_in_debug() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(acquire(0.0, "transfer", ACQUIRE_BYTES_MAX + 1));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn acquire_bytes_beyond_the_field_saturate_in_release() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(acquire(0.0, "transfer", u64::MAX));
        let trace = recorder.finish().unwrap();
        match trace.events()[0].kind {
            SpanKind::Acquire { bytes, .. } => assert_eq!(bytes, ACQUIRE_BYTES_MAX),
            ref other => panic!("expected an acquire span, got {other:?}"),
        }
    }

    #[test]
    fn device_and_tile_ids_round_trip_at_the_28_bit_limit() {
        let device = DEVICE_ID_OUT_OF_RANGE - 1;
        let tile = TILE_ID_OUT_OF_RANGE - 1;
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(TraceEvent {
            time_us: 0.0,
            dur_us: 0.0,
            request_id: Some(1),
            device,
            tile: Some(tile),
            kind: SpanKind::Run,
        });
        let trace = recorder.finish().unwrap();
        assert_eq!(trace.events()[0].device, device);
        assert_eq!(trace.events()[0].tile, Some(tile));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the 28-bit trace meta field")]
    fn device_ids_beyond_the_field_assert_in_debug() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(TraceEvent {
            device: DEVICE_ID_OUT_OF_RANGE,
            ..instant(0.0, SpanKind::Run)
        });
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn out_of_range_ids_decode_to_the_sentinels_in_release() {
        // Release builds saturate instead of asserting, so a decoded trace
        // reports "out of range" rather than attributing spans to the
        // aliased device/tile the old truncation produced.
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(TraceEvent {
            time_us: 0.0,
            dur_us: 0.0,
            request_id: Some(1),
            device: usize::MAX,
            tile: Some(usize::MAX),
            kind: SpanKind::Run,
        });
        let trace = recorder.finish().unwrap();
        assert_eq!(trace.events()[0].device, DEVICE_ID_OUT_OF_RANGE);
        assert_eq!(trace.events()[0].tile, Some(TILE_ID_OUT_OF_RANGE));
    }

    #[test]
    fn a_run_of_one_is_not_a_batch() {
        // Pinned as intended: a fused QueueWait+Batch record with
        // `run_len == 1` decodes to the wait span alone — a request that
        // started its own run was not batched with anything, so emitting a
        // Batch instant for it would be noise in every unbatched serve.
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.queue_wait_batch(0.0, 2.0, 3, 0, 1, 1);
        recorder.queue_wait_batch(5.0, 2.0, 4, 0, 1, 2);
        let trace = recorder.finish().unwrap();
        let solo: Vec<&str> = trace.spans_for(3).iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            solo,
            vec!["queue-wait"],
            "run_len == 1 must not decode a batch instant"
        );
        let paired: Vec<&str> = trace.spans_for(4).iter().map(|e| e.kind.label()).collect();
        assert_eq!(paired, vec!["queue-wait", "batch"]);
    }

    #[test]
    fn fault_spans_round_trip_through_the_packed_ring() {
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        let fleet_event = |time_us: f64, device: usize, kind: SpanKind| TraceEvent {
            time_us,
            dur_us: 0.0,
            request_id: None,
            device,
            tile: None,
            kind,
        };
        recorder.record(fleet_event(1.0, 3, SpanKind::DeviceDown));
        recorder.record(fleet_event(2.0, 3, SpanKind::DrainPhase { begin: true }));
        recorder.record(TraceEvent {
            request_id: Some(42),
            ..fleet_event(2.5, 3, SpanKind::Requeue)
        });
        recorder.record(fleet_event(
            3.0,
            0,
            SpanKind::LinkDegrade { multiplier: 2.5 },
        ));
        recorder.record(fleet_event(4.0, 3, SpanKind::DrainPhase { begin: false }));
        recorder.record(fleet_event(5.0, 3, SpanKind::DeviceUp));
        let trace = recorder.finish().unwrap();

        let labels: Vec<&str> = trace.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "device-down",
                "drain",
                "requeue",
                "link-degrade",
                "drain",
                "device-up"
            ]
        );
        assert!(matches!(
            trace.events()[1].kind,
            SpanKind::DrainPhase { begin: true }
        ));
        assert_eq!(trace.events()[2].request_id, Some(42));
        match trace.events()[3].kind {
            SpanKind::LinkDegrade { multiplier } => {
                assert_eq!(multiplier.to_bits(), 2.5f64.to_bits());
            }
            ref other => panic!("expected a link-degrade span, got {other:?}"),
        }
        assert!(matches!(
            trace.events()[4].kind,
            SpanKind::DrainPhase { begin: false }
        ));
        assert!(trace.events().iter().all(|e| e.tile.is_none()));
    }

    /// The exhaustive-tag contract: every variant's discriminant is unique,
    /// dense from 0, and survives the byte round trip — so a new span type
    /// added anywhere but this enum cannot silently collide with an
    /// existing tag.
    #[test]
    fn span_tags_are_unique_dense_and_round_trip() {
        for (position, &tag) in SpanTag::ALL.iter().enumerate() {
            assert_eq!(
                tag as u64, position as u64,
                "ALL must list tags in discriminant order with no gaps"
            );
            assert_eq!(SpanTag::from_byte(tag as u64), Some(tag));
        }
        // Bytes past the registry decode to nothing.
        assert_eq!(SpanTag::from_byte(SpanTag::ALL.len() as u64), None);
        assert_eq!(SpanTag::from_byte(0xff), None);
    }

    #[test]
    fn session_spans_round_trip_through_the_packed_ring() {
        use crate::session::SloClass;
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(TraceEvent {
            time_us: 1.0,
            dur_us: 0.0,
            request_id: Some(11),
            device: 2,
            tile: None,
            kind: SpanKind::StageReady { deps: 3 },
        });
        recorder.record(TraceEvent {
            time_us: 2.0,
            dur_us: 0.0,
            request_id: Some(11),
            device: 4,
            tile: None,
            kind: SpanKind::StageTransfer {
                from: 2,
                bytes: 1 << 40,
            },
        });
        for (class, admitted) in [
            (SloClass::Latency, true),
            (SloClass::Standard, true),
            (SloClass::BestEffort, false),
        ] {
            recorder.record(TraceEvent {
                time_us: 3.0,
                dur_us: 0.0,
                request_id: Some(12),
                device: 0,
                tile: None,
                kind: SpanKind::SloAdmit { class, admitted },
            });
        }
        let trace = recorder.finish().unwrap();
        let events = trace.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind.label(), "stage-ready");
        assert!(matches!(events[0].kind, SpanKind::StageReady { deps: 3 }));
        assert_eq!(events[0].device, 2);
        assert_eq!(events[1].kind.label(), "stage-transfer");
        match events[1].kind {
            SpanKind::StageTransfer { from, bytes } => {
                assert_eq!(from, 2);
                assert_eq!(bytes, 1 << 40);
            }
            ref other => panic!("expected a stage transfer, got {other:?}"),
        }
        for (event, (class, admitted)) in events[2..].iter().zip([
            (SloClass::Latency, true),
            (SloClass::Standard, true),
            (SloClass::BestEffort, false),
        ]) {
            assert_eq!(event.kind.label(), "slo-admit");
            assert_eq!(
                event.kind,
                SpanKind::SloAdmit { class, admitted },
                "class {class} round trip"
            );
        }
    }

    /// Telemetry spans (activation, burn alerts) round trip through the
    /// packed ring.
    #[test]
    fn telemetry_spans_round_trip() {
        use crate::session::SloClass;
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        recorder.record(TraceEvent {
            time_us: 1.0,
            dur_us: 0.5,
            request_id: Some(7),
            device: 1,
            tile: Some(2),
            kind: SpanKind::Activation,
        });
        recorder.record(TraceEvent {
            time_us: 3.0,
            dur_us: 0.0,
            request_id: None,
            device: 0,
            tile: None,
            kind: SpanKind::SloBurn {
                class: SloClass::Standard,
                window: 17,
            },
        });
        recorder.record(TraceEvent {
            time_us: 5.0,
            dur_us: 0.0,
            request_id: None,
            device: 0,
            tile: None,
            kind: SpanKind::SloClear {
                class: SloClass::BestEffort,
                window: 21,
            },
        });
        let trace = recorder.finish().unwrap();
        let events = trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind.label(), "activation");
        assert_eq!(events[0].kind, SpanKind::Activation);
        assert_eq!(events[0].dur_us, 0.5);
        assert_eq!(events[1].kind.label(), "slo-burn");
        assert_eq!(
            events[1].kind,
            SpanKind::SloBurn {
                class: SloClass::Standard,
                window: 17,
            }
        );
        assert_eq!(events[2].kind.label(), "slo-clear");
        assert_eq!(
            events[2].kind,
            SpanKind::SloClear {
                class: SloClass::BestEffort,
                window: 21,
            }
        );
    }
}
