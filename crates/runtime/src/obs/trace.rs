//! Request-span tracing on the virtual timeline, derived after the serve.
//!
//! A traced serve records no spans while it runs. The serve's probe keeps
//! the few rows spans are made from, each written where the serve takes the
//! decision anyway: a time-stamped per-request log (every admission verdict,
//! every routing decision on the fleet tier, and the rare events —
//! displacements, sheds, stage readiness and activation transfers), one row
//! per tile start, and the device-level events (fault transitions and memo
//! hits). An untraced serve keeps none of them. Nothing is bounded
//! and nothing is dropped: every request's spans are in the trace.
//!
//! [`Trace::events`] builds the typed [`TraceEvent`]s from those rows once,
//! on first access, in one documented order: every request in intake order,
//! each with its spans in lifecycle order (submit → [stage ready] → route →
//! admission → [SLO admission] → [reject | activation transfers → queue wait
//! → batch → acquire → activation → context switch → run → commit]), a
//! displaced attempt's spans and its requeue ahead of the retry's; then the
//! device-level events (memo hits and fault transitions) by time, ties by
//! device and then span label.
//! Times are virtual microseconds, the same clock the
//! [`EventQueue`](crate::event) runs on.

use std::sync::OnceLock;

use crate::route::AcquireSource;
use crate::session::SloClass;
use crate::Start;

/// Whether the serve keeps a [`Trace`].
///
/// Follows the control-plane idiom ([`BatchConfig::disabled`](crate::BatchConfig::disabled)):
/// the default is off, and off is proptest-pinned bitwise-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    enabled: bool,
}

impl TraceConfig {
    /// Tracing off (the default): no row is kept and the serve is
    /// bitwise-identical to one on a build without observability.
    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing on: the serve report carries every request's spans.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }

    /// True when the serve keeps a trace.
    pub fn is_enabled(&self) -> bool {
        self.enabled
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
    /// empty for a policy that never estimates (kernel hash).
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
    /// common lifecycle spans small.
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
    /// A simulation answered from the memo, sampled at its request's
    /// admission (counter, device-level).
    MemoHits {
        /// The serve's memo hits so far, this one included.
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
        class: SloClass,
        /// False when the session's weighted-fair share was exhausted.
        admitted: bool,
    },
    /// The inter-stage activation transfer charged on this request's start
    /// critical path, between image acquisition and the context switch
    /// (pipeline serves only).
    Activation,
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
            SpanKind::ContextSwitch => "context-switch",
            SpanKind::Batch { .. } => "batch",
            SpanKind::Run => "run",
            SpanKind::Commit => "commit",
            SpanKind::Reject => "reject",
            SpanKind::MemoHits { .. } => "sim_memo_hits",
            SpanKind::DeviceDown => "device-down",
            SpanKind::DeviceUp => "device-up",
            SpanKind::DrainPhase { .. } => "drain",
            SpanKind::Requeue => "requeue",
            SpanKind::LinkDegrade { .. } => "link-degrade",
            SpanKind::StageReady { .. } => "stage-ready",
            SpanKind::StageTransfer { .. } => "stage-transfer",
            SpanKind::SloAdmit { .. } => "slo-admit",
            SpanKind::Activation => "activation",
        }
    }
}

/// One span: a [`SpanKind`] anchored on the virtual timeline.
///
/// `dur_us` is 0 for instants. `device` is 0 on a 1-device
/// [`Cluster`](crate::Cluster); `tile` is `None` for device-level
/// events (submission, admission, routing, counters).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span start, virtual microseconds.
    pub time_us: f64,
    /// Span duration, virtual microseconds (0 for instants).
    pub dur_us: f64,
    /// The request this span belongs to (`None` for device-level events).
    pub request_id: Option<u64>,
    /// The device the span happened on.
    pub device: usize,
    /// The tile the span happened on (`None` for device-level events).
    pub tile: Option<usize>,
    /// What happened.
    pub kind: SpanKind,
}

/// What routing weighed for one attempt of a request: under power-of-two
/// choices, each candidate's completion estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RouteMark {
    weighed: usize,
    candidates: [(usize, f64); 2],
}

impl RouteMark {
    /// Notes one candidate's completion estimate (at most two are weighed).
    pub(crate) fn weigh(&mut self, device: usize, estimate_us: f64) {
        self.candidates[self.weighed] = (device, estimate_us);
        self.weighed += 1;
    }

    fn weighed(&self) -> &[(usize, f64)] {
        &self.candidates[..self.weighed]
    }
}

/// One tile start: what a request's lifecycle spans are made from. A
/// request started more than once (a kill displaced its run) has one row
/// per start, in start order.
#[derive(Debug, Clone, Copy)]
pub(super) struct TileStart {
    /// The request's intake index.
    pub(super) index: usize,
    /// Where and when it ran.
    pub(super) at: Start,
    /// The tile's same-kernel run length, this request included.
    pub(super) run_len: usize,
    /// The instruction-reload switch, which like the acquisition and
    /// activation below is only paid (and spanned) when the tile switched.
    pub(super) switch_us: f64,
    /// The image acquisition resolved at routing (fleet tier only).
    pub(super) acquire_us: f64,
    pub(super) acquire_source: AcquireSource,
    pub(super) acquire_bytes: u64,
    /// The inter-stage activation transfer (pipeline serves only).
    pub(super) activation_us: f64,
}

/// A request-level event, logged as it happens with its request, time and
/// device. Only admission and routing are not rare, and only the fleet tier
/// routes; its weighed candidates are kept apart so that a row stays small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Logged {
    /// The policy picked the device, having weighed the candidates of this
    /// entry of the trace's `routes`.
    Routed(usize),
    /// Admission control's verdict on the device, with the stage's class on
    /// a pipeline serve, which spans its SLO admission.
    Admitted(bool, Option<SloClass>),
    /// The stage's last input arrived from the device; it had this many.
    StageReady(u32),
    /// Activations moved to the device: `(from device, bytes)`.
    StageTransfer(usize, u64),
    /// A fault displaced the request off the device; true when the
    /// displaced attempt had started.
    Requeue(bool),
    /// No device could take the request (a dead fleet or a failed
    /// pipeline): it was rejected on device 0 without an admission verdict.
    Shed,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Step {
    pub(super) index: usize,
    pub(super) time_us: f64,
    pub(super) device: usize,
    pub(super) what: Logged,
}

/// The trace a serve report hands back when tracing was on: the rows the
/// serve's probe kept, and the [`TraceEvent`]s built from them on first
/// access.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `(id, arrival µs)` of every request, in intake order.
    pub(super) requests: Vec<(u64, f64)>,
    /// The routing policy's label on the fleet tier; `None` on the plain
    /// tier, which takes no routing decision.
    pub(super) policy: Option<&'static str>,
    pub(super) starts: Vec<TileStart>,
    pub(super) steps: Vec<Step>,
    /// What each routing decision weighed, in the order they were taken.
    pub(super) routes: Vec<RouteMark>,
    /// The faults, as they happened. Memo-hit samples are derived from
    /// `memo_hits` and numbered when the spans are built.
    pub(super) device_events: Vec<TraceEvent>,
    /// Per intake index: whether the memo answered the request's
    /// simulation. A warm serve hits on every request, so a hit costs a
    /// byte; its counter sample is derived at the request's admission.
    pub(super) memo_hits: Vec<bool>,
    pub(super) events: OnceLock<Vec<TraceEvent>>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events() == other.events()
    }
}

impl Trace {
    /// Every span, built on the first call from the rows the serve kept:
    /// each request's spans in intake order, each in lifecycle order (a
    /// displaced attempt and its requeue ahead of the retry); then the
    /// device-level events by time, ties by device and then label.
    pub fn events(&self) -> &[TraceEvent] {
        self.events.get_or_init(|| self.derive())
    }

    /// Always 0: the trace keeps every span. Kept only because
    /// `benchmark/` reports it as `runtime.obs.spans_dropped`.
    pub fn dropped(&self) -> u64 {
        0
    }

    /// One request's spans, in lifecycle order.
    pub fn spans_for(&self, request_id: u64) -> Vec<&TraceEvent> {
        self.events()
            .iter()
            .filter(|event| event.request_id == Some(request_id))
            .collect()
    }

    /// Builds the events in the documented order.
    fn derive(&self) -> Vec<TraceEvent> {
        let starts = by_request(&self.starts, |row| row.index);
        let steps = by_request(&self.steps, |row| row.index);
        let (mut starts, mut steps) = (&starts[..], &steps[..]);
        let mut out = Vec::with_capacity(8 * self.requests.len());
        for index in 0..self.requests.len() {
            let own_starts = split_request(&mut starts, index, |row| row.index);
            let own_steps = split_request(&mut steps, index, |row| row.index);
            self.request_spans(index, own_starts, own_steps, &mut out);
        }

        let device_level = out.len();
        // A memo hit is sampled at its request's admission.
        for step in &self.steps {
            let admitted = matches!(step.what, Logged::Admitted(true, _));
            if admitted && self.memo_hits.get(step.index) == Some(&true) {
                let hit = SpanKind::MemoHits { value: 0 };
                out.push(device_event(step.time_us, step.device, hit));
            }
        }
        out.extend(self.device_events.iter().cloned());
        // The counter's running total, in the order its samples were noted.
        let mut total = 0;
        for event in &mut out[device_level..] {
            if let SpanKind::MemoHits { value } = &mut event.kind {
                total += 1;
                *value = total;
            }
        }
        out[device_level..].sort_by(|a, b| {
            a.time_us
                .total_cmp(&b.time_us)
                .then(a.device.cmp(&b.device))
                .then(a.kind.label().cmp(b.kind.label()))
        });
        out
    }

    /// Request `index`'s spans, from its own rows in the order they were
    /// kept: the logged steps in order, and each start's spans where it ran —
    /// ahead of the requeue of a run a kill displaced, else last.
    fn request_spans(
        &self,
        index: usize,
        starts: &[&TileStart],
        steps: &[&Step],
        out: &mut Vec<TraceEvent>,
    ) {
        let (id, arrival_us) = self.requests[index];
        let instant = |time_us, device, kind| TraceEvent {
            request_id: Some(id),
            ..device_event(time_us, device, kind)
        };
        let mut starts = starts.iter();
        out.push(instant(arrival_us, 0, SpanKind::Submit));
        for step in steps {
            let (time_us, device) = (step.time_us, step.device);
            let kind = match step.what {
                Logged::Routed(route) => SpanKind::RouteChoice(Box::new(RouteChoice {
                    policy: self.policy.unwrap_or_default(),
                    chosen: device,
                    candidates: self.routes[route].weighed().to_vec(),
                })),
                Logged::StageReady(deps) => SpanKind::StageReady { deps },
                Logged::StageTransfer(from, bytes) => SpanKind::StageTransfer { from, bytes },
                Logged::Requeue(ran) => {
                    if ran {
                        if let Some(start) = starts.next() {
                            lifecycle(id, arrival_us, start, out);
                        }
                    }
                    SpanKind::Requeue
                }
                Logged::Admitted(admitted, class) => {
                    out.push(instant(time_us, device, SpanKind::Admission { admitted }));
                    if let Some(class) = class {
                        let admit = SpanKind::SloAdmit { class, admitted };
                        out.push(instant(time_us, device, admit));
                    }
                    if admitted {
                        continue;
                    }
                    SpanKind::Reject
                }
                Logged::Shed => SpanKind::Reject,
            };
            out.push(instant(time_us, device, kind));
        }
        if let Some(start) = starts.next() {
            lifecycle(id, arrival_us, start, out);
        }
    }
}

/// A device-level instant.
pub(crate) fn device_event(time_us: f64, device: usize, kind: SpanKind) -> TraceEvent {
    TraceEvent {
        time_us,
        dur_us: 0.0,
        request_id: None,
        device,
        tile: None,
        kind,
    }
}

/// `rows` in request order, each request's in the order they were kept.
fn by_request<T>(rows: &[T], index: impl Fn(&T) -> usize) -> Vec<&T> {
    let mut sorted: Vec<&T> = rows.iter().collect();
    sorted.sort_by_key(|row| index(row));
    sorted
}

/// Splits request `request`'s rows off the front of `rows`.
fn split_request<'a, T>(
    rows: &mut &'a [&'a T],
    request: usize,
    index: impl Fn(&T) -> usize,
) -> &'a [&'a T] {
    let (own, rest) = rows.split_at(rows.partition_point(|row| index(row) == request));
    *rows = rest;
    own
}

/// One start's spans on its tile track. Their durations tile `[arrival,
/// completion]`, so they sum to the request's latency.
fn lifecycle(id: u64, arrival_us: f64, start: &TileStart, out: &mut Vec<TraceEvent>) {
    let mut span = |time_us: f64, dur_us: f64, kind: SpanKind| {
        out.push(TraceEvent {
            time_us,
            dur_us,
            request_id: Some(id),
            device: start.at.device as usize,
            tile: Some(start.at.tile as usize),
            kind,
        });
    };
    let charged = start.at;
    let waited_us = charged.start_us - arrival_us;
    span(arrival_us, waited_us, SpanKind::QueueWait);
    if start.run_len >= 2 {
        let run_len = start.run_len as u32;
        span(arrival_us + waited_us, 0.0, SpanKind::Batch { run_len });
    }
    let mut cursor = charged.start_us;
    if charged.switched {
        if start.acquire_us > 0.0 {
            let source = start.acquire_source.label();
            let bytes = start.acquire_bytes;
            span(
                cursor,
                start.acquire_us,
                SpanKind::Acquire { source, bytes },
            );
            cursor += start.acquire_us;
        }
        if start.activation_us > 0.0 {
            span(cursor, start.activation_us, SpanKind::Activation);
            cursor += start.activation_us;
        }
        span(cursor, start.switch_us, SpanKind::ContextSwitch);
        cursor += start.switch_us;
    }
    span(cursor, charged.completion_us - cursor, SpanKind::Run);
    span(charged.completion_us, 0.0, SpanKind::Commit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::probe::tests::ran;
    use crate::obs::{Observing, Probe};
    use crate::route::Routed;

    /// A plain-tier trace of requests `(id, arrival)`, each admitted on
    /// device 0 at its arrival and then handed to `start`.
    fn plain(requests: &[(u64, f64)], mut start: impl FnMut(&mut Probe, usize)) -> Trace {
        let mut probe = Probe::tracing();
        for (index, &(_, arrival_us)) in requests.iter().enumerate() {
            probe.admitted(index, 0, arrival_us, true);
            start(&mut probe, index);
        }
        probe.into_trace(requests, None)
    }

    /// The spans' labels, space-separated.
    fn labels<'a>(spans: impl IntoIterator<Item = &'a TraceEvent>) -> String {
        let labels: Vec<&str> = spans.into_iter().map(|e| e.kind.label()).collect();
        labels.join(" ")
    }

    fn weighing(candidates: &[(usize, f64)]) -> RouteMark {
        let mut route = RouteMark::default();
        for &(device, estimate_us) in candidates {
            route.weigh(device, estimate_us);
        }
        route
    }

    #[test]
    fn disabled_recorder_stores_nothing_and_finishes_to_none() {
        use crate::{Cluster, KernelSpec, Request};
        assert!(!TraceConfig::default().is_enabled());
        assert!(TraceConfig::enabled().is_enabled());
        let spec = KernelSpec::from_source("poly", "kernel poly(x) { out y = x * x + 3; }");
        let request = Request::new(1, spec, overlay_sim::Workload::ramp(1, 4));
        let mut runtime = Cluster::new(overlay_arch::FuVariant::V4, 1, 1).unwrap();
        let untraced = runtime.serve(vec![request.clone()]).unwrap();
        assert!(untraced.trace().is_none());
        let mut runtime = runtime.with_tracing(TraceConfig::enabled());
        let report = runtime.serve(vec![request]).unwrap();
        let spans = report.trace().unwrap().spans_for(1);
        let expected = "submit admission queue-wait context-switch run commit";
        assert_eq!(labels(spans), expected);
    }

    #[test]
    fn the_ring_drops_oldest_and_counts_the_drops() {
        // Far more spans than the 65 536-slot ring the trace once was: every
        // one is kept and none is counted as dropped.
        let requests: Vec<(u64, f64)> = (0..20_000).map(|id| (id, id as f64)).collect();
        let trace = plain(&requests, |probe, index| {
            let start = ran((0, 0), index as f64 + 1.0, index as f64 + 2.0, false);
            probe.started(index, &start, 1.0, 1, 0.25, None);
        });
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.events().len(), 5 * requests.len());
        assert_eq!(trace.spans_for(19_999)[0].time_us, 19_999.0);
    }

    #[test]
    fn counters_carry_running_totals() {
        // Memo hits count in the order the serve admitted them, whatever
        // their times; device-level events then come out by time.
        let mut probe = Probe::tracing();
        for (index, device, time_us) in [(0, 1, 2.0), (1, 0, 1.0)] {
            probe.admitted(index, device, time_us, true);
            probe.memo_hit(index);
        }
        probe.admitted(2, 0, 3.0, false);
        let trace = probe.into_trace(&[(7, 1.0), (8, 1.0), (9, 3.0)], None);
        let counters: Vec<(f64, usize, u64)> = trace
            .events()
            .iter()
            .filter_map(|event| match event.kind {
                SpanKind::MemoHits { value } => Some((event.time_us, event.device, value)),
                _ => None,
            })
            .collect();
        let expected = [(1.0, 0, 2), (2.0, 1, 1)];
        assert_eq!(counters, expected);
    }

    #[test]
    fn spans_filter_by_request() {
        let trace = plain(&[(1, 0.0), (2, 1.0)], |probe, index| {
            let start = ran((0, index), 2.0 + index as f64, 3.0 + index as f64, false);
            probe.started(index, &start, 1.0, 1, 0.25, None);
        });
        assert_eq!(trace.spans_for(1)[0].kind, SpanKind::Submit);
        assert!(trace.spans_for(2).iter().all(|e| e.request_id == Some(2)));
        assert_eq!(trace.spans_for(1).len() + trace.spans_for(2).len(), 10);
        assert!(trace.spans_for(3).is_empty());
    }

    #[test]
    fn fused_lifecycle_records_decode_to_their_span_pairs() {
        // A batched request on device 1, tile 2: the wait, the batch instant
        // at its end, the run and a commit at the exact modeled completion,
        // which `run start + run length` would miss by an ulp.
        let completion = 0.1 + 0.2; // 0.30000000000000004
        let trace = plain(&[(7, 0.0)], |probe, index| {
            let start = ran((1, 2), 0.1, completion, false);
            probe.started(index, &start, completion, 3, 0.5, None);
        });
        let spans = trace.spans_for(7);
        let lifecycle = &spans[2..];
        assert_eq!(
            labels(lifecycle.iter().copied()),
            "queue-wait batch run commit"
        );
        assert_eq!(lifecycle[1].kind, SpanKind::Batch { run_len: 3 });
        assert_eq!(lifecycle[1].time_us, 0.1);
        assert_eq!(lifecycle[2].dur_us, completion - 0.1);
        assert_eq!(lifecycle[3].time_us.to_bits(), completion.to_bits());
        assert!(lifecycle.iter().all(|e| e.device == 1 && e.tile == Some(2)));
    }

    #[test]
    fn a_run_of_one_is_not_a_batch() {
        // A request that started its own run was not batched with anything:
        // a batch instant for it would be noise in every unbatched serve.
        let trace = plain(&[(3, 0.0), (4, 5.0)], |probe, index| {
            let at = 6.0 * index as f64;
            let start = ran((0, 1), at + 2.0, at + 4.0, false);
            probe.started(index, &start, 4.0, index + 1, 0.25, None);
        });
        let solo = labels(trace.spans_for(3).into_iter().skip(2));
        assert_eq!(solo, "queue-wait run commit");
        let paired = labels(trace.spans_for(4).into_iter().skip(2));
        assert_eq!(paired, "queue-wait batch run commit");
    }

    #[test]
    fn acquire_bytes_round_trip_at_the_48_bit_field_boundary() {
        // Byte counts at and past the 48 bits a packed record once held
        // reach the acquire span exactly, from either source.
        let rows = [
            (AcquireSource::Transfer, (1u64 << 48) - 1),
            (AcquireSource::Host, 1 << 48),
            (AcquireSource::Transfer, u64::MAX),
        ];
        let requests = [(0, 0.0), (1, 0.0), (2, 0.0)];
        let trace = plain(&requests, |probe, index| {
            let (acquire_src, acquire_bytes) = rows[index];
            let routed = Routed {
                acquire_us: 1.0,
                acquire_src,
                ..Routed::default()
            };
            let start = ran((0, 0), 1.0, 4.0, true);
            probe.started(index, &start, 4.0, 1, 0.5, Some((&routed, acquire_bytes)));
        });
        for (id, (source, bytes)) in rows.into_iter().enumerate() {
            let acquire = trace.spans_for(id as u64)[3];
            let source = source.label();
            assert_eq!(acquire.kind, SpanKind::Acquire { source, bytes });
            assert_eq!((acquire.time_us, acquire.dur_us), (1.0, 1.0));
        }
    }

    #[test]
    fn device_and_tile_ids_round_trip_at_the_28_bit_limit() {
        // Ids at and past the 28 bits a packed record once held are kept
        // whole, up to the 32 bits a start holds.
        let top = u32::MAX as usize;
        for place in [((1 << 28) - 1, (1 << 28) - 2), (top, top - 1)] {
            let trace = plain(&[(1, 0.0)], |probe, index| {
                probe.started(index, &ran(place, 0.0, 1.0, false), 1.0, 1, 0.5, None);
            });
            let run = trace.spans_for(1)[3];
            assert_eq!(run.kind, SpanKind::Run);
            assert_eq!((run.device, run.tile), (place.0, Some(place.1)));
        }
    }

    #[test]
    fn fault_spans_round_trip_through_the_packed_ring() {
        // Fault transitions come out by time, whatever order they were
        // noted in. A displaced request's attempts come out in order, each
        // routed ahead of what it did, a killed run before its requeue.
        use crate::FaultKind;
        let mut probe = Probe::tracing();
        probe.fault(5.0, FaultKind::Revive { device: 3 });
        probe.fault(1.0, FaultKind::Kill { device: 3 });
        probe.fault(2.0, FaultKind::Drain { device: 3 });
        probe.fault(3.0, FaultKind::DegradeLinks { multiplier: 2.5 });
        probe.fault(4.0, FaultKind::Undrain { device: 3 });
        probe.routed(0, 0.5, 3, weighing(&[(3, 9.0), (1, 11.0)]));
        probe.admitted(0, 3, 0.5, true);
        probe.started(0, &ran((3, 0), 0.5, 9.0, true), 8.5, 1, 0.25, None);
        probe.requeued(0, 1.0, 3, true);
        probe.routed(0, 1.0, 1, weighing(&[]));
        probe.requeued(0, 2.0, 1, false);
        probe.routed(0, 2.0, 2, weighing(&[]));
        probe.started(0, &ran((2, 1), 2.5, 6.0, false), 5.5, 1, 0.25, None);
        let trace = probe.into_trace(&[(42, 0.5)], Some("p2c"));

        let faults = labels(&trace.events()[14..]);
        assert_eq!(faults, "device-down drain link-degrade drain device-up");
        let spans = trace.spans_for(42);
        let expected = "submit route admission queue-wait context-switch run commit \
                        requeue route requeue route queue-wait run commit";
        assert_eq!(labels(spans.iter().copied()), expected);
        let routes: Vec<(f64, usize, usize)> = spans
            .iter()
            .filter_map(|e| match &e.kind {
                SpanKind::RouteChoice(choice) => Some((e.time_us, e.device, choice.chosen)),
                _ => None,
            })
            .collect();
        assert_eq!(routes, [(0.5, 3, 3), (1.0, 1, 1), (2.0, 2, 2)]);
        let weighed = [(3, 9.0), (1, 11.0)];
        assert!(
            matches!(&spans[1].kind, SpanKind::RouteChoice(choice) if choice.candidates == weighed)
        );
        assert_eq!((spans[7].time_us, spans[7].device), (1.0, 3));
        assert_eq!((spans[9].time_us, spans[9].device), (2.0, 1));
    }

    #[test]
    fn span_tags_are_unique_dense_and_round_trip() {
        // Labels are what the device-level order breaks its ties by and
        // what every exporter writes, so no two kinds may share one.
        let class = SloClass::Standard;
        let route = RouteChoice {
            policy: "hash",
            chosen: 0,
            candidates: Vec::new(),
        };
        let kinds = [
            SpanKind::Submit,
            SpanKind::Admission { admitted: true },
            SpanKind::RouteChoice(Box::new(route)),
            SpanKind::QueueWait,
            SpanKind::Acquire {
                source: "host",
                bytes: 0,
            },
            SpanKind::ContextSwitch,
            SpanKind::Batch { run_len: 2 },
            SpanKind::Run,
            SpanKind::Commit,
            SpanKind::Reject,
            SpanKind::MemoHits { value: 1 },
            SpanKind::DeviceDown,
            SpanKind::DeviceUp,
            SpanKind::DrainPhase { begin: true },
            SpanKind::Requeue,
            SpanKind::LinkDegrade { multiplier: 1.0 },
            SpanKind::StageReady { deps: 1 },
            SpanKind::StageTransfer { from: 0, bytes: 0 },
            SpanKind::SloAdmit {
                class,
                admitted: true,
            },
            SpanKind::Activation,
        ];
        let labels: std::collections::BTreeSet<&str> = kinds.iter().map(SpanKind::label).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn session_spans_round_trip_through_the_packed_ring() {
        // A stage released by device 2, admitted under its session's class
        // on device 4 with two inputs moved there, then run with an
        // activation ahead of its switch; and a stage refused its share.
        let observing = Observing {
            tracing: TraceConfig::enabled(),
            ..Observing::default()
        };
        let classes = || vec![SloClass::Latency, SloClass::BestEffort];
        let mut probe = Probe::new(&observing, 2, 5, 5, classes);
        probe.stage_ready(0, 1.0, 2, 3);
        probe.routed(0, 1.0, 4, weighing(&[]));
        probe.admitted(0, 4, 1.0, true);
        probe.stage_transfer(0, 1.0, 4, 2, 1 << 40);
        probe.stage_transfer(0, 1.0, 4, 3, 7);
        let routed = Routed {
            activation_us: 0.5,
            ..Routed::default()
        };
        let start = ran((4, 0), 1.0, 3.0, true);
        probe.started(0, &start, 3.0, 1, 0.25, Some((&routed, 0)));
        probe.routed(1, 2.0, 0, weighing(&[]));
        probe.admitted(1, 0, 2.0, false);
        let trace = probe.into_trace(&[(11, 0.0), (12, 2.0)], Some("hash"));

        let spans = trace.spans_for(11);
        let expected = "submit stage-ready route admission slo-admit stage-transfer \
                        stage-transfer queue-wait activation context-switch run commit";
        assert_eq!(labels(spans.iter().copied()), expected);
        assert_eq!(
            (spans[1].device, &spans[1].kind),
            (2, &SpanKind::StageReady { deps: 3 })
        );
        let (class, admitted) = (SloClass::Latency, true);
        assert_eq!(spans[4].kind, SpanKind::SloAdmit { class, admitted });
        let (from, bytes) = (2, 1 << 40);
        let transfer = SpanKind::StageTransfer { from, bytes };
        assert_eq!((spans[5].device, &spans[5].kind), (4, &transfer));
        let refused = trace.spans_for(12);
        let expected = "submit route admission slo-admit reject";
        assert_eq!(labels(refused.iter().copied()), expected);
        let (class, admitted) = (SloClass::BestEffort, false);
        assert_eq!(refused[3].kind, SpanKind::SloAdmit { class, admitted });
    }

    #[test]
    fn telemetry_spans_round_trip() {
        // The activation span sits ahead of the switch on its tile; the
        // device-level events come after every request's spans.
        let mut probe = Probe::tracing();
        probe.admitted(0, 1, 0.0, true);
        probe.memo_hit(0);
        let routed = Routed {
            activation_us: 0.5,
            ..Routed::default()
        };
        let start = ran((1, 2), 1.0, 4.0, true);
        probe.started(0, &start, 4.0, 1, 0.25, Some((&routed, 0)));
        let trace = probe.into_trace(&[(7, 0.0)], None);
        let activation = trace.spans_for(7)[3];
        assert_eq!(activation.kind, SpanKind::Activation);
        assert_eq!((activation.time_us, activation.dur_us), (1.0, 0.5));
        let events = trace.events();
        assert_eq!(labels(&events[events.len() - 1..]), "sim_memo_hits");
    }
}
