//! Observability for the serving runtime: request-span tracing, log-bucketed
//! histogram metrics, exporters, and host-time hot-path profiling.
//!
//! Everything here is off by default and proptest-pinned free when off —
//! the same idiom as the control plane ([`BatchConfig::disabled`](crate::BatchConfig::disabled)):
//!
//! * [`TraceConfig`] / [`TraceRecorder`] — a bounded drop-oldest ring of
//!   typed [`TraceEvent`] spans on the virtual timeline, recording every
//!   request's lifecycle (submit → admission → route → queue wait →
//!   acquire/switch → run → commit/reject) plus control-plane counters.
//!   Enable with [`Runtime::with_tracing`](crate::Runtime::with_tracing) /
//!   [`Cluster::with_tracing`](crate::Cluster::with_tracing); the completed
//!   [`Trace`] comes back on the serve report.
//! * [`LogHistogram`] — HDR-style log-bucketed latency and queue-depth
//!   histograms, recorded online in
//!   [`RuntimeMetrics`](crate::RuntimeMetrics) (always on; pure function of
//!   the modeled serve), with a cluster merge path
//!   ([`percentile_from_parts`]).
//! * [`perfetto_trace_json`] / [`prometheus_text`] — exporters; the former
//!   is validated by [`validate_chrome_trace`] in CI.
//! * [`StageProfiler`] / [`ProfileStats`] — opt-in host-time stage timers
//!   (scan / route / sim / memo / bookkeeping) behind
//!   [`Runtime::with_profiling`](crate::Runtime::with_profiling), read by
//!   the benchmark's `runtime.profile.*` rows.
//! * [`TelemetryConfig`] / [`TimeSeries`] — windowed time-series aggregation
//!   on the virtual timeline (throughput, miss-rate, queue depth,
//!   utilization, per-class latency percentiles per window), behind
//!   [`Runtime::with_telemetry`](crate::Runtime::with_telemetry) /
//!   [`Cluster::with_telemetry`](crate::Cluster::with_telemetry).
//! * [`SloConfig`] / [`SloReport`] — per-class SLO objectives with
//!   error-budget burn-rate tracking and multi-window burn alerts emitted
//!   as [`SpanKind::SloBurn`] / [`SpanKind::SloClear`] trace spans.
//! * [`explain`] / [`AttributionReport`] — per-request latency attribution
//!   decoded from the trace: an additive queue / acquire / activation /
//!   switch / run breakdown reconciling with modeled latency, plus
//!   [`worst_offenders`](AttributionReport::worst_offenders).

mod explain;
mod export;
mod hist;
mod profile;
mod slo;
mod timeline;
mod trace;

pub use explain::{explain, Attribution, AttributionReport};
pub use export::{
    parse_json, perfetto_trace_json, perfetto_trace_json_with_telemetry, prometheus_text,
    prometheus_text_labeled, validate_chrome_trace, JsonValue, TraceValidation,
};
pub use hist::{percentile_from_parts, LogHistogram, SUB_BUCKETS_PER_OCTAVE};
pub use profile::{ProfileStats, Stage, StageProfiler, STAGE_COUNT};
pub(crate) use slo::{evaluate_slo, record_burn_spans};
pub use slo::{BurnAlert, BurnSample, SloConfig, SloObjective, SloReport, SloStatus};
pub use timeline::{ClassWindow, TelemetryConfig, TimeSeries, WindowStats};
pub(crate) use timeline::{GlobalSeries, LaneSeries};
pub use trace::{
    CounterName, RouteChoice, SpanKind, Trace, TraceConfig, TraceEvent, TraceRecorder,
    ACQUIRE_SOURCE_OVERFLOW, DEVICE_ID_OUT_OF_RANGE, TILE_ID_OUT_OF_RANGE,
};
