//! Observability for the serving runtime: request-span tracing, windowed
//! telemetry, host-time profiling, log-bucketed histograms, exporters and
//! latency attribution.
//!
//! The event loop observes a serve through one recorder, the crate-private
//! `Probe`, built once per serve from the cluster's
//! [`with_tracing`](crate::Cluster::with_tracing),
//! [`with_profiling`](crate::Cluster::with_profiling) and
//! [`with_telemetry`](crate::Cluster::with_telemetry) settings. The loop
//! reports each thing it does once — a request admitted, shed, routed,
//! requeued or started, a memo hit, a fault, a stage event, the queue depth
//! since the last event, a stage timer begun and ended — and each family
//! that is on derives its own record from the report: the [`Trace`]'s rows
//! (its typed [`TraceEvent`] spans are built on first read), the
//! [`ProfileStats`] of five host-time [`Stage`]s and the windowed
//! [`TimeSeries`] on the virtual timeline.
//!
//! The [`ServeReport`](crate::ServeReport) carries what each family derived.
//! Every family is off by default and proptest-pinned free when off: off, a
//! family costs each report one branch, and a stage timer reads no clock.
//! [`LogHistogram`] (always on, in [`RuntimeMetrics`](crate::RuntimeMetrics)),
//! the exporters ([`perfetto_trace_json`], validated by
//! [`validate_chrome_trace`], and [`prometheus_text`]) and [`explain`] read
//! the serve's results.

mod explain;
mod export;
mod hist;
mod probe;
mod profile;
mod timeline;
mod trace;

pub use explain::{explain, Attribution, AttributionReport};
pub use export::{
    parse_json, perfetto_trace_json, perfetto_trace_json_with_telemetry, prometheus_text,
    validate_chrome_trace, JsonValue, TraceValidation,
};
pub use hist::{percentile_from_parts, LogHistogram, SUB_BUCKETS_PER_OCTAVE};
pub(crate) use probe::{Observed, Observing, Probe};
pub use profile::{ProfileStats, Stage, STAGE_COUNT};
pub use timeline::{ClassWindow, TelemetryConfig, TimeSeries, WindowStats};
pub(crate) use trace::RouteMark;
pub use trace::{RouteChoice, SpanKind, Trace, TraceConfig, TraceEvent};
