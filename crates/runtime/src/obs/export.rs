//! Trace and metrics exporters — and the validator CI runs over them.
//!
//! * [`perfetto_trace_json`] writes the Chrome trace event format (JSON)
//!   that Perfetto / `chrome://tracing` load directly: one process per
//!   device laying its tiles out as tracks on the *virtual* timeline, with
//!   an extra process of host-time profiling lanes when a
//!   [`ProfileStats`] rides along.
//! * [`prometheus_text`] renders a [`RuntimeMetrics`] snapshot in the
//!   Prometheus text exposition format, including the log-bucketed
//!   histograms as cumulative `_bucket{le="…"}` series.
//! * [`validate_chrome_trace`] re-parses an emitted trace with a minimal
//!   hand-rolled JSON reader (the workspace deliberately carries no serde)
//!   and checks the invariants CI enforces: it parses, it has non-empty
//!   tracks, and complete spans nest monotonically per track.

use std::fmt::Write as _;

use crate::metrics::{ClassMetrics, DeviceMetrics, RuntimeMetrics};

use super::profile::ProfileStats;
use super::slo::SloReport;
use super::timeline::TimeSeries;
use super::trace::{SpanKind, Trace, TraceEvent};

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so the JSON stays finite and parseable. Uses Rust's
/// shortest round-trip rendering: rounding to a fixed decimal count can
/// turn two spans that touch exactly (`a.end == b.start`) into a phantom
/// overlap when the shared boundary rounds differently in each span.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The track (Chrome `tid`) a span renders on: tile tracks are 1-based so
/// track 0 can carry the device-level lane (admission, routing, counters).
fn track_of(event: &TraceEvent) -> usize {
    event.tile.map_or(0, |tile| tile + 1)
}

/// Pushes one complete (`ph:"X"`) span.
fn push_complete(out: &mut String, event: &TraceEvent, pid: usize, args: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{}{args}}}",
        event.kind.label(),
        track_of(event),
        num(event.time_us),
        num(event.dur_us),
    );
}

/// Pushes one instant (`ph:"i"`) event.
fn push_instant(out: &mut String, event: &TraceEvent, pid: usize, args: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{}{args}}}",
        event.kind.label(),
        track_of(event),
        num(event.time_us),
    );
}

/// Renders the per-kind `args` object fragment (leading comma included),
/// so every span carries its request id and decision detail.
fn args_of(event: &TraceEvent) -> String {
    let mut fields = Vec::new();
    if let Some(id) = event.request_id {
        fields.push(format!("\"request\":{id}"));
    }
    match &event.kind {
        SpanKind::Admission { admitted } => fields.push(format!("\"admitted\":{admitted}")),
        SpanKind::RouteChoice(choice) => {
            fields.push(format!("\"policy\":\"{}\"", json_escape(choice.policy)));
            fields.push(format!("\"chosen\":{}", choice.chosen));
            if !choice.candidates.is_empty() {
                let list: Vec<String> = choice
                    .candidates
                    .iter()
                    .map(|(device, est)| format!("[{device},{}]", num(*est)))
                    .collect();
                fields.push(format!("\"candidates\":[{}]", list.join(",")));
            }
        }
        SpanKind::Acquire { source, bytes } => {
            fields.push(format!("\"source\":\"{}\"", json_escape(source)));
            fields.push(format!("\"bytes\":{bytes}"));
        }
        SpanKind::Prefetch { bytes } => fields.push(format!("\"bytes\":{bytes}")),
        SpanKind::Batch { run_len } => fields.push(format!("\"run_len\":{run_len}")),
        SpanKind::DrainPhase { begin } => fields.push(format!("\"begin\":{begin}")),
        SpanKind::LinkDegrade { multiplier } => {
            fields.push(format!("\"multiplier\":{}", num(*multiplier)));
        }
        SpanKind::StageReady { deps } => fields.push(format!("\"deps\":{deps}")),
        SpanKind::StageTransfer { from, bytes } => {
            fields.push(format!("\"from\":{from}"));
            fields.push(format!("\"bytes\":{bytes}"));
        }
        SpanKind::SloAdmit { class, admitted } => {
            fields.push(format!("\"slo_class\":\"{}\"", class.label()));
            fields.push(format!("\"admitted\":{admitted}"));
        }
        SpanKind::SloBurn { class, window } | SpanKind::SloClear { class, window } => {
            fields.push(format!("\"slo_class\":\"{}\"", class.label()));
            fields.push(format!("\"window\":{window}"));
        }
        _ => {}
    }
    if fields.is_empty() {
        String::new()
    } else {
        format!(",\"args\":{{{}}}", fields.join(","))
    }
}

/// Writes a [`Trace`] (and optionally the host-time [`ProfileStats`]) as
/// Chrome trace event format JSON, loadable by Perfetto.
///
/// Layout: device *d*'s virtual-time lanes are process `d + 1` (track 0 =
/// device-level decisions, track *t* + 1 = tile *t*), each track's events in
/// time order (the trace lists them by request); queue waits render as
/// async (`ph:"b"`/`"e"`) spans keyed by request id so overlapping waits
/// stack; control-plane counters render as `ph:"C"` counter series. When
/// `profile` is given, process 0 carries one host-time lane per stage —
/// the ns/event attribution laid out next to the virtual timeline.
pub fn perfetto_trace_json(trace: &Trace, profile: Option<&ProfileStats>, label: &str) -> String {
    perfetto_trace_json_with_telemetry(trace, profile, None, None, label)
}

/// [`perfetto_trace_json`] plus a top-level `"telemetry"` section carrying
/// the windowed [`TimeSeries`] (and, when SLO objectives were tracked, the
/// per-class burn samples and alerts) — the same artifact CI archives, now
/// chartable without re-running the serve. The extra key is ignored by
/// Perfetto and passes [`validate_chrome_trace`] unchanged.
pub fn perfetto_trace_json_with_telemetry(
    trace: &Trace,
    profile: Option<&ProfileStats>,
    telemetry: Option<&TimeSeries>,
    slo: Option<&SloReport>,
    label: &str,
) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut named_processes = std::collections::BTreeSet::new();
    let mut named_tracks = std::collections::BTreeSet::new();

    let mut timeline: Vec<&TraceEvent> = trace.events().iter().collect();
    timeline.sort_by(|a, b| a.time_us.total_cmp(&b.time_us));
    for event in timeline {
        let pid = event.device + 1;
        if named_processes.insert(pid) {
            let mut meta = String::new();
            let _ = write!(
                meta,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\
                 \"device {} (virtual time)\"}}}}",
                event.device
            );
            events.push(meta);
        }
        let track = track_of(event);
        if named_tracks.insert((pid, track)) {
            let track_name = match event.tile {
                Some(tile) => format!("tile {tile}"),
                None => "decisions".into(),
            };
            let mut meta = String::new();
            let _ = write!(
                meta,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{track},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&track_name)
            );
            events.push(meta);
        }

        let args = args_of(event);
        let mut out = String::new();
        match &event.kind {
            SpanKind::QueueWait => {
                // Queue waits of different requests overlap on one track;
                // async begin/end pairs keyed by request id keep them
                // stacked instead of ill-nested.
                let id = event.request_id.unwrap_or(0);
                let _ = write!(
                    out,
                    "{{\"name\":\"queue-wait\",\"cat\":\"queue\",\"ph\":\"b\",\"id\":{id},\
                     \"pid\":{pid},\"tid\":{},\"ts\":{}{args}}}",
                    track_of(event),
                    num(event.time_us),
                );
                events.push(out);
                let mut end = String::new();
                let _ = write!(
                    end,
                    "{{\"name\":\"queue-wait\",\"cat\":\"queue\",\"ph\":\"e\",\"id\":{id},\
                     \"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                    track_of(event),
                    num(event.time_us + event.dur_us),
                );
                events.push(end);
                continue;
            }
            SpanKind::Counter { name, value } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\
                     \"args\":{{\"value\":{value}}}}}",
                    name.label(),
                    num(event.time_us),
                );
                events.push(out);
                continue;
            }
            _ if event.dur_us > 0.0 => push_complete(&mut out, event, pid, &args),
            _ => push_instant(&mut out, event, pid, &args),
        }
        events.push(out);
    }

    if let Some(profile) = profile {
        let mut meta = String::new();
        let _ = write!(
            meta,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{{\"name\":\"host profiler (wall time)\"}}}}"
        );
        events.push(meta);
        for (index, (stage, nanos, probes)) in profile.rows().iter().enumerate() {
            let mut name = String::new();
            let _ = write!(
                name,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{index},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                stage.label()
            );
            events.push(name);
            // One span per stage whose length is its total host time, so
            // the lanes read as a proportional breakdown beside the
            // virtual-time tracks (ts is µs; ns → µs).
            let mut span = String::new();
            let _ = write!(
                span,
                "{{\"name\":\"{} ({probes} probes)\",\"ph\":\"X\",\"pid\":0,\"tid\":{index},\
                 \"ts\":0,\"dur\":{}}}",
                stage.label(),
                num(*nanos as f64 / 1_000.0),
            );
            events.push(span);
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"traceEvents\": [\n");
    for (index, event) in events.iter().enumerate() {
        let comma = if index + 1 < events.len() { "," } else { "" };
        let _ = writeln!(json, "    {event}{comma}");
    }
    json.push_str("  ],\n");
    if let Some(series) = telemetry {
        let _ = writeln!(json, "  \"telemetry\": {},", telemetry_json(series, slo));
    }
    let _ = writeln!(json, "  \"displayTimeUnit\": \"ms\",");
    let _ = writeln!(
        json,
        "  \"otherData\": {{\"label\": \"{}\"}}",
        json_escape(label)
    );
    json.push_str("}\n");
    json
}

/// Renders the windowed time-series (and optional SLO tracking) as the JSON
/// object embedded under the artifact's top-level `"telemetry"` key.
fn telemetry_json(series: &TimeSeries, slo: Option<&SloReport>) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"window_us\":{},\"makespan_us\":{},\"windows\":[",
        num(series.window_us),
        num(series.makespan_us)
    );
    for (index, window) in series.windows.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{},\"start_us\":{},\"end_us\":{},\"served\":{},\
             \"deadline_misses\":{},\"rejects\":{},\"transfers\":{},\
             \"miss_rate\":{},\"throughput_per_sec\":{},\"mean_queue_depth\":{},\
             \"peak_queue_depth\":{},\"utilization\":{},\"classes\":[",
            window.index,
            num(window.start_us),
            num(window.end_us),
            window.served,
            window.deadline_misses,
            window.rejects,
            window.transfers,
            num(window.miss_rate()),
            num(window.throughput_per_sec()),
            num(window.mean_queue_depth),
            window.peak_queue_depth,
            num(window.utilization),
        );
        for (slot, class) in window.classes.iter().enumerate() {
            if slot > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"slo_class\":\"{}\",\"served\":{},\"deadline_misses\":{},\
                 \"rejects\":{},\"p50_latency_us\":{},\"p99_latency_us\":{}}}",
                crate::session::SloClass::ALL[slot].label(),
                class.served,
                class.deadline_misses,
                class.rejects,
                num(class.p50_latency_us),
                num(class.p99_latency_us),
            );
        }
        out.push_str("]}");
    }
    out.push(']');
    if let Some(report) = slo {
        out.push_str(",\"slo\":[");
        for (index, status) in report.classes.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"slo_class\":\"{}\",\"target_miss_rate\":{},\"fast_windows\":{},\
                 \"slow_windows\":{},\"burn_threshold\":{},\"budget_consumed\":{},\
                 \"samples\":[",
                status.objective.class.label(),
                num(status.objective.target_miss_rate),
                status.objective.fast_windows,
                status.objective.slow_windows,
                num(status.objective.burn_threshold),
                num(status.budget_consumed),
            );
            for (i, sample) in status.samples.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"window\":{},\"time_us\":{},\"fast_burn\":{},\"slow_burn\":{},\
                     \"alerting\":{}}}",
                    sample.window,
                    num(sample.time_us),
                    num(sample.fast_burn),
                    num(sample.slow_burn),
                    sample.alerting,
                );
            }
            out.push_str("],\"alerts\":[");
            for (i, alert) in status.alerts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let cleared_window = alert
                    .cleared_window
                    .map_or("null".into(), |w| w.to_string());
                let cleared_us = alert.cleared_us.map_or("null".into(), num);
                let _ = write!(
                    out,
                    "{{\"fired_window\":{},\"fired_us\":{},\"cleared_window\":{cleared_window},\
                     \"cleared_us\":{cleared_us},\"peak_fast_burn\":{}}}",
                    alert.fired_window,
                    num(alert.fired_us),
                    num(alert.peak_fast_burn),
                );
            }
            out.push_str("]}");
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Renders a metrics snapshot in the Prometheus text exposition format.
///
/// Counters and gauges cover the aggregate fields; the log-bucketed latency
/// and queue-depth histograms expose cumulative `_bucket{le="…"}` series
/// with `_sum`/`_count`, ready for a scrape endpoint to serve verbatim.
pub fn prometheus_text(metrics: &RuntimeMetrics) -> String {
    let mut out = String::new();
    let mut scalar = |name: &str, kind: &str, help: &str, value: String| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    };
    scalar(
        "tm_requests_total",
        "counter",
        "Requests served.",
        metrics.requests.to_string(),
    );
    scalar(
        "tm_rejects_total",
        "counter",
        "Requests shed by admission control.",
        metrics.rejects.to_string(),
    );
    scalar(
        "tm_invocations_total",
        "counter",
        "Kernel invocations streamed.",
        metrics.invocations.to_string(),
    );
    scalar(
        "tm_events_fired_total",
        "counter",
        "Discrete events the serve loop fired.",
        metrics.events_fired.to_string(),
    );
    scalar(
        "tm_context_switches_total",
        "counter",
        "Hardware context switches across all tiles.",
        metrics.switch_count.to_string(),
    );
    scalar(
        "tm_deadline_misses_total",
        "counter",
        "Served requests that missed their deadline.",
        metrics.deadline_misses.to_string(),
    );
    scalar(
        "tm_sim_memo_hits_total",
        "counter",
        "Simulations answered from the memo.",
        metrics.sim_memo.hits.to_string(),
    );
    scalar(
        "tm_makespan_microseconds",
        "gauge",
        "Modeled end-to-end makespan.",
        num(metrics.makespan_us),
    );
    scalar(
        "tm_peak_queue_depth",
        "gauge",
        "Highest total waiting count at any instant.",
        metrics.peak_queue_depth.to_string(),
    );

    let mut histogram = |name: &str, help: &str, hist: &crate::obs::LogHistogram| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (le, cumulative) in hist.cumulative_buckets() {
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", num(le));
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{name}_sum {}", num(hist.sum()));
        let _ = writeln!(out, "{name}_count {}", hist.count());
    };
    histogram(
        "tm_request_latency_microseconds",
        "Request latency (completion minus arrival), modeled microseconds.",
        &metrics.latency_hist,
    );
    histogram(
        "tm_queue_depth_samples",
        "Total waiting count sampled at every event-loop step.",
        &metrics.queue_depth_hist,
    );
    out
}

/// [`prometheus_text`] plus the labeled breakdowns a cluster serve carries:
/// per-device series under a `device="…"` label, per-SLO-class series under
/// `slo_class="…"`, and — when SLO objectives were tracked — the burn-rate
/// gauges the alerts fired on.
pub fn prometheus_text_labeled(
    metrics: &RuntimeMetrics,
    devices: &[DeviceMetrics],
    classes: &[ClassMetrics],
    slo: Option<&SloReport>,
) -> String {
    let mut out = prometheus_text(metrics);

    let mut series = |name: &str, kind: &str, help: &str, rows: Vec<(String, String)>| {
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, value) in rows {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    };
    let device_rows = |value: &dyn Fn(&DeviceMetrics) -> String| -> Vec<(String, String)> {
        devices
            .iter()
            .map(|d| (format!("device=\"{}\"", d.device), value(d)))
            .collect()
    };
    series(
        "tm_device_requests_total",
        "counter",
        "Requests served per device.",
        device_rows(&|d| d.requests.to_string()),
    );
    series(
        "tm_device_rejects_total",
        "counter",
        "Requests shed by admission control per device.",
        device_rows(&|d| d.rejects.to_string()),
    );
    series(
        "tm_device_deadline_misses_total",
        "counter",
        "Served requests that missed their deadline, per device.",
        device_rows(&|d| d.deadline_misses.to_string()),
    );
    series(
        "tm_device_context_switches_total",
        "counter",
        "Hardware context switches per device.",
        device_rows(&|d| d.switch_count.to_string()),
    );
    series(
        "tm_device_transfers_in_total",
        "counter",
        "Kernel images acquired by inter-device transfer, per device.",
        device_rows(&|d| d.transfers_in.to_string()),
    );
    series(
        "tm_device_utilization",
        "gauge",
        "Mean tile utilization per device (0..=1).",
        device_rows(&|d| num(d.mean_utilization())),
    );
    series(
        "tm_device_peak_queue_depth",
        "gauge",
        "Highest waiting count per device.",
        device_rows(&|d| d.peak_queue_depth.to_string()),
    );
    series(
        "tm_device_availability",
        "gauge",
        "Fraction of the serve the device was alive (fault tier).",
        device_rows(&|d| num(d.availability)),
    );
    series(
        "tm_device_requeues_out_total",
        "counter",
        "Requests displaced off the device by faults or drains.",
        device_rows(&|d| d.requeues_out.to_string()),
    );

    let class_rows = |value: &dyn Fn(&ClassMetrics) -> String| -> Vec<(String, String)> {
        classes
            .iter()
            .map(|c| (format!("slo_class=\"{}\"", c.slo.label()), value(c)))
            .collect()
    };
    series(
        "tm_class_pipelines_total",
        "counter",
        "Pipelines submitted per SLO class.",
        class_rows(&|c| c.pipelines.to_string()),
    );
    series(
        "tm_class_rejected_total",
        "counter",
        "Pipelines that failed admission per SLO class.",
        class_rows(&|c| c.rejected.to_string()),
    );
    series(
        "tm_class_deadline_misses_total",
        "counter",
        "Completed pipelines that committed past deadline, per SLO class.",
        class_rows(&|c| c.deadline_misses.to_string()),
    );
    series(
        "tm_class_p99_latency_microseconds",
        "gauge",
        "99th-percentile commit latency per SLO class.",
        class_rows(&|c| num(c.p99_latency_us)),
    );

    if let Some(report) = slo {
        let status_rows = |value: &dyn Fn(&super::slo::SloStatus) -> String| {
            report
                .classes
                .iter()
                .map(|s| {
                    (
                        format!("slo_class=\"{}\"", s.objective.class.label()),
                        value(s),
                    )
                })
                .collect::<Vec<_>>()
        };
        series(
            "tm_slo_budget_consumed",
            "gauge",
            "Whole-serve deadline miss-rate over the class's error budget.",
            status_rows(&|s| num(s.budget_consumed)),
        );
        series(
            "tm_slo_burn_alerts_total",
            "counter",
            "Burn-rate alerts fired per SLO class.",
            status_rows(&|s| s.alerts.len().to_string()),
        );
        series(
            "tm_slo_peak_fast_burn",
            "gauge",
            "Largest fast-window burn rate observed per SLO class.",
            status_rows(&|s| {
                num(s
                    .samples
                    .iter()
                    .map(|sample| sample.fast_burn)
                    .fold(0.0, f64::max))
            }),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON reader + Chrome-trace validation (no serde in the workspace).
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(value) => Some(*value),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(value) => Some(value),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(values) => Some(values),
            _ => None,
        }
    }
}

struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn new(text: &'a str) -> Self {
        JsonReader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(values));
        }
        loop {
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(values));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through whole.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.error("bad utf-8"))?;
                    let c = text.chars().next().ok_or_else(|| self.error("bad utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.error("bad number"))
    }
}

/// Parses a JSON document with the built-in reader.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut reader = JsonReader::new(text);
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.error("trailing garbage after the document"));
    }
    Ok(value)
}

/// What [`validate_chrome_trace`] measured about a valid trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceValidation {
    /// Total trace events (spans, instants, counters, metadata).
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying at least one event.
    pub tracks: usize,
    /// Complete (`ph:"X"`) spans checked for monotone nesting.
    pub complete_spans: usize,
}

/// Validates an emitted Chrome-trace JSON document: it parses, its
/// `traceEvents` array is non-empty with at least one named track, and on
/// every `(pid, tid)` track the complete spans — taken in their emitted
/// (time-sorted per track) order — are properly nested: each span either
/// starts after every open ancestor ends, or sits entirely inside the
/// innermost open one.
///
/// # Errors
///
/// Returns a message naming the first violated invariant.
pub fn validate_chrome_trace(json: &str) -> Result<TraceValidation, String> {
    let document = parse_json(json)?;
    let events = document
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("traceEvents array missing")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    let mut tracks: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut occupied = std::collections::BTreeSet::new();
    for event in events {
        let ph = event.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let pid = event.get("pid").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
        let tid = event.get("tid").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
        if ph != "M" {
            occupied.insert((pid, tid));
        }
        if ph == "X" {
            let ts = event
                .get("ts")
                .and_then(JsonValue::as_num)
                .ok_or("complete span without ts")?;
            let dur = event
                .get("dur")
                .and_then(JsonValue::as_num)
                .ok_or("complete span without dur")?;
            if dur < 0.0 {
                return Err(format!("negative span duration {dur} at ts {ts}"));
            }
            tracks.entry((pid, tid)).or_default().push((ts, ts + dur));
        }
    }
    if occupied.is_empty() {
        return Err("no track carries any event".into());
    }

    let mut complete_spans = 0usize;
    for ((pid, tid), spans) in &tracks {
        let mut stack: Vec<(f64, f64)> = Vec::new();
        let mut last_start = f64::NEG_INFINITY;
        for &(start, end) in spans {
            if start < last_start {
                return Err(format!(
                    "track ({pid},{tid}): span at ts {start} emitted out of order"
                ));
            }
            last_start = start;
            while let Some(&(_, open_end)) = stack.last() {
                if open_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "track ({pid},{tid}): span [{start}, {end}] overlaps \
                         [{open_start}, {open_end}] without nesting"
                    ));
                }
            }
            stack.push((start, end));
            complete_spans += 1;
        }
    }

    Ok(TraceValidation {
        events: events.len(),
        tracks: occupied.len(),
        complete_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::probe::tests::ran;
    use crate::obs::Probe;

    /// One request: submitted and admitted at 0 with a memo hit, queued
    /// for 2 µs, a 0.25 µs switch, then a 5 µs run.
    fn sample_trace() -> Trace {
        let mut probe = Probe::tracing();
        probe.admitted(0, 0, 0.0, true);
        probe.memo_hit(0);
        probe.started(0, &ran((0, 0), 2.0, 7.25, true), 7.25, 1, 0.25, None);
        probe.into_trace(&[(1, 0.0)], None)
    }

    #[test]
    fn emitted_traces_validate() {
        let trace = sample_trace();
        let json = perfetto_trace_json(&trace, None, "test \"quoted\" label");
        let validation = validate_chrome_trace(&json).expect("emitted trace is valid");
        assert!(validation.events >= 5);
        assert!(validation.tracks >= 2);
        assert_eq!(validation.complete_spans, 2);
    }

    #[test]
    fn profile_lanes_ride_along() {
        let mut stats = ProfileStats::default();
        stats.add(crate::obs::Stage::Scan, std::time::Duration::from_nanos(40));
        let json = perfetto_trace_json(&sample_trace(), Some(&stats), "profiled");
        assert!(json.contains("host profiler (wall time)"));
        let validation = validate_chrome_trace(&json).expect("profiled trace is valid");
        assert_eq!(validation.complete_spans, 2 + crate::obs::STAGE_COUNT);
    }

    #[test]
    fn the_validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": []}").is_err());
        // Overlapping-but-not-nested spans on one track.
        let bad = "{\"traceEvents\": [\
            {\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":5},\
            {\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":3,\"dur\":5}]}";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("without nesting"), "{err}");
        // Out-of-order emission.
        let unsorted = "{\"traceEvents\": [\
            {\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":9,\"dur\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":3,\"dur\":1}]}";
        assert!(validate_chrome_trace(unsorted)
            .unwrap_err()
            .contains("out of order"));
    }

    #[test]
    fn the_json_reader_round_trips_escapes_and_numbers() {
        let value = parse_json(
            "{\"a\": [1, -2.5, 1e3], \"s\": \"q\\\"\\u0041\\n\", \"t\": true, \"n\": null}",
        )
        .expect("parses");
        assert_eq!(
            value.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(1000.0)
        );
        assert_eq!(value.get("s").unwrap().as_str(), Some("q\"A\n"));
        assert_eq!(value.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(value.get("n"), Some(&JsonValue::Null));
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} extra").is_err());
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
