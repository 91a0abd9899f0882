//! Per-class SLO objectives with error-budget burn-rate tracking.
//!
//! An [`SloConfig`] states, per [`SloClass`], the deadline miss-rate the
//! class is allowed on a sustained basis (its *error budget*). Against the
//! telemetry [`TimeSeries`] the serve accumulated, [`SloReport`] tracks the
//! classic multi-window burn rate: for every window, the observed miss-rate
//! over a short (*fast*) and a long (*slow*) trailing span of windows, each
//! divided by the budget. A burn of 1.0 spends budget exactly as fast as the
//! objective allows; a kill that spikes the miss-rate shows up as a fast
//! burn of several ×.
//!
//! An **alert** fires at the close of the first window where both burn
//! rates reach the threshold (the two-window conjunction is what keeps a
//! single noisy window from paging) and clears at the close of the first
//! later window where the fast burn drops back below it (the short window
//! is what lets recovery clear promptly). Alerts are surfaced on the report
//! and — with tracing on — emitted as typed [`SloBurn`](SpanKind::SloBurn) /
//! [`SloClear`](SpanKind::SloClear) trace spans on the virtual timeline.
//!
//! Everything here is a pure function of the time-series, so a
//! [`Runtime`](crate::Runtime) and a 1-device [`Cluster`](crate::Cluster)
//! (whose series are bitwise-identical) report the same burn samples,
//! alerts and spans bitwise.

use crate::obs::timeline::TimeSeries;
use crate::obs::trace::{SpanKind, TraceEvent, TraceRecorder};
use crate::session::SloClass;

/// One class's SLO: the deadline miss-rate budget and the burn-alert
/// windowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObjective {
    /// The class this objective covers.
    pub class: SloClass,
    /// The sustained deadline miss-rate the class is allowed (the error
    /// budget a burn rate of 1.0 spends exactly).
    pub target_miss_rate: f64,
    /// Trailing windows the fast burn averages over (≥ 1; the responsive
    /// signal that fires and clears alerts promptly).
    pub fast_windows: usize,
    /// Trailing windows the slow burn averages over (≥ `fast_windows`; the
    /// confirmation that keeps one noisy window from paging).
    pub slow_windows: usize,
    /// Both burns must reach this multiple of the budget to fire an alert.
    pub burn_threshold: f64,
}

impl SloObjective {
    /// An objective for `class` allowing a sustained miss-rate of
    /// `target_miss_rate`, with the default 1-fast/4-slow windowing and a
    /// burn threshold of 1.0.
    pub fn new(class: SloClass, target_miss_rate: f64) -> Self {
        assert!(
            target_miss_rate > 0.0 && target_miss_rate.is_finite(),
            "SLO miss-rate budget must be finite and positive, got {target_miss_rate}"
        );
        SloObjective {
            class,
            target_miss_rate,
            fast_windows: 1,
            slow_windows: 4,
            burn_threshold: 1.0,
        }
    }

    /// Overrides the fast/slow trailing-window spans.
    #[must_use]
    pub fn with_windows(mut self, fast: usize, slow: usize) -> Self {
        assert!(fast >= 1, "the fast burn needs at least one window");
        assert!(slow >= fast, "the slow span must cover the fast span");
        self.fast_windows = fast;
        self.slow_windows = slow;
        self
    }

    /// Overrides the burn threshold both signals must reach to alert.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "burn threshold must be finite and positive, got {threshold}"
        );
        self.burn_threshold = threshold;
        self
    }
}

/// The set of SLO objectives a serve tracks. Off (empty) by default and
/// proptest-pinned bitwise-inert when off; tracking needs the windowed
/// telemetry series, so enable it alongside
/// [`TelemetryConfig::windowed`](crate::TelemetryConfig::windowed).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloConfig {
    objectives: Vec<SloObjective>,
}

impl SloConfig {
    /// No objectives (the default): nothing is tracked, no span is emitted.
    pub fn disabled() -> Self {
        SloConfig::default()
    }

    /// Adds one objective (replacing any earlier one for the same class).
    #[must_use]
    pub fn with_objective(mut self, objective: SloObjective) -> Self {
        self.objectives.retain(|o| o.class != objective.class);
        self.objectives.push(objective);
        self
    }

    /// The configured objectives, in insertion order.
    pub fn objectives(&self) -> &[SloObjective] {
        &self.objectives
    }

    /// True when at least one objective is tracked.
    pub fn is_enabled(&self) -> bool {
        !self.objectives.is_empty()
    }
}

/// One window's burn-rate sample for a class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnSample {
    /// The window's ordinal on the virtual timeline.
    pub window: usize,
    /// The window's close time — when this sample becomes known.
    pub time_us: f64,
    /// Miss-rate over the fast trailing span, over the budget.
    pub fast_burn: f64,
    /// Miss-rate over the slow trailing span, over the budget.
    pub slow_burn: f64,
    /// Whether the alert is active at this window's close.
    pub alerting: bool,
}

/// One fired burn alert: when it fired, when (and whether) it cleared, and
/// how hot the fast burn ran while it was active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// The class whose budget was burning.
    pub class: SloClass,
    /// The window whose close fired the alert.
    pub fired_window: usize,
    /// The virtual time the alert fired (that window's close).
    pub fired_us: f64,
    /// The window whose close cleared it (`None` while still active at the
    /// end of the serve).
    pub cleared_window: Option<usize>,
    /// The virtual time it cleared.
    pub cleared_us: Option<f64>,
    /// The largest fast burn observed while the alert was active.
    pub peak_fast_burn: f64,
}

/// One class's tracked status: every window's burn sample, the alerts, and
/// the whole-serve budget spend.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The objective this status tracks.
    pub objective: SloObjective,
    /// Per-window burn samples, in window order.
    pub samples: Vec<BurnSample>,
    /// Every alert fired, in fire order.
    pub alerts: Vec<BurnAlert>,
    /// Whole-serve miss-rate over the budget: 1.0 means the serve spent its
    /// budget exactly; above 1.0 the objective was violated overall.
    pub budget_consumed: f64,
}

/// The per-class SLO tracking a serve report hands back when objectives
/// were configured alongside windowed telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// One status per configured objective, in configuration order.
    pub classes: Vec<SloStatus>,
}

impl SloReport {
    /// The tracked status for `class`, if an objective covered it.
    pub fn class(&self, class: SloClass) -> Option<&SloStatus> {
        self.classes.iter().find(|s| s.objective.class == class)
    }

    /// Every alert across all classes, in (class, fire) order.
    pub fn alerts(&self) -> impl Iterator<Item = &BurnAlert> {
        self.classes.iter().flat_map(|s| s.alerts.iter())
    }
}

/// Miss-rate over the trailing `span` windows ending at `end` (inclusive),
/// as misses-over-served; 0 when nothing completed in the span.
fn trailing_miss_rate(series: &TimeSeries, slot: usize, end: usize, span: usize) -> f64 {
    let start = (end + 1).saturating_sub(span);
    let mut served = 0u64;
    let mut misses = 0u64;
    for window in &series.windows[start..=end] {
        served += window.classes[slot].served;
        misses += window.classes[slot].deadline_misses;
    }
    if served == 0 {
        0.0
    } else {
        misses as f64 / served as f64
    }
}

/// Evaluates the configured objectives against a completed time-series — a
/// pure function.
pub(crate) fn evaluate_slo(series: &TimeSeries, config: &SloConfig) -> SloReport {
    let mut classes = Vec::with_capacity(config.objectives().len());
    for &objective in config.objectives() {
        let slot = objective.class.index();
        let mut samples = Vec::with_capacity(series.windows.len());
        let mut alerts: Vec<BurnAlert> = Vec::new();
        let mut active: Option<BurnAlert> = None;
        let mut served = 0u64;
        let mut misses = 0u64;
        for (index, window) in series.windows.iter().enumerate() {
            served += window.classes[slot].served;
            misses += window.classes[slot].deadline_misses;
            let fast = trailing_miss_rate(series, slot, index, objective.fast_windows)
                / objective.target_miss_rate;
            let slow = trailing_miss_rate(series, slot, index, objective.slow_windows)
                / objective.target_miss_rate;
            let close_us = window.end_us;
            match active.as_mut() {
                None => {
                    if fast >= objective.burn_threshold && slow >= objective.burn_threshold {
                        active = Some(BurnAlert {
                            class: objective.class,
                            fired_window: index,
                            fired_us: close_us,
                            cleared_window: None,
                            cleared_us: None,
                            peak_fast_burn: fast,
                        });
                    }
                }
                Some(alert) => {
                    alert.peak_fast_burn = alert.peak_fast_burn.max(fast);
                    if fast < objective.burn_threshold {
                        alert.cleared_window = Some(index);
                        alert.cleared_us = Some(close_us);
                        alerts.push(*alert);
                        active = None;
                    }
                }
            }
            samples.push(BurnSample {
                window: index,
                time_us: close_us,
                fast_burn: fast,
                slow_burn: slow,
                alerting: active.is_some(),
            });
        }
        if let Some(alert) = active {
            alerts.push(alert);
        }
        let budget_consumed = if served == 0 {
            0.0
        } else {
            (misses as f64 / served as f64) / objective.target_miss_rate
        };
        classes.push(SloStatus {
            objective,
            samples,
            alerts,
            budget_consumed,
        });
    }
    SloReport { classes }
}

/// Records every alert's fire and clear as typed instants on the trace's
/// virtual timeline (fleet-wide, device 0), in (class, fire) order — called
/// just before the recorder drains.
pub(crate) fn record_burn_spans(recorder: &mut TraceRecorder, report: &SloReport) {
    if !recorder.enabled() {
        return;
    }
    for status in &report.classes {
        for alert in &status.alerts {
            recorder.record(TraceEvent {
                time_us: alert.fired_us,
                dur_us: 0.0,
                request_id: None,
                device: 0,
                tile: None,
                kind: SpanKind::SloBurn {
                    class: alert.class,
                    window: alert.fired_window as u64,
                },
            });
            if let (Some(window), Some(time_us)) = (alert.cleared_window, alert.cleared_us) {
                recorder.record(TraceEvent {
                    time_us,
                    dur_us: 0.0,
                    request_id: None,
                    device: 0,
                    tile: None,
                    kind: SpanKind::SloClear {
                        class: alert.class,
                        window: window as u64,
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::timeline::{GlobalSeries, LaneSeries, TelemetryConfig, TimeSeries};
    use crate::obs::trace::TraceConfig;

    /// A series with the given per-window (served, missed) Standard-class
    /// counts, 10µs windows.
    fn series_of(counts: &[(u64, u64)]) -> TimeSeries {
        let config = TelemetryConfig::windowed(10.0);
        let mut lane = LaneSeries::new(config);
        for (index, &(served, missed)) in counts.iter().enumerate() {
            let base = index as f64 * 10.0;
            for i in 0..served {
                lane.note_start(
                    SloClass::Standard,
                    base,
                    base + 1.0 + i as f64 * 1e-3,
                    1.0,
                    i < missed,
                    false,
                );
            }
        }
        let global = GlobalSeries::new(config);
        TimeSeries::assemble(config, counts.len() as f64 * 10.0, 1, &global, &[lane])
    }

    #[test]
    fn quiet_series_never_alerts_and_underspends_budget() {
        let series = series_of(&[(10, 0), (10, 1), (10, 0), (10, 0)]);
        let config = SloConfig::disabled()
            .with_objective(SloObjective::new(SloClass::Standard, 0.2).with_windows(1, 2));
        let report = evaluate_slo(&series, &config);
        let status = report.class(SloClass::Standard).unwrap();
        assert!(status.alerts.is_empty());
        assert!(status.samples.iter().all(|s| !s.alerting));
        assert!(status.budget_consumed < 1.0);
        assert_eq!(status.samples.len(), 4);
        // Window 1: fast burn = 0.1 / 0.2.
        assert!((status.samples[1].fast_burn - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_miss_spike_fires_then_clears_the_alert() {
        let series = series_of(&[(10, 0), (10, 0), (10, 8), (10, 6), (10, 0), (10, 0)]);
        let config = SloConfig::disabled()
            .with_objective(SloObjective::new(SloClass::Standard, 0.1).with_windows(1, 2));
        let report = evaluate_slo(&series, &config);
        let status = report.class(SloClass::Standard).unwrap();
        assert_eq!(status.alerts.len(), 1);
        let alert = status.alerts[0];
        // Fast burn in window 2 is 0.8/0.1 = 8; slow (windows 1-2) is 4.
        assert_eq!(alert.fired_window, 2);
        assert_eq!(alert.fired_us, 30.0);
        assert_eq!(alert.cleared_window, Some(4));
        assert_eq!(alert.cleared_us, Some(50.0));
        assert!((alert.peak_fast_burn - 8.0).abs() < 1e-12);
        assert!(status.samples[2].alerting && status.samples[3].alerting);
        assert!(!status.samples[4].alerting);
        assert!(status.budget_consumed > 1.0);
    }

    #[test]
    fn an_alert_still_active_at_serve_end_reports_no_clear() {
        let series = series_of(&[(10, 0), (10, 9), (10, 9)]);
        let config = SloConfig::disabled()
            .with_objective(SloObjective::new(SloClass::Standard, 0.1).with_windows(1, 1));
        let report = evaluate_slo(&series, &config);
        let alert = report.alerts().next().copied().unwrap();
        assert_eq!(alert.fired_window, 1);
        assert_eq!(alert.cleared_window, None);
        assert_eq!(alert.cleared_us, None);
    }

    #[test]
    fn slow_window_conjunction_suppresses_single_window_noise() {
        // One bad window among quiet ones: fast spikes but the slow span
        // stays below threshold, so no alert fires.
        let series = series_of(&[(10, 0), (10, 0), (10, 0), (10, 3), (10, 0)]);
        let config = SloConfig::disabled()
            .with_objective(SloObjective::new(SloClass::Standard, 0.1).with_windows(1, 4));
        let report = evaluate_slo(&series, &config);
        let status = report.class(SloClass::Standard).unwrap();
        assert!(status.samples[3].fast_burn >= 1.0);
        assert!(status.samples[3].slow_burn < 1.0);
        assert!(status.alerts.is_empty());
    }

    #[test]
    fn burn_spans_record_fires_and_clears_in_order() {
        let series = series_of(&[(10, 0), (10, 8), (10, 0)]);
        let config = SloConfig::disabled()
            .with_objective(SloObjective::new(SloClass::Standard, 0.1).with_windows(1, 2));
        let report = evaluate_slo(&series, &config);
        let mut recorder = TraceRecorder::new(TraceConfig::enabled());
        record_burn_spans(&mut recorder, &report);
        let trace = recorder.finish().unwrap();
        let labels: Vec<&str> = trace.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["slo-burn", "slo-clear"]);
        assert!(matches!(
            trace.events()[0].kind,
            SpanKind::SloBurn {
                class: SloClass::Standard,
                window: 1
            }
        ));
        assert!(matches!(
            trace.events()[1].kind,
            SpanKind::SloClear {
                class: SloClass::Standard,
                window: 2
            }
        ));
        // A disabled recorder stays untouched (the bitwise-off pin).
        let mut off = TraceRecorder::new(TraceConfig::disabled());
        record_burn_spans(&mut off, &report);
        assert!(off.finish().is_none());
    }

    #[test]
    fn replacing_an_objective_keeps_one_per_class() {
        let config = SloConfig::disabled()
            .with_objective(SloObjective::new(SloClass::Latency, 0.1))
            .with_objective(SloObjective::new(SloClass::Latency, 0.2));
        assert_eq!(config.objectives().len(), 1);
        assert!((config.objectives()[0].target_miss_rate - 0.2).abs() < 1e-12);
        assert!(config.is_enabled());
        assert!(!SloConfig::disabled().is_enabled());
    }
}
