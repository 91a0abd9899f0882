//! Windowed time-series aggregation on the virtual timeline.
//!
//! A serve configured with [`TelemetryConfig::windowed`] accumulates
//! per-window operational statistics *incrementally*, at the same event-loop
//! commit points the aggregate metrics already touch: the queue-depth
//! bookkeeping at every event, the admission reject path, and the tile-start
//! commit. The result is a [`TimeSeries`] of fixed-width [`WindowStats`] —
//! throughput, deadline miss-rate, rejects, mean/peak queue depth,
//! utilization, transfers, and per-[`SloClass`] latency percentiles (via the
//! same [`LogHistogram`] the aggregate metrics use) — on the report.
//!
//! Determinism discipline: the accumulator is **lane-partitioned**. Request
//! commits land in a per-device [`LaneSeries`]; only the global queue-depth
//! integral (a cross-device quantity) lives in the [`GlobalSeries`] the
//! serial commit order owns. [`TimeSeries::assemble`] then absorbs the lanes
//! in device order. Floating-point sums depend on accumulation order, and
//! per-device commit order is the one order both tiers of a 1-device
//! [`Cluster`](crate::Cluster) share, so partitioning by device is what
//! keeps their time-series bitwise equal.
//!
//! Everything is off by default ([`TelemetryConfig::disabled`]) and
//! proptest-pinned bitwise-inert when off.

use crate::obs::hist::{percentile_from_parts, LogHistogram};
use crate::session::SloClass;

/// Caps the number of windows a series will allocate; activity past the cap
/// accumulates into the last window instead of growing without bound. At the
/// default bench window widths this is never approached — the cap exists so
/// a degenerate `window_us` cannot turn one long serve into an allocation
/// storm.
pub const MAX_WINDOWS: usize = 1 << 20;

/// Whether — and at what window width — the serve accumulates a windowed
/// time-series. Follows the control-plane idiom
/// ([`BatchConfig::disabled`](crate::BatchConfig::disabled)): the default is
/// off, and off is proptest-pinned bitwise-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    window_us: f64,
}

impl TelemetryConfig {
    /// Telemetry off (the default): no window is ever accumulated and the
    /// serve is bitwise-identical to one on a build without telemetry.
    pub fn disabled() -> Self {
        TelemetryConfig { window_us: 0.0 }
    }

    /// Telemetry on, aggregating into fixed-width windows of `window_us`
    /// virtual microseconds.
    ///
    /// # Panics
    ///
    /// Panics when `window_us` is not finite and positive.
    pub fn windowed(window_us: f64) -> Self {
        assert!(
            window_us.is_finite() && window_us > 0.0,
            "telemetry window width must be finite and positive, got {window_us}"
        );
        TelemetryConfig { window_us }
    }

    /// True when a time-series will be accumulated.
    pub fn is_enabled(&self) -> bool {
        self.window_us > 0.0
    }

    /// The window width (0 when disabled).
    pub fn window_us(&self) -> f64 {
        self.window_us
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

/// The window index a virtual timestamp lands in.
#[inline]
fn window_of(time_us: f64, window_us: f64) -> usize {
    let index = (time_us / window_us).floor();
    if index <= 0.0 {
        0
    } else {
        (index as usize).min(MAX_WINDOWS - 1)
    }
}

/// The lower edge of window `index`.
#[inline]
fn window_start(index: usize, window_us: f64) -> f64 {
    index as f64 * window_us
}

/// Per-window accumulator for one device lane.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneWindow {
    served: u64,
    deadline_misses: u64,
    rejects: u64,
    transfers: u64,
    busy_us: f64,
    class_served: [u64; SloClass::ALL.len()],
    class_misses: [u64; SloClass::ALL.len()],
    class_rejects: [u64; SloClass::ALL.len()],
    class_latency: [LogHistogram; SloClass::ALL.len()],
}

/// One device's partition of the time-series: every request commit on that
/// device accumulates here, in the device's commit order — the order both
/// tiers of a 1-device [`Cluster`](crate::Cluster) share, which the bitwise
/// equivalence tests pin.
#[derive(Debug, Clone)]
pub(crate) struct LaneSeries {
    window_us: f64,
    windows: Vec<LaneWindow>,
    /// Hot-path cache: the window the last commit landed in and its edges.
    /// Request commits cluster far tighter than a telemetry window, so most
    /// commits hit this window again and skip the index arithmetic entirely.
    cursor: usize,
    cursor_start_us: f64,
    cursor_end_us: f64,
}

impl LaneSeries {
    /// A lane accumulator for `config` — inert when disabled.
    pub(crate) fn new(config: TelemetryConfig) -> Self {
        LaneSeries {
            window_us: config.window_us(),
            windows: Vec::new(),
            cursor: 0,
            cursor_start_us: 0.0,
            cursor_end_us: config.window_us(),
        }
    }

    /// True when this lane accumulates (one branch on the off path).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.window_us > 0.0
    }

    #[inline]
    fn window_mut(&mut self, index: usize) -> &mut LaneWindow {
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, LaneWindow::default);
        }
        &mut self.windows[index]
    }

    /// Points the cursor at `index` so the next commit in the same window
    /// takes the fast path.
    #[inline]
    fn seek_cursor(&mut self, index: usize) {
        self.cursor = index;
        self.cursor_start_us = window_start(index, self.window_us);
        self.cursor_end_us = window_start(index + 1, self.window_us);
    }

    /// Accumulates one started request at its commit: counted in the window
    /// of its *completion* (when its latency becomes part of the served
    /// record), with its busy interval spread across every window it
    /// overlaps for the utilization integral.
    pub(crate) fn note_start(
        &mut self,
        class: SloClass,
        start_us: f64,
        completion_us: f64,
        latency_us: f64,
        missed_deadline: bool,
        transferred: bool,
    ) {
        if !self.enabled() {
            return;
        }
        let slot = class.index();
        // Fast path: the whole [start, completion) run sits inside the
        // cached window, so the commit and the busy segment land together
        // with no index arithmetic. The sums below match the general path's
        // single-segment arithmetic exactly, so the result is bitwise the
        // same either way.
        if start_us >= self.cursor_start_us
            && completion_us < self.cursor_end_us
            && self.cursor < self.windows.len()
        {
            let window = &mut self.windows[self.cursor];
            window.served += 1;
            window.deadline_misses += u64::from(missed_deadline);
            window.transfers += u64::from(transferred);
            window.class_served[slot] += 1;
            window.class_misses[slot] += u64::from(missed_deadline);
            window.class_latency[slot].record(latency_us);
            if start_us < completion_us {
                window.busy_us += completion_us - start_us;
            }
            return;
        }
        let window_us = self.window_us;
        let index = window_of(completion_us, window_us);
        let window = self.window_mut(index);
        window.served += 1;
        window.deadline_misses += u64::from(missed_deadline);
        window.transfers += u64::from(transferred);
        window.class_served[slot] += 1;
        window.class_misses[slot] += u64::from(missed_deadline);
        window.class_latency[slot].record(latency_us);
        // Busy-time integral: the [start, completion) interval, segment by
        // segment across the windows it overlaps.
        let mut segment_start = start_us;
        let mut segment_window = window_of(start_us, window_us);
        while segment_start < completion_us {
            let boundary = window_start(segment_window + 1, window_us);
            let segment_end = if segment_window == MAX_WINDOWS - 1 {
                completion_us
            } else {
                boundary.min(completion_us)
            };
            self.window_mut(segment_window).busy_us += segment_end - segment_start;
            if segment_end >= completion_us {
                break;
            }
            segment_start = segment_end;
            segment_window += 1;
        }
        self.seek_cursor(index);
    }

    /// Accumulates one admission reject at its arrival window.
    pub(crate) fn note_reject(&mut self, class: SloClass, time_us: f64) {
        if !self.enabled() {
            return;
        }
        let index = window_of(time_us, self.window_us);
        let window = self.window_mut(index);
        window.rejects += 1;
        window.class_rejects[class.index()] += 1;
    }
}

/// Per-window accumulator for the global (cross-device) queue integral.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalWindow {
    queue_area_us: f64,
    observed_us: f64,
    peak_queue_depth: usize,
}

/// The event-order partition of the time-series: the pool-wide waiting
/// count is a cross-device quantity only the event order can integrate, so
/// it accumulates here, sampled at every event.
#[derive(Debug, Clone)]
pub(crate) struct GlobalSeries {
    window_us: f64,
    windows: Vec<GlobalWindow>,
    /// Hot-path cache: the window the last sample landed in and its edges.
    /// The queue integral samples at every event, and events pack far
    /// tighter than a telemetry window, so almost every sample stays inside
    /// the cached window and skips the index arithmetic.
    cursor: usize,
    cursor_start_us: f64,
    cursor_end_us: f64,
}

impl GlobalSeries {
    /// A global accumulator for `config` — inert when disabled.
    pub(crate) fn new(config: TelemetryConfig) -> Self {
        GlobalSeries {
            window_us: config.window_us(),
            windows: Vec::new(),
            cursor: 0,
            cursor_start_us: 0.0,
            cursor_end_us: config.window_us(),
        }
    }

    /// True when this series accumulates (one branch on the off path).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.window_us > 0.0
    }

    #[inline]
    fn window_mut(&mut self, index: usize) -> &mut GlobalWindow {
        if self.windows.len() <= index {
            self.windows.resize(index + 1, GlobalWindow::default());
        }
        &mut self.windows[index]
    }

    /// Points the cursor at `index` so the next sample in the same window
    /// takes the fast path.
    #[inline]
    fn seek_cursor(&mut self, index: usize) {
        self.cursor = index;
        self.cursor_start_us = window_start(index, self.window_us);
        self.cursor_end_us = window_start(index + 1, self.window_us);
    }

    /// Integrates the pool-wide waiting count held over `[from_us, to_us)` —
    /// the same sample the event loop's queue-area bookkeeping records —
    /// spreading the area across the windows the interval overlaps.
    pub(crate) fn note_queue(&mut self, from_us: f64, to_us: f64, waiting: usize) {
        if !self.enabled() {
            return;
        }
        // Fast path: the whole sample sits inside the cached window. The
        // sums below match the general path's single-segment arithmetic
        // exactly, so the result is bitwise the same either way.
        if from_us >= self.cursor_start_us
            && to_us < self.cursor_end_us
            && self.cursor < self.windows.len()
        {
            let window = &mut self.windows[self.cursor];
            if to_us > from_us {
                window.queue_area_us += waiting as f64 * (to_us - from_us);
                window.observed_us += to_us - from_us;
            }
            window.peak_queue_depth = window.peak_queue_depth.max(waiting);
            return;
        }
        let window_us = self.window_us;
        let depth = waiting as f64;
        if to_us <= from_us {
            // Zero-width sample (several events at one timestamp): still a
            // peak observation for the window it lands in.
            let index = window_of(from_us, window_us);
            let window = self.window_mut(index);
            window.peak_queue_depth = window.peak_queue_depth.max(waiting);
            self.seek_cursor(index);
            return;
        }
        let mut segment_start = from_us;
        let mut segment_window = window_of(from_us, window_us);
        loop {
            let boundary = window_start(segment_window + 1, window_us);
            let segment_end = if segment_window == MAX_WINDOWS - 1 {
                to_us
            } else {
                boundary.min(to_us)
            };
            let window = self.window_mut(segment_window);
            window.queue_area_us += depth * (segment_end - segment_start);
            window.observed_us += segment_end - segment_start;
            window.peak_queue_depth = window.peak_queue_depth.max(waiting);
            if segment_end >= to_us {
                self.seek_cursor(segment_window);
                break;
            }
            segment_start = segment_end;
            segment_window += 1;
        }
    }
}

/// Per-[`SloClass`] statistics within one window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassWindow {
    /// Requests of this class completed in the window.
    pub served: u64,
    /// Completed requests of this class that missed their deadline.
    pub deadline_misses: u64,
    /// Requests of this class rejected by admission control in the window.
    pub rejects: u64,
    /// Median modeled latency of the window's completions (µs, histogram
    /// resolution; 0 when none completed).
    pub p50_latency_us: f64,
    /// 99th-percentile modeled latency of the window's completions (µs).
    pub p99_latency_us: f64,
}

impl ClassWindow {
    /// Deadline misses over completions for this class in this window
    /// (0 when nothing completed).
    pub fn miss_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.served as f64
        }
    }
}

/// One fixed-width window of the serve's telemetry time-series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// The window's ordinal on the virtual timeline.
    pub index: usize,
    /// The window's lower edge, virtual microseconds.
    pub start_us: f64,
    /// The window's upper edge (clipped to the makespan for the last one).
    pub end_us: f64,
    /// Requests completed in this window.
    pub served: u64,
    /// Completed requests that missed their deadline.
    pub deadline_misses: u64,
    /// Requests rejected by admission control in this window.
    pub rejects: u64,
    /// Started requests whose kernel image arrived by inter-device transfer.
    pub transfers: u64,
    /// Time-weighted mean of the pool-wide waiting count over the window.
    pub mean_queue_depth: f64,
    /// Largest event-sampled pool-wide waiting count in the window.
    pub peak_queue_depth: usize,
    /// Busy tile-time over available tile-time in the window (0..=1).
    pub utilization: f64,
    /// Per-[`SloClass`] breakdown, indexed by [`SloClass::index`].
    pub classes: [ClassWindow; SloClass::ALL.len()],
}

impl WindowStats {
    /// Deadline misses over completions in this window (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.served as f64
        }
    }

    /// Completions per virtual second in this window.
    pub fn throughput_per_sec(&self) -> f64 {
        let span = self.end_us - self.start_us;
        if span > 0.0 {
            self.served as f64 * 1.0e6 / span
        } else {
            0.0
        }
    }
}

/// The completed windowed time-series a serve report hands back when
/// telemetry was on.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// The configured window width, virtual microseconds.
    pub window_us: f64,
    /// The serve's makespan — the time of its last event.
    pub makespan_us: f64,
    /// The windows, dense from time 0 through the makespan.
    pub windows: Vec<WindowStats>,
}

impl TimeSeries {
    /// Assembles the final series by absorbing the per-device lane
    /// partitions (in device order) over the global queue integral.
    pub(crate) fn assemble(
        config: TelemetryConfig,
        makespan_us: f64,
        total_tiles: usize,
        global: &GlobalSeries,
        lanes: &[LaneSeries],
    ) -> TimeSeries {
        let window_us = config.window_us();
        let mut count = global.windows.len();
        for lane in lanes {
            count = count.max(lane.windows.len());
        }
        if makespan_us > 0.0 {
            // A makespan landing exactly on a window boundary closes that
            // window rather than opening an empty one after it.
            let mut last = window_of(makespan_us, window_us);
            if last > 0 && window_start(last, window_us) >= makespan_us {
                last -= 1;
            }
            count = count.max(last + 1);
        }
        let mut windows = Vec::with_capacity(count);
        // Scratch for the per-class lane parts, reused across windows so the
        // assembly loop allocates nothing per window.
        let mut class_parts: [Vec<&LogHistogram>; SloClass::ALL.len()] = Default::default();
        for index in 0..count {
            for parts in &mut class_parts {
                parts.clear();
            }
            let start_us = window_start(index, window_us);
            let end_us = window_start(index + 1, window_us).min(makespan_us.max(start_us));
            let mut stats = WindowStats {
                index,
                start_us,
                end_us,
                served: 0,
                deadline_misses: 0,
                rejects: 0,
                transfers: 0,
                mean_queue_depth: 0.0,
                peak_queue_depth: 0,
                utilization: 0.0,
                classes: Default::default(),
            };
            let mut busy_us = 0.0;
            // Absorb the lane partitions in device order — a fixed merge
            // order.
            for lane in lanes {
                let Some(window) = lane.windows.get(index) else {
                    continue;
                };
                stats.served += window.served;
                stats.deadline_misses += window.deadline_misses;
                stats.rejects += window.rejects;
                stats.transfers += window.transfers;
                busy_us += window.busy_us;
                for (slot, parts) in class_parts.iter_mut().enumerate() {
                    stats.classes[slot].served += window.class_served[slot];
                    stats.classes[slot].deadline_misses += window.class_misses[slot];
                    stats.classes[slot].rejects += window.class_rejects[slot];
                    if window.class_latency[slot].count() > 0 {
                        parts.push(&window.class_latency[slot]);
                    }
                }
            }
            for (slot, parts) in class_parts.iter().enumerate() {
                if !parts.is_empty() {
                    stats.classes[slot].p50_latency_us = percentile_from_parts(parts, 0.50);
                    stats.classes[slot].p99_latency_us = percentile_from_parts(parts, 0.99);
                }
            }
            if let Some(window) = global.windows.get(index) {
                if window.observed_us > 0.0 {
                    stats.mean_queue_depth = window.queue_area_us / window.observed_us;
                }
                stats.peak_queue_depth = window.peak_queue_depth;
            }
            let span_us = end_us - start_us;
            if span_us > 0.0 && total_tiles > 0 {
                stats.utilization = busy_us / (span_us * total_tiles as f64);
            }
            windows.push(stats);
        }
        TimeSeries {
            window_us,
            makespan_us,
            windows,
        }
    }

    /// Total completions across every window.
    pub fn total_served(&self) -> u64 {
        self.windows.iter().map(|w| w.served).sum()
    }

    /// The per-window deadline miss-rates, in window order — the series the
    /// fault-recovery bench charts through a kill.
    pub fn miss_rates(&self) -> Vec<f64> {
        self.windows.iter().map(WindowStats::miss_rate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert() {
        let config = TelemetryConfig::disabled();
        assert!(!config.is_enabled());
        assert!(!TelemetryConfig::default().is_enabled());
        let mut lane = LaneSeries::new(config);
        let mut global = GlobalSeries::new(config);
        lane.note_start(SloClass::Standard, 0.0, 5.0, 5.0, true, true);
        lane.note_reject(SloClass::Standard, 1.0);
        global.note_queue(0.0, 5.0, 3);
        assert!(lane.windows.is_empty());
        assert!(global.windows.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_window_width_is_rejected() {
        TelemetryConfig::windowed(0.0);
    }

    #[test]
    fn starts_bucket_by_completion_and_spread_busy_time() {
        let config = TelemetryConfig::windowed(10.0);
        let mut lane = LaneSeries::new(config);
        // Runs from 5 to 25: busy 5µs in window 0, 10 in window 1, 5 in
        // window 2; counted as served in window 2 (completion 25).
        lane.note_start(SloClass::Latency, 5.0, 25.0, 25.0, true, true);
        let global = GlobalSeries::new(config);
        let series = TimeSeries::assemble(config, 25.0, 1, &global, &[lane]);
        assert_eq!(series.windows.len(), 3);
        assert_eq!(series.windows[0].served, 0);
        assert_eq!(series.windows[2].served, 1);
        assert_eq!(series.windows[2].deadline_misses, 1);
        assert_eq!(series.windows[2].transfers, 1);
        assert_eq!(
            series.windows[2].classes[SloClass::Latency.index()].served,
            1
        );
        assert!((series.windows[0].utilization - 0.5).abs() < 1e-12);
        assert!((series.windows[1].utilization - 1.0).abs() < 1e-12);
        // Last window is clipped to the makespan: 5 busy µs over 5 spanned.
        assert!((series.windows[2].utilization - 1.0).abs() < 1e-12);
        assert!((series.windows[2].miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_integral_spreads_area_and_tracks_peaks() {
        let config = TelemetryConfig::windowed(10.0);
        let mut global = GlobalSeries::new(config);
        // Depth 4 held over [5, 15): area 20 in window 0, 20 in window 1.
        global.note_queue(5.0, 15.0, 4);
        // Zero-width burst sample still registers a peak.
        global.note_queue(15.0, 15.0, 9);
        global.note_queue(15.0, 20.0, 2);
        let series = TimeSeries::assemble(config, 20.0, 1, &global, &[]);
        assert_eq!(series.windows.len(), 2);
        assert!((series.windows[0].mean_queue_depth - 4.0).abs() < 1e-12);
        // Window 1 observed [10,15) at depth 4 and [15,20) at depth 2.
        assert!((series.windows[1].mean_queue_depth - 3.0).abs() < 1e-12);
        assert_eq!(series.windows[0].peak_queue_depth, 4);
        assert_eq!(series.windows[1].peak_queue_depth, 9);
    }

    #[test]
    fn lane_absorb_order_is_device_order() {
        let config = TelemetryConfig::windowed(10.0);
        let mut lane_a = LaneSeries::new(config);
        let mut lane_b = LaneSeries::new(config);
        lane_a.note_start(SloClass::Standard, 0.0, 4.0, 4.0, false, false);
        lane_b.note_start(SloClass::Standard, 1.0, 6.0, 5.0, true, false);
        let global = GlobalSeries::new(config);
        let series =
            TimeSeries::assemble(config, 6.0, 2, &global, &[lane_a.clone(), lane_b.clone()]);
        let again = TimeSeries::assemble(config, 6.0, 2, &global, &[lane_a, lane_b]);
        assert_eq!(series, again);
        assert_eq!(series.windows[0].served, 2);
        assert_eq!(series.windows[0].deadline_misses, 1);
        assert!((series.windows[0].miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(series.total_served(), 2);
        assert!(series.windows[0].classes[SloClass::Standard.index()].p99_latency_us > 0.0);
        // 4 + 5 busy µs over 2 tiles × 6 spanned µs.
        assert!((series.windows[0].utilization - 9.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bucket_by_arrival_window() {
        let config = TelemetryConfig::windowed(10.0);
        let mut lane = LaneSeries::new(config);
        lane.note_reject(SloClass::BestEffort, 12.0);
        let global = GlobalSeries::new(config);
        let series = TimeSeries::assemble(config, 15.0, 1, &global, &[lane]);
        assert_eq!(series.windows[1].rejects, 1);
        assert_eq!(
            series.windows[1].classes[SloClass::BestEffort.index()].rejects,
            1
        );
        assert_eq!(series.miss_rates(), vec![0.0, 0.0]);
    }
}
