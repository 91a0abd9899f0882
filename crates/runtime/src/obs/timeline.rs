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
//! commits land in a per-device lane; only the global queue-depth integral
//! (a cross-device quantity) is accumulated in event order. Assembly then
//! absorbs the lanes in device order. Floating-point sums depend on
//! accumulation order, and per-device commit order is the one order both
//! tiers of a 1-device [`Cluster`](crate::Cluster) share, so partitioning by
//! device is what keeps their time-series bitwise equal.
//!
//! Everything is off by default ([`TelemetryConfig::disabled`]) and
//! proptest-pinned bitwise-inert when off.

use crate::obs::hist::{percentile_from_parts, LogHistogram};
use crate::session::SloClass;
use crate::Start;

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

/// Fixed-width windows of `W` on the virtual timeline, with a cursor on the
/// window the last note landed in. Notes cluster far tighter than a
/// telemetry window, so most land in the cursor's window again and skip the
/// index arithmetic.
#[derive(Debug, Clone)]
struct Windows<W> {
    window_us: f64,
    windows: Vec<W>,
    cursor: usize,
    cursor_start_us: f64,
    cursor_end_us: f64,
}

impl<W: Default> Windows<W> {
    fn new(window_us: f64) -> Self {
        Windows {
            window_us,
            windows: Vec::new(),
            cursor: 0,
            cursor_start_us: 0.0,
            cursor_end_us: window_us,
        }
    }

    /// The cursor's window, when `[from_us, to_us)` lies inside it: the fast
    /// path. Its one-segment sums match [`spread`](Windows::spread)'s
    /// exactly, so the result is bitwise the same either way.
    #[inline]
    fn cached(&mut self, from_us: f64, to_us: f64) -> Option<&mut W> {
        if from_us >= self.cursor_start_us && to_us < self.cursor_end_us {
            self.windows.get_mut(self.cursor)
        } else {
            None
        }
    }

    /// Window `index`, growing the series to reach it.
    fn at(&mut self, index: usize) -> &mut W {
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, W::default);
        }
        &mut self.windows[index]
    }

    /// Points the cursor at window `index`.
    fn seek(&mut self, index: usize) {
        self.cursor = index;
        self.cursor_start_us = window_start(index, self.window_us);
        self.cursor_end_us = window_start(index + 1, self.window_us);
    }

    /// Hands `add` each window `[from_us, to_us)` overlaps, in time order,
    /// with the length of the overlap; returns the last window handed.
    fn spread(&mut self, from_us: f64, to_us: f64, mut add: impl FnMut(&mut W, f64)) -> usize {
        let mut segment_start = from_us;
        let mut segment_window = window_of(from_us, self.window_us);
        while segment_start < to_us {
            let segment_end = if segment_window == MAX_WINDOWS - 1 {
                to_us
            } else {
                window_start(segment_window + 1, self.window_us).min(to_us)
            };
            add(self.at(segment_window), segment_end - segment_start);
            if segment_end >= to_us {
                break;
            }
            segment_start = segment_end;
            segment_window += 1;
        }
        segment_window
    }
}

/// One window of a device lane.
#[derive(Debug, Clone, Default)]
struct LaneWindow {
    transfers: u64,
    busy_us: f64,
    class_served: [u64; SloClass::ALL.len()],
    class_misses: [u64; SloClass::ALL.len()],
    class_rejects: [u64; SloClass::ALL.len()],
    class_latency: [LogHistogram; SloClass::ALL.len()],
}

impl LaneWindow {
    /// Counts one commit of class `slot`.
    fn commit(&mut self, slot: usize, latency_us: f64, missed: bool, transferred: bool) {
        self.transfers += u64::from(transferred);
        self.class_served[slot] += 1;
        self.class_misses[slot] += u64::from(missed);
        self.class_latency[slot].record(latency_us);
    }
}

/// One window of the pool-wide queue integral.
#[derive(Debug, Clone, Copy, Default)]
struct QueueWindow {
    queue_area_us: f64,
    observed_us: f64,
    peak_queue_depth: usize,
}

/// The time-series as a serve accumulates it: one lane of windows per
/// device, into which that device's commits land in its commit order, and
/// the pool-wide queue integral, which only the event order can integrate.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    total_tiles: usize,
    lanes: Vec<Windows<LaneWindow>>,
    queue: Windows<QueueWindow>,
}

impl Series {
    /// An empty series of `window_us`-wide windows over `devices` lanes and
    /// `total_tiles` tiles.
    pub(crate) fn new(window_us: f64, devices: usize, total_tiles: usize) -> Self {
        Series {
            total_tiles,
            lanes: (0..devices).map(|_| Windows::new(window_us)).collect(),
            queue: Windows::new(window_us),
        }
    }

    /// Accumulates one started request at its commit on its device: counted
    /// in the window of its *completion* (when its latency becomes part of
    /// the served record), with its busy interval spread across every
    /// window it overlaps for the utilization integral.
    pub(crate) fn note_start(
        &mut self,
        start: &Start,
        class: SloClass,
        latency_us: f64,
        transferred: bool,
    ) {
        let (start_us, completion_us) = (start.start_us, start.completion_us);
        let (slot, missed) = (class.index(), start.missed_deadline);
        let lane = &mut self.lanes[start.device];
        if let Some(window) = lane.cached(start_us, completion_us) {
            window.commit(slot, latency_us, missed, transferred);
            if start_us < completion_us {
                window.busy_us += completion_us - start_us;
            }
            return;
        }
        let index = window_of(completion_us, lane.window_us);
        lane.at(index).commit(slot, latency_us, missed, transferred);
        lane.spread(start_us, completion_us, |window, busy_us| {
            window.busy_us += busy_us;
        });
        lane.seek(index);
    }

    /// Accumulates one admission reject on `device` at its arrival window.
    pub(crate) fn note_reject(&mut self, device: usize, class: SloClass, time_us: f64) {
        let lane = &mut self.lanes[device];
        let window = lane.at(window_of(time_us, lane.window_us));
        window.class_rejects[class.index()] += 1;
    }

    /// Integrates the pool-wide waiting count held over `[from_us, to_us)` —
    /// the same sample the event loop's queue-area bookkeeping records —
    /// spreading the area across the windows the interval overlaps.
    pub(crate) fn note_queue(&mut self, from_us: f64, to_us: f64, waiting: usize) {
        let queue = &mut self.queue;
        let depth = waiting as f64;
        if let Some(window) = queue.cached(from_us, to_us) {
            if to_us > from_us {
                window.queue_area_us += depth * (to_us - from_us);
                window.observed_us += to_us - from_us;
            }
            window.peak_queue_depth = window.peak_queue_depth.max(waiting);
            return;
        }
        let last = if to_us <= from_us {
            // Zero-width sample (several events at one timestamp): still a
            // peak observation for the window it lands in.
            let index = window_of(from_us, queue.window_us);
            let window = queue.at(index);
            window.peak_queue_depth = window.peak_queue_depth.max(waiting);
            index
        } else {
            queue.spread(from_us, to_us, |window, span_us| {
                window.queue_area_us += depth * span_us;
                window.observed_us += span_us;
                window.peak_queue_depth = window.peak_queue_depth.max(waiting);
            })
        };
        queue.seek(last);
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

impl Series {
    /// The completed series, ending at `makespan_us`: the device lanes
    /// absorbed in device order over the queue integral.
    pub(crate) fn assemble(&self, makespan_us: f64) -> TimeSeries {
        let (window_us, total_tiles, lanes) = (self.queue.window_us, self.total_tiles, &self.lanes);
        let mut count = self.queue.windows.len();
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
            for (class, parts) in stats.classes.iter_mut().zip(&class_parts) {
                stats.served += class.served;
                stats.deadline_misses += class.deadline_misses;
                stats.rejects += class.rejects;
                if !parts.is_empty() {
                    class.p50_latency_us = percentile_from_parts(parts, 0.50);
                    class.p99_latency_us = percentile_from_parts(parts, 0.99);
                }
            }
            if let Some(window) = self.queue.windows.get(index) {
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
}

impl TimeSeries {
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
    use crate::obs::probe::tests::ran;
    use crate::obs::{Observing, Probe};

    /// A start on `device` over `[start_us, completion_us)` that missed its
    /// deadline.
    fn late(device: usize, start_us: f64, completion_us: f64) -> Start {
        let missed_deadline = true;
        Start {
            missed_deadline,
            ..ran((device, 0), start_us, completion_us, true)
        }
    }

    #[test]
    fn disabled_config_is_inert() {
        let config = TelemetryConfig::disabled();
        assert!(!config.is_enabled());
        assert!(!TelemetryConfig::default().is_enabled());
        let observing = Observing {
            telemetry: config,
            ..Observing::default()
        };
        let mut probe = Probe::new(&observing, 1, 1, 1, Vec::new);
        probe.started(0, &late(0, 0.0, 5.0), 5.0, 1, 0.5, None);
        probe.admitted(0, 0, 1.0, false);
        probe.queue(0.0, 5.0, 3);
        assert!(probe
            .finish(std::iter::empty(), None, 5.0)
            .telemetry
            .is_none());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_window_width_is_rejected() {
        TelemetryConfig::windowed(0.0);
    }

    #[test]
    fn starts_bucket_by_completion_and_spread_busy_time() {
        let mut series = Series::new(10.0, 1, 1);
        // Runs from 5 to 25: busy 5µs in window 0, 10 in window 1, 5 in
        // window 2; counted as served in window 2 (completion 25).
        series.note_start(&late(0, 5.0, 25.0), SloClass::Latency, 25.0, true);
        let series = series.assemble(25.0);
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
        let mut series = Series::new(10.0, 1, 1);
        // Depth 4 held over [5, 15): area 20 in window 0, 20 in window 1.
        series.note_queue(5.0, 15.0, 4);
        // Zero-width burst sample still registers a peak.
        series.note_queue(15.0, 15.0, 9);
        series.note_queue(15.0, 20.0, 2);
        let series = series.assemble(20.0);
        assert_eq!(series.windows.len(), 2);
        assert!((series.windows[0].mean_queue_depth - 4.0).abs() < 1e-12);
        // Window 1 observed [10,15) at depth 4 and [15,20) at depth 2.
        assert!((series.windows[1].mean_queue_depth - 3.0).abs() < 1e-12);
        assert_eq!(series.windows[0].peak_queue_depth, 4);
        assert_eq!(series.windows[1].peak_queue_depth, 9);
    }

    #[test]
    fn lane_absorb_order_is_device_order() {
        let mut series = Series::new(10.0, 2, 2);
        let on_time = ran((0, 0), 0.0, 4.0, true);
        series.note_start(&on_time, SloClass::Standard, 4.0, false);
        series.note_start(&late(1, 1.0, 6.0), SloClass::Standard, 5.0, false);
        let again = series.clone().assemble(6.0);
        let series = series.assemble(6.0);
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
        let mut series = Series::new(10.0, 1, 1);
        series.note_reject(0, SloClass::BestEffort, 12.0);
        let series = series.assemble(15.0);
        assert_eq!(series.windows[1].rejects, 1);
        assert_eq!(
            series.windows[1].classes[SloClass::BestEffort.index()].rejects,
            1
        );
        assert_eq!(series.miss_rates(), vec![0.0, 0.0]);
    }
}
