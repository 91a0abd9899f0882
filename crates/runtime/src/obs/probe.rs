//! The serve's one recorder ([`Probe`]); see the [module docs](super).

use std::time::Instant;

use super::profile::{ProfileStats, Stage};
use super::timeline::Series;
use super::trace::{device_event, Logged, RouteMark, SpanKind, Step, TileStart, Trace};
use super::{TelemetryConfig, TimeSeries, TraceConfig};
use crate::fault::FaultKind;
use crate::route::{AcquireSource, Routed};
use crate::session::SloClass;
use crate::Start;

/// What a serve observes: each family's setting, as the cluster's builders
/// leave it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Observing {
    pub(crate) tracing: TraceConfig,
    pub(crate) profiling: bool,
    pub(crate) telemetry: TelemetryConfig,
}

/// What a serve observed: one report per family that was on.
#[derive(Debug, Clone)]
pub(crate) struct Observed {
    pub(crate) trace: Option<Trace>,
    pub(crate) profile: Option<ProfileStats>,
    pub(crate) telemetry: Option<TimeSeries>,
}

/// The event loop's one way to observe a serve: each method reports one
/// thing the loop did, and every family that is on records what it derives
/// from it.
#[derive(Debug)]
pub(crate) struct Probe {
    trace: Option<Trace>,
    profile: Option<ProfileStats>,
    series: Option<Series>,
    /// Per intake index, on a traced or telemetered pipeline serve: the
    /// stage's SLO class — the one place a request's class is worked out.
    /// Empty otherwise: every request is Standard, and no admission spans a
    /// class.
    classes: Vec<SloClass>,
}

impl Probe {
    /// The probe for one serve of `expected` known submissions over
    /// `devices` devices of `total_tiles` tiles in all; `classes` lists each
    /// request's SLO class on a pipeline serve and is asked only when a
    /// family reads it.
    pub(crate) fn new(
        observing: &Observing,
        expected: usize,
        devices: usize,
        total_tiles: usize,
        classes: impl FnOnce() -> Vec<SloClass>,
    ) -> Self {
        let telemetry = observing.telemetry;
        let trace = observing.tracing.is_enabled().then(|| Trace {
            steps: Vec::with_capacity(expected),
            memo_hits: Vec::with_capacity(expected),
            starts: Vec::with_capacity(expected),
            ..Trace::default()
        });
        let series = telemetry
            .is_enabled()
            .then(|| Series::new(telemetry.window_us(), devices, total_tiles));
        let classes = if trace.is_some() || series.is_some() {
            classes()
        } else {
            Vec::new()
        };
        Probe {
            trace,
            profile: observing.profiling.then(ProfileStats::default),
            series,
            classes,
        }
    }

    /// Starts a host-time stage timer: `None`, and no clock read, when
    /// profiling is off.
    #[inline]
    pub(crate) fn begin(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Ends a timer [`begin`](Probe::begin) started, charging its host time
    /// to `stage`.
    #[inline]
    pub(crate) fn end(&mut self, stage: Stage, started: Option<Instant>) {
        if let (Some(started), Some(profile)) = (started, &mut self.profile) {
            profile.add(stage, started.elapsed());
        }
    }

    /// The pool-wide waiting count held over `[from_us, to_us)`, sampled at
    /// every event.
    #[inline]
    pub(crate) fn queue(&mut self, from_us: f64, to_us: f64, waiting: usize) {
        if let Some(series) = &mut self.series {
            series.note_queue(from_us, to_us, waiting);
        }
    }

    /// Admission control's verdict on request `index`, placed on `device`;
    /// a refusal is a reject in that device's telemetry lane.
    pub(crate) fn admitted(&mut self, index: usize, device: usize, time_us: f64, admitted: bool) {
        let class = self.classes.get(index).copied();
        self.log(index, time_us, device, Logged::Admitted(admitted, class));
        if let (false, Some(series)) = (admitted, &mut self.series) {
            series.note_reject(device, class.unwrap_or_default(), time_us);
        }
    }

    /// Request `index` was shed with no device to take it (a dead fleet or a
    /// failed pipeline): a reject on device 0 without an admission verdict.
    pub(crate) fn shed(&mut self, index: usize, time_us: f64) {
        self.log(index, time_us, 0, Logged::Shed);
        let class = self.classes.get(index).copied().unwrap_or_default();
        if let Some(series) = &mut self.series {
            series.note_reject(0, class, time_us);
        }
    }

    /// The fleet's router sent request `index` to `device`, having weighed
    /// `route`'s candidates.
    pub(crate) fn routed(&mut self, index: usize, time_us: f64, device: usize, route: RouteMark) {
        if let Some(trace) = &mut self.trace {
            trace.routes.push(route);
            let mark = Logged::Routed(trace.routes.len() - 1);
            self.log(index, time_us, device, mark);
        }
    }

    /// A fault displaced request `index` off `device`; `ran` when the
    /// displaced attempt had started.
    pub(crate) fn requeued(&mut self, index: usize, time_us: f64, device: usize, ran: bool) {
        self.log(index, time_us, device, Logged::Requeue(ran));
    }

    /// Pipeline stage `index`'s last of `deps` inputs arrived from `device`.
    pub(crate) fn stage_ready(&mut self, index: usize, time_us: f64, device: usize, deps: usize) {
        self.log(index, time_us, device, Logged::StageReady(deps as u32));
    }

    /// `bytes` of stage `index`'s activations moved from device `from` to
    /// `device`.
    pub(crate) fn stage_transfer(
        &mut self,
        index: usize,
        time_us: f64,
        device: usize,
        from: usize,
        bytes: u64,
    ) {
        self.log(index, time_us, device, Logged::StageTransfer(from, bytes));
    }

    fn log(&mut self, index: usize, time_us: f64, device: usize, what: Logged) {
        if let Some(trace) = &mut self.trace {
            trace.steps.push(Step {
                index,
                time_us,
                device,
                what,
            });
        }
    }

    /// The memo answered request `index`'s simulation.
    pub(crate) fn memo_hit(&mut self, index: usize) {
        if let Some(trace) = &mut self.trace {
            let hits = &mut trace.memo_hits;
            if hits.len() <= index {
                hits.resize(index + 1, false);
            }
            hits[index] = true;
        }
    }

    /// A scheduled fault fired.
    pub(crate) fn fault(&mut self, time_us: f64, fault: FaultKind) {
        let kind = match fault {
            FaultKind::Kill { .. } => SpanKind::DeviceDown,
            FaultKind::Revive { .. } => SpanKind::DeviceUp,
            FaultKind::Drain { .. } => SpanKind::DrainPhase { begin: true },
            FaultKind::Undrain { .. } => SpanKind::DrainPhase { begin: false },
            FaultKind::DegradeLinks { multiplier } => SpanKind::LinkDegrade { multiplier },
        };
        self.on_device(time_us, fault.device().unwrap_or(0), kind);
    }

    fn on_device(&mut self, time_us: f64, device: usize, kind: SpanKind) {
        if let Some(trace) = &mut self.trace {
            trace
                .device_events
                .push(device_event(time_us, device, kind));
        }
    }

    /// Request `index` started as `start` records, `latency_us` after its
    /// arrival, as the `run_len`-th of its tile's same-kernel run.
    /// `switch_us` is its instruction reload and `routed` the fleet tier's
    /// routing row, with the acquisition and activation a switch also pays,
    /// and the image bytes the acquisition moves over the link.
    pub(crate) fn started(
        &mut self,
        index: usize,
        start: &Start,
        latency_us: f64,
        run_len: usize,
        switch_us: f64,
        routed: Option<(&Routed, u64)>,
    ) {
        if let Some(trace) = &mut self.trace {
            let resident = Routed::default();
            let (row, acquire_bytes) = routed.unwrap_or((&resident, 0));
            trace.starts.push(TileStart {
                index,
                at: *start,
                run_len,
                switch_us,
                acquire_us: row.acquire_us,
                acquire_source: row.acquire_src,
                acquire_bytes,
                activation_us: row.activation_us,
            });
        }
        let class = self.classes.get(index).copied().unwrap_or_default();
        if let Some(series) = &mut self.series {
            let transferred = start.switched
                && routed.is_some_and(|(row, _)| row.acquire_src == AcquireSource::Transfer);
            series.note_start(start, class, latency_us, transferred);
        }
    }

    /// What the serve observed, once its last event at `makespan_us` has
    /// fired: the series assembled, and the trace completed with
    /// `requests`' `(id, arrival µs)` in intake order and the fleet's
    /// routing `policy`.
    pub(crate) fn finish(
        self,
        requests: impl Iterator<Item = (u64, f64)>,
        policy: Option<&'static str>,
        makespan_us: f64,
    ) -> Observed {
        let trace = self.trace.map(|mut trace| {
            trace.requests = requests.collect();
            trace.policy = policy;
            trace
        });
        Observed {
            trace,
            profile: self.profile,
            telemetry: self.series.map(|series| series.assemble(makespan_us)),
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    impl Probe {
        /// A probe that only traces.
        pub(in crate::obs) fn tracing() -> Self {
            let tracing = TraceConfig::enabled();
            let observing = Observing {
                tracing,
                ..Observing::default()
            };
            Probe::new(&observing, 0, 1, 1, Vec::new)
        }

        /// The trace of a serve of `requests`' `(id, arrival µs)`, routed by
        /// `policy` on the fleet tier.
        pub(in crate::obs) fn into_trace(
            self,
            requests: &[(u64, f64)],
            policy: Option<&'static str>,
        ) -> Trace {
            let observed = self.finish(requests.iter().copied(), policy, 0.0);
            observed.trace.expect("the probe traces")
        }
    }

    /// A start on `(device, tile)` over `[start_us, completion_us]`.
    pub(in crate::obs) fn ran(
        (device, tile): (usize, usize),
        start_us: f64,
        completion_us: f64,
        switched: bool,
    ) -> Start {
        let missed_deadline = false;
        Start {
            device: device as u32,
            tile: tile as u32,
            start_us,
            completion_us,
            switched,
            missed_deadline,
        }
    }
}
