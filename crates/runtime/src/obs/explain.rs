//! Per-request latency attribution decoded from a serve's trace.
//!
//! A trace holds every request's lifecycle as spans that tile the
//! `[arrival, completion]` interval by construction: queue wait, then (when
//! a context switch is paid) image acquisition, inter-stage activation
//! transfer and the instruction-reload switch, then the run. [`explain`]
//! decodes those spans back into one additive [`Attribution`] row per served
//! request, with the invariant the observability tests audit:
//!
//! ```text
//! queue + acquire + activation + switch + run == latency   (± float ulps)
//! ```
//!
//! Fault displacement shows up separately: a request killed mid-run is
//! requeued and restarted, its superseded attempt's acquire/switch/run time
//! is reported as `displaced_us` (work thrown away, overlapping the final
//! queue wait — *not* part of the additive identity), and its `requeues`
//! count the displacements. [`AttributionReport::worst_offenders`] ranks the
//! slowest requests for the "why was this one slow" question the Perfetto
//! dump answers only by hand.

use std::collections::BTreeMap;

use crate::obs::trace::{SpanKind, Trace};

/// The additive latency breakdown of one served request, plus its fault
/// displacement record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// The caller-chosen request id.
    pub request_id: u64,
    /// The device the (final) run executed on.
    pub device: usize,
    /// When the request arrived, microseconds.
    pub arrival_us: f64,
    /// When the final run committed, microseconds.
    pub completion_us: f64,
    /// Completion minus arrival — the total the breakdown reconciles to.
    pub latency_us: f64,
    /// Arrival to final tile start: the queueing portion.
    pub queue_us: f64,
    /// Kernel-image acquisition (inter-device transfer or host load)
    /// serialized ahead of the final context switch.
    pub acquire_us: f64,
    /// Inter-stage activation transfer charged ahead of the final switch
    /// (pipeline serves only).
    pub activation_us: f64,
    /// The instruction-reload context switch itself.
    pub switch_us: f64,
    /// Kernel execution on the tile.
    pub run_us: f64,
    /// Acquire/activation/switch/run time of superseded attempts a fault
    /// displaced — discarded work, overlapping the final queue wait and
    /// therefore *not* part of the additive identity.
    pub displaced_us: f64,
    /// How many times a fault displaced the request back into routing.
    pub requeues: u32,
}

impl Attribution {
    /// The additive breakdown's sum: `queue + acquire + activation + switch
    /// + run`.
    pub fn attributed_us(&self) -> f64 {
        self.queue_us + self.acquire_us + self.activation_us + self.switch_us + self.run_us
    }

    /// `latency - attributed`: the float residue of the tiling (ulps).
    pub fn residual_us(&self) -> f64 {
        self.latency_us - self.attributed_us()
    }

    /// Whether the breakdown reconciles with the modeled latency to within
    /// float tolerance.
    pub fn reconciles(&self) -> bool {
        self.residual_us().abs() <= 1e-9 * self.latency_us.abs().max(1.0)
    }
}

/// Every served request's [`Attribution`], decoded from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    rows: Vec<Attribution>,
}

impl AttributionReport {
    /// The per-request rows, in request-id order.
    pub fn rows(&self) -> &[Attribution] {
        &self.rows
    }

    /// The row for one request, if it ran.
    pub fn for_request(&self, request_id: u64) -> Option<&Attribution> {
        self.rows
            .binary_search_by_key(&request_id, |row| row.request_id)
            .ok()
            .map(|index| &self.rows[index])
    }

    /// The `n` highest-latency requests, slowest first (ties by request id).
    pub fn worst_offenders(&self, n: usize) -> Vec<&Attribution> {
        let mut ranked: Vec<&Attribution> = self.rows.iter().collect();
        ranked.sort_by(|a, b| {
            b.latency_us
                .total_cmp(&a.latency_us)
                .then(a.request_id.cmp(&b.request_id))
        });
        ranked.truncate(n);
        ranked
    }

    /// Renders the `n` worst offenders as an aligned text table (the shape
    /// the serving example and the README show).
    pub fn worst_offenders_table(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(
            "request      latency_us    queue_us  acquire_us   activ_us  switch_us      run_us  displaced  requeues\n",
        );
        for row in self.worst_offenders(n) {
            out.push_str(&format!(
                "{:>7}  {:>13.3}  {:>10.3}  {:>10.3}  {:>9.3}  {:>9.3}  {:>10.3}  {:>9.3}  {:>8}\n",
                row.request_id,
                row.latency_us,
                row.queue_us,
                row.acquire_us,
                row.activation_us,
                row.switch_us,
                row.run_us,
                row.displaced_us,
                row.requeues,
            ));
        }
        out
    }
}

/// Accumulates one request's spans in lifecycle order.
#[derive(Debug, Clone, Copy, Default)]
struct PendingAttribution {
    device: usize,
    arrival_us: f64,
    completion_us: f64,
    queue_us: f64,
    acquire_us: f64,
    activation_us: f64,
    switch_us: f64,
    run_us: f64,
    displaced_us: f64,
    requeues: u32,
    saw_run: bool,
}

/// Decodes every request's spans into its additive latency breakdown: one
/// row per served request. A rejected request never ran and has no row.
pub fn explain(trace: &Trace) -> AttributionReport {
    let mut pending: BTreeMap<u64, PendingAttribution> = BTreeMap::new();
    for event in trace.events() {
        let Some(request_id) = event.request_id else {
            continue;
        };
        let entry = pending.entry(request_id).or_default();
        match event.kind {
            SpanKind::QueueWait => {
                if entry.saw_run {
                    // A fresh start burst after a completed attempt: the
                    // fault tier displaced the first run. Its paid work is
                    // discarded time; the new wait supersedes the old.
                    entry.displaced_us +=
                        entry.acquire_us + entry.activation_us + entry.switch_us + entry.run_us;
                    entry.acquire_us = 0.0;
                    entry.activation_us = 0.0;
                    entry.switch_us = 0.0;
                    entry.run_us = 0.0;
                    entry.saw_run = false;
                }
                entry.arrival_us = event.time_us;
                entry.queue_us = event.dur_us;
            }
            SpanKind::Acquire { .. } => entry.acquire_us += event.dur_us,
            SpanKind::Activation => entry.activation_us += event.dur_us,
            SpanKind::ContextSwitch => entry.switch_us += event.dur_us,
            SpanKind::Run => {
                entry.run_us += event.dur_us;
                entry.device = event.device;
                entry.saw_run = true;
            }
            SpanKind::Commit => entry.completion_us = event.time_us,
            SpanKind::Requeue => entry.requeues += 1,
            _ => {}
        }
    }
    let rows = pending
        .into_iter()
        .filter(|(_, entry)| entry.saw_run)
        .map(|(request_id, entry)| Attribution {
            request_id,
            device: entry.device,
            arrival_us: entry.arrival_us,
            completion_us: entry.completion_us,
            latency_us: entry.completion_us - entry.arrival_us,
            queue_us: entry.queue_us,
            acquire_us: entry.acquire_us,
            activation_us: entry.activation_us,
            switch_us: entry.switch_us,
            run_us: entry.run_us,
            displaced_us: entry.displaced_us,
            requeues: entry.requeues,
        })
        .collect();
    AttributionReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::probe::tests::ran;
    use crate::obs::Probe;
    use crate::route::{AcquireSource, Routed};

    #[test]
    fn a_full_lifecycle_reconciles_additively() {
        let mut probe = Probe::tracing();
        probe.admitted(0, 1, 0.0, true);
        let routed = Routed {
            acquire_us: 0.5,
            acquire_src: AcquireSource::Transfer,
            acquire_bytes: 64,
            activation_us: 0.25,
            ..Routed::default()
        };
        let start = ran((1, 0), 2.0, 7.0, true);
        probe.started(0, &start, 7.0, 1, 0.25, Some(&routed));
        let report = explain(&probe.into_trace(&[(7, 0.0)], None));
        assert_eq!(report.rows().len(), 1);
        let row = report.for_request(7).unwrap();
        assert_eq!(row.device, 1);
        assert!((row.latency_us - 7.0).abs() < 1e-12);
        assert!((row.queue_us - 2.0).abs() < 1e-12);
        assert!((row.acquire_us - 0.5).abs() < 1e-12);
        assert!((row.activation_us - 0.25).abs() < 1e-12);
        assert!((row.switch_us - 0.25).abs() < 1e-12);
        assert!((row.run_us - 4.0).abs() < 1e-12);
        assert_eq!(row.requeues, 0);
        assert!(row.reconciles(), "residual {}", row.residual_us());
    }

    #[test]
    fn displaced_attempts_fold_into_the_displacement_column() {
        let mut probe = Probe::tracing();
        probe.admitted(0, 0, 0.0, true);
        // First attempt: starts at 1, would have run to 6 — killed at 6.5.
        probe.started(0, &ran((0, 0), 1.0, 6.0, true), 6.0, 1, 0.5, None);
        probe.requeued(0, 6.5, 0, true);
        // The second, surviving attempt on device 1.
        probe.started(0, &ran((1, 0), 8.0, 12.0, true), 12.0, 1, 0.5, None);
        let report = explain(&probe.into_trace(&[(3, 0.0)], None));
        let row = report.for_request(3).unwrap();
        assert_eq!(row.device, 1);
        assert_eq!(row.requeues, 1);
        // Final attempt tiles [0, 12]: 8 queued + 0.5 switch + 3.5 run.
        assert!((row.latency_us - 12.0).abs() < 1e-12);
        assert!((row.queue_us - 8.0).abs() < 1e-12);
        assert!((row.run_us - 3.5).abs() < 1e-12);
        assert!(row.reconciles(), "residual {}", row.residual_us());
        // The first attempt's paid switch + run is the discarded work.
        assert!((row.displaced_us - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejected_and_span_dropped_requests_produce_no_row() {
        // One request refused by admission control and one shed with no
        // device to take it: neither ran, so neither has a row.
        let mut probe = Probe::tracing();
        probe.admitted(0, 0, 0.0, false);
        probe.shed(1, 1.0);
        let report = explain(&probe.into_trace(&[(5, 0.0), (6, 1.0)], None));
        assert!(report.rows().is_empty());
        assert!(report.for_request(5).is_none());
        assert!(report.for_request(6).is_none());
    }

    #[test]
    fn worst_offenders_rank_by_latency_and_render() {
        let mut probe = Probe::tracing();
        for (index, run_us) in [2.0, 9.0, 5.0].into_iter().enumerate() {
            probe.admitted(index, 0, 0.0, true);
            let start = ran((0, 0), 1.0, 1.0 + run_us, false);
            probe.started(index, &start, 1.0 + run_us, 1, 0.5, None);
        }
        let report = explain(&probe.into_trace(&[(1, 0.0), (2, 0.0), (3, 0.0)], None));
        let worst = report.worst_offenders(2);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].request_id, 2);
        assert_eq!(worst[1].request_id, 3);
        let table = report.worst_offenders_table(2);
        assert!(table.starts_with("request"));
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("10.000"), "table:\n{table}");
    }
}
