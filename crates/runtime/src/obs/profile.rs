//! Host-time hot-path profiling for the event loop.
//!
//! The serve's probe attributes the loop's host nanoseconds to five stages
//! into a [`ProfileStats`] — the denominator behind the ns/event figures the
//! benches report. It is gated behind an opt-in flag
//! ([`Cluster::with_profiling`](crate::Cluster::with_profiling)): off (the
//! default) every timer is one branch and no clock is read, so the
//! bitwise-pinned hot path stays clock-free.
//!
//! Stage attribution:
//!
//! * **scan** — tile-queue operations: enqueue, pop-next scan, start-next
//!   candidate selection;
//! * **route** — placement decisions: [`Dispatcher::place`](crate::dispatch)
//!   and, on a cluster, device routing;
//! * **sim** — running a request's functional simulation on the loop
//!   thread (memo misses only);
//! * **memo** — the simulation memo: the lookup at admission and, after a
//!   miss, the insert;
//! * **bookkeeping** — everything charged per event around the above:
//!   outcome recording, queue-depth integration, histogram updates.

use std::fmt;
use std::time::Duration;

/// The profiled stages, in export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Tile-queue scans and pops.
    Scan,
    /// Placement and device-routing decisions.
    Route,
    /// Running functional simulations (memo misses).
    Sim,
    /// Simulation-memo lookups and inserts.
    Memo,
    /// Per-event accounting around the hot path.
    Bookkeeping,
}

/// Number of profiled stages.
pub const STAGE_COUNT: usize = 5;

impl Stage {
    /// All stages, in export order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Scan,
        Stage::Route,
        Stage::Sim,
        Stage::Memo,
        Stage::Bookkeeping,
    ];

    /// The stage's export name.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Scan => "scan",
            Stage::Route => "route",
            Stage::Sim => "sim",
            Stage::Memo => "memo",
            Stage::Bookkeeping => "bookkeeping",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// Per-stage host-time attribution for one serve, reported when profiling
/// was on; the benchmark's `runtime.profile.*` rows are read from it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileStats {
    nanos: [u64; STAGE_COUNT],
    counts: [u64; STAGE_COUNT],
}

impl ProfileStats {
    /// Attributes one probe's `elapsed` host time to `stage`.
    pub(super) fn add(&mut self, stage: Stage, elapsed: Duration) {
        let slot = stage.index();
        self.nanos[slot] += elapsed.as_nanos() as u64;
        self.counts[slot] += 1;
    }

    /// Total host nanoseconds attributed to `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Number of probes attributed to `stage`.
    pub fn probes(&self, stage: Stage) -> u64 {
        self.counts[stage.index()]
    }

    /// Mean host nanoseconds per probe for `stage` (0 when never probed).
    pub fn ns_per_probe(&self, stage: Stage) -> f64 {
        let slot = stage.index();
        if self.counts[slot] == 0 {
            0.0
        } else {
            self.nanos[slot] as f64 / self.counts[slot] as f64
        }
    }

    /// Total host nanoseconds across every stage.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `(stage, total ns, probes)` rows in export order.
    pub fn rows(&self) -> [(Stage, u64, u64); STAGE_COUNT] {
        let mut rows = [(Stage::Scan, 0, 0); STAGE_COUNT];
        for (row, stage) in rows.iter_mut().zip(Stage::ALL) {
            *row = (stage, self.nanos(stage), self.probes(stage));
        }
        rows
    }
}

impl fmt::Display for ProfileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_nanos().max(1) as f64;
        write!(f, "host profile:")?;
        for (stage, nanos, probes) in self.rows() {
            write!(
                f,
                " {} {:.0}ns/probe x{} ({:.0}%)",
                stage.label(),
                self.ns_per_probe(stage),
                probes,
                nanos as f64 / total * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Observing, Probe};

    fn profiling(enabled: bool) -> Probe {
        let observing = Observing {
            profiling: enabled,
            ..Observing::default()
        };
        Probe::new(&observing, 0, 1, 1, Vec::new)
    }

    #[test]
    fn a_disabled_profiler_reads_no_clock_and_finishes_to_none() {
        let mut probe = profiling(false);
        let timer = probe.begin();
        assert!(timer.is_none());
        probe.end(Stage::Scan, timer);
        assert!(probe
            .finish(std::iter::empty(), None, 0.0)
            .profile
            .is_none());
    }

    #[test]
    fn probes_accumulate_per_stage() {
        let mut probe = profiling(true);
        for _ in 0..3 {
            let timer = probe.begin();
            assert!(timer.is_some());
            probe.end(Stage::Route, timer);
        }
        let timer = probe.begin();
        probe.end(Stage::Memo, timer);
        let observed = probe.finish(std::iter::empty(), None, 0.0);
        let stats = observed.profile.expect("profiling was on");
        assert_eq!(stats.probes(Stage::Route), 3);
        assert_eq!(stats.probes(Stage::Memo), 1);
        assert_eq!(stats.probes(Stage::Scan), 0);
        assert_eq!(stats.ns_per_probe(Stage::Scan), 0.0);
        assert!(stats.total_nanos() >= stats.nanos(Stage::Route));
        let text = stats.to_string();
        assert!(text.contains("route"));
        assert!(text.contains("bookkeeping"));
        assert_eq!(stats.rows()[0].0, Stage::Scan);
    }
}
