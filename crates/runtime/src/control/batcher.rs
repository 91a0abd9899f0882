//! Same-kernel batching: a policy layer over the tile-free queue drain.
//!
//! When a tile frees, the dispatch policy names the request it would run
//! next ([`Dispatcher::select_next`](crate::Dispatcher::select_next) /
//! [`TileQueue::pop_next`](crate::dispatch::TileQueue)). The [`Batcher`]
//! sits on top of that choice: if the freed tile's *resident* kernel still
//! has waiters in the queue, the batcher may run the oldest of them instead
//! — no context switch, one more run of the warm kernel — and defer the
//! policy's (different-kernel) choice. N same-kernel dispatches collapse
//! into one switch + N runs, the classic setup-amortization result from
//! single-machine scheduling with sequence-dependent setup times.
//!
//! Batching never starves the bypassed request:
//!
//! * runs are capped at [`max_batch`](BatchConfig::max_batch) consecutive
//!   same-kernel dispatches per tile (counting natural same-kernel picks);
//! * a policy choice that has already waited longer than
//!   [`max_hold_us`](BatchConfig::max_hold_us) is never bypassed;
//! * a policy choice whose deadline is still feasible (it would be met if
//!   the choice ran right now, by the modeled estimates) is only bypassed
//!   when it stays feasible *after* the batched run — so EDF and slack
//!   urgency win whenever slack has run out, while a deadline that is
//!   already unmeetable either way no longer blocks the batch.
//!
//! With `max_batch = 1` (the default) the batcher never intervenes and the
//! runtime is bitwise identical to the un-batched event loop — pinned by
//! the `tests/runtime_equivalence.rs` proptests.

use crate::cache::KernelKey;
use crate::dispatch::DispatchRequest;
use crate::metrics::BatchStats;

/// Configuration of the same-kernel batching layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Maximum consecutive same-kernel dispatches on one tile before the
    /// policy's own choice is honored again. `1` disables batching (every
    /// dispatch is the policy's choice).
    pub max_batch: usize,
    /// Staleness bound: a policy choice that has waited longer than this is
    /// never bypassed by a batched run, microseconds.
    pub max_hold_us: f64,
}

impl BatchConfig {
    /// Batching off: the dispatch policy's choice always runs (the exact
    /// pre-control-plane behavior).
    pub const fn disabled() -> Self {
        BatchConfig {
            max_batch: 1,
            max_hold_us: f64::INFINITY,
        }
    }

    /// Batching on with a run cap of `max_batch` and no staleness bound.
    pub const fn with_max_batch(max_batch: usize) -> Self {
        BatchConfig {
            max_batch,
            max_hold_us: f64::INFINITY,
        }
    }

    /// Caps how long a bypassed policy choice may be deferred.
    #[must_use]
    pub const fn with_max_hold_us(mut self, max_hold_us: f64) -> Self {
        self.max_hold_us = max_hold_us;
        self
    }

    /// Whether the batcher can ever intervene.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-serve batching state: the per-tile same-kernel run lengths and the
/// formed-batch counters. Driven by the event loop at every tile-free
/// drain ([`divert`](Batcher::divert)) and every dispatch commit
/// ([`note_start`](Batcher::note_start)).
#[derive(Debug)]
pub(crate) struct Batcher {
    config: BatchConfig,
    /// Per tile: consecutive dispatches of the currently-resident kernel.
    run_len: Vec<usize>,
    /// Per tile: whether the current run already counted as a formed batch.
    in_batch: Vec<bool>,
    stats: BatchStats,
}

impl Batcher {
    pub(crate) fn new(config: BatchConfig, tiles: usize) -> Self {
        Batcher {
            config,
            run_len: vec![0; tiles],
            in_batch: vec![false; tiles],
            stats: BatchStats::default(),
        }
    }

    /// The batching decision at a tile-free drain of `tile`: given the
    /// dispatch policy's `choice` (its cached dispatch view plus its arrival
    /// time), decide whether to run the oldest waiter of the tile's
    /// `resident` kernel instead. `oldest_same_kernel` resolves that waiter
    /// — its handle (an intake index or a queue position, depending on the
    /// caller's queue representation) and its estimated service time — only
    /// when the cheap guards pass.
    ///
    /// Returns the batched waiter's handle, or `None` to honor the policy's
    /// choice.
    pub(crate) fn divert<T>(
        &mut self,
        tile: usize,
        now_us: f64,
        resident: Option<KernelKey>,
        choice: &DispatchRequest,
        choice_arrival_us: f64,
        oldest_same_kernel: impl FnOnce(KernelKey) -> Option<(T, f64)>,
    ) -> Option<T> {
        if !self.config.enabled() || self.run_len[tile] >= self.config.max_batch {
            return None;
        }
        let key = resident?;
        if choice.key == key {
            // The policy's choice already extends the run; no diversion.
            return None;
        }
        // Staleness: a choice that has waited past the hold bound wins.
        if now_us - choice_arrival_us > self.config.max_hold_us {
            return None;
        }
        let (candidate, candidate_est_us) = oldest_same_kernel(key)?;
        // Deadline feasibility: a choice that would meet its deadline if run
        // right now (switch + service, by the modeled estimates) must not be
        // pushed past it by the batched run — urgency wins when slack runs
        // out. A choice that is already infeasible either way has nothing
        // left to protect and does not block the batch.
        if let Some(deadline_us) = choice.deadline_us {
            let run_now = now_us + choice.switch_us + choice.est_exec_us;
            let resumed = run_now + candidate_est_us;
            if run_now <= deadline_us && resumed > deadline_us {
                return None;
            }
        }
        self.stats.batched_requests += 1;
        self.stats.switches_avoided += 1;
        if !self.in_batch[tile] {
            self.in_batch[tile] = true;
            self.stats.batches_formed += 1;
        }
        Some(candidate)
    }

    /// Records a committed dispatch on `tile`: a kernel switch resets the
    /// same-kernel run, a warm dispatch extends it.
    pub(crate) fn note_start(&mut self, tile: usize, switched: bool) {
        if switched {
            self.run_len[tile] = 1;
            self.in_batch[tile] = false;
        } else {
            self.run_len[tile] += 1;
        }
    }

    /// Counts a diversion that happened during a pipeline serve — the
    /// cross-pipeline stage batching the session tier's report surfaces as
    /// [`BatchStats::stage_batched`]. Called by the cluster loop right
    /// after a successful [`divert`](Batcher::divert), only when a session
    /// driver is active.
    pub(crate) fn note_stage_batched(&mut self) {
        self.stats.stage_batched += 1;
    }

    /// Clears the same-kernel run state on `tile` — used when fault
    /// injection evacuates a tile and its queue no longer matches the run
    /// the batcher was tracking.
    pub(crate) fn reset_tile(&mut self, tile: usize) {
        self.run_len[tile] = 0;
        self.in_batch[tile] = false;
    }

    /// The current same-kernel run length on `tile` (counting the dispatch
    /// just committed via [`note_start`](Batcher::note_start)) — what
    /// tracing reports as batch membership.
    pub(crate) fn run_len(&self, tile: usize) -> usize {
        self.run_len[tile]
    }

    /// The accumulated batching counters for this serve.
    pub(crate) fn stats(&self) -> BatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_arch::FuVariant;

    fn key(fingerprint: u64) -> KernelKey {
        KernelKey {
            fingerprint,
            variant: FuVariant::V4,
            depth: 8,
        }
    }

    fn view(fingerprint: u64, deadline_us: Option<f64>) -> DispatchRequest {
        DispatchRequest {
            key: key(fingerprint),
            est_exec_us: 10.0,
            switch_us: 2.0,
            deadline_us,
        }
    }

    #[test]
    fn disabled_batcher_never_diverts() {
        let mut batcher = Batcher::new(BatchConfig::disabled(), 2);
        assert!(!BatchConfig::disabled().enabled());
        let diverted = batcher.divert(0, 5.0, Some(key(1)), &view(2, None), 0.0, |_| {
            Some((99usize, 10.0))
        });
        assert_eq!(diverted, None);
        assert_eq!(batcher.stats(), BatchStats::default());
    }

    #[test]
    fn diversion_needs_a_resident_kernel_with_a_waiter() {
        let mut batcher = Batcher::new(BatchConfig::with_max_batch(4), 1);
        // Cold tile: nothing to batch onto.
        assert_eq!(
            batcher.divert(0, 0.0, None, &view(2, None), 0.0, |_| Some((1usize, 1.0))),
            None
        );
        // Choice already same-kernel: the run extends naturally.
        assert_eq!(
            batcher.divert(0, 0.0, Some(key(2)), &view(2, None), 0.0, |_| Some((
                1usize, 1.0
            ))),
            None
        );
        // No same-kernel waiter in the queue.
        assert_eq!(
            batcher.divert(0, 0.0, Some(key(1)), &view(2, None), 0.0, |_| {
                None::<(usize, f64)>
            }),
            None
        );
        // All three guards pass: the waiter runs.
        assert_eq!(
            batcher.divert(0, 0.0, Some(key(1)), &view(2, None), 0.0, |k| {
                assert_eq!(k, key(1));
                Some((7usize, 1.0))
            }),
            Some(7)
        );
        let stats = batcher.stats();
        assert_eq!(stats.batched_requests, 1);
        assert_eq!(stats.switches_avoided, 1);
        assert_eq!(stats.batches_formed, 1);
    }

    #[test]
    fn run_cap_and_switch_reset_bound_the_batch() {
        let mut batcher = Batcher::new(BatchConfig::with_max_batch(2), 1);
        batcher.note_start(0, true); // cold start: run = 1
        assert!(batcher
            .divert(0, 0.0, Some(key(1)), &view(2, None), 0.0, |_| Some((
                0usize, 1.0
            )))
            .is_some());
        batcher.note_start(0, false); // batched run: run = 2 = cap
        assert_eq!(
            batcher.divert(0, 0.0, Some(key(1)), &view(2, None), 0.0, |_| Some((
                0usize, 1.0
            ))),
            None,
            "the cap forces the policy choice through"
        );
        batcher.note_start(0, true); // the deferred choice switched: reset
        assert!(batcher
            .divert(0, 0.0, Some(key(2)), &view(1, None), 0.0, |_| Some((
                0usize, 1.0
            )))
            .is_some());
        // Two separate capped runs, each with one diversion = two batches.
        assert_eq!(batcher.stats().batches_formed, 2);
    }

    #[test]
    fn stale_and_urgent_choices_are_never_bypassed() {
        let config = BatchConfig::with_max_batch(8).with_max_hold_us(5.0);
        let mut batcher = Batcher::new(config, 1);
        // The choice arrived at t=0 and it is now t=6: past the hold bound.
        assert_eq!(
            batcher.divert(0, 6.0, Some(key(1)), &view(2, None), 0.0, |_| Some((
                0usize, 1.0
            ))),
            None
        );
        // Feasible now (0 + 2 + 10 <= 15) but infeasible after the batched
        // run (12 + 4 > 15): urgency wins, no bypass.
        assert_eq!(
            batcher.divert(0, 0.0, Some(key(1)), &view(2, Some(15.0)), 0.0, |_| Some((
                0usize, 4.0
            ))),
            None
        );
        // Still feasible after the batched run: 12 + 4 <= 16.
        assert!(batcher
            .divert(0, 0.0, Some(key(1)), &view(2, Some(16.0)), 0.0, |_| Some((
                0usize, 4.0
            )))
            .is_some());
        // Already infeasible either way (12 > 5): nothing left to protect,
        // the batch proceeds.
        assert!(batcher
            .divert(0, 0.0, Some(key(1)), &view(2, Some(5.0)), 0.0, |_| Some((
                0usize, 4.0
            )))
            .is_some());
    }
}
