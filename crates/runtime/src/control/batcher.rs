//! Same-kernel batching: a policy layer over the tile-free queue drain.
//!
//! When a tile frees, the dispatch policy names the request it would run
//! next (the dispatch module's `TileQueue::peek_next`). Batching, the pick
//! at a freed tile in the serve's tiers (`control::Tiers::pick`), sits on
//! top of that choice: if the freed tile's *resident* kernel still
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
//!   when it stays feasible *after* the batched run — so slack urgency
//!   wins whenever slack has run out, while a deadline that is
//!   already unmeetable either way no longer blocks the batch.
//!
//! With `max_batch = 1` (the default) batching never intervenes and the
//! runtime is bitwise identical to the un-batched event loop — pinned by
//! the `tests/runtime_equivalence.rs` proptests.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KernelKey;
    use crate::control::{FreedTile, Tiers};
    use crate::dispatch::DispatchRequest;
    use crate::metrics::BatchStats;
    use crate::Cluster;
    use overlay_arch::FuVariant;

    /// Batching as a one-tile cluster's tiers run it.
    fn batching(config: BatchConfig) -> Tiers<'static> {
        let cluster = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_batching(config);
        Tiers::new(&cluster, None)
    }

    fn key(fingerprint: u64) -> KernelKey {
        KernelKey {
            fingerprint,
            variant: FuVariant::V4,
            depth: 8,
        }
    }

    /// Tile 0 in its `run`-th run, `run_len` dispatches long.
    fn freed(run_len: usize, run: usize, resident: Option<KernelKey>) -> FreedTile {
        FreedTile {
            tile: 0,
            run_len,
            run,
            resident,
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
        let mut batcher = batching(BatchConfig::disabled());
        assert!(!BatchConfig::disabled().enabled());
        let diverted = batcher.pick(freed(0, 0, Some(key(1))), 5.0, &view(2, None), 0.0, |_| {
            Some((99usize, 10.0))
        });
        assert_eq!(diverted, None);
        assert_eq!(batcher.finish(), BatchStats::default());
    }

    #[test]
    fn diversion_needs_a_resident_kernel_with_a_waiter() {
        let mut batcher = batching(BatchConfig::with_max_batch(4));
        // Cold tile: nothing to batch onto.
        assert_eq!(
            batcher.pick(freed(0, 0, None), 0.0, &view(2, None), 0.0, |_| Some((
                1usize, 1.0
            ))),
            None
        );
        // Choice already same-kernel: the run extends naturally.
        assert_eq!(
            batcher.pick(freed(0, 0, Some(key(2))), 0.0, &view(2, None), 0.0, |_| {
                Some((1usize, 1.0))
            }),
            None
        );
        // No same-kernel waiter in the queue.
        assert_eq!(
            batcher.pick(freed(0, 0, Some(key(1))), 0.0, &view(2, None), 0.0, |_| {
                None::<(usize, f64)>
            }),
            None
        );
        // All three guards pass: the waiter runs.
        assert_eq!(
            batcher.pick(freed(0, 0, Some(key(1))), 0.0, &view(2, None), 0.0, |k| {
                assert_eq!(k, key(1));
                Some((7usize, 1.0))
            }),
            Some(7)
        );
        let stats = batcher.finish();
        assert_eq!(stats.batched_requests, 1);
        assert_eq!(stats.switches_avoided, 1);
        assert_eq!(stats.batches_formed, 1);
    }

    #[test]
    fn run_cap_and_switch_reset_bound_the_batch() {
        let mut batcher = batching(BatchConfig::with_max_batch(2));
        // Run 1 opened with a switch: one dispatch so far.
        assert!(batcher
            .pick(freed(1, 1, Some(key(1))), 0.0, &view(2, None), 0.0, |_| {
                Some((0usize, 1.0))
            })
            .is_some());
        // The batched run made it 2 = cap.
        assert_eq!(
            batcher.pick(freed(2, 1, Some(key(1))), 0.0, &view(2, None), 0.0, |_| {
                Some((0usize, 1.0))
            }),
            None,
            "the cap forces the policy choice through"
        );
        // The deferred choice switched: run 2 starts over.
        assert!(batcher
            .pick(freed(1, 2, Some(key(2))), 0.0, &view(1, None), 0.0, |_| {
                Some((0usize, 1.0))
            })
            .is_some());
        // Two separate capped runs, each with one diversion = two batches.
        assert_eq!(batcher.finish().batches_formed, 2);
    }

    #[test]
    fn stale_and_urgent_choices_are_never_bypassed() {
        let config = BatchConfig::with_max_batch(8).with_max_hold_us(5.0);
        let mut batcher = batching(config);
        // The choice arrived at t=0 and it is now t=6: past the hold bound.
        assert_eq!(
            batcher.pick(freed(0, 0, Some(key(1))), 6.0, &view(2, None), 0.0, |_| {
                Some((0usize, 1.0))
            }),
            None
        );
        // Feasible now (0 + 2 + 10 <= 15) but infeasible after the batched
        // run (12 + 4 > 15): urgency wins, no bypass.
        assert_eq!(
            batcher.pick(
                freed(0, 0, Some(key(1))),
                0.0,
                &view(2, Some(15.0)),
                0.0,
                |_| Some((0usize, 4.0))
            ),
            None
        );
        // Still feasible after the batched run: 12 + 4 <= 16.
        assert!(batcher
            .pick(
                freed(0, 0, Some(key(1))),
                0.0,
                &view(2, Some(16.0)),
                0.0,
                |_| Some((0usize, 4.0))
            )
            .is_some());
        // Already infeasible either way (12 > 5): nothing left to protect,
        // the batch proceeds.
        assert!(batcher
            .pick(
                freed(0, 0, Some(key(1))),
                0.0,
                &view(2, Some(5.0)),
                0.0,
                |_| Some((0usize, 4.0))
            )
            .is_some());
    }
}
