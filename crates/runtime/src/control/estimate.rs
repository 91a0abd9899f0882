//! Per-kernel request-rate estimation: an exponentially-decayed arrival
//! counter on the virtual timeline.
//!
//! The estimator is fed from the routing tier, which sees every submission.
//! Each kernel carries a *decayed arrival weight*: every observation adds 1
//! and the accumulated weight halves every `window_us` of virtual time, so
//! the weight approximates "arrivals in the last window" without any
//! bucketing — a kernel receiving one request per `window_us` settles near
//! weight 2, and a kernel receiving `n` per window settles near `n / ln 2 ≈
//! 1.44 n` (the half-life integral). Everything is a pure function of the
//! observed `(kernel, time)` sequence, so serves stay deterministic.

use crate::cache::{FnvHashMap, KernelKey};

#[derive(Debug, Clone, Copy)]
struct RateEntry {
    /// Decayed arrival weight as of `last_us`.
    weight: f64,
    /// Virtual time of the last observation, microseconds.
    last_us: f64,
}

/// An exponentially-decayed per-kernel arrival counter (half-life
/// `window_us` of virtual time).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window_us: f64,
    entries: FnvHashMap<KernelKey, RateEntry>,
}

impl RateEstimator {
    /// An estimator whose arrival weights halve every `window_us` of
    /// virtual time.
    ///
    /// # Panics
    ///
    /// Panics when `window_us` is not finite and positive.
    pub fn new(window_us: f64) -> Self {
        assert!(
            window_us.is_finite() && window_us > 0.0,
            "EWMA window must be finite and positive, got {window_us}"
        );
        RateEstimator {
            window_us,
            entries: FnvHashMap::default(),
        }
    }

    /// The half-life window, microseconds.
    pub fn window_us(&self) -> f64 {
        self.window_us
    }

    /// Records one arrival of `key` at virtual time `now_us` and returns the
    /// updated decayed weight. Observations must be fed in non-decreasing
    /// time order (the event loop guarantees this).
    pub fn observe(&mut self, key: KernelKey, now_us: f64) -> f64 {
        let entry = self.entries.entry(key).or_insert(RateEntry {
            weight: 0.0,
            last_us: now_us,
        });
        let dt = (now_us - entry.last_us).max(0.0);
        entry.weight = entry.weight * (-dt / self.window_us).exp2() + 1.0;
        entry.last_us = now_us;
        entry.weight
    }

    /// The decayed arrival weight of `key` as of `now_us`, without recording
    /// an arrival. 0 for a kernel never observed.
    pub fn weight(&self, key: &KernelKey, now_us: f64) -> f64 {
        match self.entries.get(key) {
            Some(entry) => {
                let dt = (now_us - entry.last_us).max(0.0);
                entry.weight * (-dt / self.window_us).exp2()
            }
            None => 0.0,
        }
    }

    /// Number of kernels with a recorded observation.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no kernel has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    #[test]
    fn weights_accumulate_and_halve_per_window() {
        let mut estimator = RateEstimator::new(100.0);
        assert!(estimator.is_empty());
        assert_eq!(estimator.weight(&key(1), 0.0), 0.0);
        // A burst at t=0 accumulates without decay.
        for _ in 0..4 {
            estimator.observe(key(1), 0.0);
        }
        assert!((estimator.weight(&key(1), 0.0) - 4.0).abs() < 1e-12);
        // One half-life later, the weight has halved.
        assert!((estimator.weight(&key(1), 100.0) - 2.0).abs() < 1e-12);
        // Two half-lives: quartered.
        assert!((estimator.weight(&key(1), 200.0) - 1.0).abs() < 1e-12);
        // Observing after a half-life decays then adds one.
        let updated = estimator.observe(key(1), 100.0);
        assert!((updated - 3.0).abs() < 1e-12);
        assert_eq!(estimator.len(), 1);
    }

    #[test]
    fn kernels_are_tracked_independently_and_deterministically() {
        let run = || {
            let mut estimator = RateEstimator::new(50.0);
            for i in 0..20u64 {
                let k = if i % 4 == 0 { key(2) } else { key(1) };
                estimator.observe(k, i as f64 * 3.0);
            }
            (
                estimator.weight(&key(1), 60.0),
                estimator.weight(&key(2), 60.0),
            )
        };
        let (hot, cold) = run();
        assert!(hot > cold, "the 3x-hotter kernel must weigh more");
        assert_eq!(run(), (hot, cold), "pure function of the trace");
    }

    #[test]
    fn steady_rate_settles_near_arrivals_per_window() {
        // One arrival every 10 us with a 100 us half-life: the fixed point
        // of w = (w + 1) * 2^(-0.1) is ~14.9, bracketing the "10 arrivals
        // per window" intuition within its ~1.44x (1/ln 2) bias.
        let mut estimator = RateEstimator::new(100.0);
        let mut weight = 0.0;
        for i in 0..2000 {
            weight = estimator.observe(key(7), i as f64 * 10.0);
        }
        assert!((10.0..20.0).contains(&weight), "settled at {weight}");
    }

    #[test]
    #[should_panic(expected = "EWMA window must be finite and positive")]
    fn zero_windows_are_rejected() {
        RateEstimator::new(0.0);
    }
}
