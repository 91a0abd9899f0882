//! Rate-driven kernel replication across the cluster: hot kernel images are
//! pushed to the least-loaded devices *ahead of demand*, so routing's
//! completion estimates find warm replicas instead of charging transfers.
//!
//! The `Replicator` is fed from the routing tier (which sees every
//! submission) through a per-kernel [`RateEstimator`]: each arrival bumps
//! the kernel's decayed weight, and a kernel crossing
//! [`hot_threshold`](ReplicationConfig::hot_threshold) has its compiled
//! image pushed — via the same
//! [`KernelCache::get_or_share`](crate::KernelCache::get_or_share) adoption
//! path demand acquisition uses — onto the
//! [`fanout`](ReplicationConfig::fanout) least-loaded devices that do not
//! already hold it. The modeled push cost (the
//! [`TransferModel`](crate::TransferModel)'s cheapest source, exactly what
//! a demand fetch would have charged a request) is accounted in
//! [`ReplicationStats`] as prefetch
//! traffic riding the otherwise-idle link, off the request critical path.
//!
//! Under store pressure (a push targeting a full device store) the
//! replicator first *demotes* one of its own pushed replicas whose kernel
//! has gone cold (weight below
//! [`demote_threshold`](ReplicationConfig::demote_threshold)) instead of
//! letting LRU eviction pick a victim blindly; a home-compiled image is
//! never demoted (only pushed replicas are tracked).

use crate::cache::KernelKey;
use crate::control::estimate::RateEstimator;
use crate::metrics::ReplicationStats;

/// Configuration of the rate-driven replication layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationConfig {
    /// How many least-loaded devices a hot kernel's image is pushed toward
    /// (devices already holding the image count toward the fanout). `0`
    /// disables replication.
    pub fanout: usize,
    /// Decayed arrival weight (≈ arrivals per window, see
    /// [`RateEstimator`]) at which a kernel counts as hot.
    pub hot_threshold: f64,
    /// Half-life of the per-kernel rate EWMA, microseconds of virtual time.
    pub window_us: f64,
    /// Pushed replicas whose kernel weight has decayed below this are
    /// demotion candidates under store pressure.
    pub demote_threshold: f64,
}

impl ReplicationConfig {
    /// Replication off: no estimator feed, no pushes, no demotions.
    pub const fn disabled() -> Self {
        ReplicationConfig {
            fanout: 0,
            hot_threshold: f64::INFINITY,
            window_us: 1.0,
            demote_threshold: 0.0,
        }
    }

    /// Replication toward `fanout` devices once a kernel sustains roughly
    /// `hot_threshold` arrivals per `window_us`, demoting below a quarter of
    /// the trigger rate.
    pub const fn new(fanout: usize, hot_threshold: f64, window_us: f64) -> Self {
        ReplicationConfig {
            fanout,
            hot_threshold,
            window_us,
            demote_threshold: hot_threshold / 4.0,
        }
    }

    /// Overrides the demotion threshold.
    #[must_use]
    pub const fn with_demote_threshold(mut self, demote_threshold: f64) -> Self {
        self.demote_threshold = demote_threshold;
        self
    }

    /// Whether the replicator can ever push.
    pub fn enabled(&self) -> bool {
        self.fanout > 0
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-serve replication state: the rate estimator, the per-device sets of
/// pushed replicas (in push order, for deterministic demotion) and the
/// replication counters. The cluster event loop drives it at every arrival.
#[derive(Debug)]
pub(crate) struct Replicator {
    config: ReplicationConfig,
    estimator: RateEstimator,
    /// Per device: replicas this replicator pushed, oldest first. Home
    /// compiles and demand adoptions are *not* tracked — demotion only ever
    /// removes what replication added.
    pushed: Vec<Vec<KernelKey>>,
    /// Distinct kernels that ever crossed the hot threshold.
    hot: Vec<KernelKey>,
    stats: ReplicationStats,
}

impl Replicator {
    pub(crate) fn new(config: ReplicationConfig, devices: usize) -> Self {
        // Sanitize the window: the estimator demands finite-positive, but a
        // serve must never panic over a degenerate (or disabled) config.
        let window_us = if config.window_us.is_finite() && config.window_us > 0.0 {
            config.window_us
        } else {
            1.0
        };
        Replicator {
            estimator: RateEstimator::new(window_us),
            config,
            pushed: vec![Vec::new(); devices],
            hot: Vec::new(),
            stats: ReplicationStats::default(),
        }
    }

    pub(crate) fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Feeds one routed submission into the rate estimate; returns whether
    /// the kernel is (now) hot and should be replicated.
    pub(crate) fn observe(&mut self, key: KernelKey, now_us: f64) -> bool {
        let weight = self.estimator.observe(key, now_us);
        let hot = weight >= self.config.hot_threshold;
        if hot && !self.hot.contains(&key) {
            self.hot.push(key);
            self.stats.hot_kernels += 1;
        }
        hot
    }

    /// The oldest pushed replica on `device` whose kernel has gone cold —
    /// the victim a pressured push demotes instead of trusting LRU.
    pub(crate) fn demotion_candidate(&self, device: usize, now_us: f64) -> Option<KernelKey> {
        self.pushed[device]
            .iter()
            .find(|key| self.estimator.weight(key, now_us) < self.config.demote_threshold)
            .copied()
    }

    /// Records a committed push of `key`'s image (of `bytes`) onto `device`
    /// at modeled prefetch cost `cost_us`.
    pub(crate) fn note_pushed(
        &mut self,
        device: usize,
        key: KernelKey,
        bytes: usize,
        cost_us: f64,
    ) {
        self.pushed[device].push(key);
        self.stats.replicas_pushed += 1;
        self.stats.bytes_prefetched += bytes as u64;
        self.stats.prefetch_us += cost_us;
    }

    /// Records a demotion of `key`'s replica from `device`.
    pub(crate) fn note_demoted(&mut self, device: usize, key: KernelKey) {
        self.pushed[device].retain(|pushed| *pushed != key);
        self.stats.replicas_demoted += 1;
    }

    /// Takes the full list of replicas pushed to `device`, leaving it
    /// empty — used when fault injection kills the device and its pushed
    /// replicas must be re-homed elsewhere.
    pub(crate) fn drain_device(&mut self, device: usize) -> Vec<KernelKey> {
        std::mem::take(&mut self.pushed[device])
    }

    /// Stops tracking a pushed replica that is no longer in the device's
    /// store (demand-path LRU evicted it) — not a demotion.
    pub(crate) fn forget(&mut self, device: usize, key: KernelKey) {
        self.pushed[device].retain(|pushed| *pushed != key);
    }

    /// The accumulated replication counters for this serve.
    pub(crate) fn stats(&self) -> ReplicationStats {
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

    #[test]
    fn degenerate_windows_are_sanitized_not_panics() {
        for window_us in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let config = ReplicationConfig {
                window_us,
                ..ReplicationConfig::disabled()
            };
            let mut replicator = Replicator::new(config, 2);
            assert!(!replicator.observe(key(1), 0.0));
        }
    }

    #[test]
    fn disabled_config_never_reports_hot() {
        let mut replicator = Replicator::new(ReplicationConfig::disabled(), 2);
        assert!(!replicator.config().enabled());
        for _ in 0..100 {
            assert!(!replicator.observe(key(1), 0.0));
        }
        assert_eq!(replicator.stats(), ReplicationStats::default());
    }

    #[test]
    fn kernels_cross_the_hot_threshold_once() {
        let mut replicator = Replicator::new(ReplicationConfig::new(2, 3.0, 100.0), 2);
        assert!(!replicator.observe(key(1), 0.0));
        assert!(!replicator.observe(key(1), 0.0));
        assert!(
            replicator.observe(key(1), 0.0),
            "third burst arrival is hot"
        );
        assert!(replicator.observe(key(1), 0.0));
        assert_eq!(replicator.stats().hot_kernels, 1, "counted once");
        // A long quiet gap cools the kernel back below the threshold.
        assert!(!replicator.observe(key(1), 10_000.0));
    }

    #[test]
    fn demotion_picks_the_oldest_cold_replica_and_tracks_stats() {
        let config = ReplicationConfig::new(1, 2.0, 100.0);
        let mut replicator = Replicator::new(config, 2);
        // Kernel 1 and 2 pushed onto device 0; kernel 2 stays hot.
        replicator.observe(key(1), 0.0);
        replicator.note_pushed(0, key(1), 64, 1.5);
        replicator.note_pushed(0, key(2), 128, 0.5);
        for i in 0..8 {
            replicator.observe(key(2), 400.0 + i as f64);
        }
        // By t=400 kernel 1's weight decayed to ~0.06 < 0.5; kernel 2 ~8.
        let victim = replicator.demotion_candidate(0, 400.0);
        assert_eq!(victim, Some(key(1)), "cold replica is the victim");
        replicator.note_demoted(0, key(1));
        assert_eq!(replicator.demotion_candidate(0, 400.0), None);
        assert_eq!(replicator.demotion_candidate(1, 400.0), None, "per device");
        let stats = replicator.stats();
        assert_eq!(stats.replicas_pushed, 2);
        assert_eq!(stats.replicas_demoted, 1);
        assert_eq!(stats.bytes_prefetched, 192);
        assert!((stats.prefetch_us - 2.0).abs() < 1e-12);
    }
}
