//! Deterministic scenario workload generation: diurnal load curves, flash
//! crowds, and tenant churn on the virtual timeline — the traffic side of
//! fault-tolerance testing, pairing with [`FaultPlan`](crate::FaultPlan)'s
//! coordinated fault scripts.
//!
//! Everything here is a pure function of the [`ScenarioConfig`] (no host
//! clock, no host RNG): arrivals are emitted by integrating the modeled
//! rate curve — credit accumulates at `rate(t)` and each unit crossing
//! emits one arrival — and tenant picks hash the arrival index through
//! SplitMix64 against time-varying tenant weights. Re-running a scenario
//! reproduces the identical schedule, which is what lets the
//! fault-tolerance suite and the `fault_recovery` bench compare serves
//! bitwise across configurations.
//!
//! The rate curve is a product of three factors:
//!
//! * a **diurnal** triangle wave — rate swings ±`diurnal_amplitude` around
//!   the base over each `diurnal_period_us` (a triangle, not a sinusoid,
//!   so the curve is exactly reproducible arithmetic);
//! * **flash crowds** — each [`FlashCrowd`] multiplies the rate over its
//!   window (stacking multiplicatively when windows overlap);
//! * **tenant churn** — the hot tenant (weighted
//!   `hot_tenant_weight`-to-1 over the rest) rotates every
//!   `churn_period_us`, so kernel popularity shifts mid-serve the way a
//!   tenant mix does across a day.

use crate::route::splitmix64;

/// The shape of a generated workload. All fields are virtual-time or
/// dimensionless; degenerate values are sanitized by [`Scenario::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Base arrival rate, requests per millisecond of virtual time.
    pub base_rate_per_ms: f64,
    /// Length of the generated schedule, microseconds.
    pub duration_us: f64,
    /// Diurnal swing as a fraction of the base rate, clamped to [0, 1).
    pub diurnal_amplitude: f64,
    /// Period of the diurnal wave, microseconds (≤ 0 disables it).
    pub diurnal_period_us: f64,
    /// Number of tenants arrivals are attributed to (min 1).
    pub tenants: usize,
    /// Weight of the currently-hot tenant relative to each other tenant's
    /// weight of 1 (≤ 1 makes every tenant equal, ∞ sends every arrival to
    /// the hot tenant).
    pub hot_tenant_weight: f64,
    /// How often the hot tenant rotates, microseconds (≤ 0 pins tenant 0).
    pub churn_period_us: f64,
    /// Maximum pipeline depth an arrival expands to when the scenario feeds
    /// [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines) (min
    /// 1). Depth 1 keeps every arrival a plain single-stage request; deeper
    /// values let [`Scenario::pipeline_depth_at`] fan arrivals out into
    /// deterministic per-arrival chain lengths in `1..=pipeline_depth`.
    pub pipeline_depth: usize,
    /// Seed for the deterministic tenant-pick hash.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A flat, single-tenant arrival stream: `rate` requests per
    /// millisecond for `duration_us` — the steady-state baseline the
    /// fancier curves perturb.
    pub fn steady(rate_per_ms: f64, duration_us: f64) -> Self {
        ScenarioConfig {
            base_rate_per_ms: rate_per_ms,
            duration_us,
            diurnal_amplitude: 0.0,
            diurnal_period_us: 0.0,
            tenants: 1,
            hot_tenant_weight: 1.0,
            churn_period_us: 0.0,
            pipeline_depth: 1,
            seed: 0x5EED,
        }
    }
}

/// A bounded rate spike: the arrival rate is multiplied by `multiplier`
/// for `duration_us` starting at `start_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the crowd arrives, microseconds.
    pub start_us: f64,
    /// How long it stays, microseconds.
    pub duration_us: f64,
    /// Rate multiplier while it lasts (a non-finite one is ignored).
    pub multiplier: f64,
}

/// One generated arrival: when, and which tenant it belongs to. The caller
/// maps tenants onto kernels (each tenant's traffic is one kernel in the
/// serving example and the fault bench, which is what makes churn move the
/// hot kernel around the fleet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioArrival {
    /// Arrival time, microseconds of virtual time (non-decreasing across
    /// the generated schedule).
    pub arrival_us: f64,
    /// The tenant this arrival belongs to, `< config.tenants`.
    pub tenant: usize,
}

/// A deterministic workload generator over a [`ScenarioConfig`] plus any
/// number of [`FlashCrowd`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    config: ScenarioConfig,
    crowds: Vec<FlashCrowd>,
}

impl Scenario {
    /// A generator over `config`, with degenerate fields sanitized (at
    /// least one tenant, a finite non-negative rate and duration — a
    /// non-finite one is 0, so the schedule is empty — amplitude in [0, 1),
    /// and an infinite hot weight the largest finite one, which every draw
    /// falls under).
    pub fn new(mut config: ScenarioConfig) -> Self {
        let finite_or_zero = |value: f64| {
            if value.is_finite() {
                value.max(0.0)
            } else {
                0.0
            }
        };
        config.base_rate_per_ms = finite_or_zero(config.base_rate_per_ms);
        config.duration_us = finite_or_zero(config.duration_us);
        config.diurnal_amplitude = config.diurnal_amplitude.clamp(0.0, 0.999);
        config.tenants = config.tenants.max(1);
        let weight = config.hot_tenant_weight.max(1.0);
        config.hot_tenant_weight = if weight.is_finite() { weight } else { f64::MAX };
        config.pipeline_depth = config.pipeline_depth.max(1);
        Scenario {
            config,
            crowds: Vec::new(),
        }
    }

    /// Adds a flash crowd (overlapping crowds stack multiplicatively); one
    /// whose multiplier is not finite is ignored.
    #[must_use]
    pub fn with_flash_crowd(mut self, crowd: FlashCrowd) -> Self {
        if crowd.multiplier.is_finite() {
            self.crowds.push(crowd);
        }
        self
    }

    /// The configuration after sanitization.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The modeled arrival rate at virtual time `t_us`, requests per
    /// microsecond.
    pub fn rate_at(&self, t_us: f64) -> f64 {
        let config = &self.config;
        let mut rate = config.base_rate_per_ms / 1000.0;
        if config.diurnal_amplitude > 0.0 && config.diurnal_period_us > 0.0 {
            // Triangle wave in [-1, 1]: exact arithmetic, no libm.
            let phase = (t_us / config.diurnal_period_us).rem_euclid(1.0);
            let tri = if phase < 0.5 {
                4.0 * phase - 1.0
            } else {
                3.0 - 4.0 * phase
            };
            rate *= 1.0 + config.diurnal_amplitude * tri;
        }
        for crowd in &self.crowds {
            if t_us >= crowd.start_us && t_us < crowd.start_us + crowd.duration_us {
                rate *= crowd.multiplier.max(0.0);
            }
        }
        rate
    }

    /// The tenant currently hot at `t_us` (rotating with the churn period).
    pub fn hot_tenant_at(&self, t_us: f64) -> usize {
        let config = &self.config;
        if config.churn_period_us > 0.0 {
            (t_us / config.churn_period_us) as usize % config.tenants
        } else {
            0
        }
    }

    /// Generates the full arrival schedule: non-decreasing times within
    /// `[0, duration_us)`, each attributed to a tenant. Pure — every call
    /// returns the identical schedule.
    pub fn arrivals(&self) -> Vec<ScenarioArrival> {
        let config = &self.config;
        if config.base_rate_per_ms <= 0.0 || config.duration_us <= 0.0 {
            return Vec::new();
        }
        // Integrate the rate curve with a step sized so that even the peak
        // rate accrues well under one arrival per step (bounded below so a
        // degenerate config cannot spin forever).
        let peak_multiplier: f64 = self
            .crowds
            .iter()
            .map(|crowd| crowd.multiplier.max(1.0))
            .product();
        let peak_rate =
            (config.base_rate_per_ms / 1000.0) * (1.0 + config.diurnal_amplitude) * peak_multiplier;
        let step_us = (0.25 / peak_rate).max(config.duration_us / 4.0e6);
        let mut arrivals = Vec::new();
        let mut credit = 0.0;
        let mut t_us = 0.0;
        while t_us < config.duration_us {
            let step = step_us.min(config.duration_us - t_us);
            credit += self.rate_at(t_us) * step;
            t_us += step;
            while credit >= 1.0 {
                credit -= 1.0;
                let index = arrivals.len() as u64;
                let tenant = self.pick_tenant(index, t_us);
                arrivals.push(ScenarioArrival {
                    arrival_us: t_us,
                    tenant,
                });
            }
        }
        arrivals
    }

    /// The pipeline depth arrival `index` expands to: a deterministic draw
    /// in `1..=pipeline_depth`, hashed from the seed like the tenant pick —
    /// a pure function of the config, no host RNG. With the default depth
    /// of 1 every arrival stays a plain single-stage request, which is what
    /// keeps scenario-driven pipeline serves equivalence-pinned to the
    /// plain serve.
    pub fn pipeline_depth_at(&self, index: u64) -> usize {
        let depth = self.config.pipeline_depth;
        if depth <= 1 {
            return 1;
        }
        let hash = splitmix64(self.config.seed ^ splitmix64(index ^ 0xD9A6));
        1 + (hash % depth as u64) as usize
    }

    /// The deterministic weighted tenant pick for arrival `index` at time
    /// `t_us`: the hot tenant carries `hot_tenant_weight`, the rest 1.
    fn pick_tenant(&self, index: u64, t_us: f64) -> usize {
        let config = &self.config;
        if config.tenants == 1 {
            return 0;
        }
        let hot = self.hot_tenant_at(t_us);
        let total = config.tenants as f64 - 1.0 + config.hot_tenant_weight;
        let hash = splitmix64(config.seed ^ splitmix64(index));
        let draw = (hash >> 11) as f64 / (1u64 << 53) as f64 * total;
        if draw < config.hot_tenant_weight {
            return hot;
        }
        let rest = (draw - config.hot_tenant_weight) as usize;
        // Map the remainder onto the non-hot tenants in id order.
        let tenant = if rest < hot { rest } else { rest + 1 };
        tenant.min(config.tenants - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_ordered() {
        let scenario = Scenario::new(ScenarioConfig {
            base_rate_per_ms: 4.0,
            duration_us: 10_000.0,
            diurnal_amplitude: 0.5,
            diurnal_period_us: 4_000.0,
            tenants: 4,
            hot_tenant_weight: 4.0,
            churn_period_us: 2_500.0,
            pipeline_depth: 3,
            seed: 7,
        })
        .with_flash_crowd(FlashCrowd {
            start_us: 3_000.0,
            duration_us: 1_000.0,
            multiplier: 3.0,
        });
        let first = scenario.arrivals();
        let second = scenario.arrivals();
        assert_eq!(first, second, "pure function of the config");
        assert!(!first.is_empty());
        for pair in first.windows(2) {
            assert!(pair[0].arrival_us <= pair[1].arrival_us, "non-decreasing");
        }
        for arrival in &first {
            assert!(arrival.arrival_us >= 0.0 && arrival.arrival_us <= 10_000.0);
            assert!(arrival.tenant < 4);
        }
    }

    #[test]
    fn steady_scenarios_hit_the_configured_rate() {
        let scenario = Scenario::new(ScenarioConfig::steady(2.0, 50_000.0));
        let arrivals = scenario.arrivals();
        // 2 / ms over 50 ms ≈ 100 arrivals; integration is near-exact.
        assert!(
            (arrivals.len() as f64 - 100.0).abs() <= 2.0,
            "got {}",
            arrivals.len()
        );
        assert!(arrivals.iter().all(|a| a.tenant == 0), "single tenant");
        assert_eq!(scenario.rate_at(0.0), scenario.rate_at(25_000.0));
    }

    #[test]
    fn flash_crowds_concentrate_arrivals() {
        let base = Scenario::new(ScenarioConfig::steady(1.0, 20_000.0));
        let crowded = base.clone().with_flash_crowd(FlashCrowd {
            start_us: 5_000.0,
            duration_us: 5_000.0,
            multiplier: 4.0,
        });
        let count_in = |arrivals: &[ScenarioArrival], lo: f64, hi: f64| {
            arrivals
                .iter()
                .filter(|a| a.arrival_us >= lo && a.arrival_us < hi)
                .count()
        };
        let plain = base.arrivals();
        let burst = crowded.arrivals();
        assert!(burst.len() > plain.len());
        let window = count_in(&burst, 5_000.0, 10_000.0);
        let outside = count_in(&burst, 0.0, 5_000.0);
        assert!(
            window > 3 * outside,
            "crowd window {window} vs steady {outside}"
        );
        assert_eq!(crowded.rate_at(7_000.0), 4.0 * crowded.rate_at(1_000.0));
    }

    #[test]
    fn diurnal_wave_moves_the_rate_and_stays_positive() {
        let scenario = Scenario::new(ScenarioConfig {
            diurnal_amplitude: 0.8,
            diurnal_period_us: 8_000.0,
            ..ScenarioConfig::steady(2.0, 8_000.0)
        });
        // Triangle: trough at phase 0, peak at phase 0.5.
        let trough = scenario.rate_at(0.0);
        let peak = scenario.rate_at(4_000.0);
        assert!(peak > trough);
        assert!((peak - 2.0e-3 * 1.8).abs() < 1e-12);
        assert!((trough - 2.0e-3 * 0.2).abs() < 1e-12);
        // The wave is periodic.
        assert_eq!(scenario.rate_at(1_000.0), scenario.rate_at(9_000.0));
    }

    #[test]
    fn tenant_churn_rotates_the_hot_tenant() {
        let scenario = Scenario::new(ScenarioConfig {
            tenants: 3,
            hot_tenant_weight: 30.0,
            churn_period_us: 10_000.0,
            ..ScenarioConfig::steady(4.0, 30_000.0)
        });
        assert_eq!(scenario.hot_tenant_at(0.0), 0);
        assert_eq!(scenario.hot_tenant_at(15_000.0), 1);
        assert_eq!(scenario.hot_tenant_at(25_000.0), 2);
        let arrivals = scenario.arrivals();
        let dominant = |lo: f64, hi: f64| {
            let mut counts = [0usize; 3];
            for arrival in arrivals
                .iter()
                .filter(|a| a.arrival_us >= lo && a.arrival_us < hi)
            {
                counts[arrival.tenant] += 1;
            }
            (0..3).max_by_key(|&t| counts[t]).unwrap()
        };
        assert_eq!(dominant(0.0, 10_000.0), 0);
        assert_eq!(dominant(10_000.0, 20_000.0), 1);
        assert_eq!(dominant(20_000.0, 30_000.0), 2);
    }

    #[test]
    fn pipeline_depths_are_deterministic_and_bounded() {
        let flat = Scenario::new(ScenarioConfig::steady(2.0, 10_000.0));
        assert_eq!(flat.config().pipeline_depth, 1, "steady is single-stage");
        assert!((0..64).all(|i| flat.pipeline_depth_at(i) == 1));
        let deep = Scenario::new(ScenarioConfig {
            pipeline_depth: 4,
            ..ScenarioConfig::steady(2.0, 10_000.0)
        });
        let depths: Vec<usize> = (0..256).map(|i| deep.pipeline_depth_at(i)).collect();
        assert!(depths.iter().all(|&d| (1..=4).contains(&d)));
        // Every depth in the range shows up, and re-draws are identical.
        for want in 1..=4 {
            assert!(depths.contains(&want), "depth {want} never drawn");
        }
        let again: Vec<usize> = (0..256).map(|i| deep.pipeline_depth_at(i)).collect();
        assert_eq!(depths, again, "pure function of the config");
    }

    #[test]
    fn degenerate_configs_are_sanitized_not_loops() {
        let empty = Scenario::new(ScenarioConfig::steady(0.0, 1_000.0));
        assert!(empty.arrivals().is_empty());
        let none = Scenario::new(ScenarioConfig::steady(5.0, 0.0));
        assert!(none.arrivals().is_empty());
        let weird = Scenario::new(ScenarioConfig {
            tenants: 0,
            diurnal_amplitude: 9.0,
            hot_tenant_weight: -3.0,
            duration_us: f64::INFINITY,
            pipeline_depth: 0,
            ..ScenarioConfig::steady(1.0, 1_000.0)
        });
        assert_eq!(weird.config().tenants, 1);
        assert_eq!(weird.config().pipeline_depth, 1);
        assert_eq!(weird.pipeline_depth_at(9), 1);
        assert!(weird.config().diurnal_amplitude < 1.0);
        assert_eq!(weird.config().hot_tenant_weight, 1.0);
        assert_eq!(weird.config().duration_us, 0.0);
        assert!(weird.arrivals().is_empty());
        for rate in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let scenario = Scenario::new(ScenarioConfig::steady(rate, 10.0));
            assert_eq!(scenario.config().base_rate_per_ms, 0.0);
            assert!(scenario.arrivals().is_empty());
        }
        let steady = Scenario::new(ScenarioConfig::steady(5.0, 10_000.0));
        for multiplier in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let crowd = FlashCrowd {
                start_us: 1_000.0,
                duration_us: 1_000.0,
                multiplier,
            };
            let crowded = steady.clone().with_flash_crowd(crowd);
            assert_eq!(crowded, steady, "a non-finite crowd is ignored");
        }
        let hot = Scenario::new(ScenarioConfig {
            tenants: 4,
            hot_tenant_weight: f64::INFINITY,
            ..ScenarioConfig::steady(5.0, 10_000.0)
        });
        let arrivals = hot.arrivals();
        assert_eq!(arrivals.len(), 50);
        assert!(arrivals.iter().all(|arrival| arrival.tenant == 0));
    }
}
