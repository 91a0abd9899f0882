//! Fault injection at the cluster tier: scheduled device death, revival,
//! graceful drain, and link degradation on the virtual timeline.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s installed on a
//! [`Cluster`](crate::Cluster) via
//! [`with_fault_plan`](crate::Cluster::with_fault_plan). At serve time the
//! plan is validated against the fleet, its events are scheduled into the
//! same virtual-time [`EventQueue`](crate::event::EventQueue) that drives
//! arrivals and tile completions, and the cluster event loop reacts when
//! they fire:
//!
//! * **[`Kill`](FaultKind::Kill)** — the device vanishes mid-flight: its
//!   running requests are abandoned (their progress counted as lost work),
//!   its queued requests are displaced, and both requeue through the
//!   routing tier with the dead device in their per-request exclusion set.
//!   Its kernel store is wiped (a revived device comes back cold).
//! * **[`Drain`](FaultKind::Drain)** — graceful: the device stops admitting
//!   (every routing policy skips it) but
//!   running work finishes; queued-but-not-started requests requeue
//!   elsewhere. The rolling-upgrade primitive.
//! * **[`Revive`](FaultKind::Revive)** / **[`Undrain`](FaultKind::Undrain)**
//!   — the device rejoins routing (cold after a kill, warm after a drain);
//!   its downtime is charged to the per-device availability metric.
//! * **[`DegradeLinks`](FaultKind::DegradeLinks)** — the inter-device link
//!   is slowed by a multiplier (the [`route`](crate::route) module's
//!   transfer model, degraded): peer transfers get pricier and acquisition
//!   shifts toward host loads, in both the charged costs and the completion
//!   estimates routing compares.
//!
//! With no plan installed (the default) nothing is scheduled: a fleet serve
//! arms its fault state from no events and every device stays available,
//! so the serve is bitwise identical to one under an empty plan — both are
//! held to the reference serve of `tests/support/reference.rs`, which also
//! restates every fault's reaction. The zero-loss invariant under
//! faults — every admitted request appears exactly once in outcomes or
//! rejects as long as one device survives — is pinned by
//! `tests/fault_tolerance.rs`.

pub mod scenario;

use crate::error::RuntimeError;

/// What a scheduled fault does to the fleet when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device dies abruptly: running work is lost and requeued, the
    /// kernel store is wiped, routing excludes it until a `Revive`.
    Kill {
        /// The device that dies.
        device: usize,
    },
    /// A killed device rejoins the fleet, cold (empty kernel store).
    Revive {
        /// The device that comes back.
        device: usize,
    },
    /// The device stops admitting new work but finishes what is running;
    /// queued-but-not-started requests requeue elsewhere.
    Drain {
        /// The device being drained.
        device: usize,
    },
    /// A drained device admits again (its kernel store stayed warm).
    Undrain {
        /// The device that rejoins admission.
        device: usize,
    },
    /// The inter-device link is slowed by this factor from now on (`1.0`
    /// restores full speed). Applies to transfer pricing fleet-wide.
    DegradeLinks {
        /// Multiplier on per-hop latency and per-byte link cost.
        multiplier: f64,
    },
}

impl FaultKind {
    /// The device the fault targets (`None` for fleet-wide faults).
    pub fn device(&self) -> Option<usize> {
        match *self {
            FaultKind::Kill { device }
            | FaultKind::Revive { device }
            | FaultKind::Drain { device }
            | FaultKind::Undrain { device } => Some(device),
            FaultKind::DegradeLinks { .. } => None,
        }
    }

    /// The fault's export label (what trace spans carry).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Kill { .. } => "kill",
            FaultKind::Revive { .. } => "revive",
            FaultKind::Drain { .. } => "drain",
            FaultKind::Undrain { .. } => "undrain",
            FaultKind::DegradeLinks { .. } => "degrade-links",
        }
    }
}

/// One scheduled fault on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires, microseconds.
    pub time_us: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A schedule of faults to inject into a serve, built fluently:
///
/// ```
/// use overlay_runtime::FaultPlan;
/// let plan = FaultPlan::new()
///     .kill(500.0, 2)
///     .degrade_links(800.0, 4.0)
///     .revive(1500.0, 2);
/// assert_eq!(plan.events().len(), 3);
/// ```
///
/// Events may be added in any order; the serve sorts them by time (stable,
/// so same-instant faults apply in insertion order). An empty plan is
/// indistinguishable from no plan at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary fault event.
    #[must_use]
    pub fn with_event(mut self, time_us: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { time_us, kind });
        self
    }

    /// Kills `device` at `time_us`.
    #[must_use]
    pub fn kill(self, time_us: f64, device: usize) -> Self {
        self.with_event(time_us, FaultKind::Kill { device })
    }

    /// Revives `device` at `time_us` (cold store).
    #[must_use]
    pub fn revive(self, time_us: f64, device: usize) -> Self {
        self.with_event(time_us, FaultKind::Revive { device })
    }

    /// Starts a graceful drain of `device` at `time_us`.
    #[must_use]
    pub fn drain(self, time_us: f64, device: usize) -> Self {
        self.with_event(time_us, FaultKind::Drain { device })
    }

    /// Ends the drain of `device` at `time_us`.
    #[must_use]
    pub fn undrain(self, time_us: f64, device: usize) -> Self {
        self.with_event(time_us, FaultKind::Undrain { device })
    }

    /// Sets the fleet-wide link multiplier at `time_us`.
    #[must_use]
    pub fn degrade_links(self, time_us: f64, multiplier: f64) -> Self {
        self.with_event(time_us, FaultKind::DegradeLinks { multiplier })
    }

    /// Appends every event of `other` (compose coordinated scripts).
    #[must_use]
    pub fn merged(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self
    }

    /// A coordinated rolling-upgrade script: each of `devices` is drained
    /// in turn (`stagger_us` apart, starting at `start_us`), held down for
    /// `down_us`, then undrained — at most one device out at a time when
    /// `stagger_us >= down_us`.
    #[must_use]
    pub fn rolling_upgrade(devices: usize, start_us: f64, down_us: f64, stagger_us: f64) -> Self {
        let mut plan = FaultPlan::new();
        for device in 0..devices {
            let at = start_us + device as f64 * stagger_us;
            plan = plan.drain(at, device).undrain(at + down_us, device);
        }
        plan
    }

    /// A device blip: `device` dies at `at_us` and revives `down_us` later.
    #[must_use]
    pub fn blip(device: usize, at_us: f64, down_us: f64) -> Self {
        FaultPlan::new()
            .kill(at_us, device)
            .revive(at_us + down_us, device)
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates the plan against a fleet of `devices`: rejects non-finite
    /// or negative times, device targets outside the fleet, and
    /// non-positive or non-finite link multipliers.
    fn validate(&self, devices: usize) -> Result<(), RuntimeError> {
        for event in &self.events {
            if !event.time_us.is_finite() || event.time_us < 0.0 {
                return Err(RuntimeError::InvalidFaultPlan {
                    reason: format!(
                        "{} fault at non-finite or negative time {} us",
                        event.kind.label(),
                        event.time_us
                    ),
                });
            }
            if let Some(device) = event.kind.device() {
                if device >= devices {
                    return Err(RuntimeError::InvalidFaultPlan {
                        reason: format!(
                            "{} targets device {device} but the cluster has {devices}",
                            event.kind.label()
                        ),
                    });
                }
            }
            if let FaultKind::DegradeLinks { multiplier } = event.kind {
                if !multiplier.is_finite() || multiplier <= 0.0 {
                    return Err(RuntimeError::InvalidFaultPlan {
                        reason: format!("link multiplier {multiplier} must be finite and > 0"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// One device's fault flags and accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviceFaults {
    /// Not currently killed.
    pub(crate) alive: bool,
    /// Currently draining (alive but not admitting).
    draining: bool,
    /// When the current unavailability window opened.
    down_since: Option<f64>,
    /// Accumulated closed unavailability windows, microseconds.
    unavailable_us: f64,
    /// Kills + drains that hit it.
    pub(crate) faults: usize,
    /// Requests displaced off it (queued or running).
    pub(crate) requeues: usize,
    /// Virtual microseconds of started-but-abandoned work.
    pub(crate) lost_work_us: f64,
}

impl DeviceFaults {
    /// A device no fault has touched.
    const PRISTINE: DeviceFaults = DeviceFaults {
        alive: true,
        draining: false,
        down_since: None,
        unavailable_us: 0.0,
        faults: 0,
        requeues: 0,
        lost_work_us: 0.0,
    };

    /// Whether the device currently admits routed work.
    fn available(&self) -> bool {
        self.alive && !self.draining
    }

    /// Opens or closes the device's unavailability window after a flag
    /// flip. Idempotent for same-state repeats (killing a dead device or
    /// draining a drained one extends the same window).
    fn note_transition(&mut self, now_us: f64) {
        if self.available() {
            if let Some(since) = self.down_since.take() {
                self.unavailable_us += (now_us - since).max(0.0);
            }
        } else if self.down_since.is_none() {
            self.down_since = Some(now_us);
        }
    }

    /// The device's total unavailable time by the end of a serve spanning
    /// `makespan_us` (closing any still-open window).
    fn unavailable_total_us(&self, makespan_us: f64) -> f64 {
        let open = self
            .down_since
            .map_or(0.0, |since| (makespan_us - since).max(0.0));
        self.unavailable_us + open
    }

    /// The fraction of the serve's makespan the device was admitting work
    /// (1.0 for a zero-length serve, clamped to [0, 1]).
    pub(crate) fn availability(&self, makespan_us: f64) -> f64 {
        if makespan_us <= 0.0 {
            return 1.0;
        }
        (1.0 - self.unavailable_total_us(makespan_us) / makespan_us).clamp(0.0, 1.0)
    }
}

/// Per-serve fault state: the validated schedule, the live fleet flags, and
/// the availability/requeue accounting the cluster loop maintains as faults
/// fire. Re-armed on every fleet serve — from the installed plan, or from no
/// events when none is installed — in place, so a warm serve allocates
/// nothing for it. Until its first arming it has no device rows and every
/// device reads as untouched: a plain-tier serve never arms it.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// The validated, time-sorted schedule.
    pub(crate) events: Vec<FaultEvent>,
    /// Fleet-wide link slowdown currently in force.
    pub(crate) link_multiplier: f64,
    /// Per device: flags and accounting.
    devices: Vec<DeviceFaults>,
}

impl FaultState {
    /// An unarmed state: no schedule, no device rows, full-speed links.
    pub(crate) const fn new() -> Self {
        FaultState {
            events: Vec::new(),
            link_multiplier: 1.0,
            devices: Vec::new(),
        }
    }

    /// Arms the state for a serve on `devices` devices: validates `plan`
    /// (no plan schedules nothing), takes its events sorted by time
    /// (stable: same-instant faults keep insertion order) and resets every
    /// flag and counter. On an invalid plan the state is left as it was.
    pub(crate) fn arm(
        &mut self,
        plan: Option<&FaultPlan>,
        devices: usize,
    ) -> Result<(), RuntimeError> {
        let events: &[FaultEvent] = match plan {
            Some(plan) => {
                plan.validate(devices)?;
                plan.events()
            }
            None => &[],
        };
        self.events.clear();
        self.events.extend_from_slice(events);
        self.events.sort_by(|a, b| a.time_us.total_cmp(&b.time_us));
        self.link_multiplier = 1.0;
        self.devices.clear();
        self.devices.resize(devices, DeviceFaults::PRISTINE);
        Ok(())
    }

    /// `device`'s flags and accounting (untouched before the first arming).
    pub(crate) fn device(&self, device: usize) -> &DeviceFaults {
        self.devices.get(device).unwrap_or(&DeviceFaults::PRISTINE)
    }

    /// `device`'s row, to account a requeue or lost work on an armed state.
    pub(crate) fn device_mut(&mut self, device: usize) -> &mut DeviceFaults {
        &mut self.devices[device]
    }

    /// Whether `device` is not currently killed.
    pub(crate) fn alive(&self, device: usize) -> bool {
        self.device(device).alive
    }

    /// Whether `device` currently admits routed work.
    pub(crate) fn available(&self, device: usize) -> bool {
        self.device(device).available()
    }

    /// Applies fault `index` of the schedule at virtual time `now_us`,
    /// flipping the fleet flags and the availability accounting. The caller
    /// (the cluster loop) performs the structural reaction — requeues,
    /// store wipes — based on the returned kind.
    pub(crate) fn apply(&mut self, index: usize, now_us: f64) -> FaultKind {
        let kind = self.events[index].kind;
        match kind {
            FaultKind::Kill { device } => {
                self.devices[device].alive = false;
                self.devices[device].faults += 1;
            }
            FaultKind::Revive { device } => {
                self.devices[device].alive = true;
                self.devices[device].draining = false;
            }
            FaultKind::Drain { device } => {
                self.devices[device].draining = true;
                self.devices[device].faults += 1;
            }
            FaultKind::Undrain { device } => {
                self.devices[device].draining = false;
            }
            FaultKind::DegradeLinks { multiplier } => {
                self.link_multiplier = multiplier;
            }
        }
        if let Some(device) = kind.device() {
            self.devices[device].note_transition(now_us);
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state armed with `plan` for a fleet of `devices`.
    fn armed(plan: &FaultPlan, devices: usize) -> Result<FaultState, RuntimeError> {
        let mut state = FaultState::new();
        state.arm(Some(plan), devices)?;
        Ok(state)
    }

    #[test]
    fn plans_build_fluently_and_validate_sorted() {
        let plan = FaultPlan::new()
            .revive(900.0, 1)
            .kill(100.0, 1)
            .degrade_links(400.0, 8.0);
        assert_eq!(plan.events().len(), 3);
        assert!(!plan.is_empty());
        let events = armed(&plan, 2).expect("valid plan").events;
        assert!((events[0].time_us, events[1].time_us, events[2].time_us) == (100.0, 400.0, 900.0));
        assert!(matches!(events[0].kind, FaultKind::Kill { device: 1 }));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn validation_rejects_bad_times_devices_and_multipliers() {
        for (plan, needle) in [
            (FaultPlan::new().kill(-1.0, 0), "negative time"),
            (FaultPlan::new().kill(f64::NAN, 0), "non-finite"),
            (FaultPlan::new().drain(5.0, 9), "device 9"),
            (FaultPlan::new().degrade_links(5.0, 0.0), "multiplier"),
            (
                FaultPlan::new().degrade_links(5.0, f64::INFINITY),
                "multiplier",
            ),
        ] {
            let err = armed(&plan, 4).expect_err("must reject");
            assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
        }
        // A rejected plan leaves an armed state as it was.
        let mut state = armed(&FaultPlan::new().kill(5.0, 1), 2).unwrap();
        assert!(state.arm(Some(&FaultPlan::new().drain(5.0, 9)), 2).is_err());
        assert_eq!(state.events.len(), 1);
    }

    #[test]
    fn scripts_compose_rolling_upgrades_and_blips() {
        let upgrade = FaultPlan::rolling_upgrade(3, 100.0, 50.0, 200.0);
        assert_eq!(upgrade.events().len(), 6);
        let events = armed(&upgrade, 3).unwrap().events;
        // Drain/undrain alternate and at most one device is out at a time.
        assert!(matches!(events[0].kind, FaultKind::Drain { device: 0 }));
        assert!(matches!(events[1].kind, FaultKind::Undrain { device: 0 }));
        assert!(matches!(events[2].kind, FaultKind::Drain { device: 1 }));
        let blip = FaultPlan::blip(2, 300.0, 75.0);
        let merged = upgrade.merged(blip);
        assert_eq!(merged.events().len(), 8);
        assert!(armed(&merged, 2).is_err(), "blip device out of range");
    }

    #[test]
    fn fault_state_tracks_flags_and_availability_windows() {
        let plan = FaultPlan::new()
            .kill(100.0, 0)
            .drain(100.0, 1)
            .revive(300.0, 0)
            .undrain(250.0, 1)
            .degrade_links(150.0, 4.0);
        let mut state = armed(&plan, 2).unwrap();
        assert!(state.available(0) && state.available(1));
        assert_eq!(state.link_multiplier, 1.0);

        assert!(matches!(
            state.apply(0, 100.0),
            FaultKind::Kill { device: 0 }
        ));
        assert!(matches!(
            state.apply(1, 100.0),
            FaultKind::Drain { device: 1 }
        ));
        assert!(!state.available(0) && !state.available(1));
        assert!(!state.alive(0) && state.alive(1));

        assert!(matches!(
            state.apply(2, 150.0),
            FaultKind::DegradeLinks { .. }
        ));
        assert_eq!(state.link_multiplier, 4.0);

        state.apply(3, 250.0); // undrain device 1
        state.apply(4, 300.0); // revive device 0
        assert!(state.available(0) && state.available(1));
        let (zero, one) = (state.device(0), state.device(1));
        assert_eq!(zero.unavailable_total_us(1000.0), 200.0);
        assert_eq!(one.unavailable_total_us(1000.0), 150.0);
        assert_eq!(zero.availability(1000.0), 0.8);
        assert_eq!(one.availability(1000.0), 0.85);
        assert_eq!((zero.faults, one.faults), (1, 1));

        // Re-arming resets every flag and counter in place.
        state.apply(0, 1100.0);
        state.arm(None, 2).unwrap();
        assert!(state.events.is_empty() && state.link_multiplier == 1.0);
        assert!(state.available(0) && state.device(0).faults == 0);
        assert_eq!(state.device(0).availability(1000.0), 1.0);
    }

    #[test]
    fn open_windows_close_at_makespan_and_degenerate_serves_are_full() {
        let mut state = armed(&FaultPlan::new().kill(400.0, 0), 1).unwrap();
        state.apply(0, 400.0);
        assert_eq!(state.device(0).unavailable_total_us(1000.0), 600.0);
        assert_eq!(state.device(0).availability(1000.0), 0.4);
        // Makespan before the fault: nothing lost, clamped sane.
        assert_eq!(state.device(0).availability(0.0), 1.0);
        // Armed from no plan, or never armed at all: every device is whole.
        let mut fresh = FaultState::new();
        for armed in [false, true] {
            if armed {
                fresh.arm(None, 1).unwrap();
            }
            assert!(fresh.available(0));
            assert_eq!(fresh.device(0).availability(0.0), 1.0);
            assert_eq!(fresh.device(0).availability(500.0), 1.0);
        }
    }
}
