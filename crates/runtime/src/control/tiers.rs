//! The optional tiers of a serve: same-kernel batching and a pipeline
//! serve's session driver, in one [`Tiers`] that every serve's event loop
//! holds. The loop's phases (intake, admit, route, run, commit) are fixed
//! and call a `Tiers` method at each phase where a tier acts; each method
//! does nothing while its tier is off. The methods the loop calls per
//! request are inlined, so an off tier costs a field test, not a call.
//! Sessions run only on fleet serves, and the plain tier's loop does not
//! call their methods.
//!
//! `Tiers` is part of the cluster, not a layer over it: its methods read and
//! edit the cluster's devices (kernel stores, pool depths, fault flags) as
//! the loop does. What it separates is naming — the loop calls the phases,
//! and only this module knows which tier acts in each.

use crate::cache::KernelKey;
use crate::cluster::Cluster;
use crate::control::BatchConfig;
use crate::dispatch::DispatchRequest;
use crate::event::{EventKind, EventQueue};
use crate::metrics::BatchStats;
use crate::obs;
use crate::route::{Acquisition, ExclusionSet, Routed};
use crate::session::driver::SessionDriver;
use crate::session::SloClass;
use crate::Intake;

/// What the arrival gate does with a request whose arrival event fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Route, admit and place it as usual.
    Proceed,
    /// Hold it off the routing and admission path; a later completion
    /// re-arrives it.
    Park,
    /// Shed it.
    Reject,
}

/// A freed tile as the pick sees it: its global id, the same-kernel run it
/// is in and the kernel it holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FreedTile {
    pub(crate) tile: usize,
    /// Consecutive starts of the resident kernel so far.
    pub(crate) run_len: usize,
    /// Which run that is: the tile's switch count. Every run opens with a
    /// switch, since a killed tile holds no kernel until its next start.
    pub(crate) run: usize,
    pub(crate) resident: Option<KernelKey>,
}

/// A serve's tiers: same-kernel batching and, on a pipeline serve, the
/// session driver it borrows from the caller for the serve. Each acts only
/// where it is on.
#[derive(Debug)]
pub(crate) struct Tiers<'d> {
    batching: BatchConfig,
    /// Per global tile: the run ([`FreedTile::run`]) that last formed a
    /// batch.
    formed: Vec<Option<usize>>,
    batch: BatchStats,
    session: Option<&'d mut SessionDriver>,
}

impl<'d> Tiers<'d> {
    /// The tiers `cluster` is configured with, and a pipeline serve's driver.
    pub(crate) fn new(cluster: &Cluster, session: Option<&'d mut SessionDriver>) -> Self {
        Tiers {
            batching: cluster.batching(),
            formed: vec![None; cluster.total_tiles()],
            batch: BatchStats::default(),
            session,
        }
    }

    /// Every request's SLO class by intake index (pipeline serves only).
    pub(crate) fn classes(&self) -> Vec<SloClass> {
        self.session
            .as_deref()
            .map_or_else(Vec::new, SessionDriver::classes)
    }

    /// The arrival gate, before anything else looks at the request: a stage
    /// parks until its inputs have all committed; a stage of a failed
    /// pipeline is shed.
    #[inline]
    pub(crate) fn gate(&mut self, index: usize) -> Gate {
        self.session
            .as_mut()
            .map_or(Gate::Proceed, |driver| driver.on_arrival(index))
    }

    /// Stage affinity, after the fleet's routing: the producer device of the
    /// stage's heaviest input wins over the routed one if the activation
    /// savings outweigh the extra queueing there. The final device's
    /// activation bill goes into `row`, priced against the producers'
    /// current liveness (a dead producer's output restores from the host
    /// checkpoint). A producer the request was displaced off (`exclusions`)
    /// is never followed.
    #[inline(always)]
    pub(crate) fn reroute(
        &self,
        cluster: &Cluster,
        index: usize,
        (routed, acquisition): (usize, Acquisition),
        intake: Intake<'_>,
        exclusions: &ExclusionSet,
        row: &mut Routed,
    ) -> (usize, Acquisition) {
        let Some(driver) = &self.session else {
            return (routed, acquisition);
        };
        let transfer = cluster.active_transfer();
        let alive = |device: usize| cluster.fault.alive(device);
        let bill = |device: usize| driver.activation_us(index, device, &transfer, alive);
        let mut choice = (routed, acquisition, bill(routed));
        let affinity = driver.affinity_target(index).filter(|&target| {
            target != routed
                && target < cluster.num_devices()
                && !exclusions.contains(target)
                && cluster.fault.available(target)
        });
        if let Some(target) = affinity {
            let target_bill = bill(target);
            // The queueing penalty of following the data: the difference in
            // waiting depth, scaled by this stage's estimated service time.
            let waiting = |device: usize| cluster.devices[device].pool.total_waiting() as f64;
            let penalty = (waiting(target) - waiting(routed)) * intake.rows[index].est_exec_us;
            let savings = choice.2 - target_bill;
            if savings > 0.0 && savings >= penalty {
                let kernel = intake.kernel(index);
                let acquisition = cluster.peek_acquisition(target, kernel.key, kernel.image_bytes);
                choice = (target, acquisition, target_bill);
            }
        }
        row.activation_us = choice.2;
        (choice.0, choice.1)
    }

    /// Weighted-fair admission, for a fresh request that would queue: a
    /// pipeline stage's session may fill only its SLO-weighted share of the
    /// limit.
    #[inline]
    pub(crate) fn fair(&self, index: usize, limit: usize) -> bool {
        self.session
            .as_ref()
            .is_none_or(|driver| driver.fair_admit(index, limit))
    }

    /// Once the request committed to `device` (at its arrival or a
    /// requeue), pays the activation bill [`reroute`](Tiers::reroute)
    /// priced into its routing row, with a stage-transfer span per moved
    /// input.
    #[inline(always)]
    pub(crate) fn committed(
        &mut self,
        index: usize,
        device: usize,
        activation_us: f64,
        now_us: f64,
        probe: &mut obs::Probe,
    ) {
        if let Some(driver) = &mut self.session {
            driver.commit_activation(index, device, activation_us, |from, bytes| {
                probe.stage_transfer(index, now_us, device, from, bytes);
            });
        }
    }

    /// The request joined a tile queue (`joined`), or left one: it started,
    /// or a fault displaced it. A queued stage counts against its session's
    /// fair share.
    #[inline]
    pub(crate) fn queued(&mut self, index: usize, joined: bool) {
        if let Some(driver) = &mut self.session {
            driver.note_queued(index, joined);
        }
    }

    /// The pick at a freed tile, over the dispatch policy's choice:
    /// same-kernel batching (see the [`batcher`](crate::control::batcher)
    /// module) runs the oldest waiter of the freed tile's resident kernel
    /// instead, unless the run is at its cap, the choice has
    /// waited past the hold bound, or the detour would make the choice miss
    /// a deadline it can still meet.
    #[inline]
    pub(crate) fn pick(
        &mut self,
        freed: FreedTile,
        now_us: f64,
        choice: &DispatchRequest,
        choice_arrival_us: f64,
        oldest: impl FnOnce(KernelKey) -> Option<(usize, f64)>,
    ) -> Option<usize> {
        let config = self.batching;
        if !config.enabled() || freed.run_len >= config.max_batch {
            return None;
        }
        // A choice of the resident kernel extends the run anyway.
        let key = freed.resident.filter(|&key| key != choice.key)?;
        if now_us - choice_arrival_us > config.max_hold_us {
            return None;
        }
        let (candidate, candidate_est_us) = oldest(key)?;
        // Judged by the modeled estimates: a choice already late either way
        // has nothing left to protect.
        if let Some(deadline_us) = choice.deadline_us {
            let run_now = now_us + choice.switch_us + choice.est_exec_us;
            if run_now <= deadline_us && run_now + candidate_est_us > deadline_us {
                return None;
            }
        }
        let batch = &mut self.batch;
        batch.batched_requests += 1;
        batch.switches_avoided += 1;
        // On a pipeline serve the detour is a cross-pipeline stage batch.
        batch.stage_batched += usize::from(self.session.is_some());
        let formed = &mut self.formed[freed.tile];
        if *formed != Some(freed.run) {
            *formed = Some(freed.run);
            batch.batches_formed += 1;
        }
        Some(candidate)
    }

    /// The request completed on `device`: records the stage's producer
    /// device and re-arrives, at once and with a stage-ready span, every
    /// parked successor whose inputs are now all ready.
    #[inline]
    pub(crate) fn completed(
        &mut self,
        index: usize,
        device: usize,
        now_us: f64,
        events: &mut EventQueue,
        probe: &mut obs::Probe,
    ) {
        if let Some(driver) = &mut self.session {
            for (succ, deps) in driver.note_complete(index, device, now_us) {
                probe.stage_ready(succ, now_us, device, deps);
                events.push(now_us, EventKind::Arrival { index: succ });
            }
        }
    }

    /// The request was rejected: the requests to shed with it. A rejected
    /// stage fails its pipeline and sheds its parked siblings.
    #[inline]
    pub(crate) fn rejected(&mut self, index: usize, now_us: f64) -> Vec<usize> {
        self.session
            .as_mut()
            .map_or_else(Vec::new, |driver| driver.note_rejected(index, now_us))
    }

    /// The serve ended: its batching counters.
    pub(crate) fn finish(self) -> BatchStats {
        self.batch
    }
}
