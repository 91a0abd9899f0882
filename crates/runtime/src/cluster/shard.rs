//! The sharded cluster event loop: one virtual-time lane per [`Device`],
//! executed on up to [`Cluster::with_threads`] host threads, with a serial
//! commit stage that replays the lanes' logs back into the exact
//! single-threaded event order.
//!
//! The design is the out-of-order-execution idiom applied to discrete-event
//! simulation: independent units run ahead, a commit stage restores
//! architectural order. It is only reachable when routing is *static* —
//! kernel-hash routing pins every kernel to its home shard for the lifetime
//! of the cluster — because then the only cross-shard edge is the
//! submission schedule itself:
//!
//! 1. **Central pre-pass (serial).** Arrivals are validated and compiled in
//!    submission order, exactly as the serial pull would, producing the
//!    global intake plus a `(arrival, home lane)` schedule. Every request's
//!    submission index is its deterministic sequence number.
//! 2. **Device lanes (parallel).** Each lane walks the *full* schedule with
//!    the serial loop's pull rule, enqueuing only its own arrivals, and
//!    runs its local virtual-time loop with its own tile queues, batcher,
//!    sim-worker pool, memo partition and an unbounded trace ring. Every
//!    event appends a [`LaneEvent`] to a log: the lane's half of the
//!    commit-stage handshake.
//! 3. **Commit / merge (serial).** A replay walks the same pull rule over
//!    one real [`EventQueue`], consuming each lane's log in order. Because
//!    every push in the serial loop happens while processing the event the
//!    logs already name, the replay's `(time, seq)` pop order — and with it
//!    the queue-depth integral, the depth histogram, the peak, the fired
//!    count and the bounded trace ring's drop-oldest behavior — is
//!    bit-for-bit the serial loop's. Outcomes, metrics and per-lane trace
//!    records are folded back in that order.
//!
//! Determinism across thread counts is by construction: lanes are dealt
//! round-robin to worker threads and each lane's bytes depend only on its
//! own inputs, so the grouping (and the host's scheduling of it) cannot
//! change any result.
//!
//! Two documented divergences from the serial loop, both outside the
//! equivalence suites' envelope:
//!
//! * **Store/memo LRU under capacity pressure.** The pre-pass compiles in
//!   submission order instead of interleaved with event processing, and the
//!   memo is partitioned per lane and merged back. Hit/miss/eviction
//!   *counts* and all modeled outcomes are identical as long as no home
//!   store and no memo partition overflows its capacity; under overflow the
//!   LRU victim choice may differ.
//! * **Error selection.** The serial loop surfaces the chronologically
//!   first failure; the sharded loop surfaces the failure with the lowest
//!   submission index (deterministic, but possibly a different one when
//!   several requests fail). Cluster state after an error is unspecified on
//!   both paths.

use std::sync::{mpsc, Arc};
use std::thread;

use overlay_arch::FuVariant;
use overlay_sim::{OverlaySimulator, SimError, SimRun};

use crate::cache::CacheStats;
use crate::control::Batcher;
use crate::dispatch::TileQueue;
use crate::event::{EventKind, EventQueue};
use crate::metrics::{BatchStats, ReplicationStats};
use crate::obs;
use crate::route::{cheapest_acquisition, kernel_home, Acquisition, TransferModel};
use crate::session::SloClass;
use crate::{
    prepare_request, record_request_spans, BatchConfig, DispatchPolicy, DispatchRequest, InFlight,
    KernelKey, PrepContext, Request, RequestOutcome, Runtime, RuntimeError, SimJob, SimMemo,
    SimResults, SimSourced,
};

use super::{Cluster, ClusterLoopOutput, ClusterReport, Device};

/// Immutable per-serve configuration shared by every lane.
struct LaneCtx<'a> {
    devices: usize,
    tiles_per_device: usize,
    policy: DispatchPolicy,
    batching: BatchConfig,
    transfer: TransferModel,
    route_label: &'static str,
    tracing: obs::TraceConfig,
    profiling: bool,
    telemetry: obs::TelemetryConfig,
    variant: FuVariant,
    /// The global intake, indexed by submission order — lanes address
    /// requests by their global index throughout, so no translation happens
    /// at merge time.
    intake: &'a [InFlight],
    /// Each request's home lane (`kernel_home` of its fingerprint).
    homes: &'a [usize],
}

/// One lane event's entry in the commit-stage handshake log: what the lane
/// did, in its local pop order.
#[derive(Debug, Clone, Copy)]
struct LaneEvent {
    time_us: f64,
    kind: EventKind,
    /// Arrival only: the request joined a tile queue instead of starting.
    enqueued: bool,
    /// The tile-free event this event scheduled, as
    /// `(global tile, completion time)` — the replay re-pushes it to
    /// reproduce the serial `(time, seq)` order.
    started: Option<(usize, f64)>,
    /// Lane trace-ring length after this event; the commit stage absorbs
    /// lane records up to here before handling the next event.
    records_end: usize,
}

/// Everything a lane hands back to the commit stage.
struct LaneOutput {
    outcome_slots: Vec<Option<RequestOutcome>>,
    log: Vec<LaneEvent>,
    trace: Option<obs::Trace>,
    memo: SimMemo,
    batch: BatchStats,
    peak_queue: usize,
    host_loads: usize,
    transfers: (usize, u64),
    latency_hist: obs::LogHistogram,
    profile: Option<obs::ProfileStats>,
    /// The lane's telemetry partition, accumulated in per-device commit
    /// order — exactly what the serial loop's `lane_series[device]` holds.
    series: obs::LaneSeries,
    /// The first failure, tagged with the submission index being started.
    error: Option<(usize, RuntimeError)>,
}

/// Mutable lane-loop state — the lane mirror of `ClusterState`.
struct LaneState<'a> {
    queues: Vec<TileQueue>,
    taken: Vec<bool>,
    events: EventQueue,
    sim: SimResults<'a>,
    acquire_us: Vec<f64>,
    acquire_src: Vec<(&'static str, u64)>,
    batcher: Batcher,
    recorder: obs::TraceRecorder,
    profiler: obs::StageProfiler,
    latency_hist: obs::LogHistogram,
    outcome_slots: Vec<Option<RequestOutcome>>,
    log: Vec<LaneEvent>,
    peak_queue: usize,
    host_loads: usize,
    transfers: (usize, u64),
    series: obs::LaneSeries,
}

impl Cluster {
    /// The sharded serve body — `run_serve`'s prologue and epilogue around
    /// [`Cluster::sharded_loop`] instead of the serial event loop.
    pub(super) fn serve_sharded(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<ClusterReport, RuntimeError> {
        for device in &mut self.devices {
            device.pool.reset();
            device.dispatcher.reset();
            device.busy_tiles = 0;
        }
        let cache_before: Vec<CacheStats> = self.devices.iter().map(|d| d.cache.stats()).collect();
        let memo_before = self.sim_memo.stats();

        let output = self.sharded_loop(requests)?;

        let delta = |after: CacheStats, before: CacheStats| CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        };
        let cache_deltas: Vec<CacheStats> = self
            .devices
            .iter()
            .zip(&cache_before)
            .map(|(device, &before)| delta(device.cache.stats(), before))
            .collect();
        let sim_memo = delta(self.sim_memo.stats(), memo_before);
        let (metrics, devices) = self.aggregate(&output, &cache_deltas, sim_memo);
        Ok(ClusterReport {
            policy: self.policy(),
            route: self.route,
            replication: output.replication,
            trace: output.trace,
            profile: output.profile,
            telemetry: output.telemetry,
            slo: output.slo,
            outcomes: output.outcomes,
            rejected: output.rejected,
            metrics,
            devices,
        })
    }

    /// Pre-pass, parallel lanes, and the commit stage.
    fn sharded_loop(&mut self, requests: Vec<Request>) -> Result<ClusterLoopOutput, RuntimeError> {
        let devices = self.num_devices();
        let mut ctx = PrepContext::for_pool(&self.devices[0].pool)?;
        let mut intake: Vec<InFlight> = Vec::new();
        let mut homes: Vec<usize> = Vec::new();
        let mut horizon_us = 0.0_f64;
        let mut pending_error: Option<RuntimeError> = None;
        // Central pre-pass: validate and compile in submission order — the
        // same checks (and the same home-shard compile authority) as the
        // serial pull, so validation and compile errors are the serial
        // loop's. On a failure the schedule is truncated at the failing
        // request; the lanes still serve the valid prefix so the stores and
        // memo end in a defined state, then the error is returned.
        for request in requests {
            let request = Arc::new(request);
            let arrival_us = request.arrival_us;
            if !arrival_us.is_finite() || arrival_us < 0.0 {
                pending_error = Some(RuntimeError::InvalidArrival {
                    request: request.id,
                    arrival_us,
                });
                break;
            }
            if arrival_us < horizon_us {
                pending_error = Some(RuntimeError::OutOfOrderArrival {
                    request: request.id,
                    arrival_us,
                    horizon_us,
                });
                break;
            }
            horizon_us = arrival_us;
            let home = kernel_home(request.kernel.fingerprint(), devices);
            match prepare_request(
                &mut self.devices[home].cache,
                &self.lower,
                &self.reconfig,
                &mut ctx,
                request,
            ) {
                Ok(inflight) => {
                    homes.push(home);
                    intake.push(inflight);
                }
                Err(error) => {
                    pending_error = Some(error);
                    break;
                }
            }
        }
        if intake.is_empty() {
            return Err(pending_error.unwrap_or(RuntimeError::NoRequests));
        }

        let lane_memos = self
            .sim_memo
            .split_by_home(devices, |key| kernel_home(key.kernel.fingerprint, devices));
        let threads = self.threads.min(devices).max(1);
        let ctx = LaneCtx {
            devices,
            tiles_per_device: self.tiles_per_device,
            policy: self.policy(),
            batching: self.batching,
            transfer: self.transfer,
            route_label: self.route.label(),
            tracing: self.tracing,
            profiling: self.profiling,
            telemetry: self.telemetry,
            variant: self.variant(),
            intake: &intake,
            homes: &homes,
        };

        let mut lane_slots: Vec<Option<LaneOutput>> = (0..devices).map(|_| None).collect();
        {
            // Deal lanes round-robin across the worker threads; each worker
            // runs its lanes sequentially, and every lane's bytes depend
            // only on its own inputs — the grouping (and the host's
            // scheduling of it) cannot change any result, which is what
            // makes the output identical across thread counts.
            let mut groups: Vec<Vec<(usize, &mut Device, SimMemo)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for ((lane, device), memo) in self.devices.iter_mut().enumerate().zip(lane_memos) {
                groups[lane % threads].push((lane, device, memo));
            }
            let group_outputs = thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|group| {
                        let ctx = &ctx;
                        scope.spawn(move || {
                            group
                                .into_iter()
                                .map(|(lane, device, memo)| (lane, run_lane(device, memo, ctx)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("a device lane thread panicked"))
                    .collect::<Vec<_>>()
            });
            for (lane, output) in group_outputs.into_iter().flatten() {
                lane_slots[lane] = Some(output);
            }
        }
        let mut lanes: Vec<LaneOutput> = lane_slots
            .into_iter()
            .map(|lane| lane.expect("every lane ran"))
            .collect();

        // Merge the memo partitions back before any early return: entries
        // and counters must survive the error path.
        self.sim_memo.merge_from_lanes(
            lanes
                .iter_mut()
                .map(|lane| std::mem::replace(&mut lane.memo, SimMemo::new(0)))
                .collect(),
        );

        let lane_error = lanes
            .iter_mut()
            .filter_map(|lane| lane.error.take())
            .min_by_key(|(index, _)| *index);
        if let Some((_, error)) = lane_error {
            return Err(error);
        }
        if let Some(error) = pending_error {
            return Err(error);
        }
        Ok(self.replay_merge(&intake, &homes, &mut lanes))
    }

    /// The commit stage: replays the submission schedule and the lanes'
    /// logs through one real [`EventQueue`], restoring the serial loop's
    /// exact event order, and folds outcomes, metrics and trace records
    /// back in that order.
    fn replay_merge(
        &mut self,
        intake: &[InFlight],
        homes: &[usize],
        lanes: &mut [LaneOutput],
    ) -> ClusterLoopOutput {
        let devices = self.num_devices();
        let mut recorder = {
            // Reuse the drained recorder from the previous serve — same
            // idiom as the serial loop.
            let scratch = std::mem::replace(
                &mut self.trace_scratch,
                obs::TraceRecorder::new(obs::TraceConfig::disabled()),
            );
            if scratch.capacity() == self.tracing.capacity() {
                scratch
            } else {
                obs::TraceRecorder::new(self.tracing)
            }
        };
        let mut profiler = obs::StageProfiler::new(self.profiling);
        let mut events = EventQueue::new();
        let mut queue_depth_hist = obs::LogHistogram::new();
        // The replay walks the serial event order, so the cross-device
        // queue integral accumulates in exactly the serial sequence — the
        // assembled series is bitwise the serial loop's.
        let mut global_series = obs::GlobalSeries::new(self.telemetry);
        let mut waiting = 0usize;
        let mut peak_queue_depth = 0usize;
        let mut queue_area_us = 0.0_f64;
        let mut last_event_us = 0.0_f64;
        let mut cursor = 0usize;
        let mut open = true;
        let mut horizon_us = 0.0_f64;
        let mut lane_pos = vec![0usize; devices];
        let mut lane_rec = vec![0usize; devices];

        loop {
            // The serial pull rule over the already-validated schedule; the
            // submission span is recorded here, exactly where the serial
            // `grow_slots` records it.
            while open && events.peek_time_us().is_none_or(|time| time > horizon_us) {
                if cursor == intake.len() {
                    open = false;
                    horizon_us = f64::INFINITY;
                    break;
                }
                let index = cursor;
                cursor += 1;
                let info = &intake[index];
                horizon_us = info.request.arrival_us;
                events.push_monotone(horizon_us, EventKind::Arrival { index });
                if recorder.enabled() {
                    recorder.record(obs::TraceEvent {
                        time_us: info.request.arrival_us,
                        dur_us: 0.0,
                        request_id: Some(info.request.id),
                        device: 0,
                        tile: None,
                        kind: obs::SpanKind::Submit,
                    });
                }
            }
            let Some(event) = events.pop() else {
                debug_assert!(!open, "replay queue drained while the schedule is open");
                break;
            };
            let now_us = event.time_us;
            let bookkeeping = profiler.begin();
            queue_area_us += waiting as f64 * (now_us - last_event_us);
            queue_depth_hist.record(waiting as f64);
            global_series.note_queue(last_event_us, now_us, waiting);
            last_event_us = now_us;
            profiler.end(obs::Stage::Bookkeeping, bookkeeping);

            let lane = match event.kind {
                EventKind::Arrival { index } => homes[index],
                EventKind::TileFree { tile } => tile / self.tiles_per_device,
                // Faulty serves gate to the serial loop (`sharded_eligible`).
                EventKind::Fault { .. } | EventKind::Requeue { .. } => {
                    unreachable!("fault events never reach the sharded loop")
                }
            };
            let entry = lanes[lane].log[lane_pos[lane]];
            lane_pos[lane] += 1;
            debug_assert_eq!(
                entry.time_us.to_bits(),
                now_us.to_bits(),
                "replay and lane event times agree bitwise"
            );
            debug_assert_eq!(entry.kind, event.kind, "replay and lane event order agree");
            if recorder.enabled() {
                if let Some(trace) = &lanes[lane].trace {
                    for record in lane_rec[lane]..entry.records_end {
                        recorder.absorb_lane_record(trace, record);
                    }
                }
                lane_rec[lane] = entry.records_end;
            }
            match event.kind {
                EventKind::Arrival { .. } => {
                    if entry.enqueued {
                        waiting += 1;
                        peak_queue_depth = peak_queue_depth.max(waiting);
                    }
                }
                EventKind::TileFree { .. } => {
                    if entry.started.is_some() {
                        waiting -= 1;
                    }
                }
                EventKind::Fault { .. } | EventKind::Requeue { .. } => {
                    unreachable!("fault events never reach the sharded loop")
                }
            }
            if let Some((tile, completion_us)) = entry.started {
                events.push(completion_us, EventKind::TileFree { tile });
            }
        }
        debug_assert!(
            lane_pos
                .iter()
                .zip(lanes.iter())
                .all(|(pos, lane)| *pos == lane.log.len()),
            "the replay consumed every lane's log"
        );
        let events_fired = events.fired();

        let mut outcome_slots: Vec<Option<RequestOutcome>> =
            (0..intake.len()).map(|_| None).collect();
        for lane in lanes.iter_mut() {
            for (index, slot) in lane.outcome_slots.iter_mut().enumerate() {
                if let Some(outcome) = slot.take() {
                    debug_assert!(
                        outcome_slots[index].is_none(),
                        "exactly one lane serves each request"
                    );
                    outcome_slots[index] = Some(outcome);
                }
            }
        }
        let outcomes: Vec<RequestOutcome> = outcome_slots.into_iter().flatten().collect();
        debug_assert_eq!(
            outcomes.len(),
            intake.len(),
            "unlimited admission on the sharded path: every request is served"
        );
        let mut batch = BatchStats::default();
        for lane in lanes.iter() {
            batch.absorb(&lane.batch);
        }
        let telemetry = self.telemetry.is_enabled().then(|| {
            let lane_series: Vec<obs::LaneSeries> =
                lanes.iter().map(|lane| lane.series.clone()).collect();
            obs::TimeSeries::assemble(
                self.telemetry,
                last_event_us,
                devices * self.tiles_per_device,
                &global_series,
                &lane_series,
            )
        });
        let slo = match (&telemetry, self.slo.is_enabled()) {
            (Some(series), true) => {
                let report = obs::evaluate_slo(series, &self.slo);
                obs::record_burn_spans(&mut recorder, &report);
                Some(report)
            }
            _ => None,
        };
        let trace = recorder.finish();
        self.trace_scratch = recorder;
        let profile = profiler.finish().map(|mut stats| {
            for lane in lanes.iter() {
                if let Some(lane_stats) = &lane.profile {
                    stats.absorb(lane_stats);
                }
            }
            stats
        });
        ClusterLoopOutput {
            outcomes,
            rejected: Vec::new(),
            peak_queue_depth,
            queue_area_us,
            events_fired,
            batch,
            replication: ReplicationStats::default(),
            device_peak_queue: lanes.iter().map(|lane| lane.peak_queue).collect(),
            device_rejects: vec![0; devices],
            device_transfers: lanes.iter().map(|lane| lane.transfers).collect(),
            device_host_loads: lanes.iter().map(|lane| lane.host_loads).collect(),
            trace,
            profile,
            queue_depth_hist,
            device_latency_hists: lanes.iter().map(|lane| lane.latency_hist.clone()).collect(),
            telemetry,
            slo,
        }
    }
}

/// Runs one device's lane to completion: its own sim-worker pool, its own
/// virtual-time loop over the full schedule (enqueuing only its own
/// arrivals), and the handshake log the commit stage replays.
fn run_lane(device: &mut Device, mut memo: SimMemo, ctx: &LaneCtx<'_>) -> LaneOutput {
    let total_tiles = ctx.devices * ctx.tiles_per_device;
    // Split the serial loop's worker budget across the lanes so the sharded
    // serve spawns the same order of simulation threads overall.
    let lane_workers = ctx
        .tiles_per_device
        .clamp(1, (Runtime::MAX_SIM_WORKERS / ctx.devices).max(1));
    let variant = ctx.variant;
    let requests = ctx.intake.len();
    let (result_tx, result_rx) = mpsc::channel::<(usize, Result<SimRun, SimError>)>();
    let (job_txs, job_rxs): (Vec<_>, Vec<_>) =
        (0..lane_workers).map(|_| mpsc::channel::<SimJob>()).unzip();

    let mut output = thread::scope(|scope| {
        for job_rx in job_rxs {
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                let simulator = OverlaySimulator::new(variant).with_trace_capacity(0);
                while let Ok(job) = job_rx.recv() {
                    let run = simulator.run(&job.compiled, &job.request.workload);
                    if result_tx.send((job.index, run)).is_err() {
                        break; // the lane is gone (it failed); stop working
                    }
                }
            });
        }
        drop(result_tx); // workers hold the clones that matter
        let mut state = LaneState {
            queues: (0..total_tiles)
                .map(|_| TileQueue::new(ctx.policy, ctx.batching.enabled()))
                .collect(),
            taken: vec![false; requests],
            events: EventQueue::new(),
            sim: SimResults::new(&result_rx, lane_workers, memo.capacity() > 0),
            acquire_us: vec![0.0; requests],
            acquire_src: vec![("resident", 0); requests],
            batcher: Batcher::new(ctx.batching, total_tiles),
            // Unbounded lane ring: drop-oldest and route-slot recycling are
            // the commit stage's job, in merged order.
            recorder: obs::TraceRecorder::new(if ctx.tracing.is_enabled() {
                obs::TraceConfig::with_capacity(usize::MAX)
            } else {
                obs::TraceConfig::disabled()
            }),
            profiler: obs::StageProfiler::new(ctx.profiling),
            latency_hist: obs::LogHistogram::new(),
            outcome_slots: (0..requests).map(|_| None).collect(),
            log: Vec::new(),
            peak_queue: 0,
            host_loads: 0,
            transfers: (0, 0),
            series: obs::LaneSeries::new(ctx.telemetry),
        };
        for _ in 0..requests {
            state.sim.push_slot();
        }
        let error = lane_loop(device, ctx, &mut state, &mut memo, &job_txs);
        drop(job_txs); // release the workers
        LaneOutput {
            outcome_slots: state.outcome_slots,
            log: state.log,
            trace: state.recorder.finish(),
            memo: SimMemo::new(0), // placeholder; the partition is moved in below
            batch: state.batcher.stats(),
            peak_queue: state.peak_queue,
            host_loads: state.host_loads,
            transfers: state.transfers,
            latency_hist: state.latency_hist,
            profile: state.profiler.finish(),
            series: state.series,
            error,
        }
    });
    output.memo = memo;
    output
}

/// The lane's virtual-time loop — the serial cluster event loop restricted
/// to one device, with the commit-stage log appended per event.
fn lane_loop(
    device: &mut Device,
    ctx: &LaneCtx<'_>,
    state: &mut LaneState<'_>,
    memo: &mut SimMemo,
    jobs: &[mpsc::Sender<SimJob>],
) -> Option<(usize, RuntimeError)> {
    let lane = device.id;
    let mut cursor = 0usize;
    let mut open = true;
    let mut horizon_us = 0.0_f64;
    loop {
        // The serial pull rule over the full schedule: advance the horizon
        // one submission at a time, enqueuing only this lane's arrivals.
        // Pops below never run past the horizon, so the lane's event order
        // is the serial order restricted to this device.
        while open
            && state
                .events
                .peek_time_us()
                .is_none_or(|time| time > horizon_us)
        {
            if cursor == ctx.intake.len() {
                open = false;
                horizon_us = f64::INFINITY;
                break;
            }
            let index = cursor;
            cursor += 1;
            horizon_us = ctx.intake[index].request.arrival_us;
            if ctx.homes[index] == lane {
                state
                    .events
                    .push_monotone(horizon_us, EventKind::Arrival { index });
            }
        }
        let Some(event) = state.events.pop() else {
            debug_assert!(!open, "lane queue drained while the schedule is open");
            break;
        };
        let now_us = event.time_us;
        match event.kind {
            EventKind::Arrival { index } => {
                let info = &ctx.intake[index];
                let route = state.profiler.begin();
                // Kernel-hash routing made this lane the home shard; the
                // acquisition mirrors `peek_acquisition` with the foreign
                // holder set empty — under lifetime kernel-hash routing
                // with replication off no other store ever adopts this
                // lane's kernels, so a non-resident image (possible only
                // under store eviction pressure) is a host load.
                let acquisition = if device.cache.contains(&info.view.key) {
                    Acquisition::Resident
                } else {
                    cheapest_acquisition(&ctx.transfer, std::iter::empty(), lane, info.image_bytes)
                };
                if state.recorder.enabled() {
                    state.recorder.record(obs::TraceEvent {
                        time_us: now_us,
                        dur_us: 0.0,
                        request_id: Some(info.request.id),
                        device: lane,
                        tile: None,
                        kind: obs::SpanKind::RouteChoice(Box::new(obs::RouteChoice {
                            policy: ctx.route_label,
                            chosen: lane,
                            candidates: Vec::new(),
                        })),
                    });
                }
                let adjusted = DispatchRequest {
                    switch_us: info.view.switch_us + acquisition.cost_us(),
                    ..info.view
                };
                let local_tile = device.dispatcher.place(&adjusted, now_us, &device.pool);
                state.profiler.end(obs::Stage::Route, route);
                let tile = lane * ctx.tiles_per_device + local_tile;
                let starts_now = !device.pool.states()[local_tile].running;
                // Unlimited admission is an eligibility condition for the
                // sharded path, so every arrival is admitted.
                if state.recorder.enabled() {
                    state.recorder.record(obs::TraceEvent {
                        time_us: now_us,
                        dur_us: 0.0,
                        request_id: Some(info.request.id),
                        device: lane,
                        tile: None,
                        kind: obs::SpanKind::Admission { admitted: true },
                    });
                }
                state.acquire_src[index] = (acquisition.label(), acquisition.bytes());
                state.acquire_us[index] = match acquisition {
                    // The store adoption mirrors `commit_acquisition` on a
                    // multi-device cluster (the sharded path requires one).
                    Acquisition::Resident => {
                        device.cache.get_or_share(info.view.key, &info.compiled);
                        0.0
                    }
                    Acquisition::HostLoad { cost_us } => {
                        device.cache.get_or_share(info.view.key, &info.compiled);
                        state.host_loads += 1;
                        cost_us
                    }
                    Acquisition::Transfer { cost_us, bytes, .. } => {
                        device.cache.get_or_share(info.view.key, &info.compiled);
                        state.transfers.0 += 1;
                        state.transfers.1 += bytes as u64;
                        cost_us
                    }
                };
                let memo_probe = state.profiler.begin();
                let sourced = state.sim.source(index, info, memo, jobs);
                state.profiler.end(obs::Stage::Memo, memo_probe);
                match sourced {
                    SimSourced::Joined => {
                        state
                            .recorder
                            .counter(now_us, lane, obs::CounterName::MemoJoin);
                    }
                    SimSourced::MemoHit => {
                        state
                            .recorder
                            .counter(now_us, lane, obs::CounterName::MemoHit);
                    }
                    SimSourced::Spawned => {}
                }
                let started = if starts_now {
                    match lane_start_request(device, ctx, state, memo, local_tile, index, None) {
                        Ok(completion_us) => Some((tile, completion_us)),
                        Err(error) => {
                            state.log.push(LaneEvent {
                                time_us: now_us,
                                kind: event.kind,
                                enqueued: false,
                                started: None,
                                records_end: state.recorder.recorded(),
                            });
                            return Some((index, error));
                        }
                    }
                } else {
                    let scan = state.profiler.begin();
                    device.enqueue(local_tile, info.view.key, info.view.est_exec_us);
                    state.queues[tile].push(index, &info.view);
                    state.profiler.end(obs::Stage::Scan, scan);
                    state.peak_queue = state.peak_queue.max(device.pool.total_waiting());
                    None
                };
                state.log.push(LaneEvent {
                    time_us: now_us,
                    kind: event.kind,
                    enqueued: !starts_now,
                    started,
                    records_end: state.recorder.recorded(),
                });
            }
            EventKind::TileFree { tile } => {
                debug_assert_eq!(tile / ctx.tiles_per_device, lane, "lane-local tile-free");
                let local_tile = tile % ctx.tiles_per_device;
                device.release(local_tile);
                let started = if !state.queues[tile].is_empty() {
                    match lane_start_next(device, ctx, state, memo, local_tile) {
                        Ok(completion_us) => Some((tile, completion_us)),
                        Err((index, error)) => {
                            state.log.push(LaneEvent {
                                time_us: now_us,
                                kind: event.kind,
                                enqueued: false,
                                started: None,
                                records_end: state.recorder.recorded(),
                            });
                            return Some((index, error));
                        }
                    }
                } else {
                    None
                };
                state.log.push(LaneEvent {
                    time_us: now_us,
                    kind: event.kind,
                    enqueued: false,
                    started,
                    records_end: state.recorder.recorded(),
                });
            }
            // Faulty serves gate to the serial loop (`sharded_eligible`).
            EventKind::Fault { .. } | EventKind::Requeue { .. } => {
                unreachable!("fault events never reach the sharded loop")
            }
        }
    }
    None
}

/// The lane mirror of the serial `start_next`: indexed pop with the
/// batching layer over the policy's choice, then start.
fn lane_start_next(
    device: &mut Device,
    ctx: &LaneCtx<'_>,
    state: &mut LaneState<'_>,
    memo: &mut SimMemo,
    local_tile: usize,
) -> Result<f64, (usize, RuntimeError)> {
    let lane = device.id;
    let tile = lane * ctx.tiles_per_device + local_tile;
    let now_us = state.events.now_us();
    let scan = state.profiler.begin();
    let queue = &mut state.queues[tile];
    let resident = device.pool.states()[local_tile].resident;
    let choice = queue.peek_next(resident, &state.taken);
    let choice_view = DispatchRequest {
        switch_us: ctx.intake[choice].view.switch_us + state.acquire_us[choice],
        ..ctx.intake[choice].view
    };
    let index = state
        .batcher
        .divert(
            tile,
            now_us,
            resident,
            &choice_view,
            ctx.intake[choice].request.arrival_us,
            |key| {
                queue
                    .oldest_for_kernel(key, &state.taken)
                    .map(|i| (i, ctx.intake[i].view.est_exec_us))
            },
        )
        .unwrap_or(choice);
    queue.take(index, &mut state.taken);
    let remaining_tail = queue.tail_key(&state.taken);
    let est_us = ctx.intake[index].view.est_exec_us;
    state.profiler.end(obs::Stage::Scan, scan);
    lane_start_request(
        device,
        ctx,
        state,
        memo,
        local_tile,
        index,
        Some((est_us, remaining_tail)),
    )
    .map_err(|error| (index, error))
}

/// The lane mirror of the serial `start_request`: commits the request to
/// the tile at the current virtual time and schedules its tile-free event.
fn lane_start_request(
    device: &mut Device,
    ctx: &LaneCtx<'_>,
    state: &mut LaneState<'_>,
    memo: &mut SimMemo,
    local_tile: usize,
    index: usize,
    from_queue: Option<(f64, Option<KernelKey>)>,
) -> Result<f64, RuntimeError> {
    let lane = device.id;
    let now_us = state.events.now_us();
    let info = &ctx.intake[index];
    let sim_probe = state.profiler.begin();
    let run = state.sim.take(index, ctx.intake, memo)?;
    state.profiler.end(obs::Stage::Sim, sim_probe);
    let exec_cycles = run.metrics().total_cycles + device.pool.roundtrip_cycles(local_tile);
    let exec_us = exec_cycles as f64 / info.fmax_mhz;
    let switch_us = info.view.switch_us + state.acquire_us[index];
    let charged = match from_queue {
        Some((est_us, remaining_tail)) => device.start_queued(
            local_tile,
            est_us,
            remaining_tail,
            info.view.key,
            now_us,
            switch_us,
            exec_us,
        ),
        None => device.charge(local_tile, info.view.key, now_us, switch_us, exec_us),
    };
    let tile = lane * ctx.tiles_per_device + local_tile;
    state.batcher.note_start(tile, charged.switched);
    if state.recorder.enabled() {
        let (source, bytes) = state.acquire_src[index];
        let acquire = if charged.switched {
            Some((state.acquire_us[index], source, bytes))
        } else {
            None
        };
        record_request_spans(
            &mut state.recorder,
            (lane, local_tile),
            info,
            &charged,
            acquire,
            // Sessions (and with them activation charges) gate to the
            // serial loop, so no lane ever pays an activation.
            0.0,
            state.batcher.run_len(tile),
        );
    }
    state
        .latency_hist
        .record(charged.completion_us - info.request.arrival_us);
    state.series.note_start(
        SloClass::Standard,
        charged.start_us,
        charged.completion_us,
        charged.completion_us - info.request.arrival_us,
        info.request
            .deadline_us
            .is_some_and(|deadline| charged.completion_us > deadline),
        charged.switched && state.acquire_src[index].0 == "transfer",
    );
    let request = &info.request;
    state.outcome_slots[index] = Some(RequestOutcome {
        request_id: request.id,
        kernel: request.kernel.shared_name(),
        device: lane,
        tile: local_tile,
        sim: *run.metrics(),
        run,
        start_us: charged.start_us,
        queued_us: charged.start_us - request.arrival_us,
        completion_us: charged.completion_us,
        latency_us: charged.completion_us - request.arrival_us,
        switched: charged.switched,
        deadline_us: request.deadline_us,
        missed_deadline: request
            .deadline_us
            .is_some_and(|deadline| charged.completion_us > deadline),
    });
    state
        .events
        .push(charged.completion_us, EventKind::TileFree { tile });
    Ok(charged.completion_us)
}
