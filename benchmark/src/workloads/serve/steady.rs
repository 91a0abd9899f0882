//! `serve_steady`: the warm serving path.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_overlay::arch::TileComposition;
use tm_overlay::dfg::Value;
use tm_overlay::frontend::Benchmark;
use tm_overlay::runtime::event::{EventKind, EventQueue};
use tm_overlay::runtime::obs::perfetto_trace_json;
use tm_overlay::runtime::{
    DispatchRequest, Dispatcher, KernelCache, KernelKey, SimKey, SimMemo, TilePool,
};
use tm_overlay::{
    Compiler, DispatchPolicy, LogHistogram, Overlay, Request, Runtime, RuntimeMetrics, Scenario,
    ServeReport, TelemetryConfig, TraceConfig,
};

use super::{
    median_ns, profile_children, scenario_config, Pooled, ServeStats, Tenants, Trace, BLOCKS,
    DEADLINE_US, VARIANT,
};
use crate::span::Tracer;
use crate::stats::ratio;
use crate::workloads::{
    Allocs, Layers, Modeled, RepOutcome, Sizing, SplitMix64, Timer, Workload, FIXED_DEPTH,
};

/// `serve_steady`: one warm `Runtime::new(V4, 64)` reused across
/// repetitions, so every simulation is a memo hit and every compile a cache
/// hit: the event loop, dispatch, the pool index, the workload digest and
/// memo *reads* do the work. One op is one request committed.
///
/// A repetition serves its 200 k requests as ten traces of 20 k, one serve
/// each. Served as one trace, a repetition touches ≈240 MiB that the
/// allocator hands back to the kernel and faults in again every time
/// (≈40 k page faults, 2.6 µs per request against 1.6 µs at 20 k), and a page
/// fault in a VM is the noisiest thing a repetition can do.
pub struct ServeSteady {
    tenants: Tenants,
    traces: Vec<Trace>,
    runtime: Option<Runtime>,
    /// The metrics of each serve of the last repetition.
    last: Vec<RuntimeMetrics>,
}

impl ServeSteady {
    /// Tiles in the pool.
    pub const TILES: usize = 64;
    /// Base arrival rate, requests per virtual ms: about half the pool's
    /// capacity, so queues stay short and every deadline is met.
    pub const RATE_PER_MS: f64 = 60_000.0;

    /// Builds the tenants, their workloads and the request traces from
    /// `seed`.
    pub fn new(seed: u64, sizing: &Sizing) -> Self {
        let mut rng = SplitMix64(seed ^ 0x57_EAD1);
        let tenants = Tenants::new(&Benchmark::TABLE3, sizing.workloads_per_kernel, &mut rng);
        let traces = (0..sizing.steady_serves)
            .map(|_| {
                let scenario = Scenario::new(scenario_config(
                    sizing.steady_requests / sizing.steady_serves,
                    Self::RATE_PER_MS,
                    tenants.specs.len(),
                    rng.next_u64(),
                ));
                Trace::from_scenario(&tenants, &scenario, &mut rng)
            })
            .collect();
        ServeSteady {
            tenants,
            traces,
            runtime: Some(Runtime::new(VARIANT, Self::TILES).expect("the pool is not empty")),
            last: Vec::new(),
        }
    }

    /// Applies a builder method to the parked runtime, which keeps its warm
    /// caches: how an observability feature is switched on and off.
    fn reconfigure(&mut self, configure: impl FnOnce(Runtime) -> Runtime) {
        self.runtime = self.runtime.take().map(configure);
    }

    /// One serve of a fresh copy of trace `index`, inside a `runtime.serve`
    /// span when `tracer` is given.
    fn serve_one(
        &mut self,
        index: usize,
        tracer: Option<&mut Tracer>,
    ) -> ((Duration, Allocs), Option<ServeReport>) {
        let requests = self.traces[index].requests.clone();
        let runtime = self.runtime.as_mut().expect("the runtime is parked here");
        let timed = || {
            let timer = Timer::start();
            let result = runtime.serve(requests);
            (timer.stop(), result.ok())
        };
        match tracer {
            Some(tracer) => tracer.span("runtime.serve", index as u64, |tracer| {
                let (timed, report) = timed();
                profile_children(tracer, report.as_ref().and_then(|r| r.profile()));
                (timed, report)
            }),
            None => timed(),
        }
    }

    /// One repetition: every trace served once.
    fn serve(&mut self, mut tracer: Option<&mut Tracer>) -> (RepOutcome, ServeStats) {
        let mut pooled = Pooled::default();
        self.last.clear();
        for index in 0..self.traces.len() {
            let (timed, report) = self.serve_one(index, tracer.as_deref_mut());
            let served = report
                .as_ref()
                .map(|r| (r.metrics(), r.outcomes(), r.rejected()));
            let trace = &self.traces[index];
            pooled.add(timed, 0..trace.requests.len() as u64, served, |id| {
                let (kernel, workload) = trace.keys[id as usize];
                &self.tenants.expected[kernel as usize][workload as usize]
            });
            self.last
                .extend(report.as_ref().map(|r| r.metrics().clone()));
        }
        pooled.finish()
    }

    /// Wall time of one untraced repetition, ns.
    fn serve_ns(&mut self) -> f64 {
        self.serve(None).0.wall.as_nanos() as f64
    }
}

impl Workload for ServeSteady {
    fn ops_per_rep(&self) -> u64 {
        self.traces.iter().map(|t| t.requests.len() as u64).sum()
    }

    fn warmup_reps(&self) -> usize {
        3
    }

    fn rep(&mut self) -> RepOutcome {
        self.serve(None).0
    }

    fn rep_traced(&mut self, tracer: &mut Tracer) -> RepOutcome {
        self.reconfigure(|runtime| runtime.with_profiling(true));
        let (outcome, _) = self.serve(Some(tracer));
        self.reconfigure(|runtime| runtime.with_profiling(false));
        outcome
    }

    fn check(&mut self) -> (Modeled, u64) {
        let (outcome, stats) = self.serve(None);
        (stats.modeled(&self.tenants.facts), outcome.failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, plain_ns_per_op: f64, layers: &mut Layers) {
        if self.last.is_empty() {
            self.serve(None);
        }
        // Counts are sums over the serves of one repetition; the queue depth
        // is the deepest of them and the utilisation their mean.
        let sum = |count: fn(&RuntimeMetrics) -> f64| self.last.iter().map(count).sum::<f64>();
        let requests = sum(|m| m.requests as f64);
        let events = sum(|m| m.events_fired as f64);
        layers.insert("runtime.events_per_request", ratio(events, requests));
        layers.insert(
            "runtime.serve_ns_per_event",
            ratio(plain_ns_per_op * requests, events),
        );
        profile_layers(tracer, ratio(events, self.last.len() as f64), layers);
        layers.insert("runtime.dispatch.switches", sum(|m| m.switch_count as f64));
        layers.insert("runtime.dispatch.switch_us", sum(|m| m.total_switch_us));
        layers.insert(
            "runtime.pool.peak_queue_depth",
            self.last
                .iter()
                .map(|m| m.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        layers.insert(
            "runtime.pool.mean_utilization",
            ratio(sum(|m| m.mean_utilization()), self.last.len() as f64),
        );
        layers.insert("runtime.memo.hits", sum(|m| m.sim_memo.hits as f64));
        layers.insert(
            "runtime.memo.steady_misses",
            sum(|m| m.sim_memo.misses as f64),
        );
        layers.insert("runtime.cache.hits", sum(|m| m.cache.hits as f64));
        layers.insert("dfg.eval_ns_per_block", self.tenants.eval_ns_per_block);
        component_probes(&self.tenants, layers);

        // What each observability feature costs a warm serve: rounds of
        // off / tracing / telemetry / profiling, the fastest of each compared
        // (the host only ever adds time).
        let window_us = self.traces[0].requests.last().map_or(1.0, |r| r.arrival_us) / 64.0;
        let mut walls = [f64::INFINITY; 4];
        let mut fastest = |slot: usize, wall: f64| walls[slot] = walls[slot].min(wall);
        for _ in 0..4 {
            fastest(0, self.serve_ns());
            self.reconfigure(|r| r.with_tracing(TraceConfig::enabled()));
            fastest(1, self.serve_ns());
            self.reconfigure(|r| r.with_tracing(TraceConfig::disabled()));
            self.reconfigure(|r| r.with_telemetry(TelemetryConfig::windowed(window_us)));
            fastest(2, self.serve_ns());
            self.reconfigure(|r| r.with_telemetry(TelemetryConfig::disabled()));
            self.reconfigure(|r| r.with_profiling(true));
            fastest(3, self.serve_ns());
            self.reconfigure(|r| r.with_profiling(false));
        }
        let overhead = |on: f64| 1.0 - ratio(walls[0], on);
        layers.insert("runtime.obs.trace_overhead_share", overhead(walls[1]));
        layers.insert("runtime.obs.telemetry_overhead_share", overhead(walls[2]));
        layers.insert("runtime.obs.profile_overhead_share", overhead(walls[3]));

        // One traced serve for the exporter and the ring's drop count.
        self.reconfigure(|r| r.with_tracing(TraceConfig::enabled()));
        let (_, report) = self.serve_one(0, None);
        self.reconfigure(|r| r.with_tracing(TraceConfig::disabled()));
        let trace = report.as_ref().and_then(|report| report.trace());
        let (export_ns, spans, dropped) = trace.map_or((0.0, 0.0, 0.0), |trace| {
            let started = Instant::now();
            black_box(perfetto_trace_json(trace, None, "serve_steady"));
            (
                started.elapsed().as_nanos() as f64,
                trace.events().len() as f64,
                trace.dropped() as f64,
            )
        });
        layers.insert("runtime.obs.export_ns_per_span", ratio(export_ns, spans));
        layers.insert("runtime.obs.spans_dropped", dropped);
    }

    fn corrupt_reference(&mut self) {
        let (kernel, workload) = self.traces[0].keys[0];
        let value = &mut self.tenants.expected[kernel as usize][workload as usize][0][0];
        *value = value.wrapping_add(Value::new(1));
    }
}

/// The five profiled stages as ns per event, plus the share of the serve
/// call the profiler does not explain (the `runtime.serve` spans' self
/// time), over the traced serves of `events_per_serve` events each.
fn profile_layers(tracer: &Tracer, events_per_serve: f64, layers: &mut Layers) {
    let serve = tracer.totals("runtime.serve");
    let events = serve.count as f64 * events_per_serve;
    for (span, metric) in [
        ("runtime.profile.scan", "runtime.profile.scan_ns_per_event"),
        (
            "runtime.profile.route",
            "runtime.profile.route_ns_per_event",
        ),
        ("runtime.profile.sim", "runtime.profile.sim_ns_per_event"),
        ("runtime.profile.memo", "runtime.profile.memo_ns_per_event"),
        (
            "runtime.profile.bookkeeping",
            "runtime.profile.bookkeeping_ns_per_event",
        ),
    ] {
        layers.insert(metric, ratio(tracer.totals(span).total_ns as f64, events));
    }
    layers.insert(
        "runtime.profile.unattributed_share",
        ratio(serve.self_ns as f64, serve.total_ns as f64),
    );
}

/// Micro-probes of the runtime's public building blocks, one tight loop
/// each: what one call costs when nothing else is in the way.
fn component_probes(tenants: &Tenants, layers: &mut Layers) {
    const CALLS: usize = 20_000;
    let pool = TilePool::with_tiles(VARIANT, TileComposition::Parallel, ServeSteady::TILES)
        .expect("the pool is not empty");
    let keys: Vec<KernelKey> = tenants
        .specs
        .iter()
        .map(|spec| KernelKey {
            fingerprint: spec.fingerprint(),
            variant: VARIANT,
            depth: pool.logical_depth(),
        })
        .collect();
    let compiled: Vec<_> = tenants
        .specs
        .iter()
        .map(|spec| {
            let dfg = spec.dfg(&Default::default()).expect("the suite lowers");
            Compiler::new(VARIANT)
                .with_fixed_depth(FIXED_DEPTH)
                .compile_dfg(&dfg)
                .expect("the suite compiles")
        })
        .collect();
    let per_call = |total_ns: f64, calls: usize| ratio(total_ns, calls as f64);

    // Kernel cache: hits on a warm cache, misses on a fresh one (the miss
    // pays the compile).
    let mut cache = KernelCache::new(Runtime::DEFAULT_CACHE_CAPACITY).expect("non-zero");
    let miss_ns = median_ns(1, || {
        for (key, kernel) in keys.iter().zip(&compiled) {
            let _ = black_box(cache.get_or_compile(*key, || Ok(kernel.clone())));
        }
    });
    layers.insert("runtime.cache.insert_ns", per_call(miss_ns, keys.len()));
    let hit_ns = median_ns(5, || {
        for call in 0..CALLS {
            let key = keys[call % keys.len()];
            let _ = black_box(cache.get_or_compile(key, || unreachable!("warm cache")));
        }
    });
    layers.insert("runtime.cache.hit_ns", per_call(hit_ns, CALLS));

    // Simulation memo: inserts into an empty memo, then reads.
    let runs: Vec<_> = compiled
        .iter()
        .zip(&tenants.workloads)
        .map(|(kernel, workloads)| {
            let overlay = Overlay::for_kernel(VARIANT, kernel).expect("depth is in range");
            Arc::new(overlay.execute(kernel, &workloads[0]).expect("simulates"))
        })
        .collect();
    let sim_key = |index: usize| SimKey {
        kernel: keys[index % keys.len()],
        workload: index as u128,
    };
    let capacity = Runtime::DEFAULT_SIM_MEMO_CAPACITY;
    let mut memo = SimMemo::new(capacity);
    let insert_ns = median_ns(1, || {
        for index in 0..capacity {
            memo.insert(sim_key(index), Arc::clone(&runs[index % runs.len()]));
        }
    });
    layers.insert("runtime.memo.insert_ns", per_call(insert_ns, capacity));
    let get_ns = median_ns(5, || {
        for call in 0..CALLS {
            black_box(memo.get(&sim_key(call % capacity)));
        }
    });
    layers.insert("runtime.memo.get_ns", per_call(get_ns, CALLS));

    // Workload digest, per block.
    let request = Request::new(0, tenants.specs[0].clone(), tenants.workloads[0][0].clone());
    let digest_ns = median_ns(5, || {
        for _ in 0..CALLS {
            black_box(black_box(&request).workload_digest());
        }
    });
    layers.insert(
        "runtime.request.digest_ns_per_block",
        per_call(digest_ns, CALLS * BLOCKS),
    );

    // Placement on a pool whose tiles all hold a resident kernel, and the
    // enqueue → start → release cycle of one tile.
    let mut pool = pool;
    for tile in 0..pool.num_tiles() {
        pool.charge(tile, keys[tile % keys.len()], 0.0, 0.25, 0.2);
        pool.release(tile);
    }
    let mut dispatcher = Dispatcher::new(DispatchPolicy::KernelAffinity);
    let view = |call: usize| DispatchRequest {
        key: keys[call % keys.len()],
        est_exec_us: 0.2,
        switch_us: 0.25,
        deadline_us: Some(1.0 + DEADLINE_US),
    };
    let place_ns = median_ns(5, || {
        for call in 0..CALLS {
            black_box(dispatcher.place(&view(call), 1.0, &pool));
        }
    });
    layers.insert("runtime.dispatch.place_ns", per_call(place_ns, CALLS));
    let transition_ns = median_ns(5, || {
        for call in 0..CALLS {
            let tile = call % pool.num_tiles();
            let key = keys[call % keys.len()];
            pool.enqueue(tile, key, 0.2);
            black_box(pool.start_queued(tile, 0.2, None, key, 1.0, 0.25, 0.2));
            pool.release(tile);
        }
    });
    layers.insert(
        "runtime.pool.transition_ns",
        per_call(transition_ns, CALLS * 3),
    );

    // Event queue: pop the earliest of 64 pending events, push a later one.
    let mut events = EventQueue::new();
    for tile in 0..64 {
        events.push(tile as f64, EventKind::TileFree { tile });
    }
    let push_pop_ns = median_ns(5, || {
        for _ in 0..CALLS {
            let event = events.pop().expect("64 events are pending");
            events.push(event.time_us + 64.0, event.kind);
        }
    });
    layers.insert("runtime.event.push_pop_ns", per_call(push_pop_ns, CALLS));

    // Latency histogram.
    let mut hist = LogHistogram::new();
    let record_ns = median_ns(5, || {
        for call in 0..CALLS {
            hist.record(black_box(0.5 + (call % 97) as f64));
        }
    });
    layers.insert("runtime.obs.hist_record_ns", per_call(record_ns, CALLS));
}
