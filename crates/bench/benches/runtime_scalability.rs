//! Tiles × load scalability bench for the online serving runtime — the
//! "fig5-style" sweep for the *host-side* event loop.
//!
//! For every (tiles, load, policy) corner the same trace is served by value
//! (no ingest channel, no per-request clone) on a warm runtime — placement
//! answers from the pool's residency index, queues pop from per-tile ordered
//! structures, repeated (kernel, workload) simulations come from the memo —
//! three ways: plain, with span tracing, and with windowed telemetry + an SLO
//! objective. All three produce identical modeled results; what differs is
//! the host nanoseconds per event, which is what this bench records, plus
//! the two instrumentation overheads it holds under a 5% ceiling.
//!
//! Output: a human-readable table on stdout and a machine-readable
//! `BENCH_runtime.json` at the repository root (modeled req/s, host ns/event
//! and host events/s per corner) to seed the performance trajectory across
//! PRs.
//!
//! Environment:
//! * `BENCH_FAST=1` — CI mode: fewer requests and repetitions (same grid).
//! * `BENCH_RUNTIME_OUT=path` — override the JSON output path.

use std::fmt::Write as _;
use std::time::Instant;

use tm_overlay::{
    Benchmark, DispatchPolicy, FuVariant, KernelSpec, Request, Runtime, SloClass, SloConfig,
    SloObjective, TelemetryConfig, TraceConfig, Workload,
};

const TILE_COUNTS: [usize; 4] = [4, 16, 64, 256];
const LOADS: [(&str, f64); 2] = [("light", 0.5), ("overload", 2.0)];
const VARIANT: FuVariant = FuVariant::V4;

struct Corner {
    tiles: usize,
    load: &'static str,
    policy: DispatchPolicy,
    requests: usize,
    events: u64,
    modeled_req_per_sec: f64,
    indexed_ns_per_event: f64,
    /// The indexed hot path rerun with span tracing enabled — the
    /// observability overhead the acceptance bound caps at 5%.
    traced_ns_per_event: f64,
    /// The indexed hot path rerun with windowed telemetry and an SLO
    /// objective enabled — the continuous-telemetry overhead, capped by
    /// the same 5% bound.
    telemetry_ns_per_event: f64,
}

impl Corner {
    fn indexed_events_per_sec(&self) -> f64 {
        1.0e9 / self.indexed_ns_per_event
    }
}

/// A multi-tenant deadline-carrying trace: `count` requests cycling through
/// four kernels, each streaming 16 invocation records (the workload size the
/// crate's examples and throughput bench use) drawn from a small per-kernel
/// pool — so the sim memo engages, as a steady-state serving system would
/// see — arriving every `spacing_us`.
fn trace(count: usize, spacing_us: f64, budget_us: f64) -> Vec<Request> {
    let suite = [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Qspline,
        Benchmark::Poly5,
    ];
    let specs: Vec<(KernelSpec, usize)> = suite
        .iter()
        .map(|&b| {
            (
                KernelSpec::from_benchmark(b).unwrap(),
                b.dfg().unwrap().num_inputs(),
            )
        })
        .collect();
    (0..count)
        .map(|i| {
            let (spec, inputs) = &specs[i % specs.len()];
            let workload = Workload::random(*inputs, 16, (i % 8) as u64);
            let arrival = i as f64 * spacing_us;
            Request::new(i as u64, spec.clone(), workload)
                .at(arrival)
                .with_deadline(arrival + budget_us)
        })
        .collect()
}

/// Measures the indexed hot path plain, traced, and with windowed
/// telemetry + an SLO objective, as two *alternating pairs* per rep: each
/// instrument serves adjacent to its own plain control, swapping which
/// side of the pair goes first every rep. On a shared host, timing the
/// sides in separate sweeps would let clock drift between them swamp a
/// single-digit-percent overhead; adjacent-in-time pairs share host
/// conditions, and alternating the order cancels the residual
/// position-in-group effect (the first serve after a measurement
/// boundary runs colder than the second) to first order — a fixed order
/// folds that offset straight into the overhead estimate. Each overhead
/// is then the *median of per-rep ratios* (each rep's instrumented/plain
/// wall time); taking each side's minimum separately would compare minima
/// from different host moments and drift dominates again. The runtimes
/// are built once and reused across reps so the trace ring's and
/// telemetry lanes' allocations are warm, as they would be in a
/// long-running service. Returns (plain ns/event, traced ns/event,
/// telemetry ns/event, events, modeled req/s) where each instrumented
/// figure is plain × its median ratio, and asserts neither instrument
/// changed the event count.
fn measure_instrumented(
    tiles: usize,
    policy: DispatchPolicy,
    requests: &[Request],
    reps: usize,
    telemetry_window_us: f64,
    sweep_ratios: &mut [Vec<f64>; 2],
) -> (f64, f64, f64, u64, f64) {
    // The median needs a few samples to reject drift outliers, whatever
    // rep count the throughput corners use — and an even count, so the
    // pair alternation covers both orders equally.
    let reps = reps.max(6);
    let mut plain = Runtime::new(VARIANT, tiles).unwrap().with_policy(policy);
    let mut traced = Runtime::new(VARIANT, tiles)
        .unwrap()
        .with_policy(policy)
        .with_tracing(TraceConfig::enabled());
    let mut telemetered = Runtime::new(VARIANT, tiles)
        .unwrap()
        .with_policy(policy)
        .with_telemetry(TelemetryConfig::windowed(telemetry_window_us))
        .with_slo(
            SloConfig::disabled().with_objective(SloObjective::new(SloClass::Standard, 0.05)),
        );
    let mut best = f64::INFINITY;
    let mut traced_ratios = Vec::new();
    let mut telemetry_ratios = Vec::new();
    let mut events = [0u64; 3];
    let mut modeled = 0.0f64;
    for rep in 0..=reps {
        // Each instrument is timed against its own adjacent plain control,
        // with the pair order swapped every rep so the colder-first-serve
        // offset cancels instead of loading onto one side.
        let flip = rep % 2 == 1;
        for (ratios, slot) in [(&mut traced_ratios, 1usize), (&mut telemetry_ratios, 2)] {
            let mut wall = [0.0f64; 2];
            for side in 0..2 {
                let instrumented = (side == 0) == flip;
                let copy = requests.to_vec();
                let start = Instant::now();
                let report = if instrumented {
                    let runtime: &mut Runtime = if slot == 1 {
                        &mut traced
                    } else {
                        &mut telemetered
                    };
                    runtime.serve(copy).expect("bench trace serves cleanly")
                } else {
                    plain.serve(copy).expect("bench trace serves cleanly")
                };
                wall[usize::from(instrumented)] = start.elapsed().as_nanos() as f64;
                events[if instrumented { slot } else { 0 }] = report.metrics().events_fired;
                if !instrumented {
                    modeled = report.metrics().requests_per_sec;
                }
            }
            if rep > 0 {
                best = best.min(wall[0]);
                ratios.push(wall[1] / wall[0]);
            }
        }
    }
    assert_eq!(
        events[0], events[1],
        "tracing must not change the event sequence"
    );
    assert_eq!(
        events[0], events[2],
        "telemetry must not change the event sequence"
    );
    // Feed the raw per-rep ratios into the sweep-wide pools: the per-corner
    // medians below come from only a handful of millisecond-scale serves,
    // so the sweep-level acceptance figure uses the pooled median across
    // every corner's reps instead of averaging these noisy point estimates.
    sweep_ratios[0].extend_from_slice(&traced_ratios);
    sweep_ratios[1].extend_from_slice(&telemetry_ratios);
    let median = |ratios: &mut Vec<f64>| {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        ratios[ratios.len() / 2]
    };
    let traced_ratio = median(&mut traced_ratios);
    let telemetry_ratio = median(&mut telemetry_ratios);
    (
        best / events[0] as f64,
        best * traced_ratio / events[0] as f64,
        best * telemetry_ratio / events[0] as f64,
        events[0],
        modeled,
    )
}

fn main() {
    let fast = std::env::var("BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
    let (count, reps) = if fast { (1024, 2) } else { (4096, 3) };

    // Probe the modeled service time of one request so arrival spacing
    // tracks the timing model: offered load ρ means one arrival every
    // service/(tiles·ρ) microseconds.
    let probe = trace(1, 1.0, 1e9);
    let service_us = Runtime::new(VARIANT, 1)
        .unwrap()
        .serve(probe)
        .unwrap()
        .outcomes()[0]
        .completion_us;

    let mut corners: Vec<Corner> = Vec::new();
    // Per-rep instrumented/plain wall-time ratios pooled across the whole
    // sweep (slot 0: traced, slot 1: telemetered) — the denominators of the
    // sweep-level overhead acceptance figures.
    let mut sweep_ratios: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    println!(
        "runtime_scalability: {count} requests/serve, {reps} reps, service ~{service_us:.2} us \
         ({} mode)",
        if fast { "fast" } else { "full" }
    );
    println!(
        "{:>5} {:>9} {:>15} {:>12} {:>12} {:>12}",
        "tiles", "load", "policy", "indexed", "traced", "telemetry"
    );
    for &tiles in &TILE_COUNTS {
        for &(load, rho) in &LOADS {
            let spacing_us = service_us / (tiles as f64 * rho);
            let budget_us = 8.0 * service_us;
            let requests = trace(count, spacing_us, budget_us);
            for policy in DispatchPolicy::ALL {
                // Telemetry windows sized like the serving benches use
                // them: a few service times per window.
                let (indexed_ns, traced_ns, telemetry_ns, events, modeled) = measure_instrumented(
                    tiles,
                    policy,
                    &requests,
                    reps,
                    4.0 * service_us,
                    &mut sweep_ratios,
                );
                let corner = Corner {
                    tiles,
                    load,
                    policy,
                    requests: count,
                    events,
                    modeled_req_per_sec: modeled,
                    indexed_ns_per_event: indexed_ns,
                    traced_ns_per_event: traced_ns,
                    telemetry_ns_per_event: telemetry_ns,
                };
                println!(
                    "{:>5} {:>9} {:>15} {:>9.0} ns {:>9.0} ns {:>9.0} ns",
                    tiles,
                    load,
                    policy.to_string(),
                    corner.indexed_ns_per_event,
                    corner.traced_ns_per_event,
                    corner.telemetry_ns_per_event
                );
                corners.push(corner);
            }
        }
    }

    let biggest = *TILE_COUNTS.last().unwrap();

    // Instrumentation overhead over the whole sweep: the median of every
    // per-rep paired instrumented/plain wall-time ratio across all corners
    // — the ≤5% acceptance bound for always-on-able observability. Pooling
    // the raw ratios (instead of averaging per-corner medians) is what
    // makes the figure stable on a shared host: each corner's serves only
    // last a few milliseconds, so a scheduler hiccup during one corner can
    // swing that corner's median by several percent, but it cannot move
    // the median of a couple hundred pooled ratios.
    let pooled_median = |ratios: &mut Vec<f64>| {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        ratios[ratios.len() / 2]
    };
    let [mut traced_pool, mut telemetry_pool] = sweep_ratios;
    let traced_ratio = pooled_median(&mut traced_pool);
    let telemetry_ratio = pooled_median(&mut telemetry_pool);
    let indexed_total_ns: f64 = corners
        .iter()
        .map(|c| c.indexed_ns_per_event * c.events as f64)
        .sum();
    let sweep_events: u64 = corners.iter().map(|c| c.events).sum();
    let plain_ns_per_event = indexed_total_ns / sweep_events as f64;
    let traced_total_ns = indexed_total_ns * traced_ratio;
    let overhead_pct = (traced_ratio - 1.0) * 100.0;
    println!(
        "tracing overhead over the sweep: {:.0} ns/event untraced vs {:.0} ns/event traced \
         -> {overhead_pct:+.1}% (pooled median of {} paired reps, target <= 5%)",
        plain_ns_per_event,
        plain_ns_per_event * traced_ratio,
        traced_pool.len(),
    );

    // Continuous-telemetry overhead, same pooled-median shape: windowed
    // series + SLO tracking enabled vs the plain indexed path.
    let telemetry_total_ns = indexed_total_ns * telemetry_ratio;
    let telemetry_overhead_pct = (telemetry_ratio - 1.0) * 100.0;
    println!(
        "telemetry overhead over the sweep: {:.0} ns/event plain vs {:.0} ns/event with \
         windowed telemetry + SLO -> {telemetry_overhead_pct:+.1}% (pooled median of {} \
         paired reps, target <= 5%)",
        plain_ns_per_event,
        plain_ns_per_event * telemetry_ratio,
        telemetry_pool.len(),
    );

    // Per-stage host-time attribution at the largest pool: one profiled
    // serve per load with the default policy, feeding the `profile` section.
    let mut profiles = Vec::new();
    for &(load, rho) in &LOADS {
        let spacing_us = service_us / (biggest as f64 * rho);
        let requests = trace(count, spacing_us, 8.0 * service_us);
        let mut runtime = Runtime::new(VARIANT, biggest)
            .unwrap()
            .with_policy(DispatchPolicy::KernelAffinity)
            .with_profiling(true);
        runtime.serve(requests.clone()).expect("warm-up serve");
        let report = runtime.serve(requests).expect("profiled serve");
        let events = report.metrics().events_fired;
        let stats = report.profile().expect("profiling was on").clone();
        println!("{load:>9} @ {biggest} tiles: {stats}");
        profiles.push((load, events, stats));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"runtime_scalability\",");
    let _ = writeln!(json, "  \"schema\": {},", overlay_bench::BENCH_JSON_SCHEMA);
    let _ = writeln!(json, "  {},", overlay_bench::provenance_json_fields());
    let _ = writeln!(json, "  \"variant\": \"{VARIANT}\",");
    let _ = writeln!(json, "  \"fast_mode\": {fast},");
    let _ = writeln!(json, "  \"requests_per_serve\": {count},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"modeled_service_us\": {service_us:.3},");
    let _ = writeln!(json, "  \"entries\": [");
    for (i, c) in corners.iter().enumerate() {
        let comma = if i + 1 < corners.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"tiles\": {}, \"load\": \"{}\", \"policy\": \"{}\", \"requests\": {}, \
             \"events\": {}, \"modeled_req_per_sec\": {:.0}, \
             \"indexed_ns_per_event\": {:.1}, \"traced_ns_per_event\": {:.1}, \
             \"telemetry_ns_per_event\": {:.1}, \"indexed_events_per_sec\": {:.0}}}{}",
            c.tiles,
            c.load,
            c.policy,
            c.requests,
            c.events,
            c.modeled_req_per_sec,
            c.indexed_ns_per_event,
            c.traced_ns_per_event,
            c.telemetry_ns_per_event,
            c.indexed_events_per_sec(),
            comma
        );
    }
    json.push_str("  ]\n}\n");

    // The profile section: per-stage host-time attribution plus the
    // tracing-overhead acceptance, spliced alongside the sweep's section.
    let mut profile_json = String::new();
    profile_json.push_str("{\n");
    let _ = writeln!(profile_json, "  \"bench\": \"profile\",");
    let _ = writeln!(
        profile_json,
        "  \"schema\": {},",
        overlay_bench::BENCH_JSON_SCHEMA
    );
    let _ = writeln!(
        profile_json,
        "  {},",
        overlay_bench::provenance_json_fields()
    );
    let _ = writeln!(profile_json, "  \"variant\": \"{VARIANT}\",");
    let _ = writeln!(profile_json, "  \"fast_mode\": {fast},");
    let _ = writeln!(profile_json, "  \"tiles\": {biggest},");
    let _ = writeln!(
        profile_json,
        "  \"tracing_overhead\": {{\"indexed_total_ns\": {indexed_total_ns:.0}, \
         \"traced_total_ns\": {traced_total_ns:.0}, \"overhead_pct\": {overhead_pct:.2}, \
         \"target_pct\": 5.0, \"pass\": {}}},",
        overhead_pct <= 5.0
    );
    let _ = writeln!(
        profile_json,
        "  \"telemetry_overhead\": {{\"indexed_total_ns\": {indexed_total_ns:.0}, \
         \"telemetry_total_ns\": {telemetry_total_ns:.0}, \
         \"overhead_pct\": {telemetry_overhead_pct:.2}, \
         \"target_pct\": 5.0, \"pass\": {}}},",
        telemetry_overhead_pct <= 5.0
    );
    let _ = writeln!(profile_json, "  \"entries\": [");
    for (i, (load, events, stats)) in profiles.iter().enumerate() {
        let total_ns = stats.total_nanos().max(1) as f64;
        let stages: Vec<String> = stats
            .rows()
            .iter()
            .map(|(stage, nanos, probes)| {
                format!(
                    "{{\"stage\": \"{}\", \"total_ns\": {nanos}, \"probes\": {probes}, \
                     \"ns_per_probe\": {:.1}, \"ns_per_event\": {:.1}, \"share_pct\": {:.1}}}",
                    stage.label(),
                    stats.ns_per_probe(*stage),
                    *nanos as f64 / *events as f64,
                    *nanos as f64 / total_ns * 100.0
                )
            })
            .collect();
        let comma = if i + 1 < profiles.len() { "," } else { "" };
        let _ = writeln!(
            profile_json,
            "    {{\"load\": \"{load}\", \"policy\": \"kernel-affinity\", \"events\": {events}, \
             \"stages\": [{}]}}{comma}",
            stages.join(", ")
        );
    }
    profile_json.push_str("  ]\n}\n");

    let path = std::env::var("BENCH_RUNTIME_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json").into()
    });
    // BENCH_runtime.json holds one section per bench; keep the other
    // sections (if any) while replacing this one and the profile section.
    let existing = std::fs::read_to_string(&path).ok();
    let combined =
        overlay_bench::splice_bench_json(existing.as_deref(), "runtime_scalability", &json)
            .expect("BENCH_runtime.json section stays schema-compatible");
    let combined = overlay_bench::splice_bench_json(Some(&combined), "profile", &profile_json)
        .expect("BENCH_runtime.json profile section stays schema-compatible");
    std::fs::write(&path, combined).expect("write BENCH_runtime.json");
    println!("wrote {path}");
}
