//! Allocation regression tests for the serving hot path.
//!
//! The residency index keeps its classes in storage sized once per tile and
//! once per kernel, so warm pool transitions and placement queries touch no
//! allocator; a `Cluster` of any size keeps its per-intake tables between
//! serves and moves requests into them by value, so a warm serve allocates
//! its report, its per-tile queues and little else — also right after a
//! serve that failed; and a batch serve simulates on the calling thread,
//! planning each kernel once for as long as the kernel store holds it, so
//! the thread-local count of a cold serve is complete too, and a later serve
//! of the same kernels plans nothing. This file pins
//! all of it with a counting allocator; it is an integration-test crate so
//! that the library keeps `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use overlay_arch::{FuVariant, TileComposition};
use overlay_dfg::Value;
use overlay_frontend::{Benchmark, LowerOptions};
use overlay_runtime::{
    Cluster, DeviceMetrics, FaultPlan, KernelCache, KernelKey, KernelSpec, Request, RoutePolicy,
    RuntimeError, RuntimeMetrics, ServeReport, TilePool, Trace, TraceConfig,
};
use overlay_scheduler::{generate_program_owned, schedule};
use overlay_sim::{OverlaySimulator, Workload};

thread_local! {
    // Per thread, so tests running in parallel do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        let _ = ALLOCATED_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
    }
}

/// Runs `work` and returns its result with the allocations it made on this
/// thread and the bytes they asked for.
fn counted<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    let result = work();
    (
        result,
        ALLOCATIONS.with(Cell::get) - before.0,
        ALLOCATED_BYTES.with(Cell::get) - before.1,
    )
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` with a const
// initialiser, so touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's layout obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` came from `System`; the caller vouches for `layout`
        // and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TILES: usize = 64;
const KERNELS: usize = 8;

/// One lap over the pool: every tile is charged, queued behind with another
/// kernel (so its projection, and with it its busy lane, changes), freed
/// into the queued request and freed again, with a placement query beside
/// each release. Returns the number of pool calls made.
fn lap(pool: &mut TilePool, keys: &[KernelKey], now_us: f64) -> usize {
    for tile in 0..TILES {
        pool.charge(tile, keys[tile % KERNELS], now_us, 0.25, 1.0);
    }
    for tile in 0..TILES {
        pool.enqueue(tile, keys[(tile + 1) % KERNELS], 0.5);
    }
    for tile in 0..TILES {
        let next = keys[(tile + 1) % KERNELS];
        pool.release(tile);
        black_box(pool.start_queued(tile, 0.5, None, next, now_us, 0.25, 0.5));
        black_box(pool.place_earliest_indexed(keys[tile % KERNELS], 0.5, 0.25, now_us));
    }
    for tile in 0..TILES {
        pool.release(tile);
        black_box(pool.place_earliest_indexed(keys[tile % KERNELS], 0.5, 0.25, now_us));
    }
    TILES * 7
}

#[test]
fn warm_pool_transitions_and_queries_never_allocate() {
    let mut pool = TilePool::with_tiles(FuVariant::V4, TileComposition::Parallel, TILES).unwrap();
    let keys: Vec<KernelKey> = (0..KERNELS as u64)
        .map(|fingerprint| KernelKey {
            fingerprint,
            variant: FuVariant::V4,
            depth: 8,
        })
        .collect();
    lap(&mut pool, &keys, 0.0);

    let before = ALLOCATIONS.with(Cell::get);
    let mut calls = 0;
    while calls < 10_000 {
        calls += lap(&mut pool, &keys, calls as f64);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "{allocations} allocations in {calls} calls");
}

/// `requests` two-block requests over `KERNELS` kernels, one workload each:
/// after one serve every compile is a cache hit and every simulation a memo
/// hit.
fn warm_trace(requests: usize) -> Vec<Request> {
    let suite: Vec<(KernelSpec, Workload)> = Benchmark::ALL[..KERNELS]
        .iter()
        .map(|&benchmark| {
            let inputs = benchmark.dfg().unwrap().num_inputs();
            (
                KernelSpec::from_benchmark(benchmark).unwrap(),
                Workload::random(inputs, 2, 0xA110C),
            )
        })
        .collect();
    (0..requests)
        .map(|id| {
            let (kernel, workload) = &suite[id % KERNELS];
            Request::new(id as u64, kernel.clone(), workload.clone()).at(id as f64 * 0.05)
        })
        .collect()
}

/// What a warm serve may ask the allocator for: its report (one 144-byte
/// outcome per request, written once into the table that leaves with it),
/// the per-tile queues and histograms — and nothing per request. The
/// tables indexed by intake position are the instance's and were sized by
/// the serve before; a request moves into its intake row by value. When
/// written: 37 allocations and 154 bytes per request on one 64-tile device,
/// 51 and 158 on the 4-device cluster, whose aggregation used to grow a
/// latency table per device by doubling (94, and 102 for four times the
/// trace). Before the tables were the instance's the two made 2041 and 2112
/// (an `Arc` per request, every table afresh, the outcomes copied into a
/// second table).
const WARM_SERVE_REQUESTS: usize = 2_000;
const WARM_SERVE_ALLOCATIONS: u64 = 80;
const WARM_SERVE_BYTES_PER_REQUEST: u64 = 200;

/// Holds the second of two serves of one warm trace — `serve` answers with
/// the requests it served and the memo misses it took — to that budget, and
/// the second of two serves of a trace four times as long to the very same
/// count: nothing but the size of the report follows the trace's length, not
/// per request and not per doubling.
fn a_warm_serve_stays_in_budget(mut serve: impl FnMut(Vec<Request>) -> (usize, usize)) {
    let trace = warm_trace(WARM_SERVE_REQUESTS);
    serve(trace.clone());
    let ((served, memo_misses), allocations, bytes) = counted(|| serve(trace));
    let long = warm_trace(4 * WARM_SERVE_REQUESTS);
    serve(long.clone());
    let (_, long_allocations, _) = counted(|| serve(long));
    assert_eq!(
        long_allocations,
        allocations,
        "allocations for {} and for {WARM_SERVE_REQUESTS} requests",
        4 * WARM_SERVE_REQUESTS
    );
    assert_eq!(served, WARM_SERVE_REQUESTS);
    assert_eq!(memo_misses, 0, "the serve was warm");
    assert!(
        allocations <= WARM_SERVE_ALLOCATIONS,
        "{allocations} allocations for {WARM_SERVE_REQUESTS} requests"
    );
    assert!(
        bytes <= WARM_SERVE_REQUESTS as u64 * WARM_SERVE_BYTES_PER_REQUEST,
        "{bytes} bytes for {WARM_SERVE_REQUESTS} requests"
    );
}

#[test]
fn a_warm_serve_allocates_its_report_and_little_else() {
    let mut runtime = Cluster::new(FuVariant::V4, 1, TILES).unwrap();
    a_warm_serve_stays_in_budget(|trace| {
        let report = runtime.serve(trace).unwrap();
        (report.outcomes().len(), report.metrics().sim_memo.misses)
    });
}

#[test]
fn a_warm_cluster_serve_allocates_its_report_and_little_else() {
    let mut cluster = Cluster::new(FuVariant::V4, 4, TILES / 4).unwrap();
    a_warm_serve_stays_in_budget(|trace| {
        let report = cluster.serve(trace).unwrap();
        (report.outcomes().len(), report.metrics().sim_memo.misses)
    });
}

#[test]
fn a_warm_fleet_serve_routes_without_allocating() {
    // Every fleet serve routes among the eligible devices, and
    // power-of-two-choices draws its probe pair from them: a pick that
    // collects them would allocate per routed arrival, and this serve's
    // count would grow with its trace.
    let mut cluster = Cluster::new(FuVariant::V4, 4, TILES / 4)
        .unwrap()
        .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        .with_fault_plan(FaultPlan::new());
    a_warm_serve_stays_in_budget(|trace| {
        let report = cluster.serve(trace).unwrap();
        (report.outcomes().len(), report.metrics().sim_memo.misses)
    });
}

/// Everything a report says, in comparable form: outcomes (with outputs)
/// and rejects, totals, the per-device breakdown and the trace.
type Said = (String, RuntimeMetrics, Vec<DeviceMetrics>, Option<Trace>);

fn said(report: &ServeReport) -> Said {
    (
        format!("{:?}\n{:?}", report.outcomes(), report.rejected()),
        report.metrics().clone(),
        report.device_metrics().to_vec(),
        report.trace().cloned(),
    )
}

/// Warms `instance` on a trace, then fails it in every way a serve can
/// fail — no requests, an invalid arrival, an out-of-order arrival and a
/// kernel that does not compile, each after a hundred good requests — and
/// holds the serve after each failure to the warm one before them: the same
/// report, span for span, for no more allocations. (The reference is the
/// instance's own warm serve, not a new instance's cold one: caches, memo
/// and a cluster's kernel-image stores are meant to stay warm.)
fn a_failed_serve_costs_the_next_one_nothing(mut instance: Cluster) {
    let trace = warm_trace(1_000);
    let head = || trace[..100].to_vec();
    let after_head = trace[100].arrival_us;
    let (kernel, workload) = (trace[0].kernel.clone(), trace[0].workload.clone());
    let broken = KernelSpec::from_source("broken", "kernel broken(a) { out r = a + ; }");
    let failures: [(&str, Vec<Request>); 4] = [
        ("no requests", Vec::new()),
        (
            "invalid arrival",
            [
                head(),
                vec![Request::new(7, kernel.clone(), workload.clone()).at(f64::NAN)],
            ]
            .concat(),
        ),
        (
            "out-of-order arrival",
            [
                head(),
                vec![Request::new(7, kernel, workload.clone()).at(0.0)],
            ]
            .concat(),
        ),
        (
            "compile error",
            [
                head(),
                vec![Request::new(7, broken, workload).at(after_head)],
            ]
            .concat(),
        ),
    ];

    instance.serve(trace.clone()).unwrap();
    let replay = trace.clone();
    let (warm, warm_allocations, _) = counted(|| instance.serve(replay).unwrap());
    let warm = said(&warm);
    for (name, failing) in failures {
        assert!(instance.serve(failing).is_err(), "{name} must fail");
        let replay = trace.clone();
        let (report, allocations, _) = counted(|| instance.serve(replay).unwrap());
        assert!(
            allocations <= warm_allocations,
            "after {name}: {allocations} allocations, a warm serve makes {warm_allocations}"
        );
        let report = said(&report);
        assert!(
            report == warm,
            "after {name} the report differs from a warm serve's"
        );
    }
}

#[test]
fn a_failed_runtime_serve_leaves_nothing_behind() {
    for tracing in [TraceConfig::disabled(), TraceConfig::enabled()] {
        a_failed_serve_costs_the_next_one_nothing(
            Cluster::new(FuVariant::V4, 1, 8)
                .unwrap()
                .with_tracing(tracing),
        );
    }
}

#[test]
fn a_failed_cluster_serve_leaves_nothing_behind() {
    for tracing in [TraceConfig::disabled(), TraceConfig::enabled()] {
        a_failed_serve_costs_the_next_one_nothing(
            Cluster::new(FuVariant::V4, 4, 2)
                .unwrap()
                .with_tracing(tracing),
        );
    }
}

#[test]
fn a_cold_serve_allocates_only_on_the_calling_thread() {
    // The shape of the `serve_cold` benchmark workload: a fresh 16-tile
    // runtime, the whole paper suite, 64 two-block requests whose workloads
    // are all different — every kernel compiles, every request simulates.
    const REQUESTS: usize = 64;
    let specs: Vec<(KernelSpec, usize)> = Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            (
                KernelSpec::from_benchmark(benchmark).unwrap(),
                benchmark.dfg().unwrap().num_inputs(),
            )
        })
        .collect();
    let trace: Vec<Request> = (0..REQUESTS)
        .map(|id| {
            let (kernel, inputs) = &specs[id % specs.len()];
            let mut records = Workload::random(*inputs, 2, id as u64).records().to_vec();
            records[0][0] = Value::new(id as i32);
            Request::new(id as u64, kernel.clone(), Workload::from_records(records))
                .at(id as f64 * 0.01)
        })
        .collect();

    let before = ALLOCATIONS.with(Cell::get);
    let mut runtime = Cluster::new(FuVariant::V4, 1, 16).unwrap();
    let report = runtime.serve(trace).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(report.outcomes().len(), REQUESTS);
    assert_eq!(report.metrics().cache.misses, Benchmark::ALL.len());
    assert_eq!(report.metrics().sim_memo.misses, REQUESTS);
    // No helper thread exists whose allocations this count could miss, so
    // it is the whole serve: 1028, 16.06 per request, most of it the nine
    // compiles, when the bound was set (525 now, 9 of them the compiled
    // programs' `Arc`s). Each kernel is planned once (its program's `Arc`,
    // steps and stages, and its timing law), and each request's run then
    // allocates its outputs and its `Arc`, in the calling thread's column
    // scratch. It was 1244 while every run decoded and timed its kernel
    // afresh, and 4092 (63.9 per request) when this test was first written.
    assert!(
        allocations <= 1028,
        "{allocations} allocations for {REQUESTS} cold requests"
    );
}

/// A kernel is decoded and timed once for as long as the kernel store holds
/// it, not once per serve. On a runtime with the memo off, so that every
/// request simulates, the serve that compiles the suite into a fresh store
/// also plans it; the next serve of the suite does neither. Its allocation
/// count is the first serve's less exactly what the nine compiles and the
/// nine plans allocate, each counted here on its own. (While every serve
/// planned its kernels afresh, the second serve made the nine plans too.)
#[test]
fn a_second_serve_of_a_warm_kernel_does_not_plan_it() {
    let specs: Vec<(KernelSpec, usize)> = Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            (
                KernelSpec::from_benchmark(benchmark).unwrap(),
                benchmark.dfg().unwrap().num_inputs(),
            )
        })
        .collect();
    let trace: Vec<Request> = (0..2 * specs.len())
        .map(|id| {
            let (kernel, inputs) = &specs[id % specs.len()];
            let workload = Workload::random(*inputs, 2, id as u64);
            Request::new(id as u64, kernel.clone(), workload).at(id as f64 * 0.01)
        })
        .collect();
    let serve = |runtime: &mut Cluster, trace: Vec<Request>| {
        let report = runtime.serve(trace).unwrap();
        assert_eq!(report.metrics().sim_memo.misses, 2 * specs.len());
        report
    };

    // Warm what a serve keeps (its tables, the residency index), then give
    // the runtime a fresh kernel store: no kernel compiled, none planned.
    let mut runtime = Cluster::new(FuVariant::V4, 1, 16)
        .unwrap()
        .with_sim_memo_capacity(0);
    serve(&mut runtime, trace.clone());
    let mut runtime = runtime
        .with_cache_capacity(Cluster::DEFAULT_CACHE_CAPACITY)
        .unwrap();
    let (first_trace, second_trace) = (trace.clone(), trace);
    let (_, first, _) = counted(|| serve(&mut runtime, first_trace));
    let (_, second, _) = counted(|| serve(&mut runtime, second_trace));

    // What the first serve's compiles and plans allocate: the same compiles
    // into a fresh store, then one plan per compiled kernel.
    let depth = runtime.devices()[0].pool().logical_depth();
    let compile = |spec: &KernelSpec| -> Result<_, RuntimeError> {
        let dfg = spec.dfg(&LowerOptions::default())?;
        let stages = schedule(&dfg, FuVariant::V4, Some(depth))?;
        Ok(generate_program_owned(&dfg, stages, FuVariant::V4)?)
    };
    let mut store = KernelCache::new(Cluster::DEFAULT_CACHE_CAPACITY).unwrap();
    let ((), compiles, _) = counted(|| {
        for (spec, _) in &specs {
            let key = KernelKey {
                fingerprint: spec.fingerprint(),
                variant: FuVariant::V4,
                depth,
            };
            black_box(store.get_or_compile(key, || compile(spec)).unwrap());
        }
    });
    let kernels: Vec<_> = specs
        .iter()
        .map(|(spec, _)| compile(spec).unwrap())
        .collect();
    let simulator = OverlaySimulator::new(FuVariant::V4).with_trace_capacity(0);
    let ((), plans, _) = counted(|| {
        for kernel in &kernels {
            black_box(simulator.plan(kernel).unwrap());
        }
    });
    assert!(plans > 0);
    assert_eq!(
        second,
        first - compiles - plans,
        "first serve {first} = {compiles} compiling + {plans} planning + the rest"
    );
}
