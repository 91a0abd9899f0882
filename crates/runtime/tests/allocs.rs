//! Allocation regression tests for the serving hot path.
//!
//! The residency index keeps its classes in storage sized once per tile and
//! once per kernel, so warm pool transitions and placement queries touch no
//! allocator; and a batch serve sizes its per-request tables up front, so a
//! warm serve is left with the one `Arc` per request the intake makes; and a
//! batch serve simulates on the calling thread, so the thread-local count of
//! a cold serve is complete too. This file pins all three with a counting
//! allocator; it is an integration-test crate so that the library keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use overlay_arch::{FuVariant, TileComposition};
use overlay_dfg::Value;
use overlay_frontend::Benchmark;
use overlay_runtime::{KernelKey, KernelSpec, Request, Runtime, TilePool};
use overlay_sim::Workload;

thread_local! {
    // Per thread, so tests running in parallel do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` with a const
// initialiser, so touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's layout obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
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

#[test]
fn a_warm_serve_allocates_about_once_per_request() {
    const REQUESTS: usize = 2_000;
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
    let trace: Vec<Request> = (0..REQUESTS)
        .map(|id| {
            let (kernel, workload) = &suite[id % KERNELS];
            Request::new(id as u64, kernel.clone(), workload.clone()).at(id as f64 * 0.05)
        })
        .collect();
    let mut runtime = Runtime::new(FuVariant::V4, TILES).unwrap();
    runtime.serve(trace.clone()).unwrap();

    let replay = trace.clone();
    let before = ALLOCATIONS.with(Cell::get);
    let report = runtime.serve(replay).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(report.outcomes().len(), REQUESTS);
    assert_eq!(report.metrics().sim_memo.misses, 0, "the serve was warm");
    // One `Arc<Request>` per request plus the per-serve tables: 2044 when
    // written. With the tables grown by doubling and the B-tree index
    // allocating a node whenever a per-kernel set refilled, the parent of
    // this test's commit made 4365 here (and 368 in the pool test's laps).
    assert!(
        allocations * 2 <= REQUESTS as u64 * 3,
        "{allocations} allocations for {REQUESTS} requests"
    );
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
    let mut runtime = Runtime::new(FuVariant::V4, 16).unwrap();
    let report = runtime.serve(trace).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(report.outcomes().len(), REQUESTS);
    assert_eq!(report.metrics().cache.misses, Benchmark::ALL.len());
    assert_eq!(report.metrics().sim_memo.misses, REQUESTS);
    // No helper thread exists whose allocations this count could miss, so
    // it is the whole serve: 4092 when written, 63.9 per request (the nine
    // compiles are most of it).
    assert!(
        allocations <= REQUESTS as u64 * 64,
        "{allocations} allocations for {REQUESTS} cold requests"
    );
}
