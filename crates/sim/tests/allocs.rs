//! Allocation regression tests for `OverlaySimulator::run` and `SimPlan`.
//!
//! A run allocates the same handful of buffers whatever it simulates: its
//! plan (the decoded program and the timing law), the data pass's columns
//! (on a thread whose column scratch is narrower than the run) and the one
//! buffer every block's outputs go to, plus, when it keeps events, the
//! trace's header. A planned run on a warm thread allocates its outputs and
//! that header alone. This file pins that with a counting allocator; it is
//! an integration-test crate so that the library keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use overlay_arch::FuVariant;
use overlay_frontend::Benchmark;
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, Workload};

thread_local! {
    // Per thread, so tests running in parallel do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        let _ = BYTES.try_with(|count| count.set(count.get() + bytes));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local `Cell`s with const
// initialisers, so touching them neither allocates nor re-enters the
// allocator.
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

/// Block counts on both sides of every threshold the engine has: the runs
/// it never tries to close, one column, one column plus one.
const BLOCKS: [usize; 5] = [1, 2, 64, 65, 256];

/// A 4-FU feed-forward kernel, an 8-FU clustered kernel with over twice the
/// instruction words, and V2's two lanes. Each has one output per block.
fn kernels() -> Vec<(&'static str, FuVariant, CompiledKernel, Workload)> {
    [
        ("4-FU feed-forward", Benchmark::Gradient, FuVariant::V1),
        ("8-FU clustered", Benchmark::Poly8, FuVariant::V3),
        ("two lanes", Benchmark::Gradient, FuVariant::V2),
    ]
    .into_iter()
    .map(|(name, benchmark, variant)| {
        let dfg = benchmark.dfg().unwrap();
        let stages = schedule(&dfg, variant, Some(8)).unwrap();
        let compiled = generate_program(&dfg, &stages, variant).unwrap();
        assert_eq!(compiled.output_stream_index.len(), 1, "{name}");
        let workload = Workload::random(dfg.num_inputs(), 256, 0xA110C);
        (name, variant, compiled, workload)
    })
    .collect()
}

/// Allocations (and reallocations) one run of the first `blocks` records
/// of `workload` performs at `capacity`, and the bytes they ask for. The run
/// is made on a thread of its own, so it finds the column scratch empty, as
/// the first run on any thread does.
fn allocations(
    variant: FuVariant,
    compiled: &CompiledKernel,
    workload: &Workload,
    blocks: usize,
    capacity: usize,
) -> (u64, usize) {
    let workload = Workload::from_records(workload.records()[..blocks].to_vec());
    let simulator = OverlaySimulator::new(variant).with_trace_capacity(capacity);
    let counted = || {
        let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
        let run = simulator.run(compiled, &workload);
        let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
        assert_eq!(run.unwrap().outputs().len(), blocks);
        (after.0 - before.0, after.1 - before.1)
    };
    std::thread::scope(|scope| scope.spawn(counted).join().unwrap())
}

#[test]
fn a_run_allocates_the_same_few_buffers_whatever_it_simulates() {
    let kernels = kernels();
    assert_eq!(kernels[0].2.num_fus(), 4);
    assert_eq!(kernels[1].2.num_fus(), 8);
    let words: Vec<usize> = kernels
        .iter()
        .map(|(.., compiled, _)| compiled.program.total_instructions())
        .collect();
    assert!(words[1] >= 2 * words[0], "{words:?}");

    // Neither the block count, the FU count, the words per FU nor the lane
    // count shows up.
    let mut untraced = Vec::new();
    for (name, variant, compiled, workload) in &kernels {
        for blocks in BLOCKS {
            let (count, _) = allocations(*variant, compiled, workload, blocks, 0);
            untraced.push(count);
            assert_eq!(count, untraced[0], "{name}, {blocks} blocks: {untraced:?}");
        }
    }

    // A trace is one more, however much of the run it keeps: the boxed
    // program, workload and counts.
    for (name, variant, compiled, workload) in &kernels {
        for blocks in BLOCKS {
            for capacity in [1, 4096, usize::MAX] {
                let (traced, _) = allocations(*variant, compiled, workload, blocks, capacity);
                assert!(
                    traced == untraced[0] + 1,
                    "{name}, {blocks} blocks at capacity {capacity}: {traced} allocations \
                     traced, {} untraced",
                    untraced[0]
                );
            }
        }
    }
}

#[test]
fn a_two_block_run_allocates_no_more_than_the_interpreter_did() {
    // The per-block interpreter this engine replaced made 10 allocations
    // for a 2-block untraced run (measured at its last commit, the same for
    // all three programs). A one-shot run on a fresh thread makes 5: the
    // decoded steps and stages, the timing law (its table, the row the pass
    // steps and the ring of `max` arguments are one allocation), the
    // thread's column scratch and the output buffer (none of the three
    // kernels preloads constants, whose values would be one more); on a
    // thread whose scratch is wide enough, 4. Its program is never shared,
    // so it is not put in an `Arc`: a trace takes it by move.
    for (name, variant, compiled, workload) in kernels() {
        let (count, _) = allocations(variant, &compiled, &workload, 2, 0);
        assert_eq!(count, 5, "{name}: {count} allocations for 2 blocks");
    }
}

#[test]
fn a_planned_run_allocates_only_its_outputs() {
    // Every serve workload sends 2-block requests, so what a planned run
    // costs is what a cold serve pays per request: once the kernel is
    // planned and the thread's column scratch is as wide as the run, the
    // output buffer alone, at any length, and one trace header more when
    // the run keeps events, whatever the capacity.
    for (name, variant, compiled, workload) in kernels() {
        for capacity in [0, 1, 4096, usize::MAX] {
            let plan = OverlaySimulator::new(variant)
                .with_trace_capacity(capacity)
                .plan(&compiled)
                .unwrap();
            plan.run(&workload).unwrap();
            let header = u64::from(capacity > 0);
            for blocks in BLOCKS {
                let workload = Workload::from_records(workload.records()[..blocks].to_vec());
                let before = ALLOCATIONS.with(Cell::get);
                let run = plan.run(&workload);
                let count = ALLOCATIONS.with(Cell::get) - before;
                assert_eq!(run.unwrap().outputs().len(), blocks);
                assert_eq!(
                    count,
                    1 + header,
                    "{name}, {blocks} blocks at capacity {capacity}: {count} allocations"
                );
            }
        }
    }
}

#[test]
fn a_trace_holds_one_value_per_kept_event_and_no_event() {
    // Before the trace was packed, a kept event cost a 56-byte `Event` from
    // the moment the run recorded it; until the trace kept its run's
    // workload instead, a kept block cost its column table. Now a trace
    // costs a fixed header, and the kept blocks' values are evaluated again
    // when somebody reads the events: however long the run and the
    // capacity, it asks for the bytes of a trace that keeps one event.
    for (name, variant, compiled, workload) in kernels() {
        let per_block = compiled.program.total_instructions() + 1;
        let (_, first_event) = allocations(variant, &compiled, &workload, 256, 1);
        for capacity in [per_block + 1, 4096, usize::MAX] {
            let (_, traced) = allocations(variant, &compiled, &workload, 256, capacity);
            assert_eq!(
                traced, first_event,
                "{name} at capacity {capacity}: {traced} bytes, {first_event} keeping one event"
            );
        }
    }
}
