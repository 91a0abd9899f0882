//! Allocation regression test for `OverlaySimulator::run`.
//!
//! The engine decodes the program once and steps every block through
//! reused buffers, so the only allocation left per block is the block's
//! output record. This file pins that with a counting allocator; it is an
//! integration-test crate so that the library keeps `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use overlay_arch::FuVariant;
use overlay_frontend::Benchmark;
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, Workload};

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

const BLOCKS: usize = 256;

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
        let workload = Workload::random(dfg.num_inputs(), BLOCKS, 0xA110C);
        (name, variant, compiled, workload)
    })
    .collect()
}

/// Allocations (and reallocations) one run performs at `capacity`.
fn allocations(
    variant: FuVariant,
    compiled: &CompiledKernel,
    workload: &Workload,
    capacity: usize,
) -> u64 {
    let simulator = OverlaySimulator::new(variant).with_trace_capacity(capacity);
    let before = ALLOCATIONS.with(Cell::get);
    let run = simulator.run(compiled, workload);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(run.unwrap().outputs().len(), BLOCKS);
    after - before
}

#[test]
fn a_run_allocates_one_record_per_block_plus_a_constant() {
    let kernels = kernels();
    assert_eq!(kernels[0].2.num_fus(), 4);
    assert_eq!(kernels[1].2.num_fus(), 8);
    let words: Vec<usize> = kernels
        .iter()
        .map(|(.., compiled, _)| compiled.program.total_instructions())
        .collect();
    assert!(words[1] >= 2 * words[0], "{words:?}");

    let untraced: Vec<u64> = kernels
        .iter()
        .map(|(_, variant, compiled, workload)| allocations(*variant, compiled, workload, 0))
        .collect();
    for ((name, ..), &count) in kernels.iter().zip(&untraced) {
        assert!(
            count <= BLOCKS as u64 + 16,
            "{name}: {count} allocations for {BLOCKS} blocks"
        );
    }
    // Neither the FU count, the words per FU nor the lane count shows up.
    assert!(
        untraced.iter().all(|&count| count == untraced[0]),
        "allocations vary with the program: {untraced:?}"
    );

    // The default trace is one up-front reservation, never a regrowth.
    for ((name, variant, compiled, workload), &base) in kernels.iter().zip(&untraced) {
        let traced = allocations(*variant, compiled, workload, 4096);
        assert!(
            traced <= base + 1,
            "{name}: {traced} allocations traced, {base} untraced"
        );
    }
}

#[test]
fn a_two_block_run_allocates_no_more_than_the_interpreter_did() {
    // Every serve workload sends 2-block requests, so a run's fixed cost is
    // what a cold serve sees. The per-block interpreter this engine replaced
    // made 10 allocations for a 2-block untraced run (measured at its last
    // commit, the same for all three programs).
    for (name, variant, compiled, workload) in kernels() {
        let short = Workload::from_records(workload.records()[..2].to_vec());
        let simulator = OverlaySimulator::new(variant).with_trace_capacity(0);
        let before = ALLOCATIONS.with(Cell::get);
        let run = simulator.run(&compiled, &short);
        let after = ALLOCATIONS.with(Cell::get);
        assert_eq!(run.unwrap().outputs().len(), 2);
        assert!(
            after - before <= 10,
            "{name}: {} allocations for 2 blocks",
            after - before
        );
    }
}
