//! Allocation regression test for one clustered compile.
//!
//! The boundary search costs a candidate partition from cached per-range
//! slot counts and per-boundary crossing counts, so only the winning
//! partition is materialised as a schedule; the schedule keeps the one
//! liveness pass's forwarding decisions, and instruction generation reads
//! them and two per-node tables. This file pins that with a counting
//! allocator; it is an integration-test crate so that the library
//! keeps `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use overlay_arch::FuVariant;
use overlay_frontend::Benchmark;
use overlay_scheduler::{generate_program, schedule};

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

/// Poly8 (depth 11) on V3 at the paper's fixed depth of 8: schedule and
/// code generation together, through the public `generate_program`, which
/// copies the schedule it borrows. The scheduler as it stood before
/// clustering became incremental (commit `aac19be`) reads 1295 allocations
/// for this body, and 295 before the compile path stopped hashing and
/// recomputing (commit `0d00bf0`), and 87 before the boundary search stopped
/// ordering ranges for moves that cannot win (commit `c4576f9`, 52 of them
/// to schedule); it reads 81 now (46 to schedule, 35 to generate code, 21 of
/// those the copy).
#[test]
fn a_clustered_compile_allocates_a_quarter_of_what_it_did() {
    let dfg = Benchmark::Poly8.dfg().unwrap();
    assert!(dfg.analysis().depth() > 8);
    let before = ALLOCATIONS.with(Cell::get);
    let stages = schedule(&dfg, FuVariant::V3, Some(8)).unwrap();
    let scheduled = ALLOCATIONS.with(Cell::get) - before;
    let copied = stages.clone();
    let copy = ALLOCATIONS.with(Cell::get) - before - scheduled;
    let compiled = generate_program(&dfg, &stages, FuVariant::V3).unwrap();
    let count = ALLOCATIONS.with(Cell::get) - before - copy;
    assert_eq!(compiled.num_fus(), 8);
    assert_eq!(compiled.schedule, copied);
    let generated = count - scheduled;
    assert!(
        count <= 89,
        "{count} allocations for one clustered compile: {scheduled} in `schedule`, \
         {generated} in `generate_program`, {copy} of those copying the schedule"
    );
}
