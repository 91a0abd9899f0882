//! Allocation regression tests for scheduling and one clustered compile.
//!
//! A schedule is three flat arrays (every stage's slots, every stage's
//! arrivals, and where each stage's share ends), each sized once. The
//! boundary search costs a candidate partition from per-range slot counts
//! and per-boundary crossing counts, ordering ranges into one arena, so only
//! the winning partition is copied out as a schedule; instruction generation
//! reads the schedule and one per-node table. This file pins that with a
//! counting allocator; it is an integration-test crate so that the library
//! keeps `#![forbid(unsafe_code)]`. Each bound is the count the commit that
//! set it measured, plus 15 %.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use overlay_arch::FuVariant;
use overlay_frontend::Benchmark;
use overlay_scheduler::{asap_schedule, generate_program, schedule};

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
/// to schedule), and 81 before the schedule became flat (commit `197a9cf`:
/// 46 to schedule, 35 to generate code, 21 of those the copy); it reads 32
/// now (16 to schedule, 16 to generate code, 4 of those the copy).
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
        count <= 36,
        "{count} allocations for one clustered compile: {scheduled} in `schedule`, \
         {generated} in `generate_program`, {copy} of those copying the schedule"
    );
}

/// A level schedule is a fixed set of buffers, each sized once, so every
/// suite kernel — 4 to 13 stages deep — allocates the same count: 8 when
/// written, where the nested schedule before it (commit `197a9cf`) read 11
/// plus 2 per stage.
#[test]
fn a_level_schedule_allocates_the_same_at_every_depth() {
    let counts: Vec<(Benchmark, usize, u64)> = Benchmark::ALL
        .into_iter()
        .map(|benchmark| {
            let dfg = benchmark.dfg().unwrap();
            let before = ALLOCATIONS.with(Cell::get);
            let stages = asap_schedule(&dfg).unwrap();
            let count = ALLOCATIONS.with(Cell::get) - before;
            (benchmark, stages.num_stages(), count)
        })
        .collect();
    let depths = counts.iter().map(|&(_, stages, _)| stages);
    assert_eq!((depths.clone().min(), depths.max()), (Some(4), Some(13)));
    assert!(
        counts
            .iter()
            .all(|&(_, _, count)| count <= 9 && count == counts[0].2),
        "(kernel, stages, allocations): {counts:?}"
    );
}
