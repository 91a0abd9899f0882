//! Allocation regression test for the compile façade and `Overlay::execute`.
//!
//! The compile path borrows its tokens and names from the source, keeps
//! operands and register maps in dense tables and hands each stage's result
//! to the next by value. This file pins what one `Compiler::compile_*` call
//! allocates with a counting allocator, and that an overlay runs the kernel
//! it keeps loaded from its plan; it is an integration-test crate so that
//! the library keeps `#![forbid(unsafe_code)]`. Each bound is the count
//! the commit that set it measured, plus 15 %; the commit before it
//! (`0d00bf0`) read 383, 435 and 546. The gradient and Poly8 bounds were set
//! again when node names moved into the nodes; the commit before that
//! (`2f1562b`) read 59 and 102, and 55 for building Poly6's graph alone. All
//! three were set again when the schedule became three flat arrays; the
//! commit before that (`197a9cf`) read 41, 67 and 89. The gradient, Poly8 and
//! built-graph bounds were set again when the front end began to parse
//! straight into the graph and the builder to check as it goes; the commit
//! before that (`757d2a9`) read 27, 36 and 8.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tm_overlay::dfg::{Dfg, DfgGenerator, GeneratorConfig};
use tm_overlay::frontend::Benchmark;
use tm_overlay::sim::OverlaySimulator;
use tm_overlay::{CompiledKernel, Compiler, Error, FuVariant, Overlay, Workload};

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

fn allocations_of(compile: impl FnOnce() -> Result<CompiledKernel, Error>) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let compiled = compile().unwrap();
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(compiled.num_fus() > 0);
    count
}

/// What `run` allocates, counting none of the drops of what it returns.
fn allocations_of_run<T>(run: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let kept = run();
    let count = ALLOCATIONS.with(Cell::get) - before;
    drop(kept);
    count
}

/// A 72-op graph as `compile_sweep` draws them, deep enough to be clustered.
fn seeded_graph() -> Dfg {
    let config = GeneratorConfig {
        inputs: 5,
        ops: 72,
        target_depth: 16,
        ..GeneratorConfig::default()
    };
    DfgGenerator::new(0x5C4E_D000).generate(&config).unwrap()
}

/// Source text to instruction words, ASAP: 281 bytes of DSL, 17 nodes, 4 FUs.
#[test]
fn gradient_from_source_on_v1() {
    let source = Benchmark::Gradient.source().unwrap();
    let compiler = Compiler::new(FuVariant::V1);
    let count = allocations_of(|| compiler.compile_source(source));
    assert!(
        count <= 25,
        "{count} allocations, 22 when the bound was set"
    );
}

/// A structurally built suite kernel, clustered from depth 11 onto 8 FUs.
#[test]
fn poly8_on_v4_at_depth_8() {
    let compiler = Compiler::new(FuVariant::V4).with_fixed_depth(8);
    let count = allocations_of(|| compiler.compile_benchmark(Benchmark::Poly8));
    assert!(
        count <= 37,
        "{count} allocations, 33 when the bound was set"
    );
}

/// The largest kind of graph the sweep compiles, clustered from depth 16.
#[test]
fn a_72_op_graph_on_v5_at_depth_8() {
    let dfg = seeded_graph();
    assert!(dfg.analysis().depth() > 8);
    let compiler = Compiler::new(FuVariant::V5).with_fixed_depth(8);
    let count = allocations_of(|| compiler.compile_dfg(&dfg));
    assert!(
        count <= 39,
        "{count} allocations, 34 when the bound was set"
    );
}

/// Building a structurally built suite kernel's graph allocates the same few
/// buffers at every node count: no node name is allocated, and every list is
/// sized up front. 5 each (31 to 48 nodes) when written: the builder's name,
/// nodes, inputs, outputs and claimed names (8 while `build` re-walked the
/// graph and the kernel kept a list of its values and a name buffer).
#[test]
fn built_kernel_graphs_allocate_the_same_at_every_size() {
    let built = Benchmark::ALL
        .into_iter()
        .filter(|benchmark| benchmark.source().is_none());
    let counts: Vec<(Benchmark, usize, u64)> = built
        .map(|benchmark| {
            let before = ALLOCATIONS.with(Cell::get);
            let dfg = benchmark.dfg().unwrap();
            let count = ALLOCATIONS.with(Cell::get) - before;
            (benchmark, dfg.num_nodes(), count)
        })
        .collect();
    assert_eq!(counts.len(), 5, "{counts:?}");
    assert!(
        counts
            .iter()
            .all(|&(_, _, count)| count <= 6 && count == counts[0].2),
        "(kernel, nodes, allocations): {counts:?}"
    );
}

/// After the first run of the kernel an overlay was built for, which plans
/// it, every run of it, of a clone or of a kernel compiled again makes the
/// data pass alone: exactly what a planned run at the overlay's trace
/// capacity allocates (2 at 2 and at 256 traced blocks, the outputs and the
/// trace's header; 4 while the trace copied the kept blocks' columns and
/// each run made its own), where a one-shot run also decodes and times the
/// kernel (5; 7 before).
#[test]
fn a_second_execute_of_the_loaded_kernel_allocates_what_a_planned_run_does() {
    for benchmark in [Benchmark::Gradient, Benchmark::Poly8] {
        for variant in [FuVariant::V1, FuVariant::V4] {
            let compiler = Compiler::new(variant);
            let compiled = compiler.compile_benchmark(benchmark).unwrap();
            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            let simulator = OverlaySimulator::new(variant);
            let plan = simulator.plan(&compiled).unwrap();
            // A clone shares the program; a kernel compiled again only
            // equals it.
            let clone = compiled.clone();
            let again = compiler.compile_benchmark(benchmark).unwrap();
            for blocks in [2, 256] {
                let workload = Workload::random(compiled.program.num_inputs(), blocks, 1);
                overlay.execute(&compiled, &workload).unwrap();
                let planned = allocations_of_run(|| plan.run(&workload));
                let one_shot = allocations_of_run(|| simulator.run(&compiled, &workload));
                let kernels = [
                    (&compiled, "itself"),
                    (&clone, "a clone"),
                    (&again, "again"),
                ];
                for (kernel, which) in kernels {
                    let execute = allocations_of_run(|| overlay.execute(kernel, &workload));
                    let what = format!("{benchmark} on {variant} ({which}), {blocks} blocks");
                    assert_eq!(execute, planned, "{what}");
                    assert!(execute < one_shot, "{what}: {execute} vs {one_shot}");
                }
            }
        }
    }
}
