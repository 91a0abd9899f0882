//! `bench-traced`: the same workload with spans around every call into a
//! layer's public functions; prints the per-layer metrics and writes
//! `<out>/<workload>.trace.json`.

use std::process::ExitCode;

use overlay_benchmark::alloc::CountingAlloc;
use overlay_benchmark::harness::{self, Mode};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    harness::main(Mode::Traced)
}
