//! `bench`: one workload with tracing off; prints the end-to-end metrics.

use std::process::ExitCode;

use overlay_benchmark::harness::{self, Mode};

fn main() -> ExitCode {
    harness::main(Mode::Plain)
}
