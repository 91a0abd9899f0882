//! End-to-end integration tests across all workspace crates: kernel source →
//! DFG → schedule → instructions → cycle-accurate simulation, checked against
//! the reference evaluator.

use std::sync::Arc;

use tm_overlay::dfg::{evaluate_stream, Value};
use tm_overlay::frontend::LowerOptions;
use tm_overlay::sim::{OverlaySimulator, SimRun};
use tm_overlay::{Benchmark, CompiledKernel, Compiler, FuVariant, Overlay, Workload};

/// Custom kernels covering every DSL construct, compiled and simulated on
/// every evaluated variant.
const CUSTOM_KERNELS: &[&str] = &[
    "kernel fma(a, b, c) { out y = a * b + c; }",
    "kernel horner(x) { out y = ((x * 3 - 5) * x + 7) * x - 11; }",
    "kernel blend(a, b, w) { out y = a * w + b * (16 - w); }",
    "kernel magnitude(x, y) { out m = sqr(x) + sqr(y); }",
    "kernel clamp_diff(a, b) { out y = min(max(a - b, 0 - 100), 100); }",
    "kernel bits(a, b) { out y = ((a & b) | (a ^ b)) + (a << 2) - (b >> 1); }",
    "kernel two_out(a, b) { out s = a + b; out d = a - b; }",
    "kernel deep(x) { let a = sqr(x); let b = sqr(a); let c = sqr(b); out y = c + a; }",
];

#[test]
fn custom_kernels_simulate_correctly_on_every_variant() {
    for source in CUSTOM_KERNELS {
        for variant in FuVariant::EVALUATED {
            let compiler = Compiler::new(variant);
            let compiled = compiler
                .compile_source(source)
                .unwrap_or_else(|e| panic!("compile failed for {source}: {e}"));
            // Reference results come from the DFG evaluator.
            let dfg = tm_overlay::frontend::compile_kernel(source).unwrap();
            let workload = Workload::random(dfg.num_inputs(), 20, 0xFEED);
            let expected = evaluate_stream(&dfg, workload.records()).unwrap();

            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            let run = overlay.execute(&compiled, &workload).unwrap();
            assert_eq!(
                run.outputs(),
                expected.as_slice(),
                "mismatch for {source} on {variant}"
            );
        }
    }
}

#[test]
fn three_operand_graphs_are_rejected_by_the_compiler_not_the_simulator() {
    // The DSL never emits `MulAdd`, but a hand-built graph can hold one. The
    // 32-bit EXEC word has no third source field, so the tool flow must say
    // so with a typed error instead of emitting a word that drops the addend.
    use tm_overlay::dfg::{DfgBuilder, Op};
    use tm_overlay::scheduler::ScheduleError;

    let mut builder = DfgBuilder::new("mac");
    let [x, y, z] = ["x", "y", "z"].map(|name| builder.input(name));
    let mac = builder.op(Op::MulAdd, &[x, y, z]).unwrap();
    builder.output("out", mac);
    let dfg = builder.build().unwrap();
    for variant in FuVariant::ALL {
        let error = Compiler::new(variant).compile_dfg(&dfg).unwrap_err();
        assert!(
            matches!(
                error,
                tm_overlay::Error::Schedule(ScheduleError::UnsupportedArity {
                    node,
                    op: Op::MulAdd,
                    arity: 3,
                }) if node == mac
            ),
            "{variant}: {error}"
        );
    }
}

#[test]
fn benchmark_suite_simulates_correctly_with_optimized_lowering() {
    // Re-lower the DSL benchmarks with CSE enabled and make sure the whole
    // flow still produces correct results (fewer ops, same semantics).
    for benchmark in [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Sgfilter,
    ] {
        let source = benchmark.source().unwrap();
        let plain = tm_overlay::frontend::compile_kernel(source).unwrap();
        let optimized =
            tm_overlay::frontend::compile_kernel_with(source, &LowerOptions::optimized()).unwrap();
        assert!(optimized.num_ops() <= plain.num_ops());

        let compiler = Compiler::new(FuVariant::V1).with_lower_options(LowerOptions::optimized());
        let compiled = compiler.compile_source(source).unwrap();
        let workload = Workload::random(plain.num_inputs(), 16, 0xBEEF);
        let expected = evaluate_stream(&plain, workload.records()).unwrap();
        let overlay = Overlay::for_kernel(FuVariant::V1, &compiled).unwrap();
        let run = overlay.execute(&compiled, &workload).unwrap();
        assert_eq!(run.outputs(), expected.as_slice(), "{benchmark}");
    }
}

#[test]
fn assembler_round_trips_generated_programs() {
    // The textual assembler must be able to re-assemble every program the
    // code generator emits.
    for benchmark in Benchmark::ALL {
        for variant in [FuVariant::V1, FuVariant::V3] {
            let compiled = Compiler::new(variant).compile_benchmark(benchmark).unwrap();
            for program in compiled.program.fu_programs() {
                let text = tm_overlay::isa::disassemble(program);
                let reassembled = tm_overlay::isa::assemble(&text).unwrap();
                assert_eq!(&reassembled, program, "{benchmark} {variant}");
            }
        }
    }
}

#[test]
fn encoded_programs_decode_to_the_same_instructions() {
    for benchmark in Benchmark::TABLE3 {
        let compiled = Compiler::new(FuVariant::V4)
            .compile_benchmark(benchmark)
            .unwrap();
        for program in compiled.program.fu_programs() {
            for (word, instr) in program.encode().iter().zip(program.instructions()) {
                let decoded = tm_overlay::isa::Instruction::decode(*word).unwrap();
                assert_eq!(&decoded, instr);
            }
        }
    }
}

#[test]
fn deterministic_workloads_produce_deterministic_runs() {
    let compiled = Compiler::new(FuVariant::V2)
        .compile_benchmark(Benchmark::Mibench)
        .unwrap();
    let overlay = Overlay::for_kernel(FuVariant::V2, &compiled).unwrap();
    let workload = Workload::random(3, 50, 31);
    let a = overlay.execute(&compiled, &workload).unwrap();
    let b = overlay.execute(&compiled, &workload).unwrap();
    assert_eq!(a.outputs(), b.outputs());
    assert_eq!(a.metrics(), b.metrics());
}

#[test]
fn single_invocation_latency_equals_total_cycles() {
    let compiled = Compiler::new(FuVariant::V1)
        .compile_benchmark(Benchmark::Chebyshev)
        .unwrap();
    let overlay = Overlay::for_kernel(FuVariant::V1, &compiled).unwrap();
    let run = overlay
        .execute(
            &compiled,
            &Workload::from_records(vec![vec![Value::new(3)]]),
        )
        .unwrap();
    assert_eq!(
        run.metrics().latency_cycles,
        run.metrics().total_cycles,
        "a single invocation finishes exactly at its latency"
    );
}

/// Holds `run` to `expected` in everything a run reports: outputs, metrics
/// and the trace's `Debug` bytes.
fn assert_same_run(run: &SimRun, expected: &SimRun, what: &str) {
    assert_eq!(run.outputs(), expected.outputs(), "{what}: outputs");
    assert_eq!(run.metrics(), expected.metrics(), "{what}: metrics");
    assert_eq!(
        format!("{:?}", run.trace()),
        format!("{:?}", expected.trace()),
        "{what}: trace"
    );
}

/// `compiled`'s one-shot answer: a fresh simulator planning it for the run.
fn one_shot(compiled: &CompiledKernel, workload: &Workload) -> SimRun {
    OverlaySimulator::new(compiled.variant)
        .run(compiled, workload)
        .unwrap()
}

#[test]
fn an_overlay_runs_its_loaded_kernel_as_a_fresh_simulator_does() {
    for benchmark in Benchmark::ALL {
        for variant in FuVariant::ALL {
            let compiled = Compiler::new(variant).compile_benchmark(benchmark).unwrap();
            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            let inputs = compiled.program.num_inputs();
            // The first call plans, the later ones run the kept plan; the
            // block counts straddle the 64-block columns.
            for (blocks, seed) in [(1, 1), (2, 2), (65, 3), (130, 4), (2, 5)] {
                let workload = Workload::random(inputs, blocks, seed);
                let run = overlay.execute(&compiled, &workload).unwrap();
                let what = format!("{benchmark} on {variant}, {blocks} blocks");
                assert_same_run(&run, &one_shot(&compiled, &workload), &what);
            }
        }
    }
}

#[test]
fn an_overlay_runs_a_near_miss_of_its_loaded_kernel_as_that_kernel() {
    let compile = |source| Compiler::new(FuVariant::V3).compile_source(source).unwrap();
    // The same variant, FU count, inputs and shape; another program.
    let fma = compile("kernel fma(a, b, c) { out y = a * b + c; }");
    let fms = compile("kernel fms(a, b, c) { out y = a * b - c; }");
    assert_eq!(fma.num_fus(), fms.num_fus());
    assert_ne!(fma.program, fms.program);
    // Only the output stream indices differ: the outputs come out swapped.
    let two_out = compile("kernel two_out(a, b) { out s = a + b; out d = a - b; }");
    let mut swapped = two_out.clone();
    swapped.output_stream_index.reverse();
    assert_ne!(swapped.output_stream_index, two_out.output_stream_index);

    for (loaded, near_miss) in [(&fma, &fms), (&two_out, &swapped)] {
        let overlay = Overlay::for_kernel(FuVariant::V3, loaded).unwrap();
        let workload = Workload::random(loaded.program.num_inputs(), 20, 0x5EED);
        for kernel in [loaded, near_miss, loaded, near_miss] {
            let run = overlay.execute(kernel, &workload).unwrap();
            let expected = one_shot(kernel, &workload);
            assert_same_run(&run, &expected, kernel.program.kernel());
        }
        let loaded_run = overlay.execute(loaded, &workload).unwrap();
        let near_miss_run = overlay.execute(near_miss, &workload).unwrap();
        assert_ne!(loaded_run.outputs(), near_miss_run.outputs());
        // `Overlay::execute` takes the planned path exactly when the loaded
        // kernel `plans_for` the caller's.
        assert!(!loaded_kernel(loaded).plans_for(near_miss));
    }
}

/// `compiled` loaded as `Overlay::for_kernel` loads it: a copy, on a
/// simulator of its variant.
fn loaded_kernel(compiled: &CompiledKernel) -> tm_overlay::sim::Kernel {
    OverlaySimulator::new(compiled.variant).load(compiled.clone())
}

#[test]
fn an_overlay_runs_a_clone_of_its_loaded_kernel_from_the_shared_program() {
    for benchmark in Benchmark::ALL {
        for variant in [FuVariant::V1, FuVariant::V2, FuVariant::V4] {
            let compiled = Compiler::new(variant).compile_benchmark(benchmark).unwrap();
            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            let kernel = loaded_kernel(&compiled);
            // A clone shares the program, so the loaded kernel knows it for
            // its own without reading an instruction.
            let clone = compiled.clone();
            assert!(Arc::ptr_eq(&kernel.compiled().program, &clone.program));
            assert!(kernel.plans_for(&clone), "{benchmark} on {variant}");
            let workload = Workload::random(compiled.program.num_inputs(), 65, 6);
            let run = overlay.execute(&clone, &workload).unwrap();
            let what = format!("{benchmark} on {variant}, a clone");
            assert_same_run(&run, &one_shot(&compiled, &workload), &what);
        }
    }
}

#[test]
fn an_overlay_runs_a_kernel_compiled_again_as_its_loaded_kernel() {
    for benchmark in Benchmark::ALL {
        for variant in [FuVariant::V1, FuVariant::V2, FuVariant::V4] {
            let compiler = Compiler::new(variant);
            let compiled = compiler.compile_benchmark(benchmark).unwrap();
            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            // Compiled apart, so nothing is shared, but equal in content:
            // the loaded kernel still plans for it.
            let again = compiler.compile_benchmark(benchmark).unwrap();
            assert!(!Arc::ptr_eq(&compiled.program, &again.program));
            assert_eq!(compiled, again);
            assert!(
                loaded_kernel(&compiled).plans_for(&again),
                "{benchmark} on {variant}"
            );
            let workload = Workload::random(compiled.program.num_inputs(), 65, 7);
            let run = overlay.execute(&again, &workload).unwrap();
            let what = format!("{benchmark} on {variant}, compiled again");
            assert_same_run(&run, &one_shot(&again, &workload), &what);
        }
    }
}
