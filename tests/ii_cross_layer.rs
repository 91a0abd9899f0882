//! One initiation interval through every layer (ROADMAP 6(e)).
//!
//! For the paper suite on all six variants the II the compiler reports is
//! the scheduler's model of the schedule it produced, and is what the
//! serving runtime plans with: the execution estimate a router weighs grows
//! by `II / fmax` per block. For every kernel the compiler emits — the suite
//! and generated graphs — it is also, exactly, the period the simulator's
//! timing pass proves: each lane-block past the fixed point completes that
//! many cycles per block after the one before.

use proptest::prelude::*;
use tm_overlay::dfg::{DfgGenerator, GeneratorConfig};
use tm_overlay::runtime::SpanKind;
use tm_overlay::scheduler::{ii_for_variant, ScheduleError};
use tm_overlay::sim::OverlaySimulator;
use tm_overlay::{
    Benchmark, Cluster, CompiledKernel, Compiler, Error, FuVariant, KernelSpec, Overlay, Request,
    RoutePolicy, TraceConfig, Workload,
};

/// The steady-state II `compiled`'s plan proves, on a simulator of the
/// variant it was compiled for.
fn proven_ii(compiled: &CompiledKernel) -> Option<f64> {
    let plan = OverlaySimulator::new(compiled.variant)
        .plan(compiled)
        .expect("a compiled kernel plans");
    plan.steady_ii()
}

/// The completion estimate power-of-two routing weighs for one `blocks`-long
/// request of `benchmark` arriving at a cold, idle two-device cluster:
/// image acquisition + context switch + the `est_exec_us` the dispatcher
/// plans with. Only the last term depends on `blocks`.
fn routed_estimate_us(benchmark: Benchmark, variant: FuVariant, blocks: usize) -> f64 {
    let kernel = KernelSpec::from_benchmark(benchmark).unwrap();
    let inputs = benchmark.dfg().unwrap().num_inputs();
    let request = Request::new(0, kernel, Workload::random(inputs, blocks, 7));
    let report = Cluster::new(variant, 2, 1)
        .unwrap()
        .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        .with_tracing(TraceConfig::enabled())
        .serve(vec![request])
        .unwrap();
    let trace = report.trace().expect("tracing was enabled");
    let route = trace
        .events()
        .iter()
        .find_map(|event| match &event.kind {
            SpanKind::RouteChoice(route) => Some(route),
            _ => None,
        })
        .expect("the request was routed");
    assert_eq!(route.candidates.len(), 2);
    route.candidates[0].1
}

#[test]
fn compiler_scheduler_simulator_and_runtime_agree_on_the_ii() {
    for benchmark in Benchmark::ALL {
        for variant in FuVariant::ALL {
            let compiled = Compiler::new(variant)
                .with_fixed_depth(8)
                .compile_benchmark(benchmark)
                .unwrap();
            assert_eq!(
                compiled.ii,
                ii_for_variant(&compiled.schedule, variant),
                "{benchmark} {variant}: compiled II is the schedule's model II"
            );

            assert_eq!(
                proven_ii(&compiled),
                Some(compiled.ii),
                "{benchmark} {variant}: the simulator's period is the model II"
            );

            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            let (short, long) = (8usize, 40usize);
            let per_block_us = (routed_estimate_us(benchmark, variant, long)
                - routed_estimate_us(benchmark, variant, short))
                / (long - short) as f64;
            let planned_ii = per_block_us * overlay.fmax_mhz();
            assert!(
                (planned_ii - compiled.ii).abs() <= 1e-6 * compiled.ii,
                "{benchmark} {variant}: the runtime plans with II {planned_ii}, model says {}",
                compiled.ii
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same theorem over generated graphs: every kernel the compiler
    /// emits for one of the six variants (at the paper's depth of 8, so the
    /// deeper ones are clustered) closes its timing law, at exactly its II.
    /// A graph whose stages overflow a variant's register file is skipped on
    /// that variant; at 2 000 cases about 10 600 kernels compile.
    #[test]
    fn every_generated_kernel_proves_its_compiled_ii(
        (seed, inputs, ops, depth) in (any::<u64>(), 1usize..=5, 8usize..=72, 2usize..=16),
    ) {
        let config = GeneratorConfig {
            inputs,
            ops,
            target_depth: depth.min(ops),
            ..GeneratorConfig::default()
        };
        let dfg = DfgGenerator::new(seed).generate(&config).unwrap();
        for variant in FuVariant::ALL {
            let compiled = match Compiler::new(variant).with_fixed_depth(8).compile_dfg(&dfg) {
                Ok(compiled) => compiled,
                Err(Error::Schedule(ScheduleError::RegisterPressure { .. })) => continue,
                Err(other) => panic!("{variant}: {other}"),
            };
            let proven = proven_ii(&compiled);
            prop_assert!(
                proven == Some(compiled.ii),
                "{ops} ops on {variant}: period {proven:?}, II {}",
                compiled.ii
            );
        }
    }
}
