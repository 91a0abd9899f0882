//! One initiation interval through every layer (ROADMAP 6(e)).
//!
//! For Table III × V1–V5 the II the compiler reports is the scheduler's
//! model of the schedule it produced, is what the cycle-accurate simulator
//! measures in steady state, and is what the serving runtime plans with:
//! the execution estimate a router weighs grows by `II / fmax` per block.

use tm_overlay::runtime::SpanKind;
use tm_overlay::scheduler::ii_for_variant;
use tm_overlay::{
    Benchmark, Cluster, Compiler, FuVariant, KernelSpec, Overlay, Request, RoutePolicy,
    TraceConfig, Workload,
};

const VARIANTS: [FuVariant; 5] = [
    FuVariant::V1,
    FuVariant::V2,
    FuVariant::V3,
    FuVariant::V4,
    FuVariant::V5,
];

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
    for benchmark in Benchmark::TABLE3 {
        let inputs = benchmark.dfg().unwrap().num_inputs();
        for variant in VARIANTS {
            let compiled = Compiler::new(variant)
                .with_fixed_depth(8)
                .compile_benchmark(benchmark)
                .unwrap();
            assert_eq!(
                compiled.ii,
                ii_for_variant(&compiled.schedule, variant),
                "{benchmark} {variant}: compiled II is the schedule's model II"
            );

            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            // The simulator skips one fill block per FU, then averages; an
            // even count of intervals sees V2's two lanes equally often.
            let blocks = compiled.num_fus() + 1 + 32;
            let run = overlay
                .execute(&compiled, &Workload::random(inputs, blocks, 11))
                .unwrap();
            let measured = overlay.performance(&compiled, &run).measured_ii;
            assert!(
                (measured - compiled.ii).abs() <= 0.01,
                "{benchmark} {variant}: simulator measures {measured}, model says {}",
                compiled.ii
            );

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
