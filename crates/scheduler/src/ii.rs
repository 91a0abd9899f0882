//! Initiation-interval (II) models — Eq. 1 and Eq. 2 of the paper.
//!
//! The II is the number of cycles between two consecutive kernel invocations
//! in the steady state, and therefore sets the throughput. For a stage with
//! `#load` incoming values and `#op` issue slots:
//!
//! * baseline `[14]` (single-port register file, loads serialise with
//!   execution): `II = max_FU(#load + #op + 2)` (Eq. 1);
//! * V1 (rotating register file, loads overlap execution):
//!   `II = max_FU(#load + 1, #op + 2)` (Eq. 2);
//! * V2 (dual datapath, 64-bit stream): half the V1 value;
//! * V3–V5 (write-back): Eq. 2 applied to the clustered schedule, counting
//!   the inserted NOPs as issue slots.

use overlay_arch::FuVariant;

use crate::stage::{Stage, StageSchedule};

/// Per-stage breakdown of the II computation, useful for reports and for
/// explaining which FU is the bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct IiBreakdown {
    /// The variant the breakdown was computed for.
    pub variant: FuVariant,
    /// Per-stage `(loads, ops, nops, stage II)` tuples.
    pub per_stage: Vec<(usize, usize, usize, f64)>,
    /// The overlay II: the maximum stage II (halved for V2).
    pub ii: f64,
}

fn stage_ii_baseline(stage: Stage) -> f64 {
    (stage.num_loads() + stage.num_ops() + 2) as f64
}

fn stage_ii_overlapped(stage: Stage) -> f64 {
    ((stage.num_loads() + 1).max(stage.num_slots() + 2)) as f64
}

/// II of the `[14]` baseline overlay (Eq. 1) for the given stage schedule.
pub fn ii_baseline(schedule: &StageSchedule) -> f64 {
    schedule.stages().map(stage_ii_baseline).fold(0.0, f64::max)
}

/// II of the V1 overlay (Eq. 2): data loading overlaps execution thanks to
/// the rotating register file.
pub fn ii_v1(schedule: &StageSchedule) -> f64 {
    schedule
        .stages()
        .map(stage_ii_overlapped)
        .fold(0.0, f64::max)
}

/// II of the V2 overlay: the replicated 64-bit datapath halves the V1 value
/// (possibly producing a fractional II, as in the paper's Table III).
pub fn ii_v2(schedule: &StageSchedule) -> f64 {
    ii_v1(schedule) / 2.0
}

/// II of a write-back overlay (V3–V5): Eq. 2 over the clustered schedule,
/// counting inserted NOPs as issue slots.
pub fn ii_writeback(schedule: &StageSchedule) -> f64 {
    ii_v1(schedule)
}

/// II of `schedule` when executed on an overlay built from `variant`.
///
/// The schedule must have been produced for a compatible variant (ASAP for
/// the feed-forward variants, fixed-depth clustering for the write-back
/// variants); this function only applies the corresponding formula.
///
/// # Example
///
/// ```
/// use overlay_frontend::Benchmark;
/// use overlay_arch::FuVariant;
/// use overlay_scheduler::{asap_schedule, ii_for_variant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = Benchmark::Gradient.dfg()?;
/// let schedule = asap_schedule(&dfg)?;
/// assert_eq!(ii_for_variant(&schedule, FuVariant::Baseline), 11.0);
/// assert_eq!(ii_for_variant(&schedule, FuVariant::V1), 6.0);
/// assert_eq!(ii_for_variant(&schedule, FuVariant::V2), 3.0);
/// # Ok(())
/// # }
/// ```
pub fn ii_for_variant(schedule: &StageSchedule, variant: FuVariant) -> f64 {
    match variant {
        FuVariant::Baseline => ii_baseline(schedule),
        FuVariant::V1 => ii_v1(schedule),
        FuVariant::V2 => ii_v2(schedule),
        FuVariant::V3 | FuVariant::V4 | FuVariant::V5 => ii_writeback(schedule),
    }
}

/// Computes the per-stage II breakdown for `variant`.
pub fn breakdown(schedule: &StageSchedule, variant: FuVariant) -> IiBreakdown {
    let per_stage: Vec<(usize, usize, usize, f64)> = schedule
        .stages()
        .map(|stage| {
            let stage_ii = match variant {
                FuVariant::Baseline => stage_ii_baseline(stage),
                _ => stage_ii_overlapped(stage),
            };
            (
                stage.num_loads(),
                stage.num_ops(),
                stage.num_nops(),
                stage_ii,
            )
        })
        .collect();
    IiBreakdown {
        variant,
        per_stage,
        ii: ii_for_variant(schedule, variant),
    }
}

/// Throughput in giga-operations per second for a kernel with `ops`
/// operations executed every `ii` cycles at `fmax_mhz`.
pub fn throughput_gops(ops: usize, ii: f64, fmax_mhz: f64) -> f64 {
    if ii <= 0.0 {
        return 0.0;
    }
    ops as f64 * fmax_mhz / ii / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap_schedule;
    use crate::cluster::{cluster_schedule, ClusterOptions};
    use overlay_frontend::Benchmark;

    #[test]
    fn gradient_ii_matches_the_papers_worked_example() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        assert_eq!(ii_baseline(&schedule), 11.0);
        assert_eq!(ii_v1(&schedule), 6.0);
        assert_eq!(ii_v2(&schedule), 3.0);
    }

    #[test]
    fn v1_never_exceeds_baseline_and_v2_is_exactly_half() {
        for benchmark in Benchmark::ALL {
            let dfg = benchmark.dfg().unwrap();
            let schedule = asap_schedule(&dfg).unwrap();
            let baseline = ii_baseline(&schedule);
            let v1 = ii_v1(&schedule);
            assert!(v1 <= baseline, "{benchmark}");
            assert_eq!(ii_v2(&schedule), v1 / 2.0, "{benchmark}");
        }
    }

    #[test]
    fn average_v1_reduction_is_around_forty_percent() {
        // The paper reports an average 42% II reduction for V1 vs [14].
        let mut reductions = Vec::new();
        for benchmark in Benchmark::TABLE3 {
            let dfg = benchmark.dfg().unwrap();
            let schedule = asap_schedule(&dfg).unwrap();
            reductions.push(1.0 - ii_v1(&schedule) / ii_baseline(&schedule));
        }
        let average = reductions.iter().sum::<f64>() / reductions.len() as f64;
        assert!(
            average > 0.30 && average < 0.55,
            "expected roughly 42% average reduction, got {:.1}%",
            average * 100.0
        );
    }

    #[test]
    fn writeback_ii_counts_inserted_nops() {
        let dfg = Benchmark::Poly7.dfg().unwrap();
        let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 }).unwrap();
        let with_nops = ii_writeback(&schedule);
        let ignore_nops = schedule
            .stages()
            .map(|s| ((s.num_loads() + 1).max(s.num_ops() + 2)) as f64)
            .fold(0.0, f64::max);
        assert!(with_nops >= ignore_nops);
    }

    #[test]
    fn deep_kernels_have_higher_fixed_depth_ii_than_v1() {
        // Compressing a deep kernel onto 8 FUs increases the II relative to
        // the depth-matched V1 overlay (the latency is what improves).
        for benchmark in [Benchmark::Poly6, Benchmark::Poly7, Benchmark::Poly8] {
            let dfg = benchmark.dfg().unwrap();
            let asap = asap_schedule(&dfg).unwrap();
            let clustered = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 }).unwrap();
            assert!(ii_writeback(&clustered) >= ii_v1(&asap), "{benchmark}");
        }
    }

    #[test]
    fn breakdown_reports_the_bottleneck_stage() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let breakdown = breakdown(&schedule, FuVariant::V1);
        assert_eq!(breakdown.per_stage.len(), 4);
        assert_eq!(breakdown.ii, 6.0);
        let max_stage = breakdown
            .per_stage
            .iter()
            .map(|&(_, _, _, ii)| ii)
            .fold(0.0, f64::max);
        assert_eq!(max_stage, 6.0);
    }

    #[test]
    fn throughput_formula_matches_the_papers_gradient_numbers() {
        // 11 ops / 6 cycles at 334 MHz ≈ 0.61 GOPS (the paper rounds to 0.59).
        let gops = throughput_gops(11, 6.0, 334.0);
        assert!((gops - 0.61).abs() < 0.05);
        assert_eq!(throughput_gops(10, 0.0, 300.0), 0.0);
    }
}
