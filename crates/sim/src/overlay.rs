//! The whole-overlay simulator.

use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

use overlay_arch::FuVariant;
use overlay_dfg::Value;
use overlay_scheduler::CompiledKernel;

use crate::engine::{HeldProgram, Program, TimingLaw, PLAN_CAP};
use crate::error::SimError;
use crate::metrics::SimMetrics;
use crate::trace::Trace;
use crate::workload::Workload;

/// Simulator for a linear overlay running one compiled kernel over a
/// workload of invocations.
///
/// See the [crate-level documentation](crate) for the modelling assumptions
/// and an end-to-end example.
#[derive(Debug, Clone)]
pub struct OverlaySimulator {
    variant: FuVariant,
    trace_capacity: usize,
}

/// A compiled kernel decoded and timed once, ready to run any workload:
/// built by [`OverlaySimulator::plan`].
///
/// Neither the legality nor the timing of a run depends on its data, so a
/// plan makes the decode walk and the timing pass once, and each
/// [`SimPlan::run`] makes only the data pass. [`SimPlan::metrics`] answers
/// any block count in O(1), bit for bit what a run of that many blocks
/// measures.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Shared with the trace of every run that keeps events.
    program: Arc<Program>,
    timing: Timing,
}

/// All of a plan but its program: what a run reads its metrics off and how
/// many events it keeps.
#[derive(Debug, Clone)]
struct Timing {
    law: TimingLaw,
    /// The kernel's FUs: the pipeline-fill blocks the II skips.
    fus: usize,
    ops_per_block: usize,
    trace_capacity: usize,
}

impl SimPlan {
    /// The metrics a run of `blocks` blocks measures, without running it.
    /// Zero blocks measure nothing: every cycle count and the II are 0.
    /// Cycle counts too large for a `usize` saturate at `usize::MAX`.
    pub fn metrics(&self, blocks: usize) -> SimMetrics {
        self.timing.metrics(&self.program, blocks)
    }

    /// The steady-state initiation interval the timing pass proved, in
    /// cycles per block: every lane-block past the fixed point completes
    /// one period after the one before. `None` when the pass reached its
    /// cap first, with later lane-blocks stepped rather than known.
    pub fn steady_ii(&self) -> Option<f64> {
        self.timing.law.steady_ii(&self.program)
    }

    /// Runs the plan's kernel over `workload`.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyWorkload`] or [`SimError::InputWidthMismatch`], in
    /// that order; the kernel's own checks were made by the plan.
    pub fn run(&self, workload: &Workload) -> Result<SimRun, SimError> {
        self.run_in(workload, &mut ColumnBuffer::default())
    }

    /// [`SimPlan::run`], in `buffer`'s working columns: a caller running
    /// many plans keeps one buffer, and a run then allocates only its
    /// outputs (and, if it keeps events, its trace).
    ///
    /// # Errors
    ///
    /// As [`SimPlan::run`].
    pub fn run_in(
        &self,
        workload: &Workload,
        buffer: &mut ColumnBuffer,
    ) -> Result<SimRun, SimError> {
        check_workload(self.program.inputs(), workload)?;
        let program = HeldProgram::Shared(Arc::clone(&self.program));
        self.timing.execute(program, workload, buffer)
    }
}

impl Timing {
    /// [`SimPlan::metrics`], for `program`, the one this was timed from.
    fn metrics(&self, program: &Program, blocks: usize) -> SimMetrics {
        let mut metrics = SimMetrics {
            blocks,
            ops_per_block: self.ops_per_block,
            latency_cycles: 0,
            steady_state_ii: 0.0,
            total_cycles: 0,
        };
        if blocks == 0 {
            return metrics;
        }
        // Skip the pipeline-fill blocks when measuring the steady-state II.
        let warmup = self.fus.min(blocks.saturating_sub(2));
        let sample = [0, warmup, blocks - 1];
        let ([first, warm, last], total) = self.law.completions(program, blocks, sample);
        metrics.latency_cycles = first;
        metrics.total_cycles = total;
        metrics.steady_state_ii = if blocks >= 2 {
            (last as f64 - warm as f64) / (blocks - warmup - 1) as f64
        } else {
            first as f64
        };
        metrics
    }

    /// The data pass over a checked `workload`, with `program`, the one
    /// this was timed from.
    fn execute(
        &self,
        program: HeldProgram,
        workload: &Workload,
        buffer: &mut ColumnBuffer,
    ) -> Result<SimRun, SimError> {
        let metrics = self.metrics(&program, workload.len());
        let record = program.record();
        let (outputs, trace) = program.evaluate(
            workload.records(),
            self.law.closed_at(),
            self.trace_capacity,
            &mut buffer.values,
        )?;
        Ok(SimRun {
            outputs,
            record,
            metrics,
            trace,
        })
    }
}

/// The data pass's working columns, kept between runs: see
/// [`SimPlan::run_in`]. They grow to the widest run's size; what one run
/// leaves in them never shows in another's outputs or trace.
#[derive(Debug, Default)]
pub struct ColumnBuffer {
    values: Vec<Value>,
}

/// The outcome of a simulation run: functional outputs, measured metrics and
/// a bounded event trace.
#[derive(Clone)]
pub struct SimRun {
    /// Every block's outputs, record after record.
    outputs: Vec<Value>,
    /// Values per output record: the kernel's outputs.
    record: usize,
    metrics: SimMetrics,
    trace: Trace,
}

impl SimRun {
    /// The kernel outputs, one record per invocation, in invocation order.
    pub fn outputs(&self) -> Records<'_> {
        Records {
            values: &self.outputs,
            width: self.record,
            len: self.metrics.blocks,
        }
    }

    /// The measured metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The recorded event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// Formats the outputs as the nested records they are read as.
impl fmt::Debug for SimRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRun")
            .field("outputs", &self.outputs())
            .field("metrics", &self.metrics)
            .field("trace", &self.trace)
            .finish()
    }
}

/// A run's output records, one per invocation, each as wide as the kernel
/// has outputs: a view into the one buffer the simulator wrote them to.
///
/// A record reads as a `&[Value]`. The view compares equal to another view
/// and to `[Vec<Value>]`, `&[Vec<Value>]` and `Vec<Vec<Value>>` holding the
/// same records.
#[derive(Clone, Copy)]
pub struct Records<'a> {
    values: &'a [Value],
    width: usize,
    /// Kept apart from `width`, so zero-width records still count.
    len: usize,
}

impl<'a> Records<'a> {
    /// The number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&'a [Value]> {
        (index < self.len).then(|| &self.values[index * self.width..][..self.width])
    }

    /// The records in order.
    pub fn iter(&self) -> RecordIter<'a> {
        RecordIter {
            values: self.values,
            width: self.width,
            indices: 0..self.len,
        }
    }

    /// The records copied out, one `Vec` each.
    pub fn to_vec(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }
}

impl Index<usize> for Records<'_> {
    type Output = [Value];

    fn index(&self, index: usize) -> &[Value] {
        self.get(index)
            .unwrap_or_else(|| panic!("record index {index} out of range for {} records", self.len))
    }
}

impl fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Records<'a> {
    type Item = &'a [Value];
    type IntoIter = RecordIter<'a>;

    fn into_iter(self) -> RecordIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Records<'a> {
    type Item = &'a [Value];
    type IntoIter = RecordIter<'a>;

    fn into_iter(self) -> RecordIter<'a> {
        self.iter()
    }
}

impl PartialEq<Records<'_>> for Records<'_> {
    fn eq(&self, other: &Records<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Records<'_> {}

impl PartialEq<[Vec<Value>]> for Records<'_> {
    fn eq(&self, other: &[Vec<Value>]) -> bool {
        self.len == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(lhs, rhs)| lhs == rhs.as_slice())
    }
}

impl PartialEq<&[Vec<Value>]> for Records<'_> {
    fn eq(&self, other: &&[Vec<Value>]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<Vec<Value>>> for Records<'_> {
    fn eq(&self, other: &Vec<Vec<Value>>) -> bool {
        *self == **other
    }
}

/// The iterator over [`Records`].
#[derive(Debug, Clone)]
pub struct RecordIter<'a> {
    values: &'a [Value],
    width: usize,
    indices: Range<usize>,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let index = self.indices.next()?;
        Some(&self.values[index * self.width..][..self.width])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.indices.size_hint()
    }
}

impl ExactSizeIterator for RecordIter<'_> {}

impl OverlaySimulator {
    /// Creates a simulator for overlays built from `variant`, recording up to
    /// 4096 trace events.
    pub fn new(variant: FuVariant) -> Self {
        OverlaySimulator {
            variant,
            trace_capacity: 4096,
        }
    }

    /// Sets the number of trace events to keep (0 disables tracing).
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// The FU variant this simulator models.
    pub fn variant(&self) -> FuVariant {
        self.variant
    }

    /// The checks [`OverlaySimulator::run`] makes before it looks at the
    /// program: a workload of at least one record, every record as wide as
    /// the kernel's inputs, and a kernel compiled for this simulator's
    /// variant.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyWorkload`], [`SimError::InputWidthMismatch`] or
    /// [`SimError::VariantMismatch`], in that order.
    pub fn validate(&self, compiled: &CompiledKernel, workload: &Workload) -> Result<(), SimError> {
        check_workload(compiled.program.num_inputs(), workload)?;
        self.check_variant(compiled)
    }

    fn check_variant(&self, compiled: &CompiledKernel) -> Result<(), SimError> {
        if compiled.variant != self.variant {
            return Err(SimError::VariantMismatch {
                compiled: compiled.variant,
                simulator: self.variant,
            });
        }
        Ok(())
    }

    /// Decodes and times `compiled` once, for runs of any workload: see
    /// [`SimPlan`]. Its runs keep this simulator's trace capacity.
    ///
    /// # Errors
    ///
    /// [`SimError::VariantMismatch`] for a kernel compiled for another
    /// variant, then the first hardware constraint the program violates
    /// (uninitialised register, write-back hazard, stream underflow).
    pub fn plan(&self, compiled: &CompiledKernel) -> Result<SimPlan, SimError> {
        let (program, timing) = self.decode_and_time(compiled, PLAN_CAP)?;
        Ok(SimPlan {
            program: Arc::new(program),
            timing,
        })
    }

    /// The two passes a plan makes, stepping at most `cap` lane-blocks.
    fn decode_and_time(
        &self,
        compiled: &CompiledKernel,
        cap: usize,
    ) -> Result<(Program, Timing), SimError> {
        self.check_variant(compiled)?;
        let program = Program::decode(
            self.variant,
            compiled.program.fu_programs(),
            compiled.program.num_inputs(),
            &compiled.output_stream_index,
        )?;
        let timing = Timing {
            law: program.law(cap),
            fus: compiled.num_fus(),
            ops_per_block: compiled.schedule.total_ops(),
            trace_capacity: self.trace_capacity,
        };
        Ok((program, timing))
    }

    /// Runs `compiled` over `workload`: what its [`plan`](Self::plan) would
    /// run, planned for this run alone.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for malformed workloads (wrong record width,
    /// empty workload), for a kernel compiled for another variant, or if the
    /// program violates a hardware constraint (uninitialised register,
    /// write-back hazard, stream underflow) — the first in that order.
    pub fn run(&self, compiled: &CompiledKernel, workload: &Workload) -> Result<SimRun, SimError> {
        // The workload is checked ahead of the kernel, as `validate` does.
        check_workload(compiled.program.num_inputs(), workload)?;
        // A plan for this run alone times no lane-block the run does not
        // have, and hands its program to the run's trace rather than
        // sharing it.
        let lane_blocks = workload.len().div_ceil(self.variant.datapath_lanes());
        let (program, timing) = self.decode_and_time(compiled, lane_blocks.min(PLAN_CAP))?;
        timing.execute(
            HeldProgram::Owned(program),
            workload,
            &mut ColumnBuffer::default(),
        )
    }
}

/// The workload checks, in the order every run makes them: at least one
/// record, each `inputs` words wide.
fn check_workload(inputs: usize, workload: &Workload) -> Result<(), SimError> {
    if workload.is_empty() {
        return Err(SimError::EmptyWorkload);
    }
    for (index, record) in workload.records().iter().enumerate() {
        if record.len() != inputs {
            return Err(SimError::InputWidthMismatch {
                expected: inputs,
                found: record.len(),
                record: index,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;
    use overlay_dfg::evaluate_stream;
    use overlay_frontend::Benchmark;
    use overlay_scheduler::{generate_program, schedule};

    fn compile(benchmark: Benchmark, variant: FuVariant) -> CompiledKernel {
        let dfg = benchmark.dfg().unwrap();
        let stages = schedule(&dfg, variant, Some(8)).unwrap();
        generate_program(&dfg, &stages, variant).unwrap()
    }

    #[test]
    fn every_benchmark_matches_the_reference_evaluator_on_every_variant() {
        for benchmark in Benchmark::ALL {
            let dfg = benchmark.dfg().unwrap();
            let workload = Workload::random(dfg.num_inputs(), 12, 0xC0FFEE);
            let reference = evaluate_stream(&dfg, workload.records()).unwrap();
            for variant in FuVariant::EVALUATED {
                let compiled = compile(benchmark, variant);
                let run = OverlaySimulator::new(variant)
                    .with_trace_capacity(0)
                    .run(&compiled, &workload)
                    .unwrap();
                assert_eq!(
                    run.outputs(),
                    reference.as_slice(),
                    "{benchmark} on {variant}"
                );
            }
        }
    }

    #[test]
    fn every_suite_kernel_closes_its_timing_law_early() {
        // A plan steps each run past where its law is still open, so a late
        // closure would cost every long run: compiled kernels close by
        // their fourth lane-block.
        for benchmark in Benchmark::ALL {
            for variant in FuVariant::ALL {
                let plan = OverlaySimulator::new(variant)
                    .plan(&compile(benchmark, variant))
                    .unwrap();
                let closed_at = plan.timing.law.closed_at();
                assert!(
                    closed_at.is_some_and(|lane_block| lane_block <= 3),
                    "{benchmark} on {variant}: closed at {closed_at:?}"
                );
            }
        }
    }

    #[test]
    fn measured_ii_matches_the_analytical_model_for_gradient() {
        let workload = Workload::random(5, 64, 7);
        for (variant, expected_ii) in [
            (FuVariant::Baseline, 11.0),
            (FuVariant::V1, 6.0),
            (FuVariant::V2, 3.0),
        ] {
            let compiled = compile(Benchmark::Gradient, variant);
            let run = OverlaySimulator::new(variant)
                .with_trace_capacity(0)
                .run(&compiled, &workload)
                .unwrap();
            assert!(
                (run.metrics().steady_state_ii - expected_ii).abs() < 0.6,
                "{variant}: measured {} vs expected {expected_ii}",
                run.metrics().steady_state_ii
            );
        }
    }

    #[test]
    fn measured_ii_tracks_the_model_across_the_benchmark_suite() {
        for benchmark in Benchmark::TABLE3 {
            for variant in [
                FuVariant::Baseline,
                FuVariant::V1,
                FuVariant::V3,
                FuVariant::V4,
            ] {
                let compiled = compile(benchmark, variant);
                let dfg = benchmark.dfg().unwrap();
                let workload = Workload::random(dfg.num_inputs(), 48, 3);
                let run = OverlaySimulator::new(variant)
                    .with_trace_capacity(0)
                    .run(&compiled, &workload)
                    .unwrap();
                let analytic = compiled.ii;
                let measured = run.metrics().steady_state_ii;
                assert!(
                    (measured - analytic).abs() <= 1.0 + analytic * 0.1,
                    "{benchmark} {variant}: measured {measured} vs model {analytic}"
                );
            }
        }
    }

    #[test]
    fn latency_grows_with_overlay_depth() {
        let deep = compile(Benchmark::Poly7, FuVariant::V1); // depth 13
        let fixed = compile(Benchmark::Poly7, FuVariant::V3); // depth 8
        let dfg = Benchmark::Poly7.dfg().unwrap();
        let workload = Workload::random(dfg.num_inputs(), 16, 5);
        let run_deep = OverlaySimulator::new(FuVariant::V1)
            .run(&deep, &workload)
            .unwrap();
        let run_fixed = OverlaySimulator::new(FuVariant::V3)
            .run(&fixed, &workload)
            .unwrap();
        assert!(
            run_fixed.metrics().latency_cycles < run_deep.metrics().latency_cycles,
            "fixed-depth overlay should cut latency: {} vs {}",
            run_fixed.metrics().latency_cycles,
            run_deep.metrics().latency_cycles
        );
    }

    #[test]
    fn v2_halves_the_initiation_interval() {
        let workload = Workload::random(5, 64, 9);
        let v1 = OverlaySimulator::new(FuVariant::V1)
            .run(&compile(Benchmark::Gradient, FuVariant::V1), &workload)
            .unwrap();
        let v2 = OverlaySimulator::new(FuVariant::V2)
            .run(&compile(Benchmark::Gradient, FuVariant::V2), &workload)
            .unwrap();
        let ratio = v1.metrics().steady_state_ii / v2.metrics().steady_state_ii;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn malformed_workloads_are_rejected() {
        let compiled = compile(Benchmark::Gradient, FuVariant::V1);
        let sim = OverlaySimulator::new(FuVariant::V1);
        assert!(matches!(
            sim.run(&compiled, &Workload::from_records(vec![])),
            Err(SimError::EmptyWorkload)
        ));
        assert!(matches!(
            sim.run(
                &compiled,
                &Workload::from_records(vec![vec![Value::new(1); 3]])
            ),
            Err(SimError::InputWidthMismatch {
                expected: 5,
                found: 3,
                ..
            })
        ));
    }

    #[test]
    fn a_kernel_compiled_for_another_variant_is_refused() {
        // V3 code on a V1 simulator would run with the wrong write-back
        // delay; V2 code on it with one lane instead of two.
        let workload = Workload::random(5, 4, 1);
        for compiled_for in [FuVariant::V3, FuVariant::V2] {
            let compiled = compile(Benchmark::Gradient, compiled_for);
            let sim = OverlaySimulator::new(FuVariant::V1);
            assert_eq!(
                sim.run(&compiled, &workload).unwrap_err(),
                SimError::VariantMismatch {
                    compiled: compiled_for,
                    simulator: FuVariant::V1
                }
            );
            // A malformed workload is still the first thing reported.
            assert_eq!(
                sim.run(&compiled, &Workload::from_records(vec![]))
                    .unwrap_err(),
                SimError::EmptyWorkload
            );
        }
    }

    #[test]
    fn records_read_like_the_nested_vectors_they_replace() {
        let nested = vec![
            [1, 2].map(Value::new).to_vec(),
            [3, 4].map(Value::new).to_vec(),
        ];
        let flat = [1, 2, 3, 4].map(Value::new);
        let records = Records {
            values: &flat,
            width: 2,
            len: 2,
        };
        assert_eq!(records, nested);
        assert_eq!(records, nested.as_slice());
        assert_ne!(records, nested[..1]);
        assert_eq!(records.to_vec(), nested);
        assert_eq!(format!("{records:?}"), format!("{nested:?}"));
        assert_eq!(format!("{records:#?}"), format!("{nested:#?}"));
        assert_eq!(records[1], flat[2..]);
        assert_eq!(records.get(2), None);
        assert_eq!(records.iter().last(), Some(&flat[2..]));

        // Zero-width records still count.
        let empty = Records {
            values: &[],
            width: 0,
            len: 3,
        };
        assert_eq!((empty.len(), empty.is_empty()), (3, false));
        assert_eq!(empty, vec![Vec::new(); 3]);
        assert_ne!(empty, Records { len: 2, ..empty });
        assert_eq!(empty.iter().len(), 3);
    }

    #[test]
    fn trace_contains_loads_execs_and_outputs() {
        let compiled = compile(Benchmark::Gradient, FuVariant::V1);
        let workload = Workload::ramp(5, 2);
        let run = OverlaySimulator::new(FuVariant::V1)
            .run(&compiled, &workload)
            .unwrap();
        let events = run.trace().events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Load { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Exec { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Output { .. })));
    }
}
