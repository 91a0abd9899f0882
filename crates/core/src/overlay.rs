//! A configured overlay instance: execution, performance and context-switch
//! reporting.

use std::fmt;
use std::sync::Arc;

use overlay_arch::{
    ContextSwitch, FpgaDevice, FuVariant, OverlayConfig, ReconfigModel, ResourceUsage,
};
use overlay_scheduler::CompiledKernel;
use overlay_sim::{Kernel, OverlaySimulator, SimRun, Workload};

use crate::error::Error;

/// A linear-overlay instance: an architecture configuration plus a simulator.
///
/// An overlay built for a kernel ([`Overlay::for_kernel`]) keeps that
/// kernel loaded, as the paper's context switch loads a kernel's FU programs
/// once: [`Overlay::execute`] decodes and times it at its first run and
/// every later run makes only the data pass. Any other kernel, and every
/// kernel on an overlay built with [`Overlay::new`], is planned again for
/// each run. A clone shares the loaded kernel and its plan.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Overlay {
    config: OverlayConfig,
    simulator: OverlaySimulator,
    reconfig: ReconfigModel,
    /// The kernel the overlay was built for.
    loaded: Option<Arc<Kernel>>,
}

/// Performance of one compiled kernel on one overlay instance, combining the
/// simulator's cycle measurements with the architecture model's operating
/// frequency — the quantities plotted in the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceReport {
    /// The overlay variant.
    pub variant: FuVariant,
    /// Number of FUs the kernel occupies.
    pub fus: usize,
    /// Analytical initiation interval (cycles).
    pub model_ii: f64,
    /// Measured steady-state initiation interval (cycles).
    pub measured_ii: f64,
    /// Overlay operating frequency used for the conversions (MHz).
    pub fmax_mhz: f64,
    /// Throughput in giga-operations per second.
    pub throughput_gops: f64,
    /// Pipeline latency in nanoseconds.
    pub latency_ns: f64,
}

impl fmt::Display for PerformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: II {:.1} (model {:.1}), {:.2} GOPS, {:.1} ns latency at {:.0} MHz",
            self.variant,
            self.measured_ii,
            self.model_ii,
            self.throughput_gops,
            self.latency_ns,
            self.fmax_mhz
        )
    }
}

impl Overlay {
    /// Creates an overlay of `variant` with an explicit depth.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if the depth is out of range.
    pub fn new(variant: FuVariant, depth: usize) -> Result<Self, Error> {
        Ok(Overlay {
            config: OverlayConfig::new(variant, depth)?,
            simulator: OverlaySimulator::new(variant),
            reconfig: ReconfigModel::new(),
            loaded: None,
        })
    }

    /// Creates an overlay sized for `compiled`, with `compiled` loaded: the
    /// kernel's own depth for the feed-forward variants, the paper's fixed
    /// depth of 8 for the write-back variants.
    ///
    /// The overlay keeps a copy of the kernel, which shares its program,
    /// and [`Overlay::execute`] of a kernel equal to it in everything its
    /// plan is made from (variant, program, output stream indices, op count)
    /// runs the plan it made at the first such call. A kernel that breaks a
    /// hardware constraint keeps that error as its plan.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if the resulting depth is out of range.
    pub fn for_kernel(variant: FuVariant, compiled: &CompiledKernel) -> Result<Self, Error> {
        let depth = if variant.has_writeback() {
            overlay_arch::overlay::FIXED_DEPTH.max(compiled.num_fus())
        } else {
            compiled.num_fus()
        };
        let mut overlay = Self::new(variant, depth)?;
        overlay.loaded = Some(Arc::new(overlay.simulator.load(compiled.clone())));
        Ok(overlay)
    }

    /// The architecture configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.config
    }

    /// The FU variant.
    pub fn variant(&self) -> FuVariant {
        self.config.variant()
    }

    /// Estimated FPGA resource usage.
    pub fn resource_estimate(&self) -> ResourceUsage {
        self.config.resource_estimate()
    }

    /// Estimated operating frequency in MHz.
    pub fn fmax_mhz(&self) -> f64 {
        self.config.fmax_mhz()
    }

    /// Checks the overlay fits on `device`.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the binding resource if it does not fit.
    pub fn check_fits(&self, device: &FpgaDevice) -> Result<(), Error> {
        Ok(self.config.check_fits(device)?)
    }

    /// Executes a compiled kernel over a workload on the cycle-accurate
    /// simulator: from the plan of the kernel the overlay was built for,
    /// when `compiled` is that kernel, and otherwise planned for this run
    /// alone. Either way the workload is checked once.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for malformed workloads, for a kernel compiled
    /// for another variant or occupying more FUs than this overlay has
    /// ([`Error::KernelTooDeep`]), and for hardware-constraint violations
    /// detected during simulation — whichever comes first in that order.
    pub fn execute(&self, compiled: &CompiledKernel, workload: &Workload) -> Result<SimRun, Error> {
        if compiled.num_fus() > self.config.depth() {
            // The simulator's own checks outrank the depth.
            self.simulator.validate(compiled, workload)?;
            return Err(Error::KernelTooDeep {
                fus: compiled.num_fus(),
                depth: self.config.depth(),
            });
        }
        match &self.loaded {
            Some(kernel) if kernel.plans_for(compiled) => Ok(kernel.run(workload)?),
            _ => Ok(self.simulator.run(compiled, workload)?),
        }
    }

    /// Builds the performance report for a finished run.
    pub fn performance(&self, compiled: &CompiledKernel, run: &SimRun) -> PerformanceReport {
        let fmax = self.fmax_mhz();
        PerformanceReport {
            variant: self.variant(),
            fus: compiled.num_fus(),
            model_ii: compiled.ii,
            measured_ii: run.metrics().steady_state_ii,
            fmax_mhz: fmax,
            throughput_gops: run.metrics().throughput_gops(fmax),
            latency_ns: run.metrics().latency_ns(fmax),
        }
    }

    /// The hardware-context-switch cost of loading `compiled` onto this
    /// overlay: a full partial-reconfiguration plus configuration load for
    /// the feed-forward variants, configuration load only for the fixed-depth
    /// write-back variants.
    pub fn context_switch(&self, compiled: &CompiledKernel) -> ContextSwitch {
        let config_bits = compiled.program.config_bits();
        if self.variant().has_writeback() {
            self.reconfig
                .program_only_switch(self.variant(), config_bits)
        } else {
            self.reconfig.full_switch(&self.config, config_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use overlay_frontend::Benchmark;
    use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex};
    use overlay_sim::{SimError, SimPlan};

    #[test]
    fn quickstart_flow_produces_consistent_reports() {
        let compiled = Compiler::new(FuVariant::V1)
            .compile_benchmark(Benchmark::Gradient)
            .unwrap();
        let overlay = Overlay::for_kernel(FuVariant::V1, &compiled).unwrap();
        let workload = Workload::random(5, 32, 1);
        let run = overlay.execute(&compiled, &workload).unwrap();
        let report = overlay.performance(&compiled, &run);
        assert_eq!(report.fus, 4);
        assert!((report.model_ii - 6.0).abs() < f64::EPSILON);
        assert!(report.throughput_gops > 0.3);
        assert!(report.latency_ns > 0.0);
        assert!(report.to_string().contains("GOPS"));
    }

    #[test]
    fn a_kernel_deeper_than_the_overlay_is_refused() {
        // Poly7 is 13 stages deep on a feed-forward variant.
        let compiled = Compiler::new(FuVariant::V1)
            .compile_benchmark(Benchmark::Poly7)
            .unwrap();
        let overlay = Overlay::new(FuVariant::V1, 8).unwrap();
        let workload = Workload::random(compiled.program.num_inputs(), 4, 1);
        assert_eq!(
            overlay.execute(&compiled, &workload).unwrap_err(),
            Error::KernelTooDeep { fus: 13, depth: 8 }
        );
        // A malformed workload is still the first thing reported.
        assert_eq!(
            overlay
                .execute(&compiled, &Workload::from_records(vec![]))
                .unwrap_err(),
            Error::Sim(overlay_sim::SimError::EmptyWorkload)
        );
        let fitting = Overlay::for_kernel(FuVariant::V1, &compiled).unwrap();
        assert!(fitting.execute(&compiled, &workload).is_ok());
    }

    /// `compiled` with its first FU's first `EXEC` reading `r20`, which
    /// nothing loads, writes or preloads.
    fn reading_an_uninitialised_register(compiled: &CompiledKernel) -> CompiledKernel {
        let unset = RegIndex::new(20).unwrap();
        let mut edited = false;
        let programs = compiled.program.fu_programs().iter().map(|program| {
            let mut copy = FuProgram::new();
            for &(register, value) in program.constant_init() {
                assert_ne!(register, unset);
                copy.preload_constant(register, value);
            }
            for &instruction in program.instructions() {
                copy.push(match instruction {
                    Instruction::Exec {
                        op,
                        dst,
                        src2,
                        wb,
                        ndf,
                        ..
                    } if !edited => {
                        edited = true;
                        Instruction::exec_flags(op, dst, unset, src2, wb, ndf)
                    }
                    other => other,
                });
            }
            copy
        });
        let program = &compiled.program;
        CompiledKernel {
            program: Arc::new(OverlayProgram::new(
                program.kernel(),
                programs.collect(),
                program.num_inputs(),
                program.num_outputs(),
                program.ii(),
            )),
            ..compiled.clone()
        }
    }

    #[test]
    fn a_loaded_kernel_that_breaks_a_hardware_constraint_keeps_its_error() {
        let compile = |benchmark| {
            let compiled = Compiler::new(FuVariant::V1)
                .compile_benchmark(benchmark)
                .unwrap();
            reading_an_uninitialised_register(&compiled)
        };
        let (broken, deep) = (compile(Benchmark::Gradient), compile(Benchmark::Poly7));
        let overlay = Overlay::for_kernel(FuVariant::V1, &broken).unwrap();
        let copy = overlay.clone();
        let workload = Workload::random(5, 4, 1);
        // The one-shot path's answer, as every run answered before an
        // overlay kept its kernel loaded.
        let one_shot = Overlay::new(FuVariant::V1, overlay.config().depth()).unwrap();
        let expected = one_shot.execute(&broken, &workload).unwrap_err();
        assert!(
            matches!(
                expected,
                Error::Sim(SimError::UninitializedRegister { fu: 0, .. })
            ),
            "{expected:?}"
        );
        let empty = Workload::from_records(vec![]);
        let narrow = Workload::random(3, 4, 1);
        let fits_deep = Workload::random(deep.program.num_inputs(), 4, 1);
        for overlay in [&overlay, &copy, &overlay] {
            assert_eq!(overlay.execute(&broken, &workload).unwrap_err(), expected);
            // The workload checks and the depth come first, as they do for
            // the one-shot path.
            for (kernel, workload) in [(&broken, &empty), (&broken, &narrow), (&deep, &fits_deep)] {
                assert_eq!(
                    overlay.execute(kernel, workload).unwrap_err(),
                    one_shot.execute(kernel, workload).unwrap_err()
                );
            }
        }
        assert_eq!(
            overlay.execute(&deep, &fits_deep).unwrap_err(),
            Error::KernelTooDeep { fus: 13, depth: 4 }
        );
        // The clone shares the kernel's kept error rather than planning
        // again.
        let kept = |overlay: &Overlay| -> *const SimError {
            overlay.loaded.as_deref().unwrap().plan().unwrap_err()
        };
        assert!(std::ptr::eq(kept(&overlay), kept(&copy)));
    }

    #[test]
    fn a_clone_shares_the_loaded_plan() {
        let compiled = Compiler::new(FuVariant::V4)
            .compile_benchmark(Benchmark::Qspline)
            .unwrap();
        let overlay = Overlay::for_kernel(FuVariant::V4, &compiled).unwrap();
        let copy = overlay.clone();
        let workload = Workload::random(compiled.program.num_inputs(), 8, 1);
        let run = overlay.execute(&compiled, &workload).unwrap();
        let plan = |overlay: &Overlay| -> *const SimPlan {
            overlay.loaded.as_deref().unwrap().plan().unwrap()
        };
        assert!(std::ptr::eq(plan(&overlay), plan(&copy)), "planned once");
        let again = copy.execute(&compiled, &workload).unwrap();
        assert_eq!(run.outputs(), again.outputs());
        // A kernel compiled for another variant is refused as before, after
        // the workload checks.
        let v3 = Compiler::new(FuVariant::V3)
            .compile_benchmark(Benchmark::Qspline)
            .unwrap();
        let mismatched = Overlay::for_kernel(FuVariant::V4, &v3).unwrap();
        for workload in [&workload, &Workload::from_records(vec![])] {
            assert_eq!(
                mismatched.execute(&v3, workload).unwrap_err(),
                Overlay::new(FuVariant::V4, 8)
                    .unwrap()
                    .execute(&v3, workload)
                    .unwrap_err()
            );
        }
    }

    #[test]
    fn fixed_depth_overlays_use_depth_eight() {
        let compiled = Compiler::new(FuVariant::V3)
            .compile_benchmark(Benchmark::Chebyshev)
            .unwrap();
        let overlay = Overlay::for_kernel(FuVariant::V3, &compiled).unwrap();
        assert_eq!(overlay.config().depth(), 8);
        assert!(overlay.check_fits(&FpgaDevice::zynq_7020()).is_ok());
    }

    #[test]
    fn context_switch_is_much_cheaper_on_writeback_overlays() {
        let v1 = Compiler::new(FuVariant::V1)
            .compile_benchmark(Benchmark::Qspline)
            .unwrap();
        let v3 = Compiler::new(FuVariant::V3)
            .compile_benchmark(Benchmark::Qspline)
            .unwrap();
        let overlay_v1 = Overlay::for_kernel(FuVariant::V1, &v1).unwrap();
        let overlay_v3 = Overlay::for_kernel(FuVariant::V3, &v3).unwrap();
        let switch_v1 = overlay_v1.context_switch(&v1);
        let switch_v3 = overlay_v3.context_switch(&v3);
        let speedup = switch_v3.speedup_over(&switch_v1);
        assert!(speedup > 1_000.0, "got {speedup:.0}x");
    }

    #[test]
    fn invalid_depth_is_surfaced_as_arch_error() {
        assert!(matches!(
            Overlay::new(FuVariant::V1, 0),
            Err(Error::Arch(_))
        ));
    }
}
