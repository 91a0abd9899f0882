//! The kernel compiler: source text (or a DFG) to a loadable overlay
//! configuration.

use overlay_arch::FuVariant;
use overlay_dfg::Dfg;
use overlay_frontend::{compile_kernel_with, Benchmark, LowerOptions};
use overlay_scheduler::{generate_program_owned, schedule, CompiledKernel};

use crate::error::Error;

/// Compiles kernels for a chosen overlay variant.
///
/// The compiler runs the full mapping tool flow of the paper's Sec. IV:
/// front-end (DFG extraction), scheduling (ASAP or fixed-depth greedy
/// clustering, depending on the variant) and instruction generation.
///
/// # Example
///
/// ```
/// use tm_overlay::{Compiler, FuVariant};
///
/// # fn main() -> Result<(), tm_overlay::Error> {
/// let compiled = Compiler::new(FuVariant::V3)
///     .with_fixed_depth(8)
///     .compile_source("kernel poly(x) { out y = (x * x + 3) * x - 7; }")?;
/// assert!(compiled.num_fus() <= 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    variant: FuVariant,
    fixed_depth: Option<usize>,
    lower_options: LowerOptions,
}

impl Compiler {
    /// Creates a compiler targeting overlays built from `variant`.
    pub fn new(variant: FuVariant) -> Self {
        Compiler {
            variant,
            fixed_depth: None,
            lower_options: LowerOptions::default(),
        }
    }

    /// Sets the fixed overlay depth used for the write-back variants
    /// (ignored by `[14]`, V1 and V2, whose depth follows the kernel).
    #[must_use]
    pub fn with_fixed_depth(mut self, depth: usize) -> Self {
        self.fixed_depth = Some(depth);
        self
    }

    /// Sets the front-end lowering options (constant folding, CSE, square
    /// detection).
    #[must_use]
    pub fn with_lower_options(mut self, options: LowerOptions) -> Self {
        self.lower_options = options;
        self
    }

    /// The overlay variant this compiler targets.
    pub fn variant(&self) -> FuVariant {
        self.variant
    }

    /// Compiles kernel source text.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for parse, lowering, scheduling or code-generation
    /// failures.
    pub fn compile_source(&self, source: &str) -> Result<CompiledKernel, Error> {
        let dfg = compile_kernel_with(source, &self.lower_options)?;
        self.compile_dfg(&dfg)
    }

    /// Compiles an already-constructed kernel DFG.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if scheduling or code generation fails.
    pub fn compile_dfg(&self, dfg: &Dfg) -> Result<CompiledKernel, Error> {
        let stages = schedule(dfg, self.variant, self.fixed_depth)?;
        Ok(generate_program_owned(dfg, stages, self.variant)?)
    }

    /// Compiles one of the paper's benchmark kernels.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if the benchmark fails to build or map (which the
    /// test-suite guarantees does not happen for the shipped benchmarks).
    pub fn compile_benchmark(&self, benchmark: Benchmark) -> Result<CompiledKernel, Error> {
        let dfg = benchmark.dfg()?;
        self.compile_dfg(&dfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_source_dfg_and_benchmarks() {
        let compiler = Compiler::new(FuVariant::V1);
        let from_source = compiler
            .compile_source("kernel f(a, b) { out y = sqr(a - b); }")
            .unwrap();
        assert_eq!(from_source.num_fus(), 2);

        let dfg = Benchmark::Gradient.dfg().unwrap();
        let from_dfg = compiler.compile_dfg(&dfg).unwrap();
        let from_benchmark = compiler.compile_benchmark(Benchmark::Gradient).unwrap();
        assert_eq!(from_dfg.ii, from_benchmark.ii);
        assert_eq!(from_dfg.ii, 6.0);
    }

    #[test]
    fn fixed_depth_caps_the_fu_count_for_writeback_variants() {
        let deep = Benchmark::Poly7; // depth 13
        let v1 = Compiler::new(FuVariant::V1)
            .compile_benchmark(deep)
            .unwrap();
        assert_eq!(v1.num_fus(), 13);
        let v3 = Compiler::new(FuVariant::V3)
            .with_fixed_depth(8)
            .compile_benchmark(deep)
            .unwrap();
        assert_eq!(v3.num_fus(), 8);
        let v3_depth4 = Compiler::new(FuVariant::V3)
            .with_fixed_depth(4)
            .compile_benchmark(deep)
            .unwrap();
        assert_eq!(v3_depth4.num_fus(), 4);
    }

    #[test]
    fn bad_source_surfaces_a_frontend_error() {
        let result = Compiler::new(FuVariant::V1).compile_source("kernel broken(a) {");
        assert!(matches!(result, Err(Error::Frontend(_))));
    }
}
