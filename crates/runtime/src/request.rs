//! Serving requests: a kernel, the workload to stream through it, and the
//! arrival/deadline bookkeeping the dispatcher charges against.
//!
//! A [`Request`] is also the unit the session tier lowers onto: every stage
//! of a [`PipelineRequest`](crate::PipelineRequest) becomes one `Request`
//! (id `(pipeline << 16) | stage` for multi-stage pipelines), so the whole
//! DAG machinery of [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines)
//! rides on the single-request event loop unchanged.

use std::fmt;
use std::sync::Arc;

use overlay_dfg::{dot, Dfg};
use overlay_frontend::{compile_kernel_with, Benchmark, LowerOptions};
use overlay_sim::Workload;

use crate::error::RuntimeError;

/// FNV-1a over `bytes`, used to fingerprint kernel definitions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// How the kernel behind a request is defined.
#[derive(Debug, Clone)]
enum KernelBody {
    /// Kernel-DSL source text.
    Source(Arc<str>),
    /// An already-built data-flow graph.
    Graph(Arc<Dfg>),
}

/// A kernel a client wants served: a name plus its definition (DSL source or
/// a prebuilt DFG). Cloning is cheap (the definition is shared).
///
/// The [`fingerprint`](KernelSpec::fingerprint) identifies the kernel
/// *content* — two specs with identical source hash alike, so the
/// [`KernelCache`](crate::KernelCache) compiles each distinct kernel once.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    pub(crate) name: Arc<str>,
    body: KernelBody,
    fingerprint: u64,
}

impl KernelSpec {
    /// A kernel defined by DSL source text.
    pub fn from_source(name: impl Into<String>, source: impl Into<String>) -> Self {
        let source: Arc<str> = source.into().into();
        let fingerprint = fnv1a(source.as_bytes());
        KernelSpec {
            name: name.into().into(),
            body: KernelBody::Source(source),
            fingerprint,
        }
    }

    /// A kernel defined by an already-built DFG (named after the graph).
    pub fn from_dfg(dfg: Dfg) -> Self {
        // Fingerprint the Graphviz rendering: it is a deterministic,
        // structure-complete serialisation of the graph.
        let fingerprint = fnv1a(dot::to_dot(&dfg).as_bytes());
        KernelSpec {
            name: dfg.name().to_owned().into(),
            body: KernelBody::Graph(Arc::new(dfg)),
            fingerprint,
        }
    }

    /// One of the paper's benchmark kernels.
    ///
    /// # Errors
    ///
    /// Propagates front-end errors for the structurally-built benchmarks
    /// (never happens in practice for the shipped suite).
    pub fn from_benchmark(benchmark: Benchmark) -> Result<Self, RuntimeError> {
        match benchmark.source() {
            Some(source) => Ok(Self::from_source(benchmark.name(), source)),
            None => Ok(Self::from_dfg(benchmark.dfg()?)),
        }
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel name as its shared allocation — what the runtime stamps
    /// onto outcomes without per-request string copies.
    pub fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Content fingerprint: equal for equal definitions.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Builds (or shares) the kernel's DFG.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if DSL source fails to parse or lower.
    pub fn dfg(&self, options: &LowerOptions) -> Result<Arc<Dfg>, RuntimeError> {
        match &self.body {
            KernelBody::Source(source) => Ok(Arc::new(compile_kernel_with(source, options)?)),
            KernelBody::Graph(dfg) => Ok(Arc::clone(dfg)),
        }
    }
}

impl fmt::Display for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (#{:016x})", self.name, self.fingerprint)
    }
}

/// One unit of serving work: stream `workload` through `kernel`.
///
/// `arrival_us` places the request on the modeled timeline (requests must be
/// submitted in non-decreasing arrival order); `deadline_us`, when set, is an
/// absolute completion deadline the metrics check each outcome against.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the outcome.
    pub id: u64,
    /// The kernel to run.
    pub kernel: KernelSpec,
    /// The invocation records to stream through the kernel.
    pub workload: Workload,
    /// Arrival time on the modeled timeline, in microseconds.
    pub arrival_us: f64,
    /// Optional absolute completion deadline, in microseconds.
    pub deadline_us: Option<f64>,
}

impl Request {
    /// A request arriving at time zero with no deadline.
    pub fn new(id: u64, kernel: KernelSpec, workload: Workload) -> Self {
        Request {
            id,
            kernel,
            workload,
            arrival_us: 0.0,
            deadline_us: None,
        }
    }

    /// Sets the arrival time (microseconds on the modeled timeline).
    #[must_use]
    pub fn at(mut self, arrival_us: f64) -> Self {
        self.arrival_us = arrival_us;
        self
    }

    /// Sets an absolute completion deadline (microseconds).
    #[must_use]
    pub fn with_deadline(mut self, deadline_us: f64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Content digest of the workload: two independent 64-bit word-wise
    /// mixing lanes over the invocation records (length-prefixed per
    /// record), combined into 128 bits. Together with the compiled-kernel
    /// key it identifies a simulation run, which is what lets the runtime
    /// memoize repeated tenant requests — 128 bits keeps accidental
    /// collisions (which would silently serve another workload's outputs)
    /// out of reach even across billions of distinct workloads. The digest
    /// is not cryptographic; adversarially-constructed collisions are out
    /// of scope. Equal workloads digest alike; the cost is a few
    /// multiply-xor operations per input word at submission time.
    pub fn workload_digest(&self) -> u128 {
        let mut a: u64 = 0xcbf2_9ce4_8422_2325;
        let mut b: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut mix = |word: u64| {
            a ^= word;
            a = a.wrapping_mul(0x0000_0100_0000_01B3);
            a ^= a >> 29;
            b = b
                .wrapping_add(word ^ 0xd6e8_feb8_6659_fd93)
                .rotate_left(23)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
        };
        for record in self.workload.records() {
            mix(record.len() as u64);
            for value in record {
                mix(u64::from(value.as_u32()));
            }
        }
        (u128::from(a) << 64) | u128::from(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAXPY: &str = "kernel saxpy(a, x, y) { out r = a * x + y; }";

    #[test]
    fn source_fingerprints_are_content_addressed() {
        let a = KernelSpec::from_source("saxpy", SAXPY);
        let b = KernelSpec::from_source("saxpy_v2", SAXPY);
        let c = KernelSpec::from_source("saxpy", "kernel saxpy(a, x, y) { out r = a * x - y; }");
        assert_eq!(a.fingerprint(), b.fingerprint(), "same source, same print");
        assert_ne!(a.fingerprint(), c.fingerprint(), "different source differs");
        assert!(a.to_string().contains("saxpy"));
    }

    #[test]
    fn benchmark_specs_cover_dsl_and_structural_kernels() {
        let dsl = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        assert_eq!(dsl.name(), "gradient");
        let structural = KernelSpec::from_benchmark(Benchmark::Qspline).unwrap();
        assert_eq!(structural.name(), "qspline");
        assert_ne!(dsl.fingerprint(), structural.fingerprint());
    }

    #[test]
    fn specs_lower_to_the_same_graph_as_the_frontend() {
        let spec = KernelSpec::from_source("saxpy", SAXPY);
        let dfg = spec.dfg(&LowerOptions::default()).unwrap();
        assert_eq!(dfg.num_inputs(), 3);
        assert_eq!(dfg.num_ops(), 2);
    }

    #[test]
    fn request_builder_sets_timing_fields() {
        let spec = KernelSpec::from_source("saxpy", SAXPY);
        let request = Request::new(7, spec, Workload::ramp(3, 4))
            .at(125.0)
            .with_deadline(500.0);
        assert_eq!(request.id, 7);
        assert_eq!(request.arrival_us, 125.0);
        assert_eq!(request.deadline_us, Some(500.0));
        assert_eq!(request.workload.len(), 4);
    }

    #[test]
    fn workload_digests_are_content_addressed() {
        let spec = KernelSpec::from_source("saxpy", SAXPY);
        let a = Request::new(0, spec.clone(), Workload::ramp(3, 4));
        let b = Request::new(99, spec.clone(), Workload::ramp(3, 4)).at(50.0);
        assert_eq!(
            a.workload_digest(),
            b.workload_digest(),
            "identity and timing do not enter the digest"
        );
        let c = Request::new(0, spec.clone(), Workload::ramp(3, 5));
        assert_ne!(a.workload_digest(), c.workload_digest());
        // Record-shape matters, not just the flattened words: 2 records of 3
        // words digest differently from 3 records of 2.
        let flat_23 = Request::new(0, spec.clone(), Workload::ramp(3, 2));
        let flat_32 = Request::new(0, spec, Workload::ramp(2, 3));
        assert_ne!(flat_23.workload_digest(), flat_32.workload_digest());
    }
}
