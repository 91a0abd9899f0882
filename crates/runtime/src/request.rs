//! Serving requests: a kernel, the workload to stream through it, and the
//! arrival/deadline bookkeeping the dispatcher charges against.
//!
//! A [`Request`] is also the unit the session tier lowers onto: every stage
//! of a [`PipelineRequest`](crate::PipelineRequest) becomes one `Request`
//! (id `(pipeline << 16) | stage`), so the whole DAG machinery of
//! [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines) rides on
//! the single-request event loop unchanged.
//!
//! Every serve checks each request it pulls once, in submission order, with
//! the one intake check here (`IntakeCheck`): batch, stream and pipeline
//! stages alike.

use std::fmt;
use std::sync::Arc;

use overlay_dfg::{dot, Dfg};
use overlay_frontend::{compile_kernel_with, Benchmark, LowerOptions};
use overlay_sim::Workload;

use crate::cache::FnvHashSet;
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
    /// Caller-chosen identifier, echoed in the outcome. Unique within a
    /// serve.
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
        workload_digest(&self.workload)
    }
}

/// [`Request::workload_digest`] of a request carrying `workload`.
pub(crate) fn workload_digest(workload: &Workload) -> u128 {
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
    for record in workload.records() {
        mix(record.len() as u64);
        for value in record {
            mix(u64::from(value.as_u32()));
        }
    }
    (u128::from(a) << 64) | u128::from(b)
}

/// The intake check every serve runs on each request it pulls: the arrival
/// is finite, non-negative and no earlier than the one before it, the
/// deadline, if set, is finite, and the id is new to the serve.
#[derive(Debug, Default)]
pub(crate) struct IntakeCheck {
    /// The latest arrival taken in (`∞` once the ingest has closed): no
    /// later submission may arrive earlier, so the event loop may fire
    /// every event up to it.
    pub(crate) horizon_us: f64,
    /// The largest id taken in, if any. While ids ascend, each is new on
    /// this one comparison.
    max_id: Option<u64>,
    /// Every id taken in, from the first that did not ascend on (`None`
    /// until then).
    seen: Option<FnvHashSet<u64>>,
}

impl IntakeCheck {
    /// Checks `request` and takes it in. `taken` lists the ids already in
    /// the serve's intake; it is read once, by the first id that does not
    /// ascend, to seed the set every later id is checked against.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidArrival`], [`RuntimeError::OutOfOrderArrival`],
    /// [`RuntimeError::InvalidDeadline`] or
    /// [`RuntimeError::DuplicateRequestId`], naming the request.
    pub(crate) fn admit<I: Iterator<Item = u64>>(
        &mut self,
        request: &Request,
        taken: impl FnOnce() -> I,
    ) -> Result<(), RuntimeError> {
        let (id, arrival_us) = (request.id, request.arrival_us);
        if !arrival_us.is_finite() || arrival_us < 0.0 {
            return Err(RuntimeError::InvalidArrival {
                request: id,
                arrival_us,
            });
        }
        if arrival_us < self.horizon_us {
            return Err(RuntimeError::OutOfOrderArrival {
                request: id,
                arrival_us,
                horizon_us: self.horizon_us,
            });
        }
        check_deadline(id, request.deadline_us)?;
        let new = match (&mut self.seen, self.max_id) {
            (Some(seen), _) => seen.insert(id),
            (None, Some(max)) if id <= max => self.seen.insert(taken().collect()).insert(id),
            (None, _) => true,
        };
        if !new {
            return Err(RuntimeError::DuplicateRequestId { request: id });
        }
        self.max_id = self.max_id.max(Some(id));
        self.horizon_us = arrival_us;
        Ok(())
    }
}

/// A deadline, when set, must be finite: a NaN one could never be missed,
/// yet it would count among the deadlines a serve reports a miss rate over.
///
/// # Errors
///
/// [`RuntimeError::InvalidDeadline`] naming `request`.
pub(crate) fn check_deadline(request: u64, deadline_us: Option<f64>) -> Result<(), RuntimeError> {
    match deadline_us {
        Some(deadline_us) if !deadline_us.is_finite() => Err(RuntimeError::InvalidDeadline {
            request,
            deadline_us,
        }),
        _ => Ok(()),
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

    /// An id that does not ascend is checked against a set seeded once
    /// from the intake, not by a scan of it: 50 000 descending ids read the
    /// ids already taken in once in all (about n²/2 times while each
    /// scanned), and a repeat among them is still refused.
    #[test]
    fn descending_ids_read_the_intake_ids_once() {
        use std::cell::Cell;
        let spec = KernelSpec::from_source("saxpy", SAXPY);
        let workload = Workload::ramp(3, 1);
        let mut check = IntakeCheck::default();
        let mut intake: Vec<u64> = Vec::new();
        let reads = Cell::new(0usize);
        let read = |_: &u64| reads.set(reads.get() + 1);
        for id in (0..50_000u64).rev() {
            let request = Request::new(id, spec.clone(), workload.clone());
            let taken = || intake.iter().copied().inspect(read);
            check.admit(&request, taken).unwrap();
            intake.push(id);
        }
        assert_eq!(reads.get(), 1, "only the id before the first descent");
        let taken = || intake.iter().copied().inspect(read);
        let repeat = Request::new(25_000, spec.clone(), workload.clone());
        assert!(matches!(
            check.admit(&repeat, taken),
            Err(RuntimeError::DuplicateRequestId { request: 25_000 })
        ));
        let fresh = Request::new(50_000, spec, workload);
        check.admit(&fresh, taken).unwrap();
        assert_eq!(reads.get(), 1);
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
