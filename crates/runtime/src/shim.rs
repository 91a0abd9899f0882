//! Names the frozen benchmark harness still compiles against, each a
//! one-line forward to [`Cluster`]: the `Runtime` newtype (a one-device
//! cluster) and the `ClusterReport` alias. Nothing in the workspace outside
//! `benchmark/` may use either; the benchmark's next revision deletes them.

use overlay_arch::FuVariant;

use crate::{obs, Cluster, Request, RuntimeError, ServeReport};

// Read by `benchmark/src/workloads/serve/surge.rs`.
#[doc(hidden)]
pub type ClusterReport = ServeReport;

// `new` and `serve` are called by `benchmark/src/workloads/serve/{steady,cold}.rs`,
// the three builders by `steady.rs`, the constants by all three serve workloads.
#[doc(hidden)]
#[derive(Debug)]
pub struct Runtime(Cluster);

#[doc(hidden)]
impl Runtime {
    pub const DEFAULT_CACHE_CAPACITY: usize = Cluster::DEFAULT_CACHE_CAPACITY;
    pub const DEFAULT_SIM_MEMO_CAPACITY: usize = Cluster::DEFAULT_SIM_MEMO_CAPACITY;

    pub fn new(variant: FuVariant, tiles: usize) -> Result<Self, RuntimeError> {
        Cluster::new(variant, 1, tiles).map(Runtime)
    }

    #[must_use]
    pub fn with_profiling(self, enabled: bool) -> Self {
        Runtime(self.0.with_profiling(enabled))
    }

    #[must_use]
    pub fn with_tracing(self, config: obs::TraceConfig) -> Self {
        Runtime(self.0.with_tracing(config))
    }

    #[must_use]
    pub fn with_telemetry(self, config: obs::TelemetryConfig) -> Self {
        Runtime(self.0.with_telemetry(config))
    }

    pub fn serve<I>(&mut self, requests: I) -> Result<ServeReport, RuntimeError>
    where
        I: IntoIterator<Item = Request>,
    {
        self.0.serve(requests)
    }
}
