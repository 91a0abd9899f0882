//! The control-plane subsystem: same-kernel batching and rate-driven kernel
//! replication, layered over the data-plane event loop.
//!
//! The serving runtime's dispatch policies *price* a context switch (the
//! modeled bitstream/overlay swap from [`overlay_arch::ReconfigModel`]) but
//! never *avoid* one: a tile draining a mixed queue in FIFO or slack order
//! swaps kernels on nearly every dispatch under kernel-interleaved load.
//! This module adds the two classic control-plane levers on top of the
//! existing decision machinery, both disabled by default and both leaving
//! the data plane bitwise unchanged when off:
//!
//! * **`Batcher`** ([`BatchConfig`]) — a policy layer
//!   over the tile queue's next pick: when a tile frees, it may run the
//!   oldest *same-kernel* waiter instead of the dispatch policy's choice,
//!   turning N same-kernel dispatches into one switch + N runs. Runs are
//!   capped at `max_batch` and bypassed requests are protected by a
//!   staleness bound and (for deadline carriers) a feasibility check —
//!   deadlines still win when slack runs out. Composes with both dispatch
//!   policies.
//! * **`Replicator`** ([`ReplicationConfig`]) —
//!   driven by a per-kernel request-rate EWMA ([`RateEstimator`]) fed from
//!   the cluster routing tier (which sees every submission): a kernel whose
//!   decayed arrival weight crosses the hot threshold has its compiled
//!   image pushed ahead of demand to the least-loaded devices over the
//!   [`TransferModel`](crate::TransferModel) path, so routing's completion
//!   estimates see warm replicas instead of charging transfers. Cold
//!   replicas are demoted under store pressure.
//!
//! Counters for both levers live in [`BatchStats`](crate::metrics::BatchStats)
//! / [`ReplicationStats`](crate::metrics::ReplicationStats).

pub mod batcher;
pub mod estimate;
pub mod replicator;

pub use batcher::BatchConfig;
pub use estimate::RateEstimator;
pub use replicator::ReplicationConfig;

pub(crate) use batcher::Batcher;
pub(crate) use replicator::Replicator;
