//! The control-plane subsystem: same-kernel batching and rate-driven kernel
//! replication, which act on the event loop through the crate-private
//! `Tiers` (in `tiers`).
//!
//! The serving runtime's dispatch policies *price* a context switch (the
//! modeled bitstream/overlay swap from [`overlay_arch::ReconfigModel`]) but
//! never *avoid* one: a tile draining a mixed queue in FIFO or slack order
//! swaps kernels on nearly every dispatch under kernel-interleaved load.
//! This module adds the two classic control-plane levers, both disabled by
//! default:
//!
//! * [`batcher`] ([`BatchConfig`]) — when a tile frees, run the oldest
//!   *same-kernel* waiter instead of the dispatch policy's choice, turning
//!   N same-kernel dispatches into one switch + N runs;
//! * [`replicator`] ([`ReplicationConfig`]) — push a hot kernel's image
//!   (by a per-kernel [`RateEstimator`]) to the least-loaded devices ahead
//!   of demand, and demote cold replicas under store pressure.
//!
//! The loop's phases stay fixed, and each phase where a tier acts calls a
//! `Tiers` method. Every serve holds one `Tiers`: both levers and, on a
//! pipeline serve, the session tier's driver; a method whose tier is off
//! does nothing.
//!
//! Counters for both levers live in [`BatchStats`](crate::metrics::BatchStats)
//! / [`ReplicationStats`](crate::metrics::ReplicationStats).

pub mod batcher;
pub mod estimate;
pub mod replicator;
pub(crate) mod tiers;

pub use batcher::BatchConfig;
pub use estimate::RateEstimator;
pub use replicator::ReplicationConfig;

pub(crate) use tiers::{FreedTile, Gate, Tiers};
