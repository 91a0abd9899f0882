//! The control-plane subsystem: same-kernel batching, which acts on the
//! event loop through the crate-private `Tiers` (in `tiers`).
//!
//! The serving runtime's dispatch policies *price* a context switch (the
//! modeled bitstream/overlay swap from [`overlay_arch::ReconfigModel`]) but
//! never *avoid* one: a tile draining a mixed queue in FIFO or slack order
//! swaps kernels on nearly every dispatch under kernel-interleaved load.
//! [`batcher`] ([`BatchConfig`], disabled by default) adds the classic
//! control-plane lever: when a tile frees, run the oldest *same-kernel*
//! waiter instead of the dispatch policy's choice, turning N same-kernel
//! dispatches into one switch + N runs.
//!
//! The loop's phases stay fixed, and each phase where a tier acts calls a
//! `Tiers` method. Every serve holds one `Tiers`: batching and, on a
//! pipeline serve, the session tier's driver; a method whose tier is off
//! does nothing.
//!
//! Batching's counters live in [`BatchStats`](crate::metrics::BatchStats).

pub mod batcher;
pub(crate) mod tiers;

pub use batcher::BatchConfig;

pub(crate) use tiers::{FreedTile, Gate, Tiers};
