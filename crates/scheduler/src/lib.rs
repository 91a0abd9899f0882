//! Mapping tool flow: scheduling kernels onto the linear TM overlay and
//! generating FU instruction streams.
//!
//! The flow mirrors Sec. IV of the paper:
//!
//! 1. a kernel DFG (from `overlay-frontend` or built by hand) is scheduled
//!    onto FU *stages* — either [ASAP level scheduling](asap) for the
//!    depth-matched overlays (`[14]`, V1, V2) or the
//!    [fixed-depth iterative greedy clustering](cluster) for the write-back
//!    overlays (V3–V5);
//! 2. the [initiation-interval models](ii) (Eq. 1 and Eq. 2 of the paper)
//!    derive the II from the per-stage load and operation counts;
//! 3. [instruction generation](codegen) turns the stage schedule into one
//!    [`overlay_isa::FuProgram`] per FU plus stream metadata;
//! 4. [`table`] renders the steady-state execution pattern cycle by cycle in
//!    the style of the paper's Table II.
//!
//! # Example
//!
//! ```
//! use overlay_frontend::Benchmark;
//! use overlay_arch::FuVariant;
//! use overlay_scheduler::{schedule, ii_for_variant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = Benchmark::Gradient.dfg()?;
//! let stages = schedule(&dfg, FuVariant::V1, None)?;
//! let ii = ii_for_variant(&stages, FuVariant::V1);
//! assert_eq!(ii, 6.0); // the paper's Sec. IV figure for 'gradient' on V1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asap;
pub mod cluster;
pub mod codegen;
pub mod error;
pub mod ii;
mod liveness;
pub mod stage;
pub mod table;

pub use asap::asap_schedule;
pub use cluster::{cluster_schedule, ClusterOptions};
pub use codegen::{generate_program, generate_program_owned, CompiledKernel};
pub use error::ScheduleError;
pub use ii::{ii_baseline, ii_for_variant, ii_v1, ii_v2, ii_writeback, IiBreakdown};
pub use stage::{Slot, Stage, StageSchedule, Strategy};
pub use table::{schedule_table, ScheduleTable};

use overlay_arch::FuVariant;
use overlay_dfg::Dfg;

/// Schedules `dfg` for an overlay built from `variant`.
///
/// * For the feed-forward variants (`[14]`, V1, V2) this is ASAP level
///   scheduling; the overlay depth equals the kernel depth and
///   `fixed_depth` is ignored.
/// * For the write-back variants (V3–V5) the kernel is mapped onto a fixed
///   number of FUs (`fixed_depth`, defaulting to the paper's depth of 8):
///   ASAP when the kernel fits, the iterative greedy clustering otherwise.
///
/// # Errors
///
/// Returns a [`ScheduleError`] if the DFG is malformed or cannot be mapped
/// (e.g. a fixed depth of zero).
pub fn schedule(
    dfg: &Dfg,
    variant: FuVariant,
    fixed_depth: Option<usize>,
) -> Result<StageSchedule, ScheduleError> {
    if variant.has_writeback() {
        let depth = fixed_depth.unwrap_or(overlay_arch::overlay::FIXED_DEPTH);
        let options = ClusterOptions {
            depth,
            iwp: variant.iwp().unwrap_or(1),
        };
        cluster_schedule(dfg, &options)
    } else {
        asap_schedule(dfg)
    }
}
