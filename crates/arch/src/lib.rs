//! Architecture, resource, timing and reconfiguration models for the linear
//! time-multiplexed FPGA overlay.
//!
//! The paper's evaluation is carried out on a Xilinx Zynq XC7Z020 using
//! Vivado place-and-route results. This crate captures those published
//! numbers as calibrated *models* so the rest of the workspace (scheduler,
//! simulator, benchmark harness) can derive the same quantities the paper
//! reports without an FPGA toolchain:
//!
//! * [`fu`] — the functional-unit variants of Table I (`[14]` baseline and
//!   V1–V5) with their resources, operating frequency and internal
//!   write-back path (IWP);
//! * [`device`] / [`resources`] — FPGA device capacities and resource
//!   arithmetic;
//! * [`overlay`] — overlay configurations (variant + depth + tiles) and their
//!   resource/frequency estimates, anchored to the depth-8 figures quoted in
//!   Sec. V;
//! * [`scaling`] — the Fig. 5 scalability sweeps;
//! * [`reconfig`] — the PCAP partial-reconfiguration and instruction-load
//!   model behind the hardware-context-switch comparison;
//! * [`noc`] — the tile/NoC composition proposed in Sec. III-A.3.
//!
//! # Example
//!
//! ```
//! use overlay_arch::{FuVariant, OverlayConfig};
//!
//! # fn main() -> Result<(), overlay_arch::ArchError> {
//! let overlay = OverlayConfig::new(FuVariant::V1, 8)?;
//! let usage = overlay.resource_estimate();
//! assert_eq!(usage.dsps, 8);
//! assert!(overlay.fmax_mhz() > 300.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod error;
pub mod fu;
pub mod noc;
pub mod overlay;
pub mod reconfig;
pub mod resources;
pub mod scaling;

pub use device::FpgaDevice;
pub use error::ArchError;
pub use fu::FuVariant;
pub use noc::{NocConfig, Tile, TileComposition};
pub use overlay::OverlayConfig;
pub use reconfig::{ContextSwitch, ReconfigModel};
pub use resources::ResourceUsage;
pub use scaling::{scalability_sweep, ScalabilityPoint};
