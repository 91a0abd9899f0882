//! The unified error type of the `tm-overlay` façade.

use std::fmt;

use overlay_arch::ArchError;
use overlay_dfg::DfgError;
use overlay_frontend::FrontendError;
use overlay_scheduler::ScheduleError;
use overlay_sim::SimError;

/// Any error the overlay tool flow can produce, from kernel parsing through
/// scheduling, architecture configuration and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Kernel parsing or lowering failed.
    Frontend(FrontendError),
    /// The kernel graph violated a DFG invariant.
    Dfg(DfgError),
    /// Scheduling or instruction generation failed.
    Schedule(ScheduleError),
    /// The overlay configuration is invalid or does not fit the device.
    Arch(ArchError),
    /// Simulation failed.
    Sim(SimError),
    /// The kernel occupies more FUs than the overlay it was given to has.
    KernelTooDeep {
        /// FUs the kernel's program occupies.
        fus: usize,
        /// Depth of the overlay.
        depth: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Frontend(err) => write!(f, "front-end error: {err}"),
            Error::Dfg(err) => write!(f, "kernel graph error: {err}"),
            Error::Schedule(err) => write!(f, "scheduling error: {err}"),
            Error::Arch(err) => write!(f, "architecture error: {err}"),
            Error::Sim(err) => write!(f, "simulation error: {err}"),
            Error::KernelTooDeep { fus, depth } => write!(
                f,
                "kernel occupies {fus} FUs but the overlay has only {depth}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Frontend(err) => Some(err),
            Error::Dfg(err) => Some(err),
            Error::Schedule(err) => Some(err),
            Error::Arch(err) => Some(err),
            Error::Sim(err) => Some(err),
            Error::KernelTooDeep { .. } => None,
        }
    }
}

impl From<FrontendError> for Error {
    fn from(err: FrontendError) -> Self {
        Error::Frontend(err)
    }
}

impl From<DfgError> for Error {
    fn from(err: DfgError) -> Self {
        Error::Dfg(err)
    }
}

impl From<ScheduleError> for Error {
    fn from(err: ScheduleError) -> Self {
        Error::Schedule(err)
    }
}

impl From<ArchError> for Error {
    fn from(err: ArchError) -> Self {
        Error::Arch(err)
    }
}

impl From<SimError> for Error {
    fn from(err: SimError) -> Self {
        Error::Sim(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sub_error_converts_and_chains() {
        use std::error::Error as _;
        let err: Error = DfgError::NoOutputs.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("kernel graph"));
        let err: Error = ArchError::InvalidDepth { depth: 0 }.into();
        assert!(err.to_string().contains("architecture"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
