//! The runtime's unified error type.

use std::fmt;

use overlay_arch::ArchError;
use overlay_dfg::DfgError;
use overlay_frontend::FrontendError;
use overlay_scheduler::ScheduleError;
use overlay_sim::SimError;

/// Any error the serving runtime can produce: configuration problems plus
/// everything the underlying compile/simulate tool flow can raise.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The tile pool was configured with zero tiles.
    EmptyPool,
    /// The cluster was configured with zero devices.
    EmptyCluster,
    /// The kernel cache was configured with zero capacity.
    ZeroCacheCapacity,
    /// `serve` was called with an empty request trace.
    NoRequests,
    /// A request's arrival time was negative or not finite.
    InvalidArrival {
        /// The offending request id.
        request: u64,
        /// The arrival time supplied.
        arrival_us: f64,
    },
    /// A request was submitted with an arrival time earlier than one already
    /// streamed in — the online loop requires non-decreasing arrivals.
    OutOfOrderArrival {
        /// The offending request id.
        request: u64,
        /// The arrival time supplied.
        arrival_us: f64,
        /// The latest arrival time already accepted.
        horizon_us: f64,
    },
    /// A request's (or a pipeline's) deadline was not finite.
    InvalidDeadline {
        /// The offending request id, or pipeline id for a pipeline's
        /// deadline.
        request: u64,
        /// The deadline supplied.
        deadline_us: f64,
    },
    /// A request id was submitted twice in one serve. A pipeline's stage
    /// ids are packed from its id, so a repeated pipeline id lands here too.
    DuplicateRequestId {
        /// The repeated request id.
        request: u64,
    },
    /// A fault plan failed validation (non-finite time, device out of
    /// range, or a non-positive link multiplier).
    InvalidFaultPlan {
        /// What the validator objected to.
        reason: String,
    },
    /// A pipeline request failed DAG validation (empty, a dependency out of
    /// range / self-loop / duplicate, a cycle, more stages than the packed
    /// per-stage request-id layout holds, or an id of 2⁴⁸ or more, which
    /// overflows it).
    InvalidPipeline {
        /// The offending pipeline id.
        pipeline: u64,
        /// What the validator objected to.
        reason: String,
    },
    /// Kernel parsing or lowering failed.
    Frontend(FrontendError),
    /// The kernel graph violated a DFG invariant.
    Dfg(DfgError),
    /// Scheduling or instruction generation failed.
    Schedule(ScheduleError),
    /// The overlay or tile configuration is invalid.
    Arch(ArchError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::EmptyPool => f.write_str("tile pool has no tiles"),
            RuntimeError::EmptyCluster => f.write_str("cluster has no devices"),
            RuntimeError::ZeroCacheCapacity => f.write_str("kernel cache capacity must be >= 1"),
            RuntimeError::NoRequests => f.write_str("request trace is empty"),
            RuntimeError::InvalidArrival {
                request,
                arrival_us,
            } => write!(
                f,
                "request {request} has invalid arrival time {arrival_us} us"
            ),
            RuntimeError::OutOfOrderArrival {
                request,
                arrival_us,
                horizon_us,
            } => write!(
                f,
                "request {request} arrived at {arrival_us} us, before the already-streamed \
                 horizon {horizon_us} us (submissions must be in non-decreasing arrival order)"
            ),
            RuntimeError::InvalidDeadline {
                request,
                deadline_us,
            } => write!(f, "request {request} has invalid deadline {deadline_us} us"),
            RuntimeError::DuplicateRequestId { request } => {
                write!(f, "request id {request} was submitted twice in one serve")
            }
            RuntimeError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            RuntimeError::InvalidPipeline { pipeline, reason } => {
                write!(f, "invalid pipeline {pipeline}: {reason}")
            }
            RuntimeError::Frontend(err) => write!(f, "front-end error: {err}"),
            RuntimeError::Dfg(err) => write!(f, "kernel graph error: {err}"),
            RuntimeError::Schedule(err) => write!(f, "scheduling error: {err}"),
            RuntimeError::Arch(err) => write!(f, "architecture error: {err}"),
            RuntimeError::Sim(err) => write!(f, "simulation error: {err}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Frontend(err) => Some(err),
            RuntimeError::Dfg(err) => Some(err),
            RuntimeError::Schedule(err) => Some(err),
            RuntimeError::Arch(err) => Some(err),
            RuntimeError::Sim(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FrontendError> for RuntimeError {
    fn from(err: FrontendError) -> Self {
        RuntimeError::Frontend(err)
    }
}

impl From<DfgError> for RuntimeError {
    fn from(err: DfgError) -> Self {
        RuntimeError::Dfg(err)
    }
}

impl From<ScheduleError> for RuntimeError {
    fn from(err: ScheduleError) -> Self {
        RuntimeError::Schedule(err)
    }
}

impl From<ArchError> for RuntimeError {
    fn from(err: ArchError) -> Self {
        RuntimeError::Arch(err)
    }
}

impl From<SimError> for RuntimeError {
    fn from(err: SimError) -> Self {
        RuntimeError::Sim(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_errors_convert_and_chain() {
        use std::error::Error as _;
        let err: RuntimeError = DfgError::NoOutputs.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("kernel graph"));
        assert!(RuntimeError::EmptyPool.source().is_none());
        assert!(RuntimeError::EmptyPool.to_string().contains("no tiles"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<RuntimeError>();
    }
}
