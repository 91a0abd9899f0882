//! Scheduler error type.

use std::fmt;

use overlay_dfg::{DfgError, NodeId, Op};
use overlay_isa::IsaError;

/// Errors produced while scheduling a kernel or generating its instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The DFG failed validation.
    Dfg(DfgError),
    /// Instruction generation failed.
    Isa(IsaError),
    /// A fixed overlay depth of zero was requested.
    ZeroDepth,
    /// The kernel has no operations to schedule.
    EmptyKernel,
    /// A stage needs more registers than the 32-entry register file provides.
    RegisterPressure {
        /// The stage (FU index) that overflowed.
        stage: usize,
        /// Number of registers the stage would need.
        needed: usize,
    },
    /// An operation's operand was not available at its scheduled stage — an
    /// internal consistency violation.
    OperandUnavailable {
        /// The consuming operation.
        node: NodeId,
        /// The missing operand value.
        operand: NodeId,
        /// The stage where the consumer was scheduled.
        stage: usize,
    },
    /// An operation takes more operands than the 32-bit `EXEC` word has
    /// source-register fields (two), so no instruction can encode it.
    UnsupportedArity {
        /// The operation node.
        node: NodeId,
        /// Its operation.
        op: Op,
        /// The operation's operand count.
        arity: usize,
    },
    /// A kernel deeper than the overlay must share a stage between two
    /// dependent levels, whose ops issue at least `iwp` slots apart; an IWP
    /// past the instruction-memory capacity leaves no such stage that fits.
    IwpTooLong {
        /// The requested internal write-back path, in cycles.
        iwp: usize,
        /// The FU instruction-memory capacity, in words.
        capacity: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Dfg(err) => write!(f, "invalid kernel graph: {err}"),
            ScheduleError::Isa(err) => write!(f, "instruction generation failed: {err}"),
            ScheduleError::ZeroDepth => write!(f, "fixed overlay depth must be at least 1"),
            ScheduleError::EmptyKernel => write!(f, "kernel has no operations to schedule"),
            ScheduleError::RegisterPressure { stage, needed } => write!(
                f,
                "stage {stage} needs {needed} registers, more than the 32-entry register file"
            ),
            ScheduleError::OperandUnavailable {
                node,
                operand,
                stage,
            } => write!(
                f,
                "operand {operand} of {node} is not available at stage {stage}"
            ),
            ScheduleError::UnsupportedArity { node, op, arity } => write!(
                f,
                "{node} is a {arity}-operand {op}, but the EXEC word has two source fields"
            ),
            ScheduleError::IwpTooLong { iwp, capacity } => write!(
                f,
                "an internal write-back path of {iwp} cycles spaces a clustered stage \
                 past the {capacity}-word instruction memory"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScheduleError::Dfg(err) => Some(err),
            ScheduleError::Isa(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DfgError> for ScheduleError {
    fn from(err: DfgError) -> Self {
        ScheduleError::Dfg(err)
    }
}

impl From<IsaError> for ScheduleError {
    fn from(err: IsaError) -> Self {
        ScheduleError::Isa(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_chain_their_sources() {
        use std::error::Error;
        let err = ScheduleError::from(DfgError::NoOutputs);
        assert!(err.source().is_some());
        let err = ScheduleError::ZeroDepth;
        assert!(err.source().is_none());
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<ScheduleError>();
    }
}
