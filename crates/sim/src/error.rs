//! Simulator error type.

use std::fmt;

use overlay_arch::FuVariant;
use overlay_dfg::DfgError;
use overlay_isa::IsaError;

/// Errors produced while simulating a compiled kernel.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A workload record has the wrong number of input words.
    InputWidthMismatch {
        /// Inputs the kernel expects per invocation.
        expected: usize,
        /// Words supplied in the offending record.
        found: usize,
        /// Index of the offending record.
        record: usize,
    },
    /// The workload is empty.
    EmptyWorkload,
    /// The kernel was compiled for another FU variant than the simulator
    /// models: its schedule assumes a different pipeline depth, write-back
    /// delay and lane count, so the cycles and hazard checks would be wrong.
    VariantMismatch {
        /// The variant the kernel was compiled for.
        compiled: FuVariant,
        /// The variant the simulator models.
        simulator: FuVariant,
    },
    /// An instruction read a register that was never written in the current
    /// block context.
    UninitializedRegister {
        /// FU index.
        fu: usize,
        /// Register index.
        register: usize,
        /// Block (invocation) index.
        block: usize,
    },
    /// A write-back value was read before the internal write-back path had
    /// delivered it — the schedule violated the IWP spacing.
    WritebackHazard {
        /// FU index.
        fu: usize,
        /// Block (invocation) index.
        block: usize,
        /// Issue-slot distance observed between producer and consumer.
        observed: usize,
        /// Minimum distance the hardware requires.
        required: usize,
    },
    /// A stage tried to load more words than the upstream stage forwarded.
    StreamUnderflow {
        /// FU index.
        fu: usize,
        /// Block (invocation) index.
        block: usize,
    },
    /// The compiled program is malformed (e.g. decode failure).
    Isa(IsaError),
    /// The kernel graph was malformed.
    Dfg(DfgError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputWidthMismatch {
                expected,
                found,
                record,
            } => write!(
                f,
                "workload record {record} has {found} word(s) but the kernel expects {expected}"
            ),
            SimError::EmptyWorkload => write!(f, "workload contains no records"),
            SimError::VariantMismatch {
                compiled,
                simulator,
            } => write!(
                f,
                "kernel compiled for {compiled} cannot run on a simulator of {simulator}"
            ),
            SimError::UninitializedRegister {
                fu,
                register,
                block,
            } => write!(
                f,
                "FU{fu} read uninitialised register r{register} in block {block}"
            ),
            SimError::WritebackHazard {
                fu,
                block,
                observed,
                required,
            } => write!(
                f,
                "write-back hazard on FU{fu} block {block}: dependent instructions {observed} slot(s) apart, {required} required"
            ),
            SimError::StreamUnderflow { fu, block } => {
                write!(f, "FU{fu} tried to load more words than arrived in block {block}")
            }
            SimError::Isa(err) => write!(f, "invalid program: {err}"),
            SimError::Dfg(err) => write!(f, "invalid kernel graph: {err}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Isa(err) => Some(err),
            SimError::Dfg(err) => Some(err),
            _ => None,
        }
    }
}

impl From<IsaError> for SimError {
    fn from(err: IsaError) -> Self {
        SimError::Isa(err)
    }
}

impl From<DfgError> for SimError {
    fn from(err: DfgError) -> Self {
        SimError::Dfg(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_identify_the_fu_and_block() {
        let err = SimError::WritebackHazard {
            fu: 3,
            block: 7,
            observed: 2,
            required: 5,
        };
        let text = err.to_string();
        assert!(text.contains("FU3"));
        assert!(text.contains("block 7"));
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
