//! The unified typed error hierarchy for the orchestration stack.
//!
//! Every fallible operation across the crate funnels into
//! [`EdgeSliceError`] so callers — in particular the degradation policy in
//! the orchestrator — can branch on *variants* instead of parsing strings:
//! a rejected virtualized-resource update ([`EdgeSliceError::Manager`])
//! keeps the previous allocation serving traffic, a corrupt checkpoint
//! ([`EdgeSliceError::Checkpoint`]) blocks an RA rejoin, a numerical
//! failure in the optimization layer ([`EdgeSliceError::Optim`]) aborts the
//! round, and an exhausted staleness budget
//! ([`EdgeSliceError::RaUnavailable`]) declares the RA dead and triggers
//! slice redistribution.

use crate::checkpoint::CheckpointError;
use crate::ids::{RaId, SliceId};
use crate::managers::ManagerError;
use edgeslice_optim::OptimError;

/// The crate-wide error type unifying the layer-specific errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum EdgeSliceError {
    /// A virtualized-resource update was rejected by the resource managers
    /// (unknown/duplicate slice, non-finite share): the previous allocation
    /// stays in force.
    Manager(ManagerError),
    /// Policy checkpoint (de)serialization failed: the RA cannot be
    /// re-synced from this artifact.
    Checkpoint(CheckpointError),
    /// A numerical routine in the optimization layer failed.
    Optim(OptimError),
    /// Report/record JSON (de)serialization failed.
    Serialization(String),
    /// An RA missed more consecutive coordination rounds than the
    /// staleness budget allows and was declared dead.
    RaUnavailable {
        /// The RA that went silent.
        ra: RaId,
        /// Consecutive rounds without a report.
        missed_rounds: usize,
        /// The configured staleness budget, rounds.
        budget: usize,
    },
    /// A teardown referenced a slice that was never admitted.
    SliceNotAdmitted {
        /// The unknown slice.
        slice: SliceId,
    },
    /// A fault plan was internally inconsistent (e.g. an RA index beyond
    /// the system size, a non-finite degradation factor).
    InvalidFaultPlan(String),
    /// A workload plan was internally inconsistent (e.g. out-of-order
    /// arrival ids, an event past the horizon, a non-finite rate).
    InvalidWorkloadPlan(String),
    /// A slice request (fresh admission or an in-place resize) was
    /// rejected by the admission controller for lack of capacity.
    AdmissionRejected {
        /// The slice the request concerned.
        slice: SliceId,
        /// The binding capacity domain.
        reason: crate::admission::RejectReason,
    },
    /// An I/O operation on the durable checkpoint store failed.
    Io {
        /// The file or directory involved.
        path: std::path::PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A durable snapshot file failed structural validation (bad magic,
    /// truncation, CRC mismatch, undecodable payload) and must not be
    /// trusted; resume falls back to the previous valid snapshot.
    CorruptSnapshot {
        /// The rejected file.
        path: std::path::PathBuf,
        /// What failed to validate.
        reason: String,
    },
    /// A durable snapshot declares an envelope format version this build
    /// does not read.
    UnsupportedSnapshotVersion {
        /// The rejected file.
        path: std::path::PathBuf,
        /// Version declared by the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A durable snapshot was valid but describes a different system than
    /// the one resuming from it (RA count, period, policy kind).
    SnapshotMismatch {
        /// What differed.
        reason: String,
    },
    /// A networked-runtime transport operation failed (handshake,
    /// registration, framed send/receive) in a way the retry policy could
    /// not absorb; the typed cause distinguishes "network flaked" from
    /// "peer is gone".
    Transport(edgeslice_runtime::TransportError),
}

impl std::fmt::Display for EdgeSliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Manager(e) => write!(f, "resource-manager rejection: {e}"),
            Self::Checkpoint(e) => write!(f, "{e}"),
            Self::Optim(e) => write!(f, "optimization failure: {e}"),
            Self::Serialization(msg) => write!(f, "serialization failure: {msg}"),
            Self::RaUnavailable {
                ra,
                missed_rounds,
                budget,
            } => write!(
                f,
                "RA {} declared dead: missed {missed_rounds} consecutive rounds \
                 (staleness budget {budget})",
                ra.0
            ),
            Self::SliceNotAdmitted { slice } => {
                write!(f, "slice {} was never admitted", slice.0)
            }
            Self::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            Self::InvalidWorkloadPlan(msg) => write!(f, "invalid workload plan: {msg}"),
            Self::AdmissionRejected { slice, reason } => {
                write!(f, "slice {} rejected by admission: {reason}", slice.0)
            }
            Self::Io { path, source } => {
                write!(
                    f,
                    "checkpoint-store I/O failure at {}: {source}",
                    path.display()
                )
            }
            Self::CorruptSnapshot { path, reason } => {
                write!(f, "corrupt snapshot {}: {reason}", path.display())
            }
            Self::UnsupportedSnapshotVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "snapshot {} has unsupported format version {found} (this build reads {supported})",
                path.display()
            ),
            Self::SnapshotMismatch { reason } => {
                write!(f, "snapshot does not match this system: {reason}")
            }
            Self::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for EdgeSliceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Manager(e) => Some(e),
            Self::Checkpoint(e) => Some(e),
            Self::Optim(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            Self::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ManagerError> for EdgeSliceError {
    fn from(e: ManagerError) -> Self {
        Self::Manager(e)
    }
}

impl From<CheckpointError> for EdgeSliceError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<OptimError> for EdgeSliceError {
    fn from(e: OptimError) -> Self {
        Self::Optim(e)
    }
}

impl From<serde_json::Error> for EdgeSliceError {
    fn from(e: serde_json::Error) -> Self {
        Self::Serialization(e.to_string())
    }
}

impl From<edgeslice_runtime::TransportError> for EdgeSliceError {
    fn from(e: edgeslice_runtime::TransportError) -> Self {
        Self::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_layer_errors_with_sources() {
        let err: EdgeSliceError = ManagerError::DuplicateSlice { slice: SliceId(3) }.into();
        assert!(matches!(err, EdgeSliceError::Manager(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("resource-manager rejection"));

        let err: EdgeSliceError = OptimError::DimensionMismatch {
            expected: 4,
            found: 3,
        }
        .into();
        assert!(matches!(err, EdgeSliceError::Optim(_)));

        let err = EdgeSliceError::RaUnavailable {
            ra: RaId(1),
            missed_rounds: 4,
            budget: 3,
        };
        assert!(err.to_string().contains("declared dead"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
