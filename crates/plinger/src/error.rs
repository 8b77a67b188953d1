//! The typed error taxonomy of a farm session.
//!
//! Everything that can go wrong between `Farm::run`'s broadcast and its
//! final report is named here, so callers (the CLI, the bench binaries,
//! the tests) can distinguish a transport that failed to assemble from a
//! worker that died mid-mode from a mode integration that blew up —
//! instead of the panics the first version of the farm used.

use std::fmt;

use boltzmann::{EvolveError, WireError};
use msgpass::{CommError, Rank};

use crate::protocol::SpecDecodeError;

/// Why a job was cancelled mid-run (see [`FarmError::Cancelled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The request's deadline passed while the job was queued or running.
    DeadlineExceeded,
    /// An explicit cancel (client abandoned the request, server drain).
    Cancelled,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            CancelReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A farm session failure.
#[derive(Debug)]
pub enum FarmError {
    /// The session never started: world assembly or the tag-1 spec
    /// broadcast failed.  Broadcast is all-or-nothing for the farm — a
    /// partial broadcast (see `Transport::broadcast`) leaves workers in
    /// mixed states, so any broadcast error lands here and aborts.
    Setup(CommError),
    /// A transport operation failed mid-session.
    Comm(CommError),
    /// A peer violated the Appendix A protocol (unexpected tag, bad
    /// geometry, impossible state).
    Protocol {
        /// Rank the violation was observed on or attributed to.
        rank: Rank,
        /// Human-readable description.
        detail: String,
    },
    /// A result message failed wire validation.
    Wire {
        /// Worker that sent the malformed record.
        rank: Rank,
        /// The decode failure.
        source: WireError,
    },
    /// The tag-1 run-spec broadcast failed to decode on a worker.
    SpecDecode(SpecDecodeError),
    /// The job's cosmology is curved (or NaN) past
    /// [`boltzmann::FLATNESS_TOLERANCE`]: the perturbation equations are
    /// flat-space only, so it is refused before any worker sees it.
    NotFlat {
        /// The refused Ω_k.
        omega_k: f64,
    },
    /// A mode integration failed on a worker (reported via tag 8).
    Evolve {
        /// Worker the mode was running on (0 for the serial runner).
        rank: Rank,
        /// Index of the failed mode in the k-grid.
        ik: usize,
        /// Wavenumber of the failed mode, Mpc⁻¹.
        k: f64,
        /// The underlying integrator error when it is available locally
        /// (serial runs); `None` when the failure arrived over the wire.
        source: Option<EvolveError>,
    },
    /// A worker stopped responding before the run finished.  The farm
    /// drained the survivors and shut the session down; `unfinished`
    /// names every mode index that had no result when the loss was
    /// detected.
    WorkerLost {
        /// The rank that died.
        rank: Rank,
        /// Mode indices (into the k-grid) left without results.
        unfinished: Vec<usize>,
    },
    /// A worker thread or process could not be joined cleanly.
    WorkerJoin {
        /// The rank that failed to join.
        rank: Rank,
        /// Panic payload or exit-status description.
        detail: String,
    },
    /// Under [`crate::RecoveryPolicy::Requeue`], every worker died (and
    /// respawn, if any, was exhausted) while modes were still pending.
    /// Requeue can survive any loss but the last.
    AllWorkersLost {
        /// Mode indices (into the k-grid) left without results.
        unfinished: Vec<usize>,
    },
    /// The job was cancelled cooperatively (tag-12): its deadline
    /// expired or the caller gave up.  Workers abandoned their modes
    /// mid-flight and the session drained cleanly — a pooled farm stays
    /// healthy and serves the next job.
    Cancelled {
        /// What triggered the cancellation.
        reason: CancelReason,
        /// Mode indices (into the k-grid) left without results.
        unfinished: Vec<usize>,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::Setup(e) => write!(f, "farm setup failed: {e}"),
            FarmError::Comm(e) => write!(f, "communication failed: {e}"),
            FarmError::Protocol { rank, detail } => {
                write!(f, "protocol violation at rank {rank}: {detail}")
            }
            FarmError::Wire { rank, source } => {
                write!(f, "malformed result from rank {rank}: {source}")
            }
            FarmError::SpecDecode(e) => write!(f, "run spec failed to decode: {e}"),
            FarmError::NotFlat { omega_k } => write!(
                f,
                "cosmology is not flat (Omega_k = {omega_k:.6}; need |Omega_k| < {})",
                boltzmann::FLATNESS_TOLERANCE
            ),
            FarmError::Evolve {
                rank,
                ik,
                k,
                source,
            } => {
                write!(f, "mode ik={ik} (k={k} 1/Mpc) failed on rank {rank}")?;
                if let Some(e) = source {
                    write!(f, ": {e}")?;
                }
                Ok(())
            }
            FarmError::WorkerLost { rank, unfinished } => write!(
                f,
                "worker rank {rank} lost; {} mode(s) unfinished: {:?}",
                unfinished.len(),
                unfinished
            ),
            FarmError::WorkerJoin { rank, detail } => {
                write!(f, "worker rank {rank} failed to join: {detail}")
            }
            FarmError::AllWorkersLost { unfinished } => write!(
                f,
                "all workers lost; {} mode(s) unfinished: {:?}",
                unfinished.len(),
                unfinished
            ),
            FarmError::Cancelled { reason, unfinished } => write!(
                f,
                "job cancelled ({reason}); {} mode(s) unfinished",
                unfinished.len()
            ),
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Setup(e) | FarmError::Comm(e) => Some(e),
            FarmError::Wire { source, .. } => Some(source),
            FarmError::SpecDecode(e) => Some(e),
            FarmError::Evolve {
                source: Some(e), ..
            } => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for FarmError {
    fn from(e: CommError) -> Self {
        FarmError::Comm(e)
    }
}

impl From<SpecDecodeError> for FarmError {
    fn from(e: SpecDecodeError) -> Self {
        FarmError::SpecDecode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = FarmError::WorkerLost {
            rank: 3,
            unfinished: vec![1, 4],
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("[1, 4]"));

        let e = FarmError::Evolve {
            rank: 2,
            ik: 7,
            k: 0.05,
            source: None,
        };
        assert!(e.to_string().contains("ik=7"));
    }

    #[test]
    fn comm_errors_convert() {
        let e: FarmError = CommError::Disconnected.into();
        assert!(matches!(e, FarmError::Comm(CommError::Disconnected)));
    }
}
