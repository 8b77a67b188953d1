//! The typed error taxonomy of a farm session.
//!
//! Everything that can go wrong between `Farm::run`'s broadcast and its
//! final report is named here, so callers (the CLI, the bench binaries,
//! the tests) can distinguish a transport that failed to assemble from a
//! farm that lost every worker from a spectrum whose modes could not be
//! finished — instead of the panics the first version of the farm used.
//! A lone worker loss or mode failure is not an error at all: the master
//! requeues the mode (see [`crate::recovery`]).

use std::fmt;

use background::ParamError;
use boltzmann::EvolveError;
use msgpass::{CommError, Rank};

use crate::protocol::SpecDecodeError;
use crate::recovery::FailedMode;

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
    /// The tag-1 run-spec broadcast failed to decode on a worker.
    SpecDecode(SpecDecodeError),
    /// A cosmological parameter is out of the range the background
    /// accepts (see [`background::CosmoParams::validate`]): refused
    /// before any worker sees it.
    BadParam(ParamError),
    /// A run-spec field the evolution cannot run with (a massive-ν
    /// ladder below the state layout's floor, a `tau_end` that is not
    /// positive and finite): refused before any worker sees it.
    BadSpec {
        /// The refused field of [`crate::RunSpec`].
        field: &'static str,
        /// Its value.
        value: f64,
        /// What it must be.
        need: String,
    },
    /// The job's cosmology is curved (or NaN) past
    /// [`boltzmann::FLATNESS_TOLERANCE`]: the perturbation equations are
    /// flat-space only, so it is refused before any worker sees it.
    NotFlat {
        /// The refused Ω_k.
        omega_k: f64,
    },
    /// A mode integration of the serial runner failed.
    Evolve {
        /// Index of the failed mode in the k-grid.
        ik: usize,
        /// Wavenumber of the failed mode, Mpc⁻¹.
        k: f64,
        /// The underlying integrator error.
        source: EvolveError,
    },
    /// Every worker died (and respawn, if any, was exhausted) while
    /// modes were still pending.  The farm survives any loss but the
    /// last.
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
    /// The job finished but quarantined modes
    /// ([`crate::FarmReport::require_complete`]): the service never
    /// serves or caches a spectrum missing them, and `plinger` never
    /// writes one.
    Quarantined {
        /// The modes the job finished without.
        modes: Vec<FailedMode>,
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
            FarmError::SpecDecode(e) => write!(f, "run spec failed to decode: {e}"),
            FarmError::BadParam(e) => write!(f, "cosmology parameter {e}"),
            FarmError::BadSpec { field, value, need } => {
                write!(f, "{field} = {value} out of range (need {need})")
            }
            FarmError::NotFlat { omega_k } => write!(
                f,
                "cosmology is not flat (Omega_k = {omega_k:.6}; need |Omega_k| < {})",
                boltzmann::FLATNESS_TOLERANCE
            ),
            FarmError::Evolve { ik, k, source } => {
                write!(f, "mode ik={ik} (k={k} 1/Mpc) failed: {source}")
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
            FarmError::Quarantined { modes } => {
                write!(f, "{} mode(s) quarantined", modes.len())?;
                for m in modes {
                    write!(
                        f,
                        "; ik={} (k={} 1/Mpc) after {} attempt(s): {}",
                        m.ik, m.k, m.attempts, m.reason
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Setup(e) | FarmError::Comm(e) => Some(e),
            FarmError::SpecDecode(e) => Some(e),
            FarmError::BadParam(e) => Some(e),
            FarmError::Evolve { source, .. } => Some(source),
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
        let e = FarmError::AllWorkersLost {
            unfinished: vec![1, 4],
        };
        let s = e.to_string();
        assert!(s.contains("all workers lost"));
        assert!(s.contains("[1, 4]"));

        let e = FarmError::Evolve {
            ik: 7,
            k: -1.0,
            source: EvolveError::BadWavenumber { k: -1.0 },
        };
        let s = e.to_string();
        assert!(s.contains("ik=7") && s.contains("not positive"), "{s}");
        assert!(!s.contains("rank"), "{s}");
    }

    #[test]
    fn comm_errors_convert() {
        let e: FarmError = CommError::Disconnected.into();
        assert!(matches!(e, FarmError::Comm(CommError::Disconnected)));
    }
}
