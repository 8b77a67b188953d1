//! Recovery policy and bookkeeping for a self-healing farm.
//!
//! The paper's farm is embarrassingly restartable: every k-mode is
//! independent, so any unfinished mode can be handed to any surviving
//! worker.  [`RecoveryPolicy`] decides what the master does with that
//! freedom when a worker is lost mid-run:
//!
//! * [`RecoveryPolicy::FailFast`] — the historical behaviour: drain the
//!   survivors and return [`crate::FarmError::WorkerLost`].
//! * [`RecoveryPolicy::Requeue`] — return the dead rank's in-flight
//!   mode to the queue and redistribute; the run finishes as long as at
//!   least one worker lives.  A mode that kills or fails workers
//!   `max_attempts` times is *quarantined* into
//!   [`RecoveryLog::failed_modes`] instead of failing the run.
//!
//! Every recovery action is counted in [`RecoveryLog`], which rides in
//! `FarmReport` and lands in `run_report.json` under `"recovery"`.

use msgpass::Rank;

/// What the master does when a worker is lost mid-run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Drain survivors and fail the run with
    /// [`crate::FarmError::WorkerLost`] — the pre-recovery behaviour.
    #[default]
    FailFast,
    /// Requeue the lost rank's in-flight work onto survivors and keep
    /// going; quarantine a mode after `max_attempts` dispatches.
    Requeue {
        /// Dispatch budget per mode (≥ 1; the first dispatch counts).
        max_attempts: usize,
        /// Allow a dead rank to be respawned where the pool has a
        /// budget for it (`PoolOptions::respawn_limit`, thread or
        /// subprocess workers alike); a one-job `Farm` never respawns.
        respawn: bool,
    },
}

impl RecoveryPolicy {
    /// The default self-healing configuration: two attempts per mode,
    /// respawn allowed.
    pub fn requeue() -> Self {
        RecoveryPolicy::Requeue {
            max_attempts: 2,
            respawn: true,
        }
    }

    /// True for any `Requeue` variant.
    pub fn recovers(&self) -> bool {
        matches!(self, RecoveryPolicy::Requeue { .. })
    }

    /// The per-mode dispatch budget (usize::MAX under `FailFast`, which
    /// never requeues, so the budget is moot).
    pub fn max_attempts(&self) -> usize {
        match self {
            RecoveryPolicy::FailFast => usize::MAX,
            RecoveryPolicy::Requeue { max_attempts, .. } => (*max_attempts).max(1),
        }
    }
}

/// Liveness/membership change reported by the deployment layer's watch
/// callback into `master_job_session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The rank's thread exited or its process died.
    Dead(Rank),
    /// A replacement process was re-handshaked under the rank
    /// (TCP deployment only); the master must re-send the tag-1 spec.
    Respawned(Rank),
}

/// One quarantined mode: it exhausted its attempt budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedMode {
    /// Index into the k-grid.
    pub ik: usize,
    /// Wavenumber, Mpc⁻¹.
    pub k: f64,
    /// Dispatches consumed before quarantine.
    pub attempts: usize,
    /// Human-readable reason from the last failure.
    pub reason: String,
}

/// Counters for every recovery action the master took.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    /// Modes returned to the queue after a worker loss or failure.
    pub requeues: usize,
    /// Ranks declared dead for heartbeat silence (a subset of all
    /// deaths; socket-close/thread-exit detections don't count here).
    pub heartbeat_misses: usize,
    /// Tag-9 heartbeats the master consumed.
    pub heartbeats: usize,
    /// Worker processes relaunched and re-handshaked mid-run.
    pub respawns: usize,
    /// Results discarded as stale: sent by a rank already marked dead
    /// (racing the death detection), or the second copy of a mode whose
    /// first copy a respawned rank's previous incarnation had already
    /// delivered.
    pub late_results: usize,
    /// Modes that exhausted their attempt budget.
    pub failed_modes: Vec<FailedMode>,
    /// The session ended by cooperative tag-12 cancellation (deadline
    /// expiry or an explicit cancel).  A cancelled session returns
    /// [`crate::FarmError::Cancelled`] rather than a report, so this
    /// flag is bookkeeping for the drain path — it distinguishes a
    /// deliberate abort from a crash in the master's own ledger.
    pub cancelled: bool,
}

impl RecoveryLog {
    /// True when no recovery action of any kind was needed.
    pub fn is_clean(&self) -> bool {
        self.requeues == 0
            && self.heartbeat_misses == 0
            && self.respawns == 0
            && self.late_results == 0
            && self.failed_modes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failfast_is_the_default() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::FailFast);
        assert!(!RecoveryPolicy::FailFast.recovers());
        assert_eq!(RecoveryPolicy::FailFast.max_attempts(), usize::MAX);
    }

    #[test]
    fn requeue_ctor_and_budget_floor() {
        let p = RecoveryPolicy::requeue();
        assert!(p.recovers());
        assert_eq!(p.max_attempts(), 2);
        let degenerate = RecoveryPolicy::Requeue {
            max_attempts: 0,
            respawn: false,
        };
        assert_eq!(degenerate.max_attempts(), 1, "budget is floored at 1");
    }

    #[test]
    fn clean_log_detects_any_action() {
        let mut log = RecoveryLog::default();
        assert!(log.is_clean());
        log.requeues = 1;
        assert!(!log.is_clean());
        let mut log = RecoveryLog {
            heartbeats: 42, // heartbeats alone are not a recovery action
            ..Default::default()
        };
        assert!(log.is_clean());
        log.failed_modes.push(FailedMode {
            ik: 3,
            k: 0.1,
            attempts: 2,
            reason: "integrator blew up".into(),
        });
        assert!(!log.is_clean());
    }
}
