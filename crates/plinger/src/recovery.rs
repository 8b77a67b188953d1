//! Recovery bookkeeping for a self-healing farm.
//!
//! The paper's farm is embarrassingly restartable: every k-mode is
//! independent, so any unfinished mode can be handed to any surviving
//! worker.  The master does exactly that, always: the mode a lost or
//! failing worker held goes back to the head of the queue, and the run
//! finishes as long as at least one worker lives.  A mode that kills or
//! fails workers on every one of its two dispatches is *quarantined*
//! into [`RecoveryLog::failed_modes`] instead of failing the run.
//!
//! Every recovery action is counted in [`RecoveryLog`], which rides in
//! `FarmReport` and lands in `run_report.json` under `"recovery"`.

use msgpass::Rank;

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
    /// (racing the death detection), the second copy of a mode whose
    /// first copy a respawned rank's previous incarnation had already
    /// delivered, or a tag-8 failure from a rank that holds no mode.
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
