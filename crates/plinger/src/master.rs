//! The master subroutine (`parentsub` in Appendix A), hardened into a
//! session loop that survives worker death.
//!
//! The paper's listing drives the farm with a blocking `mycheckany`; a
//! worker that dies without a goodbye would park that master forever.
//! This version polls with [`Transport::probe_timeout`] and consults a
//! caller-supplied liveness watch between polls.  A worker that dies,
//! stalls, reports a tag-8 failure or sends a malformed result loses
//! its in-flight mode: the mode goes back to the head of the work queue
//! and is redistributed to survivors (state machine: *in-flight →
//! requeued*, or *in-flight → quarantined* once the mode has been
//! dispatched twice, `MAX_ATTEMPTS`), and the run finishes as long as
//! one worker lives.  A protocol violation (an unexpected tag, a result
//! for a mode outside the grid) routes through one drain-and-release
//! shutdown that flushes tag-11 releases to all surviving workers and
//! collects what statistics it can before returning the typed error.
//!
//! Liveness has two sources: the watch callback (thread joins, process
//! exits, socket closes) and tag-9 heartbeats — a rank holding an
//! assignment that has been silent for `heartbeat_timeout` is declared
//! dead even if its thread still exists, which catches *hung* workers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use boltzmann::ModeOutput;
use msgpass::wrappers::*;
use msgpass::{Rank, Transport};
use telemetry::{SpanEvent, SpanRecorder};

use telemetry::log::{self as tlog, Level};

use crate::error::{CancelReason, FarmError};
use crate::protocol::{
    job_hash, RunSpec, TAG_ASSIGN, TAG_CANCEL, TAG_DATA, TAG_FAIL, TAG_HEADER, TAG_HEARTBEAT,
    TAG_INIT, TAG_JOBDONE, TAG_PREFETCH, TAG_REQUEST, TAG_STATS,
};
use crate::recovery::{FailedMode, RecoveryLog, WorkerEvent};
use crate::schedule::{SchedulePolicy, WorkQueue};
use crate::worker::WorkerStats;

/// Dispatches a mode gets before it is quarantined: one retry after a
/// lost worker, a failed integration or a malformed result.
const MAX_ATTEMPTS: usize = 2;

/// Timing knobs of the master loop.  Dispatch has none: a tag-3
/// assignment is one mode, as in the paper.
#[derive(Debug, Clone, Copy)]
pub struct MasterConfig {
    /// How long one bounded probe waits before re-checking liveness.
    pub poll: Duration,
    /// How long the drain phase waits for survivors' statistics (and the
    /// normal shutdown waits for stragglers) before giving up.
    pub drain_timeout: Duration,
    /// A rank holding an assignment that has sent nothing (result,
    /// request, or tag-9 heartbeat) for this long is declared dead.
    /// Workers heartbeat at ~100 ms intervals while integrating, so the
    /// default is generous by orders of magnitude.
    pub heartbeat_timeout: Duration,
}

impl Default for MasterConfig {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(25),
            drain_timeout: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_secs(30),
        }
    }
}

/// External control of a running job: a wall-clock deadline and/or a
/// shared cancel flag, both optional.  The master checks it once per
/// poll interval; when either trigger fires it broadcasts tag-12
/// [`TAG_CANCEL`] to every live un-stopped rank, drains the session
/// (collecting statistics like any other shutdown), and returns
/// [`FarmError::Cancelled`].  The default is uncontrolled — the
/// historical run-to-completion behaviour.
#[derive(Clone, Copy, Default)]
pub struct JobControl<'a> {
    /// Abort the job once this instant passes.
    pub deadline: Option<Instant>,
    /// Abort the job once this flag reads `true`.
    pub cancel: Option<&'a AtomicBool>,
}

impl JobControl<'_> {
    /// Which trigger, if any, has fired.  An explicit cancel wins over
    /// a deadline when both have.
    pub fn triggered(&self) -> Option<CancelReason> {
        if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Some(CancelReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CancelReason::DeadlineExceeded);
        }
        None
    }
}

/// What the master accumulated over one farm run.
#[derive(Debug)]
pub struct MasterLedger {
    /// Finished modes, indexed like `spec.ks` (every slot filled on
    /// success; quarantined modes leave `None` holes).
    pub outputs: Vec<Option<ModeOutput>>,
    /// Wall-clock seconds of the master loop (job open → last release).
    pub wall_seconds: f64,
    /// Bytes received from workers (tags 4 + 5).
    pub bytes_received: usize,
    /// Completion order: `(ik, worker_rank)` in arrival order.
    pub completion_log: Vec<(usize, usize)>,
    /// Per-worker statistics in rank order (rank 1 first), collected
    /// from the tag-7 reports.
    pub worker_stats: Vec<WorkerStats>,
    /// Master-side wall-clock spans (`assign`, `collect`, `idle`, and
    /// `recover` events on track 0).  Empty when telemetry is disabled.
    pub spans: Vec<SpanEvent>,
    /// Seconds the master spent with nothing pending (the contiguous
    /// gaps between handled messages).
    pub idle_seconds: f64,
    /// Every recovery action taken (requeues, heartbeat misses,
    /// respawns, quarantined modes).  Clean on an undisturbed run.
    pub recovery: RecoveryLog,
}

/// Internal mutable state of one master session.
struct Session {
    queue: WorkQueue,
    ks: Vec<f64>,
    outputs: Vec<Option<ModeOutput>>,
    completion_log: Vec<(usize, usize)>,
    bytes_received: usize,
    /// Ranks the tag-11 release has been sent to.
    stopped: HashSet<Rank>,
    /// Statistics by worker index (rank − 1).
    stats: Vec<Option<WorkerStats>>,
    n_workers: usize,
    /// The mode each worker holds, if any (index = rank − 1).
    in_flight: Vec<Option<usize>>,
    /// Ranks declared dead (watch report or heartbeat silence).
    dead: HashSet<Rank>,
    /// Last time each rank sent *anything* (index = rank − 1).
    last_seen: Vec<Instant>,
    /// Idle ranks held back from their release because another worker still
    /// carries a mode that may yet be requeued.
    parked: HashSet<Rank>,
    /// Modes that exhausted their attempt budget.
    quarantined: HashSet<usize>,
    /// Counters for every recovery action.
    recovery: RecoveryLog,
    /// Master-side span timeline (track 0 of the trace).
    rec: SpanRecorder,
    /// Start of the current contiguous idle interval, if any.
    idle_since: Option<Instant>,
    /// Accumulated idle seconds.
    idle_seconds: f64,
    /// Ranks offered this job that have not yet sent their first work
    /// request.  Each is owed one assignment: the queue's last
    /// `awaiting.len()` modes are held back from ranks asking for more,
    /// so a rank that arrives late — the one that claimed a tag-13 hint
    /// spends a table build first — is still dealt a mode whenever the
    /// grid has one per rank.  Fault plans that kill a rank on its first
    /// assignment rest on this being a guarantee, not a race.
    awaiting: HashSet<Rank>,
    /// Canonical request identity ([`job_hash`] of the spec, rendered
    /// as 16 hex digits) — stamped on every span and log event this
    /// session records, so one request's trail is filterable
    /// end to end.
    job: String,
}

impl Session {
    fn ikdone(&self) -> usize {
        self.completion_log.len()
    }

    fn unfinished(&self) -> Vec<usize> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(ik, o)| o.is_none().then_some(ik))
            .collect()
    }

    /// Every mode is either completed or quarantined.
    fn all_settled(&self) -> bool {
        self.ikdone() + self.quarantined.len() >= self.outputs.len()
    }

    /// Session exit condition: every mode settled, every live worker
    /// released and reported.  A dead rank counts as resolved — it will
    /// never be released or report.
    fn finished(&self) -> bool {
        if !self.all_settled() {
            return false;
        }
        (1..=self.n_workers).all(|r| {
            self.dead.contains(&r) || (self.stopped.contains(&r) && self.stats[r - 1].is_some())
        })
    }

    /// Close the current idle interval, if one is open, recording it as
    /// an `idle` span and adding it to the idle total.
    fn end_idle(&mut self) {
        if let Some(since) = self.idle_since.take() {
            let now = Instant::now();
            self.idle_seconds += now.duration_since(since).as_secs_f64();
            let job = self.job.clone();
            self.rec
                .record("idle", "master", since, now, &[("job", job)]);
        }
    }

    /// Reply to a ready worker: its next mode (one tag-3), or release.
    /// A worker that still holds a mode gets nothing.  A worker with no
    /// work to take is *parked* (no reply yet) while the queue still
    /// holds modes owed to ranks in `awaiting`, or while other workers
    /// still carry modes that may come back to the queue.
    fn dispatch<T: Transport>(&mut self, t: &mut T, rank: Rank) -> Result<(), FarmError> {
        if self.in_flight[rank - 1].is_some() {
            return Ok(());
        }
        let next = if self.queue.len() > self.awaiting.len() {
            self.queue.pop()
        } else {
            None
        };
        if let Some(ik) = next {
            let t0 = Instant::now();
            mysendreal(t, &[ik as f64], TAG_ASSIGN, rank)?;
            self.in_flight[rank - 1] = Some(ik);
            // the silence clock measures the worker against *this*
            // assignment; a long park before it must not count
            self.last_seen[rank - 1] = Instant::now();
            self.rec.record(
                "assign",
                "master",
                t0,
                Instant::now(),
                &[
                    ("ik", ik.to_string()),
                    ("worker", rank.to_string()),
                    ("job", self.job.clone()),
                ],
            );
        } else if !self.queue.is_empty() || !self.all_settled() {
            self.parked.insert(rank);
        } else {
            self.release(t, rank)?;
        }
        Ok(())
    }

    /// Send a rank its tag-11 release.
    fn release<T: Transport>(&mut self, t: &mut T, rank: Rank) -> Result<(), FarmError> {
        mysendreal(t, &[0.0], TAG_JOBDONE, rank)?;
        self.stopped.insert(rank);
        Ok(())
    }

    /// Offer every parked worker the queue again — after a requeue, or
    /// once a rank the queue's tail was held back for has been dealt
    /// its first mode or died.  Lowest rank first, so who takes scarce
    /// work does not depend on hash order.
    fn wake_parked<T: Transport>(&mut self, t: &mut T) -> Result<(), FarmError> {
        let mut ranks: Vec<Rank> = self.parked.drain().collect();
        ranks.sort_unstable();
        for rank in ranks {
            self.dispatch(t, rank)?;
        }
        Ok(())
    }

    /// Clear a rank's in-flight slot if it holds `ik` (no-op otherwise —
    /// e.g. already recovered through another path).
    fn resolve_in_flight(&mut self, rank: Rank, ik: usize) {
        let held = &mut self.in_flight[rank - 1];
        if *held == Some(ik) {
            *held = None;
        }
    }

    /// Requeue (or quarantine) the mode a lost rank was holding, unless
    /// a previous incarnation's late result has settled it already.
    fn recover_mode<T: Transport>(
        &mut self,
        t: &mut T,
        rank: Rank,
        reason: &str,
    ) -> Result<(), FarmError> {
        match self.in_flight[rank - 1].take() {
            Some(ik) if self.outputs[ik].is_none() => self.requeue_or_quarantine(t, ik, reason),
            _ => Ok(()),
        }
    }

    /// A mode came back without a result (its worker died, stalled, or
    /// reported failure): return it to the head of the queue if it still
    /// has attempt budget, else quarantine it.  Requeued work wakes any
    /// parked worker.
    fn requeue_or_quarantine<T: Transport>(
        &mut self,
        t: &mut T,
        ik: usize,
        reason: &str,
    ) -> Result<(), FarmError> {
        let t0 = Instant::now();
        let attempts = self.queue.attempts(ik);
        if attempts >= MAX_ATTEMPTS {
            self.quarantined.insert(ik);
            self.recovery.failed_modes.push(FailedMode {
                ik,
                k: self.ks.get(ik).copied().unwrap_or(f64::NAN),
                attempts,
                reason: reason.to_string(),
            });
            self.rec.record(
                "recover",
                "master",
                t0,
                Instant::now(),
                &[
                    ("ik", ik.to_string()),
                    ("action", "quarantine".to_string()),
                    ("reason", reason.to_string()),
                    ("job", self.job.clone()),
                ],
            );
            tlog::log(
                Level::Error,
                "master",
                "mode_quarantined",
                &[
                    ("job", self.job.clone()),
                    ("ik", ik.to_string()),
                    ("attempts", attempts.to_string()),
                    ("reason", reason.to_string()),
                ],
            );
        } else {
            self.queue.requeue_front(ik);
            self.recovery.requeues += 1;
            self.rec.record(
                "recover",
                "master",
                t0,
                Instant::now(),
                &[
                    ("ik", ik.to_string()),
                    ("action", "requeue".to_string()),
                    ("reason", reason.to_string()),
                    ("job", self.job.clone()),
                ],
            );
            tlog::log(
                Level::Warn,
                "master",
                "mode_requeue",
                &[
                    ("job", self.job.clone()),
                    ("ik", ik.to_string()),
                    ("reason", reason.to_string()),
                ],
            );
            self.wake_parked(t)?;
        }
        Ok(())
    }

    /// Declare a rank dead and recover its in-flight mode.
    fn mark_dead<T: Transport>(
        &mut self,
        t: &mut T,
        rank: Rank,
        reason: &str,
    ) -> Result<(), FarmError> {
        if !self.dead.insert(rank) {
            return Ok(());
        }
        tlog::log(
            Level::Warn,
            "master",
            "worker_dead",
            &[
                ("job", self.job.clone()),
                ("worker", rank.to_string()),
                ("reason", reason.to_string()),
            ],
        );
        self.parked.remove(&rank);
        self.recover_mode(t, rank, reason)?;
        if self.awaiting.remove(&rank) {
            // the mode held back for it is anyone's now
            self.wake_parked(t)?;
        }
        Ok(())
    }

    /// Fold a batch of watch events into the session.
    fn apply_events<T: Transport>(
        &mut self,
        t: &mut T,
        spec_wire: &[f64],
        events: Vec<WorkerEvent>,
    ) -> Result<(), FarmError> {
        for ev in events {
            match ev {
                WorkerEvent::Dead(rank) => {
                    if rank == 0 || rank > self.n_workers {
                        continue;
                    }
                    self.mark_dead(t, rank, "worker lost")?;
                }
                WorkerEvent::Respawned(rank) => {
                    if rank == 0 || rank > self.n_workers {
                        continue;
                    }
                    let t0 = Instant::now();
                    self.dead.remove(&rank);
                    self.stopped.remove(&rank);
                    self.parked.remove(&rank);
                    self.stats[rank - 1] = None;
                    // a watch that replaces a child reports Respawned
                    // without a Dead first; whatever the old incarnation
                    // was holding died with it
                    self.recover_mode(t, rank, "worker respawned")?;
                    self.last_seen[rank - 1] = Instant::now();
                    self.recovery.respawns += 1;
                    // the replacement missed the job's tag-1 open; re-send
                    // the spec, it will answer with a tag-2 work request
                    // like any fresh worker
                    mysendreal(t, spec_wire, TAG_INIT, rank)?;
                    self.rec.record(
                        "recover",
                        "master",
                        t0,
                        Instant::now(),
                        &[
                            ("worker", rank.to_string()),
                            ("action", "respawn".to_string()),
                            ("job", self.job.clone()),
                        ],
                    );
                    tlog::log(
                        Level::Warn,
                        "master",
                        "worker_respawned",
                        &[("job", self.job.clone()), ("worker", rank.to_string())],
                    );
                }
            }
        }
        Ok(())
    }

    /// Declare dead any live rank that holds an assignment but has been
    /// silent past the heartbeat timeout: workers heartbeat every
    /// ~100 ms while integrating, so prolonged silence means the worker
    /// is hung, not busy.
    fn scan_heartbeats<T: Transport>(
        &mut self,
        t: &mut T,
        timeout: Duration,
    ) -> Result<(), FarmError> {
        for rank in 1..=self.n_workers {
            if self.dead.contains(&rank) || self.stopped.contains(&rank) {
                continue;
            }
            if self.in_flight[rank - 1].is_some() && self.last_seen[rank - 1].elapsed() > timeout {
                self.recovery.heartbeat_misses += 1;
                tlog::log(
                    Level::Warn,
                    "master",
                    "heartbeat_miss",
                    &[("job", self.job.clone()), ("worker", rank.to_string())],
                );
                self.mark_dead(t, rank, "heartbeat timeout")?;
            }
        }
        Ok(())
    }

    fn record_stats(&mut self, rank: Rank, payload: &[f64]) -> Result<(), FarmError> {
        let ws = WorkerStats::from_wire(payload).ok_or_else(|| FarmError::Protocol {
            rank,
            detail: format!(
                "stats message must be 10 finite non-negative reals, got {} values",
                payload.len()
            ),
        })?;
        if let Some(slot) = self.stats.get_mut(rank.wrapping_sub(1)) {
            *slot = Some(ws);
        }
        Ok(())
    }

    /// Flush releases to every worker not yet released, then drain pending
    /// messages (collecting statistics) until the deadline or until
    /// every live worker has reported.  Send errors are ignored: some of
    /// these workers may already be gone, and the point is to unblock
    /// the survivors.
    fn drain_and_stop<T: Transport>(
        &mut self,
        t: &mut T,
        cfg: &MasterConfig,
        watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
    ) {
        for rank in 1..=self.n_workers {
            if !self.stopped.contains(&rank) {
                let _ = mysendreal(t, &[0.0], TAG_JOBDONE, rank);
                self.stopped.insert(rank);
            }
        }
        self.collect_stats(t, cfg, |s| {
            let dead: HashSet<Rank> = watch()
                .into_iter()
                .filter_map(|e| match e {
                    WorkerEvent::Dead(r) => Some(r),
                    WorkerEvent::Respawned(_) => None,
                })
                .chain(s.dead.iter().copied())
                .collect();
            (1..=s.n_workers).any(|r| !dead.contains(&r) && s.stats[r - 1].is_none())
        });
    }

    /// Probe every `cfg.poll`, receive, and record tag-7 statistics
    /// until `awaiting` says no rank still owes them or
    /// `cfg.drain_timeout` passes.  `awaiting` is asked before every
    /// probe.
    fn collect_stats<T: Transport>(
        &mut self,
        t: &mut T,
        cfg: &MasterConfig,
        mut awaiting: impl FnMut(&Self) -> bool,
    ) {
        let deadline = Instant::now() + cfg.drain_timeout;
        let mut buf = Vec::new();
        while Instant::now() < deadline && awaiting(self) {
            match t.probe_timeout(None, None, cfg.poll) {
                Ok(Some(env)) => {
                    if myrecvreal(t, &mut buf, env.tag, env.source).is_err() {
                        break;
                    }
                    if env.tag == TAG_STATS {
                        let _ = self.record_stats(env.source, &buf);
                    }
                }
                Ok(None) => continue,
                Err(_) => break,
            }
        }
    }

    /// Cooperatively cancel the job: tag-12 to every live un-stopped
    /// rank (integrating workers abandon their mode at their next
    /// observer poll; parked workers take it as their release), then
    /// the normal drain — stats are collected and the workers park
    /// consistently for the next job.  Returns the error the session
    /// ends with.
    fn cancel_job<T: Transport>(
        &mut self,
        t: &mut T,
        cfg: &MasterConfig,
        watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
        reason: CancelReason,
    ) -> FarmError {
        let unfinished = self.unfinished();
        tlog::log(
            Level::Warn,
            "master",
            "job_cancelled",
            &[
                ("job", self.job.clone()),
                ("reason", reason.to_string()),
                ("unfinished", unfinished.len().to_string()),
            ],
        );
        for rank in 1..=self.n_workers {
            if self.dead.contains(&rank) || self.stopped.contains(&rank) {
                continue;
            }
            // best-effort, like the drain's release sends: a rank that
            // cannot be reached is already being handled by the watch
            let _ = mysendreal(t, &[0.0], TAG_CANCEL, rank);
        }
        self.recovery.cancelled = true;
        self.drain_and_stop(t, cfg, watch);
        FarmError::Cancelled { reason, unfinished }
    }

    /// Collect tag-7 goodbye reports that were still in flight when the
    /// death report won the race against them (a worker that took its
    /// stop, sent statistics, and exited can be seen dead by the watch
    /// before its last message is read).  Bounded by the drain timeout.
    fn sweep_stats<T: Transport>(&mut self, t: &mut T, cfg: &MasterConfig) {
        self.collect_stats(t, cfg, |s| {
            (1..=s.n_workers).any(|r| s.stopped.contains(&r) && s.stats[r - 1].is_none())
        });
    }

    fn into_ledger(mut self, t0: Instant) -> MasterLedger {
        self.end_idle();
        MasterLedger {
            outputs: self.outputs,
            wall_seconds: t0.elapsed().as_secs_f64(),
            bytes_received: self.bytes_received,
            completion_log: self.completion_log,
            worker_stats: self
                .stats
                .into_iter()
                .map(Option::unwrap_or_default)
                .collect(),
            spans: self.rec.into_events(),
            idle_seconds: self.idle_seconds,
            recovery: self.recovery,
        }
    }
}

/// Run one job on the workers behind `t`: open it with the paper's
/// tag-1 run parameters to every live rank, hand out wavenumbers in
/// `policy` order, collect the two-part results, release every worker
/// (tag 11), gather their statistics.  The workers stay resident; what
/// stops them (tag 6) is their pool's shutdown, not the job.
///
/// Every per-job structure — the work queue, output slots, recovery
/// ledger, heartbeat clocks, idle accounting, span timeline — is built
/// fresh here, which is what makes a session *reset* without tearing
/// anything down: the state lives on the stack of this call, not in the
/// world.  Only the transport endpoints (and, worker-side, the
/// process's table cache) persist between calls.
///
/// `watch` is polled between probes and must report liveness changes
/// (thread pools report workers whose session returned; process pools
/// report children that exited; both may report a respawn after
/// installing a replacement).  Casualties of earlier jobs are folded in
/// before the job opens, so a dead rank is never offered it; a rank that
/// dies mid-job has its work redistributed, and the job fails with
/// [`FarmError::AllWorkersLost`] only when no worker is left.
///
/// Every span the master records is stamped relative to `epoch`, so a
/// pool that hands the same epoch to its workers gets one aligned
/// timeline across all tracks.
///
/// `ctrl` is checked once per poll interval; a fired deadline or cancel
/// flag cancels the job cooperatively (see [`JobControl`]).
///
/// `prefetch` names the *next* job, if the caller knows it: every live
/// rank is then sent a tag-13 [`TAG_PREFETCH`] carrying that spec
/// immediately before its tag-1 job start, so one worker per process
/// builds the next job's physics tables while its peers start on this
/// job's largest modes.  This is the ensemble scheduler's overlap
/// mechanism; it never changes results (tables depend on the cosmology
/// alone).
#[allow(clippy::too_many_arguments)]
pub fn master_job_session<T: Transport>(
    t: &mut T,
    spec: &RunSpec,
    policy: SchedulePolicy,
    cfg: &MasterConfig,
    watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
    epoch: Instant,
    ctrl: &JobControl<'_>,
    prefetch: Option<&RunSpec>,
) -> Result<MasterLedger, FarmError> {
    let t0 = Instant::now();
    let nk = spec.ks.len();
    let n_workers = t.size() - 1;
    let order = policy.order(&spec.ks);
    let job = tlog::job_hex(job_hash(spec));
    let mut s = Session {
        queue: WorkQueue::new(&order, nk),
        ks: spec.ks.clone(),
        outputs: (0..nk).map(|_| None).collect(),
        completion_log: Vec::with_capacity(nk),
        bytes_received: 0,
        stopped: HashSet::new(),
        stats: vec![None; n_workers],
        n_workers,
        in_flight: vec![None; n_workers],
        dead: HashSet::new(),
        last_seen: vec![Instant::now(); n_workers],
        parked: HashSet::new(),
        quarantined: HashSet::new(),
        recovery: RecoveryLog::default(),
        rec: SpanRecorder::new(epoch, 0, 0),
        idle_since: None,
        idle_seconds: 0.0,
        awaiting: HashSet::new(),
        job: job.clone(),
    };
    tlog::log(
        Level::Info,
        "master",
        "job_start",
        &[
            ("job", job.clone()),
            ("modes", nk.to_string()),
            ("workers", n_workers.to_string()),
        ],
    );

    let spec_wire = spec.encode();
    // fold in casualties from earlier jobs first, so a rank that died
    // on the pool is never offered this job; a rank respawned between
    // jobs is a fresh worker that picks the job up from the tag-1 send
    // like everyone else
    for ev in watch() {
        match ev {
            WorkerEvent::Dead(rank) => {
                if rank == 0 || rank > n_workers {
                    continue;
                }
                s.mark_dead(t, rank, "dead before job start")?;
            }
            WorkerEvent::Respawned(rank) => {
                if rank == 0 || rank > n_workers {
                    continue;
                }
                s.dead.remove(&rank);
                s.recovery.respawns += 1;
            }
        }
    }
    let hint_wire = prefetch.map(RunSpec::encode);
    for rank in 1..=n_workers {
        if s.dead.contains(&rank) {
            continue;
        }
        if let Some(wire) = &hint_wire {
            // best-effort: a rank that cannot take the hint fails the
            // job start below, and the next job names its own cosmology
            // anyway
            let _ = mysendreal(t, wire, TAG_PREFETCH, rank);
        }
        if mysendreal(t, &spec_wire, TAG_INIT, rank).is_ok() {
            s.awaiting.insert(rank);
        } else {
            s.mark_dead(t, rank, "unreachable at job start")?;
        }
    }
    if s.dead.len() == s.n_workers {
        return Err(FarmError::AllWorkersLost {
            unfinished: s.unfinished(),
        });
    }

    let mut header = Vec::new();
    let mut payload = Vec::new();

    while !s.finished() {
        // deadline/cancel check rides the poll cadence: cancellation
        // latency is one poll interval plus the workers' observer lag
        if let Some(reason) = ctrl.triggered() {
            return Err(s.cancel_job(t, cfg, watch, reason));
        }
        // a quarantine can settle the run while workers sit parked
        if s.all_settled() {
            s.wake_parked(t)?;
        }
        let poll_start = Instant::now();
        let env = match t.probe_timeout(None, None, cfg.poll) {
            Ok(e) => e,
            Err(e) => {
                s.drain_and_stop(t, cfg, watch);
                return Err(FarmError::Comm(e));
            }
        };
        let Some(env) = env else {
            // nothing pending for a whole poll interval: the master is
            // idle; keep (or open) the contiguous idle interval
            if s.idle_since.is_none() {
                s.idle_since = Some(poll_start);
            }
            // silence: check for casualties before waiting again
            s.apply_events(t, &spec_wire, watch())?;
            s.scan_heartbeats(t, cfg.heartbeat_timeout)?;
            if s.dead.len() == s.n_workers && !s.all_settled() {
                return Err(FarmError::AllWorkersLost {
                    unfinished: s.unfinished(),
                });
            }
            continue;
        };
        let itid = env.source;
        s.end_idle();
        if itid >= 1 && itid <= n_workers {
            s.last_seen[itid - 1] = Instant::now();
        }

        // a rank already declared dead may still have messages in the
        // pipe (the death report raced them); consume without acting —
        // except its goodbye statistics, which are still good data
        if s.dead.contains(&itid) {
            let _ = myrecvreal(t, &mut payload, env.tag, itid);
            match env.tag {
                TAG_STATS => {
                    let _ = s.record_stats(itid, &payload);
                }
                TAG_HEADER | TAG_FAIL => s.recovery.late_results += 1,
                _ => {}
            }
            continue;
        }

        match env.tag {
            TAG_REQUEST => {
                // the worker is ready for its first ik; no data
                myrecvreal(t, &mut header, TAG_REQUEST, itid)?;
                let first = s.awaiting.remove(&itid);
                s.dispatch(t, itid)?;
                if first {
                    // one mode fewer is held back for late arrivals
                    s.wake_parked(t)?;
                }
            }
            TAG_HEARTBEAT => {
                // tag 9: liveness only; last_seen was refreshed above
                myrecvreal(t, &mut payload, TAG_HEARTBEAT, itid)?;
                s.recovery.heartbeats += 1;
            }
            TAG_HEADER => {
                let t_collect = Instant::now();
                // first part of the data; its tail tells us lmax
                myrecvreal(t, &mut header, TAG_HEADER, itid)?;
                // second part follows from the same worker (tag 5);
                // bounded wait in case the worker dies in between
                let data_deadline = Instant::now() + cfg.drain_timeout;
                let mut lost = false;
                loop {
                    match t.probe_timeout(Some(itid), Some(TAG_DATA), cfg.poll)? {
                        Some(_) => break,
                        None => {
                            s.apply_events(t, &spec_wire, watch())?;
                            if s.dead.contains(&itid) {
                                // apply_events already requeued its mode
                                lost = true;
                                break;
                            }
                            if Instant::now() >= data_deadline {
                                s.mark_dead(t, itid, "silent between header and data")?;
                                lost = true;
                                break;
                            }
                        }
                    }
                }
                if lost {
                    continue;
                }
                myrecvreal(t, &mut payload, TAG_DATA, itid)?;
                s.last_seen[itid - 1] = Instant::now();
                s.bytes_received += (header.len() + payload.len()) * 8;
                let (ik, out) = match ModeOutput::from_wire(&header, &payload) {
                    Ok(pair) => pair,
                    Err(e) => {
                        // a corrupted result is recoverable: the mode
                        // goes back to the queue, and the worker, now
                        // between modes, gets fresh work
                        s.recover_mode(t, itid, &format!("malformed result: {e}"))?;
                        s.dispatch(t, itid)?;
                        continue;
                    }
                };
                if ik < nk && s.outputs[ik].is_some() {
                    // a respawned rank's previous incarnation can have a
                    // result in the pipe when its mode is requeued: the
                    // mode is then integrated twice, and whichever copy
                    // lands second (bit-identical to the first) is
                    // redundant, not a protocol violation
                    s.recovery.late_results += 1;
                    s.resolve_in_flight(itid, ik);
                    s.dispatch(t, itid)?;
                    continue;
                }
                if ik >= nk {
                    s.drain_and_stop(t, cfg, watch);
                    return Err(FarmError::Protocol {
                        rank: itid,
                        detail: format!("result for invalid mode ik={ik}"),
                    });
                }
                s.rec.record(
                    "collect",
                    "master",
                    t_collect,
                    Instant::now(),
                    &[
                        ("ik", ik.to_string()),
                        ("k", format!("{:.6e}", out.k)),
                        ("worker", itid.to_string()),
                        ("job", s.job.clone()),
                    ],
                );
                s.outputs[ik] = Some(out);
                s.completion_log.push((ik, itid));
                s.resolve_in_flight(itid, ik);
                s.dispatch(t, itid)?;
                if s.all_settled() {
                    s.wake_parked(t)?;
                }
            }
            TAG_FAIL => {
                myrecvreal(t, &mut payload, TAG_FAIL, itid)?;
                let ik = payload.first().copied().unwrap_or(-1.0) as usize;
                // the worker survives its failed mode: budget the mode
                // and hand the worker its next one
                s.resolve_in_flight(itid, ik);
                if ik < nk && s.outputs[ik].is_none() && !s.quarantined.contains(&ik) {
                    s.requeue_or_quarantine(t, ik, &format!("integration failed on rank {itid}"))?;
                }
                s.dispatch(t, itid)?;
                if s.all_settled() {
                    s.wake_parked(t)?;
                }
            }
            TAG_STATS => {
                myrecvreal(t, &mut payload, TAG_STATS, itid)?;
                s.record_stats(itid, &payload)?;
            }
            other => {
                // consume it so the drain doesn't trip over it again,
                // then shut the session down
                let _ = myrecvreal(t, &mut payload, other, itid);
                s.drain_and_stop(t, cfg, watch);
                return Err(FarmError::Protocol {
                    rank: itid,
                    detail: format!("unexpected tag {other}"),
                });
            }
        }
    }

    // collect goodbye statistics that raced a death report, then give
    // ranks we declared dead on heartbeat evidence (which may in fact be
    // alive, just stalled) a best-effort release so they can park
    s.sweep_stats(t, cfg);
    for rank in 1..=n_workers {
        if !s.stopped.contains(&rank) {
            let _ = mysendreal(t, &[0.0], TAG_JOBDONE, rank);
        }
    }

    let quarantined = s.quarantined.len();
    let ledger = s.into_ledger(t0);
    tlog::log(
        Level::Info,
        "master",
        "job_done",
        &[
            ("job", job),
            ("modes", ledger.completion_log.len().to_string()),
            ("quarantined", quarantined.to_string()),
            ("wall_ms", format!("{:.1}", ledger.wall_seconds * 1000.0)),
        ],
    );
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TAG_STOP;
    use crate::tables::TableCache;
    use crate::worker::worker_pool_session;
    use boltzmann::Preset;
    use msgpass::channel::{ChannelEndpoint, ChannelWorld};
    use std::thread;

    fn fast_cfg() -> MasterConfig {
        MasterConfig {
            poll: Duration::from_millis(5),
            drain_timeout: Duration::from_millis(300),
            ..MasterConfig::default()
        }
    }

    /// One job on `master_ep`, no liveness watch, no control, no hint.
    fn run_job(
        master_ep: &mut ChannelEndpoint,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<MasterLedger, FarmError> {
        master_job_session(
            master_ep,
            spec,
            policy,
            &fast_cfg(),
            &mut Vec::new,
            Instant::now(),
            &JobControl::default(),
            None,
        )
    }

    /// A master and one hand-driven peer that has taken the job's tag-1
    /// open and asked for work.
    fn rogue_pair(
        after_request: impl FnOnce(&mut ChannelEndpoint) + Send + 'static,
    ) -> (ChannelEndpoint, thread::JoinHandle<()>) {
        let mut eps = ChannelWorld::new(2);
        let mut rogue = eps.pop().unwrap();
        let master_ep = eps.pop().unwrap();
        let h = thread::spawn(move || {
            let mut buf = Vec::new();
            rogue.recv(0, TAG_INIT, &mut buf).unwrap();
            rogue.send(0, TAG_REQUEST, &[0.0]).unwrap();
            after_request(&mut rogue);
        });
        (master_ep, h)
    }

    #[test]
    fn farm_protocol_end_to_end_two_workers() {
        let mut spec = RunSpec::standard_cdm(vec![0.002, 0.01, 0.03, 0.005]);
        spec.preset = Preset::Draft;
        let mut eps = ChannelWorld::new(3);
        let workers: Vec<_> = eps
            .drain(1..)
            .map(|mut ep| {
                thread::spawn(move || {
                    worker_pool_session(&mut ep, None, Instant::now(), &TableCache::new()).unwrap()
                })
            })
            .collect();
        let mut master_ep = eps.pop().unwrap();
        let ledger = run_job(&mut master_ep, &spec, SchedulePolicy::LargestFirst).unwrap();

        assert_eq!(ledger.completion_log.len(), 4);
        assert!(ledger.outputs.iter().all(|o| o.is_some()));
        for (i, out) in ledger.outputs.iter().enumerate() {
            let out = out.as_ref().unwrap();
            assert_eq!(out.k, spec.ks[i], "slot {i} holds the right mode");
            assert!(out.delta_c.is_finite());
        }
        // largest-first: the first completion should be one of the big k's
        // (can't be strict with 2 workers, but the first *assignment* is
        // k = 0.03 → ik 2 must not complete last)
        assert!(ledger.completion_log.iter().any(|&(ik, _)| ik == 2));
        // the job released the workers; the tag-6 stop ends their session
        for rank in 1..=2 {
            master_ep.send(rank, TAG_STOP, &[0.0]).unwrap();
        }
        let local: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(local.iter().all(|o| o.jobs == 1));
        let total: usize = local.iter().map(|o| o.stats.modes).sum();
        assert_eq!(total, 4);
        // the wire-carried statistics must agree with the workers' own
        assert_eq!(ledger.worker_stats.len(), 2);
        assert_eq!(
            ledger.worker_stats.iter().map(|s| s.modes).sum::<usize>(),
            4
        );
        assert!(ledger.worker_stats.iter().all(|s| s.busy_seconds > 0.0));
        assert_eq!(
            ledger
                .worker_stats
                .iter()
                .map(|s| s.bytes_sent)
                .sum::<usize>(),
            ledger.bytes_received
        );
    }

    #[test]
    fn unexpected_tag_drains_and_errors() {
        let spec = RunSpec::standard_cdm(vec![0.01]);
        let (mut master_ep, h) = rogue_pair(|rogue| {
            let mut buf = Vec::new();
            // swallow the assignment, then send garbage
            rogue.recv(0, TAG_ASSIGN, &mut buf).unwrap();
            rogue.send(0, 99, &[1.0]).unwrap();
            // the drain must still deliver our release
            rogue.recv(0, TAG_JOBDONE, &mut buf).unwrap();
        });
        let err = run_job(&mut master_ep, &spec, SchedulePolicy::Fifo).unwrap_err();
        match err {
            FarmError::Protocol { rank, detail } => {
                assert_eq!(rank, 1);
                assert!(detail.contains("99"), "{detail}");
            }
            other => panic!("expected Protocol, got {other}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn garbled_header_lmax_fails_the_job_instead_of_the_master() {
        // `1e300 as usize` saturates and `2·lmax + 8` on it overflows: a
        // debug master panicked, a release master took the six reals
        // below for an empty spectrum.  Sent on both dispatches, the
        // typed decode failure quarantines the mode.
        let spec = RunSpec::standard_cdm(vec![0.01]);
        let (mut master_ep, h) = rogue_pair(|rogue| {
            let mut buf = Vec::new();
            let mut header = [0.0; 21];
            header[20] = 1e300;
            for _ in 0..MAX_ATTEMPTS {
                rogue.recv(0, TAG_ASSIGN, &mut buf).unwrap();
                rogue.send(0, TAG_HEADER, &header).unwrap();
                rogue.send(0, TAG_DATA, &[0.0; 6]).unwrap();
            }
            rogue.recv(0, TAG_JOBDONE, &mut buf).unwrap();
            rogue
                .send(0, TAG_STATS, &WorkerStats::default().to_wire())
                .unwrap();
        });
        let ledger = run_job(&mut master_ep, &spec, SchedulePolicy::Fifo).unwrap();
        h.join().unwrap();
        let failed = &ledger.recovery.failed_modes;
        assert_eq!(failed.len(), 1, "{:?}", ledger.recovery);
        assert_eq!((failed[0].ik, failed[0].attempts), (0, MAX_ATTEMPTS));
        assert!(failed[0].reason.contains("lmax"), "{}", failed[0].reason);
    }

    #[test]
    fn stale_result_of_a_respawned_rank_is_not_a_duplicate_error() {
        // rank 1 holds mode 0, delivers it and is replaced before the
        // master has read that result: the mode is requeued, the
        // replacement integrates it again, and the second copy must be
        // dropped as late, not fail the job
        use std::sync::mpsc::channel;
        let mut spec = RunSpec::standard_cdm(vec![0.002, 0.004]);
        spec.preset = Preset::Draft;
        let (outputs, _) = crate::farm::run_serial(&spec).unwrap();
        let wires: Vec<_> = outputs
            .iter()
            .enumerate()
            .map(|(ik, o)| o.to_wire(ik))
            .collect();
        let (die, dying) = channel::<()>();
        let (sent, delivered) = channel::<()>();
        let (mut master_ep, h) = rogue_pair(move |rogue| {
            let mut buf = Vec::new();
            let send_result = |rogue: &mut ChannelEndpoint, ik: usize| {
                rogue.send(0, TAG_HEADER, &wires[ik].0).unwrap();
                rogue.send(0, TAG_DATA, &wires[ik].1).unwrap();
            };
            rogue.recv(0, TAG_ASSIGN, &mut buf).unwrap();
            assert_eq!(buf, [0.0]);
            // the old incarnation's last words, timed by the watch
            dying.recv().unwrap();
            send_result(rogue, 0);
            sent.send(()).unwrap();
            // the replacement: re-initialised, dealt the same mode
            rogue.recv(0, TAG_INIT, &mut buf).unwrap();
            rogue.send(0, TAG_REQUEST, &[0.0]).unwrap();
            rogue.recv(0, TAG_ASSIGN, &mut buf).unwrap();
            assert_eq!(buf, [0.0]);
            send_result(rogue, 0);
            rogue.recv(0, TAG_ASSIGN, &mut buf).unwrap();
            assert_eq!(buf, [1.0]);
            send_result(rogue, 1);
            rogue.recv(0, TAG_JOBDONE, &mut buf).unwrap();
            rogue
                .send(0, TAG_STATS, &WorkerStats::default().to_wire())
                .unwrap();
        });
        let mut polls = 0;
        let mut watch = || {
            // poll 1 is the job-open fold; poll 2 the first silence
            polls += 1;
            if polls != 2 {
                return Vec::new();
            }
            die.send(()).unwrap();
            delivered.recv().unwrap();
            vec![WorkerEvent::Respawned(1)]
        };
        let ledger = master_job_session(
            &mut master_ep,
            &spec,
            SchedulePolicy::Fifo,
            &fast_cfg(),
            &mut watch,
            Instant::now(),
            &JobControl::default(),
            None,
        )
        .unwrap();
        h.join().unwrap();
        assert!(ledger.outputs.iter().all(Option::is_some));
        assert_eq!(ledger.recovery.respawns, 1);
        assert_eq!(ledger.recovery.late_results, 1);
    }

    #[test]
    fn garbled_stats_payload_is_a_protocol_error() {
        // an empty k-grid reduces the protocol to its bookkeeping frame:
        // open → request → release → stats
        let spec = RunSpec::standard_cdm(Vec::new());
        let (mut master_ep, h) = rogue_pair(|rogue| {
            let mut buf = Vec::new();
            rogue.recv(0, TAG_JOBDONE, &mut buf).unwrap();
            // not the 10 reals of a tag-7 report: must be rejected, not
            // zero-padded
            rogue.send(0, TAG_STATS, &[3.0, 1.25, 2.5, 4096.0]).unwrap();
        });
        let err = run_job(&mut master_ep, &spec, SchedulePolicy::Fifo).unwrap_err();
        h.join().unwrap();
        match err {
            FarmError::Protocol { rank, detail } => {
                assert_eq!(rank, 1);
                assert!(detail.contains("stats"), "{detail}");
            }
            other => panic!("expected Protocol, got {other}"),
        }
    }
}
