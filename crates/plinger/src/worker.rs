//! The worker subroutine (`kidsub` in Appendix A).

use std::sync::Arc;
use std::time::{Duration, Instant};

use boltzmann::evolve_mode_scratch;
use msgpass::wrappers::*;
use msgpass::Transport;
use ode::Integrator;
use telemetry::{SpanEvent, SpanRecorder};

use crate::error::FarmError;
use crate::protocol::{
    cosmo_hash, count_from_real, job_hash, RunSpec, TAG_ASSIGN, TAG_CANCEL, TAG_DATA, TAG_FAIL,
    TAG_HEADER, TAG_HEARTBEAT, TAG_INIT, TAG_PREFETCH, TAG_REQUEST, TAG_STATS, TAG_STOP,
};
use crate::tables::{PhysicsTables, TableCache};

/// How many accepted integrator steps pass between heartbeat-clock
/// checks (checking `Instant::now` every step would be pure overhead).
const HEARTBEAT_CHECK_STEPS: usize = 64;

/// Minimum wall-clock spacing between two heartbeats from one worker.
const HEARTBEAT_MIN_INTERVAL: Duration = Duration::from_millis(100);

/// A scripted worker misbehaviour, driven by the farm's fault plan.
/// Real deployments pass `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Return silently (no goodbye, no stats) when the next assignment
    /// arrives after `after_modes` completed modes — a dead thread/node.
    Vanish {
        /// Completed modes before vanishing.
        after_modes: usize,
    },
    /// Go silent for `stall` on the next assignment after `after_modes`
    /// completed modes, then vanish — a hung worker that heartbeat
    /// timeouts must catch.
    Stall {
        /// Completed modes before stalling.
        after_modes: usize,
        /// How long to hang before vanishing.
        stall: Duration,
    },
    /// Report mode `ik` as failed (tag 8) instead of integrating it.
    FailMode {
        /// The poisoned mode index.
        ik: usize,
    },
}

/// Statistics a worker reports after each job's release, shipped to the
/// master as the tag-7 payload (10 reals; see the `protocol` module
/// docs for the wire layout).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Modes completed.
    pub modes: usize,
    /// Seconds spent inside mode integrations (busy time).
    pub busy_seconds: f64,
    /// Total seconds between receiving the job and its release.
    pub total_seconds: f64,
    /// Bytes sent back to the master (header + data payloads).
    pub bytes_sent: usize,
    /// Integrator steps accepted across all modes.
    pub steps_accepted: usize,
    /// Integrator steps rejected across all modes.
    pub steps_rejected: usize,
    /// Right-hand-side evaluations across all modes.
    pub rhs_evals: usize,
    /// Bytes received from the master (broadcast + assignments).
    pub bytes_received: usize,
    /// Table builds this worker performed at job start (0 or 1 per
    /// job): 1 when the job's cosmology was not in the process's
    /// [`TableCache`] and this rank was the one that built it, 0 when
    /// the tables were already there or another rank built them.
    /// Summed over a report's workers this is builds per *process*.
    pub ctx_rebuilds: usize,
    /// Table builds this worker performed answering tag-13 hints since
    /// its previous report — the next shard's tables, built by the one
    /// rank that claimed the hint while the others integrate.  A hinted
    /// shard therefore opens with `ctx_rebuilds == 0` on every rank; its
    /// build shows here, in the report of the shard it overlapped.
    pub prefetch_builds: usize,
}

impl WorkerStats {
    /// Encode as the tag-7 payload.
    pub fn to_wire(&self) -> [f64; 10] {
        [
            self.modes as f64,
            self.busy_seconds,
            self.total_seconds,
            self.bytes_sent as f64,
            self.steps_accepted as f64,
            self.steps_rejected as f64,
            self.rhs_evals as f64,
            self.bytes_received as f64,
            self.ctx_rebuilds as f64,
            self.prefetch_builds as f64,
        ]
    }

    /// Decode a tag-7 payload: exactly the 10 reals of
    /// [`WorkerStats::to_wire`].  Returns `None` for any other length
    /// and for payloads containing NaN, non-finite, or negative values
    /// — a garbled stats message must not silently become a
    /// plausible-looking report.
    pub fn from_wire(v: &[f64]) -> Option<Self> {
        let v: &[f64; 10] = v.try_into().ok()?;
        if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return None;
        }
        Some(Self {
            modes: v[0] as usize,
            busy_seconds: v[1],
            total_seconds: v[2],
            bytes_sent: v[3] as usize,
            steps_accepted: v[4] as usize,
            steps_rejected: v[5] as usize,
            rhs_evals: v[6] as usize,
            bytes_received: v[7] as usize,
            ctx_rebuilds: v[8] as usize,
            prefetch_builds: v[9] as usize,
        })
    }

    /// Field-wise accumulate `other` into `self` — a worker's
    /// whole-session totals are the sum of its per-job reports.
    pub fn absorb(&mut self, other: &WorkerStats) {
        self.modes += other.modes;
        self.busy_seconds += other.busy_seconds;
        self.total_seconds += other.total_seconds;
        self.bytes_sent += other.bytes_sent;
        self.steps_accepted += other.steps_accepted;
        self.steps_rejected += other.steps_rejected;
        self.rhs_evals += other.rhs_evals;
        self.bytes_received += other.bytes_received;
        self.ctx_rebuilds += other.ctx_rebuilds;
        self.prefetch_builds += other.prefetch_builds;
    }
}

/// Heartbeat emission state, carried across assignments and across
/// jobs — the ~100 ms spacing is a per-rank property, not a per-job
/// one.
struct Heartbeat {
    last: Instant,
    seq: f64,
}

impl Heartbeat {
    fn new() -> Self {
        Self {
            last: Instant::now(),
            seq: 0.0,
        }
    }
}

/// The tables a job integrates against, from the process's cache; when
/// this rank is the one that builds them, the build is counted in
/// `stats.ctx_rebuilds` and recorded as a `build_ctx` span.
fn job_tables(
    cache: &TableCache,
    spec: &RunSpec,
    stats: &mut WorkerStats,
    rec: &mut SpanRecorder,
) -> Arc<PhysicsTables> {
    let t_build = Instant::now();
    let (tables, built) = cache.get_or_build(&spec.cosmo);
    if built {
        stats.ctx_rebuilds = 1;
        record_build(rec, "build_ctx", t_build, spec);
    }
    tables
}

fn record_build(rec: &mut SpanRecorder, name: &'static str, began: Instant, spec: &RunSpec) {
    rec.record(
        name,
        "worker",
        began,
        Instant::now(),
        &[
            ("cosmo_hash", format!("{:016x}", cosmo_hash(&spec.cosmo))),
            ("job", telemetry::log::job_hex(job_hash(spec))),
        ],
    );
}

/// Serve tag-3 assignments until any other tag arrives, integrating
/// each mode and answering with a tag-4/5 pair or a tag-8 failure.  A
/// tag-3 carries exactly one mode index of the job's k-grid; any other
/// payload is a [`FarmError::Protocol`].
/// The terminating message's payload is consumed (and counted into
/// `stats.bytes_received`) and its tag returned, so the caller decides
/// what job-done/cancel/stop means for its lifetime.
///
/// Returns `Ok(None)` when a scripted [`WorkerFault`] says to vanish —
/// the caller must then return without a goodbye.  `modes_done` counts
/// completed modes across the whole worker lifetime (fault triggers key
/// on it), while `stats` is the caller's per-job ledger.
#[allow(clippy::too_many_arguments)]
fn serve_assignments<T: Transport>(
    t: &mut T,
    mastid: msgpass::Rank,
    spec: &RunSpec,
    tables: &PhysicsTables,
    fault: Option<WorkerFault>,
    modes_done: &mut usize,
    stats: &mut WorkerStats,
    integ: &mut Integrator,
    hb: &mut Heartbeat,
    rec: &mut SpanRecorder,
    buf: &mut Vec<f64>,
) -> Result<Option<msgpass::Tag>, FarmError> {
    let cfg = spec.mode_config();
    // the same request identity the master stamps on its spans — both
    // ends derive it from the spec wire bits, so no extra protocol
    let job = telemetry::log::job_hex(job_hash(spec));
    loop {
        // receive from master: next ik or a release message
        let t_wait = Instant::now();
        let tag = mychecktid(t, mastid)?;
        let n = myrecvreal(t, buf, tag, mastid)?;
        stats.bytes_received += n * 8;
        rec.record(
            "wait",
            "worker",
            t_wait,
            Instant::now(),
            &[("job", job.clone())],
        );
        if tag != TAG_ASSIGN {
            return Ok(Some(tag));
        }
        // a tag-3 assignment carries exactly one in-grid mode index
        let ik = match buf[..] {
            [v] => count_from_real(v).filter(|&ik| ik < spec.ks.len()),
            _ => None,
        }
        .ok_or_else(|| FarmError::Protocol {
            rank: t.rank(),
            detail: format!(
                "assignment {:?} is not one mode index of a {}-mode k-grid",
                &buf[..],
                spec.ks.len()
            ),
        })?;
        let k = spec.ks[ik];
        match fault {
            Some(WorkerFault::Vanish { after_modes }) if *modes_done >= after_modes => {
                // fault injection: vanish without a goodbye
                return Ok(None);
            }
            Some(WorkerFault::Stall { after_modes, stall }) if *modes_done >= after_modes => {
                // fault injection: hang silently, then vanish — the
                // master's heartbeat timeout must catch this
                std::thread::sleep(stall);
                return Ok(None);
            }
            Some(WorkerFault::FailMode { ik: bad }) if bad == ik => {
                // fault injection: report the mode as failed
                mysendreal(t, &[ik as f64, k], TAG_FAIL, mastid)?;
                continue;
            }
            _ => {}
        }
        let t_mode = Instant::now();
        let mut cancel_seen = false;
        let result = {
            let cancel = &mut cancel_seen;
            let mut steps_since = 0usize;
            let mut observer = || {
                steps_since += 1;
                if steps_since >= HEARTBEAT_CHECK_STEPS {
                    steps_since = 0;
                    // cancel poll: a pending tag-12 from the master
                    // aborts this mode mid-integration; probe errors are
                    // ignored — a dead master surfaces on the next real
                    // send
                    if let Ok(Some(_)) =
                        t.probe_timeout(Some(mastid), Some(TAG_CANCEL), Duration::ZERO)
                    {
                        *cancel = true;
                        return false;
                    }
                    if hb.last.elapsed() >= HEARTBEAT_MIN_INTERVAL {
                        hb.seq += 1.0;
                        // best-effort: not counted in bytes_sent, and a
                        // dead master will surface on the next real send
                        let _ = t.send(mastid, TAG_HEARTBEAT, &[hb.seq]);
                        hb.last = Instant::now();
                    }
                }
                true
            };
            evolve_mode_scratch(
                &tables.bg,
                &tables.thermo,
                k,
                &cfg,
                Some(&mut observer),
                integ,
            )
        };
        if cancel_seen {
            // consume the cancel frame, abandon the mode, and release
            // like any other terminating tag — the caller sends its
            // stats and parks
            let n = myrecvreal(t, buf, TAG_CANCEL, mastid)?;
            stats.bytes_received += n * 8;
            rec.record(
                "mode",
                "worker",
                t_mode,
                Instant::now(),
                &[
                    ("ik", ik.to_string()),
                    ("cancelled", "true".to_string()),
                    ("job", job.clone()),
                ],
            );
            stats.busy_seconds += t_mode.elapsed().as_secs_f64();
            return Ok(Some(TAG_CANCEL));
        }
        match result {
            Ok(out) => {
                rec.record(
                    "mode",
                    "worker",
                    t_mode,
                    Instant::now(),
                    &[
                        ("ik", ik.to_string()),
                        ("k", format!("{k:.6e}")),
                        ("job", job.clone()),
                    ],
                );
                stats.busy_seconds += t_mode.elapsed().as_secs_f64();
                stats.modes += 1;
                *modes_done += 1;
                stats.steps_accepted += out.stats.accepted;
                stats.steps_rejected += out.stats.rejected;
                stats.rhs_evals += out.stats.rhs_evals;
                // send results to master: header (tag 4) then data (tag 5)
                let (header, payload) = out.to_wire(ik);
                stats.bytes_sent += (header.len() + payload.len()) * 8;
                mysendreal(t, &header, TAG_HEADER, mastid)?;
                mysendreal(t, &payload, TAG_DATA, mastid)?;
            }
            Err(_) => {
                rec.record(
                    "mode",
                    "worker",
                    t_mode,
                    Instant::now(),
                    &[
                        ("ik", ik.to_string()),
                        ("failed", "true".to_string()),
                        ("job", job.clone()),
                    ],
                );
                stats.busy_seconds += t_mode.elapsed().as_secs_f64();
                // report the failure and go back to waiting: a
                // fail-fast master answers with the release, a requeueing
                // master with the next assignment
                mysendreal(t, &[ik as f64, k], TAG_FAIL, mastid)?;
            }
        }
    }
}

/// What one worker accumulated over its whole lifetime.
#[derive(Debug, Default)]
pub struct WorkerTotals {
    /// Jobs served to completion (each answered with a tag-7 report).
    pub jobs: usize,
    /// Whole-lifetime statistics: the per-job reports summed.
    pub stats: WorkerStats,
    /// Local wall-clock spans across all jobs, on one timeline
    /// (`mode`, `wait`, `build_ctx`, and `prefetch_ctx` events).
    pub spans: Vec<SpanEvent>,
}

/// The worker session: serve jobs until the master sends a tag-6 stop.
///
/// Mirrors Appendix A line by line — receive the run parameters (tag
/// 1), ask for a wavenumber (tag 2), integrate what tag 3 assigns and
/// answer each mode with a tag-4/5 pair — wrapped in a loop over jobs:
/// between jobs the worker parks holding its integrator scratch and its
/// heartbeat clock (the physics tables live in the process's
/// [`TableCache`], shared with the other ranks of this process).  A
/// `Farm::run` is a session of one job.  The session:
///
/// * takes the job's physics tables from the cache, building them
///   **only when no rank of this process has or is building that
///   cosmology** — the builder records a `build_ctx` span and sets
///   [`WorkerStats::ctx_rebuilds`] for the job, so cache reuse is
///   visible in the run report;
/// * answers a tag-13 hint claim-or-skip: the first rank to see an
///   unclaimed cosmology builds it (`prefetch_ctx` span, counted in
///   [`WorkerStats::prefetch_builds`] of its next report), every other
///   rank goes straight on to the job that follows the hint;
/// * reports a failed mode integration with tag 8 (ik, k) instead of
///   dying, and emits best-effort tag-9 heartbeats between DVERK step
///   batches, at most one per `HEARTBEAT_MIN_INTERVAL` (100 ms),
///   excluded from [`WorkerStats::bytes_sent`];
/// * answers the per-job release (tag 11, or a tag-12 cancel) with that
///   job's own tag-7 stats — fresh counters every job, so
///   idle/imbalance accounting never bleeds across jobs;
/// * consumes and ignores stale traffic between jobs (e.g. an
///   assignment addressed to this rank's previous incarnation that was
///   already requeued elsewhere);
/// * on a tag-6 stop, reports its stats (this job's if one is open,
///   lifetime totals — zero if it never saw a job — when idle) and
///   exits.
///
/// `epoch` anchors the span timestamps; the pool passes one epoch to
/// every rank so the per-rank tracks (`mode`, `wait`, `build_ctx`,
/// `prefetch_ctx`) align in a trace viewer.
pub fn worker_pool_session<T: Transport>(
    t: &mut T,
    fault: Option<WorkerFault>,
    epoch: Instant,
    cache: &TableCache,
) -> Result<WorkerTotals, FarmError> {
    let (mytid, mastid) = initpass(t);
    let mut buf = Vec::new();
    let mut rec = SpanRecorder::new(epoch, 0, mytid as u64);
    let mut out = WorkerTotals::default();
    let mut integ = Integrator::new();
    let mut hb = Heartbeat::new();
    let mut modes_done = 0usize;
    // table builds done answering tag-13 hints, waiting to be
    // attributed to the next job's stats
    let mut pending_prefetch_builds = 0usize;

    loop {
        let tag = mychecktid(t, mastid)?;
        if tag != TAG_INIT {
            let n = myrecvreal(t, &mut buf, tag, mastid)?;
            if tag == TAG_STOP {
                // session over; report lifetime totals
                mysendreal(t, &out.stats.to_wire(), TAG_STATS, mastid)?;
                out.spans = rec.into_events();
                return Ok(out);
            }
            if tag == TAG_PREFETCH {
                // a hint, not a job: build the announced cosmology's
                // tables unless some rank already has.  A malformed
                // payload is ignored — a hint must never be able to
                // kill a healthy worker.
                if let Ok(spec) = RunSpec::decode(&buf[..n]) {
                    let t_build = Instant::now();
                    if cache.prefetch(&spec.cosmo) {
                        record_build(&mut rec, "prefetch_ctx", t_build, &spec);
                        pending_prefetch_builds += 1;
                    }
                }
                continue;
            }
            // stale traffic for a previous incarnation of this rank
            // (its work was already requeued): consume and ignore
            continue;
        }

        // job start
        let n = myrecvreal(t, &mut buf, tag, mastid)?;
        let mut stats = WorkerStats {
            bytes_received: n * 8,
            prefetch_builds: std::mem::take(&mut pending_prefetch_builds),
            ..WorkerStats::default()
        };
        let t_start = Instant::now();
        let spec = RunSpec::decode(&buf)?;
        let tables = job_tables(cache, &spec, &mut stats, &mut rec);

        mysendreal(t, &[0.0], TAG_REQUEST, mastid)?;
        let released = serve_assignments(
            t,
            mastid,
            &spec,
            &tables,
            fault,
            &mut modes_done,
            &mut stats,
            &mut integ,
            &mut hb,
            &mut rec,
            &mut buf,
        )?;
        let Some(release_tag) = released else {
            // scripted vanish/stall: disappear without the goodbye
            out.stats.absorb(&stats);
            out.spans = rec.into_events();
            return Ok(out);
        };
        stats.total_seconds = t_start.elapsed().as_secs_f64();
        mysendreal(t, &stats.to_wire(), TAG_STATS, mastid)?;
        out.jobs += 1;
        out.stats.absorb(&stats);
        if release_tag == TAG_STOP {
            // the pool is shutting down under an open job
            out.spans = rec.into_events();
            return Ok(out);
        }
        // released or cancelled: park warm and wait for the next job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TAG_JOBDONE;
    use msgpass::channel::ChannelWorld;

    #[test]
    fn an_assignment_is_exactly_one_in_grid_mode_index() {
        // `v as usize` used to turn NaN, −1 and 0.5 into mode 0 and
        // integrate it, and two reals into two modes
        let mut spec = RunSpec::standard_cdm(vec![2.0e-3, 4.0e-3]);
        spec.preset = boltzmann::Preset::Draft;
        let bad: [&[f64]; 7] = [
            &[0.0, 1.0],
            &[],
            &[f64::NAN],
            &[-1.0],
            &[0.5],
            &[1e300],
            &[2.0],
        ];
        for payload in bad {
            let mut eps = ChannelWorld::new(2);
            let mut worker = eps.pop().unwrap();
            let mut master = eps.pop().unwrap();
            let h = std::thread::spawn(move || {
                worker_pool_session(&mut worker, None, Instant::now(), &TableCache::new())
            });
            let mut buf = Vec::new();
            master.send(1, TAG_INIT, &spec.encode()).unwrap();
            master.recv(1, TAG_REQUEST, &mut buf).unwrap();
            // release and stop follow, so a worker that takes the
            // payload for work still ends its session cleanly
            for (tag, frame) in [
                (TAG_ASSIGN, payload),
                (TAG_JOBDONE, &[0.0]),
                (TAG_STOP, &[0.0]),
            ] {
                let _ = master.send(1, tag, frame);
            }
            match h.join().unwrap() {
                Err(FarmError::Protocol { rank, detail }) => {
                    assert_eq!(rank, 1, "{payload:?}");
                    assert!(detail.contains("assignment"), "{payload:?}: {detail}");
                }
                other => panic!("{payload:?}: expected Protocol, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_wire_roundtrip() {
        let s = WorkerStats {
            modes: 3,
            busy_seconds: 1.5,
            total_seconds: 2.0,
            bytes_sent: 4096,
            steps_accepted: 900,
            steps_rejected: 12,
            rhs_evals: 7300,
            bytes_received: 512,
            ctx_rebuilds: 1,
            prefetch_builds: 1,
        };
        assert_eq!(WorkerStats::from_wire(&s.to_wire()), Some(s));
        assert_eq!(WorkerStats::from_wire(&[1.0, 2.0]), None);
    }

    #[test]
    fn stats_rejects_garbage_payloads() {
        let good = [1.0; 10];
        assert!(WorkerStats::from_wire(&good).is_some());
        // NaN, infinities, and negatives must not decode
        for (at, bad, why) in [
            (0, f64::NAN, "NaN modes"),
            (1, f64::INFINITY, "infinite busy"),
            (2, -2.0, "negative total"),
            (7, f64::NEG_INFINITY, "non-finite bytes_received"),
        ] {
            let mut v = good;
            v[at] = bad;
            assert_eq!(WorkerStats::from_wire(&v), None, "{why}");
        }
        // wrong geometry, the retired 4/8/9-real layouts included
        for len in [0, 4, 5, 8, 9, 11] {
            assert_eq!(WorkerStats::from_wire(&vec![1.0; len]), None, "{len} reals");
        }
    }
}
