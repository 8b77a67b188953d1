//! Ensemble sharding: one warm pool servicing a whole parameter sweep.
//!
//! Real consumers of a Boltzmann solver — MCMC chains, emulator
//! training, Fisher forecasts — need thousands of spectra over a
//! cosmology grid, not one.  The farm already parallelizes over `k`
//! *within* one cosmology; this module adds the outer level: an
//! [`EnsembleSpec`] names axes over `Ω_b`, `h`, and `n_s` against a
//! base [`RunSpec`], and [`run_ensemble`] drives the resulting sweep
//! over a [`FarmPool`], one pooled job per *evolution*, whose modes the
//! master deals to the workers one at a time.
//!
//! A sweep has one scheduler, a group walk private to the crate.  It
//! asks a *consumer* which shards it already holds, runs the jobs, and
//! hands the consumer every shard in canonical order: held, evolved, a
//! twin, or part of a failed group.  [`run_ensemble`] is the walk with a
//! consumer that holds nothing and collects an [`EnsembleReport`]; a
//! `plinger-serve` tag-22 sweep
//! ([`SpectrumService::handle_ensemble_with`](crate::SpectrumService::handle_ensemble_with))
//! is the walk with the service's result cache as the consumer.
//!
//! Four properties make this more than a `for` loop:
//!
//! * **Determinism** — each evolution runs as an ordinary pooled job
//!   with identical dispatch semantics, so the sweep's outputs are
//!   bitwise identical to a serial loop of single-cosmology
//!   [`run_job`](crate::FarmPool::run_job) calls (pinned per transport
//!   in `tests/ensemble_pinning.rs`).
//! * **One evolution per `(Ω_b, h)` grid point** — the mode equations
//!   never read `n_s`: the transfer functions are the product, and the
//!   primordial power law is applied when C_l or P(k) is assembled from
//!   them.  `n_s` is the fastest canonical index, so shards
//!   `g·n_ns … g·n_ns + n_ns − 1` are one *group*: the group's first
//!   shard the consumer does not hold runs as a pooled job, and every
//!   other un-held shard of the group (a *twin*) is handed a clone of
//!   its outputs under its own index, hash and cosmology
//!   ([`ShardResult::evolved_by`] names the shard that ran).  The rule is the index arithmetic — no hash, no cache,
//!   no option — and the per-shard comparison with
//!   [`run_serial`](crate::run_serial) in `tests/ensemble_pinning.rs`
//!   is its guard: an `n_s` dependence added to the mode equations
//!   fails there.
//! * **One context build per evolution, one evolution ahead** — every
//!   job opens with a tag-13 hint naming the first shard past its group
//!   that the consumer does not hold (for [`run_ensemble`], the first
//!   shard of the *next* group), sent to each rank just before its
//!   tag-1 job open.  The worker threads of a pool share one
//!   [`TableCache`](crate::TableCache), so exactly one of them claims
//!   the hint and builds the next cosmology's background/thermo tables
//!   while the others start on this job's largest modes; the next job
//!   then opens with `ctx_rebuilds == 0` everywhere and the build shows
//!   up as this job's one
//!   [`prefetch_builds`](crate::WorkerStats::prefetch_builds).  A sweep
//!   builds one context per evolution per process — `n_shards / n_ns`
//!   on threads, that × workers on subprocesses (each child owns its
//!   cache); twins never open a job.
//! * **Two-level recovery** — inside a job the existing
//!   requeue/heartbeat/respawn machinery applies unchanged, and each
//!   evolved shard keeps its own recovery ledger (its [`FarmReport`]);
//!   an evolution whose *job* fails outright is re-run whole, budgeted
//!   by [`EnsembleOptions::max_shard_attempts`], and once the budget is
//!   spent every shard of its group is quarantined into
//!   [`EnsembleReport::failed`] — it is not tried again under a twin's
//!   name (the service ends the sweep there instead).  The walk checks
//!   the [`JobControl`] before every shard and every re-run.

use std::ops::Range;
use std::time::Instant;

use background::CosmoParams;
use msgpass::World;
use telemetry::log::{self as tlog, Level};

use crate::error::{CancelReason, FarmError};
use crate::farm::FarmReport;
use crate::master::JobControl;
use crate::pool::FarmPool;
use crate::protocol::{
    count_from_real, hash_reals, job_hash, RunSpec, SpecDecodeError, SPEC_PREFIX,
};
use crate::schedule::SchedulePolicy;

/// A parameter sweep: axes over `Ω_b`, `h`, and `n_s` applied to a base
/// [`RunSpec`].  The cartesian product of the axes defines the shards;
/// shard `i` (canonical index) is the base spec with its cosmology's
/// swept fields replaced by the grid point
/// `i = (i_ob · n_h + i_h) · n_ns + i_ns`.
///
/// The canonical wire encoding ([`EnsembleSpec::encode`]) is
/// `[n_ob, n_h, n_ns, ob…, h…, ns…, base…]` with `base…` the tag-1
/// encoding of the base spec; [`ensemble_hash`] is the content hash of
/// that encoding, and [`EnsembleSpec::shard_hash`] is the ordinary
/// [`job_hash`] of the shard's spec — so a shard's cache entry is
/// indistinguishable from (and shared with) a single-spectrum request
/// for the same cosmology.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSpec {
    /// The spec every shard derives from (its `cosmo.omega_b`,
    /// `cosmo.h`, and `cosmo.n_s` are overridden per shard; everything
    /// else — grid, gauge, preset, method — is shared).
    pub base: RunSpec,
    /// Baryon-density axis (`Ω_b` values), non-empty.
    pub omega_b: Vec<f64>,
    /// Hubble-parameter axis (`h` values), non-empty.
    pub h: Vec<f64>,
    /// Spectral-index axis (`n_s` values), non-empty.
    pub n_s: Vec<f64>,
}

/// An ensemble wire payload that cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnsembleDecodeError {
    /// Payload shorter than the three axis counts.
    TooShort {
        /// Actual length.
        got: usize,
    },
    /// An axis count is not a count: NaN, infinite, negative,
    /// fractional, or past what a `usize` holds.
    BadCount {
        /// Which of the three leading reals (0 = Ω_b, 1 = h, 2 = n_s).
        axis: usize,
        /// Bit pattern of the real that was sent (bits, so that the
        /// error stays `Eq` with a NaN inside).
        bits: u64,
    },
    /// An axis count is zero (an empty axis defines no shards).
    EmptyAxis,
    /// Payload too short for the axis lengths it declares.
    AxisMismatch {
        /// Reals needed for the declared axes (counts included;
        /// `usize::MAX` when the sum itself does not fit).
        want: usize,
        /// Actual length.
        got: usize,
    },
    /// The trailing base spec failed to decode.
    Base(SpecDecodeError),
}

impl std::fmt::Display for EnsembleDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleDecodeError::TooShort { got } => {
                write!(f, "ensemble payload too short: {got} reals (need ≥ 3)")
            }
            EnsembleDecodeError::BadCount { axis, bits } => write!(
                f,
                "ensemble axis {axis} count is not a count: {}",
                f64::from_bits(*bits)
            ),
            EnsembleDecodeError::EmptyAxis => write!(f, "ensemble axis is empty"),
            EnsembleDecodeError::AxisMismatch { want, got } => {
                write!(f, "ensemble axes need {want} reals, got {got}")
            }
            EnsembleDecodeError::Base(e) => write!(f, "ensemble base spec: {e}"),
        }
    }
}

impl std::error::Error for EnsembleDecodeError {}

impl From<EnsembleDecodeError> for FarmError {
    fn from(e: EnsembleDecodeError) -> Self {
        FarmError::Protocol {
            rank: 0,
            detail: e.to_string(),
        }
    }
}

impl EnsembleSpec {
    /// A sweep with a single grid point per axis — the degenerate
    /// ensemble equal to its base spec.
    pub fn singleton(base: RunSpec) -> Self {
        let c = &base.cosmo;
        Self {
            omega_b: vec![c.omega_b],
            h: vec![c.h],
            n_s: vec![c.n_s],
            base,
        }
    }

    /// Number of shards: the product of the axis lengths.
    pub fn n_shards(&self) -> usize {
        self.omega_b.len() * self.h.len() * self.n_s.len()
    }

    /// The grid point of shard `i` in canonical index order
    /// (`n_s` fastest, then `h`, then `Ω_b`).
    ///
    /// # Panics
    /// When `i >= self.n_shards()`.
    pub fn shard_point(&self, i: usize) -> (f64, f64, f64) {
        assert!(i < self.n_shards(), "shard {i} out of range");
        let n_ns = self.n_s.len();
        let n_h = self.h.len();
        let i_ns = i % n_ns;
        let i_h = (i / n_ns) % n_h;
        let i_ob = i / (n_ns * n_h);
        (self.omega_b[i_ob], self.h[i_h], self.n_s[i_ns])
    }

    /// Shard `i`'s cosmology: the base cosmology with the swept fields
    /// replaced and Ω_c adjusted to keep the base's curvature.
    ///
    /// Substituting Ω_b or h into a closed budget would otherwise open
    /// the universe (the perturbation equations are flat-space only),
    /// so the sweep trades baryons against cold dark matter at fixed
    /// total — the standard parameter-sweep convention.  The
    /// adjustment is part of the shard's canonical identity: both the
    /// scheduler and the serial pinning loop see the identical
    /// re-closed `CosmoParams`, wherever the spec was decoded.
    pub fn shard_cosmo(&self, i: usize) -> CosmoParams {
        let (omega_b, h, n_s) = self.shard_point(i);
        let mut cosmo = CosmoParams {
            omega_b,
            h,
            n_s,
            ..self.base.cosmo.clone()
        };
        cosmo.omega_c += cosmo.omega_k() - self.base.cosmo.omega_k();
        cosmo
    }

    /// The full single-cosmology [`RunSpec`] of shard `i` — what the
    /// pool actually runs, and what serial pinning loops over.
    pub fn shard_spec(&self, i: usize) -> RunSpec {
        RunSpec {
            cosmo: self.shard_cosmo(i),
            ..self.base.clone()
        }
    }

    /// The `n_s` group of shard `i`: the shards that differ from it only
    /// in `n_s`, which one evolution answers.
    pub(crate) fn group(&self, i: usize) -> Range<usize> {
        let first = i - i % self.n_s.len();
        first..first + self.n_s.len()
    }

    /// Canonical per-shard job identity: the ordinary [`job_hash`] of
    /// [`EnsembleSpec::shard_spec`].  Depends only on the shard's own
    /// grid point (never on visit order or on the other shards), so a
    /// result cached under it is shared with single-spectrum requests
    /// for the same cosmology.
    pub fn shard_hash(&self, i: usize) -> u64 {
        job_hash(&self.shard_spec(i))
    }

    /// Encode as the canonical ensemble wire payload
    /// `[n_ob, n_h, n_ns, ob…, h…, ns…, base…]`.
    pub fn encode(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(
            3 + self.omega_b.len()
                + self.h.len()
                + self.n_s.len()
                + SPEC_PREFIX
                + self.base.ks.len(),
        );
        v.push(self.omega_b.len() as f64);
        v.push(self.h.len() as f64);
        v.push(self.n_s.len() as f64);
        v.extend_from_slice(&self.omega_b);
        v.extend_from_slice(&self.h);
        v.extend_from_slice(&self.n_s);
        v.extend_from_slice(&self.base.encode());
        v
    }

    /// Decode the payload written by [`EnsembleSpec::encode`].  The
    /// payload comes off a socket: the three counts are checked (a
    /// count, at least 1, and together no more than the payload holds)
    /// before anything is indexed by them, and the base spec's own
    /// decoder polices the tail, so a truncated or padded payload is an
    /// error, not a garbled sweep.
    pub fn decode(v: &[f64]) -> Result<Self, EnsembleDecodeError> {
        if v.len() < 3 {
            return Err(EnsembleDecodeError::TooShort { got: v.len() });
        }
        let count = |axis: usize| match count_from_real(v[axis]) {
            None => Err(EnsembleDecodeError::BadCount {
                axis,
                bits: v[axis].to_bits(),
            }),
            Some(0) => Err(EnsembleDecodeError::EmptyAxis),
            Some(n) => Ok(n),
        };
        let (n_ob, n_h, n_ns) = (count(0)?, count(1)?, count(2)?);
        let want = [n_ob, n_h, n_ns]
            .iter()
            .try_fold(3usize, |want, &n| want.checked_add(n))
            .unwrap_or(usize::MAX);
        if v.len() < want {
            return Err(EnsembleDecodeError::AxisMismatch { want, got: v.len() });
        }
        let omega_b = v[3..3 + n_ob].to_vec();
        let h = v[3 + n_ob..3 + n_ob + n_h].to_vec();
        let n_s = v[3 + n_ob + n_h..want].to_vec();
        let base = RunSpec::decode(&v[want..]).map_err(EnsembleDecodeError::Base)?;
        Ok(Self {
            base,
            omega_b,
            h,
            n_s,
        })
    }
}

/// Canonical content hash of a whole sweep: [`hash_reals`] over the
/// ensemble wire encoding.  Used as the sweep's identity in logs and
/// service frames; per-shard cache keys use
/// [`EnsembleSpec::shard_hash`] instead.
pub fn ensemble_hash(ens: &EnsembleSpec) -> u64 {
    hash_reals(&ens.encode())
}

/// Knobs of one ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleOptions {
    /// Inner k-scheduling policy, applied to every evolution.
    pub policy: SchedulePolicy,
    /// Whole-job attempt budget: an evolution whose job returns an
    /// error (other than cancellation) is re-run at once until it has
    /// been attempted this many times, then every shard of its group is
    /// recorded in [`EnsembleReport::failed`].  Minimum 1.
    pub max_shard_attempts: usize,
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        Self {
            policy: SchedulePolicy::LargestFirst,
            max_shard_attempts: 2,
        }
    }
}

/// One finished shard: its canonical index, identity, and per-shard
/// report (whose recovery ledger is the shard's own — requeues,
/// heartbeat misses, and respawns inside this shard never bleed into
/// its neighbours).
///
/// A shard that evolved (`evolved_by == shard`) carries the report of
/// its pooled job.  A twin carries a clone of that job's `outputs` and
/// nothing else — no wall time, worker statistics, completion log,
/// telemetry or recovery entries, and `attempts == 0` — so that sums
/// over a sweep's reports count every piece of work once, where it
/// happened.
#[derive(Debug)]
pub struct ShardResult {
    /// Canonical shard index.
    pub shard: usize,
    /// The shard's [`job_hash`] (its cache key).
    pub job: u64,
    /// The shard's cosmology.
    pub cosmo: CosmoParams,
    /// Job attempts this shard consumed (1 on an undisturbed run, 0 for
    /// a twin).
    pub attempts: usize,
    /// The shard whose pooled job produced `report.outputs`: the first
    /// shard of this one's `n_s` group.
    pub evolved_by: usize,
    /// The shard's own per-job farm report.
    pub report: FarmReport,
}

/// What an ensemble run hands back: per-shard results in canonical
/// shard order plus sweep-level accounting.
#[derive(Debug, Default)]
pub struct EnsembleReport {
    /// Finished shards, sorted by canonical index.
    pub results: Vec<ShardResult>,
    /// Shards whose evolution exhausted its attempt budget, a whole
    /// group at a time: `(index, error)`.
    pub failed: Vec<(usize, String)>,
    /// Wall-clock seconds of the whole sweep.
    pub wall_seconds: f64,
    /// Whole-job re-runs taken (0 on an undisturbed sweep).
    pub shard_requeues: usize,
    /// Table builds done at a job's start, summed over all shard
    /// reports: cosmologies no hint had announced (the sweep's first
    /// evolution, and any whose hint was lost).
    pub ctx_rebuilds: usize,
    /// Table builds done answering next-evolution hints, one job ahead
    /// of their use.  `ctx_rebuilds + prefetch_builds` is builds per
    /// process: [`EnsembleReport::evolutions`] on an undisturbed sweep
    /// over worker threads, that × workers over the child processes of
    /// a [`FarmPool::start_processes`] pool.
    pub prefetch_builds: usize,
}

impl EnsembleReport {
    /// Finished shards that ran as a pooled job of their own — the rest
    /// are twins holding a clone.
    pub fn evolutions(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.evolved_by == r.shard)
            .count()
    }

    /// Modes integrated across the sweep (a twin's cloned outputs are
    /// not counted twice: its completion log is empty).
    pub fn total_modes(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.report.completion_log.len())
            .sum()
    }
}

/// The pool-side contract the ensemble scheduler drives: one job with
/// optional control and a next-job prefetch hint.  Implemented by
/// [`FarmPool`], whichever way its workers run; tests substitute a
/// scripted pool to exercise shard-level recovery without physics.
pub trait ShardRunner {
    /// Run one shard's job, optionally announcing the next one to run.
    fn run_shard(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError>;
}

impl<W: World> ShardRunner for FarmPool<W> {
    fn run_shard(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_prefetched(spec, policy, ctrl, prefetch)
    }
}

/// A shard's turn in the sweep walk, as its consumer gets it.
pub(crate) enum ShardTurn {
    /// The consumer already holds this shard; no job ran for it.
    Held(usize),
    /// A shard its group's job answered: the one that evolved
    /// (`evolved_by == shard`), or a twin, whose report is empty — its
    /// outputs are those of the evolved shard, taken just before.
    Done(Box<ShardResult>),
    /// A group whose job spent its attempt budget, from the shard whose
    /// job it was to the end of the group.
    Failed(FarmError, Range<usize>),
}

/// Where the sweep walk takes the shards: [`run_ensemble`] collects
/// them, the service streams them through its result cache.
pub(crate) trait SweepConsumer {
    /// What stops the walk; a cancel arrives converted.
    type Error: From<FarmError>;
    /// Whether `shard` is held already.  Asked at its turn and for the
    /// next-job hint, so it has no side effects.
    fn holds(&self, shard: usize) -> bool;
    /// Take the next turn, in canonical order; an `Err` stops the walk.
    fn take(&mut self, turn: ShardTurn) -> Result<(), Self::Error>;
    /// `ctrl` fired before `shard`'s turn or a re-run of its job.
    fn refused(&mut self, _shard: usize, _reason: CancelReason) {}
}

/// The one sweep scheduler.  It goes through the shards in canonical
/// order, checks `ctrl` and asks `consumer` whether it holds each one at
/// its turn, runs the first un-held shard of each `n_s` group as one
/// pooled job through `run` — its tag-13 hint names the first un-held
/// shard past the group — and hands the group's other un-held shards
/// over as twins.  A job that fails other than by a cancel is re-run at
/// once within [`EnsembleOptions::max_shard_attempts`].  The walk stops
/// at the consumer's first error or at a cancel, and returns it;
/// otherwise it returns the sweep's wall time, re-runs and table builds,
/// leaving the per-shard lists to the consumer.
pub(crate) fn walk<C: SweepConsumer>(
    mut run: impl FnMut(
        &RunSpec,
        SchedulePolicy,
        &JobControl<'_>,
        Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError>,
    ens: &EnsembleSpec,
    opts: &EnsembleOptions,
    ctrl: &JobControl<'_>,
    consumer: &mut C,
) -> Result<EnsembleReport, C::Error> {
    let t0 = Instant::now();
    let n = ens.n_shards();
    let sweep = ensemble_hash(ens);
    let mut rep = EnsembleReport::default();
    let mut failed = 0;
    let sweep_event = |message: &str, more: &[(&str, String)]| {
        let at = [("ensemble", tlog::job_hex(sweep))];
        tlog::log(Level::Info, "ensemble", message, &[&at[..], more].concat());
    };
    let shard_event =
        |level: Level, message: &str, shard: usize, job: u64, more: &[(&str, String)]| {
            let at = [
                ("shard", tlog::shard_label(sweep, shard)),
                ("job", tlog::job_hex(job)),
            ];
            tlog::log(level, "ensemble", message, &[&at[..], more].concat());
        };
    // between jobs nothing is in flight to drain, but the sweep must stop
    // as promptly as a mid-job trigger would
    let stop = |consumer: &mut C, shard: usize| match ctrl.triggered() {
        None => Ok(()),
        Some(reason) => {
            consumer.refused(shard, reason);
            let unfinished = Vec::new();
            Err(C::Error::from(FarmError::Cancelled { reason, unfinished }))
        }
    };
    sweep_event("sweep_start", &[("shards", n.to_string())]);
    // the shard whose job answers the current group, once it has run
    let mut evolved_by = None;
    // one past the last shard of a group that failed
    let mut skip_to = 0;
    for shard in 0..n {
        if ens.group(shard).start == shard {
            evolved_by = None;
        }
        if shard < skip_to {
            continue;
        }
        stop(consumer, shard)?;
        if consumer.holds(shard) {
            consumer.take(ShardTurn::Held(shard))?;
            continue;
        }
        let spec = ens.shard_spec(shard);
        let job = job_hash(&spec);
        let answered = match evolved_by {
            Some(first) => Ok((0, first, FarmReport::default())),
            None => {
                let end = ens.group(shard).end;
                let hint = (end..n)
                    .find(|&j| !consumer.holds(j))
                    .map(|j| ens.shard_spec(j));
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    let at = [("attempt", attempts.to_string())];
                    shard_event(Level::Info, "shard_start", shard, job, &at);
                    match run(&spec, opts.policy, ctrl, hint.as_ref()) {
                        Ok(report) => break Ok((attempts, shard, report)),
                        Err(e @ FarmError::Cancelled { .. }) => return Err(e.into()),
                        Err(e) if attempts >= opts.max_shard_attempts.max(1) => {
                            let why = [("reason", e.to_string())];
                            shard_event(Level::Error, "shard_failed", shard, job, &why);
                            break Err((e, end));
                        }
                        Err(e) => {
                            rep.shard_requeues += 1;
                            let why = [("reason", e.to_string())];
                            shard_event(Level::Warn, "shard_requeue", shard, job, &why);
                            stop(consumer, shard)?;
                        }
                    }
                }
            }
        };
        let turn = match answered {
            Ok((attempts, by, report)) => {
                if by == shard {
                    let stats = &report.worker_stats;
                    rep.ctx_rebuilds += stats.iter().map(|w| w.ctx_rebuilds).sum::<usize>();
                    rep.prefetch_builds += stats.iter().map(|w| w.prefetch_builds).sum::<usize>();
                    evolved_by = Some(shard);
                }
                let more = [
                    ("modes", report.completion_log.len().to_string()),
                    ("requeues", report.recovery.requeues.to_string()),
                    ("evolved_by", by.to_string()),
                ];
                shard_event(Level::Info, "shard_done", shard, job, &more);
                ShardTurn::Done(Box::new(ShardResult {
                    shard,
                    job,
                    cosmo: spec.cosmo,
                    attempts,
                    evolved_by: by,
                    report,
                }))
            }
            Err((e, end)) => {
                skip_to = end;
                failed += end - shard;
                ShardTurn::Failed(e, shard..end)
            }
        };
        consumer.take(turn)?;
    }
    rep.wall_seconds = t0.elapsed().as_secs_f64();
    let more = [
        ("shards", (n - failed).to_string()),
        ("failed", failed.to_string()),
        ("shard_requeues", rep.shard_requeues.to_string()),
        ("ctx_rebuilds", rep.ctx_rebuilds.to_string()),
        ("prefetch_builds", rep.prefetch_builds.to_string()),
        ("wall_ms", format!("{:.1}", rep.wall_seconds * 1000.0)),
    ];
    sweep_event("sweep_done", &more);
    Ok(rep)
}

/// [`run_ensemble`] keeps a sweep's shards in an [`EnsembleReport`]: it
/// holds nothing, so every group evolves; a twin gets a clone of its
/// evolved shard's outputs, and a failed group is quarantined whole.
impl SweepConsumer for EnsembleReport {
    type Error = FarmError;

    fn holds(&self, _shard: usize) -> bool {
        false
    }

    fn take(&mut self, turn: ShardTurn) -> Result<(), FarmError> {
        match turn {
            ShardTurn::Done(mut r) => {
                if r.evolved_by != r.shard {
                    let first = self.results.iter().rev().find(|e| e.shard == r.evolved_by);
                    r.report.outputs = first.map(|e| e.report.outputs.clone()).unwrap_or_default();
                }
                self.results.push(*r);
            }
            ShardTurn::Failed(e, shards) => {
                self.failed.extend(shards.map(|i| (i, e.to_string())));
            }
            // it holds nothing, so no shard comes back held
            ShardTurn::Held(_) => {}
        }
        Ok(())
    }
}

/// Drive a whole sweep over one warm pool and collect every shard: visit
/// the `n_s` groups in canonical order, run each group's first shard as
/// an ordinary pooled job with the *next* group's first shard as its
/// prefetch hint, hand the group's other shards a clone of the outputs,
/// re-run a job that fails (budgeted), and quarantine a group whose
/// budget is spent.
///
/// Cancellation propagates immediately: a fired deadline or cancel flag
/// in `ctrl` aborts the in-flight job cooperatively and returns
/// [`FarmError::Cancelled`]; finished shards' results are dropped with
/// the error exactly as a cancelled single job drops its partial
/// outputs (callers that want partial sweeps send them to the service
/// instead, where every finished shard is cached).
pub fn run_ensemble<P: ShardRunner>(
    pool: &mut P,
    ens: &EnsembleSpec,
    opts: &EnsembleOptions,
    ctrl: &JobControl<'_>,
) -> Result<EnsembleReport, FarmError> {
    let mut kept = EnsembleReport::default();
    let walked = walk(
        |s, p, c, h| pool.run_shard(s, p, c, h),
        ens,
        opts,
        ctrl,
        &mut kept,
    )?;
    let (results, failed) = (kept.results, kept.failed);
    Ok(EnsembleReport {
        results,
        failed,
        ..walked
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use boltzmann::Preset;
    use std::sync::atomic::AtomicBool;

    fn sweep_3x2x2() -> EnsembleSpec {
        let mut base = RunSpec::standard_cdm(vec![0.002, 0.01, 0.03]);
        base.preset = Preset::Draft;
        EnsembleSpec {
            base,
            omega_b: vec![0.04, 0.05, 0.06],
            h: vec![0.5, 0.7],
            n_s: vec![0.95, 1.0],
        }
    }

    #[test]
    fn canonical_index_order_is_ns_fastest() {
        let ens = sweep_3x2x2();
        assert_eq!(ens.n_shards(), 12);
        assert_eq!(ens.shard_point(0), (0.04, 0.5, 0.95));
        assert_eq!(ens.shard_point(1), (0.04, 0.5, 1.0));
        assert_eq!(ens.shard_point(2), (0.04, 0.7, 0.95));
        assert_eq!(ens.shard_point(4), (0.05, 0.5, 0.95));
        assert_eq!(ens.shard_point(11), (0.06, 0.7, 1.0));
    }

    #[test]
    fn wire_roundtrip_is_lossless_and_stable() {
        let ens = sweep_3x2x2();
        let wire = ens.encode();
        let back = EnsembleSpec::decode(&wire).unwrap();
        assert_eq!(back, ens);
        assert_eq!(back.encode(), wire, "re-encoding must be byte-stable");
        assert_eq!(ensemble_hash(&back), ensemble_hash(&ens));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let ens = sweep_3x2x2();
        let wire = ens.encode();
        assert_eq!(
            EnsembleSpec::decode(&wire[..2]),
            Err(EnsembleDecodeError::TooShort { got: 2 })
        );
        let mut empty = wire.clone();
        empty[1] = 0.0;
        assert_eq!(
            EnsembleSpec::decode(&empty),
            Err(EnsembleDecodeError::EmptyAxis)
        );
        assert_eq!(
            EnsembleSpec::decode(&wire[..6]),
            Err(EnsembleDecodeError::AxisMismatch { want: 10, got: 6 })
        );
        for (axis, bad) in [(0, f64::INFINITY), (1, 2.5), (2, f64::NAN), (2, -1.0)] {
            let mut wire = wire.clone();
            wire[axis] = bad;
            let bits = bad.to_bits();
            assert_eq!(
                EnsembleSpec::decode(&wire),
                Err(EnsembleDecodeError::BadCount { axis, bits })
            );
        }
        // each a count, together past `usize`: still a length error
        let mut huge = wire.clone();
        huge[..3].fill(1.8e19);
        assert_eq!(
            EnsembleSpec::decode(&huge),
            Err(EnsembleDecodeError::AxisMismatch {
                want: usize::MAX,
                got: wire.len()
            })
        );
        let mut truncated = wire.clone();
        truncated.pop();
        assert!(matches!(
            EnsembleSpec::decode(&truncated),
            Err(EnsembleDecodeError::Base(_))
        ));
    }

    #[test]
    fn shard_hash_matches_hand_built_spec() {
        let ens = sweep_3x2x2();
        for i in 0..ens.n_shards() {
            let (ob, h, ns) = ens.shard_point(i);
            let mut spec = ens.base.clone();
            spec.cosmo.omega_b = ob;
            spec.cosmo.h = h;
            spec.cosmo.n_s = ns;
            // the sweep trades Ω_b against Ω_c to keep the base's
            // curvature — part of the shard's canonical identity
            spec.cosmo.omega_c += spec.cosmo.omega_k() - ens.base.cosmo.omega_k();
            assert_eq!(ens.shard_hash(i), job_hash(&spec), "shard {i}");
        }
    }

    #[test]
    fn shard_cosmos_keep_the_base_curvature() {
        let ens = sweep_3x2x2();
        let base_k = ens.base.cosmo.omega_k();
        for i in 0..ens.n_shards() {
            let k = ens.shard_cosmo(i).omega_k();
            assert!(
                (k - base_k).abs() < 1e-12,
                "shard {i}: Ω_k = {k}, base {base_k}"
            );
        }
    }

    /// A scripted pool: returns an empty report per job, failing the
    /// first `failures_left` attempts of one poisoned job.
    struct ScriptedPool {
        poisoned: u64,
        failures_left: usize,
        jobs: Vec<u64>,
        prefetches: Vec<Option<u64>>,
    }

    impl ScriptedPool {
        fn new(poisoned: u64, failures_left: usize) -> Self {
            Self {
                poisoned,
                failures_left,
                jobs: Vec::new(),
                prefetches: Vec::new(),
            }
        }

        fn sweep(&mut self, ens: &EnsembleSpec) -> EnsembleReport {
            run_ensemble(
                self,
                ens,
                &EnsembleOptions::default(),
                &JobControl::default(),
            )
            .expect("scripted sweep")
        }
    }

    impl ShardRunner for ScriptedPool {
        fn run_shard(
            &mut self,
            spec: &RunSpec,
            _policy: SchedulePolicy,
            _ctrl: &JobControl<'_>,
            prefetch: Option<&RunSpec>,
        ) -> Result<FarmReport, FarmError> {
            let job = job_hash(spec);
            self.jobs.push(job);
            self.prefetches.push(prefetch.map(job_hash));
            if job == self.poisoned && self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(FarmError::AllWorkersLost { unfinished: vec![] });
            }
            Ok(FarmReport::default())
        }
    }

    /// `(shard, evolved_by, attempts)` of every result, in report order.
    fn ledger(rep: &EnsembleReport) -> Vec<(usize, usize, usize)> {
        rep.results
            .iter()
            .map(|r| (r.shard, r.evolved_by, r.attempts))
            .collect()
    }

    #[test]
    fn pool_sees_one_job_per_evolution_and_hints_name_the_next_group() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool::new(0, 0);
        let rep = pool.sweep(&ens);
        // 3×2 (Ω_b, h) points, each evolved under its first n_s shard
        let evolved: Vec<u64> = (0..12).step_by(2).map(|i| ens.shard_hash(i)).collect();
        assert_eq!(pool.jobs, evolved);
        let mut hints: Vec<Option<u64>> = evolved[1..].iter().copied().map(Some).collect();
        hints.push(None);
        assert_eq!(pool.prefetches, hints, "a hint names the next group");
        // every shard reported, canonically, under its own identity
        let want: Vec<_> = (0..12).map(|i| (i, i - i % 2, 1 - i % 2)).collect();
        assert_eq!(ledger(&rep), want);
        for r in &rep.results {
            assert_eq!(r.job, ens.shard_hash(r.shard));
            assert_eq!(r.cosmo, ens.shard_cosmo(r.shard));
        }
        assert_eq!(rep.evolutions(), 6);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.shard_requeues, 0);
    }

    #[test]
    fn single_point_ns_axis_runs_every_shard_with_its_successor_as_hint() {
        let ens = EnsembleSpec {
            n_s: vec![0.95],
            ..sweep_3x2x2()
        };
        let mut pool = ScriptedPool::new(0, 0);
        let rep = pool.sweep(&ens);
        let n = ens.n_shards();
        assert_eq!(n, 6);
        for i in 0..n {
            assert_eq!(pool.jobs[i], ens.shard_hash(i));
            let next = (i + 1 < n).then(|| ens.shard_hash(i + 1));
            assert_eq!(
                pool.prefetches[i], next,
                "shard {i} must announce its successor"
            );
        }
        assert_eq!(pool.jobs.len(), n);
        let want: Vec<_> = (0..n).map(|i| (i, i, 1)).collect();
        assert_eq!(ledger(&rep), want);
    }

    #[test]
    fn failed_evolution_is_rerun_at_once_then_serves_its_group() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool::new(ens.shard_hash(4), 1);
        let rep = pool.sweep(&ens);
        assert_eq!(rep.results.len(), 12, "every shard finishes");
        assert_eq!(rep.shard_requeues, 1);
        assert!(rep.failed.is_empty());
        // the retry ran immediately after the failure, with the same hint
        assert_eq!(pool.jobs.len(), 7);
        assert_eq!(pool.jobs[2], ens.shard_hash(4));
        assert_eq!(pool.jobs[3], ens.shard_hash(4));
        assert_eq!(pool.prefetches[2], pool.prefetches[3]);
        let want: Vec<_> = (0..12)
            .map(|i| (i, i - i % 2, if i == 4 { 2 } else { 1 - i % 2 }))
            .collect();
        assert_eq!(ledger(&rep), want);
    }

    #[test]
    fn attempt_budget_exhaustion_quarantines_the_whole_group() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool::new(ens.shard_hash(0), 99);
        let rep = pool.sweep(&ens);
        assert_eq!(rep.shard_requeues, 1, "budget is 2 attempts by default");
        let failed: Vec<usize> = rep.failed.iter().map(|(i, _)| *i).collect();
        assert_eq!(failed, [0, 1], "a twin falls with the shard that evolves");
        let finished: Vec<usize> = rep.results.iter().map(|r| r.shard).collect();
        assert_eq!(finished, (2..12).collect::<Vec<_>>());
        // two attempts under shard 0's name, none under its twin's
        assert_eq!(pool.jobs[..2], [ens.shard_hash(0); 2]);
        assert!(!pool.jobs[2..].contains(&ens.shard_hash(0)));
        assert!(!pool.jobs.contains(&ens.shard_hash(1)));
        assert_eq!(pool.jobs.len(), 7);
    }

    #[test]
    fn cancel_between_shards_propagates() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool::new(0, 0);
        let flag = AtomicBool::new(true);
        let ctrl = JobControl {
            cancel: Some(&flag),
            ..JobControl::default()
        };
        match run_ensemble(&mut pool, &ens, &EnsembleOptions::default(), &ctrl) {
            Err(FarmError::Cancelled { reason, .. }) => {
                assert_eq!(reason, CancelReason::Cancelled)
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(pool.jobs.is_empty(), "no shard may start after the trigger");
    }
}
