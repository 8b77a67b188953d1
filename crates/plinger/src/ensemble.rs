//! Ensemble sharding: one warm pool servicing a whole parameter sweep.
//!
//! Real consumers of a Boltzmann solver — MCMC chains, emulator
//! training, Fisher forecasts — need thousands of spectra over a
//! cosmology grid, not one.  The farm already parallelizes over `k`
//! *within* one cosmology; this module adds the outer level: an
//! [`EnsembleSpec`] names axes over `Ω_b`, `h`, and `n_s` against a
//! base [`RunSpec`], and [`run_ensemble`] drives the resulting shard
//! queue over a [`FarmPool`], one pooled job per
//! shard, multiplexed onto the inner chunked k-scheduler.
//!
//! Three properties make this more than a `for` loop:
//!
//! * **Determinism** — each shard runs as an ordinary pooled job with
//!   identical dispatch semantics, so the sweep's outputs are bitwise
//!   identical to a serial loop of single-cosmology
//!   [`run_job`](crate::FarmPool::run_job) calls (pinned per transport
//!   in `tests/ensemble_pinning.rs`).  Shard priorities reorder which
//!   shard runs *when*, never what a shard computes.
//! * **One context build per cosmology, one shard ahead** — every
//!   shard opens with a tag-13 hint naming the *next* shard, sent to
//!   each rank just before its tag-10 job start.  The pool's ranks share
//!   one [`TableCache`](crate::TableCache), so exactly one of them
//!   claims the hint and builds the next cosmology's background/thermo
//!   tables while the others start on this shard's largest modes; the
//!   next shard then opens with `ctx_rebuilds == 0` everywhere and the
//!   build shows up as this shard's one
//!   [`prefetch_builds`](crate::WorkerStats::prefetch_builds).  A sweep
//!   of `n` shards builds `n` contexts per process.
//! * **Two-level recovery** — inside a shard the existing
//!   requeue/heartbeat/respawn machinery applies unchanged, and each
//!   shard keeps its own recovery ledger (its [`FarmReport`]); a shard
//!   whose *job* fails outright is requeued whole, budgeted by
//!   [`EnsembleOptions::max_shard_attempts`], and quarantined into
//!   [`EnsembleReport::failed`] once the budget is spent.

use std::collections::VecDeque;
use std::time::Instant;

use background::CosmoParams;
use msgpass::World;
use telemetry::log::{self as tlog, Level};

use crate::error::FarmError;
use crate::farm::FarmReport;
use crate::master::JobControl;
use crate::pool::{FarmPool, TcpFarmPool};
use crate::protocol::{hash_reals, job_hash, RunSpec, SpecDecodeError};
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
    /// An axis count is zero (an empty axis defines no shards).
    EmptyAxis,
    /// Payload too short for the axis lengths it declares.
    AxisMismatch {
        /// Reals needed for the declared axes (counts included).
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
            3 + self.omega_b.len() + self.h.len() + self.n_s.len() + 19 + self.base.ks.len() + 1,
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
    /// base spec's own decoder polices the tail, so a truncated or
    /// padded payload is an error, not a garbled sweep.
    pub fn decode(v: &[f64]) -> Result<Self, EnsembleDecodeError> {
        if v.len() < 3 {
            return Err(EnsembleDecodeError::TooShort { got: v.len() });
        }
        let n_ob = v[0] as usize;
        let n_h = v[1] as usize;
        let n_ns = v[2] as usize;
        if n_ob == 0 || n_h == 0 || n_ns == 0 {
            return Err(EnsembleDecodeError::EmptyAxis);
        }
        let want = 3 + n_ob + n_h + n_ns;
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
    /// Inner k-scheduling policy, applied to every shard.
    pub policy: SchedulePolicy,
    /// Optional shard priorities, one per shard in canonical index
    /// order: higher runs first (stable on ties, so equal priorities
    /// preserve canonical order).  `None` visits shards canonically.
    /// Priorities change only the visit order — per-shard results and
    /// hashes are order-independent.
    pub priorities: Option<Vec<f64>>,
    /// Whole-shard attempt budget: a shard whose job returns an error
    /// (other than cancellation) is requeued at the front of the shard
    /// queue until it has been attempted this many times, then recorded
    /// in [`EnsembleReport::failed`].  Minimum 1.
    pub max_shard_attempts: usize,
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        Self {
            policy: SchedulePolicy::LargestFirst,
            priorities: None,
            max_shard_attempts: 2,
        }
    }
}

impl EnsembleOptions {
    /// The shard visit order: canonical indices, stably sorted by
    /// descending priority when priorities are given.
    fn order(&self, n_shards: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n_shards).collect();
        if let Some(prio) = &self.priorities {
            order.sort_by(|&a, &b| {
                let pa = prio.get(a).copied().unwrap_or(0.0);
                let pb = prio.get(b).copied().unwrap_or(0.0);
                pb.partial_cmp(&pa).unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        order
    }
}

/// One finished shard: its canonical index, identity, and per-shard
/// report (whose recovery ledger is the shard's own — requeues,
/// heartbeat misses, and respawns inside this shard never bleed into
/// its neighbours).
#[derive(Debug)]
pub struct ShardResult {
    /// Canonical shard index.
    pub shard: usize,
    /// The shard's [`job_hash`] (its cache key).
    pub job: u64,
    /// The shard's cosmology.
    pub cosmo: CosmoParams,
    /// Job attempts this shard consumed (1 on an undisturbed run).
    pub attempts: usize,
    /// The shard's own per-job farm report.
    pub report: FarmReport,
}

/// What an ensemble run hands back: per-shard results in canonical
/// shard order plus sweep-level accounting.
#[derive(Debug, Default)]
pub struct EnsembleReport {
    /// Finished shards, sorted by canonical index.
    pub results: Vec<ShardResult>,
    /// Shards that exhausted their attempt budget: `(index, error)`.
    pub failed: Vec<(usize, String)>,
    /// Wall-clock seconds of the whole sweep.
    pub wall_seconds: f64,
    /// Whole-shard requeues taken (0 on an undisturbed sweep).
    pub shard_requeues: usize,
    /// Table builds done at a shard's start, summed over all shard
    /// reports: cosmologies no hint had announced (the sweep's first
    /// shard, and any shard whose hint was lost).
    pub ctx_rebuilds: usize,
    /// Table builds done answering next-shard hints, one shard ahead of
    /// their use.  `ctx_rebuilds + prefetch_builds` is builds per
    /// process: `n_shards` on an undisturbed sweep over a thread pool,
    /// `n_shards × workers` over a [`TcpFarmPool`]'s child processes.
    pub prefetch_builds: usize,
}

impl EnsembleReport {
    /// Modes completed across every shard.
    pub fn total_modes(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.report.completion_log.len())
            .sum()
    }
}

/// The pool-side contract the ensemble scheduler drives: one job with
/// optional control and a next-job prefetch hint.  Implemented by both
/// [`FarmPool`] and [`TcpFarmPool`]; tests substitute a scripted pool
/// to exercise shard-level recovery without physics.
pub trait ShardRunner {
    /// Run one shard's job, optionally announcing the next shard.
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

impl ShardRunner for TcpFarmPool {
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

/// Drive a whole sweep over one warm pool: pop shards off the outer
/// queue (in priority order), run each as an ordinary pooled job with
/// the *next* queued shard as its prefetch hint, requeue a shard whose
/// job fails (budgeted), and collect per-shard reports.
///
/// Cancellation propagates immediately: a fired deadline or cancel flag
/// in `ctrl` aborts the in-flight shard cooperatively and returns
/// [`FarmError::Cancelled`]; finished shards' results are dropped with
/// the error exactly as a cancelled single job drops its partial
/// outputs (callers that want partial sweeps run shard-sized requests
/// through the service instead, where every finished shard is cached).
pub fn run_ensemble<P: ShardRunner>(
    pool: &mut P,
    ens: &EnsembleSpec,
    opts: &EnsembleOptions,
    ctrl: &JobControl<'_>,
) -> Result<EnsembleReport, FarmError> {
    let t0 = Instant::now();
    let n = ens.n_shards();
    let sweep = ensemble_hash(ens);
    let mut queue: VecDeque<usize> = opts.order(n).into();
    let mut attempts = vec![0usize; n];
    let mut rep = EnsembleReport::default();
    tlog::log(
        Level::Info,
        "ensemble",
        "sweep_start",
        &[
            ("ensemble", tlog::job_hex(sweep)),
            ("shards", n.to_string()),
        ],
    );
    while let Some(si) = queue.pop_front() {
        if let Some(reason) = ctrl.triggered() {
            // between shards: nothing in flight to drain, but the sweep
            // must stop just as promptly as a mid-shard trigger would
            return Err(FarmError::Cancelled {
                reason,
                unfinished: Vec::new(),
            });
        }
        attempts[si] += 1;
        let spec = ens.shard_spec(si);
        let job = job_hash(&spec);
        let label = tlog::shard_label(sweep, si);
        let prefetch_spec = queue.front().map(|&nj| ens.shard_spec(nj));
        tlog::log(
            Level::Info,
            "ensemble",
            "shard_start",
            &[
                ("shard", label.clone()),
                ("job", tlog::job_hex(job)),
                ("attempt", attempts[si].to_string()),
            ],
        );
        match pool.run_shard(&spec, opts.policy, ctrl, prefetch_spec.as_ref()) {
            Ok(report) => {
                rep.ctx_rebuilds += report
                    .worker_stats
                    .iter()
                    .map(|w| w.ctx_rebuilds)
                    .sum::<usize>();
                rep.prefetch_builds += report
                    .worker_stats
                    .iter()
                    .map(|w| w.prefetch_builds)
                    .sum::<usize>();
                tlog::log(
                    Level::Info,
                    "ensemble",
                    "shard_done",
                    &[
                        ("shard", label),
                        ("job", tlog::job_hex(job)),
                        ("modes", report.completion_log.len().to_string()),
                        ("requeues", report.recovery.requeues.to_string()),
                    ],
                );
                rep.results.push(ShardResult {
                    shard: si,
                    job,
                    cosmo: spec.cosmo,
                    attempts: attempts[si],
                    report,
                });
            }
            Err(e @ FarmError::Cancelled { .. }) => return Err(e),
            Err(e) if attempts[si] < opts.max_shard_attempts.max(1) => {
                rep.shard_requeues += 1;
                tlog::log(
                    Level::Warn,
                    "ensemble",
                    "shard_requeue",
                    &[
                        ("shard", label),
                        ("job", tlog::job_hex(job)),
                        ("reason", e.to_string()),
                    ],
                );
                queue.push_front(si);
            }
            Err(e) => {
                tlog::log(
                    Level::Error,
                    "ensemble",
                    "shard_failed",
                    &[
                        ("shard", label),
                        ("job", tlog::job_hex(job)),
                        ("reason", e.to_string()),
                    ],
                );
                rep.failed.push((si, e.to_string()));
            }
        }
    }
    rep.results.sort_by_key(|r| r.shard);
    rep.wall_seconds = t0.elapsed().as_secs_f64();
    tlog::log(
        Level::Info,
        "ensemble",
        "sweep_done",
        &[
            ("ensemble", tlog::job_hex(sweep)),
            ("shards", rep.results.len().to_string()),
            ("failed", rep.failed.len().to_string()),
            ("shard_requeues", rep.shard_requeues.to_string()),
            ("ctx_rebuilds", rep.ctx_rebuilds.to_string()),
            ("prefetch_builds", rep.prefetch_builds.to_string()),
            ("wall_ms", format!("{:.1}", rep.wall_seconds * 1000.0)),
        ],
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CancelReason;
    use crate::recovery::RecoveryLog;
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

    #[test]
    fn priorities_reorder_but_preserve_canonical_ties() {
        let opts = EnsembleOptions {
            priorities: Some(vec![0.0, 5.0, 1.0, 5.0]),
            ..EnsembleOptions::default()
        };
        assert_eq!(opts.order(4), vec![1, 3, 2, 0]);
        let default = EnsembleOptions::default();
        assert_eq!(default.order(4), vec![0, 1, 2, 3]);
    }

    /// A scripted pool: returns an empty report per shard, failing the
    /// first `fail_first` attempts of one poisoned shard.
    struct ScriptedPool {
        poisoned: u64,
        failures_left: usize,
        jobs: Vec<u64>,
        prefetches: Vec<Option<u64>>,
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
            Ok(FarmReport {
                outputs: Vec::new(),
                wall_seconds: 0.0,
                worker_stats: Vec::new(),
                bytes_received: 0,
                completion_log: Vec::new(),
                telemetry: crate::report::FarmTelemetry::default(),
                recovery: RecoveryLog::default(),
            })
        }
    }

    #[test]
    fn failed_shard_is_requeued_whole_then_succeeds() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool {
            poisoned: ens.shard_hash(5),
            failures_left: 1,
            jobs: Vec::new(),
            prefetches: Vec::new(),
        };
        let rep = run_ensemble(
            &mut pool,
            &ens,
            &EnsembleOptions::default(),
            &JobControl::default(),
        )
        .unwrap();
        assert_eq!(rep.results.len(), 12, "every shard finishes");
        assert_eq!(rep.shard_requeues, 1);
        assert!(rep.failed.is_empty());
        // the retry ran immediately after the failure (front requeue)
        assert_eq!(pool.jobs[5], ens.shard_hash(5));
        assert_eq!(pool.jobs[6], ens.shard_hash(5));
        assert_eq!(rep.results[5].attempts, 2);
        assert_eq!(rep.results[4].attempts, 1);
    }

    #[test]
    fn attempt_budget_exhaustion_quarantines_the_shard() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool {
            poisoned: ens.shard_hash(0),
            failures_left: 99,
            jobs: Vec::new(),
            prefetches: Vec::new(),
        };
        let rep = run_ensemble(
            &mut pool,
            &ens,
            &EnsembleOptions::default(),
            &JobControl::default(),
        )
        .unwrap();
        assert_eq!(rep.results.len(), 11);
        assert_eq!(rep.failed.len(), 1);
        assert_eq!(rep.failed[0].0, 0);
        assert_eq!(rep.shard_requeues, 1, "budget is 2 attempts by default");
    }

    #[test]
    fn prefetch_hints_name_the_next_queued_shard() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool {
            poisoned: 0,
            failures_left: 0,
            jobs: Vec::new(),
            prefetches: Vec::new(),
        };
        run_ensemble(
            &mut pool,
            &ens,
            &EnsembleOptions::default(),
            &JobControl::default(),
        )
        .unwrap();
        let n = ens.n_shards();
        for i in 0..n - 1 {
            assert_eq!(
                pool.prefetches[i],
                Some(ens.shard_hash(i + 1)),
                "shard {i} must announce shard {}",
                i + 1
            );
        }
        assert_eq!(pool.prefetches[n - 1], None, "last shard has no successor");
    }

    #[test]
    fn cancel_between_shards_propagates() {
        let ens = sweep_3x2x2();
        let mut pool = ScriptedPool {
            poisoned: 0,
            failures_left: 0,
            jobs: Vec::new(),
            prefetches: Vec::new(),
        };
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
