//! The one-job front of the farm and the timing report behind
//! Figure 1.
//!
//! [`Farm`] is the paper's run shape — start the workers, farm one
//! k-grid, stop them — over any [`World`]: `Farm::<W>::run` starts a
//! [`FarmPool`] of worker threads, gives it one job and shuts it down,
//! so the channel and in-process TCP transports (the paper's "same
//! Fortran over PVM, MPI, MPL, PVMe" claim, as one generic type) and
//! the resident pools behind the service all run the same master and
//! worker sessions.  [`run_tcp_processes`] is the same
//! shape over [`FarmPool::start_processes`], whose workers are OS
//! subprocesses running [`run_tcp_worker`].

use std::marker::PhantomData;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use background::Background;
use boltzmann::{evolve_mode_scratch, ModeOutput};
use msgpass::fault::{FaultAction, FaultRule, FaultSpec, FaultWhen};
use msgpass::tcp::{connect_worker, TcpWorld};
use msgpass::{Rank, Tag, World};
use ode::Integrator;
use recomb::ThermoHistory;

use crate::error::FarmError;
use crate::master::MasterConfig;
use crate::pool::{FarmPool, PoolOptions};
use crate::protocol::{require_evolvable, RunSpec};
use crate::recovery::RecoveryLog;
use crate::report::FarmTelemetry;
use crate::schedule::SchedulePolicy;
use crate::tables::TableCache;
use crate::worker::{worker_pool_session, WorkerFault, WorkerStats};

/// Timing and throughput report of a farm run — the quantities Figure 1
/// and §5.1 of the paper plot.  The default is an empty report: what an
/// ensemble twin carries besides the outputs it shares.
#[derive(Debug, Default)]
pub struct FarmReport {
    /// Finished modes in grid order.  A quarantined mode leaves no
    /// entry here — its identity lives in `recovery.failed_modes`, and
    /// `outputs[j]` is the `j`-th *non-quarantined* mode of the grid.
    pub outputs: Vec<ModeOutput>,
    /// Master wall-clock seconds.
    pub wall_seconds: f64,
    /// Per-worker statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Bytes moved worker → master.
    pub bytes_received: usize,
    /// Completion order `(ik, worker)`.
    pub completion_log: Vec<(usize, usize)>,
    /// Measured telemetry: per-endpoint message counters, the span
    /// timeline, master idle time.  Empty when telemetry is disabled.
    pub telemetry: FarmTelemetry,
    /// Every recovery action the master took: requeues, heartbeat
    /// misses, respawns, quarantined modes.  Clean on an undisturbed
    /// run.
    pub recovery: RecoveryLog,
}

impl FarmReport {
    /// Refuse a report that quarantined modes, as
    /// [`FarmError::Quarantined`] naming them: a spectrum missing modes
    /// is never served, cached or written out.
    pub fn require_complete(&self) -> Result<(), FarmError> {
        if self.recovery.failed_modes.is_empty() {
            return Ok(());
        }
        Err(FarmError::Quarantined {
            modes: self.recovery.failed_modes.clone(),
        })
    }

    /// Total CPU time summed over workers (the filled circles of
    /// Figure 1), in seconds.
    pub fn total_cpu_seconds(&self) -> f64 {
        self.worker_stats.iter().map(|s| s.busy_seconds).sum()
    }

    /// Parallel efficiency: `total CPU / (wall × workers)` — the paper
    /// reports ≈ 95% on 64 SP2 nodes.
    pub fn parallel_efficiency(&self) -> f64 {
        let n = self.worker_stats.len() as f64;
        if n == 0.0 || self.wall_seconds == 0.0 {
            return 0.0;
        }
        self.total_cpu_seconds() / (self.wall_seconds * n)
    }

    /// Total counted floating-point operations across all modes.
    pub fn total_flops(&self) -> u64 {
        self.outputs.iter().map(|o| o.stats.total_flops()).sum()
    }

    /// Aggregate flop rate in Mflop/s over the wall time (§5.1).
    /// A degenerate run with no measurable wall time reports 0 rather
    /// than dividing by zero.
    pub fn mflops(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.total_flops() as f64 / self.wall_seconds / 1.0e6
    }

    /// Total worker idle time in seconds: `Σ max(total − busy, 0)` over
    /// workers — the quantity the paper's largest-k-first scheduling
    /// "minimized".  A report with no workers (or no measured time)
    /// reads 0.
    pub fn idle_seconds(&self) -> f64 {
        self.worker_stats
            .iter()
            .map(|w| (w.total_seconds - w.busy_seconds).max(0.0))
            .sum()
    }

    /// Load imbalance as `max(busy) / mean(busy)` over workers: 1.0 is
    /// a perfectly balanced farm, larger values mean some worker
    /// carried disproportionate load.  Degenerate cases — no workers,
    /// or no measured busy time at all — read 0.
    pub fn load_imbalance(&self) -> f64 {
        let n = self.worker_stats.len();
        if n == 0 {
            return 0.0;
        }
        let total: f64 = self.worker_stats.iter().map(|w| w.busy_seconds).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let max = self
            .worker_stats
            .iter()
            .map(|w| w.busy_seconds)
            .fold(0.0, f64::max);
        max / (total / n as f64)
    }
}

/// Fault injection for session-layer tests: what to break, where.
///
/// Worker-level plans (`DropWorker`, `StallWorker`, `FailMode`) are
/// carried into the worker session as a [`WorkerFault`]; message-level
/// plans (`CorruptPayload`, `DropMessage`) become a deterministic
/// [`FaultSpec`] applied at the transport seam of every endpoint — a
/// rule only fires on the endpoint that actually sends the targeted
/// tag.  On a thread pool every endpoint is wrapped, so all variants
/// act.  On a subprocess pool ([`FarmPool::start_processes`]) the
/// worker-level plans ride a hidden CLI argument into the children, and
/// the message-level ones wrap the master's endpoint only: they act on
/// the master's own sends (a tag-3 drop, a tag-1 corruption), never on
/// what the children send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlan {
    /// Worker `rank` silently vanishes (thread returns without any
    /// goodbye message) when handed its `after_modes + 1`-th assignment.
    DropWorker {
        /// Rank to kill (1-based; rank 0 is the master).
        rank: Rank,
        /// Assignments the worker completes before dying.
        after_modes: usize,
    },
    /// Worker `rank` goes silent for `stall` when handed its
    /// `after_modes + 1`-th assignment, then vanishes — a hang the
    /// master's heartbeat timeout must catch.
    StallWorker {
        /// Rank to hang (1-based).
        rank: Rank,
        /// Assignments the worker completes before hanging.
        after_modes: usize,
        /// How long the worker stays silent before vanishing.
        stall: Duration,
    },
    /// Every worker reports mode `ik` as failed (tag 8) instead of
    /// integrating it — a poison mode that exhausts its retry budget.
    FailMode {
        /// The poisoned mode index.
        ik: usize,
    },
    /// The first message with this tag sent by any single endpoint has
    /// its payload corrupted (truncated + NaN-poisoned) in transit.
    CorruptPayload {
        /// Wire tag to corrupt (e.g. 5 for the result payload).
        tag: Tag,
    },
    /// The `nth` message (0-based, counted per endpoint) with this tag
    /// is silently dropped in transit.
    DropMessage {
        /// Wire tag to drop (e.g. 3 for an assignment).
        tag: Tag,
        /// Which matching message to drop, 0-based.
        nth: u64,
    },
}

impl FaultPlan {
    /// The worker-level fault rank `rank` should run under this plan.
    pub(crate) fn worker_fault(&self, rank: Rank) -> Option<WorkerFault> {
        match *self {
            FaultPlan::DropWorker {
                rank: r,
                after_modes,
            } if r == rank => Some(WorkerFault::Vanish { after_modes }),
            FaultPlan::StallWorker {
                rank: r,
                after_modes,
                stall,
            } if r == rank => Some(WorkerFault::Stall { after_modes, stall }),
            FaultPlan::FailMode { ik } => Some(WorkerFault::FailMode { ik }),
            _ => None,
        }
    }

    /// The transport-level fault script this plan injects (passthrough
    /// for worker-level plans).
    pub(crate) fn fault_spec(&self) -> FaultSpec {
        match *self {
            FaultPlan::CorruptPayload { tag } => FaultSpec {
                seed: 0,
                rules: vec![FaultRule {
                    tag: Some(tag),
                    action: FaultAction::Corrupt,
                    when: FaultWhen::Nth(0),
                }],
            },
            FaultPlan::DropMessage { tag, nth } => FaultSpec {
                seed: 0,
                rules: vec![FaultRule {
                    tag: Some(tag),
                    action: FaultAction::Drop,
                    when: FaultWhen::Nth(nth),
                }],
            },
            _ => FaultSpec::passthrough(),
        }
    }
}

/// A transport-generic farm run: a [`FarmPool`] of one job.
///
/// ```no_run
/// use msgpass::channel::ChannelWorld;
/// use plinger::{Farm, RunSpec, SchedulePolicy};
///
/// let spec = RunSpec::standard_cdm(vec![0.001, 0.01, 0.1]);
/// let report = Farm::<ChannelWorld>::new(4)
///     .run(&spec, SchedulePolicy::LargestFirst)
///     .expect("farm run");
/// println!("{:.1} Mflop/s", report.mflops());
/// ```
pub struct Farm<W: World> {
    n_workers: usize,
    config: MasterConfig,
    fault: Option<FaultPlan>,
    _world: PhantomData<W>,
}

impl<W: World> Farm<W> {
    /// A farm with `n_workers` workers over transport `W` and default
    /// timing.
    pub fn new(n_workers: usize) -> Self {
        Self {
            n_workers,
            config: MasterConfig::default(),
            fault: None,
            _world: PhantomData,
        }
    }

    /// Replace the master timings (see [`MasterConfig`]).
    pub fn master_config(mut self, config: MasterConfig) -> Self {
        self.config = config;
        self
    }

    /// Inject a fault (tests only): see [`FaultPlan`].
    pub fn fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Run one complete session: start a `(n_workers + 1)`-rank pool
    /// (never respawning — a one-job farm redistributes instead), run
    /// the job, stop the workers, and account the run.  The workers'
    /// span timelines, harvested at the shutdown joins, are appended to
    /// the report's.
    pub fn run(&self, spec: &RunSpec, policy: SchedulePolicy) -> Result<FarmReport, FarmError> {
        let opts = PoolOptions {
            respawn_limit: 0,
            fault: self.fault,
        };
        run_one_job(
            FarmPool::<W>::start_with(self.n_workers, self.config, opts)?,
            spec,
            policy,
        )
    }
}

/// The one-job tail of [`Farm::run`] and [`run_tcp_processes`]: run the
/// job, stop the workers, and append the span timelines harvested at
/// their joins to the report.
fn run_one_job<W: World>(
    mut pool: FarmPool<W>,
    spec: &RunSpec,
    policy: SchedulePolicy,
) -> Result<FarmReport, FarmError> {
    let report = pool.run_job(spec, policy);
    let worker_spans = pool.shutdown().worker_spans;
    let mut report = report?;
    report.telemetry.spans.extend(worker_spans);
    Ok(report)
}

/// Fold a completed ledger into a report, verifying every mode slot is
/// filled (the master loop guarantees this on success) — except slots
/// the session explicitly quarantined, which are accounted in the
/// recovery log instead.  `comm` carries the measured per-endpoint
/// counters in rank order.
pub(crate) fn finish_report(
    ledger: crate::master::MasterLedger,
    comm: Vec<msgpass::instrument::CommSnapshot>,
) -> Result<FarmReport, FarmError> {
    let quarantined: std::collections::HashSet<usize> =
        ledger.recovery.failed_modes.iter().map(|f| f.ik).collect();
    let mut outputs = Vec::with_capacity(ledger.outputs.len());
    for (ik, slot) in ledger.outputs.into_iter().enumerate() {
        match slot {
            Some(out) => outputs.push(out),
            None if quarantined.contains(&ik) => {}
            None => {
                return Err(FarmError::Protocol {
                    rank: 0,
                    detail: format!("mode ik={ik} missing from a completed session"),
                })
            }
        }
    }
    Ok(FarmReport {
        outputs,
        wall_seconds: ledger.wall_seconds,
        worker_stats: ledger.worker_stats,
        bytes_received: ledger.bytes_received,
        completion_log: ledger.completion_log,
        telemetry: FarmTelemetry {
            comm,
            spans: ledger.spans,
            master_idle_seconds: ledger.idle_seconds,
        },
        recovery: ledger.recovery,
    })
}

/// The serial reference: LINGER's main loop over `k`, no message
/// passing.  Used for correctness comparison (the farm must be
/// bit-identical mode for mode) and as the single-node baseline of the
/// scaling figure.  A cosmology the pools would refuse is refused here
/// too ([`FarmError::BadParam`], [`FarmError::NotFlat`]).
pub fn run_serial(spec: &RunSpec) -> Result<(Vec<ModeOutput>, f64), FarmError> {
    require_evolvable(&spec.cosmo)?;
    let t0 = std::time::Instant::now();
    let bg = Background::new(spec.cosmo.clone());
    let thermo = ThermoHistory::new(&bg);
    let cfg = spec.mode_config();
    let mut outputs = Vec::with_capacity(spec.ks.len());
    // one integrator across the whole loop: its stage buffers keep
    // their capacity from mode to mode (bit-identical to a fresh one)
    let mut integ = Integrator::new();
    for (ik, &k) in spec.ks.iter().enumerate() {
        let out = evolve_mode_scratch(&bg, &thermo, k, &cfg, None, &mut integ)
            .map_err(|source| FarmError::Evolve { ik, k, source })?;
        outputs.push(out);
    }
    Ok((outputs, t0.elapsed().as_secs_f64()))
}

/// Parse the hidden fault argument a `--tcp-worker` subprocess may
/// receive: `vanish:N`, `stall:N:MS`, or `failmode:IK`.
pub fn parse_worker_fault(s: &str) -> Option<WorkerFault> {
    let mut parts = s.split(':');
    match parts.next()? {
        "vanish" => Some(WorkerFault::Vanish {
            after_modes: parts.next()?.parse().ok()?,
        }),
        "stall" => Some(WorkerFault::Stall {
            after_modes: parts.next()?.parse().ok()?,
            stall: Duration::from_millis(parts.next()?.parse().ok()?),
        }),
        "failmode" => Some(WorkerFault::FailMode {
            ik: parts.next()?.parse().ok()?,
        }),
        _ => None,
    }
}

/// Run the farm with OS-subprocess workers over localhost TCP: a
/// [`FarmPool::start_processes`] pool of `n_workers` copies of `exe`,
/// one job, shutdown.
pub fn run_tcp_processes(
    spec: &RunSpec,
    policy: SchedulePolicy,
    n_workers: usize,
    exe: &Path,
    config: MasterConfig,
    opts: PoolOptions,
) -> Result<FarmReport, FarmError> {
    run_one_job(
        FarmPool::<TcpWorld>::start_processes(n_workers, exe, config, opts)?,
        spec,
        policy,
    )
}

/// Entry point for a `--tcp-worker` subprocess: connect to the master
/// and serve jobs until stopped, under an optional scripted fault.
///
/// The process owns its own [`TableCache`], so its physics tables stay
/// warm between jobs and each tag-13 hint is its alone to claim.
pub fn run_tcp_worker(
    addr: SocketAddr,
    rank: Rank,
    size: usize,
    fault: Option<WorkerFault>,
) -> Result<(), FarmError> {
    let mut ep = connect_worker(addr, rank, size).map_err(FarmError::Setup)?;
    worker_pool_session(&mut ep, fault, Instant::now(), &TableCache::new())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::FailedMode;
    use boltzmann::Preset;
    use msgpass::channel::ChannelWorld;

    fn tiny_spec() -> RunSpec {
        let mut spec = RunSpec::standard_cdm(vec![0.001, 0.004, 0.02, 0.008]);
        spec.preset = Preset::Draft;
        spec
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let spec = tiny_spec();
        let (serial, _) = run_serial(&spec).unwrap();
        let par = Farm::<ChannelWorld>::new(2)
            .run(&spec, SchedulePolicy::LargestFirst)
            .unwrap();
        assert_eq!(serial.len(), par.outputs.len());
        for (s, p) in serial.iter().zip(&par.outputs) {
            assert_eq!(s.k, p.k);
            // bitwise identity of the physics payload: same code path,
            // same operations, independent of transport and scheduling
            assert_eq!(s.delta_c.to_bits(), p.delta_c.to_bits(), "δ_c differs");
            assert_eq!(s.delta_b.to_bits(), p.delta_b.to_bits());
            assert_eq!(s.phi.to_bits(), p.phi.to_bits());
            assert_eq!(s.delta_t.len(), p.delta_t.len());
            for (a, b) in s.delta_t.iter().zip(&p.delta_t) {
                assert_eq!(a.to_bits(), b.to_bits(), "Θ_l differs");
            }
        }
    }

    #[test]
    fn report_accounting_is_consistent() {
        let spec = tiny_spec();
        let rep = Farm::<ChannelWorld>::new(3)
            .run(&spec, SchedulePolicy::LargestFirst)
            .unwrap();
        assert_eq!(rep.outputs.len(), 4);
        assert!(rep.wall_seconds > 0.0);
        assert!(rep.total_cpu_seconds() > 0.0);
        let eff = rep.parallel_efficiency();
        assert!(eff > 0.0 && eff <= 1.001, "efficiency = {eff}");
        assert!(rep.total_flops() > 1_000_000);
        assert!(rep.mflops() > 0.0);
        let modes: usize = rep.worker_stats.iter().map(|s| s.modes).sum();
        assert_eq!(modes, 4);
    }

    #[test]
    fn single_worker_farm_works() {
        let spec = tiny_spec();
        let rep = Farm::<ChannelWorld>::new(1)
            .run(&spec, SchedulePolicy::Fifo)
            .unwrap();
        assert_eq!(rep.outputs.len(), 4);
        // with one worker, completion order equals dispatch order
        let iks: Vec<usize> = rep.completion_log.iter().map(|&(ik, _)| ik).collect();
        assert_eq!(iks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scheduling_policies_cover_all_modes() {
        let spec = tiny_spec();
        for policy in [
            SchedulePolicy::LargestFirst,
            SchedulePolicy::SmallestFirst,
            SchedulePolicy::Fifo,
            SchedulePolicy::Random(7),
        ] {
            let rep = Farm::<ChannelWorld>::new(2).run(&spec, policy).unwrap();
            assert_eq!(rep.outputs.len(), 4, "{policy:?}");
            for (i, o) in rep.outputs.iter().enumerate() {
                assert_eq!(o.k, spec.ks[i], "{policy:?} slot {i}");
            }
        }
    }

    #[test]
    fn a_report_with_a_quarantined_mode_is_incomplete() {
        let mut rep = FarmReport::default();
        assert!(rep.require_complete().is_ok(), "a clean report passes");
        rep.recovery.failed_modes.push(FailedMode {
            ik: 2,
            k: 0.02,
            attempts: 2,
            reason: "poisoned".into(),
        });
        match rep.require_complete() {
            Err(FarmError::Quarantined { modes }) => assert_eq!(modes, rep.recovery.failed_modes),
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }

    #[test]
    fn zero_workers_is_a_setup_error() {
        let spec = tiny_spec();
        let err = Farm::<ChannelWorld>::new(0)
            .run(&spec, SchedulePolicy::Fifo)
            .unwrap_err();
        assert!(matches!(err, FarmError::Setup(_)));
    }

    #[test]
    fn mflops_guards_zero_wall() {
        let rep = FarmReport {
            outputs: Vec::new(),
            wall_seconds: 0.0,
            worker_stats: Vec::new(),
            bytes_received: 0,
            completion_log: Vec::new(),
            telemetry: FarmTelemetry::default(),
            recovery: RecoveryLog::default(),
        };
        assert_eq!(rep.mflops(), 0.0);
        assert_eq!(rep.parallel_efficiency(), 0.0);
        // zero-worker edge cases of the idle/imbalance helpers
        assert_eq!(rep.idle_seconds(), 0.0);
        assert_eq!(rep.load_imbalance(), 0.0);
    }

    #[test]
    fn idle_and_imbalance_helpers() {
        let worker = |busy: f64, total: f64| WorkerStats {
            modes: 1,
            busy_seconds: busy,
            total_seconds: total,
            ..WorkerStats::default()
        };
        let mut rep = FarmReport {
            outputs: Vec::new(),
            wall_seconds: 4.0,
            worker_stats: vec![worker(3.0, 4.0), worker(1.0, 4.0)],
            bytes_received: 0,
            completion_log: Vec::new(),
            telemetry: FarmTelemetry::default(),
            recovery: RecoveryLog::default(),
        };
        // idle = (4-3) + (4-1); imbalance = 3 / mean(3,1) = 1.5
        assert!((rep.idle_seconds() - 4.0).abs() < 1e-12);
        assert!((rep.load_imbalance() - 1.5).abs() < 1e-12);

        // a clock glitch reporting busy > total must not go negative
        rep.worker_stats = vec![worker(5.0, 4.0)];
        assert_eq!(rep.idle_seconds(), 0.0);
        assert_eq!(rep.load_imbalance(), 1.0);

        // zero measured wall/busy time: helpers read 0, not NaN
        rep.worker_stats = vec![worker(0.0, 0.0), worker(0.0, 0.0)];
        rep.wall_seconds = 0.0;
        assert_eq!(rep.idle_seconds(), 0.0);
        assert_eq!(rep.load_imbalance(), 0.0);
    }

    #[test]
    fn farm_report_carries_measured_telemetry() {
        let spec = tiny_spec();
        let rep = Farm::<ChannelWorld>::new(2)
            .run(&spec, SchedulePolicy::LargestFirst)
            .unwrap();
        let merged = rep.telemetry.merged_comm();
        // closed world: per-tag sent == per-tag recv over all endpoints
        for t in 0..msgpass::instrument::TRACKED_TAGS {
            assert_eq!(
                merged.sent_count[t], merged.recv_count[t],
                "tag {t} sent/recv mismatch"
            );
        }
        // the measured tag-4+5 bytes are exactly what workers accounted
        let wire_bytes: u64 = merged.sent_bytes[4] + merged.sent_bytes[5];
        let stats_bytes: u64 = rep.worker_stats.iter().map(|w| w.bytes_sent as u64).sum();
        assert_eq!(wire_bytes, stats_bytes);
        // spans: every mode appears as a worker-track span, master has
        // assign + collect spans
        let mode_spans = rep
            .telemetry
            .spans
            .iter()
            .filter(|s| s.name == "mode")
            .count();
        assert_eq!(mode_spans, spec.ks.len());
        assert!(rep.telemetry.spans.iter().any(|s| s.name == "collect"));
        assert!(rep.telemetry.spans.iter().any(|s| s.name == "assign"));
        // steps made it over the wire
        assert!(
            rep.worker_stats
                .iter()
                .map(|w| w.steps_accepted)
                .sum::<usize>()
                > 0
        );
        assert_eq!(
            rep.worker_stats
                .iter()
                .map(|w| w.steps_accepted + w.steps_rejected)
                .sum::<usize>(),
            rep.outputs
                .iter()
                .map(|o| o.stats.accepted + o.stats.rejected)
                .sum::<usize>()
        );
    }

    #[test]
    fn serial_reports_evolve_error_with_mode() {
        let mut spec = tiny_spec();
        spec.ks = vec![0.001, f64::NAN];
        let err = run_serial(&spec).unwrap_err();
        match err {
            FarmError::Evolve { ik, source, .. } => {
                assert_eq!(ik, 1);
                assert!(matches!(
                    source,
                    boltzmann::EvolveError::BadWavenumber { .. }
                ));
            }
            other => panic!("expected Evolve, got {other}"),
        }
    }
}
