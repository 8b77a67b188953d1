//! The farm's one worker lifetime: a pool of resident workers.
//!
//! [`FarmPool`] owns a world, its workers (threads running
//! [`crate::worker::worker_pool_session`], with warm integrator
//! scratch) and the one [`TableCache`] they all share — a cosmology's
//! physics tables are built once per pool, not once per rank — and
//! serves any number of k-grid jobs through [`FarmPool::run_job`].
//! [`Farm::run`](crate::Farm::run) is this pool started, given one job
//! and shut down.  Per-job state — work queue, recovery ledger,
//! heartbeat clocks, idle accounting, telemetry — lives inside
//! [`crate::master::master_job_session`] and is rebuilt from scratch
//! every job; only endpoints and the table cache persist.
//!
//! Self-healing persists across jobs too.  A worker that dies mid-job
//! is respawned *into the pool*, not just the run: the dead thread is
//! joined, its endpoint recovered, and a fresh session spawned on it
//! with the pool's table cache (budgeted by
//! [`PoolOptions::respawn_limit`]), so the replacement rank serves
//! every later job, the current cosmology's tables already in hand.  A
//! thread that panicked takes its endpoint down with it and the rank
//! stays dead.  The multi-process analogue is [`TcpFarmPool`], which
//! keeps the subprocess workers, the respawn listener, and the master
//! socket alive between jobs; [`crate::run_tcp_processes`] is that pool
//! for one job.
//!
//! Determinism: every job runs the same master loop, the same dispatch
//! order, and bit-identical mode integrations whether it is a pool's
//! first or its hundredth — cached tables are keyed on the canonical
//! cosmology hash and built whenever a new one arrives, and sharing
//! them never alters results, only skips table construction.  The
//! pool-vs-fresh bitwise tests in `tests/pool_sessions.rs` pin this.

use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msgpass::fault::{FaultSpec, FaultyTransport};
use msgpass::instrument::{CommSnapshot, EndpointStats, Instrumented};
use msgpass::tcp::{PendingMaster, RespawnPort, TcpEndpoint};
use msgpass::{Rank, Transport, World};
use telemetry::SpanEvent;

use crate::error::FarmError;
use crate::farm::{finish_report, FarmReport, FaultPlan, TcpFarmOptions};
use crate::master::{master_job_session, JobControl, MasterConfig};
use crate::protocol::{RunSpec, TAG_STOP};
use crate::recovery::{RecoveryPolicy, WorkerEvent};
use crate::schedule::SchedulePolicy;
use crate::tables::TableCache;
use crate::worker::{worker_pool_session, WorkerFault, WorkerTotals};

/// Pool-level knobs (the per-job knobs live in [`MasterConfig`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolOptions {
    /// Total worker respawns allowed over the pool's lifetime.  Respawn
    /// also requires the recovery policy to be
    /// `RecoveryPolicy::Requeue { respawn: true, .. }`.
    pub respawn_limit: usize,
    /// Fault to script into the pool (tests): worker-level plans ride
    /// into the initial workers, message-level plans into every
    /// endpoint's [`FaultyTransport`].
    pub fault: Option<FaultPlan>,
}

/// What every rank of a thread pool talks through: the world's
/// endpoint, counted per tag, under the pool's fault script.  The fault
/// wrapper sits outside the instrumentation so a dropped message is
/// never counted as sent (closed-world telemetry survives fault runs);
/// without a message-level fault it is a passthrough.
type PoolEndpoint<W> = FaultyTransport<Instrumented<<W as World>::Endpoint>>;

fn wrap_endpoint<W: World>(
    ep: W::Endpoint,
    fault: &FaultSpec,
) -> (PoolEndpoint<W>, Arc<EndpointStats>) {
    let (counted, stats) = Instrumented::new(ep);
    (FaultyTransport::new(counted, fault.clone()).0, stats)
}

/// One resident worker of a thread pool: its liveness flag, its thread
/// (which returns the endpoint on clean exit so a replacement session
/// can be spawned on it), and its comm-counter handle.
struct PoolWorker<W: World> {
    alive: Arc<AtomicBool>,
    handle: Option<WorkerHandle<W>>,
    stats: Arc<EndpointStats>,
    /// This rank's death was already reported with no replacement
    /// possible; stop re-joining it.
    handled: bool,
}

type WorkerReturn<W> = (Result<WorkerTotals, FarmError>, PoolEndpoint<W>);
type WorkerHandle<W> = JoinHandle<WorkerReturn<W>>;

/// Clears a worker's liveness flag when its thread ends — by return or
/// by unwinding, so a panicked worker reads dead, not busy forever.
struct ClearOnDrop(Arc<AtomicBool>);

impl Drop for ClearOnDrop {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

fn spawn_pool_worker<W: World>(
    mut ep: PoolEndpoint<W>,
    fault: Option<WorkerFault>,
    epoch: Instant,
    tables: Arc<TableCache>,
) -> (Arc<AtomicBool>, WorkerHandle<W>) {
    let alive = Arc::new(AtomicBool::new(true));
    let flag = ClearOnDrop(Arc::clone(&alive));
    let handle = std::thread::spawn(move || {
        let _flag = flag;
        let out = worker_pool_session(&mut ep, fault, epoch, &tables);
        // hand the endpoint back: a vanished-but-clean worker's endpoint
        // is reusable by a replacement session under the same rank
        (out, ep)
    });
    (alive, handle)
}

/// What a pool hands back when it shuts down cleanly.
#[derive(Debug, Default)]
pub struct PoolShutdown {
    /// Jobs the pool ran to a report.
    pub jobs: usize,
    /// Worker-side span timelines across all jobs (harvested at thread
    /// joins; per-job reports carry master spans only, because worker
    /// threads are still running when a job's report is cut).
    pub worker_spans: Vec<SpanEvent>,
}

/// A warm farm: one world whose workers stay resident — shared physics
/// tables, integrator scratch, and heartbeat clocks intact — across any
/// number of jobs.
///
/// ```no_run
/// use msgpass::channel::ChannelWorld;
/// use plinger::{FarmPool, RunSpec, SchedulePolicy};
///
/// let mut pool = FarmPool::<ChannelWorld>::start(4).expect("pool");
/// let a = RunSpec::standard_cdm(vec![0.001, 0.01]);
/// let rep1 = pool.run_job(&a, SchedulePolicy::LargestFirst).expect("job 1");
/// let rep2 = pool.run_job(&a, SchedulePolicy::LargestFirst).expect("job 2");
/// // same cosmology: job 2 rebuilt no physics tables
/// assert_eq!(rep2.worker_stats.iter().map(|w| w.ctx_rebuilds).sum::<usize>(), 0);
/// let _ = (rep1, pool.shutdown());
/// ```
pub struct FarmPool<W: World> {
    master: Option<PoolEndpoint<W>>,
    master_stats: Arc<EndpointStats>,
    workers: Vec<PoolWorker<W>>,
    /// The physics tables every rank of this pool integrates against,
    /// handed to each worker thread at spawn and at respawn.
    tables: Arc<TableCache>,
    config: MasterConfig,
    epoch: Instant,
    respawn_allowed: bool,
    respawns_left: usize,
    /// Cumulative per-endpoint snapshots at the end of the previous job
    /// (master first, then workers in rank order) — the baseline the
    /// next job's per-job comm table is a delta against.
    comm_prev: Vec<CommSnapshot>,
    /// Worker spans harvested from joined (dead or stopped) threads.
    spans: Vec<SpanEvent>,
    jobs_run: usize,
    closed: bool,
}

impl<W: World> FarmPool<W> {
    /// Start a pool of `n_workers` resident workers with the default
    /// master configuration (FailFast; see [`MasterConfig`]).
    pub fn start(n_workers: usize) -> Result<Self, FarmError> {
        Self::start_with(n_workers, MasterConfig::default(), PoolOptions::default())
    }

    /// [`FarmPool::start`] with explicit per-job and pool-level knobs.
    pub fn start_with(
        n_workers: usize,
        config: MasterConfig,
        opts: PoolOptions,
    ) -> Result<Self, FarmError> {
        if n_workers < 1 {
            return Err(FarmError::Setup(msgpass::CommError::Unsupported(
                "a farm needs at least one worker",
            )));
        }
        let eps = W::endpoints(n_workers + 1).map_err(FarmError::Setup)?;
        if eps.len() != n_workers + 1 {
            return Err(FarmError::Setup(msgpass::CommError::Protocol(format!(
                "transport {} built {} endpoints for {} ranks",
                W::NAME,
                eps.len(),
                n_workers + 1
            ))));
        }
        // one epoch anchors every span recorder, master's and workers'
        let epoch = Instant::now();
        let tables = Arc::new(TableCache::new());
        let fault_spec = opts.fault.map(|f| f.fault_spec()).unwrap_or_default();
        let mut eps = eps.into_iter();
        let (master, master_stats) = match eps.next() {
            Some(ep) => wrap_endpoint::<W>(ep, &fault_spec),
            None => {
                return Err(FarmError::Setup(msgpass::CommError::Protocol(
                    "world produced no master endpoint".into(),
                )))
            }
        };
        let workers: Vec<PoolWorker<W>> = eps
            .enumerate()
            .map(|(i, ep)| {
                let (wrapped, stats) = wrap_endpoint::<W>(ep, &fault_spec);
                let fault = opts.fault.and_then(|f| f.worker_fault(i + 1));
                let (alive, handle) =
                    spawn_pool_worker::<W>(wrapped, fault, epoch, Arc::clone(&tables));
                PoolWorker {
                    alive,
                    handle: Some(handle),
                    stats,
                    handled: false,
                }
            })
            .collect();
        let comm_prev = std::iter::once(master_stats.snapshot(0))
            .chain(
                workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w.stats.snapshot(i + 1)),
            )
            .collect();
        let respawn_allowed = matches!(
            config.recovery,
            RecoveryPolicy::Requeue { respawn: true, .. }
        );
        Ok(Self {
            master: Some(master),
            master_stats,
            workers,
            tables,
            config,
            epoch,
            respawn_allowed,
            respawns_left: if respawn_allowed {
                opts.respawn_limit
            } else {
                0
            },
            comm_prev,
            spans: Vec::new(),
            jobs_run: 0,
            closed: false,
        })
    }

    /// Workers in the pool (dead or alive — the rank count is fixed at
    /// start).
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Workers whose session thread is currently running — the
    /// readiness signal behind the service's `/healthz`.
    pub fn workers_alive(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Jobs run to a report so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// Run one k-grid job on the resident workers and cut its report.
    ///
    /// The report's worker statistics, idle/imbalance accounting, recovery ledger,
    /// and comm table cover *this job only* — comm counters are deltas
    /// against a between-jobs baseline, and each worker reports fresh
    /// per-job stats on its tag-11 release.
    pub fn run_job(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_with(spec, policy, &JobControl::default())
    }

    /// [`FarmPool::run_job`] under external [`JobControl`]: a fired
    /// deadline or cancel flag aborts the job cooperatively (tag-12);
    /// the pool stays consistent — workers park, stats and comm
    /// baselines are refreshed — and the next `run_job` is served
    /// normally.  A cancelled job returns [`FarmError::Cancelled`].
    pub fn run_job_with(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_prefetched(spec, policy, ctrl, None)
    }

    /// [`FarmPool::run_job_with`] with an ensemble prefetch hint: when
    /// `prefetch` names the *next* job's spec, every worker is handed a
    /// tag-13 hint just before this job opens, and the one that claims
    /// it builds that job's background/thermo tables while the others
    /// start on this job's modes.  Results are unaffected; the next job
    /// simply opens with its tables already there (`ctx_rebuilds == 0`
    /// on every rank; the build is this job's one `prefetch_builds`).
    pub fn run_job_prefetched(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        let Some(master) = self.master.as_mut() else {
            return Err(FarmError::Protocol {
                rank: 0,
                detail: "pool already shut down".into(),
            });
        };
        let epoch = self.epoch;
        let config = self.config;
        let respawn_allowed = self.respawn_allowed;
        let tables = &self.tables;
        let workers = &mut self.workers;
        let respawns_left = &mut self.respawns_left;
        let spans = &mut self.spans;
        let mut watch = || -> Vec<WorkerEvent> {
            let mut events = Vec::new();
            for (i, w) in workers.iter_mut().enumerate() {
                let rank = i + 1;
                if w.alive.load(Ordering::SeqCst) {
                    continue;
                }
                if w.handled {
                    events.push(WorkerEvent::Dead(rank));
                    continue;
                }
                // the session thread ended; reap it and decide whether
                // a replacement can inherit its endpoint
                let mut endpoint = None;
                // a panicked thread dropped its endpoint, leaving the
                // rank unrecoverable; a clean return hands it back
                if let Some(handle) = w.handle.take() {
                    if let Ok((outcome, ep)) = handle.join() {
                        if let Ok(out) = outcome {
                            spans.extend(out.spans);
                        }
                        endpoint = Some(ep);
                    }
                }
                match endpoint {
                    Some(ep) if respawn_allowed && *respawns_left > 0 => {
                        let (alive, handle) =
                            spawn_pool_worker::<W>(ep, None, epoch, Arc::clone(tables));
                        w.alive = alive;
                        w.handle = Some(handle);
                        *respawns_left -= 1;
                        telemetry::log::log(
                            telemetry::Level::Warn,
                            "pool",
                            "worker_respawned_into_pool",
                            &[
                                ("worker", rank.to_string()),
                                ("respawns_left", respawns_left.to_string()),
                            ],
                        );
                        events.push(WorkerEvent::Respawned(rank));
                    }
                    _ => {
                        w.handled = true;
                        telemetry::log::log(
                            telemetry::Level::Warn,
                            "pool",
                            "worker_retired",
                            &[("worker", rank.to_string())],
                        );
                        events.push(WorkerEvent::Dead(rank));
                    }
                }
            }
            events
        };
        let outcome = master_job_session(
            master, spec, policy, &config, &mut watch, epoch, ctrl, prefetch,
        );
        // refresh the comm baseline even on error, so a failed job's
        // traffic never leaks into the next job's table
        let snaps: Vec<CommSnapshot> = std::iter::once(self.master_stats.snapshot(0))
            .chain(
                self.workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w.stats.snapshot(i + 1)),
            )
            .collect();
        let comm: Vec<CommSnapshot> = snaps
            .iter()
            .zip(self.comm_prev.iter())
            .map(|(now, prev)| now.delta(prev))
            .collect();
        self.comm_prev = snaps;
        let ledger = outcome?;
        self.jobs_run += 1;
        finish_report(ledger, comm)
    }

    /// Stop every resident worker (tag 6), join their threads, and
    /// return the pool-lifetime leftovers: job count and the workers'
    /// span timelines.
    pub fn shutdown(mut self) -> PoolShutdown {
        self.close();
        PoolShutdown {
            jobs: self.jobs_run,
            worker_spans: std::mem::take(&mut self.spans),
        }
    }

    /// Best-effort release of every live worker and join of every
    /// thread.  Idempotent; shared by [`FarmPool::shutdown`] and `Drop`.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if let Some(master) = self.master.as_mut() {
            for (i, w) in self.workers.iter().enumerate() {
                if w.handle.is_some() && w.alive.load(Ordering::SeqCst) {
                    let _ = master.send(i + 1, TAG_STOP, &[0.0]);
                }
            }
        }
        for w in self.workers.iter_mut() {
            if let Some(handle) = w.handle.take() {
                if let Ok((Ok(out), _ep)) = handle.join() {
                    self.spans.extend(out.spans);
                }
            }
        }
        self.master = None;
    }
}

impl<W: World> Drop for FarmPool<W> {
    fn drop(&mut self) {
        // a dropped pool must not leave resident workers blocked on a
        // probe forever
        self.close();
    }
}

/// Render the worker-level fault of `plan` for `rank` as the hidden CLI
/// argument `--tcp-worker` understands (see
/// [`parse_worker_fault`](crate::parse_worker_fault)).
fn worker_fault_arg(plan: Option<FaultPlan>, rank: Rank) -> Option<String> {
    match plan?.worker_fault(rank)? {
        WorkerFault::Vanish { after_modes } => Some(format!("vanish:{after_modes}")),
        WorkerFault::Stall { after_modes, stall } => {
            Some(format!("stall:{after_modes}:{}", stall.as_millis()))
        }
        WorkerFault::FailMode { ik } => Some(format!("failmode:{ik}")),
    }
}

fn spawn_tcp_worker(
    exe: &Path,
    addr: SocketAddr,
    rank: Rank,
    size: usize,
    fault: Option<String>,
) -> Result<Child, FarmError> {
    let mut cmd = Command::new(exe);
    cmd.arg("--tcp-worker")
        .arg(addr.to_string())
        .arg(rank.to_string())
        .arg(size.to_string());
    if let Some(f) = fault {
        cmd.arg(f);
    }
    cmd.stdin(Stdio::null()).spawn().map_err(|e| {
        FarmError::Setup(msgpass::CommError::Protocol(format!(
            "spawning worker {rank} failed: {e}"
        )))
    })
}

/// The multi-process analogue of [`FarmPool`]: subprocess workers over
/// localhost TCP stay resident — and respawnable through the kept
/// listening socket — across jobs.
///
/// Workers are copies of `exe` launched with the hidden `--tcp-worker
/// ADDR RANK SIZE [FAULT]` arguments; each runs the same
/// [`worker_pool_session`] a thread worker does, on its own
/// [`TableCache`].  Liveness is tracked through `Child::try_wait`: under
/// [`RecoveryPolicy::FailFast`] a dead subprocess surfaces as
/// [`FarmError::WorkerLost`]; under [`RecoveryPolicy::Requeue`] a child
/// that exited abnormally mid-job is relaunched (up to the respawn
/// budget) and re-handshaked under its rank, and keeps serving later
/// jobs — or, when respawn is off or exhausted, its work is
/// redistributed to the survivors.  Only the master side is
/// instrumented: subprocess workers keep their in-process telemetry to
/// themselves (their wire-shipped tag-7 statistics still arrive), so a
/// report's `comm` holds one snapshot.
pub struct TcpFarmPool {
    master: Option<Instrumented<TcpEndpoint>>,
    master_stats: Arc<EndpointStats>,
    port: RespawnPort,
    children: Vec<Child>,
    handled: Vec<bool>,
    respawns_left: usize,
    exe: std::path::PathBuf,
    addr: SocketAddr,
    size: usize,
    config: MasterConfig,
    epoch: Instant,
    comm_prev: CommSnapshot,
    jobs_run: usize,
    closed: bool,
}

impl TcpFarmPool {
    /// Bind the master socket, spawn `n_workers` copies of `exe` as
    /// resident workers, and complete the handshake.
    pub fn start(n_workers: usize, exe: &Path, opts: &TcpFarmOptions) -> Result<Self, FarmError> {
        if n_workers < 1 {
            return Err(FarmError::Setup(msgpass::CommError::Unsupported(
                "a farm needs at least one worker",
            )));
        }
        let pending = PendingMaster::bind(n_workers).map_err(|e| {
            FarmError::Setup(msgpass::CommError::Protocol(format!("bind failed: {e}")))
        })?;
        let addr = pending.addr();
        let size = n_workers + 1;
        let mut children: Vec<Child> = Vec::with_capacity(n_workers);
        for rank in 1..=n_workers {
            match spawn_tcp_worker(exe, addr, rank, size, worker_fault_arg(opts.fault, rank)) {
                Ok(c) => children.push(c),
                Err(e) => {
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(e);
                }
            }
        }
        let (master_ep, port) = match pending.accept_all_keep() {
            Ok(pair) => pair,
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(FarmError::Setup(e));
            }
        };
        let (master, master_stats) = Instrumented::new(master_ep);
        let cfg = opts.master;
        let respawn_allowed = matches!(cfg.recovery, RecoveryPolicy::Requeue { respawn: true, .. });
        let comm_prev = master_stats.snapshot(0);
        Ok(Self {
            master: Some(master),
            master_stats,
            port,
            handled: vec![false; n_workers],
            children,
            respawns_left: if respawn_allowed {
                opts.respawn_limit
            } else {
                0
            },
            exe: exe.to_path_buf(),
            addr,
            size,
            config: cfg,
            epoch: Instant::now(),
            comm_prev,
            jobs_run: 0,
            closed: false,
        })
    }

    /// Jobs run to a report so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// Run one k-grid job on the resident subprocesses.  As with
    /// [`FarmPool::run_job`], everything in the report is per-job; the
    /// master-side comm snapshot is a delta against the previous job's
    /// baseline (subprocess workers keep their local telemetry to
    /// themselves — their wire-shipped tag-7 statistics still arrive).
    pub fn run_job(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_with(spec, policy, &JobControl::default())
    }

    /// [`TcpFarmPool::run_job`] under external [`JobControl`] — the
    /// process-pool analogue of [`FarmPool::run_job_with`].
    pub fn run_job_with(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_prefetched(spec, policy, ctrl, None)
    }

    /// [`TcpFarmPool::run_job_with`] with an ensemble prefetch hint —
    /// the process-pool analogue of [`FarmPool::run_job_prefetched`].
    pub fn run_job_prefetched(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        let Some(master) = self.master.as_mut() else {
            return Err(FarmError::Protocol {
                rank: 0,
                detail: "pool already shut down".into(),
            });
        };
        let config = self.config;
        let epoch = self.epoch;
        let children = &mut self.children;
        let handled = &mut self.handled;
        let respawns_left = &mut self.respawns_left;
        let (exe, addr, size, port) = (&self.exe, self.addr, self.size, &self.port);
        // One poll of the subprocess liveness watch: reap exited
        // children, relaunch abnormal exits while the respawn budget
        // lasts (re-admitting the replacement under the same rank
        // through the kept listening port), and report the casualties.
        // `handled[i]` records that rank `i + 1`'s corpse was already
        // reported or replaced — `try_wait` keeps answering for a reaped
        // child, so the gate makes each respawn attempt happen exactly
        // once.
        let mut watch = || -> Vec<WorkerEvent> {
            let mut events = Vec::new();
            for i in 0..children.len() {
                let rank = i + 1;
                let status = match children[i].try_wait() {
                    Ok(None) => continue,
                    Ok(Some(st)) => Some(st),
                    Err(_) => None,
                };
                if handled[i] {
                    events.push(WorkerEvent::Dead(rank));
                    continue;
                }
                handled[i] = true;
                // a clean exit is a worker that took its stop; only
                // abnormal exits (a scripted vanish exits with a marker
                // code) are worth a replacement process
                let abnormal = status.map(|st| !st.success()).unwrap_or(true);
                if abnormal && *respawns_left > 0 {
                    let replacement = spawn_tcp_worker(exe, addr, rank, size, None)
                        .ok()
                        .and_then(|c| port.admit(rank, Duration::from_secs(10)).ok().map(|_| c));
                    if let Some(c) = replacement {
                        *respawns_left -= 1;
                        children[i] = c;
                        handled[i] = false;
                        events.push(WorkerEvent::Respawned(rank));
                        continue;
                    }
                }
                events.push(WorkerEvent::Dead(rank));
            }
            events
        };
        let outcome = master_job_session(
            master, spec, policy, &config, &mut watch, epoch, ctrl, prefetch,
        );
        let snap = self.master_stats.snapshot(0);
        let comm = snap.delta(&self.comm_prev);
        self.comm_prev = snap;
        let ledger = outcome?;
        self.jobs_run += 1;
        finish_report(ledger, vec![comm])
    }

    /// Stop every resident worker and wait for the subprocesses.
    pub fn shutdown(mut self) -> usize {
        self.close();
        self.jobs_run
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if let Some(master) = self.master.as_mut() {
            for rank in 1..=self.children.len() {
                if !self.handled[rank - 1] {
                    let _ = master.send(rank, TAG_STOP, &[0.0]);
                }
            }
        }
        self.master = None;
        for c in self.children.iter_mut() {
            let _ = c.wait();
        }
    }
}

impl Drop for TcpFarmPool {
    fn drop(&mut self) {
        self.close();
    }
}
