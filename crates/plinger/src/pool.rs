//! The farm's one worker lifetime: a pool of resident workers.
//!
//! [`FarmPool`] owns a master endpoint and `n` resident workers and
//! serves any number of k-grid jobs through [`FarmPool::run_job`].  The
//! workers are either threads ([`FarmPool::start`], over any
//! [`World`], running [`crate::worker::worker_pool_session`] with warm
//! integrator scratch and the one [`TableCache`] they all share — a
//! cosmology's physics tables are built once per pool, not once per
//! rank) or OS subprocesses ([`FarmPool::start_processes`], over
//! localhost TCP, each running the same session on a cache of its own).
//! [`Farm::run`](crate::Farm::run) is a thread pool started, given one
//! job and shut down; [`crate::run_tcp_processes`] is the same over
//! subprocesses.  Per-job state — work queue, recovery ledger,
//! heartbeat clocks, idle accounting, telemetry — lives inside
//! [`crate::master::master_job_session`] and is rebuilt from scratch
//! every job; only endpoints, workers and tables persist.
//!
//! The two kinds differ only in how a worker is kept alive, and that is
//! one private enum here: how a dead rank is detected, how it is
//! replaced, and how the workers are stopped and joined at close.
//! Everything else — the master endpoint and its instrumentation, the
//! respawn budget, the `worker_respawned_into_pool` / `worker_retired`
//! events, the master session, the per-job comm delta, the job count
//! and shutdown — exists once.
//!
//! Self-healing persists across jobs.  A worker that dies mid-job is
//! respawned *into the pool*, not just the run (budgeted by
//! [`PoolOptions::respawn_limit`]), so the replacement rank serves every
//! later job.  A thread worker that returned cleanly hands its endpoint
//! back and the replacement session is spawned on it, the pool's tables
//! already in hand; a thread that panicked takes its endpoint down with
//! it and the rank stays dead.  A subprocess that exited abnormally is
//! relaunched and re-handshaked under its rank through the kept
//! listening socket; a clean exit is a worker that took its stop.
//!
//! Determinism: every job runs the same master loop, the same dispatch
//! order, and bit-identical mode integrations whether it is a pool's
//! first or its hundredth, on threads or on processes — cached tables
//! are keyed on the canonical cosmology hash and built whenever a new
//! one arrives, and sharing them never alters results, only skips table
//! construction.  The pool-vs-fresh bitwise tests in
//! `tests/pool_sessions.rs` pin this.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msgpass::fault::{FaultSpec, FaultyTransport};
use msgpass::instrument::{CommSnapshot, EndpointStats, Instrumented};
use msgpass::tcp::{PendingMaster, RespawnPort, TcpWorld};
use msgpass::{Rank, Transport, World};
use telemetry::SpanEvent;

use crate::error::FarmError;
use crate::farm::{finish_report, FarmReport, FaultPlan};
use crate::master::{master_job_session, JobControl, MasterConfig};
use crate::protocol::{require_flat, RunSpec, TAG_STOP};
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
    /// in-process endpoint's [`FaultyTransport`] — on a subprocess pool,
    /// the master's alone (see [`FaultPlan`]).
    pub fault: Option<FaultPlan>,
}

/// What every in-process rank of a pool talks through: the world's
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

/// The rank count of a pool of `n_workers` workers: at least one
/// worker, and a master rank that still fits in a `usize`.
fn world_size(n_workers: usize) -> Result<usize, FarmError> {
    if n_workers < 1 {
        return Err(FarmError::Setup(msgpass::CommError::Unsupported(
            "a farm needs at least one worker",
        )));
    }
    n_workers
        .checked_add(1)
        .ok_or(FarmError::Setup(msgpass::CommError::Unsupported(
            "too many workers for one world",
        )))
}

/// What one liveness poll found at a rank the pool has not retired.
enum Liveness {
    Running,
    /// The rank died and a replacement now runs under it.
    Respawned,
    /// The rank died and cannot (or may not) be replaced.
    Dead,
}

/// How a pool keeps its workers alive — the one thing the two kinds do
/// differently.
enum Workers<W: World> {
    /// Session threads in this process, sharing `tables`.
    Threads {
        ranks: Vec<PoolWorker<W>>,
        tables: Arc<TableCache>,
    },
    /// Copies of `exe` started with the hidden `--tcp-worker` arguments,
    /// re-admitted through `port` when relaunched.
    Processes {
        children: Vec<Child>,
        port: RespawnPort,
        exe: PathBuf,
    },
}

impl<W: World> Workers<W> {
    fn len(&self) -> usize {
        match self {
            Workers::Threads { ranks, .. } => ranks.len(),
            Workers::Processes { children, .. } => children.len(),
        }
    }

    /// Rank `i + 1` is believed to be running.  A subprocess counts as
    /// running until the liveness watch reaps it.
    fn running(&self, i: usize) -> bool {
        match self {
            Workers::Threads { ranks, .. } => ranks[i].alive.load(Ordering::SeqCst),
            Workers::Processes { .. } => true,
        }
    }

    /// Poll rank `i + 1`; if it died, replace it when `may_respawn` and
    /// the rank is replaceable (a thread that returned its endpoint, a
    /// child that exited abnormally).  Spans of a reaped thread go to
    /// `spans`.
    fn poll(
        &mut self,
        i: usize,
        may_respawn: bool,
        epoch: Instant,
        spans: &mut Vec<SpanEvent>,
    ) -> Liveness {
        let rank = i + 1;
        match self {
            Workers::Threads { ranks, tables } => {
                let w = &mut ranks[i];
                if w.alive.load(Ordering::SeqCst) {
                    return Liveness::Running;
                }
                // the session thread ended: a clean return hands its
                // endpoint back, a panic dropped it with the rank
                let endpoint = w
                    .handle
                    .take()
                    .and_then(|h| h.join().ok())
                    .map(|(outcome, ep)| {
                        if let Ok(out) = outcome {
                            spans.extend(out.spans);
                        }
                        ep
                    });
                match endpoint {
                    Some(ep) if may_respawn => {
                        let (alive, handle) =
                            spawn_pool_worker::<W>(ep, None, epoch, Arc::clone(tables));
                        w.alive = alive;
                        w.handle = Some(handle);
                        Liveness::Respawned
                    }
                    _ => Liveness::Dead,
                }
            }
            Workers::Processes {
                children,
                port,
                exe,
            } => {
                // a clean exit is a worker that took its stop; only
                // abnormal exits (a scripted vanish exits with a marker
                // code) are worth a replacement process
                let abnormal = match children[i].try_wait() {
                    Ok(None) => return Liveness::Running,
                    Ok(Some(st)) => !st.success(),
                    Err(_) => true,
                };
                if abnormal && may_respawn {
                    let size = children.len() + 1;
                    let replacement = spawn_tcp_worker(exe, port.addr(), rank, size, None)
                        .ok()
                        .and_then(|c| port.admit(rank, Duration::from_secs(10)).ok().map(|_| c));
                    if let Some(c) = replacement {
                        children[i] = c;
                        return Liveness::Respawned;
                    }
                }
                Liveness::Dead
            }
        }
    }

    /// Wait for every worker after the stops went out, and hang up the
    /// master: threads answer the stop with a tag-7 the master must
    /// still accept, so it outlives their joins; a subprocess that
    /// missed its stop sees the hang-up, so it goes first.
    fn join(&mut self, master: Option<PoolEndpoint<W>>, spans: &mut Vec<SpanEvent>) {
        match self {
            Workers::Threads { ranks, .. } => {
                for w in ranks.iter_mut() {
                    if let Some(Ok((Ok(out), _ep))) = w.handle.take().map(|h| h.join()) {
                        spans.extend(out.spans);
                    }
                }
                drop(master);
            }
            Workers::Processes { children, .. } => {
                drop(master);
                for c in children.iter_mut() {
                    let _ = c.wait();
                }
            }
        }
    }
}

/// What a pool hands back when it shuts down cleanly.
#[derive(Debug, Default)]
pub struct PoolShutdown {
    /// Jobs the pool ran to a report.
    pub jobs: usize,
    /// Worker-side span timelines across all jobs (harvested at thread
    /// joins; per-job reports carry master spans only, because worker
    /// threads are still running when a job's report is cut).  Empty
    /// for a subprocess pool: children keep their spans to themselves.
    pub worker_spans: Vec<SpanEvent>,
}

/// A warm farm: one master and resident workers — physics tables,
/// integrator scratch, and heartbeat clocks intact — serving any number
/// of jobs.
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
    workers: Workers<W>,
    /// Rank `i + 1`'s death was already reported with no replacement
    /// possible; the watch stops polling it.
    retired: Vec<bool>,
    config: MasterConfig,
    epoch: Instant,
    respawns_left: usize,
    /// Cumulative per-endpoint snapshots at the end of the previous job
    /// (master first, then thread workers in rank order) — the baseline
    /// the next job's per-job comm table is a delta against.
    comm_prev: Vec<CommSnapshot>,
    /// Worker spans harvested from joined (dead or stopped) threads.
    spans: Vec<SpanEvent>,
    jobs_run: usize,
    closed: bool,
}

impl<W: World> FarmPool<W> {
    /// Start a pool of `n_workers` resident worker threads with the
    /// default master configuration (FailFast; see [`MasterConfig`]).
    pub fn start(n_workers: usize) -> Result<Self, FarmError> {
        Self::start_with(n_workers, MasterConfig::default(), PoolOptions::default())
    }

    /// [`FarmPool::start`] with explicit per-job and pool-level knobs.
    pub fn start_with(
        n_workers: usize,
        config: MasterConfig,
        opts: PoolOptions,
    ) -> Result<Self, FarmError> {
        let size = world_size(n_workers)?;
        let eps = W::endpoints(size).map_err(FarmError::Setup)?;
        if eps.len() != size {
            return Err(FarmError::Setup(msgpass::CommError::Protocol(format!(
                "transport {} built {} endpoints for {size} ranks",
                W::NAME,
                eps.len(),
            ))));
        }
        // one epoch anchors every span recorder, master's and workers'
        let epoch = Instant::now();
        let tables = Arc::new(TableCache::new());
        let fault_spec = opts.fault.map(|f| f.fault_spec()).unwrap_or_default();
        let mut eps = eps.into_iter();
        let Some(master) = eps.next() else {
            return Err(FarmError::Setup(msgpass::CommError::Protocol(
                "world produced no master endpoint".into(),
            )));
        };
        let ranks = eps
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
                }
            })
            .collect();
        let workers = Workers::Threads { ranks, tables };
        Ok(Self::assemble(master, workers, config, opts, epoch))
    }

    /// The state every pool starts from, whatever runs its workers.
    fn assemble(
        master: W::Endpoint,
        workers: Workers<W>,
        config: MasterConfig,
        opts: PoolOptions,
        epoch: Instant,
    ) -> Self {
        let fault_spec = opts.fault.map(|f| f.fault_spec()).unwrap_or_default();
        let (master, master_stats) = wrap_endpoint::<W>(master, &fault_spec);
        let respawn_allowed = matches!(
            config.recovery,
            RecoveryPolicy::Requeue { respawn: true, .. }
        );
        let mut pool = Self {
            master: Some(master),
            master_stats,
            retired: vec![false; workers.len()],
            workers,
            config,
            epoch,
            respawns_left: if respawn_allowed {
                opts.respawn_limit
            } else {
                0
            },
            comm_prev: Vec::new(),
            spans: Vec::new(),
            jobs_run: 0,
            closed: false,
        };
        pool.comm_prev = pool.comm_snapshots();
        pool
    }

    /// Workers in the pool (dead or alive — the rank count is fixed at
    /// start).
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently running — the readiness signal behind the
    /// service's `/healthz`.
    pub fn workers_alive(&self) -> usize {
        (0..self.workers.len())
            .filter(|&i| !self.retired[i] && self.workers.running(i))
            .count()
    }

    /// Jobs run to a report so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// Cumulative comm counters: the master's, then every in-process
    /// worker's in rank order (subprocess workers keep theirs).
    fn comm_snapshots(&self) -> Vec<CommSnapshot> {
        let mut snaps = vec![self.master_stats.snapshot(0)];
        if let Workers::Threads { ranks, .. } = &self.workers {
            snaps.extend(
                ranks
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w.stats.snapshot(i + 1)),
            );
        }
        snaps
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
        self.run_job_prefetched(spec, policy, &JobControl::default(), None)
    }

    /// [`FarmPool::run_job`] under external [`JobControl`] and with an
    /// optional ensemble prefetch hint.
    ///
    /// A fired deadline or cancel flag aborts the job cooperatively
    /// (tag-12); the pool stays consistent — workers park, stats and
    /// comm baselines are refreshed — and the next job is served
    /// normally.  A cancelled job returns [`FarmError::Cancelled`].
    ///
    /// When `prefetch` names the *next* job's spec, every worker is
    /// handed a tag-13 hint just before this job opens, and the one that
    /// claims it builds that job's background/thermo tables while the
    /// others start on this job's modes.  Results are unaffected; the
    /// next job simply opens with its tables already there
    /// (`ctx_rebuilds == 0` on every rank; the build is this job's one
    /// `prefetch_builds`).
    ///
    /// A curved cosmology is refused with [`FarmError::NotFlat`] before
    /// the job opens; the pool is untouched and serves the next job.
    pub fn run_job_prefetched(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        require_flat(&spec.cosmo)?;
        let Some(master) = self.master.as_mut() else {
            return Err(FarmError::Protocol {
                rank: 0,
                detail: "pool already shut down".into(),
            });
        };
        let epoch = self.epoch;
        let config = self.config;
        let workers = &mut self.workers;
        let retired = &mut self.retired;
        let respawns_left = &mut self.respawns_left;
        let spans = &mut self.spans;
        let mut watch = || -> Vec<WorkerEvent> {
            let mut events = Vec::new();
            for (i, gone) in retired.iter_mut().enumerate() {
                let rank = i + 1;
                if *gone {
                    events.push(WorkerEvent::Dead(rank));
                    continue;
                }
                match workers.poll(i, *respawns_left > 0, epoch, spans) {
                    Liveness::Running => {}
                    Liveness::Respawned => {
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
                    Liveness::Dead => {
                        *gone = true;
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
        let snaps = self.comm_snapshots();
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

    /// Stop every resident worker (tag 6), join them, and return the
    /// pool-lifetime leftovers: job count and the worker threads' span
    /// timelines.
    pub fn shutdown(mut self) -> PoolShutdown {
        self.close();
        PoolShutdown {
            jobs: self.jobs_run,
            worker_spans: std::mem::take(&mut self.spans),
        }
    }

    /// Best-effort stop of every live worker and join of every worker.
    /// Idempotent; shared by [`FarmPool::shutdown`] and `Drop`.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut master = self.master.take();
        if let Some(m) = master.as_mut() {
            for i in 0..self.workers.len() {
                if !self.retired[i] && self.workers.running(i) {
                    let _ = m.send(i + 1, TAG_STOP, &[0.0]);
                }
            }
        }
        self.workers.join(master, &mut self.spans);
    }
}

impl FarmPool<TcpWorld> {
    /// Start a pool of `n_workers` subprocess workers: bind the master
    /// socket on localhost, launch `n_workers` copies of `exe` with the
    /// hidden `--tcp-worker ADDR RANK SIZE [FAULT]` arguments (the
    /// worker-level fault of `opts.fault` rides the last one), and
    /// complete the handshake.
    ///
    /// Only the master endpoint is instrumented: a report's `comm` holds
    /// one snapshot, and the children's wire-shipped tag-7 statistics
    /// still arrive.  Liveness comes from `Child::try_wait`; under
    /// [`RecoveryPolicy::FailFast`] a dead child surfaces as
    /// [`FarmError::WorkerLost`], under [`RecoveryPolicy::Requeue`] an
    /// abnormal exit is relaunched while the respawn budget lasts, or
    /// its work is redistributed to the survivors.
    pub fn start_processes(
        n_workers: usize,
        exe: &Path,
        config: MasterConfig,
        opts: PoolOptions,
    ) -> Result<Self, FarmError> {
        let size = world_size(n_workers)?;
        let pending = PendingMaster::bind(n_workers).map_err(|e| {
            FarmError::Setup(msgpass::CommError::Protocol(format!("bind failed: {e}")))
        })?;
        let addr = pending.addr();
        let mut children: Vec<Child> = Vec::with_capacity(n_workers);
        let accepted = (1..=n_workers)
            .try_for_each(|rank| {
                let fault = worker_fault_arg(opts.fault, rank);
                children.push(spawn_tcp_worker(exe, addr, rank, size, fault)?);
                Ok(())
            })
            .and_then(|()| pending.accept_all_keep().map_err(FarmError::Setup));
        let (master, port) = match accepted {
            Ok(pair) => pair,
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        };
        let workers = Workers::Processes {
            children,
            port,
            exe: exe.to_path_buf(),
        };
        Ok(Self::assemble(
            master,
            workers,
            config,
            opts,
            Instant::now(),
        ))
    }
}

impl<W: World> Drop for FarmPool<W> {
    fn drop(&mut self) {
        // a dropped pool must not leave resident workers blocked on a
        // probe forever
        self.close();
    }
}
