//! `plinger-serve` — spectrum-as-a-service over a warm farm pool.
//!
//! ```text
//! plinger-serve --listen 127.0.0.1:0 --workers 4                 # server
//! plinger-serve --connect 127.0.0.1:PORT --model lcdm --nk 16    # client
//! ```
//!
//! The server starts one [`plinger::FarmPool`] of resident workers and
//! accepts TCP connections, each speaking the length-prefixed
//! request/response frames of `docs/PROTOCOL.md` (the `msgpass` codec
//! framing, tags 20–29).  Requests for a k-grid already served come
//! straight out of the content-addressed result cache, bit for bit;
//! misses run as one pooled job on the warm workers.  Concurrent
//! connections are each handled on their own thread and multiplex onto
//! the single pool in arrival order.
//!
//! Request lifecycle robustness (docs/PROTOCOL.md §6):
//!
//! * **Deadlines** — a client `--deadline-ms` rides the tag-20 frame;
//!   an expired request is refused up front or cancelled mid-job via
//!   the cooperative tag-12 path, freeing the ranks for later work.
//! * **Admission control** — more than `--queue-limit` requests in
//!   flight are shed with a typed `busy` frame carrying a retry hint.
//! * **Graceful drain** — `SIGTERM`/`SIGINT` (or `--max-requests`)
//!   stops the accept loop, flips `/healthz` to not-ready, finishes
//!   the in-flight queue bounded by `--drain-timeout`, cancels any
//!   stragglers, and exits 0.
//! * **Crash-safe cache** — with `--cache-dir` every result is also an
//!   atomically-written checksummed file, so a restarted server serves
//!   prior jobs from disk, bitwise identical.
//!
//! The client parses the same cosmology/grid flags as `linger` and
//! `plinger`, sends one spectrum request, and prints a one-line summary
//! whose `fnv=` field hashes the response body's exact bit patterns —
//! two invocations print the same hash exactly when the service
//! answered with identical bits.  Retryable refusals (`busy`,
//! `shutting-down`, connect failures) are retried with capped
//! exponential backoff and deterministic jitter, honoring the server's
//! `retry_after_ms` hint.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use msgpass::channel::ChannelWorld;
use msgpass::shmem::ShmemWorld;
use msgpass::{codec, Message, World};
use plinger::cli::{
    EnsembleArgs, FarmArgs, FarmSettings, ServeArgs, ServeSettings, SpecArgs, TransportKind,
};
use plinger::master::MasterConfig;
use plinger::output_files::write_run_report;
use plinger::pool::PoolOptions;
use plinger::service::{
    EnsembleRequest, EnsembleSummary, ErrorCode, ResultCache, ServiceError, ServiceMetrics,
    ShardReply, SpectrumRequest, TAG_REQ_ENSEMBLE, TAG_REQ_METRICS, TAG_REQ_SPECTRUM,
    TAG_RESP_ENSEMBLE, TAG_RESP_ERROR, TAG_RESP_METRICS, TAG_RESP_SHARD, TAG_RESP_SPECTRUM,
};
use plinger::{
    hash_reals, job_hash, CancelReason, FarmError, FarmPool, FaultPlan, JobControl, SchedulePolicy,
    SpecDecodeError, SpectrumService,
};
use telemetry::expo;
use telemetry::log::{self as tlog, Level};

/// Flight-recorder events dumped per failing job.
const FLIGHT_DUMP_EVENTS: usize = 256;

/// Idle-accept poll interval while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Poll interval of the drain wait loop.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Per-connection read timeout, so handlers blocked between frames
/// notice a drain instead of wedging the shutdown on a silent peer.
const READ_POLL: Duration = Duration::from_millis(200);

/// Retry hint per excess queued request when shedding, ms.
const SHED_RETRY_STEP_MS: u64 = 50;

/// Hard cap on any retry hint or client backoff delay, ms.
const RETRY_CAP_MS: u64 = 2000;

/// Client retry attempts after the first try (`--retries`).
const DEFAULT_RETRIES: u32 = 5;

/// Client backoff base delay (`--retry-base-ms`).
const DEFAULT_RETRY_BASE_MS: u64 = 50;

const USAGE: &str = "\
usage:
  plinger-serve --listen ADDR [server options]
  plinger-serve --connect ADDR [spectrum options]

server options:
  --listen ADDR             bind address (port 0 picks one; the bound
                            address is printed on startup)
  --metrics-addr ADDR       also serve HTTP GET /metrics (Prometheus
                            text) and /healthz on this address
  --workers N               resident pool workers            [cores]
  --transport channel|shmem pool transport                   [channel]
  --max-requests N          drain after N connections        [serve forever]
  --queue-limit N           shed requests past N in flight   [64]
  --cache-dir DIR           crash-safe result cache directory
  --report-dir DIR          write a run_report JSON per cache miss
  --recovery MODE           failfast|requeue                 [requeue]
  --max-attempts N          dispatches per mode before quarantine [2]
  --poll MS / --drain-timeout MS / --heartbeat-timeout MS
  --respawn-limit N         pooled worker respawn budget     [2]
  --chunk N                 modes per assignment message     [1]
  --log LEVEL[,json]        structured events on stderr
                            (error|warn|info|debug)          [off]
SIGTERM/SIGINT drain gracefully: stop accepting, finish the queue
(bounded by --drain-timeout), then exit 0.

spectrum options (client): the same cosmology/grid flags as linger —
  --model, --h, --omega-b, --omega-c, --omega-lambda, --m-nu, --n-s,
  --gauge, --ic, --preset, --kmin, --kmax, --nk, --lmax, --tau-end
plus:
  --metrics                 also query service counters
  --deadline-ms MS          give the server a time budget; an expired
                            request is cancelled, not finished
  --retries N               retry busy/shutting-down refusals [5]
  --retry-base-ms MS        backoff base delay                [50]
  --ensemble                sweep mode: send one tag-22 ensemble request
                            built from the axes below (the base
                            cosmology flags fill the non-swept fields)
  --sweep-omega-b LIST      comma-separated Ω_b axis   [base value]
  --sweep-h LIST            comma-separated h axis     [base value]
  --sweep-ns LIST           comma-separated n_s axis   [base value]
In --ensemble mode the client prints one `shard=i/N cache_hit=…
outputs=… fnv=…` line per tag-23 frame and a final `ensemble …`
summary line from the tag-24 terminator.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args
        .iter()
        .position(|a| a == "--listen" || a == "--connect");
    let result = match mode.map(|i| args[i].as_str()) {
        Some("--listen") => server_main(&args),
        Some("--connect") => client_main(&args),
        _ => Err("need --listen ADDR (server) or --connect ADDR (client)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------- signals

/// Drain trigger: set by the SIGTERM/SIGINT handler, polled by the
/// accept loop.
static TERM: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_term(_signum: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT into the [`TERM`] flag so the accept loop
/// can drain instead of the process dying mid-request.
fn install_term_handler() {
    // SAFETY: `on_term` only stores to a static atomic, which is
    // async-signal-safe, and `signal` is the libc prototype.
    let handler = on_term as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

// ---------------------------------------------------------------- server

fn server_main(args: &[String]) -> Result<(), String> {
    let mut farm = FarmArgs::default();
    let mut serve_args = ServeArgs::default();
    let mut fault = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if farm.try_flag(flag, &mut it)? || serve_args.try_flag(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            // hidden, test-only: script a fault into the initial workers
            "--fault" => {
                let spec = it.next().ok_or("--fault needs a value")?;
                fault = Some(
                    parse_fault_plan(spec).ok_or_else(|| format!("bad --fault value {spec}"))?,
                )
            }
            other => return Err(format!("unknown server flag {other}")),
        }
    }
    let settings = farm.build()?;
    let cfg = serve_args.build()?;
    settings.apply_log();
    install_term_handler();
    match settings.transport {
        TransportKind::Channel => serve::<ChannelWorld>(&settings, &cfg, fault),
        TransportKind::Shmem => serve::<ShmemWorld>(&settings, &cfg, fault),
        TransportKind::Tcp => {
            Err("plinger-serve pools thread transports; use --transport channel|shmem".into())
        }
    }
}

/// Parse the hidden `--fault` spec: `drop:RANK:AFTER`,
/// `stall:RANK:AFTER:MS`, or `failmode:IK` (ranks 1-based).
fn parse_fault_plan(s: &str) -> Option<FaultPlan> {
    let mut parts = s.split(':');
    match parts.next()? {
        "drop" => Some(FaultPlan::DropWorker {
            rank: parts.next()?.parse().ok()?,
            after_modes: parts.next()?.parse().ok()?,
        }),
        "stall" => Some(FaultPlan::StallWorker {
            rank: parts.next()?.parse().ok()?,
            after_modes: parts.next()?.parse().ok()?,
            stall: Duration::from_millis(parts.next()?.parse().ok()?),
        }),
        "failmode" => Some(FaultPlan::FailMode {
            ik: parts.next()?.parse().ok()?,
        }),
        _ => None,
    }
}

/// Request-lifecycle state shared between the accept loop and the
/// connection handlers.
struct ServeState {
    /// Reference point for the drain deadline arithmetic.
    start: Instant,
    /// Set once the server stops accepting (a drain has begun).
    draining: AtomicBool,
    /// Set when the drain deadline passes: every in-flight pool job's
    /// [`JobControl`] points here, so stragglers cancel cooperatively.
    hard_cancel: AtomicBool,
    /// Live connection handlers; the drain waits for zero.
    active: AtomicU64,
    /// Drain deadline as ms after `start` (0 = no drain yet).
    drain_deadline_ms: AtomicU64,
}

impl ServeState {
    fn new() -> Self {
        Self {
            start: Instant::now(),
            draining: AtomicBool::new(false),
            hard_cancel: AtomicBool::new(false),
            active: AtomicU64::new(0),
            drain_deadline_ms: AtomicU64::new(0),
        }
    }

    /// Stop admitting new connections and set the drain deadline.
    fn begin_drain(&self, timeout: Duration) {
        let deadline = (self.start.elapsed() + timeout).as_millis() as u64;
        // +1 so a zero-timeout drain still records a nonzero deadline
        self.drain_deadline_ms
            .store(deadline.max(1), Ordering::SeqCst);
        self.draining.store(true, Ordering::SeqCst);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// True once the drain window is exhausted: outstanding requests
    /// are refused and running jobs get cancelled.
    fn past_drain_deadline(&self) -> bool {
        let d = self.drain_deadline_ms.load(Ordering::SeqCst);
        d != 0 && self.start.elapsed().as_millis() as u64 >= d
    }
}

fn serve<W: World>(
    settings: &FarmSettings,
    cfg: &ServeSettings,
    fault: Option<FaultPlan>,
) -> Result<(), String> {
    let pool = FarmPool::<W>::start_with(
        settings.workers,
        settings.master_config(),
        PoolOptions {
            respawn_limit: settings.respawn_limit,
            fault,
        },
    )
    .map_err(|e| format!("starting pool failed: {e}"))?;
    let n_workers = pool.n_workers();
    let cache = match cfg.cache_dir.as_ref() {
        Some(dir) => ResultCache::with_dir(dir)
            .map_err(|e| format!("opening cache dir {} failed: {e}", dir.display()))?,
        None => ResultCache::new(),
    };
    let service = SpectrumService::with_cache(pool, SchedulePolicy::LargestFirst, cache);
    let metrics = service.metrics();
    let service = Mutex::new(service);

    let listen = cfg.listen.as_str();
    let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen} failed: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?;
    // the startup line scripts parse to learn the ephemeral port; the
    // metrics line (if any) must come after it
    println!("plinger-serve: listening on {addr}");
    if let Some(maddr) = cfg.metrics_addr.as_deref() {
        let mlistener =
            TcpListener::bind(maddr).map_err(|e| format!("bind {maddr} failed: {e}"))?;
        let maddr = mlistener
            .local_addr()
            .map_err(|e| format!("metrics local_addr failed: {e}"))?;
        println!("plinger-serve: metrics on {maddr}");
        let scrape = Arc::clone(&metrics);
        let queue_limit = cfg.queue_limit;
        // detached: the scrape endpoint only touches the shared metrics
        // handle, never the service lock, and dies with the process
        std::thread::spawn(move || serve_metrics(mlistener, &scrape, queue_limit));
    }
    eprintln!(
        "plinger-serve: pool of {} {} workers warm",
        settings.workers,
        W::NAME
    );

    // non-blocking accepts so the loop can poll the TERM flag
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking failed: {e}"))?;
    let state = ServeState::new();
    let drain_timeout = settings
        .drain_timeout
        .unwrap_or(MasterConfig::default().drain_timeout);

    let transport_tag = W::NAME;
    let dir = cfg.report_dir.as_deref();
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating report dir {} failed: {e}", dir.display()))?;
    }
    std::thread::scope(|scope| -> Result<(), String> {
        let mut accepted = 0usize;
        loop {
            if TERM.load(Ordering::SeqCst) {
                tlog::log(Level::Warn, "serve", "drain_signal", &[]);
                break;
            }
            if cfg.max_requests > 0 && accepted >= cfg.max_requests {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    accepted += 1;
                    // blocking per-connection I/O, but with a poll-sized
                    // read timeout so handlers notice a drain
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(READ_POLL));
                    state.active.fetch_add(1, Ordering::SeqCst);
                    let service = &service;
                    let metrics = &*metrics;
                    let state = &state;
                    let queue_limit = cfg.queue_limit;
                    scope.spawn(move || {
                        if let Err(e) = handle_connection(
                            stream,
                            service,
                            metrics,
                            state,
                            queue_limit,
                            n_workers,
                            dir,
                            transport_tag,
                        ) {
                            eprintln!("plinger-serve: connection error: {e}");
                        }
                        state.active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        // graceful drain: stop accepting, finish the in-flight queue
        // bounded by the drain timeout, then cancel stragglers
        state.begin_drain(drain_timeout);
        metrics.set_draining(true);
        tlog::log(
            Level::Warn,
            "serve",
            "drain_begin",
            &[
                ("active", state.active.load(Ordering::SeqCst).to_string()),
                ("timeout_ms", drain_timeout.as_millis().to_string()),
            ],
        );
        while state.active.load(Ordering::SeqCst) > 0 && !state.past_drain_deadline() {
            std::thread::sleep(DRAIN_POLL);
        }
        let leftover = state.active.load(Ordering::SeqCst);
        if leftover > 0 {
            // cooperative kill switch: every running job's JobControl
            // watches this flag, and idle connections time out closed
            state.hard_cancel.store(true, Ordering::SeqCst);
            tlog::log(
                Level::Warn,
                "serve",
                "drain_forced",
                &[("active", leftover.to_string())],
            );
        }
        Ok(())
        // scope exit joins every remaining connection handler
    })?;
    tlog::log(Level::Info, "serve", "drain_done", &[]);

    let service = service
        .into_inner()
        .map_err(|_| "service lock poisoned".to_string())?;
    println!(
        "plinger-serve: served {} requests, cache hits={} misses={}, pool jobs={}",
        service.requests(),
        service.cache().hits(),
        service.cache().misses(),
        service.pool().jobs_run(),
    );
    service.shutdown();
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn handle_connection<W: World>(
    mut stream: TcpStream,
    service: &Mutex<SpectrumService<W>>,
    metrics: &ServiceMetrics,
    state: &ServeState,
    queue_limit: u64,
    n_workers: usize,
    report_dir: Option<&Path>,
    transport_tag: &str,
) -> Result<(), String> {
    let mut buf = BytesMut::new();
    let mut served = 0usize;
    loop {
        let msg = match read_frame(&mut stream, &mut buf)? {
            FrameRead::Frame(msg) => msg,
            FrameRead::Eof => return Ok(()),
            FrameRead::TimedOut => {
                // a keep-alive lull: during a drain, idle connections
                // that already got an answer are closed so the join
                // can't wedge on a silent peer; fresh connections get
                // until the drain deadline to speak
                if state.draining() && (served > 0 || state.past_drain_deadline()) {
                    return Ok(());
                }
                continue;
            }
        };
        match msg.tag {
            TAG_REQ_SPECTRUM => {
                let reply = if state.draining() && state.past_drain_deadline() {
                    // the drain window is spent: anything still asking
                    // is refused so the process can exit
                    Err(ServiceError::new(
                        ErrorCode::ShuttingDown,
                        "server is draining",
                    ))
                } else {
                    let depth = metrics.enter_queue();
                    if depth > queue_limit {
                        metrics.leave_queue();
                        Err(shed(metrics, depth, queue_limit))
                    } else {
                        answer_spectrum(
                            service,
                            metrics,
                            state,
                            &msg.data,
                            report_dir,
                            transport_tag,
                        )
                    }
                };
                served += 1;
                match reply {
                    Ok(payload) => send_frame(&mut stream, TAG_RESP_SPECTRUM, &payload)?,
                    Err(err) => send_frame(&mut stream, TAG_RESP_ERROR, &err.encode())?,
                }
            }
            TAG_REQ_ENSEMBLE => {
                if state.draining() && state.past_drain_deadline() {
                    let err = ServiceError::new(ErrorCode::ShuttingDown, "server is draining");
                    send_frame(&mut stream, TAG_RESP_ERROR, &err.encode())?;
                } else {
                    let depth = metrics.enter_queue();
                    if depth > queue_limit {
                        metrics.leave_queue();
                        let err = shed(metrics, depth, queue_limit);
                        send_frame(&mut stream, TAG_RESP_ERROR, &err.encode())?;
                    } else {
                        answer_ensemble(&mut stream, service, metrics, state, &msg.data)?;
                    }
                }
                served += 1;
            }
            // answered off the shared metrics handle, never the service
            // lock: a scrape during a long job must not block
            TAG_REQ_METRICS => send_frame(
                &mut stream,
                TAG_RESP_METRICS,
                &metrics.wire_payload(n_workers),
            )?,
            other => {
                let err = ServiceError::new(
                    ErrorCode::BadRequest,
                    format!("unknown request tag {other}"),
                );
                send_frame(&mut stream, TAG_RESP_ERROR, &err.encode())?;
            }
        }
    }
}

/// Count and log a request refused at admission — undecodable, or a
/// cosmology no worker can evolve — before it could wait for the
/// service lock or reach the pool.
fn refuse(metrics: &ServiceMetrics, err: &ServiceError) {
    metrics.errors.inc();
    tlog::log(
        Level::Error,
        "service",
        "request_failed",
        &[("error", err.message.clone())],
    );
}

/// Refuse one over-limit request: count it, log it, and build the
/// typed `busy` frame whose retry hint scales with the excess load.
fn shed(metrics: &ServiceMetrics, depth: u64, queue_limit: u64) -> ServiceError {
    let excess = depth.saturating_sub(queue_limit);
    let retry_after_ms = (SHED_RETRY_STEP_MS * excess.max(1)).min(RETRY_CAP_MS);
    metrics.requests_shed.inc();
    tlog::log(
        Level::Warn,
        "service",
        "request_shed",
        &[
            ("queue_depth", depth.to_string()),
            ("queue_limit", queue_limit.to_string()),
            ("retry_after_ms", retry_after_ms.to_string()),
        ],
    );
    let mut err = ServiceError::new(
        ErrorCode::Busy,
        format!("queue full ({depth} requests in flight, limit {queue_limit})"),
    );
    err.retry_after_ms = retry_after_ms;
    err
}

/// Serve one spectrum request end to end, recording queue-wait, run,
/// and total latency plus the request-scoped log events.  The caller
/// has already counted the request into the queue; every path out of
/// here leaves it.
fn answer_spectrum<W: World>(
    service: &Mutex<SpectrumService<W>>,
    metrics: &ServiceMetrics,
    state: &ServeState,
    data: &[f64],
    report_dir: Option<&Path>,
    transport_tag: &str,
) -> Result<Vec<f64>, ServiceError> {
    let t_accept = Instant::now();
    let finish = || {
        metrics.leave_queue();
        metrics.total_ns.record(elapsed_ns(t_accept));
    };

    let req = SpectrumRequest::decode(data)
        .map_err(|e| ServiceError::new(ErrorCode::BadRequest, spec_error_text(&e)))
        .and_then(|req| req.admit().map(|()| req));
    let req = match req {
        Ok(req) => req,
        Err(err) => {
            refuse(metrics, &err);
            finish();
            return Err(err);
        }
    };
    let deadline = req
        .deadline_ms
        .map(|ms| t_accept + Duration::from_secs_f64(ms / 1e3));
    let key = job_hash(&req.spec);
    let job = tlog::job_hex(key);
    tlog::log(
        Level::Info,
        "service",
        "request_accepted",
        &[
            ("job", job.clone()),
            ("queue_depth", metrics.queue_depth().to_string()),
            (
                "deadline_ms",
                req.deadline_ms
                    .map_or("none".into(), |ms| format!("{ms:.0}")),
            ),
        ],
    );

    let Ok(mut svc) = service.lock() else {
        metrics.errors.inc();
        finish();
        return Err(ServiceError::new(
            ErrorCode::Internal,
            "service lock poisoned",
        ));
    };
    metrics.queue_wait_ns.record(elapsed_ns(t_accept));
    let ctrl = JobControl {
        deadline,
        cancel: Some(&state.hard_cancel),
    };
    let t_run = Instant::now();
    let outcome = svc.handle_with(&req.spec, &ctrl);
    let requests = svc.requests();
    drop(svc);
    metrics.run_ns.record(elapsed_ns(t_run));
    finish();

    let reply = match outcome {
        Ok(reply) => reply,
        Err(e) => {
            metrics.errors.inc();
            let (code, is_cancel) = match &e {
                FarmError::Cancelled { reason, .. } => (
                    match reason {
                        CancelReason::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                        CancelReason::Cancelled => ErrorCode::Cancelled,
                    },
                    true,
                ),
                _ => (ErrorCode::Internal, false),
            };
            let text = if is_cancel {
                e.to_string()
            } else {
                format!("farm failed: {e}")
            };
            tlog::log(
                Level::Error,
                "service",
                "request_failed",
                &[("job", job.clone()), ("error", text.clone())],
            );
            // a cancel is deliberate — only real failures dump evidence
            if !is_cancel {
                write_flight_dump(report_dir, key, &job);
            }
            return Err(ServiceError::new(code, text));
        }
    };
    if let Some(report) = reply.report.as_ref() {
        // quarantined modes mean the answer is incomplete: keep the
        // evidence even though the request itself succeeded
        if !report.recovery.failed_modes.is_empty() {
            write_flight_dump(report_dir, key, &job);
        }
        if let Some(dir) = report_dir {
            let prefix = dir
                .join(format!("req{:04}_{:016x}", requests, reply.key))
                .to_string_lossy()
                .into_owned();
            match write_run_report(&prefix, report, transport_tag) {
                Ok((path, _)) => eprintln!("plinger-serve: run report written to {path}"),
                Err(e) => eprintln!("plinger-serve: writing run report failed: {e}"),
            }
        }
    }
    tlog::log(
        Level::Info,
        "service",
        "request_done",
        &[
            ("job", job),
            ("cache_hit", u8::from(reply.cache_hit).to_string()),
            (
                "wall_ms",
                format!("{:.3}", t_accept.elapsed().as_secs_f64() * 1e3),
            ),
        ],
    );
    let mut payload = Vec::with_capacity(1 + reply.body.len());
    payload.push(if reply.cache_hit { 1.0 } else { 0.0 });
    payload.extend_from_slice(&reply.body);
    Ok(payload)
}

/// Serve one ensemble request: stream a [`TAG_RESP_SHARD`] frame per
/// shard as the service finishes it (cache hits arrive immediately;
/// misses after their pool job), then the [`TAG_RESP_ENSEMBLE`]
/// terminator — or a [`TAG_RESP_ERROR`], which ends the stream.  The
/// caller has already counted the request into the queue; every path
/// out of here leaves it.
fn answer_ensemble<W: World>(
    stream: &mut TcpStream,
    service: &Mutex<SpectrumService<W>>,
    metrics: &ServiceMetrics,
    state: &ServeState,
    data: &[f64],
) -> Result<(), String> {
    let t_accept = Instant::now();
    let finish = || {
        metrics.leave_queue();
        metrics.total_ns.record(elapsed_ns(t_accept));
    };
    let req = EnsembleRequest::decode(data)
        .map_err(|e| ServiceError::new(ErrorCode::BadRequest, format!("bad ensemble request: {e}")))
        .and_then(|req| req.admit().map(|()| req));
    let req = match req {
        Ok(req) => req,
        Err(err) => {
            refuse(metrics, &err);
            finish();
            return send_frame(stream, TAG_RESP_ERROR, &err.encode());
        }
    };
    let deadline = req
        .deadline_ms
        .map(|ms| t_accept + Duration::from_secs_f64(ms / 1e3));
    let Ok(mut svc) = service.lock() else {
        metrics.errors.inc();
        finish();
        let err = ServiceError::new(ErrorCode::Internal, "service lock poisoned");
        return send_frame(stream, TAG_RESP_ERROR, &err.encode());
    };
    metrics.queue_wait_ns.record(elapsed_ns(t_accept));
    let ctrl = JobControl {
        deadline,
        cancel: Some(&state.hard_cancel),
    };
    let t_run = Instant::now();
    let outcome = svc.handle_ensemble_with(&req.ens, &ctrl, |r: &ShardReply| {
        send_frame(stream, TAG_RESP_SHARD, &r.frame())
            .map_err(|detail| FarmError::Protocol { rank: 0, detail })
    });
    drop(svc);
    metrics.run_ns.record(elapsed_ns(t_run));
    finish();
    match outcome {
        Ok(summary) => send_frame(stream, TAG_RESP_ENSEMBLE, &summary.frame()),
        Err(FarmError::Protocol { detail, .. }) => {
            // the stream itself failed: nothing more can be sent
            Err(detail)
        }
        Err(e) => {
            metrics.errors.inc();
            let code = match &e {
                FarmError::Cancelled { reason, .. } => match reason {
                    CancelReason::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                    CancelReason::Cancelled => ErrorCode::Cancelled,
                },
                _ => ErrorCode::Internal,
            };
            let err = ServiceError::new(code, format!("ensemble failed: {e}"));
            send_frame(stream, TAG_RESP_ERROR, &err.encode())
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Dump the flight recorder's last events for `key` next to the run
/// reports, so a failed or degraded job leaves its story behind.
fn write_flight_dump(report_dir: Option<&Path>, key: u64, job: &str) {
    let Some(dir) = report_dir else { return };
    let events = tlog::for_job(key, FLIGHT_DUMP_EVENTS);
    let path = dir.join(format!("flight_{job}.jsonl"));
    match std::fs::write(&path, tlog::render_flight_dump(&events)) {
        Ok(()) => {
            tlog::log(
                Level::Warn,
                "service",
                "flight_dump",
                &[
                    ("job", job.to_string()),
                    ("events", events.len().to_string()),
                    ("path", path.display().to_string()),
                ],
            );
            eprintln!(
                "plinger-serve: flight recorder dump ({} events) written to {}",
                events.len(),
                path.display()
            );
        }
        Err(e) => eprintln!("plinger-serve: writing flight dump failed: {e}"),
    }
}

// ----------------------------------------------------------- /metrics

/// Read a request head up to its blank line (requests can arrive
/// split across arbitrarily many segments), bounded at 4 kB.
fn read_http_head(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() >= 4096 {
            return None;
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    Some(String::from_utf8_lossy(&head).into_owned())
}

/// Answer Prometheus scrapes and health probes on a dedicated
/// listener: strictly GET, one request per connection, HTTP/1.0.
fn serve_metrics(listener: TcpListener, metrics: &ServiceMetrics, queue_limit: u64) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let Some(head) = read_http_head(&mut stream) else {
            continue;
        };
        let response = match expo::parse_http_get(&head) {
            Some("/metrics") => expo::http_response(
                200,
                "OK",
                "text/plain; version=0.0.4",
                &telemetry::render_prometheus(&metrics.snapshot(), "plinger"),
            ),
            Some("/healthz") => {
                // not-ready the instant a drain begins, so load
                // balancers stop routing before the listener closes
                let ready = metrics.workers_alive() >= 1
                    && metrics.queue_depth() < queue_limit
                    && !metrics.draining();
                if ready {
                    expo::http_response(200, "OK", "text/plain", "ok\n")
                } else {
                    expo::http_response(503, "Service Unavailable", "text/plain", "not ready\n")
                }
            }
            Some(_) => expo::http_response(404, "Not Found", "text/plain", "not found\n"),
            None => expo::http_response(405, "Method Not Allowed", "text/plain", "GET only\n"),
        };
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

fn spec_error_text(e: &SpecDecodeError) -> String {
    format!("bad spectrum request: {e:?}")
}

// ---------------------------------------------------------------- client

/// Why a client attempt did not produce a spectrum.
enum ClientError {
    /// Transient refusal (busy, shutting down, connect failure):
    /// worth retrying after `hint_ms`.
    Retryable { hint_ms: u64, what: String },
    /// A real failure; retrying would just repeat it.
    Fatal(String),
}

fn client_main(args: &[String]) -> Result<(), String> {
    let mut spec = SpecArgs::default();
    let mut connect = None;
    let mut want_metrics = false;
    let mut deadline_ms: Option<f64> = None;
    let mut retries = DEFAULT_RETRIES;
    let mut retry_base_ms = DEFAULT_RETRY_BASE_MS;
    let mut ens_args = EnsembleArgs::default();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if spec.try_flag(flag, &mut it)? || ens_args.try_flag(flag, &mut it)? {
            continue;
        }
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--connect" => connect = Some(val()?.clone()),
            "--metrics" => want_metrics = true,
            "--deadline-ms" => {
                let ms: f64 = val()?
                    .parse()
                    .map_err(|_| "bad --deadline-ms value".to_string())?;
                deadline_ms = (ms > 0.0).then_some(ms);
            }
            "--retries" => {
                retries = val()?
                    .parse()
                    .map_err(|_| "bad --retries value".to_string())?
            }
            "--retry-base-ms" => {
                retry_base_ms = val()?
                    .parse()
                    .map_err(|_| "bad --retry-base-ms value".to_string())?
            }
            other => return Err(format!("unknown client flag {other}")),
        }
    }
    let addr = connect.ok_or("--connect needs a value")?;
    let base = spec.build()?;
    if let Some(ens) = ens_args.build(base.clone())? {
        let request = EnsembleRequest { ens, deadline_ms };
        let key = plinger::ensemble_hash(&request.ens);
        let mut attempt = 0u32;
        loop {
            match client_ensemble_once(&addr, &request) {
                Ok(()) => return Ok(()),
                Err(ClientError::Fatal(msg)) => return Err(msg),
                Err(ClientError::Retryable { hint_ms, what }) => {
                    if attempt >= retries {
                        return Err(format!("giving up after {} attempts: {what}", attempt + 1));
                    }
                    let delay = backoff_ms(key, attempt, retry_base_ms, hint_ms);
                    eprintln!(
                        "plinger-serve: attempt {} refused ({what}); retrying in {delay} ms",
                        attempt + 1
                    );
                    std::thread::sleep(Duration::from_millis(delay));
                    attempt += 1;
                }
            }
        }
    }
    let request = SpectrumRequest {
        spec: base,
        deadline_ms,
    };
    let key = job_hash(&request.spec);

    let mut attempt = 0u32;
    loop {
        match client_once(&addr, &request, want_metrics) {
            Ok(()) => return Ok(()),
            Err(ClientError::Fatal(msg)) => return Err(msg),
            Err(ClientError::Retryable { hint_ms, what }) => {
                if attempt >= retries {
                    return Err(format!("giving up after {} attempts: {what}", attempt + 1));
                }
                let delay = backoff_ms(key, attempt, retry_base_ms, hint_ms);
                eprintln!(
                    "plinger-serve: attempt {} refused ({what}); retrying in {delay} ms",
                    attempt + 1
                );
                std::thread::sleep(Duration::from_millis(delay));
                attempt += 1;
            }
        }
    }
}

/// One connect-send-receive attempt of an ensemble sweep: send the
/// tag-22 request, print one line per tag-23 shard frame, finish on the
/// tag-24 summary.
fn client_ensemble_once(addr: &str, request: &EnsembleRequest) -> Result<(), ClientError> {
    let retryable = |what: String| ClientError::Retryable { hint_ms: 0, what };
    let mut stream =
        TcpStream::connect(addr).map_err(|e| retryable(format!("connect {addr} failed: {e}")))?;
    let mut buf = BytesMut::new();
    send_frame(&mut stream, TAG_REQ_ENSEMBLE, &request.encode()).map_err(&retryable)?;
    let mut shards_seen = 0usize;
    loop {
        let msg = match read_frame(&mut stream, &mut buf) {
            Ok(FrameRead::Frame(msg)) => msg,
            Ok(FrameRead::Eof) => {
                return Err(retryable(format!(
                    "server closed the stream after {shards_seen} shard(s)"
                )))
            }
            Ok(FrameRead::TimedOut) => continue, // shards can take a while
            Err(e) => return Err(ClientError::Fatal(e)),
        };
        match msg.tag {
            TAG_RESP_SHARD => {
                let shard = ShardReply::decode_frame(&msg.data).map_err(ClientError::Fatal)?;
                let (outputs, wall) = decode_body(&shard.body)?;
                println!(
                    "shard={}/{} cache_hit={} outputs={} wall={:.6} fnv={:016x}",
                    shard.shard,
                    shard.n_shards,
                    u8::from(shard.cache_hit),
                    outputs,
                    wall,
                    hash_reals(&shard.body),
                );
                shards_seen += 1;
            }
            TAG_RESP_ENSEMBLE => {
                let summary =
                    EnsembleSummary::decode_frame(&msg.data).map_err(ClientError::Fatal)?;
                println!(
                    "ensemble shards={} ok={} hits={} wall={:.6}",
                    summary.n_shards, summary.n_ok, summary.cache_hits, summary.wall_seconds,
                );
                return Ok(());
            }
            TAG_RESP_ERROR => {
                let err = ServiceError::decode(&msg.data);
                return Err(match err.code {
                    ErrorCode::Busy | ErrorCode::ShuttingDown => ClientError::Retryable {
                        hint_ms: err.retry_after_ms,
                        what: err.to_string(),
                    },
                    _ => ClientError::Fatal(format!("server error: {err}")),
                });
            }
            other => {
                return Err(ClientError::Fatal(format!(
                    "unexpected response tag {other}"
                )))
            }
        }
    }
}

/// Capped exponential backoff with deterministic jitter: the server's
/// `retry_after_ms` hint wins when it is longer, and the jitter is a
/// pure function of (job key, attempt) so reruns are reproducible.
fn backoff_ms(key: u64, attempt: u32, base_ms: u64, hint_ms: u64) -> u64 {
    let exp = base_ms
        .saturating_mul(1u64 << attempt.min(10))
        .min(RETRY_CAP_MS);
    let delay = exp.max(hint_ms).min(RETRY_CAP_MS);
    let jitter = hash_reals(&[key as f64, f64::from(attempt)]) % (delay / 4 + 1);
    delay + jitter
}

/// One connect-send-receive attempt against the server.
fn client_once(
    addr: &str,
    request: &SpectrumRequest,
    want_metrics: bool,
) -> Result<(), ClientError> {
    let retryable = |what: String| ClientError::Retryable { hint_ms: 0, what };
    let mut stream =
        TcpStream::connect(addr).map_err(|e| retryable(format!("connect {addr} failed: {e}")))?;
    let mut buf = BytesMut::new();

    send_frame(&mut stream, TAG_REQ_SPECTRUM, &request.encode()).map_err(&retryable)?;
    let msg = match read_frame(&mut stream, &mut buf) {
        Ok(FrameRead::Frame(msg)) => msg,
        // the server may close mid-drain or mid-restart; both are
        // transient from the client's seat
        Ok(FrameRead::Eof) => {
            return Err(retryable(
                "server closed the connection before answering".into(),
            ))
        }
        Ok(FrameRead::TimedOut) => return Err(retryable("receive timed out".into())),
        Err(e) => return Err(ClientError::Fatal(e)),
    };
    match msg.tag {
        TAG_RESP_SPECTRUM => {
            let (hit, body) = msg
                .data
                .split_first()
                .ok_or_else(|| ClientError::Fatal("empty spectrum response".into()))?;
            let (outputs, wall) = decode_body(body)?;
            println!(
                "cache_hit={} outputs={} wall={:.6} fnv={:016x}",
                if *hit != 0.0 { 1 } else { 0 },
                outputs,
                wall,
                hash_reals(body),
            );
        }
        TAG_RESP_ERROR => {
            let err = ServiceError::decode(&msg.data);
            return Err(match err.code {
                ErrorCode::Busy | ErrorCode::ShuttingDown => ClientError::Retryable {
                    hint_ms: err.retry_after_ms,
                    what: err.to_string(),
                },
                _ => ClientError::Fatal(format!("server error: {err}")),
            });
        }
        other => {
            return Err(ClientError::Fatal(format!(
                "unexpected response tag {other}"
            )))
        }
    }

    if want_metrics {
        send_frame(&mut stream, TAG_REQ_METRICS, &[]).map_err(&retryable)?;
        let msg = match read_frame(&mut stream, &mut buf) {
            Ok(FrameRead::Frame(msg)) => msg,
            Ok(_) => {
                return Err(retryable(
                    "server closed the connection before metrics".into(),
                ))
            }
            Err(e) => return Err(ClientError::Fatal(e)),
        };
        // the payload grows over time: the first five reals are fixed,
        // anything beyond is gauges + latency summaries (PROTOCOL.md)
        if msg.tag != TAG_RESP_METRICS || msg.data.len() < 5 {
            return Err(ClientError::Fatal(format!(
                "bad metrics response (tag {})",
                msg.tag
            )));
        }
        println!(
            "requests={} hits={} misses={} jobs={} workers={}",
            msg.data[0], msg.data[1], msg.data[2], msg.data[3], msg.data[4],
        );
        if msg.data.len() >= 15 {
            println!(
                "alive={} queue_depth={} errors={} bytes_served={}",
                msg.data[5], msg.data[6], msg.data[7], msg.data[8],
            );
            println!(
                "total_ms p50={:.3} p99={:.3}  queue_ms p50={:.3} p99={:.3}  run_ms p50={:.3} p99={:.3}",
                msg.data[9], msg.data[10], msg.data[11], msg.data[12], msg.data[13], msg.data[14],
            );
        }
    }
    Ok(())
}

/// Decode the response body, mapping failures to fatal client errors.
fn decode_body(body: &[f64]) -> Result<(usize, f64), ClientError> {
    let (outputs, wall) =
        plinger::service::decode_spectrum_body(body).map_err(ClientError::Fatal)?;
    Ok((outputs.len(), wall))
}

// --------------------------------------------------------------- framing

fn send_frame(stream: &mut TcpStream, tag: msgpass::Tag, data: &[f64]) -> Result<(), String> {
    stream
        .write_all(&codec::encode(0, tag, data))
        .map_err(|e| format!("send failed: {e}"))
}

/// Outcome of one framed read.
enum FrameRead {
    /// A complete frame arrived.
    Frame(Message),
    /// Clean EOF between frames (the peer hung up).
    Eof,
    /// The socket's read timeout elapsed with no complete frame; the
    /// partial bytes (if any) stay buffered for the next call.
    TimedOut,
}

/// Read one codec frame, buffering partial reads.
fn read_frame(stream: &mut TcpStream, buf: &mut BytesMut) -> Result<FrameRead, String> {
    loop {
        if let Some(msg) = codec::decode(buf).map_err(|e| format!("bad frame: {e}"))? {
            return Ok(FrameRead::Frame(msg));
        }
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(FrameRead::Eof);
                }
                return Err("connection closed mid-frame".into());
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(FrameRead::TimedOut)
            }
            Err(e) => return Err(format!("recv failed: {e}")),
        }
    }
}
