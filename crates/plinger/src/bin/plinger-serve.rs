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
//! the single pool in arrival order.  This file is the process around
//! the service: argument parsing, signals, the accept and drain loop,
//! the `/metrics` listener and the client.  Every frame a connection
//! reads goes to [`plinger::service::answer`], whose one request path
//! serves spectrum and sweep requests alike.
//!
//! Request lifecycle robustness (docs/PROTOCOL.md §6):
//!
//! * **Deadlines** — a client `--deadline-ms` rides the tag-20/22
//!   frame; an expired request is refused up front or cancelled mid-job
//!   via the cooperative tag-12 path, freeing the ranks for later work.
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
//! `plinger`, sends one spectrum request (or, with `--ensemble`, one
//! sweep), and prints a summary line per spectrum whose `fnv=` field
//! hashes the response body's exact bit patterns — two invocations
//! print the same hash exactly when the service answered with
//! identical bits.  Retryable refusals (`busy`, `shutting-down`,
//! connect failures, a stream closed early) are retried, both kinds
//! through one loop, with capped exponential backoff and deterministic
//! jitter, honoring the server's `retry_after_ms` hint.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use msgpass::channel::ChannelWorld;
use msgpass::{codec, Message, Tag, World};
use plinger::cli::{EnsembleArgs, FarmArgs, ServeArgs, ServeSettings, SpecArgs, TransportKind};
use plinger::pool::PoolOptions;
use plinger::service::{
    answer, EnsembleRequest, EnsembleSummary, ErrorCode, ResultCache, ServiceError, ServiceMetrics,
    ShardReply, SpectrumRequest, TAG_REQ_ENSEMBLE, TAG_REQ_METRICS, TAG_REQ_SPECTRUM,
    TAG_RESP_ENSEMBLE, TAG_RESP_ERROR, TAG_RESP_METRICS, TAG_RESP_SHARD, TAG_RESP_SPECTRUM,
};
use plinger::{hash_reals, job_hash, FarmPool, FaultPlan, SchedulePolicy, SpectrumService};
use telemetry::expo;
use telemetry::log::{self as tlog, Level};

/// Idle-accept poll interval while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Poll interval of the drain wait loop.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Per-connection read timeout, so handlers blocked between frames
/// notice a drain instead of wedging the shutdown on a silent peer.
const READ_POLL: Duration = Duration::from_millis(200);

/// Hard cap on a client backoff delay, ms.
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
  --transport channel       pool transport                   [channel]
  --max-requests N          drain after N connections        [serve forever]
  --queue-limit N           shed requests past N in flight   [64]
  --cache-dir DIR           crash-safe result cache directory
  --report-dir DIR          write a run report and trace per cache miss
  --drain-timeout MS        worker drain window on error     [5000]
  --respawn-limit N         pooled worker respawn budget     [2]
  --log LEVEL[,json]        structured events on stderr
                            (error|warn|info|debug)          [off]
SIGTERM/SIGINT drain gracefully: stop accepting, finish the queue
(bounded by --drain-timeout), then exit 0.

spectrum options (client): the same cosmology/grid flags as linger —
  --model, --h, --omega-b, --omega-c, --omega-lambda, --m-nu, --n-s,
  --gauge, --ic, --preset, --kmin, --kmax, --nk, --lmax, --tau-end
  (--lmax is the photon ladder carried from the first step; without it
  a hierarchy request's ladder is sized for k·τ_end from 2.2 τ_rec on
  and for 2.2 τ_rec before; see linger's usage)
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
                fault = Some(spec.parse::<FaultPlan>()?);
            }
            other => return Err(format!("unknown server flag {other}")),
        }
    }
    let settings = farm.build()?;
    let cfg = serve_args.build()?;
    settings.apply_log();
    install_term_handler();
    match settings.transport {
        TransportKind::Channel => serve(&settings, &cfg, fault),
        TransportKind::Tcp => {
            Err("plinger-serve pools thread transports; use --transport channel".into())
        }
    }
}

/// What the accept loop shares with every connection handler: the
/// service and its metrics, the settings, and the drain state.
struct Server<'a> {
    service: Mutex<SpectrumService<ChannelWorld>>,
    metrics: Arc<ServiceMetrics>,
    cfg: &'a ServeSettings,
    /// Set when the drain deadline passes: every in-flight pool job's
    /// `JobControl` points here, so stragglers cancel cooperatively.
    hard_cancel: AtomicBool,
    /// Live connection handlers; the drain waits for zero.
    active: AtomicU64,
    /// Set once, when a drain begins: its deadline.
    drain_deadline: OnceLock<Instant>,
}

impl Server<'_> {
    /// Stop admitting new connections and set the drain deadline.
    fn begin_drain(&self, timeout: Duration) {
        let _ = self.drain_deadline.set(Instant::now() + timeout);
    }

    /// True once a drain has begun (the accept loop has stopped).
    fn draining(&self) -> bool {
        self.drain_deadline.get().is_some()
    }

    /// True once the drain window is exhausted: outstanding requests
    /// are refused and running jobs get cancelled.
    fn past_drain_deadline(&self) -> bool {
        self.drain_deadline
            .get()
            .is_some_and(|&d| Instant::now() >= d)
    }

    fn handle_connection(&self, mut stream: TcpStream) -> Result<(), String> {
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
                    if self.draining() && (served > 0 || self.past_drain_deadline()) {
                        return Ok(());
                    }
                    continue;
                }
            };
            served += usize::from(matches!(msg.tag, TAG_REQ_SPECTRUM | TAG_REQ_ENSEMBLE));
            answer(
                &self.service,
                &self.metrics,
                self.cfg.queue_limit,
                self.past_drain_deadline(),
                &self.hard_cancel,
                self.cfg.report_dir.as_deref(),
                &msg,
                |tag, data| send_frame(&mut stream, tag, data),
            )?;
        }
    }
}

fn serve(settings: &FarmArgs, cfg: &ServeSettings, fault: Option<FaultPlan>) -> Result<(), String> {
    let pool = FarmPool::<ChannelWorld>::start_with(
        settings.workers,
        settings.master_config(),
        PoolOptions {
            respawn_limit: settings.respawn_limit,
            fault,
        },
    )
    .map_err(|e| format!("starting pool failed: {e}"))?;
    let cache = match cfg.cache_dir.as_ref() {
        Some(dir) => ResultCache::with_dir(dir)
            .map_err(|e| format!("opening cache dir {} failed: {e}", dir.display()))?,
        None => ResultCache::new(),
    };
    let service = SpectrumService::with_cache(pool, SchedulePolicy::LargestFirst, cache);
    let metrics = service.metrics();

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
        ChannelWorld::NAME
    );

    // non-blocking accepts so the loop can poll the TERM flag
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking failed: {e}"))?;
    let drain_timeout = settings.master_config().drain_timeout;
    if let Some(dir) = cfg.report_dir.as_deref() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating report dir {} failed: {e}", dir.display()))?;
    }
    let server = Server {
        service: Mutex::new(service),
        metrics,
        cfg,
        hard_cancel: AtomicBool::new(false),
        active: AtomicU64::new(0),
        drain_deadline: OnceLock::new(),
    };
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
                    server.active.fetch_add(1, Ordering::SeqCst);
                    let server = &server;
                    scope.spawn(move || {
                        if let Err(e) = server.handle_connection(stream) {
                            eprintln!("plinger-serve: connection error: {e}");
                        }
                        server.active.fetch_sub(1, Ordering::SeqCst);
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
        server.begin_drain(drain_timeout);
        server.metrics.set_draining(true);
        tlog::log(
            Level::Warn,
            "serve",
            "drain_begin",
            &[
                ("active", server.active.load(Ordering::SeqCst).to_string()),
                ("timeout_ms", drain_timeout.as_millis().to_string()),
            ],
        );
        while server.active.load(Ordering::SeqCst) > 0 && !server.past_drain_deadline() {
            std::thread::sleep(DRAIN_POLL);
        }
        let leftover = server.active.load(Ordering::SeqCst);
        if leftover > 0 {
            // cooperative kill switch: every running job's JobControl
            // watches this flag, and idle connections time out closed
            server.hard_cancel.store(true, Ordering::SeqCst);
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

    let service = server
        .service
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
    // the backoff jitter's key is the sweep's identity, or the job's
    let (tag, payload, key) = match ens_args.build(base.clone())? {
        Some(ens) => {
            let key = plinger::ensemble_hash(&ens);
            let request = EnsembleRequest { ens, deadline_ms };
            (TAG_REQ_ENSEMBLE, request.encode(), key)
        }
        None => {
            let key = job_hash(&base);
            let request = SpectrumRequest {
                spec: base,
                deadline_ms,
            };
            (TAG_REQ_SPECTRUM, request.encode(), key)
        }
    };
    let mut attempt = 0u32;
    loop {
        match client_once(&addr, tag, &payload, want_metrics) {
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

fn retryable(what: String) -> ClientError {
    ClientError::Retryable { hint_ms: 0, what }
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

/// One connect-send-receive attempt: send the tag-20 or tag-22 request,
/// then print a line per reply frame — the tag-21 spectrum, or a line
/// per tag-23 shard and one for the tag-24 summary.  A tag-29 frame is
/// retryable when its code is `busy` or `shutting-down`.
fn client_once(
    addr: &str,
    tag: Tag,
    payload: &[f64],
    want_metrics: bool,
) -> Result<(), ClientError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| retryable(format!("connect {addr} failed: {e}")))?;
    send_frame(&mut stream, tag, payload).map_err(retryable)?;
    let mut buf = BytesMut::new();
    let mut shards_seen = 0usize;
    loop {
        let msg = match read_frame(&mut stream, &mut buf) {
            Ok(FrameRead::Frame(msg)) => msg,
            // the server may close mid-drain or mid-restart; both are
            // transient from the client's seat
            Ok(FrameRead::Eof) => {
                return Err(retryable(if tag == TAG_REQ_ENSEMBLE {
                    format!("server closed the stream after {shards_seen} shard(s)")
                } else {
                    "server closed the connection before answering".into()
                }))
            }
            Ok(FrameRead::TimedOut) => continue, // shards can take a while
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
                break;
            }
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

    if want_metrics {
        send_frame(&mut stream, TAG_REQ_METRICS, &[]).map_err(retryable)?;
        let msg = match read_frame(&mut stream, &mut buf) {
            Ok(FrameRead::Frame(msg)) => msg,
            Ok(_) => {
                return Err(retryable(
                    "server closed the connection before metrics".into(),
                ))
            }
            Err(e) => return Err(ClientError::Fatal(e)),
        };
        // exactly the 18 reals of ServiceMetrics::wire_payload
        let m = Some(msg.data.as_slice())
            .filter(|_| msg.tag == TAG_RESP_METRICS)
            .and_then(|d| <&[f64; 18]>::try_from(d).ok())
            .ok_or_else(|| ClientError::Fatal(format!("bad metrics response (tag {})", msg.tag)))?;
        println!(
            "requests={} hits={} misses={} jobs={} workers={}",
            m[0], m[1], m[2], m[3], m[4],
        );
        println!(
            "alive={} queue_depth={} errors={} bytes_served={}",
            m[5], m[6], m[7], m[8],
        );
        println!(
            "total_ms p50={:.3} p99={:.3}  queue_ms p50={:.3} p99={:.3}  run_ms p50={:.3} p99={:.3}",
            m[9], m[10], m[11], m[12], m[13], m[14],
        );
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
