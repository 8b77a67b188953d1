//! `serve_mix`: the service user — reads beside writes.
//!
//! A spawned `plinger-serve` is driven by `nproc` persistent connections,
//! each a closed loop: one request for a spec the server has never seen
//! (a miss: a pool job, then a cache insert), then two replays of specs
//! it has (hits).  The jobs are small (8 modes, `Preset::Draft`), so farm
//! dispatch overhead rather than integration sets the miss latency, and
//! what the workload stresses is `plinger::service` — admission, the
//! service lock, the result cache, the body codec — and the TCP framing.
//! Because hits and misses share connections, pool and lock, it shows
//! whether a gain for one is paid for by the other.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use msgpass::channel::ChannelWorld;
use msgpass::{codec, Message};
use plinger::service::{
    ErrorCode, ServiceError, SpectrumRequest, TAG_REQ_METRICS, TAG_REQ_SPECTRUM, TAG_RESP_ERROR,
    TAG_RESP_METRICS, TAG_RESP_SPECTRUM,
};
use plinger::{decode_spectrum_body, run_serial, FarmPool, SchedulePolicy};
use telemetry::SpanEvent;

use crate::gen::{serve_spec, SplitMix64};
use crate::harness::{outputs_hash, Outcome, RunCtx};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{lower_quartile, median, min_max, share_above, tail_percentile};
use crate::sys;
use crate::trace::Tracer;

/// Replays after every miss.
const HITS_PER_MISS: usize = 2;
/// Servers per run, one after another; each gets an equal share of the
/// window.  A server's life is this workload's repetition: it yields one
/// set-up time, one cycle time, one request rate, one CPU cost, and the
/// run reports the better quartile of each, as the other workloads do of
/// their repetitions.  Set-up here is a process spawn and two tiny jobs —
/// a few tens of milliseconds — so its median wants the many samples too.
const ROUNDS: usize = 10;
/// Requests per round that also run through `run_serial`: baseline of
/// the speed-up, and each miss body must decode to its outputs.
const SERIAL_PER_ROUND: usize = 3;
/// A hit slower than this waited behind somebody's pool job.
const HIT_BLOCKED_MS: f64 = 1.0;
/// Request indices reserved for warm-ups, clear of every timed one.
const WARM_UP_INDEX: u64 = 1 << 40;
/// How long a reply may take before the run gives up on the server.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `plinger-serve`, killed and reaped when dropped — on every
/// exit path, a panic included: an orphaned server would keep its cores
/// and poison whatever is measured next.
struct Server {
    child: Child,
    /// Kept open so the server's later prints do not hit a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        // errors mean the child is already gone
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `plinger-serve` beside this executable, where one `cargo build` of
/// both packages puts it.
fn server_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name("plinger-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p plinger -p e2ebench` \
             (a bare `cargo build --release` at the root does not)",
            path.display()
        ))
    }
}

impl Server {
    /// Spawn a server on an ephemeral port and wait until it listens.
    fn spawn(workers: usize) -> Result<Self, String> {
        let mut child = Command::new(server_exe()?)
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn plinger-serve: {e}"))?;
        let stdout = child.stdout.take();
        // from here the guard owns the child: an early return reaps it
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout.ok_or("server stdout not piped")?),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read the server's first line: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("plinger-serve: listening on ")
            .ok_or_else(|| format!("unexpected first line from plinger-serve: {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// One persistent client connection speaking `msgpass::codec` frames.
struct Conn {
    stream: TcpStream,
    buf: BytesMut,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(Self {
            stream,
            buf: BytesMut::new(),
        })
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    fn read(&mut self) -> Result<Message, String> {
        loop {
            if let Some(msg) = codec::decode(&mut self.buf).map_err(|e| format!("frame: {e}"))? {
                return Ok(msg);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

/// What one request came back as.
struct Reply {
    /// Request index (`serve_spec(seed, index)`).
    index: u64,
    /// Whether the harness expected a cache hit.
    replay: bool,
    /// Send → reply decoded, seconds.
    latency: f64,
    /// The server's hit flag and the body, or why there is none.
    result: Result<(bool, Vec<f64>), ServiceError>,
    /// Whether this request's spans were recorded.
    traced: bool,
}

/// Seconds one connection's loop spent building frames, waiting for
/// replies and decoding them.
#[derive(Default, Clone, Copy)]
struct LoopTimes {
    wall: f64,
    encode: f64,
    round_trip: f64,
    decode: f64,
}

/// Send one spectrum request and decode its reply.
fn request(
    conn: &mut Conn,
    seed: u64,
    index: u64,
    replay: bool,
    tracer: &mut Tracer,
    times: &mut LoopTimes,
) -> Result<Reply, String> {
    let id = index as usize;
    let kind = [("kind", if replay { "hit" } else { "miss" }.to_string())];
    let t0 = Instant::now();
    let frame = codec::encode(
        0,
        TAG_REQ_SPECTRUM,
        &SpectrumRequest::new(serve_spec(seed, index)).encode(),
    );
    let t1 = Instant::now();
    conn.send(&frame)?;
    let msg = conn.read()?;
    let t2 = Instant::now();
    let result = match msg.tag {
        TAG_RESP_SPECTRUM => {
            let (flag, body) = msg.data.split_first().ok_or("empty spectrum reply")?;
            decode_spectrum_body(body).map_err(|e| format!("reply body: {e}"))?;
            Ok((*flag != 0.0, body.to_vec()))
        }
        TAG_RESP_ERROR => Err(ServiceError::decode(&msg.data)),
        other => return Err(format!("unexpected reply tag {other}")),
    };
    let t3 = Instant::now();
    tracer.record("encode", id, t0, t1, &kind);
    tracer.record("round_trip", id, t1, t2, &kind);
    tracer.record("decode", id, t2, t3, &kind);
    tracer.record("request", id, t0, t3, &kind);
    times.encode += (t1 - t0).as_secs_f64();
    times.round_trip += (t2 - t1).as_secs_f64();
    times.decode += (t3 - t2).as_secs_f64();
    Ok(Reply {
        index,
        replay,
        latency: (t3 - t1).as_secs_f64(),
        result,
        traced: false,
    })
}

/// Connection `c`'s `i`-th distinct request of round `round`, of `n`
/// connections.
fn miss_index(round: usize, c: usize, n: usize, i: u64) -> u64 {
    ((round as u64) << 32) + i * n as u64 + c as u64
}

/// What one connection's closed loop produced.
struct ClientRun {
    replies: Vec<Reply>,
    /// Seconds of each cycle, a miss and its replays.  Where a miss or a
    /// hit alone reads short or long by whether it met the other
    /// connection's pool job, the cycle pays for one such meeting either
    /// way, so its median sits in the thick of its samples.
    cycles: Vec<f64>,
    times: LoopTimes,
    spans: Vec<SpanEvent>,
}

/// Connection `c`'s closed loop until `deadline` (and at least
/// `min_cycles` cycles): a miss, then replays of requests this
/// connection already made, picked by a seeded draw.
fn client_loop(
    mut conn: Conn,
    ctx: &RunCtx,
    round: usize,
    c: usize,
    deadline: Instant,
    min_cycles: u64,
) -> Result<ClientRun, String> {
    let mut tracer = Tracer::new(ctx.started, 1 + c as u64);
    let index = |i: u64| miss_index(round, c, ctx.workers, i);
    let mut rng = SplitMix64::new(ctx.seed, 0x200 + index(0));
    let mut replies = Vec::new();
    let mut cycles = Vec::new();
    let mut times = LoopTimes::default();
    let began = Instant::now();
    let mut i = 0u64;
    while i < min_cycles || Instant::now() < deadline {
        let cycle_began = Instant::now();
        let traced = ctx.trace && i % 2 == 1;
        tracer.set_on(traced);
        let first = replies.len();
        replies.push(request(
            &mut conn,
            ctx.seed,
            index(i),
            false,
            &mut tracer,
            &mut times,
        )?);
        for _ in 0..HITS_PER_MISS {
            let earlier = index(rng.next_u64() % (i + 1));
            replies.push(request(
                &mut conn,
                ctx.seed,
                earlier,
                true,
                &mut tracer,
                &mut times,
            )?);
        }
        for r in &mut replies[first..] {
            r.traced = traced;
        }
        cycles.push(cycle_began.elapsed().as_secs_f64());
        i += 1;
    }
    times.wall = began.elapsed().as_secs_f64();
    Ok(ClientRun {
        replies,
        cycles,
        times,
        spans: tracer.into_events(),
    })
}

/// Start a server, open one connection per worker, and have each make
/// one miss and replay it, so pool, tables and cache path have all run.
fn set_up(ctx: &RunCtx, round: usize) -> Result<(Server, Vec<Conn>), String> {
    let server = Server::spawn(ctx.workers)?;
    let mut conns = Vec::new();
    let mut idle = Tracer::new(ctx.started, 0);
    for c in 0..ctx.workers {
        let mut conn = Conn::open(&server.addr)?;
        let index = miss_index(round, c, ctx.workers, WARM_UP_INDEX);
        for replay in [false, true] {
            let reply = request(
                &mut conn,
                ctx.seed,
                index,
                replay,
                &mut idle,
                &mut LoopTimes::default(),
            )?;
            reply.result.map_err(|e| format!("warm-up request: {e}"))?;
        }
        conns.push(conn);
    }
    Ok((server, conns))
}

/// What one server's life produced.
struct Round {
    setup_s: f64,
    /// `(request index, hash of its outputs, seconds)` of `run_serial`.
    serial: Vec<(u64, u64, f64)>,
    replies: Vec<Reply>,
    cycles: Vec<f64>,
    times: Vec<LoopTimes>,
    spans: Vec<SpanEvent>,
    loop_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The server's tag-26 frame after the loops.
    served: Vec<f64>,
}

/// One round: a fresh server set up, a few of its coming requests run
/// through `run_serial` in this process (baseline of the speed-up,
/// reference of the verify stage), then the closed loops for `seconds`.
fn round(
    ctx: &RunCtx,
    round: usize,
    began: Instant,
    seconds: f64,
    n_serial: usize,
) -> Result<Round, String> {
    let (server, conns) = set_up(ctx, round)?;
    let setup_s = began.elapsed().as_secs_f64();

    let window = Instant::now();
    // one untimed pass first: a thread that has just woken is not given
    // the clock a busy one gets, and the baseline should be a busy one
    run_serial(&serve_spec(
        ctx.seed,
        miss_index(round, 0, ctx.workers, WARM_UP_INDEX),
    ))
    .map_err(|e| format!("serial: {e}"))?;
    let mut serial = Vec::new();
    for i in 0..n_serial as u64 {
        let index = miss_index(round, 0, ctx.workers, i);
        let (outputs, wall) =
            run_serial(&serve_spec(ctx.seed, index)).map_err(|e| format!("serial: {e}"))?;
        serial.push((index, outputs_hash(&outputs), wall));
    }
    let deadline = window + Duration::from_secs_f64(seconds);
    let cpu_before = sys::cpu_seconds(Some(server.pid()))?;
    let loop_began = Instant::now();
    let loops: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || client_loop(conn, ctx, round, c, deadline, n_serial as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let loop_s = loop_began.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds(Some(server.pid()))? - cpu_before;
    let peak_rss_mb = sys::peak_rss_mb(Some(server.pid()))?;

    // the server's own view, one tag-26 frame after the loops
    let mut conn = Conn::open(&server.addr)?;
    conn.send(&codec::encode(0, TAG_REQ_METRICS, &[]))?;
    let served = conn.read()?;
    if served.tag != TAG_RESP_METRICS || served.data.len() < 15 {
        return Err(format!("bad metrics reply (tag {})", served.tag));
    }
    drop(server);

    let mut out = Round {
        setup_s,
        serial,
        replies: Vec::new(),
        cycles: Vec::new(),
        times: Vec::new(),
        spans: Vec::new(),
        loop_s,
        cpu_s,
        peak_rss_mb,
        served: served.data,
    };
    for l in loops {
        let l = l?;
        out.replies.extend(l.replies);
        out.cycles.extend(l.cycles);
        out.times.push(l.times);
        out.spans.extend(l.spans);
    }
    Ok(out)
}

/// Run `serve_mix`.
pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    // ---- one server after another, each set up afresh and driven for
    // its share of the window: the run sees several set-ups, and no
    // metric hangs on how one server process happened to land in memory
    // and on the cores
    let n_serial = if ctx.smoke { 1 } else { SERIAL_PER_ROUND };
    let n_rounds = if ctx.smoke { 3 } else { ROUNDS };
    let mut rounds = Vec::new();
    for r in 0..n_rounds {
        let began = if r == 0 { ctx.started } else { Instant::now() };
        let share = ctx.seconds / n_rounds as f64;
        rounds.push(round(ctx, r, began, share, n_serial)?);
    }
    let over = |pick: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(pick).collect() };
    let loop_s: f64 = over(|r| r.loop_s).iter().sum();
    let replies: Vec<&Reply> = rounds.iter().flat_map(|r| &r.replies).collect();

    // ---- verify, outside every metric: every reply is a body; a miss
    // was computed and a replay served from the cache; every replay's
    // body is its miss's body bit for bit; sampled miss bodies decode to
    // what `run_serial` makes of their spec
    let attempted = replies.len() as u64;
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut problems = Vec::new();
    let mut miss_bodies = std::collections::BTreeMap::new();
    for r in replies.iter().filter(|r| !r.replay) {
        match &r.result {
            Ok((false, body)) => {
                miss_bodies.insert(r.index, body);
            }
            Ok((true, _)) => {
                failed += 1;
                problems.push(format!("request {}: first sight, yet a cache hit", r.index));
            }
            Err(e) => {
                failed += 1;
                shed += u64::from(e.code == ErrorCode::Busy);
                problems.push(format!("request {}: {e}", r.index));
            }
        }
    }
    for r in replies.iter().filter(|r| r.replay) {
        let same = match (&r.result, miss_bodies.get(&r.index)) {
            (Ok((true, body)), Some(first)) => {
                body.len() == first.len()
                    && body
                        .iter()
                        .zip(first.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            (Err(e), _) => {
                shed += u64::from(e.code == ErrorCode::Busy);
                false
            }
            _ => false,
        };
        if !same {
            failed += 1;
            problems.push(format!("replay of {}: not a bitwise cache hit", r.index));
        }
    }
    let serial: Vec<&(u64, u64, f64)> = rounds.iter().flat_map(|r| &r.serial).collect();
    for (index, reference, _) in &serial {
        let matches = miss_bodies
            .get(index)
            .and_then(|body| decode_spectrum_body(body).ok())
            .is_some_and(|(outputs, _)| outputs_hash(&outputs) == *reference);
        if !matches {
            failed += 1;
            problems.push(format!("request {index}: body differs from run_serial"));
        }
    }
    problems.truncate(20);

    // ---- metrics
    let ms = |pick: &dyn Fn(&Reply) -> bool| -> Vec<f64> {
        replies
            .iter()
            .filter(|r| r.result.is_ok() && pick(r))
            .map(|r| 1e3 * r.latency)
            .collect()
    };
    let miss_ms = ms(&|r| !r.replay);
    let hit_ms = ms(&|r| r.replay);
    let miss_p50 = median(&miss_ms).ok_or("no miss was answered")?;
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let low = |xs: &[f64]| lower_quartile(xs).unwrap_or(0.0);
    let cycle_s = low(&over(|r| median(&r.cycles).unwrap_or(0.0)));
    let serial_ms = 1e3 * low(&serial.iter().map(|s| s.2).collect::<Vec<_>>());
    let mut metrics;
    if !ctx.trace {
        metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", med(&over(|r| r.setup_s)));
        metrics.set("time_to_result_s", cycle_s);
        metrics.set(
            "items_per_s",
            1.0 / low(&over(|r| r.loop_s / r.replies.len() as f64)),
        );
        metrics.set("speedup_vs_serial", 1e-3 * serial_ms / cycle_s);
        metrics.set(
            "cpu_ms_per_item",
            1e3 * low(&over(|r| r.cpu_s / r.replies.len() as f64)),
        );
        metrics.set("peak_rss_mb", med(&over(|r| r.peak_rss_mb)));
    } else {
        metrics = Metrics::new(PER_LAYER);
        let times: Vec<&LoopTimes> = rounds.iter().flat_map(|r| &r.times).collect();
        let phase = |pick: fn(&LoopTimes) -> f64| -> f64 {
            med(&times.iter().map(|t| pick(t)).collect::<Vec<_>>())
        };
        metrics.set("phase.context_s", phase(|t| t.encode));
        metrics.set("phase.evolve_s", phase(|t| t.round_trip));
        metrics.set("phase.project_s", 0.0);
        metrics.set("phase.assemble_s", phase(|t| t.decode));
        metrics.set(
            "phase.residual_s",
            phase(|t| t.wall - t.encode - t.round_trip - t.decode),
        );
        let plain = ms(&|r| !r.replay && !r.traced);
        let traced = ms(&|r| !r.replay && r.traced);
        if let (Some(p), Some(t)) = (median(&plain), median(&traced)) {
            metrics.set("trace_overhead_share", (t - p) / p);
        }
        metrics.set("setup.first_s", rounds[0].setup_s);

        metrics.set("plinger.serve_miss_ms_p50", miss_p50);
        if let Some(p95) = tail_percentile(&miss_ms, 95.0) {
            metrics.set("plinger.serve_miss_ms_p95", p95);
        }
        if let Some(p50) = median(&hit_ms) {
            metrics.set("plinger.serve_hit_us_p50", 1e3 * p50);
        }
        if let Some(p90) = tail_percentile(&hit_ms, 90.0) {
            metrics.set("plinger.serve_hit_ms_p90", p90);
        }
        metrics.set(
            "plinger.hit_blocked_share",
            share_above(&hit_ms, HIT_BLOCKED_MS),
        );
        metrics.set("plinger.serve_requests_per_s", attempted as f64 / loop_s);
        metrics.set("plinger.serve_shed", shed as f64);
        // tag-26 layout: docs/PROTOCOL.md, `ServiceMetrics::wire_payload`.
        // Counts add up over the servers; a latency quantile is the
        // median of the servers' own.
        let served = |at: usize| -> Vec<f64> { rounds.iter().map(|r| r.served[at]).collect() };
        for (name, at) in [
            ("plinger.serve_hits", 1),
            ("plinger.serve_misses", 2),
            ("plinger.serve_pool_jobs", 3),
            ("plinger.serve_errors", 7),
        ] {
            metrics.set(name, served(at).iter().sum());
        }
        for (name, at) in [
            ("plinger.serve_queue_wait_ms_p50", 11),
            ("plinger.serve_queue_wait_ms_p99", 12),
            ("plinger.serve_run_ms_p50", 13),
            ("plinger.serve_run_ms_p99", 14),
        ] {
            metrics.set(name, med(&served(at)));
        }

        // the farm under the service, seen through one job of the same
        // size on a pool of the harness's own
        let spec = serve_spec(ctx.seed, 0);
        let mut pool =
            FarmPool::<ChannelWorld>::start(ctx.workers).map_err(|e| format!("probe pool: {e}"))?;
        let job = pool.run_job(&spec, SchedulePolicy::LargestFirst);
        pool.shutdown();
        let job = job.map_err(|e| format!("probe job: {e}"))?;
        probes::farm_report(&mut metrics, &job);
        let inputs = probes::LayerInputs {
            spec: &spec,
            outputs: &job.outputs,
            l_max: None,
            spectrum: None,
        };
        probes::layers(&mut metrics, &inputs, ctx)?;
    }

    let (fastest, slowest) = min_max(&miss_ms).unwrap_or_default();
    println!(
        "# {} servers x {} connections, {} misses + {} hits in {loop_s:.3} s: cycle lower quartile \
         {:.3} ms; miss p50 {miss_p50:.3} ms (min {fastest:.3}, max {slowest:.3}), hit p50 {:.4} \
         ms; run_serial of one spec lower quartile {serial_ms:.3} ms",
        rounds.len(),
        ctx.workers,
        miss_ms.len(),
        hit_ms.len(),
        1e3 * cycle_s,
        med(&hit_ms),
    );
    for (i, r) in rounds.iter().enumerate() {
        let serial: Vec<f64> = r.serial.iter().map(|s| 1e3 * s.2).collect();
        println!(
            "#   server {i}: cycle median {:.3} ms over {} cycles, run_serial {:.3} ms",
            1e3 * med(&r.cycles),
            r.cycles.len(),
            med(&serial),
        );
    }
    let spans = rounds.into_iter().flat_map(|r| r.spans).collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        problems,
        spans,
    })
}
