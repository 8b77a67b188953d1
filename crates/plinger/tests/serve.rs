//! End-to-end exercise of the `plinger-serve` binary: a warm pool
//! behind a TCP request/response loop, a content-addressed result
//! cache, and concurrent clients multiplexed onto one pool.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_plinger-serve")
}

/// Start a server on an ephemeral port with extra flags and parse the
/// startup line for the address; the reader stays attached so later
/// stdout lines (metrics address, summary) can be collected.
fn start_server_with(
    max_requests: usize,
    extra: &[&str],
) -> (Child, BufReader<ChildStdout>, String) {
    let mut args = vec![
        "--listen",
        "127.0.0.1:0",
        "--transport",
        "channel",
        "--workers",
        "2",
    ];
    let max = max_requests.to_string();
    args.extend_from_slice(&["--max-requests", &max]);
    args.extend_from_slice(extra);
    let mut child = Command::new(exe())
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn plinger-serve");
    let stdout = child.stdout.take().expect("server stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read startup line");
    let addr = line
        .trim()
        .strip_prefix("plinger-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    (child, reader, addr)
}

fn start_server(max_requests: usize) -> (Child, BufReader<ChildStdout>, String) {
    start_server_with(max_requests, &[])
}

/// One HTTP/1.0 GET over raw TCP, returning the full response text.
fn http_get(addr: &str, path: &str) -> String {
    try_http_get(addr, path).expect("GET from the metrics listener")
}

/// [`http_get`] against a listener that may be gone.
fn try_http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    // one write_all: write! would issue one syscall per fragment and
    // the request could land at the server split mid-line
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

/// Run one client request and return its `key=value` output fields.
fn client(addr: &str, extra: &[&str]) -> HashMap<String, String> {
    let mut args = vec![
        "--connect",
        addr,
        "--preset",
        "draft",
        "--kmin",
        "2e-4",
        "--kmax",
        "1e-3",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(exe())
        .args(&args)
        .output()
        .expect("run client");
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .filter_map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

#[test]
fn repeated_requests_hit_the_result_cache() {
    let (mut server, mut reader, addr) = start_server(3);

    // two identical requests, then a distinct grid
    let first = client(&addr, &["--nk", "3"]);
    let second = client(&addr, &["--nk", "3"]);
    let third = client(&addr, &["--nk", "4", "--metrics"]);

    assert_eq!(first["cache_hit"], "0", "cold request served from cache");
    assert_eq!(second["cache_hit"], "1", "identical request missed");
    assert_eq!(third["cache_hit"], "0", "distinct request hit");
    // cache hits are bitwise replays: the client hashes the body it
    // decodes, so equal hashes mean byte-identical responses
    assert_eq!(first["fnv"], second["fnv"], "cache hit changed the bytes");
    assert_ne!(first["fnv"], third["fnv"], "distinct jobs collided");
    assert_eq!(first["outputs"], "3");
    assert_eq!(third["outputs"], "4");
    // the metrics round-trip sees the whole session
    assert_eq!(third["requests"], "3");
    assert_eq!(third["hits"], "1");
    assert_eq!(third["misses"], "2");
    assert_eq!(third["jobs"], "2", "a cache hit reached the pool");
    assert_eq!(third["workers"], "2");
    // the extended payload rides behind the historical five counters
    assert_eq!(third["alive"], "2");
    assert_eq!(third["queue_depth"], "0");
    assert_eq!(third["errors"], "0");
    assert_ne!(third["bytes_served"], "0", "no response bytes counted");

    // after --max-requests connections the server exits and prints its
    // summary: one hit, two misses, two pool jobs
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(
        rest.contains("served 3 requests, cache hits=1 misses=2, pool jobs=2"),
        "unexpected summary: {rest:?}"
    );
}

#[test]
fn concurrent_distinct_requests_share_one_pool() {
    let (mut server, mut reader, addr) = start_server(2);

    // two different jobs in flight at once: both must come back clean
    // from the same two-worker pool
    let a = addr.clone();
    let t1 = std::thread::spawn(move || client(&a, &["--nk", "3"]));
    let b = addr.clone();
    let t2 = std::thread::spawn(move || client(&b, &["--nk", "5"]));
    let r1 = t1.join().expect("client 1");
    let r2 = t2.join().expect("client 2");

    assert_eq!(r1["cache_hit"], "0");
    assert_eq!(r2["cache_hit"], "0");
    assert_eq!(r1["outputs"], "3");
    assert_eq!(r2["outputs"], "5");
    assert_ne!(r1["fnv"], r2["fnv"]);

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(
        rest.contains("served 2 requests, cache hits=0 misses=2, pool jobs=2"),
        "unexpected summary: {rest:?}"
    );
}

#[test]
fn metrics_endpoint_serves_prometheus_and_healthz_mid_run() {
    let (mut server, mut reader, addr) = start_server_with(3, &["--metrics-addr", "127.0.0.1:0"]);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics line");
    let maddr = line
        .trim()
        .strip_prefix("plinger-serve: metrics on ")
        .unwrap_or_else(|| panic!("unexpected metrics line: {line:?}"))
        .to_string();

    // ready before any request: workers warm, queue empty
    let health = http_get(&maddr, "/healthz");
    assert!(health.starts_with("HTTP/1.0 200"), "healthz: {health:?}");
    assert!(health.ends_with("ok\n"), "healthz body: {health:?}");

    let cold = http_get(&maddr, "/metrics");
    assert!(
        cold.contains("plinger_requests_total 0"),
        "cold scrape: {cold:?}"
    );
    assert!(cold.contains("plinger_workers_alive 2"), "{cold:?}");

    // one miss, one hit — then scrape again while the server still runs
    client(&addr, &["--nk", "3"]);
    client(&addr, &["--nk", "3"]);
    let warm = http_get(&maddr, "/metrics");
    assert!(
        warm.contains("plinger_requests_total 2"),
        "warm scrape: {warm:?}"
    );
    assert!(warm.contains("plinger_cache_hits_total 1"), "{warm:?}");
    assert!(warm.contains("plinger_cache_misses_total 1"), "{warm:?}");
    assert!(warm.contains("plinger_pool_jobs_total 1"), "{warm:?}");
    // request latency histograms move with the traffic and carry the
    // full Prometheus histogram surface
    assert!(
        warm.contains("plinger_request_total_ns_count 2"),
        "{warm:?}"
    );
    assert!(warm.contains("plinger_request_total_ns_sum"), "{warm:?}");
    assert!(
        warm.contains("plinger_request_total_ns_bucket{le=\"+Inf\"} 2"),
        "{warm:?}"
    );
    assert!(
        warm.contains("plinger_request_queue_wait_ns_count 2"),
        "{warm:?}"
    );
    // farm comm counters folded from the pooled job
    assert!(warm.contains("plinger_msgs_sent"), "{warm:?}");

    // unknown paths and non-GET methods are rejected
    assert!(http_get(&maddr, "/nope").starts_with("HTTP/1.0 404"));
    let mut stream = TcpStream::connect(&maddr).expect("connect");
    stream
        .write_all(b"POST /metrics HTTP/1.0\r\n\r\n")
        .expect("send POST");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read response");
    assert!(resp.starts_with("HTTP/1.0 405"), "{resp:?}");

    // third request lets --max-requests close the server down
    client(&addr, &["--nk", "4"]);
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
}

/// Run one client and return its raw output (no success assertion).
fn client_raw(addr: &str, extra: &[&str]) -> std::process::Output {
    let mut args = vec![
        "--connect",
        addr,
        "--preset",
        "draft",
        "--kmin",
        "2e-4",
        "--kmax",
        "1e-3",
    ];
    args.extend_from_slice(extra);
    Command::new(exe())
        .args(&args)
        .output()
        .expect("run client")
}

/// Send `kill -TERM` to a child process.
fn sigterm(server: &Child) {
    let pid = server.id();
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {pid}")])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success(), "kill -TERM failed");
}

#[test]
fn overload_sheds_busy_and_clients_retry_to_success() {
    // queue limit 1: concurrent requests are shed with typed busy
    // frames, retried by the clients until they all land
    let (mut server, mut reader, addr) =
        start_server_with(0, &["--queue-limit", "1", "--metrics-addr", "127.0.0.1:0"]);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics line");
    let maddr = line
        .trim()
        .strip_prefix("plinger-serve: metrics on ")
        .unwrap_or_else(|| panic!("unexpected metrics line: {line:?}"))
        .to_string();

    let handles: Vec<_> = (3..7)
        .map(|nk| {
            let a = addr.clone();
            let nk = nk.to_string();
            std::thread::spawn(move || {
                client(
                    &a,
                    &["--nk", &nk, "--retries", "10", "--retry-base-ms", "40"],
                )
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for r in &results {
        assert_eq!(r["cache_hit"], "0", "distinct grids cannot hit");
    }

    // the burst overran the one-deep queue at least once
    let scrape = http_get(&maddr, "/metrics");
    let shed: u64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("plinger_requests_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no shed counter in scrape: {scrape}"));
    assert!(shed >= 1, "queue limit 1 never shed under a 4-client burst");
    assert!(http_get(&maddr, "/healthz").starts_with("HTTP/1.0 200"));

    // SIGTERM with nothing in flight: immediate clean exit
    sigterm(&server);
    let status = server.wait().expect("server exit");
    assert!(status.success(), "drain exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(
        rest.contains("served 4 requests"),
        "unexpected summary: {rest:?}"
    );
}

/// Speak the wire protocol directly: send one frame on `stream` and
/// read the next one back.
fn exchange(
    stream: &mut TcpStream,
    buf: &mut bytes::BytesMut,
    tag: msgpass::Tag,
    data: &[f64],
) -> msgpass::Message {
    stream
        .write_all(&msgpass::codec::encode(0, tag, data))
        .expect("send raw frame");
    loop {
        if let Some(msg) = msgpass::codec::decode(buf).expect("well-formed frame") {
            return msg;
        }
        let mut chunk = [0u8; 8192];
        let n = stream.read(&mut chunk).expect("read reply");
        assert!(n > 0, "server hung up before answering");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn sigterm_drain_flips_healthz_and_closes_idle_connections() {
    use bytes::BytesMut;
    use plinger::service::{SpectrumRequest, TAG_REQ_SPECTRUM, TAG_RESP_SPECTRUM};
    use plinger::RunSpec;

    let (mut server, mut reader, addr) = start_server_with(
        0,
        &["--drain-timeout", "2000", "--metrics-addr", "127.0.0.1:0"],
    );
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics line");
    let maddr = line
        .trim()
        .strip_prefix("plinger-serve: metrics on ")
        .unwrap_or_else(|| panic!("unexpected metrics line: {line:?}"))
        .to_string();

    // speak the wire protocol directly so the connection can be held
    // open (keep-alive) after its answer — the drain must close it,
    // not wedge on it
    let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 5.0e-4, 1.0e-3]);
    spec.preset = boltzmann::Preset::Draft;
    let mut stream = TcpStream::connect(&addr).expect("raw connection");
    let reply = exchange(
        &mut stream,
        &mut BytesMut::new(),
        TAG_REQ_SPECTRUM,
        &SpectrumRequest::new(spec).encode(),
    );
    assert_eq!(reply.tag, TAG_RESP_SPECTRUM, "raw request failed");

    // the connection was served and is now idle; its read-timeout
    // window restarts here, so the drain below has a full poll period
    // in which /healthz must report not-ready before the close lands
    sigterm(&server);
    // poll until the 503 — or until the server is gone: a poll
    // descheduled past that period has nothing left to observe, and
    // the exit status below still pins the drain.  What may not happen
    // is a server that neither reports the drain nor exits
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = try_http_get(&maddr, "/healthz");
        if health.is_ok_and(|h| h.starts_with("HTTP/1.0 503")) {
            break;
        }
        if server.try_wait().expect("poll server exit").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "5 s after SIGTERM healthz has not reported the drain and the server has not exited"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // the served keep-alive connection is closed, not waited out
    let status = server.wait().expect("server exit");
    assert!(status.success(), "drain exited with {status}");
    let n = stream.read(&mut [0u8; 64]).expect("read after close");
    assert_eq!(n, 0, "server exited without closing the connection");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(
        rest.contains("served 1 requests"),
        "unexpected summary: {rest:?}"
    );
}

#[test]
fn disk_cache_survives_a_server_restart_bitwise() {
    let dir = std::env::temp_dir().join(format!("plinger_serve_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();

    // first server run: one miss, persisted to disk
    let (mut server, mut reader, addr) = start_server_with(1, &["--cache-dir", &dir_s]);
    let first = client(&addr, &["--nk", "3"]);
    assert_eq!(first["cache_hit"], "0");
    let status = server.wait().expect("server exit");
    assert!(status.success(), "first server exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");

    // a fresh process warm-loads the directory and serves the same
    // spec from cache, bitwise identical to the first response
    let (mut server, mut reader, addr) =
        start_server_with(2, &["--cache-dir", &dir_s, "--metrics-addr", "127.0.0.1:0"]);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics line");
    let maddr = line
        .trim()
        .strip_prefix("plinger-serve: metrics on ")
        .unwrap_or_else(|| panic!("unexpected metrics line: {line:?}"))
        .to_string();
    let warmed = http_get(&maddr, "/metrics");
    assert!(
        warmed.contains("plinger_cache_persist_loads_total 1"),
        "warm load not counted: {warmed:?}"
    );

    let second = client(&addr, &["--nk", "3"]);
    assert_eq!(second["cache_hit"], "1", "restart lost the cache");
    assert_eq!(second["fnv"], first["fnv"], "restart changed the bytes");

    let hit = http_get(&maddr, "/metrics");
    assert!(
        hit.contains("plinger_cache_hits_total 1"),
        "hit not counted after restart: {hit:?}"
    );
    // second connection lets --max-requests close the server down
    client(&addr, &["--nk", "4"]);
    let status = server.wait().expect("server exit");
    assert!(status.success(), "second server exited with {status}");
    let mut rest2 = String::new();
    reader.read_to_string(&mut rest2).expect("read summary");
    assert!(
        rest2.contains("cache hits=1"),
        "unexpected summary: {rest2:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_deadline_cancels_but_the_pool_survives() {
    let (mut server, mut reader, addr) = start_server_with(2, &[]);

    // a 1 ms budget on a 12-mode job: refused up front or cancelled
    // mid-run, but either way the deadline is enforced
    let out = client_raw(
        &addr,
        &["--kmax", "2e-3", "--nk", "12", "--deadline-ms", "1"],
    );
    assert!(!out.status.success(), "expired deadline served anyway");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "client stderr: {stderr:?}");

    // the cancelled job released the workers: a normal request on the
    // same pool completes
    let ok = client(&addr, &["--nk", "3"]);
    assert_eq!(ok["cache_hit"], "0");
    assert_eq!(ok["outputs"], "3");

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(
        rest.contains("served 2 requests"),
        "unexpected summary: {rest:?}"
    );
}

#[test]
fn infinite_counts_are_bad_requests_and_leave_the_queue() {
    use plinger::service::{
        ErrorCode, ServiceError, TAG_REQ_ENSEMBLE, TAG_REQ_METRICS, TAG_REQ_SPECTRUM,
        TAG_RESP_ERROR, TAG_RESP_METRICS, TAG_RESP_SPECTRUM,
    };
    use plinger::{EnsembleSpec, RunSpec};

    let (mut server, mut reader, addr) = start_server(1);
    let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 5.0e-4, 1.0e-3]);
    spec.preset = boltzmann::Preset::Draft;
    let mut stream = TcpStream::connect(&addr).expect("raw connection");
    let mut buf = bytes::BytesMut::new();

    // a count of +inf used to saturate, wrap the length check and index
    // out of range: the connection thread died between entering the
    // queue and leaving it, and the depth stayed one too high for good
    let mut sweep = EnsembleSpec::singleton(spec.clone()).encode();
    sweep[0] = f64::INFINITY;
    let mut single = spec.encode();
    single[0] = f64::INFINITY;
    // a well-formed frame whose ladder length would size an exabyte
    // state vector never reaches a worker either
    let mut huge = spec.clone();
    huge.lmax_g = Some(1_000_000_000_000_000_000);
    let huge = huge.encode();
    for (tag, payload) in [
        (TAG_REQ_ENSEMBLE, &sweep),
        (TAG_REQ_SPECTRUM, &single),
        (TAG_REQ_SPECTRUM, &huge),
    ] {
        let reply = exchange(&mut stream, &mut buf, tag, payload);
        assert_eq!(reply.tag, TAG_RESP_ERROR, "tag {tag}: no typed refusal");
        let err = ServiceError::decode(&reply.data);
        assert_eq!(err.code, ErrorCode::BadRequest, "tag {tag}: {err}");
    }

    let reply = exchange(&mut stream, &mut buf, TAG_REQ_METRICS, &[]);
    assert_eq!(reply.tag, TAG_RESP_METRICS);
    assert_eq!(reply.data[6], 0.0, "a refused request stayed in the queue");
    assert_eq!(reply.data[7], 3.0, "every refusal counts as an error");

    // the same connection, the same server: an honest request is served
    let reply = exchange(&mut stream, &mut buf, TAG_REQ_SPECTRUM, &spec.encode());
    assert_eq!(reply.tag, TAG_RESP_SPECTRUM, "server did not recover");
    drop(stream);

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(rest.contains("pool jobs=1"), "unexpected summary: {rest:?}");
}

#[test]
fn curved_cosmology_is_refused_at_admission_and_the_pool_survives() {
    let (mut server, mut reader, addr) = start_server_with(3, &[]);

    // an explicit --omega-c pins an open budget (Ω_k = 0.69): it used
    // to reach the workers, trip the evolver's flatness assert, and
    // hang the pool; now it never leaves admission
    let open = ["--nk", "3", "--omega-b", "0.06", "--omega-c", "0.25"];
    for extra in [
        &open[..],
        &[&open[..], &["--ensemble", "--sweep-h", "0.5,0.7"]].concat(),
    ] {
        let out = client_raw(&addr, extra);
        assert!(!out.status.success(), "curved request served");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad-request") && stderr.contains("not flat"),
            "client stderr: {stderr:?}"
        );
    }

    // no worker ever saw either request: the pool serves the next one
    let ok = client(&addr, &["--nk", "3"]);
    assert_eq!(ok["cache_hit"], "0");
    assert_eq!(ok["outputs"], "3");

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read summary");
    assert!(rest.contains("pool jobs=1"), "unexpected summary: {rest:?}");
}

#[test]
fn killed_worker_leaves_a_flight_recorder_dump() {
    let dir = std::env::temp_dir().join(format!("plinger_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();

    // one worker, no respawn budget, scripted to vanish on its first
    // assignment: the job must fail and leave its story behind
    let mut child = Command::new(exe())
        .args([
            "--listen",
            "127.0.0.1:0",
            "--transport",
            "channel",
            "--workers",
            "1",
            "--respawn-limit",
            "0",
            "--fault",
            "drop:1:0",
            "--max-requests",
            "1",
            "--report-dir",
            &dir_s,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn plinger-serve");
    let stdout = child.stdout.take().expect("server stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read startup line");
    let addr = line
        .trim()
        .strip_prefix("plinger-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();

    let out = Command::new(exe())
        .args(["--connect", &addr, "--preset", "draft", "--nk", "3"])
        .output()
        .expect("run client");
    assert!(!out.status.success(), "request against a dead pool passed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("farm failed"), "client stderr: {stderr:?}");

    child.wait().expect("server exit");
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("report dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight_") && n.ends_with(".jsonl"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "expected one flight dump in {dir_s}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    let job = name
        .strip_prefix("flight_")
        .and_then(|n| n.strip_suffix(".jsonl"))
        .expect("dump name carries the job hash");
    assert_eq!(job.len(), 16, "job hash is 16 hex digits: {name}");
    let body = std::fs::read_to_string(&dumps[0]).expect("read dump");
    // every recorded event carries the failing job's hash, and the
    // request + worker-death story is present
    assert!(body.contains("request_accepted"), "dump: {body}");
    assert!(body.contains("worker_dead"), "dump: {body}");
    assert!(body.contains(job), "dump lacks the job hash: {body}");
    for l in body.lines() {
        assert!(l.contains(job), "event without job hash: {l}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
