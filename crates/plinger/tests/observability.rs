//! The observability stability contract: every metric family the
//! service exposes is catalogued in `docs/OBSERVABILITY.md`, and the
//! Prometheus rendering carries the full histogram surface.  A name
//! drifting out of the doc (or a new family landing undocumented)
//! fails here before it breaks someone's dashboard.  The sweep's events
//! are held to their documented rows the same way, on `run_ensemble` and
//! on a service sweep alike, and a miss's trace file carries every track
//! of its job.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Duration;

use boltzmann::Preset;
use msgpass::channel::ChannelWorld;
use msgpass::Message;
use plinger::service::answer;
use plinger::{
    ensemble_hash, job_hash, run_ensemble, EnsembleOptions, EnsembleSpec, FarmError, FarmPool,
    FarmReport, FarmTelemetry, FaultPlan, JobControl, MasterConfig, PoolOptions, RecoveryLog,
    RunSpec, SchedulePolicy, ServiceMetrics, ShardRunner, SpectrumRequest, SpectrumService,
    TAG_REQ_SPECTRUM,
};
use telemetry::log::{self as tlog, LogEvent};
use telemetry::Json;

/// The frozen family list (sans `plinger_` prefix).  Extending the
/// surface means adding here AND to `docs/OBSERVABILITY.md`.
const CONTRACT: &[&str] = &[
    // service counters
    "requests_total",
    "cache_hits_total",
    "cache_misses_total",
    "cache_bytes_served_total",
    "errors_total",
    "pool_jobs_total",
    "los_jobs_total",
    // request-lifecycle counters (load shedding, deadlines, cancels)
    "requests_shed_total",
    "jobs_cancelled_total",
    "deadline_expired_total",
    // persistent-cache counters
    "cache_persist_writes_total",
    "cache_persist_loads_total",
    "cache_persist_discards_total",
    // ensemble-sweep counters
    "ensemble_requests_total",
    "ensemble_shards_total",
    "ensemble_shard_hits_total",
    // service gauges
    "queue_depth",
    "workers_alive",
    "draining",
    // request latency histograms
    "request_queue_wait_ns",
    "request_run_ns",
    "request_total_ns",
    // farm comm aggregate (per-tag variants documented as patterns)
    "msgs_sent",
    "msgs_recv",
    "bytes_sent",
    "bytes_recv",
    "send_ns",
    "recv_ns",
    // run-report-only gauge
    "master_idle_seconds",
];

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OBSERVABILITY.md");
    std::fs::read_to_string(path).expect("docs/OBSERVABILITY.md exists")
}

/// Strip a `_tagN` suffix so per-tag families match their pattern.
fn base_name(name: &str) -> &str {
    match name.rfind("_tag") {
        Some(i) if name[i + 4..].chars().all(|c| c.is_ascii_digit()) => &name[..i],
        _ => name,
    }
}

#[test]
fn every_contract_name_is_documented() {
    let doc = doc();
    for name in CONTRACT {
        assert!(
            doc.contains(name),
            "{name} missing from docs/OBSERVABILITY.md"
        );
    }
}

#[test]
fn service_snapshot_names_stay_inside_the_contract() {
    let m = ServiceMetrics::new(2);
    m.requests.inc();
    m.queue_wait_ns.record(1_000);
    m.run_ns.record(2_000);
    m.total_ns.record(3_000);
    let snap = m.snapshot();
    let names = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys());
    for name in names {
        assert!(
            CONTRACT.contains(&base_name(name)),
            "undocumented metric family {name}: add it to CONTRACT and docs/OBSERVABILITY.md"
        );
    }
}

#[test]
fn exposition_carries_prefix_and_histogram_surface() {
    let m = ServiceMetrics::new(2);
    m.requests.inc();
    m.total_ns.record(5_000);
    let text = telemetry::render_prometheus(&m.snapshot(), "plinger");
    assert!(text.contains("# TYPE plinger_requests_total counter"));
    assert!(text.contains("plinger_requests_total 1"));
    assert!(text.contains("# TYPE plinger_workers_alive gauge"));
    assert!(text.contains("# TYPE plinger_request_total_ns histogram"));
    assert!(text.contains("plinger_request_total_ns_bucket{le=\"+Inf\"} 1"));
    assert!(text.contains("plinger_request_total_ns_sum 5000"));
    assert!(text.contains("plinger_request_total_ns_count 1"));
    assert!(text.contains("# TYPE plinger_request_total_ns_p99 gauge"));
}

/// A pool that finishes every job at once with nothing in it.
struct EmptyPool;

impl ShardRunner for EmptyPool {
    fn run_shard(
        &mut self,
        _spec: &RunSpec,
        _policy: SchedulePolicy,
        _ctrl: &JobControl<'_>,
        _prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        Ok(FarmReport {
            outputs: Vec::new(),
            wall_seconds: 0.0,
            worker_stats: Vec::new(),
            bytes_received: 0,
            completion_log: Vec::new(),
            telemetry: FarmTelemetry::default(),
            recovery: RecoveryLog::default(),
        })
    }
}

#[test]
fn shard_done_carries_the_documented_fields_for_evolved_shard_and_twin() {
    let doc = doc();
    let row = doc
        .lines()
        .find(|l| l.starts_with("| `ensemble` | `shard_done` |"))
        .expect("shard_done row in docs/OBSERVABILITY.md");
    let fields = row.split('|').nth(4).expect("fields column");
    let fields = fields.split(" — ").next().unwrap_or(fields);
    let documented: Vec<&str> = fields.split('`').skip(1).step_by(2).collect();
    assert!(documented.contains(&"evolved_by"), "row: {row}");

    // one (omega_b, h) point, two n_s: shard 0 evolves, shard 1 is its twin
    let ens = EnsembleSpec {
        n_s: vec![0.93, 0.97],
        ..EnsembleSpec::singleton(RunSpec::standard_cdm(vec![0.0123]))
    };
    run_ensemble(
        &mut EmptyPool,
        &ens,
        &EnsembleOptions::default(),
        &JobControl::default(),
    )
    .expect("scripted sweep");
    for shard in 0..2 {
        let events = telemetry::log::for_job(ens.shard_hash(shard), 16);
        let done = events
            .iter()
            .find(|e| e.target == "ensemble" && e.message == "shard_done")
            .unwrap_or_else(|| panic!("no shard_done for shard {shard}"));
        let emitted: Vec<&str> = done.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(emitted, documented, "shard {shard}");
        assert_eq!(done.field("evolved_by"), Some("0"), "shard {shard}");
    }
}

/// The fields `docs/OBSERVABILITY.md` lists for `target`'s `message`.
fn documented_fields(doc: &str, target: &str, message: &str) -> Option<Vec<String>> {
    doc.lines().find_map(|row| {
        // | `target` | `message` [/ `message`] | level | fields — note |
        let cols: Vec<&str> = row.split('|').map(str::trim).collect();
        if cols.len() != 6 || cols[1] != format!("`{target}`") {
            return None;
        }
        let names: Vec<&str> = cols[2].split('`').skip(1).step_by(2).collect();
        if !names.contains(&message) {
            return None;
        }
        let fields = cols[4].split(" — ").next().unwrap_or(cols[4]);
        Some(
            fields
                .split('`')
                .skip(1)
                .step_by(2)
                .map(String::from)
                .collect(),
        )
    })
}

/// A one-mode draft sweep over two n_s values at `k`.
fn tiny_sweep(k: f64) -> EnsembleSpec {
    let mut base = RunSpec::standard_cdm(vec![k]);
    base.preset = Preset::Draft;
    EnsembleSpec {
        n_s: vec![0.9, 1.1],
        ..EnsembleSpec::singleton(base)
    }
}

/// Events of `ens`'s sweep: those naming it, or one of its shards.
fn sweep_events(ens: &EnsembleSpec) -> Vec<LogEvent> {
    let hex = tlog::job_hex(ensemble_hash(ens));
    let prefix = format!("{hex}/");
    tlog::recent(1024)
        .into_iter()
        .filter(|e| {
            e.field("ensemble") == Some(hex.as_str())
                || e.field("shard").is_some_and(|s| s.starts_with(&prefix))
        })
        .collect()
}

#[test]
fn a_service_sweep_logs_the_documented_ensemble_rows() {
    // a cold sweep: shard 0 evolves, shard 1 streams as its cached twin
    let ok = tiny_sweep(0.0011);
    let pool = FarmPool::<ChannelWorld>::start(1).expect("pool");
    let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
    svc.handle_ensemble_with(&ok, &JobControl::default(), |_| Ok::<_, Infallible>(()))
        .expect("sink")
        .expect("sweep");
    let _ = svc.shutdown();

    // the only worker dies on its first assignment: the group's job is
    // re-run once and the group fails
    let failing = tiny_sweep(0.0013);
    let config = MasterConfig {
        poll: Duration::from_millis(10),
        ..MasterConfig::default()
    };
    let opts = PoolOptions {
        respawn_limit: 0,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let pool = FarmPool::<ChannelWorld>::start_with(1, config, opts).expect("pool");
    let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
    let out = svc
        .handle_ensemble_with(
            &failing,
            &JobControl::default(),
            |_| Ok::<_, Infallible>(()),
        )
        .expect("sink");
    assert!(
        matches!(out, Err(FarmError::AllWorkersLost { .. })),
        "{out:?}"
    );
    let _ = svc.shutdown();

    let doc = doc();
    let mut seen = BTreeSet::new();
    for e in sweep_events(&ok).iter().chain(&sweep_events(&failing)) {
        let fields = documented_fields(&doc, &e.target, &e.message)
            .unwrap_or_else(|| panic!("{} {} is not documented", e.target, e.message));
        let emitted: Vec<&str> = e.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(emitted, fields, "{} {}", e.target, e.message);
        seen.insert((e.target.clone(), e.message.clone()));
    }
    // every `ensemble` row shows up on a service sweep
    let rows: BTreeSet<(String, String)> = doc
        .lines()
        .filter(|row| row.starts_with("| `ensemble` |"))
        .filter_map(|row| row.split('`').nth(3))
        .map(|m| ("ensemble".to_string(), m.to_string()))
        .collect();
    assert_eq!(rows.len(), 6, "{rows:?}");
    assert!(rows.is_subset(&seen), "seen {seen:?}");
    assert!(seen.contains(&("service".to_string(), "shard_hit".to_string())));
}

#[test]
fn a_miss_leaves_its_trace_beside_its_run_report() {
    // with a report directory a miss writes `<prefix>.trace.json` next
    // to `<prefix>.run_report.json`: the master's track and one track per
    // worker, every span stamped with the request's job hash.  The
    // repeat is a hit and writes neither
    let dir = std::env::temp_dir().join(format!("plinger_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("report dir");
    let mut spec = RunSpec::standard_cdm(vec![4.0e-4, 1.0e-3, 2.0e-3]);
    spec.preset = Preset::Draft;
    let pool = FarmPool::<ChannelWorld>::start(2).expect("pool");
    let svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
    let metrics = svc.metrics();
    let svc = Mutex::new(svc);
    let msg = Message {
        source: 0,
        tag: TAG_REQ_SPECTRUM,
        data: SpectrumRequest::new(spec.clone()).encode(),
    };
    for _ in 0..2 {
        let cancel = AtomicBool::new(false);
        let reply = |_, _: &[f64]| Ok::<_, Infallible>(());
        answer(&svc, &metrics, 64, false, &cancel, Some(&dir), &msg, reply).expect("sink");
    }
    let _ = svc.into_inner().expect("service lock").shutdown();

    let job = tlog::job_hex(job_hash(&spec));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("read report dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let prefix = files[0]
        .strip_suffix(".run_report.json")
        .unwrap_or_else(|| panic!("no run report first in {files:?}"));
    assert!(prefix.ends_with(&job), "{files:?}");
    assert_eq!(files, [files[0].clone(), format!("{prefix}.trace.json")]);

    let text = std::fs::read_to_string(dir.join(&files[1])).expect("read trace");
    let trace = Json::parse(&text).expect("trace is JSON");
    let events = trace.as_array().expect("trace is an array");
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_owned);
    let mut modes = Vec::new();
    let mut tracks = BTreeSet::new();
    for e in events {
        let name = field(e, "name").expect("span name");
        let tid = e.get("tid").and_then(Json::as_f64).expect("track id") as u64;
        let args = e.get("args").expect("span args");
        assert_eq!(
            field(args, "job"),
            Some(job.clone()),
            "{name} of another job"
        );
        tracks.insert(tid);
        if name == "mode" {
            assert_ne!(tid, 0, "a mode span on the master's track");
            modes.push(field(args, "ik").expect("mode ik"));
        }
    }
    modes.sort();
    assert_eq!(modes, ["0", "1", "2"], "one worker mode span per mode");
    assert!(tracks.contains(&0), "no master track: {tracks:?}");
    assert!(tracks.len() >= 2, "no worker track: {tracks:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
