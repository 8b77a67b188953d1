//! The telemetry side of a farm run: merged communication counters,
//! the span timeline, and the machine-readable `run_report.json`.
//!
//! The paper's §4 message table and §5 efficiency numbers were
//! *measurements*; this module is where the reproduction's own
//! measurements are assembled.  [`FarmTelemetry`] collects what the
//! instrumented endpoints and the master/worker span recorders saw;
//! [`build_run_report`] folds it together with the
//! [`FarmReport`] accounting into one JSON document
//! (schema `plinger.run_report/2`), and [`render_pretty`] prints the
//! same numbers as human-readable tables.
//!
//! # `run_report.json` schema (version 2)
//!
//! ```text
//! {
//!   "schema":  "plinger.run_report/2",
//!   "run":     { transport, workers, modes, wall_seconds,
//!                total_cpu_seconds, idle_seconds, master_idle_seconds,
//!                efficiency, load_imbalance, total_flops, mflops },
//!   "workers": [ { rank, modes, busy_seconds, total_seconds,
//!                  idle_seconds, bytes_sent, bytes_received,
//!                  steps_accepted, steps_rejected, rhs_evals,
//!                  ctx_rebuilds, prefetch_builds } ],
//!   "messages":[ { tag, name, sent, sent_bytes, recv, recv_bytes } ],
//!   "latency": { send_ns: {count,sum,min,max,mean,p50,p99},
//!                recv_ns: {…} },
//!   "modes":   [ { ik, k, worker, cpu_seconds, accepted, rejected,
//!                  rhs_evals, rhs_flops, stepper_flops } ],
//!   "recovery":{ requeues, heartbeat_misses, heartbeats, respawns,
//!                late_results,
//!                failed_modes: [ { ik, k, attempts, reason } ] }
//! }
//! ```
//!
//! Version 2 adds the `recovery` block (every self-healing action the
//! master took — all zeros/empty on an undisturbed run) and, with it,
//! the possibility of *holes* in `modes`: a quarantined mode appears in
//! `recovery.failed_modes`, not in `modes`.
//!
//! `messages` is the merged per-tag table over every instrumented
//! endpoint in the run; in a closed world each tag's `sent` equals its
//! `recv` (tag 9, the heartbeat, is timing-dependent in count but obeys
//! the same invariant).  `workers[i].idle_seconds` is `total − busy`,
//! clamped at zero.  `modes` is ordered by the k-grid index.

use telemetry::json::Json;
use telemetry::{SpanEvent, TelemetrySnapshot};

use msgpass::instrument::{CommSnapshot, TRACKED_TAGS};

use crate::farm::FarmReport;

/// Human name of a protocol tag (for reports; see `protocol`).
pub fn tag_name(tag: usize) -> &'static str {
    match tag {
        1 => "init",
        2 => "request",
        3 => "assign",
        4 => "header",
        5 => "data",
        6 => "stop",
        7 => "stats",
        8 => "fail",
        9 => "heartbeat",
        11 => "jobdone",
        _ => "other",
    }
}

/// Everything telemetry-shaped that one farm job produced.
///
/// On thread workers every field is filled, per job: each worker hands
/// over its spans for the job just before its tag-7, so the timeline
/// holds the master's track and every worker's.  Subprocess workers
/// fill only the master-side endpoint and spans (a child's endpoint is
/// not counted and it drops its spans at each tag-7 — its wire-shipped
/// [`WorkerStats`](crate::WorkerStats) still arrive as tag 7).
/// Everything is empty when telemetry was disabled.
#[derive(Debug, Clone, Default)]
pub struct FarmTelemetry {
    /// Per-endpoint communication counters, master (rank 0) first.
    pub comm: Vec<CommSnapshot>,
    /// Merged span timeline: master track 0 plus one track per worker.
    pub spans: Vec<SpanEvent>,
    /// Seconds the master spent with no message pending.
    pub master_idle_seconds: f64,
}

impl FarmTelemetry {
    /// All endpoints folded into one per-tag table.
    pub fn merged_comm(&self) -> CommSnapshot {
        let mut total = CommSnapshot::default();
        for c in &self.comm {
            total.merge(c);
        }
        total
    }

    /// The run's telemetry as a generic [`TelemetrySnapshot`]: counters
    /// `msgs_sent`, `msgs_recv`, `bytes_sent`, `bytes_recv` (plus
    /// per-tag `…_tagN` breakdowns for tags that moved), latency
    /// histograms `send_ns`/`recv_ns`, the master-idle gauge, and the
    /// span timeline.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = self.merged_comm().to_telemetry();
        s.gauges
            .insert("master_idle_seconds".into(), self.master_idle_seconds);
        s.spans = self.spans.clone();
        s
    }
}

/// Build the version-2 run report document for a completed farm run.
pub fn build_run_report(report: &FarmReport, transport: &str) -> Json {
    let merged = report.telemetry.merged_comm();

    let run = Json::Obj(vec![
        ("transport".into(), Json::Str(transport.into())),
        (
            "workers".into(),
            Json::Num(report.worker_stats.len() as f64),
        ),
        ("modes".into(), Json::Num(report.outputs.len() as f64)),
        ("wall_seconds".into(), Json::Num(report.wall_seconds)),
        (
            "total_cpu_seconds".into(),
            Json::Num(report.total_cpu_seconds()),
        ),
        ("idle_seconds".into(), Json::Num(report.idle_seconds())),
        (
            "master_idle_seconds".into(),
            Json::Num(report.telemetry.master_idle_seconds),
        ),
        ("efficiency".into(), Json::Num(report.parallel_efficiency())),
        ("load_imbalance".into(), Json::Num(report.load_imbalance())),
        ("total_flops".into(), Json::Num(report.total_flops() as f64)),
        ("mflops".into(), Json::Num(report.mflops())),
    ]);

    let workers = Json::Arr(
        report
            .worker_stats
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Json::Obj(vec![
                    ("rank".into(), Json::Num((i + 1) as f64)),
                    ("modes".into(), Json::Num(w.modes as f64)),
                    ("busy_seconds".into(), Json::Num(w.busy_seconds)),
                    ("total_seconds".into(), Json::Num(w.total_seconds)),
                    (
                        "idle_seconds".into(),
                        Json::Num((w.total_seconds - w.busy_seconds).max(0.0)),
                    ),
                    ("bytes_sent".into(), Json::Num(w.bytes_sent as f64)),
                    ("bytes_received".into(), Json::Num(w.bytes_received as f64)),
                    ("steps_accepted".into(), Json::Num(w.steps_accepted as f64)),
                    ("steps_rejected".into(), Json::Num(w.steps_rejected as f64)),
                    ("rhs_evals".into(), Json::Num(w.rhs_evals as f64)),
                    ("ctx_rebuilds".into(), Json::Num(w.ctx_rebuilds as f64)),
                    (
                        "prefetch_builds".into(),
                        Json::Num(w.prefetch_builds as f64),
                    ),
                ])
            })
            .collect(),
    );

    let messages = Json::Arr(
        (0..TRACKED_TAGS)
            .filter(|&t| merged.sent_count[t] > 0 || merged.recv_count[t] > 0)
            .map(|t| {
                Json::Obj(vec![
                    ("tag".into(), Json::Num(t as f64)),
                    ("name".into(), Json::Str(tag_name(t).into())),
                    ("sent".into(), Json::Num(merged.sent_count[t] as f64)),
                    ("sent_bytes".into(), Json::Num(merged.sent_bytes[t] as f64)),
                    ("recv".into(), Json::Num(merged.recv_count[t] as f64)),
                    ("recv_bytes".into(), Json::Num(merged.recv_bytes[t] as f64)),
                ])
            })
            .collect(),
    );

    let latency = Json::Obj(vec![
        ("send_ns".into(), merged.send_ns.to_json()),
        ("recv_ns".into(), merged.recv_ns.to_json()),
    ]);

    let worker_of = |ik: usize| -> f64 {
        report
            .completion_log
            .iter()
            .find(|&&(i, _)| i == ik)
            .map(|&(_, w)| w as f64)
            .unwrap_or(-1.0)
    };
    // outputs hold the non-quarantined modes in grid order: recover each
    // one's true grid index by walking the grid and skipping quarantined
    // slots (on a clean run this is the identity)
    let quarantined: std::collections::HashSet<usize> =
        report.recovery.failed_modes.iter().map(|f| f.ik).collect();
    let nk_total = report.outputs.len() + quarantined.len();
    let grid_iks: Vec<usize> = (0..nk_total)
        .filter(|ik| !quarantined.contains(ik))
        .collect();
    let modes = Json::Arr(
        report
            .outputs
            .iter()
            .zip(&grid_iks)
            .map(|(o, &ik)| {
                Json::Obj(vec![
                    ("ik".into(), Json::Num(ik as f64)),
                    ("k".into(), Json::Num(o.k)),
                    ("worker".into(), Json::Num(worker_of(ik))),
                    ("cpu_seconds".into(), Json::Num(o.cpu_seconds)),
                    ("accepted".into(), Json::Num(o.stats.accepted as f64)),
                    ("rejected".into(), Json::Num(o.stats.rejected as f64)),
                    ("rhs_evals".into(), Json::Num(o.stats.rhs_evals as f64)),
                    ("rhs_flops".into(), Json::Num(o.stats.rhs_flops as f64)),
                    (
                        "stepper_flops".into(),
                        Json::Num(o.stats.stepper_flops as f64),
                    ),
                ])
            })
            .collect(),
    );

    let recovery = Json::Obj(vec![
        (
            "requeues".into(),
            Json::Num(report.recovery.requeues as f64),
        ),
        (
            "heartbeat_misses".into(),
            Json::Num(report.recovery.heartbeat_misses as f64),
        ),
        (
            "heartbeats".into(),
            Json::Num(report.recovery.heartbeats as f64),
        ),
        (
            "respawns".into(),
            Json::Num(report.recovery.respawns as f64),
        ),
        (
            "late_results".into(),
            Json::Num(report.recovery.late_results as f64),
        ),
        (
            "failed_modes".into(),
            Json::Arr(
                report
                    .recovery
                    .failed_modes
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("ik".into(), Json::Num(f.ik as f64)),
                            ("k".into(), Json::Num(f.k)),
                            ("attempts".into(), Json::Num(f.attempts as f64)),
                            ("reason".into(), Json::Str(f.reason.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    Json::Obj(vec![
        ("schema".into(), Json::Str("plinger.run_report/2".into())),
        ("run".into(), run),
        ("workers".into(), workers),
        ("messages".into(), messages),
        ("latency".into(), latency),
        ("modes".into(), modes),
        ("recovery".into(), recovery),
    ])
}

/// Render the run's telemetry as human-readable tables (the
/// `--telemetry pretty` output).
pub fn render_pretty(report: &FarmReport, transport: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let merged = report.telemetry.merged_comm();
    let _ = writeln!(
        out,
        "run: transport={transport} workers={} modes={} wall={:.3}s cpu={:.3}s idle={:.3}s",
        report.worker_stats.len(),
        report.outputs.len(),
        report.wall_seconds,
        report.total_cpu_seconds(),
        report.idle_seconds(),
    );
    let _ = writeln!(
        out,
        "     efficiency={:.1}% imbalance={:.3} rate={:.1} Mflop/s",
        report.parallel_efficiency() * 100.0,
        report.load_imbalance(),
        report.mflops(),
    );
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9}",
        "rank", "modes", "busy(s)", "total(s)", "idle(s)", "bytes_sent", "steps", "rhs_ev"
    );
    for (i, w) in report.worker_stats.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>12} {:>9} {:>9}",
            i + 1,
            w.modes,
            w.busy_seconds,
            w.total_seconds,
            (w.total_seconds - w.busy_seconds).max(0.0),
            w.bytes_sent,
            w.steps_accepted + w.steps_rejected,
            w.rhs_evals,
        );
    }
    if !report.recovery.is_clean() || report.recovery.heartbeats > 0 {
        let _ = writeln!(
            out,
            "recovery: requeues={} heartbeat_misses={} heartbeats={} respawns={} late={} quarantined={}",
            report.recovery.requeues,
            report.recovery.heartbeat_misses,
            report.recovery.heartbeats,
            report.recovery.respawns,
            report.recovery.late_results,
            report.recovery.failed_modes.len(),
        );
        for f in &report.recovery.failed_modes {
            let _ = writeln!(
                out,
                "  quarantined ik={} k={:.6e} after {} attempt(s): {}",
                f.ik, f.k, f.attempts, f.reason
            );
        }
    }
    if merged.total_sent() > 0 {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>12} {:>8} {:>12}",
            "tag", "name", "sent", "sent_bytes", "recv", "recv_bytes"
        );
        for t in 0..TRACKED_TAGS {
            if merged.sent_count[t] == 0 && merged.recv_count[t] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>12} {:>8} {:>12}",
                t,
                tag_name(t),
                merged.sent_count[t],
                merged.sent_bytes[t],
                merged.recv_count[t],
                merged.recv_bytes[t],
            );
        }
        let _ = writeln!(
            out,
            "comm: send mean={:.1}µs p99={:.1}µs · recv mean={:.1}µs p99={:.1}µs · spans={}",
            merged.send_ns.mean() / 1e3,
            merged.send_ns.quantile(0.99) as f64 / 1e3,
            merged.recv_ns.mean() / 1e3,
            merged.recv_ns.quantile(0.99) as f64 / 1e3,
            report.telemetry.spans.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json;

    #[test]
    fn tag_names_cover_protocol() {
        assert_eq!(tag_name(1), "init");
        assert_eq!(tag_name(7), "stats");
        assert_eq!(tag_name(9), "heartbeat");
        assert_eq!(tag_name(10), "other", "tag 10 is retired");
        assert_eq!(tag_name(11), "jobdone");
        assert_eq!(tag_name(15), "other");
    }

    #[test]
    fn empty_telemetry_snapshot_is_empty() {
        let t = FarmTelemetry::default();
        let s = t.snapshot();
        assert_eq!(s.counter("msgs_sent"), 0);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn merged_comm_sums_ranks() {
        let mut a = CommSnapshot::default();
        a.sent_count[3] = 2;
        let mut b = CommSnapshot {
            rank: 1,
            ..CommSnapshot::default()
        };
        b.sent_count[3] = 5;
        let t = FarmTelemetry {
            comm: vec![a, b],
            spans: Vec::new(),
            master_idle_seconds: 0.0,
        };
        assert_eq!(t.merged_comm().sent_count[3], 7);
        assert_eq!(t.snapshot().counter("msgs_sent_tag3"), 7);
    }

    #[test]
    fn empty_report_builds_valid_json() {
        let rep = FarmReport {
            outputs: Vec::new(),
            wall_seconds: 0.0,
            worker_stats: Vec::new(),
            bytes_received: 0,
            completion_log: Vec::new(),
            telemetry: FarmTelemetry::default(),
            recovery: crate::recovery::RecoveryLog::default(),
        };
        let doc = build_run_report(&rep, "none");
        let text = doc.to_string();
        let back = json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("plinger.run_report/2")
        );
        assert_eq!(
            back.get("recovery")
                .and_then(|r| r.get("requeues"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            back.get("run")
                .and_then(|r| r.get("workers"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(render_pretty(&rep, "none").contains("workers=0"));
    }
}
