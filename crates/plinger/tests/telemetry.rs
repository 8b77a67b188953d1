//! Cross-transport telemetry invariants.
//!
//! The farm's measured message ledger must (a) agree with the workers'
//! own byte accounting, and (b) be *identical* across the channel and
//! TCP substrates — the protocol is deterministic, so the
//! per-tag message counts are a property of the run, not the wire.

use boltzmann::Preset;
use msgpass::channel::ChannelWorld;
use msgpass::instrument::TRACKED_TAGS;
use msgpass::tcp::TcpWorld;
use msgpass::World;
use plinger::{Farm, FarmReport, RunSpec, SchedulePolicy};
use proptest::prelude::*;

fn spec_for(ks: Vec<f64>) -> RunSpec {
    let mut spec = RunSpec::standard_cdm(ks);
    spec.preset = Preset::Draft;
    spec
}

fn run_farm<W: World>(spec: &RunSpec, workers: usize) -> FarmReport {
    Farm::<W>::new(workers)
        .run(spec, SchedulePolicy::LargestFirst)
        .unwrap_or_else(|e| panic!("farm failed: {e}"))
}

/// The invariants every transport must satisfy on its own.
fn check_internal_consistency(rep: &FarmReport, transport: &str) {
    let merged = rep.telemetry.merged_comm();
    // closed world: every message sent is received exactly once
    for t in 0..TRACKED_TAGS {
        assert_eq!(
            merged.sent_count[t], merged.recv_count[t],
            "{transport}: tag {t} sent/recv count mismatch"
        );
        assert_eq!(
            merged.sent_bytes[t], merged.recv_bytes[t],
            "{transport}: tag {t} sent/recv byte mismatch"
        );
    }
    // the endpoint-layer byte counters for the data path (header tag 4 +
    // payload tag 5) equal what the workers themselves accounted
    let wire_bytes = merged.sent_bytes[4] + merged.sent_bytes[5];
    let stats_bytes: u64 = rep.worker_stats.iter().map(|w| w.bytes_sent as u64).sum();
    assert_eq!(
        wire_bytes, stats_bytes,
        "{transport}: endpoint byte counters disagree with WorkerStats::bytes_sent"
    );
    // and with the master's own tally of received data bytes
    assert_eq!(
        wire_bytes, rep.bytes_received as u64,
        "{transport}: endpoint byte counters disagree with FarmReport::bytes_received"
    );
}

/// Zero out the tag-9 heartbeat slot: heartbeats are emitted on a wall
/// clock (only when a mode runs ≥100 ms), so their count is a property
/// of the machine, not the protocol.  Per-tag sent==recv still holds
/// for them (checked above); cross-transport equality does not.
fn mask_heartbeat(mut counts: [u64; TRACKED_TAGS]) -> [u64; TRACKED_TAGS] {
    counts[plinger::TAG_HEARTBEAT as usize] = 0;
    counts
}

#[test]
fn telemetry_agrees_across_transports() {
    let spec = spec_for(vec![0.001, 0.004, 0.02, 0.008]);
    let workers = 2;

    let reps: Vec<(&str, FarmReport)> = vec![
        ("channel", run_farm::<ChannelWorld>(&spec, workers)),
        ("tcp", run_farm::<TcpWorld>(&spec, workers)),
    ];
    for (name, rep) in &reps {
        check_internal_consistency(rep, name);
    }

    // per-tag counts are a protocol property: identical on every substrate
    let reference = reps[0].1.telemetry.merged_comm();
    for (name, rep) in &reps[1..] {
        let merged = rep.telemetry.merged_comm();
        assert_eq!(
            mask_heartbeat(merged.sent_count),
            mask_heartbeat(reference.sent_count),
            "per-tag send counts differ between channel and {name}"
        );
        assert_eq!(
            mask_heartbeat(merged.sent_bytes),
            mask_heartbeat(reference.sent_bytes),
            "per-tag send bytes differ between channel and {name}"
        );
    }

    // the counts themselves follow from the protocol: one job open per
    // worker, one assignment per mode, one header + one payload per
    // mode, one release and one stats report per worker — and no stop:
    // the job's table is cut before the pool shuts down
    let nk = spec.ks.len() as u64;
    let nw = workers as u64;
    let m = &reference;
    assert_eq!(m.sent_count[1], nw, "tag 1 (job open)");
    assert_eq!(m.sent_count[3], nk, "tag 3 (assign)");
    assert_eq!(m.sent_count[4], nk, "tag 4 (header)");
    assert_eq!(m.sent_count[5], nk, "tag 5 (data)");
    assert_eq!(m.sent_count[6], 0, "tag 6 (stop)");
    assert_eq!(m.sent_count[7], nw, "tag 7 (stats)");
    assert_eq!(m.sent_count[8], 0, "tag 8 (fail)");
    assert_eq!(m.sent_count[11], nw, "tag 11 (release)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte accounting holds for arbitrary small in-process farms.
    #[test]
    fn byte_ledger_matches_worker_stats(nk in 1usize..4, workers in 1usize..3) {
        let ks: Vec<f64> = (0..nk).map(|i| 1.0e-3 * (i + 1) as f64).collect();
        let spec = spec_for(ks);
        let channel = run_farm::<ChannelWorld>(&spec, workers);
        check_internal_consistency(&channel, "channel");
    }
}
