//! The self-healing farm under every fault the plan can inject.
//!
//! Each test disturbs a run — a vanished worker, a hung worker, a
//! poison mode, a corrupted or dropped message — and checks that the
//! farm still finishes (the master requeues every lost mode and
//! quarantines one that fails both its dispatches), that the surviving
//! outputs are bit-identical to the undisturbed serial reference, and
//! that the recovery ledger records exactly what happened.

use std::time::{Duration, Instant};

use msgpass::channel::ChannelWorld;
use plinger::{
    build_run_report, CancelReason, Farm, FarmError, FarmReport, FaultPlan, JobControl,
    MasterConfig, RunSpec, SchedulePolicy,
};
use plinger_repro::prelude::*;

fn spec_of(ks: &[f64]) -> RunSpec {
    let mut spec = RunSpec::standard_cdm(ks.to_vec());
    spec.preset = Preset::Draft;
    spec
}

fn assert_bitwise(outputs: &[boltzmann::ModeOutput], serial: &[boltzmann::ModeOutput]) {
    assert_eq!(outputs.len(), serial.len(), "mode count mismatch");
    for (out, s) in outputs.iter().zip(serial) {
        assert_eq!(out.k, s.k, "grid order mismatch");
        assert_eq!(out.delta_c.to_bits(), s.delta_c.to_bits());
        assert_eq!(out.psi.to_bits(), s.psi.to_bits());
        for (a, b) in out.delta_t.iter().zip(&s.delta_t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

fn report_number(report: &FarmReport, field: &str) -> f64 {
    let json = build_run_report(report, "channel");
    json.get("recovery")
        .and_then(|r| r.get(field))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("run report lacks recovery.{field}"))
}

#[test]
fn requeue_finishes_after_worker_loss_bitwise() {
    // worker 1 dies holding its first mode (which the master guarantees
    // it is dealt); under Requeue the mode returns to the queue and
    // worker 2 finishes the run, bit-identical to serial
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]);
    let rep = Farm::<ChannelWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(rep.recovery.requeues >= 1, "requeue not recorded");
    assert!(rep.recovery.failed_modes.is_empty(), "nothing quarantined");
    // the recovery block reaches the run report
    assert!(report_number(&rep, "requeues") >= 1.0);
    assert_eq!(report_number(&rep, "respawns"), 0.0);
}

#[test]
fn requeue_finishes_after_losing_the_last_rank() {
    // the same loss on the last rank instead of the first: rank 2's
    // mode returns to the queue and rank 1 finishes the run
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.0e-3]);
    let rep = Farm::<ChannelWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::DropWorker {
            rank: 2,
            after_modes: 0,
        })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(rep.recovery.requeues >= 1);
}

#[test]
fn stalled_worker_caught_by_heartbeat_timeout() {
    // worker 1 hangs on its first assignment; integration heartbeats
    // stop arriving, so the master declares it dead on silence alone
    // and worker 2 absorbs the queue
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let rep = Farm::<ChannelWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(300),
        })
        .fault_plan(FaultPlan::StallWorker {
            rank: 1,
            after_modes: 0,
            stall: Duration::from_millis(1500),
        })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(
        rep.recovery.heartbeat_misses >= 1,
        "heartbeat miss not recorded: {:?}",
        rep.recovery
    );
    assert!(report_number(&rep, "heartbeat_misses") >= 1.0);
}

#[test]
fn poison_mode_quarantined_after_retry_budget() {
    // every worker reports ik=1 as failed; with a budget of two
    // dispatches the mode is retried once, then quarantined, and the
    // rest of the grid still matches serial
    let ks = [3.0e-4, 1.5e-3, 6.0e-4, 9.0e-4];
    let spec = spec_of(&ks);
    let rep = Farm::<ChannelWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::FailMode { ik: 1 })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    assert_eq!(rep.recovery.failed_modes.len(), 1, "{:?}", rep.recovery);
    let failed = &rep.recovery.failed_modes[0];
    assert_eq!(failed.ik, 1);
    assert_eq!(failed.k, ks[1]);
    assert_eq!(failed.attempts, 2, "budget is two dispatches");
    assert_eq!(rep.recovery.requeues, 1, "one retry before quarantine");
    // outputs hold the three surviving modes in grid order
    let (serial, _) = run_serial(&spec).unwrap();
    let surviving: Vec<_> = serial
        .into_iter()
        .enumerate()
        .filter(|(ik, _)| *ik != 1)
        .map(|(_, o)| o)
        .collect();
    assert_bitwise(&rep.outputs, &surviving);
    // and the ledger reaches the run report
    let json = build_run_report(&rep, "channel");
    let failed_modes = json
        .get("recovery")
        .and_then(|r| r.get("failed_modes"))
        .and_then(|v| v.as_array())
        .expect("failed_modes array");
    assert_eq!(failed_modes.len(), 1);
    assert_eq!(
        failed_modes[0].get("ik").and_then(|v| v.as_f64()),
        Some(1.0)
    );
}

#[test]
fn corrupted_result_payload_is_retried() {
    // the first tag-5 payload the one worker sends arrives truncated and
    // NaN-poisoned; the master rejects it at decode, requeues the mode,
    // and the retry (rule already consumed) comes through clean
    let spec = spec_of(&[3.0e-4, 1.5e-3, 6.0e-4]);
    let rep = Farm::<ChannelWorld>::new(1)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::CorruptPayload { tag: 5 })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(rep.recovery.requeues >= 1, "{:?}", rep.recovery);
    assert!(rep.recovery.failed_modes.is_empty());
}

#[test]
fn dropped_assignment_recovered_by_silence() {
    // the master's first tag-3 assignment evaporates in transit; the
    // assigned worker never starts integrating (so never heartbeats),
    // the silence window expires, and the mode is redistributed
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let rep = Farm::<ChannelWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(300),
        })
        .fault_plan(FaultPlan::DropMessage { tag: 3, nth: 0 })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(rep.recovery.heartbeat_misses >= 1, "{:?}", rep.recovery);
    assert!(rep.recovery.requeues >= 1);
}

#[test]
fn pooled_worker_killed_in_job_one_serves_job_two() {
    // recovery must work *across* jobs on a warm pool: worker 1 dies
    // mid-job-1, is respawned into the pool (not just the run), and the
    // replacement rank integrates modes of job 2 — both jobs bitwise
    // against serial
    let job1 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4, 1.0e-3, 7.0e-4, 1.4e-3]);
    let config = plinger::MasterConfig {
        poll: Duration::from_millis(10),
        drain_timeout: Duration::from_millis(500),
        ..plinger::MasterConfig::default()
    };
    // after_modes: 0 — vanish on the first assignment, which initial
    // dispatch guarantees rank 1 receives, so a mode is always in
    // flight when the worker dies.  (A kill after N >= 1 modes runs on
    // a one-worker pool, where no peer can take the mode it dies on:
    // `lone_worker_dies_after_a_completed_mode_and_its_respawn_finishes`.)
    let opts = PoolOptions {
        respawn_limit: 2,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let mut pool = FarmPool::<ChannelWorld>::start_with(2, config, opts).unwrap();

    let rep1 = pool.run_job(&job1, SchedulePolicy::Fifo).unwrap();
    let (serial1, _) = run_serial(&job1).unwrap();
    assert_bitwise(&rep1.outputs, &serial1);
    assert_eq!(rep1.recovery.respawns, 1, "{:?}", rep1.recovery);
    assert!(rep1.recovery.requeues >= 1, "{:?}", rep1.recovery);
    assert!(rep1.recovery.failed_modes.is_empty());
    assert!(report_number(&rep1, "respawns") >= 1.0);

    let rep2 = pool.run_job(&job2, SchedulePolicy::Fifo).unwrap();
    let (serial2, _) = run_serial(&job2).unwrap();
    assert_bitwise(&rep2.outputs, &serial2);
    assert!(rep2.recovery.is_clean(), "{:?}", rep2.recovery);
    // the replacement is a full pool member: rank 1 serves job 2
    assert!(
        rep2.worker_stats[0].modes >= 1,
        "respawned rank idle in job 2: {:?}",
        rep2.worker_stats
    );
    let modes2: usize = rep2.worker_stats.iter().map(|w| w.modes).sum();
    assert_eq!(modes2, job2.ks.len(), "job-2 stats polluted by job 1");
    assert_eq!(pool.shutdown().jobs, 2);
}

#[test]
fn pool_without_respawn_budget_degrades_but_keeps_serving() {
    // same loss with respawns exhausted: job 1 finishes on the
    // survivor, and job 2 on the same pool never offers work to the
    // dead rank — degraded, but still bitwise-correct
    let job1 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4]);
    let config = plinger::MasterConfig {
        poll: Duration::from_millis(10),
        drain_timeout: Duration::from_millis(500),
        ..plinger::MasterConfig::default()
    };
    // after_modes: 0 for the same determinism as the respawn test
    // above: the kill must land while a mode is in flight.
    let opts = PoolOptions {
        respawn_limit: 0,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let mut pool = FarmPool::<ChannelWorld>::start_with(2, config, opts).unwrap();

    let rep1 = pool.run_job(&job1, SchedulePolicy::Fifo).unwrap();
    let (serial1, _) = run_serial(&job1).unwrap();
    assert_bitwise(&rep1.outputs, &serial1);
    assert_eq!(rep1.recovery.respawns, 0);
    assert!(rep1.recovery.requeues >= 1, "{:?}", rep1.recovery);

    let rep2 = pool.run_job(&job2, SchedulePolicy::Fifo).unwrap();
    let (serial2, _) = run_serial(&job2).unwrap();
    assert_bitwise(&rep2.outputs, &serial2);
    assert_eq!(rep2.worker_stats[0].modes, 0, "dead rank served a mode");
    assert_eq!(rep2.worker_stats[1].modes, job2.ks.len());
    pool.shutdown();
}

#[test]
fn lone_worker_dies_after_a_completed_mode_and_its_respawn_finishes() {
    // a kill after one completed mode, made deterministic by having no
    // peer: the only worker must take the second mode, vanishes on it,
    // and its respawned rank finishes the job
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let config = MasterConfig {
        poll: Duration::from_millis(10),
        drain_timeout: Duration::from_millis(500),
        ..MasterConfig::default()
    };
    let opts = PoolOptions {
        respawn_limit: 1,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 1,
        }),
    };
    let mut pool = FarmPool::<ChannelWorld>::start_with(1, config, opts).unwrap();
    let rep = pool.run_job(&spec, SchedulePolicy::Fifo).unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert_eq!(rep.completion_log[0], (0, 1), "{:?}", rep.completion_log);
    assert_eq!(rep.recovery.respawns, 1, "{:?}", rep.recovery);
    assert_eq!(rep.recovery.requeues, 1, "{:?}", rep.recovery);
    assert!(rep.recovery.failed_modes.is_empty());
    pool.shutdown();
}

/// A twelve-mode grid: long enough (≈15 ms/mode in debug) that a
/// short deadline reliably fires while workers are mid-integration.
fn long_job() -> RunSpec {
    spec_of(&[
        2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4, 9.0e-4, 3.0e-4, 1.0e-3, 5.0e-4, 1.4e-3, 7.0e-4,
        1.1e-3,
    ])
}

fn cancel_config() -> plinger::MasterConfig {
    plinger::MasterConfig {
        poll: Duration::from_millis(5),
        drain_timeout: Duration::from_millis(500),
        ..plinger::MasterConfig::default()
    }
}

/// Cancel job 1 (either lever), then prove the pool still serves job 2
/// bitwise-identically with every rank participating.
fn assert_cancel_then_serve(ctrl: &JobControl<'_>, reason: CancelReason) {
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4, 1.0e-3, 7.0e-4, 1.4e-3]);
    let mut pool =
        FarmPool::<ChannelWorld>::start_with(2, cancel_config(), PoolOptions::default()).unwrap();

    let err = pool
        .run_job_prefetched(&long_job(), SchedulePolicy::Fifo, ctrl, None)
        .unwrap_err();
    match err {
        FarmError::Cancelled {
            reason: got,
            unfinished,
        } => {
            assert_eq!(got, reason);
            assert!(
                !unfinished.is_empty(),
                "cancel fired after the job finished"
            );
        }
        other => panic!("expected Cancelled, got {other}"),
    }

    // the cancelled job released its ranks: the same pool serves the
    // next job bitwise-identically, with both workers participating
    let rep = pool.run_job(&job2, SchedulePolicy::Fifo).unwrap();
    let (serial, _) = run_serial(&job2).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(rep.recovery.is_clean(), "{:?}", rep.recovery);
    for (i, w) in rep.worker_stats.iter().enumerate() {
        assert!(
            w.modes >= 1,
            "rank {} idle after the cancelled job: {:?}",
            i + 1,
            rep.worker_stats
        );
    }
    let modes: usize = rep.worker_stats.iter().map(|w| w.modes).sum();
    assert_eq!(modes, job2.ks.len(), "job-2 stats polluted by job 1");
    // only the finished job counts
    assert_eq!(pool.shutdown().jobs, 1);
}

#[test]
fn deadline_mid_job_cancels_and_frees_the_pool() {
    // the deadline expires while workers are mid-mode; the
    // cooperative tag-12 path must pull them back without wedging
    let ctrl = JobControl {
        deadline: Some(Instant::now() + Duration::from_millis(15)),
        cancel: None,
    };
    assert_cancel_then_serve(&ctrl, CancelReason::DeadlineExceeded);
}

#[test]
fn explicit_cancel_flag_aborts_the_job() {
    // an abandoned request flips the shared flag before the master even
    // assigns: the job dies with every mode unfinished
    let abandon = std::sync::atomic::AtomicBool::new(true);
    let ctrl = JobControl {
        deadline: None,
        cancel: Some(&abandon),
    };
    assert_cancel_then_serve(&ctrl, CancelReason::Cancelled);
}

/// A worker that panics — here the only one, on its first mode (a spec
/// no worker can finish is refused before the job opens, so the panic
/// is injected) — must read dead, not busy forever: the farm ends with
/// a typed error instead of polling a liveness flag nobody clears.
#[test]
fn panicking_workers_surface_as_typed_errors_channel() {
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let t0 = Instant::now();
    let outcome = Farm::<ChannelWorld>::new(1)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::PanicMode { ik: 0 })
        .run(&spec, SchedulePolicy::Fifo)
        .map(|_| ());
    assert!(
        matches!(outcome, Err(FarmError::AllWorkersLost { .. })),
        "{outcome:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
}

#[test]
fn clean_requeue_run_has_clean_ledger() {
    // nothing goes wrong: the ledger must stay clean and the outputs
    // identical to serial
    let spec = spec_of(&[3.0e-4, 1.5e-3, 6.0e-4]);
    let rep = Farm::<ChannelWorld>::new(2)
        .run(&spec, SchedulePolicy::LargestFirst)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert!(rep.recovery.is_clean(), "{:?}", rep.recovery);
    assert_eq!(rep.recovery.requeues, 0);
    assert_eq!(rep.recovery.respawns, 0);
    assert!(rep.recovery.failed_modes.is_empty());
}
