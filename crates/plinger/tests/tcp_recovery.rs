//! Process-level self-healing: the subprocess pool must survive a
//! worker subprocess that dies mid-job, either by relaunching it
//! (respawn budget > 0) or by redistributing its work onto the
//! survivors (respawn budget 0), finishing bit-identical to the serial
//! reference either way.

use boltzmann::Preset;
use msgpass::tcp::TcpWorld;
use plinger::{
    run_serial, run_tcp_processes, CancelReason, FarmError, FarmPool, FaultPlan, JobControl,
    MasterConfig, PoolOptions, RecoveryPolicy, RunSpec, SchedulePolicy,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_plinger"))
}

fn spec_of(ks: &[f64]) -> RunSpec {
    let mut spec = RunSpec::standard_cdm(ks.to_vec());
    spec.preset = Preset::Draft;
    spec
}

fn assert_bitwise(outputs: &[boltzmann::ModeOutput], serial: &[boltzmann::ModeOutput]) {
    assert_eq!(outputs.len(), serial.len());
    for (out, s) in outputs.iter().zip(serial) {
        assert_eq!(out.k, s.k);
        assert_eq!(out.delta_c.to_bits(), s.delta_c.to_bits());
        for (a, b) in out.delta_t.iter().zip(&s.delta_t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

fn fast_master(recovery: RecoveryPolicy) -> MasterConfig {
    MasterConfig {
        poll: Duration::from_millis(10),
        drain_timeout: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_secs(5),
        recovery,
    }
}

#[test]
fn killed_worker_is_respawned_and_run_finishes() {
    // worker 1 exits on its first assignment, which the master
    // guarantees it is dealt (scripted vanish, abnormal exit code); the
    // watch relaunches it, re-handshakes it under the same rank, and the
    // farm finishes with a respawn on the ledger
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    let config = fast_master(RecoveryPolicy::requeue());
    let opts = PoolOptions {
        respawn_limit: 2,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let rep = run_tcp_processes(&spec, SchedulePolicy::Fifo, 2, &exe(), config, opts).unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert_eq!(rep.recovery.respawns, 1, "{:?}", rep.recovery);
    assert!(rep.recovery.failed_modes.is_empty());
}

#[test]
fn no_respawn_budget_recovers_through_survivors() {
    // same loss, but respawns are off: the single survivor must absorb
    // the whole queue via requeue alone
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let config = fast_master(RecoveryPolicy::Requeue {
        max_attempts: 2,
        respawn: false,
    });
    let opts = PoolOptions {
        respawn_limit: 0,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let rep = run_tcp_processes(&spec, SchedulePolicy::Fifo, 2, &exe(), config, opts).unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise(&rep.outputs, &serial);
    assert_eq!(rep.recovery.respawns, 0);
    assert!(rep.recovery.requeues >= 1, "{:?}", rep.recovery);
}

#[test]
fn tcp_pool_respawns_killed_worker_across_jobs() {
    // the subprocess pool keeps the respawn listener alive between
    // jobs: worker 1 exits abnormally mid-job-1, is relaunched and
    // re-handshaked under its rank, and the replacement process serves
    // job 2 on the same warm pool — both jobs bitwise vs serial
    let job1 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4, 1.0e-3, 6.0e-4]);
    // the victim dies on the first assignment the master guarantees it
    // is dealt
    let config = fast_master(RecoveryPolicy::requeue());
    let opts = PoolOptions {
        respawn_limit: 2,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let mut pool = FarmPool::<TcpWorld>::start_processes(2, &exe(), config, opts).unwrap();

    let rep1 = pool.run_job(&job1, SchedulePolicy::Fifo).unwrap();
    let (serial1, _) = run_serial(&job1).unwrap();
    assert_bitwise(&rep1.outputs, &serial1);
    assert_eq!(rep1.recovery.respawns, 1, "{:?}", rep1.recovery);
    assert!(rep1.recovery.failed_modes.is_empty());

    let rep2 = pool.run_job(&job2, SchedulePolicy::Fifo).unwrap();
    let (serial2, _) = run_serial(&job2).unwrap();
    assert_bitwise(&rep2.outputs, &serial2);
    assert!(rep2.recovery.is_clean(), "{:?}", rep2.recovery);
    // the replacement process is a full pool member again
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
fn tcp_pool_cancelled_job_frees_the_subprocess_workers() {
    // the deadline expires while the subprocess workers hold modes; the
    // cooperative tag-12 cancel must pull them back over the sockets,
    // and the same pool then serves a full job bitwise vs serial
    let job1 = spec_of(&[
        2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4, 9.0e-4, 3.0e-4, 1.0e-3, 5.0e-4, 1.4e-3, 7.0e-4,
        1.1e-3,
    ]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4, 1.0e-3, 7.0e-4]);
    let config = fast_master(RecoveryPolicy::requeue());
    let mut pool =
        FarmPool::<TcpWorld>::start_processes(2, &exe(), config, PoolOptions::default()).unwrap();

    let ctrl = JobControl {
        deadline: Some(Instant::now() + Duration::from_millis(15)),
        cancel: None,
    };
    let err = pool
        .run_job_prefetched(&job1, SchedulePolicy::Fifo, &ctrl, None)
        .unwrap_err();
    match err {
        FarmError::Cancelled { reason, unfinished } => {
            assert_eq!(reason, CancelReason::DeadlineExceeded);
            assert!(
                !unfinished.is_empty(),
                "cancel fired after the job finished"
            );
        }
        other => panic!("expected Cancelled, got {other}"),
    }

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
    // only the finished job counts
    assert_eq!(pool.shutdown().jobs, 1);
}
