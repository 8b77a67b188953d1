//! Warm-pool determinism and cache discipline.
//!
//! A [`FarmPool`] must serve consecutive jobs bit-identical to fresh
//! `Farm::run` calls on both transports, thread or subprocess workers
//! alike, build a
//! cosmology's physics tables once per process and only when the
//! canonical cosmology hash changes (counter and span evidence in the
//! run report), and reset per-job accounting — worker stats, idle time,
//! comm tables, worker spans — between jobs instead of accumulating it.

use boltzmann::Preset;
use msgpass::channel::ChannelWorld;
use msgpass::tcp::TcpWorld;
use msgpass::World;
use plinger::{
    build_run_report, run_serial, Farm, FarmError, FarmPool, FarmReport, FaultPlan, JobControl,
    MasterConfig, PoolOptions, RunSpec, SchedulePolicy, TAG_INIT, TAG_JOBDONE, TAG_STOP,
};
use std::sync::atomic::AtomicBool;
use telemetry::log as tlog;
use telemetry::SpanEvent;

fn spec_of(ks: &[f64]) -> RunSpec {
    let mut spec = RunSpec::standard_cdm(ks.to_vec());
    spec.preset = Preset::Draft;
    spec
}

fn assert_bitwise(outputs: &[boltzmann::ModeOutput], reference: &[boltzmann::ModeOutput]) {
    assert_eq!(outputs.len(), reference.len(), "mode count mismatch");
    for (out, r) in outputs.iter().zip(reference) {
        assert_eq!(out.k, r.k, "grid order mismatch");
        assert_eq!(out.delta_c.to_bits(), r.delta_c.to_bits());
        assert_eq!(out.psi.to_bits(), r.psi.to_bits());
        for (a, b) in out.delta_t.iter().zip(&r.delta_t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

fn rebuilds(rep: &FarmReport) -> usize {
    rep.worker_stats.iter().map(|w| w.ctx_rebuilds).sum()
}

/// Spans called `name`.
fn named(spans: &[SpanEvent], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Three consecutive pooled jobs vs three fresh farms, on one
/// transport.  Job 2 shares job 1's cosmology (different grid); job 3
/// changes cosmology, so only jobs 1 and 3 may rebuild physics tables.
fn pool_matches_fresh_farms<W: World>() {
    let n_workers = 2;
    let job1 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4, 1.0e-3]);
    let mut job3 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    job3.cosmo = background::CosmoParams::lcdm();

    let mut pool = FarmPool::<W>::start(n_workers).expect("pool start");
    let reps: Vec<FarmReport> = [&job1, &job2, &job3]
        .iter()
        .map(|spec| {
            pool.run_job(spec, SchedulePolicy::LargestFirst)
                .expect("pooled job")
        })
        .collect();
    assert_eq!(pool.jobs_run(), 3);
    let shutdown = pool.shutdown();
    assert_eq!(shutdown.jobs, 3);

    for (spec, rep) in [&job1, &job2, &job3].iter().zip(&reps) {
        let fresh = Farm::<W>::new(n_workers)
            .run(spec, SchedulePolicy::LargestFirst)
            .expect("fresh farm");
        assert_bitwise(&rep.outputs, &fresh.outputs);
        let (serial, _) = run_serial(spec).expect("serial");
        assert_bitwise(&rep.outputs, &serial);
        assert!(rep.recovery.is_clean(), "{:?}", rep.recovery);
        // per-job stats reset: each report counts only its own modes
        let modes: usize = rep.worker_stats.iter().map(|w| w.modes).sum();
        assert_eq!(modes, spec.ks.len(), "stats accumulated across jobs");
    }

    // tables built exactly when the cosmology hash changed, and once
    // for the whole pool: the ranks are threads of one process
    assert_eq!(rebuilds(&reps[0]), 1, "cold pool builds once per process");
    assert_eq!(rebuilds(&reps[1]), 0, "warm same-cosmology job rebuilt");
    assert_eq!(rebuilds(&reps[2]), 1, "cosmology change missed");
    let builds: usize = reps
        .iter()
        .map(|r| named(&r.telemetry.spans, "build_ctx"))
        .sum();
    assert_eq!(builds, 2, "build_ctx spans disagree");
    assert_eq!(named(&shutdown.worker_spans, "build_ctx"), 0);
}

#[test]
fn pool_matches_fresh_farms_channel() {
    pool_matches_fresh_farms::<ChannelWorld>();
}

#[test]
fn pool_matches_fresh_farms_tcp() {
    pool_matches_fresh_farms::<TcpWorld>();
}

#[test]
fn process_and_thread_pools_agree_on_what_a_report_can_show() {
    // the same three jobs on subprocess workers and on worker threads,
    // both over TCP: outputs bitwise vs serial, three jobs at shutdown,
    // and the master's per-tag traffic of every job identical — the two
    // kinds share one master endpoint and one comm baseline.  Child
    // processes share nothing, so each builds its own tables: `workers`
    // builds when the cosmology is new, none when it is warm; threads
    // share the pool's cache and build once
    let n_workers = 2;
    let job1 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4]);
    let mut job3 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    job3.cosmo = background::CosmoParams::lcdm();
    let jobs = [&job1, &job2, &job3];

    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_plinger"));
    let processes = FarmPool::<TcpWorld>::start_processes(
        n_workers,
        exe,
        MasterConfig::default(),
        PoolOptions::default(),
    )
    .expect("process pool start");
    let threads = FarmPool::<TcpWorld>::start(n_workers).expect("thread pool start");
    let mut masters = Vec::new();
    for (mut pool, builds) in [(processes, [n_workers, 0, n_workers]), (threads, [1, 0, 1])] {
        let mut per_job = Vec::new();
        for (spec, want) in jobs.iter().zip(builds) {
            let rep = pool
                .run_job(spec, SchedulePolicy::LargestFirst)
                .expect("pooled job");
            let (serial, _) = run_serial(spec).expect("serial");
            assert_bitwise(&rep.outputs, &serial);
            assert!(rep.recovery.is_clean(), "{:?}", rep.recovery);
            assert_eq!(rebuilds(&rep), want, "table builds");
            // heartbeats ride a wall clock, not the protocol
            let mut master = rep.telemetry.comm[0].clone();
            master.recv_count[plinger::TAG_HEARTBEAT as usize] = 0;
            per_job.push((master.sent_count, master.recv_count));
        }
        assert_eq!(pool.shutdown().jobs, 3);
        masters.push(per_job);
    }
    assert_eq!(
        masters[0], masters[1],
        "master traffic differs by pool kind"
    );
}

#[test]
fn a_rank_count_past_usize_is_a_setup_error() {
    // n_workers + 1 ranks must fit a usize: the start path refuses
    // before any transport is asked for endpoints
    let start = FarmPool::<ChannelWorld>::start_with(
        usize::MAX,
        MasterConfig::default(),
        PoolOptions::default(),
    );
    assert!(matches!(start, Err(FarmError::Setup(_))));
}

#[test]
fn a_curved_cosmology_is_a_typed_error_and_the_pool_serves_on() {
    // an open budget (Omega_k = -0.2), a NaN one, and a parameter out
    // of range (h = -0.5 keeps the budget flat; a NaN Omega_b) never
    // reach a worker: the serial loop, the one-job farm and both pool
    // kinds refuse them before any mode runs, and the pool serves the
    // next job as usual
    let flat = spec_of(&[2.0e-4, 8.0e-4]);
    let mut closed = flat.clone();
    closed.cosmo.omega_lambda += 0.2;
    let mut nan = flat.clone();
    nan.cosmo.omega_lambda = f64::NAN;
    let mut negative_h = flat.clone();
    negative_h.cosmo.h = -0.5;
    let mut nan_b = flat.clone();
    nan_b.cosmo.omega_b = f64::NAN;
    let out_of_range = [(&negative_h, "h"), (&nan_b, "omega_b")];
    let not_flat = |r: Result<FarmReport, FarmError>| match r {
        Err(FarmError::NotFlat { omega_k }) => omega_k,
        other => panic!("expected NotFlat, got {other:?}"),
    };
    let bad_param = |r: Result<FarmReport, FarmError>| match r {
        Err(FarmError::BadParam(e)) => e.param,
        other => panic!("expected BadParam, got {other:?}"),
    };
    for spec in [&closed, &nan] {
        assert!(matches!(run_serial(spec), Err(FarmError::NotFlat { .. })));
    }
    for (spec, param) in out_of_range {
        let err = run_serial(spec).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, FarmError::BadParam(ref e) if e.param == param),
            "{err}"
        );
    }
    let omega_k = not_flat(Farm::<ChannelWorld>::new(2).run(&closed, SchedulePolicy::Fifo));
    assert!((omega_k + 0.2).abs() < 1e-9, "{omega_k}");

    let (serial, _) = run_serial(&flat).expect("serial");
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_plinger"));
    let processes = FarmPool::<TcpWorld>::start_processes(
        2,
        exe,
        MasterConfig::default(),
        PoolOptions::default(),
    )
    .expect("process pool start");
    let threads = FarmPool::<TcpWorld>::start(2).expect("thread pool start");
    for mut pool in [processes, threads] {
        for spec in [&closed, &nan] {
            not_flat(pool.run_job(spec, SchedulePolicy::Fifo));
        }
        for (spec, param) in out_of_range {
            assert_eq!(bad_param(pool.run_job(spec, SchedulePolicy::Fifo)), param);
        }
        // a prefetch hint naming a refused cosmology is dropped, so no
        // worker builds (and panics on) its tables
        let rep = pool
            .run_job_prefetched(
                &flat,
                SchedulePolicy::Fifo,
                &JobControl::default(),
                Some(&negative_h),
            )
            .expect("flat job after the refusals");
        assert_bitwise(&rep.outputs, &serial);
        assert!(rep.recovery.is_clean(), "{:?}", rep.recovery);
        assert_eq!(pool.workers_alive(), 2);
        assert_eq!(pool.shutdown().jobs, 1, "a refusal is not a job");
    }
}

#[test]
fn respawned_rank_inherits_the_pools_tables() {
    // rank 1 dies on its first assignment (the master holds a mode back
    // for every rank that has not asked yet, so it always gets one) and
    // is respawned into the pool mid-job.  Its tables were built before
    // it died — by it or by rank 2 — so the replacement, handed the
    // pool's cache, reports no build in this job or the next
    let job1 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]);
    let job2 = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4, 1.0e-3]);
    let config = MasterConfig {
        poll: std::time::Duration::from_millis(10),
        drain_timeout: std::time::Duration::from_millis(500),
        ..MasterConfig::default()
    };
    let opts = PoolOptions {
        respawn_limit: 1,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let mut pool = FarmPool::<ChannelWorld>::start_with(2, config, opts).expect("pool start");
    let rep1 = pool
        .run_job(&job1, SchedulePolicy::Fifo)
        .expect("job 1 survives the kill");
    assert_eq!(rep1.recovery.respawns, 1, "{:?}", rep1.recovery);
    assert!(rep1.recovery.requeues >= 1, "{:?}", rep1.recovery);
    assert_eq!(
        rep1.worker_stats[0].ctx_rebuilds, 0,
        "respawned rank rebuilt tables the pool already had"
    );
    let rep2 = pool
        .run_job(&job2, SchedulePolicy::Fifo)
        .expect("job 2 on the healed pool");
    assert_eq!(rebuilds(&rep2), 0, "warm job rebuilt after a respawn");
    assert!(rep2.worker_stats[0].modes >= 1, "respawned rank idle");
    for (spec, rep) in [(&job1, &rep1), (&job2, &rep2)] {
        let (serial, _) = run_serial(spec).expect("serial");
        assert_bitwise(&rep.outputs, &serial);
    }
    // the killed rank handed its spans over as it vanished, so the one
    // build, whichever rank made it, is in job 1's report
    assert_eq!(
        named(&rep1.telemetry.spans, "build_ctx"),
        1,
        "one cosmology, one build, respawn or not"
    );
    assert_eq!(named(&rep2.telemetry.spans, "build_ctx"), 0);
    assert_eq!(named(&pool.shutdown().worker_spans, "build_ctx"), 0);
}

/// The `job` argument of every span called `name`.
fn jobs_of(spans: &[SpanEvent], name: &str) -> Vec<String> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.args.iter().find(|(k, _)| k == "job"))
        .map(|(_, v)| v.clone())
        .collect()
}

#[test]
fn a_failed_jobs_worker_spans_reach_the_shutdown() {
    // the only worker integrates two modes and vanishes on its third
    // assignment: the job ends with no report, and the spans the rank
    // handed over as it went are the shutdown's
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    let opts = PoolOptions {
        respawn_limit: 0,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 2,
        }),
    };
    let mut pool =
        FarmPool::<ChannelWorld>::start_with(1, MasterConfig::default(), opts).expect("pool start");
    match pool.run_job(&spec, SchedulePolicy::Fifo) {
        Err(FarmError::AllWorkersLost { .. }) => {}
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
    let shutdown = pool.shutdown();
    assert_eq!(shutdown.jobs, 0);
    let job = tlog::job_hex(plinger::job_hash(&spec));
    assert_eq!(
        jobs_of(&shutdown.worker_spans, "mode"),
        [job.clone(), job.clone()]
    );
    assert_eq!(jobs_of(&shutdown.worker_spans, "build_ctx"), [job]);
}

#[test]
fn a_cancelled_jobs_worker_spans_stay_out_of_the_next_report() {
    // a job cancelled before its first assignment still opened on every
    // rank, and one of them built its tables; that build is reported by
    // the shutdown, not by the next job on the same cosmology
    let cancelled = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let next = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4]);
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    let flag = AtomicBool::new(true);
    let ctrl = JobControl {
        deadline: None,
        cancel: Some(&flag),
    };
    match pool.run_job_prefetched(&cancelled, SchedulePolicy::Fifo, &ctrl, None) {
        Err(FarmError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let rep = pool
        .run_job(&next, SchedulePolicy::Fifo)
        .expect("the job after the cancel");
    assert_eq!(rebuilds(&rep), 0, "tables built by the cancelled job");
    let job = tlog::job_hex(plinger::job_hash(&next));
    assert_eq!(
        jobs_of(&rep.telemetry.spans, "mode"),
        vec![job; next.ks.len()]
    );
    assert!(jobs_of(&rep.telemetry.spans, "build_ctx").is_empty());
    let shutdown = pool.shutdown();
    let job = tlog::job_hex(plinger::job_hash(&cancelled));
    assert_eq!(jobs_of(&shutdown.worker_spans, "build_ctx"), [job]);
    assert_eq!(named(&shutdown.worker_spans, "mode"), 0);
}

/// A line-of-sight job through the warm pool must match the serial
/// LOS path bit for bit — including the recorded source extension that
/// rides the result payload.
fn los_pool_matches_serial<W: World>() {
    let mut spec = spec_of(&[6.0e-4, 1.6e-3, 1.0e-3, 2.4e-3]);
    spec.method = boltzmann::SpectrumMethod::LineOfSight;

    let mut pool = FarmPool::<W>::start(2).expect("pool start");
    let rep = pool
        .run_job(&spec, SchedulePolicy::LargestFirst)
        .expect("pooled LOS job");
    pool.shutdown();

    let (serial, _) = run_serial(&spec).expect("serial LOS");
    assert_bitwise(&rep.outputs, &serial);
    for (out, r) in rep.outputs.iter().zip(&serial) {
        let src = out.sources.as_ref().expect("pooled LOS output has sources");
        let rsrc = r.sources.as_ref().expect("serial LOS output has sources");
        assert_eq!(src.tau_obs.to_bits(), rsrc.tau_obs.to_bits());
        for (cols, rcols) in [
            (&src.tau, &rsrc.tau),
            (&src.s0, &rsrc.s0),
            (&src.s1, &rsrc.s1),
            (&src.s2, &rsrc.s2),
            (&src.sp, &rsrc.sp),
        ] {
            assert_eq!(cols.len(), rcols.len());
            for (a, b) in cols.iter().zip(rcols.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "source column diverged");
            }
        }
        // identical integration work: the observer adds no RHS evals
        assert_eq!(out.stats.rhs_evals, r.stats.rhs_evals);
    }
}

#[test]
fn los_pool_matches_serial_channel() {
    los_pool_matches_serial::<ChannelWorld>();
}

#[test]
fn los_pool_matches_serial_tcp() {
    los_pool_matches_serial::<TcpWorld>();
}

#[test]
fn every_job_opens_with_tag_1_and_closes_with_tag_11() {
    // per-job comm tables are deltas against the between-jobs baseline:
    // every job shows its own tag-1 opens and tag-11 releases, never a
    // tag-6 stop (the pool outlives the job)
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    for _ in 0..2 {
        let rep = pool
            .run_job(&spec, SchedulePolicy::Fifo)
            .expect("pooled job");
        let merged = rep.telemetry.merged_comm();
        assert_eq!(merged.sent_count[TAG_INIT as usize], 2, "one open per rank");
        assert_eq!(
            merged.sent_count[TAG_JOBDONE as usize], 2,
            "one release per rank"
        );
        assert_eq!(merged.sent_count[10], 0, "retired tag 10 on the wire");
        assert_eq!(
            merged.sent_count[TAG_STOP as usize], 0,
            "job stopped the pool"
        );
    }
    pool.shutdown();
}

/// `Farm::run` is a pool of one job: everything a report can show —
/// outputs, completion order, per-tag message counts, table builds —
/// must agree with the first job of a pool the caller started itself.
fn farm_run_is_the_first_job_of_a_fresh_pool<W: World>() {
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    for n_workers in [1, 2] {
        let farm = Farm::<W>::new(n_workers)
            .run(&spec, SchedulePolicy::LargestFirst)
            .expect("farm run");
        let mut pool = FarmPool::<W>::start(n_workers).expect("pool start");
        let first = pool
            .run_job(&spec, SchedulePolicy::LargestFirst)
            .expect("first pooled job");
        let worker_spans = pool.shutdown().worker_spans;

        assert_bitwise(&farm.outputs, &first.outputs);
        if n_workers == 1 {
            // one worker: completion order is dispatch order
            assert_eq!(farm.completion_log, first.completion_log);
        }
        // heartbeats ride a wall clock, not the protocol
        let protocol = |rep: &FarmReport| {
            let mut merged = rep.telemetry.merged_comm();
            let beat = plinger::TAG_HEARTBEAT as usize;
            (merged.sent_count[beat], merged.recv_count[beat]) = (0, 0);
            merged.sent_bytes[beat] = 0;
            merged
        };
        let (a, b) = (protocol(&farm), protocol(&first));
        assert_eq!(a.sent_count, b.sent_count, "per-tag sends differ");
        assert_eq!(a.recv_count, b.recv_count, "per-tag receives differ");
        assert_eq!(a.sent_bytes, b.sent_bytes, "per-tag bytes differ");
        assert_eq!(rebuilds(&farm), 1);
        assert_eq!(rebuilds(&first), 1);
        // the job's report carries its workers' spans, and the farm's
        // report no more of them than that
        assert_eq!(named(&farm.telemetry.spans, "mode"), spec.ks.len());
        assert_eq!(named(&first.telemetry.spans, "mode"), spec.ks.len());
        assert_eq!(named(&worker_spans, "mode"), 0);
    }
}

#[test]
fn worker_spans_leave_with_their_jobs_report() {
    // a resident pool keeps nothing per mode it serves: every job's
    // worker `mode` spans come back in that job's report, once each and
    // stamped with its job hash, and the shutdown has none left over
    let mut job3 = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4]);
    job3.cosmo = background::CosmoParams::lcdm();
    let jobs = [
        spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]),
        spec_of(&[3.0e-4, 9.0e-4, 5.0e-4]),
        job3,
    ];
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    for spec in &jobs {
        let rep = pool
            .run_job(spec, SchedulePolicy::LargestFirst)
            .expect("pooled job");
        let job = tlog::job_hex(plinger::job_hash(spec));
        let mut iks: Vec<usize> = rep
            .telemetry
            .spans
            .iter()
            .filter(|s| s.name == "mode")
            .map(|s| {
                let arg = |key: &str| s.args.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(arg("job"), Some(&job), "a mode span of another job");
                arg("ik")
                    .and_then(|ik| ik.parse().ok())
                    .expect("mode span names its ik")
            })
            .collect();
        iks.sort_unstable();
        assert_eq!(
            iks,
            (0..spec.ks.len()).collect::<Vec<_>>(),
            "one span per mode"
        );
    }
    let shutdown = pool.shutdown();
    assert_eq!(shutdown.jobs, 3);
    assert_eq!(
        named(&shutdown.worker_spans, "mode"),
        0,
        "the pool kept mode spans"
    );

    let farm = Farm::<ChannelWorld>::new(2)
        .run(&jobs[0], SchedulePolicy::LargestFirst)
        .expect("farm run");
    assert_eq!(named(&farm.telemetry.spans, "mode"), jobs[0].ks.len());
}

#[test]
fn farm_run_is_the_first_job_of_a_fresh_pool_channel() {
    farm_run_is_the_first_job_of_a_fresh_pool::<ChannelWorld>();
}

#[test]
fn farm_run_is_the_first_job_of_a_fresh_pool_tcp() {
    farm_run_is_the_first_job_of_a_fresh_pool::<TcpWorld>();
}

#[test]
fn per_job_comm_tables_are_closed_world() {
    // a worker counts its tag-7 before the master can receive it, so a
    // table cut the moment the last report arrives never lends a
    // message to the next job's: per tag, sent == recv, every job
    let spec = spec_of(&[2.0e-4]);
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    for job in 0..200 {
        let rep = pool
            .run_job(&spec, SchedulePolicy::Fifo)
            .expect("pooled job");
        let merged = rep.telemetry.merged_comm();
        assert_eq!(
            merged.sent_count, merged.recv_count,
            "job {job}: comm table not closed"
        );
        assert_eq!(merged.sent_count[plinger::TAG_STATS as usize], 2);
    }
    pool.shutdown();
}

#[test]
fn run_report_carries_ctx_rebuild_counters() {
    // the cache-discipline evidence must survive into the run report:
    // workers[].ctx_rebuilds sums to 1 on the cold job (the one rank
    // that built for the process) and to 0 on the warm one
    let spec = spec_of(&[2.0e-4, 8.0e-4]);
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    let cold = pool.run_job(&spec, SchedulePolicy::Fifo).expect("cold");
    let warm = pool.run_job(&spec, SchedulePolicy::Fifo).expect("warm");
    pool.shutdown();
    for (rep, want) in [(&cold, 1.0), (&warm, 0.0)] {
        let json = build_run_report(rep, "channel");
        let workers = json
            .get("workers")
            .and_then(|w| w.as_array())
            .expect("workers block");
        assert_eq!(workers.len(), 2);
        let builds: f64 = workers
            .iter()
            .map(|w| {
                w.get("ctx_rebuilds")
                    .and_then(|v| v.as_f64())
                    .expect("ctx_rebuilds field")
            })
            .sum();
        assert_eq!(builds, want, "report rebuild counters wrong");
    }
}

#[test]
fn per_job_idle_accounting_does_not_accumulate() {
    // total_seconds is the span of one job, not the pool's lifetime:
    // after several warm jobs a worker's per-job clock must still be
    // bounded by that job's wall time
    let spec = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.0e-3]);
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    let mut last = None;
    for _ in 0..3 {
        last = Some(
            pool.run_job(&spec, SchedulePolicy::Fifo)
                .expect("pooled job"),
        );
    }
    let rep = last.expect("three jobs ran");
    pool.shutdown();
    for w in &rep.worker_stats {
        assert!(
            w.total_seconds <= rep.wall_seconds + 0.25,
            "per-job clock {} outlived the job wall {}",
            w.total_seconds,
            rep.wall_seconds
        );
        assert!(w.busy_seconds <= w.total_seconds + 1e-9);
    }
    // derived idle/imbalance come from the same per-job stats
    assert!(rep.idle_seconds() < 3.0 * rep.wall_seconds.max(0.05));
}
