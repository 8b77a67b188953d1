//! Ensemble-scheduler pinning: a parameter sweep through the two-level
//! scheduler must be *bitwise* identical to the obvious serial loop of
//! single-cosmology jobs, on every transport, with the per-shard
//! recovery ledgers and the one-build-per-cosmology table cache doing
//! their jobs along the way.
//!
//! The 3×2×2 Ω_b × h × n_s sweep is the reference workload from the
//! acceptance criteria: 12 distinct cosmologies multiplexed onto one
//! warm pool.  Each shard's outputs are compared bit-for-bit against
//! `run_serial` on that shard's OWN spec — the ensemble layer may
//! requeue, prefetch, and evolve one shard per n_s group for all of
//! them, but it may never change a single bit of physics.  That
//! comparison is the guard of the grouping rule itself: the day a mode
//! equation reads n_s, every twin fails here.

use boltzmann::{ModeOutput, Preset, SpectrumMethod};
use msgpass::channel::ChannelWorld;
use msgpass::shmem::ShmemWorld;
use msgpass::tcp::TcpWorld;
use msgpass::World;
use plinger::{
    run_ensemble, run_serial, EnsembleOptions, EnsembleReport, EnsembleSpec, FarmError, FarmPool,
    FarmReport, FaultPlan, JobControl, PoolOptions, RecoveryPolicy, RunSpec, SchedulePolicy,
    ShardRunner,
};
use std::time::Duration;

fn base_spec(ks: &[f64]) -> RunSpec {
    let mut spec = RunSpec::standard_cdm(ks.to_vec());
    spec.preset = Preset::Draft;
    spec
}

/// The acceptance sweep: 3×2×2 = 12 cosmologies over a five-mode grid.
fn sweep_3x2x2() -> EnsembleSpec {
    EnsembleSpec {
        base: base_spec(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]),
        omega_b: vec![0.03, 0.05, 0.07],
        h: vec![0.5, 0.65],
        n_s: vec![0.9, 1.0],
    }
}

/// Everything a mode carries over the wire — final state, both moment
/// ladders, step counts, the line-of-sight source block — except its
/// timing real.
fn physics_bits(out: &ModeOutput) -> Vec<u64> {
    let timeless = ModeOutput {
        cpu_seconds: 0.0,
        ..out.clone()
    };
    let (header, payload) = timeless.to_wire(0);
    header.iter().chain(&payload).map(|x| x.to_bits()).collect()
}

fn assert_bitwise(outputs: &[ModeOutput], reference: &[ModeOutput]) {
    assert_eq!(outputs.len(), reference.len(), "mode count mismatch");
    for (out, r) in outputs.iter().zip(reference) {
        assert_eq!(out.k, r.k, "grid order mismatch");
        assert_eq!(physics_bits(out), physics_bits(r), "k = {}", out.k);
    }
}

/// Every shard of the report, bit-for-bit against the serial loop, and
/// filed under the first shard of its n_s group.
fn assert_sweep_matches_serial(ens: &EnsembleSpec, rep: &EnsembleReport) {
    assert!(rep.failed.is_empty(), "failed shards: {:?}", rep.failed);
    assert_eq!(rep.results.len(), ens.n_shards());
    for (i, res) in rep.results.iter().enumerate() {
        assert_eq!(res.shard, i, "results not in canonical order");
        assert_eq!(res.job, ens.shard_hash(i), "shard keyed wrong");
        assert_eq!(res.cosmo, ens.shard_cosmo(i), "shard {i} cosmology");
        assert_eq!(res.evolved_by, i - i % ens.n_s.len(), "shard {i}");
        let (serial, _) = run_serial(&ens.shard_spec(i)).expect("serial reference");
        assert_bitwise(&res.report.outputs, &serial);
    }
}

/// The full 12-cosmology sweep on one warm pool of two workers, on one
/// transport: bitwise against serial, and the shared table cache
/// visible in the ledger — the pool's threads build the tables of each
/// cosmology that evolves exactly once between them, and a twin's never.
fn sweep_matches_serial<W: World>() {
    let ens = sweep_3x2x2();
    let n_workers = 2;
    let mut pool = FarmPool::<W>::start(n_workers).expect("pool start");
    let rep = run_ensemble(
        &mut pool,
        &ens,
        &EnsembleOptions::default(),
        &JobControl::default(),
    )
    .expect("sweep");
    pool.shutdown();

    assert_sweep_matches_serial(&ens, &rep);
    assert_eq!(rep.shard_requeues, 0, "undisturbed sweep requeued");
    let evolutions = ens.omega_b.len() * ens.h.len();
    assert_eq!(rep.evolutions(), evolutions);
    assert_eq!(rep.total_modes(), evolutions * ens.base.ks.len());
    // one build per evolution per process: the first one's at its job
    // start, every later one's a job ahead on a hint that exactly one
    // rank claims
    assert_eq!(
        (rep.ctx_rebuilds, rep.prefetch_builds),
        (1, evolutions - 1),
        "builds at job start / on hints"
    );
    for res in &rep.results {
        let twin = res.evolved_by != res.shard;
        assert_eq!(res.attempts, usize::from(!twin), "shard {}", res.shard);
        // work is on the ledger of the shard that did it, once
        assert_eq!(res.report.worker_stats.is_empty(), twin);
        assert_eq!(res.report.completion_log.is_empty(), twin);
        assert_eq!(res.report.wall_seconds == 0.0, twin);
    }
}

#[test]
fn sweep_matches_serial_channel() {
    sweep_matches_serial::<ChannelWorld>();
}

#[test]
fn sweep_matches_serial_shmem() {
    sweep_matches_serial::<ShmemWorld>();
}

#[test]
fn sweep_matches_serial_tcp() {
    sweep_matches_serial::<TcpWorld>();
}

/// Wrap a real pool and kill the first attempt of one scripted shard —
/// the whole-shard requeue path with real physics underneath.
struct KillFirstAttempt<P> {
    inner: P,
    poisoned_job: u64,
    armed: bool,
}

impl<P: ShardRunner> ShardRunner for KillFirstAttempt<P> {
    fn run_shard(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        if self.armed && plinger::job_hash(spec) == self.poisoned_job {
            self.armed = false;
            return Err(FarmError::WorkerLost {
                rank: 1,
                unfinished: (0..spec.ks.len()).collect(),
            });
        }
        self.inner.run_shard(spec, policy, ctrl, prefetch)
    }
}

#[test]
fn killed_shard_is_requeued_and_stays_bitwise() {
    // shard 4 — the one that evolves for shards 4 and 5 — dies on its
    // first attempt mid-sweep; the scheduler's shard ledger must requeue
    // the *whole* job, rerun it, and the sweep still pins bitwise with
    // exactly one extra attempt recorded, none of it under the twin
    let ens = sweep_3x2x2();
    let victim = 4;
    let mut pool = KillFirstAttempt {
        inner: FarmPool::<ChannelWorld>::start(2).expect("pool start"),
        poisoned_job: ens.shard_hash(victim),
        armed: true,
    };
    let rep = run_ensemble(
        &mut pool,
        &ens,
        &EnsembleOptions::default(),
        &JobControl::default(),
    )
    .expect("sweep survives the kill");
    pool.inner.shutdown();

    assert_sweep_matches_serial(&ens, &rep);
    assert_eq!(rep.shard_requeues, 1, "kill did not requeue the shard");
    for res in &rep.results {
        let want = match res.shard {
            s if s == victim => 2,
            s if s % 2 == 0 => 1,
            _ => 0,
        };
        assert_eq!(res.attempts, want, "attempt ledger wrong at {}", res.shard);
    }
}

#[test]
fn line_of_sight_twin_carries_the_source_block() {
    // the line-of-sight payload is the one part of a mode that lives
    // behind an Option: a twin must be handed that too
    let mut base = base_spec(&[4.0e-4, 1.2e-3]);
    base.method = SpectrumMethod::LineOfSight;
    let ens = EnsembleSpec {
        n_s: vec![0.9, 1.0],
        ..EnsembleSpec::singleton(base)
    };
    let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
    let rep = run_ensemble(
        &mut pool,
        &ens,
        &EnsembleOptions::default(),
        &JobControl::default(),
    )
    .expect("sweep");
    pool.shutdown();

    assert_sweep_matches_serial(&ens, &rep);
    assert_eq!(rep.evolutions(), 1);
    let twin = &rep.results[1].report.outputs;
    assert!(twin.iter().all(|o| o.sources.is_some()), "sources dropped");
}

#[test]
fn worker_killed_mid_shard_recovers_inside_the_shard_ledger() {
    // a real worker kill mid-shard rides the existing mode-requeue +
    // respawn machinery *inside* the shard: the per-shard recovery
    // ledger shows the requeue, later shards run clean on the healed
    // pool, and every shard still pins bitwise
    let ens = EnsembleSpec {
        base: base_spec(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]),
        omega_b: vec![0.03, 0.06],
        h: vec![0.5, 0.7],
        n_s: vec![1.0],
    };
    let config = plinger::MasterConfig {
        poll: Duration::from_millis(10),
        drain_timeout: Duration::from_millis(500),
        recovery: RecoveryPolicy::requeue(),
        ..plinger::MasterConfig::default()
    };
    // after_modes: 0 — the victim vanishes on its *first* assignment.
    // The master holds a mode back for every rank that has not asked
    // yet (the victim may be a table build late, having claimed the
    // next shard's hint), so the death is guaranteed to leave a mode in
    // flight (deterministic requeue); a later kill races the survivor
    // draining the queue first.
    let opts = PoolOptions {
        respawn_limit: 2,
        fault: Some(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        }),
    };
    let mut pool = FarmPool::<ChannelWorld>::start_with(2, config, opts).expect("pool start");
    let rep = run_ensemble(
        &mut pool,
        &ens,
        &EnsembleOptions::default(),
        &JobControl::default(),
    )
    .expect("sweep survives the worker kill");
    pool.shutdown();

    assert_sweep_matches_serial(&ens, &rep);
    assert_eq!(rep.shard_requeues, 0, "recovery escalated past the shard");
    let requeues: usize = rep.results.iter().map(|r| r.report.recovery.requeues).sum();
    let respawns: usize = rep.results.iter().map(|r| r.report.recovery.respawns).sum();
    assert!(requeues >= 1, "kill left no trace in the shard ledgers");
    assert_eq!(respawns, 1, "respawn not recorded in a shard ledger");
    // the shard that took the hit is identifiable; the rest ran clean
    let dirty: Vec<usize> = rep
        .results
        .iter()
        .filter(|r| !r.report.recovery.is_clean())
        .map(|r| r.shard)
        .collect();
    assert_eq!(dirty.len(), 1, "kill smeared across shards: {dirty:?}");
}
