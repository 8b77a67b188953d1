//! Ensemble-scheduler pinning: a parameter sweep through the two-level
//! scheduler must be *bitwise* identical to the obvious serial loop of
//! single-cosmology jobs, on every transport, with the per-shard
//! recovery ledgers and the one-build-per-cosmology table cache doing
//! their jobs along the way.
//!
//! The 3×2×2 Ω_b × h × n_s sweep is the reference workload from the
//! acceptance criteria: 12 distinct cosmologies multiplexed onto one
//! warm pool.  Each shard's outputs are compared bit-for-bit against
//! `run_serial` on that shard's spec — the ensemble layer may reorder,
//! requeue, and prefetch, but it may never change a single bit of
//! physics.

use boltzmann::Preset;
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

fn assert_bitwise(outputs: &[boltzmann::ModeOutput], reference: &[boltzmann::ModeOutput]) {
    assert_eq!(outputs.len(), reference.len(), "mode count mismatch");
    for (out, r) in outputs.iter().zip(reference) {
        assert_eq!(out.k, r.k, "grid order mismatch");
        assert_eq!(out.delta_c.to_bits(), r.delta_c.to_bits());
        assert_eq!(out.psi.to_bits(), r.psi.to_bits());
        for (a, b) in out.delta_t.iter().zip(&r.delta_t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in out.delta_p.iter().zip(&r.delta_p) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Every shard of the report, bit-for-bit against the serial loop.
fn assert_sweep_matches_serial(ens: &EnsembleSpec, rep: &EnsembleReport) {
    assert!(rep.failed.is_empty(), "failed shards: {:?}", rep.failed);
    assert_eq!(rep.results.len(), ens.n_shards());
    for (i, res) in rep.results.iter().enumerate() {
        assert_eq!(res.shard, i, "results not in canonical order");
        assert_eq!(res.job, ens.shard_hash(i), "shard keyed wrong");
        let (serial, _) = run_serial(&ens.shard_spec(i)).expect("serial reference");
        assert_bitwise(&res.report.outputs, &serial);
    }
}

/// The full 12-cosmology sweep on one warm pool of two workers, on one
/// transport: bitwise against serial, and the shared table cache
/// visible in the ledger — the pool's threads build each cosmology's
/// tables exactly once between them.
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
    assert_eq!(rep.total_modes(), ens.n_shards() * ens.base.ks.len());
    // one build per cosmology per process: the first shard's at its
    // job start, every later shard's one shard ahead on a hint that
    // exactly one rank claims
    assert_eq!(
        (rep.ctx_rebuilds, rep.prefetch_builds),
        (1, ens.n_shards() - 1),
        "builds at job start / on hints"
    );
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
    // shard 5 dies on its first attempt mid-sweep; the scheduler's
    // shard ledger must requeue the *whole* shard, rerun it, and the
    // sweep still pins bitwise with exactly one extra attempt recorded
    let ens = sweep_3x2x2();
    let victim = 5;
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
        let want = if res.shard == victim { 2 } else { 1 };
        assert_eq!(res.attempts, want, "attempt ledger wrong at {}", res.shard);
    }
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
