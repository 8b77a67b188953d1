//! Ensemble-sweep throughput: one warm pool serving a 3×2×2
//! Ω_b × h × n_s parameter cube versus two colder schedules on the
//! identical shard specs.
//!
//! ```text
//! cargo run --release -p bench --bin ensemble [workers] [nk]
//! ```
//!
//! The workload is the transfer-function cube: every shard's `δ_c(k)`
//! over the shared k-grid, i.e. the data product a parameter-sweep
//! pipeline actually wants.  Three schedules compute it:
//!
//! * **naive** — one single-mode run per (cosmology, k) task, tables
//!   rebuilt inside every task: the Pool-over-flattened-grid loop a
//!   sweep script reaches for first (shards × modes table builds);
//! * **fresh** — one farm spawned per cosmology, cold tables each
//!   time (shards builds, every rank waiting on its farm's one);
//! * **warm** — one persistent pool running the whole ensemble through
//!   `run_ensemble`: one job per (Ω_b, h) point — the mode equations
//!   never read n_s, so the other shards of an n_s group are handed the
//!   evolved shard's outputs — each job's tables built one job ahead by
//!   the one rank that claims the tag-13 hint (evolutions builds,
//!   overlapped).
//!
//! All three must produce the cube bit-for-bit identically (checked
//! here via the canonical real-vector hash); the measured differences
//! are purely scheduling.  Output is machine-parseable for
//! `scripts/bench_snapshot.sh ensemble`:
//!
//! ```text
//! bench: ensemble/3x2x2/w2 shards=12 evolutions=6 modes=6 naive_s=… fresh_s=… \
//!   warm_s=… speedup_naive=… speedup=… shards_per_hour=… ctx_rebuilds=… \
//!   prefetch_builds=… cube_fnv=…
//! ```

use boltzmann::Preset;
use msgpass::channel::ChannelWorld;
use plinger::{
    hash_reals, run_ensemble, run_serial, EnsembleOptions, EnsembleSpec, Farm, FarmPool,
    JobControl, RunSpec, SchedulePolicy,
};

fn sweep(nk: usize) -> EnsembleSpec {
    // log-spaced 2e-4 … 5e-2 Mpc⁻¹: the high-k end makes integration,
    // not per-shard table construction, the dominant cost — the regime
    // a production sweep lives in
    let ks: Vec<f64> = (0..nk)
        .map(|i| 2.0e-4 * (250.0f64).powf(i as f64 / (nk - 1).max(1) as f64))
        .collect();
    let mut base = RunSpec::standard_cdm(ks);
    base.preset = Preset::Draft;
    EnsembleSpec {
        base,
        omega_b: vec![0.03, 0.05, 0.07],
        h: vec![0.5, 0.65],
        n_s: vec![0.9, 1.0],
    }
}

/// Flatten one shard's transfer function into the cube buffer.
fn push_transfer(cube: &mut Vec<f64>, outputs: &[boltzmann::ModeOutput]) {
    for out in outputs {
        cube.push(out.delta_c);
    }
}

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let nk: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
        .max(2);

    let ens = sweep(nk);
    let n = ens.n_shards();
    println!(
        "# ensemble: {}x{}x{} cube, {} modes/shard, {workers} worker(s)",
        ens.omega_b.len(),
        ens.h.len(),
        ens.n_s.len(),
        nk
    );

    // --- naive pool-over-flattened-grid: one single-mode task per
    // (cosmology, k), background/recomb tables rebuilt in every task —
    // the ManyBraneDM-style loop the shard queue exists to replace ----
    let t0 = std::time::Instant::now();
    let mut naive_cube = Vec::with_capacity(n * nk);
    for i in 0..n {
        let shard = ens.shard_spec(i);
        for &k in &shard.ks {
            let task = RunSpec {
                ks: vec![k],
                ..shard.clone()
            };
            let (outputs, _) = run_serial(&task).expect("naive task");
            push_transfer(&mut naive_cube, &outputs);
        }
    }
    let naive_s = t0.elapsed().as_secs_f64();
    println!(
        "# naive per-(cosmology, k) tasks: {naive_s:.2} s ({} table builds)",
        n * nk
    );

    // --- fresh farm per cosmology (the baseline a sweep script would
    // write first): spawn, cold caches, tear down, repeat -------------
    let t0 = std::time::Instant::now();
    let mut fresh_cube = Vec::with_capacity(n * nk);
    for i in 0..n {
        let rep = Farm::<ChannelWorld>::new(workers)
            .run(&ens.shard_spec(i), SchedulePolicy::LargestFirst)
            .expect("fresh farm shard");
        push_transfer(&mut fresh_cube, &rep.outputs);
    }
    let fresh_s = t0.elapsed().as_secs_f64();
    println!("# fresh farms: {fresh_s:.2} s ({n} spawns, cold tables)");

    // --- one warm pool, one job per evolution + next-job hints ---------
    let t0 = std::time::Instant::now();
    let mut pool = FarmPool::<ChannelWorld>::start(workers).expect("pool start");
    let rep = run_ensemble(
        &mut pool,
        &ens,
        &EnsembleOptions::default(),
        &JobControl::default(),
    )
    .expect("warm sweep");
    pool.shutdown();
    let warm_s = t0.elapsed().as_secs_f64();
    let mut warm_cube = Vec::with_capacity(n * nk);
    for res in &rep.results {
        push_transfer(&mut warm_cube, &res.report.outputs);
    }
    let evolutions = rep.evolutions();
    println!(
        "# warm pool: {warm_s:.2} s ({evolutions} evolutions, {} ctx rebuilds, {} prefetch builds)",
        rep.ctx_rebuilds, rep.prefetch_builds
    );

    // identical physics is the contract, not an aspiration
    let naive_fnv = hash_reals(&naive_cube);
    let fresh_fnv = hash_reals(&fresh_cube);
    let warm_fnv = hash_reals(&warm_cube);
    assert_eq!(
        naive_fnv, fresh_fnv,
        "fresh-farm cube differs from naive per-task cube"
    );
    assert_eq!(
        fresh_fnv, warm_fnv,
        "warm-pool cube differs from fresh-farm cube"
    );

    println!(
        "bench: ensemble/3x2x2/w{workers} shards={n} evolutions={evolutions} modes={nk} \
         naive_s={naive_s:.3} fresh_s={fresh_s:.3} warm_s={warm_s:.3} speedup_naive={:.2} speedup={:.2} \
         shards_per_hour={:.0} ctx_rebuilds={} prefetch_builds={} cube_fnv={fresh_fnv:016x}",
        naive_s / warm_s,
        fresh_s / warm_s,
        n as f64 / warm_s * 3600.0,
        rep.ctx_rebuilds,
        rep.prefetch_builds
    );
}
