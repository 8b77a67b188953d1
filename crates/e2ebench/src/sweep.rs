//! `sweep_pk`: the parameter-sweep user.
//!
//! A cube of mixed-dark-matter cosmologies (one massive neutrino) runs
//! through one resident `FarmPool` via `run_ensemble`, and every shard's
//! outputs become a transfer function and a P(k).  Per-mode integration
//! is small here (`Preset::Draft`, 12 modes a shard); what sets the wall
//! is what the two C_l workloads never see: building `background` and
//! `recomb` tables once per cosmology per worker (the massive-ν
//! recombination build is tens of milliseconds), per-job open and close,
//! and the prefetch scheduling of `plinger::{pool, ensemble}`.  The
//! massive-ν momentum ladders also exercise the RHS path the C_l
//! workloads skip.
//!
//! Closed loop: one cube at a time, each repetition on a fresh
//! seed-derived cube so the pool's warm tables never carry over.

use std::time::Instant;

use msgpass::channel::ChannelWorld;
use plinger::{
    run_ensemble, run_serial, EnsembleOptions, EnsembleReport, EnsembleSpec, FarmPool, FarmReport,
    JobControl,
};
use spectra::{matter_power_spectrum, transfer_function, MatterPower, PrimordialSpectrum};

use crate::gen::{sweep_cube, SweepScale};
use crate::harness::{outputs_hash, timed_reps, Outcome, RunCtx, SerialBaseline, SETUP_REPEATS};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{lower_quartile, median, min_max};
use crate::sys;
use crate::trace::Tracer;

/// Full size: a 3×2×2 cube of 12-mode shards, a little under two seconds
/// on two cores, so a run fits eight or so beside the serial baseline.
fn scale(smoke: bool) -> SweepScale {
    if smoke {
        SweepScale {
            axes: (2, 1, 1),
            nk: 4,
        }
    } else {
        SweepScale {
            axes: (3, 2, 2),
            nk: 12,
        }
    }
}

/// Cubes reserved for warm-ups, clear of every timed repetition's.
const WARM_UP_CUBES: u64 = 1 << 32;

/// The resident pool, and when it started: its workers and masters
/// stamp their spans against an epoch taken then.
struct Resident {
    pool: FarmPool<ChannelWorld>,
    started: Instant,
}

impl Resident {
    fn start(workers: usize) -> Result<Self, String> {
        let started = Instant::now();
        let pool = FarmPool::start(workers).map_err(|e| format!("pool start: {e}"))?;
        Ok(Self { pool, started })
    }
}

/// Every shard's T(k) and P(k).
fn assemble(report: &EnsembleReport) -> Vec<(Vec<f64>, MatterPower)> {
    report
        .results
        .iter()
        .map(|shard| {
            let c = &shard.cosmo;
            let prim = PrimordialSpectrum::unit(c.n_s);
            let outputs = &shard.report.outputs;
            (
                transfer_function(outputs, c.omega_c, c.omega_b),
                matter_power_spectrum(outputs, &prim, c.omega_c, c.omega_b),
            )
        })
        .collect()
}

/// One timed repetition.
struct Rep {
    /// Whether this repetition's spans were recorded.
    traced: bool,
    cube: EnsembleSpec,
    wall: f64,
    /// CPU seconds of the process meanwhile.
    cpu: f64,
    sweep: f64,
    assemble: f64,
    report: EnsembleReport,
    sane: bool,
}

/// Cube in hand → every shard's P(k) in hand, on the resident pool.
fn rep(
    resident: &mut Resident,
    cube: EnsembleSpec,
    tracer: &mut Tracer,
    id: usize,
) -> Result<Rep, String> {
    let cpu_before = sys::cpu_seconds(None)?;
    let began = Instant::now();
    let (report, sweep) = tracer.span("run_ensemble", id, || {
        run_ensemble(
            &mut resident.pool,
            &cube,
            &EnsembleOptions::default(),
            &JobControl::default(),
        )
    });
    let report = report.map_err(|e| format!("sweep: {e}"))?;
    let (spectra, assemble) = tracer.span("assemble", id, || assemble(&report));
    let ended = Instant::now();
    let cpu = sys::cpu_seconds(None)? - cpu_before;
    tracer.record("rep", id, began, ended, &[]);
    for shard in &report.results {
        tracer.adopt(&shard.report.telemetry.spans, resident.started, id);
    }
    let sane = report.failed.is_empty()
        && spectra.len() == cube.n_shards()
        && spectra
            .iter()
            .all(|(t, mp)| t.iter().chain(&mp.p).all(|x| x.is_finite()));
    Ok(Rep {
        traced: false,
        cube,
        wall: (ended - began).as_secs_f64(),
        cpu,
        sweep,
        assemble,
        report,
        sane,
    })
}

/// Run `sweep_pk`.
pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let scale = scale(ctx.smoke);
    let mut tracer = Tracer::new(ctx.started, 0);

    // ---- set-up: start the pool and push a two-shard cube through it.
    // The last pool started is the one the timed repetitions use.
    let warm_scale = SweepScale {
        axes: (if ctx.smoke { 1 } else { 2 }, 1, 1),
        ..scale
    };
    let mut setups = Vec::new();
    let mut resident = None;
    for i in 0..SETUP_REPEATS {
        let began = if i == 0 { ctx.started } else { Instant::now() };
        let mut fresh = Resident::start(ctx.workers)?;
        let cube = sweep_cube(ctx.seed, WARM_UP_CUBES + i as u64, warm_scale);
        rep(&mut fresh, cube, &mut tracer, 0)?;
        setups.push(began.elapsed().as_secs_f64());
        if let Some(old) = resident.replace(fresh) {
            old.pool.shutdown();
        }
    }
    let mut resident = resident.ok_or("no pool")?;

    // ---- measured window: cubes through the pool until the time is
    // spent, each after a slice of the first cube's shards through
    // `run_serial` (baseline of the speed-up, reference of the verify
    // stage)
    let first = sweep_cube(ctx.seed, 0, scale);
    let n_shards = first.n_shards();
    let mut baseline = SerialBaseline::new(n_shards);
    let (reps, errors) = timed_reps(ctx, ctx.seconds, |i, traced| {
        for shard in baseline.slice(i) {
            let (outputs, wall) =
                run_serial(&first.shard_spec(shard)).map_err(|e| format!("serial: {e}"))?;
            baseline.record(shard, wall, outputs_hash(&outputs));
        }
        tracer.set_on(traced);
        let cube = sweep_cube(ctx.seed, i as u64, scale);
        rep(&mut resident, cube, &mut tracer, i + 1).map(|r| Rep { traced, ..r })
    });
    let peak_rss_mb = sys::peak_rss_mb(None)?;
    let pool_started = resident.started;
    let shutdown = resident.pool.shutdown();
    tracer.set_on(ctx.trace);
    tracer.adopt(&shutdown.worker_spans, pool_started, 0);
    if reps.is_empty() {
        return Err(format!("no repetition finished: {}", errors.join("; ")));
    }

    // ---- verify, outside every metric
    let attempted = (reps.len() + errors.len()) as u64;
    let mut failed = errors.len() as u64;
    let mut problems = errors;
    for (i, r) in reps.iter().enumerate() {
        if !r.sane {
            failed += 1;
            problems.push(format!(
                "rep {i}: {} failed shards, or a spectrum not finite",
                r.report.failed.len()
            ));
        }
    }
    match reps.iter().find(|r| r.cube == first) {
        Some(r) => {
            let pooled: Vec<u64> = r
                .report
                .results
                .iter()
                .map(|s| outputs_hash(&s.report.outputs))
                .collect();
            if let Some(why) = baseline.mismatch(&pooled) {
                failed += 1;
                problems.push(format!("pooled cube: {why}"));
            }
        }
        None => problems.push("the cube with a serial reference never finished".into()),
    }

    // ---- metrics
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu).collect();
    let serial_s = baseline.seconds();
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let low = |xs: &[f64]| lower_quartile(xs).unwrap_or(0.0);
    let mut metrics;
    if !ctx.trace {
        metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", med(&setups));
        metrics.set("time_to_result_s", low(&walls));
        metrics.set("items_per_s", n_shards as f64 / low(&walls));
        metrics.set("speedup_vs_serial", serial_s / low(&walls));
        metrics.set("cpu_ms_per_item", 1e3 * low(&cpus) / n_shards as f64);
        metrics.set("peak_rss_mb", peak_rss_mb);
    } else {
        metrics = Metrics::new(PER_LAYER);
        let (traced, plain): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
        let of = |pick: fn(&Rep) -> f64| -> f64 {
            med(&traced.iter().map(|r| pick(r)).collect::<Vec<_>>())
        };
        let wall = of(|r| r.wall);
        let plain_wall = med(&plain.iter().map(|r| r.wall).collect::<Vec<_>>());
        // the pool builds contexts inside `run_ensemble`, overlapped
        // with other shards' modes: no wall of its own to give them
        metrics.set("phase.context_s", 0.0);
        metrics.set("phase.evolve_s", of(|r| r.sweep));
        metrics.set("phase.project_s", 0.0);
        metrics.set("phase.assemble_s", of(|r| r.assemble));
        metrics.set("phase.residual_s", of(|r| r.wall - r.sweep - r.assemble));
        metrics.set("trace_overhead_share", (wall - plain_wall) / plain_wall);
        metrics.set("setup.first_s", setups[0]);

        let last = &reps[reps.len() - 1].report;
        let shards: Vec<&FarmReport> = last.results.iter().map(|s| &s.report).collect();
        probes::farm_reports(&mut metrics, &shards);
        let builds = (last.ctx_rebuilds + last.prefetch_builds) as f64;
        let busy: f64 = shards.iter().map(|r| r.total_cpu_seconds()).sum();
        metrics.set("plinger.ctx_rebuilds", last.ctx_rebuilds as f64);
        metrics.set("plinger.prefetch_builds", last.prefetch_builds as f64);
        metrics.set("plinger.ctx_builds_per_shard", builds / n_shards as f64);
        metrics.set(
            "plinger.sweep_efficiency",
            busy / (last.wall_seconds * ctx.workers as f64),
        );
        let shard = reps[reps.len() - 1].cube.shard_spec(0);
        let inputs = probes::LayerInputs {
            spec: &shard,
            outputs: &shards[0].outputs,
            l_max: None,
            spectrum: None,
        };
        probes::layers(&mut metrics, &inputs, ctx)?;
    }

    let (fastest, slowest) = min_max(&walls).unwrap_or_default();
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("# rep walls, s: {}", each.join(" "));
    println!(
        "# {n_shards} shards x {} modes, {} timed cubes: wall lower quartile {:.3} s (min \
         {fastest:.3}, median {:.3}, max {slowest:.3}); serial cube {serial_s:.3} s",
        scale.nk,
        reps.len(),
        low(&walls),
        med(&walls),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        problems,
        spans: tracer.into_events(),
    })
}
