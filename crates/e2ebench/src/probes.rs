//! Per-layer measurements taken from outside the program: timed calls
//! into each module's public functions, and the counters those
//! functions already return.  Timings are medians of [`CALLS`] calls;
//! probe modes lo/mid/hi are the 10/50/90 % quantiles of the k-grid.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use background::Background;
use boltzmann::{
    evolve_mode_scratch, LingerRhs, ModeOutput, SpectrumMethod, StateLayout, LOS_LMAX,
};
use bytes::BytesMut;
use msgpass::channel::ChannelWorld;
use msgpass::{codec, Transport, World};
use ode::{Integrator, Rhs};
use plinger::{
    decode_spectrum_body, encode_spectrum_body, job_hash, run_serial, Farm, FarmError, FarmPool,
    FarmReport, ResultCache, RunSpec, SchedulePolicy, TAG_ASSIGN, TAG_DATA, TAG_HEADER,
    TAG_REQUEST,
};
use recomb::ThermoHistory;
use special::JlTable;
use spectra::{
    angular_power_spectrum, cobe_normalize, matter_power_spectrum, project_mode, transfer_function,
    ClSpectrum, PrimordialSpectrum, Q_RMS_PS_UK,
};

use crate::gen::serve_spec;
use crate::harness::RunCtx;
use crate::metrics::Metrics;
use crate::stats::median;

/// Calls behind every timing median (two at `--smoke` scale).
pub const CALLS: usize = 5;

/// How many calls each timing median rests on.
#[derive(Clone, Copy)]
struct Calls(usize);

impl Calls {
    /// Median seconds of the calls of `f`.
    fn timed<T>(self, mut f: impl FnMut() -> T) -> f64 {
        let samples: Vec<f64> = (0..self.0)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    }

    /// Median seconds per inner call, for calls too short to time
    /// singly: each sample is `inner` calls of `f`.
    fn timed_each(self, inner: usize, mut f: impl FnMut(usize)) -> f64 {
        self.timed(|| (0..inner).for_each(&mut f)) / inner as f64
    }
}

/// Indices of the lo/mid/hi probe modes: the 10/50/90 % quantiles of a
/// grid of `n` modes.
fn probe_indices(n: usize) -> [usize; 3] {
    [n / 10, n / 2, (9 * n / 10).min(n - 1)]
}

/// What the farm says about its own jobs — `FarmReport`, `WorkerStats`,
/// `StepStats` and the comm table, summed over `reports` (one job, or
/// the shards of a sweep).
pub fn farm_reports(m: &mut Metrics, reports: &[&FarmReport]) {
    let modes: usize = reports.iter().map(|r| r.outputs.len()).sum();
    let per_mode = |total: f64| total / modes.max(1) as f64;
    let outputs = || reports.iter().flat_map(|r| r.outputs.iter());
    let workers = || reports.iter().flat_map(|r| r.worker_stats.iter());
    let sum = |f: fn(&FarmReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();

    let busy = sum(FarmReport::total_cpu_seconds);
    let evals: usize = workers().map(|w| w.rhs_evals).sum();
    let accepted: usize = outputs().map(|o| o.stats.accepted).sum();
    let rejected: usize = outputs().map(|o| o.stats.rejected).sum();
    let samples: usize = outputs()
        .map(|o| o.sources.as_ref().map_or(0, |s| s.len()))
        .sum();
    m.set(
        "boltzmann.us_per_rhs_eval",
        1e6 * busy / evals.max(1) as f64,
    );
    m.set(
        "boltzmann.flops_per_mode",
        per_mode(sum(|r| r.total_flops() as f64)),
    );
    m.set(
        "boltzmann.source_samples_per_mode",
        per_mode(samples as f64),
    );
    m.set(
        "ode.rhs_evals_per_mode",
        per_mode(outputs().map(|o| o.stats.rhs_evals).sum::<usize>() as f64),
    );
    m.set("ode.steps_accepted", accepted as f64);
    m.set("ode.steps_rejected", rejected as f64);
    m.set(
        "ode.accept_ratio",
        accepted as f64 / (accepted + rejected).max(1) as f64,
    );
    // the messages that move a mode: work request, assignment, result
    // header, result data.  Job open and close, statistics, heartbeats
    // and prefetch hints go by the job or by the clock, and which job's
    // table a straggler lands in is a race — they would stop the count
    // from repeating exactly
    m.set(
        "msgpass.msgs_per_mode",
        per_mode(sum(|r| {
            let comm = r.telemetry.merged_comm();
            [TAG_REQUEST, TAG_ASSIGN, TAG_HEADER, TAG_DATA]
                .iter()
                .map(|&tag| comm.sent_count[tag as usize])
                .sum::<u64>() as f64
        })),
    );
    m.set(
        "msgpass.bytes_per_mode",
        per_mode(sum(|r| r.bytes_received as f64)),
    );

    let capacity: f64 = reports
        .iter()
        .map(|r| r.wall_seconds * r.worker_stats.len() as f64)
        .sum();
    m.set(
        "plinger.farm_efficiency",
        busy / capacity.max(f64::MIN_POSITIVE),
    );
    m.set("plinger.worker_idle_s", sum(FarmReport::idle_seconds));
    m.set(
        "plinger.master_idle_s",
        sum(|r| r.telemetry.master_idle_seconds),
    );
    m.set(
        "plinger.load_imbalance",
        sum(FarmReport::load_imbalance) / reports.len().max(1) as f64,
    );
}

/// [`farm_reports`] of one job, plus the context builds its workers
/// counted.
pub fn farm_report(m: &mut Metrics, report: &FarmReport) {
    farm_reports(m, &[report]);
    let builds = |f: fn(&plinger::WorkerStats) -> usize| -> f64 {
        report.worker_stats.iter().map(f).sum::<usize>() as f64
    };
    m.set("plinger.ctx_rebuilds", builds(|w| w.ctx_rebuilds));
    m.set("plinger.prefetch_builds", builds(|w| w.prefetch_builds));
}

/// What the layer probes work on: a job of the workload and one finished
/// run of it.
pub struct LayerInputs<'a> {
    /// The job whose layers are probed.
    pub spec: &'a RunSpec,
    /// Its outputs, in grid order.
    pub outputs: &'a [ModeOutput],
    /// Multipole range of the workload's spectrum, where it has one.
    pub l_max: Option<usize>,
    /// A spectrum assembled from `outputs`, where the workload makes one.
    pub spectrum: Option<&'a ClSpectrum>,
}

/// Time each layer's public entry points on the workload's own job.
pub fn layers(m: &mut Metrics, inp: &LayerInputs<'_>, ctx: &RunCtx) -> Result<(), String> {
    let spec = inp.spec;
    let cosmo = &spec.cosmo;
    let calls = Calls(if ctx.smoke { 2 } else { CALLS });

    // ---- background, recomb: table builds and monotone lookup sweeps
    m.set(
        "background.build_ms",
        1e3 * calls.timed(|| Background::new(cosmo.clone())),
    );
    let bg = Background::new(cosmo.clone());
    m.set(
        "recomb.build_ms",
        1e3 * calls.timed(|| ThermoHistory::new(&bg)),
    );
    let thermo = ThermoHistory::new(&bg);
    const SWEEP: usize = 100_000;
    let tau0 = bg.tau0();
    let mut bg_cache = bg.cache();
    let tau_of = |i: usize| tau0 * (i + 1) as f64 / SWEEP as f64;
    m.set(
        "background.lookup_ns",
        1e9 * calls.timed_each(SWEEP, |i| {
            black_box(bg_cache.at_tau(tau_of(i)));
        }),
    );
    let mut thermo_cache = thermo.cache();
    let a_of = |i: usize| 1.0e-6f64.powf(1.0 - (i + 1) as f64 / SWEEP as f64);
    m.set(
        "recomb.lookup_ns",
        1e9 * calls.timed_each(SWEEP, |i| {
            black_box(thermo_cache.at(a_of(i), cosmo.t_cmb_k, cosmo.y_helium));
        }),
    );

    // ---- boltzmann + ode: whole modes at the three probe wavenumbers,
    // then the bare RHS kernel at the hi mode's layout
    let cfg = spec.mode_config();
    let mut integ = Integrator::new();
    let [lo, mid, hi] = probe_indices(spec.ks.len());
    let mut mode_s = [0.0; 3];
    for (slot, &ik) in mode_s.iter_mut().zip(&[lo, mid, hi]) {
        let k = spec.ks[ik];
        let mut failed = None;
        *slot = calls.timed(|| {
            if let Err(e) = evolve_mode_scratch(&bg, &thermo, k, &cfg, None, &mut integ) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(format!("probe mode k = {k}: {e}"));
        }
    }
    m.set("boltzmann.mode_ms_lo", 1e3 * mode_s[0]);
    m.set("boltzmann.mode_ms_mid", 1e3 * mode_s[1]);
    m.set("boltzmann.mode_ms_hi", 1e3 * mode_s[2]);

    let hi_out = &inp.outputs[hi];
    let los = spec.method == SpectrumMethod::LineOfSight;
    let lmax_nu = spec.lmax_nu.unwrap_or_else(|| {
        let auto = boltzmann::evolve::auto_lmax(hi_out.k, hi_out.tau_end, spec.preset);
        let auto = auto.clamp(16, 600);
        if los {
            auto.min(LOS_LMAX)
        } else {
            auto
        }
    });
    let nq = spec
        .nq
        .unwrap_or(if cosmo.has_massive_nu() { 16 } else { 0 });
    let layout = StateLayout::new(
        spec.gauge,
        hi_out.lmax_g.max(3),
        lmax_nu.max(3),
        spec.lmax_h,
        nq,
    );
    let mut rhs = LingerRhs::new(&bg, &thermo, layout.clone(), hi_out.k);
    let y: Vec<f64> = (0..layout.dim()).map(|i| 1e-3 / (1.0 + i as f64)).collect();
    let mut dy = vec![0.0; layout.dim()];
    let tau_mid = 0.5 * tau0;
    let kernel_s = calls.timed_each(2_000, |_| {
        rhs.eval(black_box(tau_mid), black_box(&y), &mut dy);
        black_box(dy[0]);
    });
    let kernel_share = kernel_s * hi_out.stats.rhs_evals as f64 / mode_s[2];
    m.set("boltzmann.rhs_kernel_ns_hi", 1e9 * kernel_s);
    m.set("boltzmann.rhs_kernel_share", kernel_share);
    m.set("ode.stepper_share", 1.0 - kernel_share);

    // ---- msgpass: a result-sized ping-pong over channel endpoints, and
    // the TCP framing codec on a 20 k-real frame
    let payload = vec![1.0f64; hi_out.to_wire(0).1.len()];
    m.set(
        "msgpass.roundtrip_us_channel",
        1e6 * channel_roundtrip(&payload, calls)?,
    );
    let frame = vec![0.5f64; 20_000];
    let codec_s = calls.timed(|| {
        let wire = codec::encode(0, 5, &frame);
        let mut buf = BytesMut::with_capacity(wire.len());
        buf.extend_from_slice(&wire);
        codec::decode(&mut buf)
    });
    // bytes encoded plus bytes decoded
    m.set(
        "msgpass.codec_mb_per_s",
        2.0 * (frame.len() * 8) as f64 / codec_s / 1e6,
    );

    // ---- plinger: what one job costs beyond its integration, on a cold
    // farm and on a warm pool (one-mode jobs at the lo probe)
    let one = RunSpec {
        ks: vec![spec.ks[lo]],
        ..spec.clone()
    };
    let cold = fixed_costs(calls.0, || {
        Farm::<ChannelWorld>::new(ctx.workers).run(&one, SchedulePolicy::LargestFirst)
    })?;
    m.set("plinger.farm_fixed_ms", 1e3 * median(&cold).unwrap_or(0.0));
    let mut pool =
        FarmPool::<ChannelWorld>::start(ctx.workers).map_err(|e| format!("probe pool: {e}"))?;
    let warm = fixed_costs(calls.0 + 1, || {
        pool.run_job(&one, SchedulePolicy::LargestFirst)
    });
    pool.shutdown();
    // the pool's first job built the tables; the rest ran warm
    m.set(
        "plinger.pool_job_fixed_ms",
        1e3 * median(&warm?[1..]).unwrap_or(0.0),
    );

    // ---- plinger::service functions on a real 8-mode reply body
    let request = serve_spec(ctx.seed, 0);
    let (served, wall) = run_serial(&request).map_err(|e| format!("probe body: {e}"))?;
    let body = Arc::new(encode_spectrum_body(&served, wall));
    const SMALL: usize = 200;
    m.set(
        "plinger.job_hash_us",
        1e6 * calls.timed_each(SMALL, |_| {
            black_box(job_hash(black_box(&request)));
        }),
    );
    m.set(
        "plinger.body_encode_us",
        1e6 * calls.timed_each(SMALL, |_| {
            black_box(encode_spectrum_body(black_box(&served), wall));
        }),
    );
    m.set(
        "plinger.body_decode_us",
        1e6 * calls.timed_each(SMALL, |_| {
            black_box(decode_spectrum_body(black_box(&body)).is_ok());
        }),
    );
    let mut cache = ResultCache::new();
    m.set(
        "plinger.cache_insert_us",
        1e6 * calls.timed_each(SMALL, |i| {
            black_box(cache.insert(i as u64, Arc::clone(&body)));
        }),
    );
    m.set(
        "plinger.cache_lookup_us",
        1e6 * calls.timed_each(SMALL, |i| {
            black_box(cache.lookup(i as u64).is_some());
        }),
    );

    // ---- spectra (+ special, where the workload projects)
    let prim = PrimordialSpectrum::unit(cosmo.n_s);
    m.set(
        "spectra.pk_assemble_ms",
        1e3 * calls.timed(|| {
            black_box(transfer_function(inp.outputs, cosmo.omega_c, cosmo.omega_b));
            matter_power_spectrum(inp.outputs, &prim, cosmo.omega_c, cosmo.omega_b)
        }),
    );
    if let Some(spectrum) = inp.spectrum {
        m.set(
            "spectra.normalize_us",
            1e6 * calls.timed_each(SMALL, |_| {
                black_box(cobe_normalize(spectrum, cosmo.t_cmb_k, Q_RMS_PS_UK));
            }),
        );
    }
    match (inp.l_max, los) {
        (Some(l_max), false) => m.set(
            "spectra.cl_assemble_ms",
            1e3 * calls.timed(|| angular_power_spectrum(inp.outputs, &prim, l_max)),
        ),
        (Some(l_max), true) => {
            let x_max = inp
                .outputs
                .iter()
                .map(|o| o.k * o.tau_end)
                .fold(0.0f64, f64::max);
            m.set(
                "special.jltable_build_ms",
                1e3 * calls.timed(|| JlTable::build(l_max, x_max)),
            );
            let table = JlTable::shared(l_max, x_max);
            const EVALS: usize = 200_000;
            let step = 0.999 * x_max / EVALS as f64;
            m.set(
                "special.jl_eval_ns",
                1e9 * calls.timed_each(EVALS, |i| {
                    black_box(table.eval(l_max / 2, step * i as f64));
                }),
            );
            let nodes = spectra::los::node_multipoles(l_max);
            m.set(
                "spectra.project_mode_ms_hi",
                1e3 * calls.timed(|| project_mode(hi_out, &nodes, &table)),
            );
        }
        (None, _) => {}
    }
    Ok(())
}

/// Wall seconds of each of `calls` one-mode jobs, less the seconds its
/// mode spent integrating: spawn, broadcast, table build, wire, join.
fn fixed_costs(
    calls: usize,
    mut job: impl FnMut() -> Result<FarmReport, FarmError>,
) -> Result<Vec<f64>, String> {
    (0..calls)
        .map(|_| {
            let t = Instant::now();
            let rep = job().map_err(|e| format!("one-mode probe job: {e}"))?;
            Ok(t.elapsed().as_secs_f64() - rep.outputs[0].cpu_seconds)
        })
        .collect()
}

/// Median seconds of one ping-pong of `payload` between two channel
/// endpoints on two threads.
fn channel_roundtrip(payload: &[f64], calls: Calls) -> Result<f64, String> {
    const ROUNDS: usize = 1_000;
    let mut eps = ChannelWorld::endpoints(2).map_err(|e| format!("channel world: {e}"))?;
    let (Some(mut echo), Some(mut ping)) = (eps.pop(), eps.pop()) else {
        return Err("channel world: wrong endpoint count".into());
    };
    std::thread::scope(|s| {
        let echoer = s.spawn(move || -> Result<(), msgpass::CommError> {
            let mut buf = Vec::new();
            for _ in 0..ROUNDS * calls.0 {
                echo.recv(0, 5, &mut buf)?;
                echo.send(0, 5, &buf)?;
            }
            Ok(())
        });
        let mut buf = Vec::new();
        let mut comm = Ok(());
        let per_round = calls.timed_each(ROUNDS, |_| {
            if comm.is_ok() {
                comm = ping
                    .send(1, 5, payload)
                    .and_then(|()| ping.recv(1, 5, &mut buf).map(|_| ()));
            }
        });
        comm.map_err(|e| format!("ping: {e}"))?;
        echoer
            .join()
            .map_err(|_| "echo thread panicked".to_string())?
            .map_err(|e| format!("echo: {e}"))?;
        Ok(per_round)
    })
}
