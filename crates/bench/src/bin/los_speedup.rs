//! End-to-end wall-clock comparison of the two spectrum methods on an
//! equal k-grid: the full moment hierarchy (evolve to `l_max`, read
//! `Δ_l` off the final state) versus the line-of-sight fast path
//! (hierarchy truncated at l ≈ 30, sources recorded, Bessel-projected).
//!
//! ```text
//! cargo run --release -p bench --bin los_speedup [l_max] [thin]
//! ```
//!
//! `thin` keeps every n-th point of the standard `cl_k_grid` (both
//! methods see the identical thinned grid), so the comparison fits in
//! a CI-sized budget while preserving the per-mode cost profile.
//! Output lines are machine-parseable for `scripts/bench_snapshot.sh
//! los`:
//!
//! ```text
//! bench: los_speedup/lmax1500 full_s=… los_s=… evolve_s=… project_s=… threads=… speedup=… modes=… band_dev=… jltable_mb=… jltable_build_ms=… recorder_kb_per_mode=…
//! ```
//!
//! `los_s` is `evolve_s` (the farm, on `threads` workers) plus
//! `project_s` (`los_spectrum`, which projects on as many threads).
//! The last three are what the two line-of-sight stages hold: heap of
//! the Bessel table `los_spectrum` left in the process-wide cache (its
//! node rows), the time to build that table afresh, and the most any
//! one mode's source recorder held.

use background::{Background, CosmoParams};
use boltzmann::SpectrumMethod;
use msgpass::channel::ChannelWorld;
use plinger::{Farm, RunSpec, SchedulePolicy};
use spectra::{angular_power_spectrum, cl_k_grid, los_spectrum, PrimordialSpectrum};

fn main() {
    let l_max: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let thin: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(1);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let bg = Background::new(CosmoParams::standard_cdm());
    let ks: Vec<f64> = cl_k_grid(bg.tau0(), l_max, 2.0)
        .into_iter()
        .step_by(thin)
        .collect();
    let mut spec = RunSpec::standard_cdm(ks);
    spec.preset = boltzmann::Preset::Demo;
    println!(
        "# los_speedup: l_max = {l_max}, {} modes (thin {thin}) on {workers} worker(s)",
        spec.ks.len()
    );

    // --- full hierarchy ------------------------------------------------
    let t0 = std::time::Instant::now();
    let full_report = Farm::<ChannelWorld>::new(workers)
        .run(&spec, SchedulePolicy::LargestFirst)
        .expect("full-hierarchy farm");
    let prim = PrimordialSpectrum::unit(spec.cosmo.n_s);
    let full_cl = angular_power_spectrum(&full_report.outputs, &prim, l_max);
    let full_s = t0.elapsed().as_secs_f64();
    println!("# full hierarchy: {full_s:.2} s (evolve + assemble)");

    // --- line of sight -------------------------------------------------
    let mut los_job = spec.clone();
    los_job.method = SpectrumMethod::LineOfSight;
    let t0 = std::time::Instant::now();
    let los_report = Farm::<ChannelWorld>::new(workers)
        .run(&los_job, SchedulePolicy::LargestFirst)
        .expect("LOS farm");
    let evolve_s = t0.elapsed().as_secs_f64();
    let los_cl = los_spectrum(&los_report.outputs, &prim, l_max);
    let los_s = t0.elapsed().as_secs_f64();
    let project_s = los_s - evolve_s;
    println!("# line of sight: {los_s:.2} s ({evolve_s:.2} s evolve, {project_s:.2} s project)");

    // Both assemblies stay inside the timed windows above; the numbers
    // themselves are not comparable on a thinned grid (shared
    // k-quadrature aliasing swamps the method difference), so agreement
    // is judged per mode instead.
    drop(full_cl);
    drop(los_cl);

    // what the LOS stages held.  Asking the cache for no more than it
    // has returns the table `los_spectrum` used, without rebuilding it.
    let nodes = spectra::los::node_multipoles(l_max);
    let table = special::JlTable::shared_rows(&nodes, 0.0);
    let jltable_mb = table.heap_bytes() as f64 / (1u64 << 20) as f64;
    let t0 = std::time::Instant::now();
    std::hint::black_box(special::JlTable::build_rows(&nodes, table.x_max()));
    let jltable_build_ms = 1e3 * t0.elapsed().as_secs_f64();
    let recorder_kb = (boltzmann::source::recorder_high_water_reals() * 8) as f64 / 1024.0;

    // matched-l agreement on representative modes: hierarchy Δ_l vs
    // projected Θ_l, relative to the band amplitude.  Compare only the
    // band where mode k feeds C_l — l ∈ [0.4, 0.9]·k·τ₀.  The C_l
    // integrand at multipole l peaks at k ≈ l/τ₀, so l ≪ k·τ₀ probes a
    // regime of near-total oscillatory cancellation whose quadrature
    // noise never reaches the spectrum, and l ≳ k·τ₀ is beyond the
    // hierarchy's own trust range.
    let n = spec.ks.len();
    let mut band_dev = 0.0f64;
    for idx in [n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5] {
        let hier = &full_report.outputs[idx];
        let los_out = &los_report.outputs[idx];
        let l_lo = ((0.4 * hier.k * bg.tau0()) as usize).max(4);
        let l_ok = (0.9 * hier.k * bg.tau0()) as usize;
        let ls: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&l| l >= l_lo && l <= l_ok.min(hier.lmax_g))
            .collect();
        if ls.len() < 3 {
            continue;
        }
        let projected =
            &spectra::project_outputs(std::slice::from_ref(los_out), *ls.last().unwrap())[0];
        let scale = ls
            .iter()
            .map(|&l| hier.delta_t[l].abs())
            .fold(0.0f64, f64::max);
        for &l in &ls {
            let d = (hier.delta_t[l] - projected.delta_t[l]).abs() / scale;
            band_dev = band_dev.max(d);
        }
    }

    println!(
        "bench: los_speedup/lmax{l_max} full_s={full_s:.3} los_s={los_s:.3} evolve_s={evolve_s:.3} \
         project_s={project_s:.3} threads={workers} speedup={:.2} modes={} \
         band_dev={band_dev:.4} jltable_mb={jltable_mb:.3} jltable_build_ms={jltable_build_ms:.1} \
         recorder_kb_per_mode={recorder_kb:.1}",
        full_s / los_s,
        spec.ks.len()
    );
}
