//! Observable-assembly costs: C_l quadrature and sky-map synthesis.

use boltzmann::ModeOutput;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ode::StepStats;
use skymap::{AlmRealization, SkyMap};
use spectra::{angular_power_spectrum, PrimordialSpectrum};
use std::hint::black_box;

/// Synthetic mode outputs with plausible oscillatory Δ_l(k).
fn fake_outputs(nk: usize, lmax: usize) -> Vec<ModeOutput> {
    (0..nk)
        .map(|i| {
            let k = 1e-4 + 5e-4 * i as f64;
            let delta_t: Vec<f64> = (0..=lmax)
                .map(|l| {
                    ((k * 11_900.0 - l as f64) / 40.0).cos() * (-((l as f64) / 300.0)).exp() * 1e-2
                })
                .collect();
            ModeOutput {
                k,
                gauge: boltzmann::Gauge::Synchronous,
                lmax_g: lmax,
                tau_end: 11_900.0,
                a_end: 1.0,
                delta_c: -(k * 1e4),
                theta_c: 0.0,
                delta_b: -(k * 1e4),
                theta_b: 0.0,
                delta_g: 0.1,
                theta_g: 0.0,
                delta_nu: 0.1,
                theta_nu: 0.0,
                delta_h: 0.0,
                sigma_g: 0.0,
                sigma_nu: 0.0,
                phi: 1.0,
                psi: 1.0,
                psi_initial: 1.2,
                constraint: 0.0,
                delta_p: delta_t.iter().map(|t| t * 0.01).collect(),
                delta_t,
                stats: StepStats::default(),
                cpu_seconds: 0.0,
                sources: None,
            }
        })
        .collect()
}

fn bench_cl_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("cl_assembly");
    group.sample_size(10);
    for (nk, lmax) in [(100usize, 100usize), (400, 400)] {
        let outs = fake_outputs(nk, lmax);
        let prim = PrimordialSpectrum::unit(1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nk}k_{lmax}l")),
            &outs,
            |b, outs| b.iter(|| black_box(angular_power_spectrum(outs, &prim, lmax).cl[lmax / 2])),
        );
    }
    group.finish();
}

fn bench_map_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_synthesis");
    group.sample_size(10);
    for lmax in [64usize, 192] {
        let cl: Vec<f64> = (0..=lmax)
            .map(|l| {
                if l >= 2 {
                    1.0 / (l * (l + 1)) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let alm = AlmRealization::generate(&cl, 1);
        group.bench_with_input(BenchmarkId::from_parameter(lmax), &alm, |b, alm| {
            b.iter(|| black_box(SkyMap::synthesize(alm, 2 * lmax, 4 * lmax).rms()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cl_assembly, bench_map_synthesis);
criterion_main!(benches);
