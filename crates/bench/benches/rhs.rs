//! Cost of one Einstein–Boltzmann RHS evaluation and one DVERK step, as
//! a function of hierarchy size — the quantity the paper's per-node
//! Mflop numbers are made of.

use background::{Background, CosmoParams};
use boltzmann::{Gauge, LingerRhs, StateLayout};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ode::{IntegrateOpts, Integrator, Rhs, VERNER65};
use recomb::ThermoHistory;
use std::hint::black_box;

fn bench_rhs_eval(c: &mut Criterion) {
    let bg = Background::new(CosmoParams::standard_cdm());
    let th = ThermoHistory::new(&bg);
    let mut group = c.benchmark_group("rhs_eval");
    for lmax in [64usize, 256, 1024] {
        let lay = StateLayout::new(Gauge::Synchronous, lmax, lmax.min(600), 16, 0);
        let mut rhs = LingerRhs::new(&bg, &th, lay.clone(), 0.05);
        let y = vec![1e-3; lay.dim()];
        let mut dy = vec![0.0; lay.dim()];
        group.throughput(Throughput::Elements(lay.dim() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(lmax), &lmax, |b, _| {
            b.iter(|| {
                rhs.eval(black_box(300.0), black_box(&y), &mut dy);
                black_box(dy[0])
            })
        });
    }
    group.finish();
}

fn bench_verner_step(c: &mut Criterion) {
    let bg = Background::new(CosmoParams::standard_cdm());
    let th = ThermoHistory::new(&bg);
    let lay = StateLayout::new(Gauge::Synchronous, 256, 256, 16, 0);
    let mut group = c.benchmark_group("dverk_step");
    let mut rhs = LingerRhs::new(&bg, &th, lay.clone(), 0.05);
    let mut integ = Integrator::new();
    let opts = IntegrateOpts {
        rtol: 1e-6,
        atol: 1e-10,
        ..Default::default()
    };
    // machine-readable stage count for scripts/bench_snapshot.sh
    println!("stages: Verner65 {}", VERNER65.stages);
    group.bench_function("Verner65", |b| {
        b.iter(|| {
            let mut y = vec![1e-3; lay.dim()];
            integ
                .integrate(&mut rhs, 300.0, 302.0, &mut y, &opts)
                .unwrap()
                .rhs_evals
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rhs_eval, bench_verner_step
}
criterion_main!(benches);
