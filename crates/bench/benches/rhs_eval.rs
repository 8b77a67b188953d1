//! Microbenchmark of a single Einstein–Boltzmann RHS evaluation — the
//! hot path every DVERK stage lands on — at the hierarchy sizes the
//! presets actually use, with the tight-coupling branch both on and
//! off, plus one mixed-dark-matter case (a massive species puts the
//! Fermi–Dirac kernel lookups and 16 momentum bins on the path).
//! `scripts/bench_snapshot.sh` parses this bench's output into
//! `BENCH_rhs.json`, and §5.1 of EXPERIMENTS.md quotes its medians.

use background::{Background, CosmoParams};
use boltzmann::{Gauge, LingerRhs, StateLayout};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ode::Rhs;
use recomb::ThermoHistory;
use std::hint::black_box;

/// A state vector with every hierarchy slot populated, so no multiply
/// is skipped by a zero operand.
fn seeded_state(dim: usize) -> Vec<f64> {
    (0..dim).map(|i| 1e-3 / (1.0 + i as f64)).collect()
}

fn bench_rhs_eval(c: &mut Criterion) {
    let scdm = Background::new(CosmoParams::standard_cdm());
    let scdm_th = ThermoHistory::new(&scdm);
    let mdm = Background::new(CosmoParams::mixed_dark_matter());
    let mdm_th = ThermoHistory::new(&mdm);
    // (id, tables, lmax, momentum bins, tight coupling); one
    // massive-neutrino case, at `evolve_mode`'s default of 16 bins, keeps
    // its background lookups in view
    let cases = [
        ("lmax16_tca_off", &scdm, &scdm_th, 16usize, 0, false),
        ("lmax16_tca_on", &scdm, &scdm_th, 16, 0, true),
        ("lmax64_tca_off", &scdm, &scdm_th, 64, 0, false),
        ("lmax64_tca_on", &scdm, &scdm_th, 64, 0, true),
        ("mdm_lmax16_tca_off", &mdm, &mdm_th, 16, 16, false),
    ];
    let mut group = c.benchmark_group("rhs_eval");
    for (id, bg, th, lmax, nq, tca) in cases {
        let lay = StateLayout::new(Gauge::Synchronous, lmax, lmax, 16, nq);
        let mut rhs = LingerRhs::new(bg, th, lay.clone(), 0.05);
        rhs.tca = tca;
        // tau deep in the tight-coupling era for the tca=on case
        // still exercises the same spline lookups either way
        let tau = if tca { 30.0 } else { 300.0 };
        let y = seeded_state(lay.dim());
        let mut dy = vec![0.0; lay.dim()];
        group.throughput(Throughput::Elements(lay.dim() as u64));
        // machine-readable flop census for scripts/bench_snapshot.sh
        println!("flops: {id} {}", rhs.flops_per_eval());
        group.bench_with_input(BenchmarkId::from_parameter(id), &lmax, |b, _| {
            b.iter(|| {
                rhs.eval(black_box(tau), black_box(&y), &mut dy);
                black_box(dy[0])
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_rhs_eval
}
criterion_main!(benches);
