//! Setup costs a PLINGER worker pays once per run — background tables and
//! the recombination history — and the hinted background lookup every RHS
//! evaluation makes, each with and without a massive neutrino species.
//! `scripts/bench_snapshot.sh` parses this bench's output into
//! `BENCH_rhs.json`; `scripts/ci.sh` gates on the ratio of the two
//! lookups.

use background::{Background, CosmoParams};
use criterion::{criterion_group, criterion_main, Criterion};
use recomb::ThermoHistory;
use std::hint::black_box;

fn bench_background(c: &mut Criterion) {
    c.bench_function("background_build_scdm", |b| {
        b.iter(|| Background::new(black_box(CosmoParams::standard_cdm())))
    });
    c.bench_function("background_build_mdm", |b| {
        b.iter(|| Background::new(black_box(CosmoParams::mixed_dark_matter())))
    });
}

/// One `BgCache::at_tau` per iteration, walking τ up to today the way an
/// integration does (the hints stay warm; one wrap-around per sweep).
fn bench_background_lookup(c: &mut Criterion) {
    const SWEEP: usize = 4096;
    for (id, cosmo) in [
        ("background_lookup_scdm", CosmoParams::standard_cdm()),
        ("background_lookup_mdm", CosmoParams::mixed_dark_matter()),
    ] {
        let bg = Background::new(cosmo);
        let tau0 = bg.tau0();
        let mut cache = bg.cache();
        let mut i = 0;
        c.bench_function(id, |b| {
            b.iter(|| {
                i = i % SWEEP + 1;
                cache.at_tau(black_box(tau0 * i as f64 / SWEEP as f64))
            })
        });
    }
}

fn bench_thermo(c: &mut Criterion) {
    let mdm = Background::new(CosmoParams::mixed_dark_matter());
    c.bench_function("thermo_history_build_mdm", |b| {
        b.iter(|| ThermoHistory::new(black_box(&mdm)))
    });
    let bg = Background::new(CosmoParams::standard_cdm());
    c.bench_function("thermo_history_build", |b| {
        b.iter(|| ThermoHistory::new(black_box(&bg)))
    });
    let th = ThermoHistory::new(&bg);
    c.bench_function("thermo_queries", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..200 {
                let a = i as f64 * 5e-4;
                acc += th.xe(a) + th.opacity(a) + th.cs2_baryon(a, 2.726, 0.24);
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_background, bench_background_lookup, bench_thermo
}
criterion_main!(benches);
