//! The seeded generator: the same seed gives the same jobs, another seed
//! gives none of them, and every cosmology it makes is flat — a curved
//! one panics the workers and hangs a pool.

use std::collections::BTreeSet;

use boltzmann::SpectrumMethod;
use e2ebench::gen::{cl_spec, serve_spec, sweep_cube, ClScale, SweepScale};
use plinger::{job_hash, RunSpec};

const CL: ClScale = ClScale { l_max: 60, thin: 4 };
const SWEEP: SweepScale = SweepScale {
    axes: (3, 2, 2),
    nk: 6,
};

/// Every spec a run on `seed` would hand the program, cut down to a few
/// repetitions and requests.
fn specs(seed: u64) -> Vec<RunSpec> {
    let mut all = vec![
        cl_spec(seed, SpectrumMethod::FullHierarchy, CL),
        cl_spec(seed, SpectrumMethod::LineOfSight, CL),
    ];
    for rep in 0..3 {
        let cube = sweep_cube(seed, rep, SWEEP);
        all.extend((0..cube.n_shards()).map(|i| cube.shard_spec(i)));
    }
    all.extend((0..40).map(|i| serve_spec(seed, i)));
    all
}

fn hashes(seed: u64) -> Vec<u64> {
    specs(seed).iter().map(job_hash).collect()
}

#[test]
fn the_same_seed_gives_the_same_jobs() {
    assert_eq!(hashes(7), hashes(7));
}

#[test]
fn jobs_of_one_seed_are_distinct_and_shared_with_no_other() {
    let a = hashes(7);
    let b = hashes(8);
    let set_a: BTreeSet<u64> = a.iter().copied().collect();
    let set_b: BTreeSet<u64> = b.iter().copied().collect();
    assert_eq!(set_a.len(), a.len(), "two jobs of one seed collide");
    assert!(set_a.is_disjoint(&set_b), "two seeds share a job");
}

#[test]
fn every_generated_cosmology_is_flat() {
    for seed in [0, 1, 2, 3, 99, u64::MAX] {
        for spec in specs(seed) {
            let curvature = spec.cosmo.omega_k();
            assert!(
                curvature.abs() <= 1e-12,
                "seed {seed}: omega_k = {curvature:e} for {:?}",
                spec.cosmo
            );
        }
    }
}

#[test]
fn the_jitter_stays_within_two_percent() {
    let base = background::CosmoParams::standard_cdm();
    for seed in 0..50 {
        let c = cl_spec(seed, SpectrumMethod::LineOfSight, CL).cosmo;
        for (got, want) in [(c.h, base.h), (c.omega_b, base.omega_b), (c.n_s, base.n_s)] {
            assert!(
                (got / want - 1.0).abs() <= 0.02,
                "seed {seed}: {got} vs {want}"
            );
        }
    }
}
