//! Seeded input generator: every workload's `RunSpec`s and
//! `EnsembleSpec`s are a pure function of `(--seed, scale)`.
//!
//! The seed jitters `h`, `Ω_b` and `n_s` by at most [`JITTER`] and
//! stretches the k-grid by at most [`K_STRETCH`], then re-closes `Ω_c`
//! so every cosmology is flat (a curved one panics the workers and
//! hangs a pool).  Any bit of difference changes every `job_hash`, so
//! no result cache can be filled before a run; the jitter is kept small
//! so that the cost of a workload barely depends on the seed.

use background::{Background, CosmoParams};
use boltzmann::{Preset, SpectrumMethod};
use plinger::{EnsembleSpec, RunSpec};
use spectra::{cl_k_grid, matter_k_grid};

/// Largest relative change the seed applies to `h`, `Ω_b`, `n_s`.
pub const JITTER: f64 = 0.02;
/// Largest relative stretch the seed applies to a k-grid.
pub const K_STRETCH: f64 = 1.0e-3;

/// SplitMix64: a few lines, no dependency, identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` on independent `stream`s (one per use, so
    /// adding a draw to one stream never shifts another).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// `base` with `h`, `Ω_b`, `n_s` jittered and `Ω_c` re-closed to flat.
pub fn jittered(base: CosmoParams, rng: &mut SplitMix64) -> CosmoParams {
    let mut c = base;
    c.h *= 1.0 + JITTER * rng.signed_unit();
    c.omega_b *= 1.0 + JITTER * rng.signed_unit();
    c.n_s *= 1.0 + JITTER * rng.signed_unit();
    close(&mut c);
    c
}

/// Trade CDM against everything else until `Ω_k = 0`.  Two passes: the
/// first removes the curvature, the second its rounding residue.
fn close(c: &mut CosmoParams) {
    c.omega_c += c.omega_k();
    c.omega_c += c.omega_k();
}

fn stretch(ks: &mut [f64], rng: &mut SplitMix64) {
    let f = 1.0 + K_STRETCH * rng.signed_unit();
    for k in ks {
        *k *= f;
    }
}

/// Size of a C_l workload: the multipole range and how far the standard
/// quadrature grid is thinned.
#[derive(Debug, Clone, Copy)]
pub struct ClScale {
    /// Largest multipole of the spectrum.
    pub l_max: usize,
    /// Keep every `thin`-th point of `cl_k_grid(τ₀, l_max, 2.0)`.
    pub thin: usize,
}

/// The `hierarchy_cl` / `los_cl` job: standard CDM, `Preset::Demo`, the
/// thinned C_l quadrature grid of the jittered cosmology.
pub fn cl_spec(seed: u64, method: SpectrumMethod, scale: ClScale) -> RunSpec {
    let mut rng = SplitMix64::new(seed, 1);
    let cosmo = jittered(CosmoParams::standard_cdm(), &mut rng);
    let tau0 = Background::new(cosmo.clone()).tau0();
    let mut ks: Vec<f64> = cl_k_grid(tau0, scale.l_max, 2.0)
        .into_iter()
        .step_by(scale.thin)
        .collect();
    stretch(&mut ks, &mut rng);
    let mut spec = RunSpec::standard_cdm(ks);
    spec.cosmo = cosmo;
    spec.preset = Preset::Demo;
    spec.method = method;
    spec
}

/// Size of the `sweep_pk` cube.
#[derive(Debug, Clone, Copy)]
pub struct SweepScale {
    /// Points on the `Ω_b`, `h`, `n_s` axes.
    pub axes: (usize, usize, usize),
    /// Modes per shard, log-spaced in 2e-4 … 5e-2 Mpc⁻¹.
    pub nk: usize,
}

/// The `sweep_pk` cube of repetition `rep`: mixed dark matter (one
/// massive neutrino), `Preset::Draft`.  Every repetition gets its own
/// cube, so the pool's warm tables from one never serve the next.
pub fn sweep_cube(seed: u64, rep: u64, scale: SweepScale) -> EnsembleSpec {
    let mut rng = SplitMix64::new(seed, 0x100 + rep);
    let cosmo = jittered(CosmoParams::mixed_dark_matter(), &mut rng);
    let mut ks = matter_k_grid(2.0e-4, 5.0e-2, scale.nk);
    stretch(&mut ks, &mut rng);
    let mut base = RunSpec::standard_cdm(ks);
    base.preset = Preset::Draft;
    let axis = |centre: f64, half_width: f64, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = if n == 1 {
                    0.0
                } else {
                    2.0 * i as f64 / (n - 1) as f64 - 1.0
                };
                centre * (1.0 + half_width * t)
            })
            .collect()
    };
    let (n_ob, n_h, n_ns) = scale.axes;
    let ens = EnsembleSpec {
        omega_b: axis(cosmo.omega_b, 0.2, n_ob),
        h: axis(cosmo.h, 0.1, n_h),
        n_s: axis(cosmo.n_s, 0.05, n_ns),
        base: RunSpec { cosmo, ..base },
    };
    debug_assert!(ens.base.cosmo.omega_k().abs() < 1e-12);
    ens
}

/// Modes of one `serve_mix` request.
pub const SERVE_NK: usize = 8;

/// The `index`-th distinct `serve_mix` request: one jittered standard
/// CDM cosmology per seed, `Preset::Draft`, 8 log-spaced modes whose
/// grid gets a stretch of its own for every index — enough to change the
/// job hash, too little to change the cost.
pub fn serve_spec(seed: u64, index: u64) -> RunSpec {
    let mut rng = SplitMix64::new(seed, 2);
    let cosmo = jittered(CosmoParams::standard_cdm(), &mut rng);
    let mut ks = matter_k_grid(2.0e-4, 2.0e-2, SERVE_NK);
    stretch(&mut ks, &mut rng);
    stretch(&mut ks, &mut SplitMix64::new(seed, 0x300 + index));
    let mut spec = RunSpec::standard_cdm(ks);
    spec.cosmo = cosmo;
    spec.preset = Preset::Draft;
    spec
}
