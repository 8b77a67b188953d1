//! Property tests for spectrum assembly (synthetic transfer functions —
//! no Boltzmann integrations, so these run fast).

use boltzmann::{Gauge, ModeOutput};
use ode::StepStats;
use proptest::prelude::*;
use spectra::{angular_power_spectrum, cobe_normalize, qrms_ps_from_c2, PrimordialSpectrum};

fn synthetic_outputs(nk: usize, lmax: usize, phase: f64) -> Vec<ModeOutput> {
    (0..nk)
        .map(|i| {
            let k = 1e-4 * 1.2f64.powi(i as i32);
            let delta_t: Vec<f64> = (0..=lmax)
                .map(|l| ((k * 9000.0 + phase) * (l as f64 + 1.0) * 0.01).sin() * 1e-2)
                .collect();
            ModeOutput {
                k,
                gauge: Gauge::Synchronous,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cl_nonnegative_and_scales_quadratically(
        phase in 0.0f64..6.0,
        amp in 0.1f64..10.0,
    ) {
        let outs = synthetic_outputs(24, 12, phase);
        let p1 = PrimordialSpectrum::unit(1.0);
        let s1 = angular_power_spectrum(&outs, &p1, 10);
        let s2 = angular_power_spectrum(&outs, &p1.rescaled(amp), 10);
        for l in 2..=10 {
            prop_assert!(s1.cl[l] >= 0.0);
            prop_assert!((s2.cl[l] - amp * s1.cl[l]).abs() <= 1e-9 * s2.cl[l].max(1e-30));
        }
    }

    #[test]
    fn cobe_normalization_hits_any_target(
        phase in 0.0f64..6.0,
        q_uk in 5.0f64..40.0,
    ) {
        let outs = synthetic_outputs(24, 12, phase);
        let spec = angular_power_spectrum(&outs, &PrimordialSpectrum::unit(1.0), 8);
        prop_assume!(spec.cl[2] > 0.0);
        let (normed, factor) = cobe_normalize(&spec, 2.726, q_uk);
        prop_assert!(factor > 0.0);
        let q_back = qrms_ps_from_c2(normed.cl[2], 2.726);
        prop_assert!((q_back - q_uk).abs() < 1e-9 * q_uk);
    }

    #[test]
    fn band_power_binning_averages(
        phase in 0.0f64..6.0,
    ) {
        let outs = synthetic_outputs(24, 16, phase);
        let spec = angular_power_spectrum(&outs, &PrimordialSpectrum::unit(1.0), 14);
        let bins = spec.binned_band_power(2, 4);
        for &(lc, v) in &bins {
            // bin average lies within the min..max of its members
            let l0 = (lc - 2.0) as usize;
            let members: Vec<f64> = (l0..l0 + 4).map(|l| spec.band_power(l)).collect();
            let lo = members.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = members.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-30 && v <= hi + 1e-30);
        }
    }

    #[test]
    fn tilt_moves_large_scale_power(
        phase in 0.0f64..6.0,
    ) {
        let outs = synthetic_outputs(24, 12, phase);
        let red = angular_power_spectrum(&outs, &PrimordialSpectrum::unit(0.8), 6);
        let blue = angular_power_spectrum(&outs, &PrimordialSpectrum::unit(1.2), 6);
        prop_assume!(red.cl[2] > 1e-30 && blue.cl[2] > 1e-30);
        // identical transfers: the ratio red/blue decreases with... the
        // integrand weighting shifts; check the two spectra differ
        let r2 = red.cl[2] / blue.cl[2];
        let r6 = red.cl[6] / blue.cl[6];
        prop_assert!((r2 - r6).abs() > 1e-12 || (r2 - 1.0).abs() > 1e-12);
    }
}
