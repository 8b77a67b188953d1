//! Special functions for the LINGER/PLINGER reproduction.
//!
//! Spherical Bessel functions feed the sky-map synthesis and analytic
//! cross-checks; Legendre and associated-Legendre recurrences drive the
//! spherical-harmonic transforms; the Fermi–Dirac kernels supply the
//! massive-neutrino background integrals.

pub mod bessel;
pub mod fermi;
pub mod legendre;

pub use bessel::{
    jl_window_start, sph_bessel_jl, sph_bessel_jl_array, sph_bessel_jl_pair, JlTable, JL_TABLE_DX,
};
pub use fermi::{fermi_dirac_energy, fermi_dirac_number, fermi_dirac_pressure};
pub use legendre::{assoc_legendre_norm, legendre_pl, legendre_pl_array};

/// Error function via the complementary function below.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function (Chebyshev fit; absolute error ≲ 1e-12,
/// ample for the Gaussian tails used here).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().skip(1).rev() {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Natural log of the Gamma function (Lanczos approximation).
pub fn lgamma(x: f64) -> f64 {
    assert!(x > 0.0, "lgamma requires positive argument");
    const COF: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    let mut y = x;
    for &c in &COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (-1.0, -0.8427007929497149),
        ];
        for (x, e) in cases {
            assert!((erf(x) - e).abs() < 1e-10, "erf({x}) = {}", erf(x));
        }
    }

    #[test]
    fn erfc_complements() {
        for x in [-2.0, -0.3, 0.0, 0.7, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_large_argument_decays() {
        assert!(erfc(5.0) < 2e-11);
        assert!(erfc(5.0) > 0.0);
        assert!((erfc(-5.0) - 2.0).abs() < 2e-11);
    }

    #[test]
    fn lgamma_factorials() {
        assert!((lgamma(1.0)).abs() < 1e-12);
        assert!((lgamma(2.0)).abs() < 1e-12);
        assert!((lgamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((lgamma(11.0) - 3628800.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn lgamma_half() {
        assert!((lgamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }
}
