//! Spherical-harmonic synthesis on an equirectangular grid.

use crate::alm::AlmRealization;
use special::legendre::assoc_legendre_norm_array;

/// A latitude/longitude map (row 0 = north pole side).
#[derive(Debug, Clone)]
pub struct SkyMap {
    /// Latitude rows (θ from 0 to π, cell-centred).
    pub nlat: usize,
    /// Longitude columns (φ from 0 to 2π).
    pub nlon: usize,
    /// Row-major pixel values.
    pub data: Vec<f64>,
}

impl SkyMap {
    /// Synthesize a map from a realization.  Resolution follows the
    /// paper's half-degree map with `nlat = 360`.
    pub fn synthesize(alm: &AlmRealization, nlat: usize, nlon: usize) -> Self {
        assert!(nlat >= 2 && nlon >= 4);
        let l_max = alm.l_max;
        let data: Vec<f64> = (0..nlat)
            .flat_map(|ilat| {
                let theta = std::f64::consts::PI * (ilat as f64 + 0.5) / nlat as f64;
                let x = theta.cos();
                // b_m(θ) = Σ_l a_lm Ñ_lm(x): cosine and sine parts
                let mut b_cos = vec![0.0; l_max + 1];
                let mut b_sin = vec![0.0; l_max + 1];
                let mut plm = Vec::new();
                for m in 0..=l_max {
                    plm.resize(l_max - m + 1, 0.0);
                    assoc_legendre_norm_array(l_max, m, x, &mut plm);
                    let mut bc = 0.0;
                    let mut bs = 0.0;
                    for l in m.max(2)..=l_max {
                        let p = plm[l - m];
                        if m == 0 {
                            bc += alm.a_m0[l] * p;
                        } else {
                            bc += alm.a_cos[l][m - 1] * p;
                            bs += alm.a_sin[l][m - 1] * p;
                        }
                    }
                    let norm = if m == 0 {
                        1.0
                    } else {
                        std::f64::consts::SQRT_2
                    };
                    b_cos[m] = norm * bc;
                    b_sin[m] = norm * bs;
                }
                // T(θ,φ) = Σ_m b_cos cos(mφ) + b_sin sin(mφ)
                (0..nlon)
                    .map(|ilon| {
                        let phi = 2.0 * std::f64::consts::PI * ilon as f64 / nlon as f64;
                        let mut t = b_cos[0];
                        for m in 1..=l_max {
                            let (s, c) = (m as f64 * phi).sin_cos();
                            t += b_cos[m] * c + b_sin[m] * s;
                        }
                        t
                    })
                    .collect::<Vec<f64>>()
            })
            .collect();
        Self { nlat, nlon, data }
    }

    /// Pixel accessor.
    #[inline]
    pub fn at(&self, ilat: usize, ilon: usize) -> f64 {
        self.data[ilat * self.nlon + ilon]
    }

    /// Solid-angle-weighted mean.
    pub fn mean(&self) -> f64 {
        let (sum, wsum) = self.weighted_sums(|v, _| v);
        sum / wsum
    }

    /// Solid-angle-weighted rms about zero.
    pub fn rms(&self) -> f64 {
        let (sum, wsum) = self.weighted_sums(|v, _| v * v);
        (sum / wsum).sqrt()
    }

    fn weighted_sums<F: Fn(f64, f64) -> f64>(&self, f: F) -> (f64, f64) {
        let mut sum = 0.0;
        let mut wsum = 0.0;
        for ilat in 0..self.nlat {
            let theta = std::f64::consts::PI * (ilat as f64 + 0.5) / self.nlat as f64;
            let w = theta.sin();
            for ilon in 0..self.nlon {
                sum += w * f(self.at(ilat, ilon), w);
                wsum += w;
            }
        }
        (sum, wsum)
    }

    /// Extreme values `(min, max)`.
    pub fn extrema(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Full spherical-harmonic analysis of the map: quadrature estimates
    /// of every coefficient up to `l_max` (the inverse of
    /// [`SkyMap::synthesize`]; exact up to the grid's quadrature error).
    pub fn analyze(&self, l_max: usize) -> crate::alm::AlmRealization {
        use special::legendre::assoc_legendre_norm_array;
        let dtheta = std::f64::consts::PI / self.nlat as f64;
        let dphi = 2.0 * std::f64::consts::PI / self.nlon as f64;
        let mut a_m0 = vec![0.0; l_max + 1];
        let mut a_cos: Vec<Vec<f64>> = (0..=l_max).map(|l| vec![0.0; l]).collect();
        let mut a_sin: Vec<Vec<f64>> = (0..=l_max).map(|l| vec![0.0; l]).collect();
        let mut plm = Vec::new();
        for ilat in 0..self.nlat {
            let theta = std::f64::consts::PI * (ilat as f64 + 0.5) / self.nlat as f64;
            let w = theta.sin() * dtheta * dphi;
            let x = theta.cos();
            // Fourier moments of this latitude row
            let mut row_cos = vec![0.0; l_max + 1];
            let mut row_sin = vec![0.0; l_max + 1];
            for ilon in 0..self.nlon {
                let phi = 2.0 * std::f64::consts::PI * ilon as f64 / self.nlon as f64;
                let t = self.at(ilat, ilon);
                for (m, (rc, rs)) in row_cos.iter_mut().zip(row_sin.iter_mut()).enumerate() {
                    let (s, c) = (m as f64 * phi).sin_cos();
                    *rc += t * c;
                    *rs += t * s;
                }
            }
            for m in 0..=l_max {
                plm.resize(l_max - m + 1, 0.0);
                assoc_legendre_norm_array(l_max, m, x, &mut plm);
                let norm = if m == 0 {
                    1.0
                } else {
                    std::f64::consts::SQRT_2
                };
                for l in m.max(2)..=l_max {
                    let p = plm[l - m] * w * norm;
                    if m == 0 {
                        a_m0[l] += row_cos[0] * p;
                    } else {
                        a_cos[l][m - 1] += row_cos[m] * p;
                        a_sin[l][m - 1] += row_sin[m] * p;
                    }
                }
            }
        }
        crate::alm::AlmRealization {
            l_max,
            a_m0,
            a_cos,
            a_sin,
        }
    }

    /// Monte-Carlo estimate of the two-point correlation function
    /// `C(θ) = ⟨T(n̂₁)T(n̂₂)⟩` at the given separations, by sampling
    /// `n_pairs` random pixel pairs per angle — the direct map-space
    /// counterpart of §6.1's autocorrelation function.
    pub fn correlation_estimate(&self, thetas_rad: &[f64], n_pairs: usize, seed: u64) -> Vec<f64> {
        // simple deterministic LCG; avoids a rand dependency here
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let sample_at = |theta: f64, phi: f64| -> f64 {
            let t = theta.rem_euclid(2.0 * std::f64::consts::PI);
            // fold θ ∈ [π, 2π) back onto the sphere
            let (t, phi) = if t > std::f64::consts::PI {
                (2.0 * std::f64::consts::PI - t, phi + std::f64::consts::PI)
            } else {
                (t, phi)
            };
            let ilat = ((t / std::f64::consts::PI) * self.nlat as f64 - 0.5)
                .round()
                .clamp(0.0, self.nlat as f64 - 1.0) as usize;
            let ilon = ((phi.rem_euclid(2.0 * std::f64::consts::PI) / (2.0 * std::f64::consts::PI))
                * self.nlon as f64)
                .floor()
                .clamp(0.0, self.nlon as f64 - 1.0) as usize;
            self.at(ilat, ilon)
        };
        thetas_rad
            .iter()
            .map(|&sep| {
                let mut sum = 0.0;
                for _ in 0..n_pairs {
                    // first point: uniform on the sphere
                    let ct = 2.0 * uniform() - 1.0;
                    let theta1 = ct.acos();
                    let phi1 = 2.0 * std::f64::consts::PI * uniform();
                    // second point: at angular distance `sep`, random azimuth ψ
                    let psi = 2.0 * std::f64::consts::PI * uniform();
                    // rotate (sep, ψ) around n̂₁
                    let (st1, ct1) = theta1.sin_cos();
                    let (ss, cs) = sep.sin_cos();
                    let (sp, cp) = psi.sin_cos();
                    let ct2 = ct1 * cs + st1 * ss * cp;
                    let theta2 = ct2.clamp(-1.0, 1.0).acos();
                    let dphi = (ss * sp).atan2(st1 * cs - ct1 * ss * cp);
                    let phi2 = phi1 + dphi;
                    sum += sample_at(theta1, phi1) * sample_at(theta2, phi2);
                }
                sum / n_pairs as f64
            })
            .collect()
    }

    /// Quadrature estimate of `a_{l0}` from the map (used by the
    /// synthesis/analysis round-trip tests):
    /// `a_{l0} = ∫ T Ñ_l0 dΩ ≈ ΣT Ñ_l0 sinθ ΔθΔφ`.
    pub fn analyze_m0(&self, l: usize) -> f64 {
        let dtheta = std::f64::consts::PI / self.nlat as f64;
        let dphi = 2.0 * std::f64::consts::PI / self.nlon as f64;
        let mut sum = 0.0;
        for ilat in 0..self.nlat {
            let theta = std::f64::consts::PI * (ilat as f64 + 0.5) / self.nlat as f64;
            let p = special::legendre::assoc_legendre_norm(l, 0, theta.cos());
            let mut row = 0.0;
            for ilon in 0..self.nlon {
                row += self.at(ilat, ilon);
            }
            sum += row * p * theta.sin() * dtheta * dphi;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alm::AlmRealization;

    fn one_mode_alm(l: usize, m: usize, amp: f64, l_max: usize) -> AlmRealization {
        let mut a = AlmRealization::generate(&vec![0.0; l_max + 1], 0);
        // zero everything then set one coefficient
        if m == 0 {
            a.a_m0[l] = amp;
        } else {
            a.a_cos[l][m - 1] = amp;
        }
        a
    }

    #[test]
    fn single_y20_mode_has_correct_shape() {
        // T = a Ñ_20(cosθ): maxima at poles, minimum ring at equator
        let a = one_mode_alm(2, 0, 1.0, 4);
        let map = SkyMap::synthesize(&a, 64, 128);
        let pole = map.at(0, 0);
        let equator = map.at(32, 0);
        assert!(pole > 0.0 && equator < 0.0);
        // Ñ_20(1)/Ñ_20(0) = P2(1)/P2(0) = 1/(-1/2)
        assert!(
            (pole / equator + 2.0).abs() < 0.05,
            "ratio = {}",
            pole / equator
        );
    }

    #[test]
    fn map_mean_is_zero() {
        let cl: Vec<f64> = (0..=32)
            .map(|l| if l >= 2 { 1.0 / (l * l) as f64 } else { 0.0 })
            .collect();
        let a = AlmRealization::generate(&cl, 3);
        let map = SkyMap::synthesize(&a, 48, 96);
        assert!(map.mean().abs() < 0.05 * map.rms(), "mean = {}", map.mean());
    }

    #[test]
    fn map_variance_matches_parseval() {
        // ⟨T²⟩ = Σ_l (2l+1) Ĉ_l / 4π with Ĉ_l the realization's own power
        let cl: Vec<f64> = (0..=24)
            .map(|l| {
                if l >= 2 {
                    1.0 / (l * (l + 1)) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let a = AlmRealization::generate(&cl, 11);
        let map = SkyMap::synthesize(&a, 96, 192);
        let measured = a.measured_cl();
        let expect: f64 = measured
            .iter()
            .enumerate()
            .map(|(l, c)| (2.0 * l as f64 + 1.0) * c)
            .sum::<f64>()
            / (4.0 * std::f64::consts::PI);
        let got = map.rms().powi(2);
        assert!(
            (got - expect).abs() / expect < 0.02,
            "map variance {got} vs Parseval {expect}"
        );
    }

    #[test]
    fn synthesis_analysis_roundtrip_m0() {
        let a = one_mode_alm(5, 0, 2.5, 8);
        let map = SkyMap::synthesize(&a, 128, 256);
        let back = map.analyze_m0(5);
        assert!((back - 2.5).abs() < 0.01, "a_50 back = {back}");
        // orthogonality: other l's vanish
        assert!(map.analyze_m0(4).abs() < 0.01);
        assert!(map.analyze_m0(6).abs() < 0.01);
    }

    #[test]
    fn map_correlation_matches_spectrum_prediction() {
        // synthesize from a known C_l, estimate C(θ) from pixel pairs,
        // compare with Σ(2l+1)Ĉ_l P_l(cosθ)/4π using the realization's
        // own measured Ĉ_l (removes cosmic variance from the comparison)
        let cl: Vec<f64> = (0..=20)
            .map(|l| {
                if l >= 2 {
                    1.0 / (l * (l + 1)) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let alm = AlmRealization::generate(&cl, 9);
        let map = SkyMap::synthesize(&alm, 96, 192);
        let measured = alm.measured_cl();
        let spec = spectra::ClSpectrum {
            cl: measured,
            cl_pol: vec![0.0; 21],
            cl_cross: vec![0.0; 21],
        };
        let thetas = [0.0f64, 0.15, 0.4, 0.9];
        let analytic = spectra::correlation_function(&spec, &thetas, 0.0);
        let est = map.correlation_estimate(&thetas, 40_000, 4);
        for ((&_theta, a), e) in thetas.iter().zip(&analytic).zip(&est) {
            let scale = analytic[0];
            assert!(
                (a - e).abs() < 0.08 * scale,
                "C(θ): analytic {a}, map estimate {e} (scale {scale})"
            );
        }
    }

    #[test]
    fn full_analysis_roundtrip_recovers_every_coefficient() {
        let cl: Vec<f64> = (0..=12)
            .map(|l| if l >= 2 { 0.5 / (l * l) as f64 } else { 0.0 })
            .collect();
        let alm = AlmRealization::generate(&cl, 77);
        let map = SkyMap::synthesize(&alm, 96, 192);
        let back = map.analyze(12);
        for l in 2..=12 {
            assert!(
                (back.a_m0[l] - alm.a_m0[l]).abs() < 3e-3,
                "a_{l}0: {} vs {}",
                back.a_m0[l],
                alm.a_m0[l]
            );
            for m in 1..=l {
                assert!(
                    (back.a_cos[l][m - 1] - alm.a_cos[l][m - 1]).abs() < 3e-3,
                    "a_{l}{m}^c mismatch"
                );
                assert!(
                    (back.a_sin[l][m - 1] - alm.a_sin[l][m - 1]).abs() < 3e-3,
                    "a_{l}{m}^s mismatch"
                );
            }
        }
        // the recovered power spectrum matches the realization's own
        let cl_in = alm.measured_cl();
        let cl_out = back.measured_cl();
        for l in 2..=12 {
            assert!(
                (cl_out[l] - cl_in[l]).abs() < 0.02 * cl_in[l].max(1e-6),
                "Ĉ_{l}: {} vs {}",
                cl_out[l],
                cl_in[l]
            );
        }
    }

    #[test]
    fn nonaxisymmetric_mode_oscillates_in_longitude() {
        let a = one_mode_alm(3, 2, 1.0, 4);
        let map = SkyMap::synthesize(&a, 64, 128);
        // along a mid-latitude ring, the m = 2 mode crosses zero 4 times
        let ilat = 20;
        let mut crossings = 0;
        for ilon in 0..128 {
            let v0 = map.at(ilat, ilon);
            let v1 = map.at(ilat, (ilon + 1) % 128);
            if v0 * v1 < 0.0 {
                crossings += 1;
            }
        }
        assert_eq!(crossings, 4, "m=2 ring should cross zero 4 times");
    }
}
