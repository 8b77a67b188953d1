//! Recombination and thermal history.
//!
//! Reproduces the "accurate treatments of hydrogen and helium
//! recombination, decoupling of photons and baryons, and Thomson
//! scattering" of the paper's §2: Saha equilibrium for both helium
//! ionization stages and for hydrogen at early times, blended into the
//! Peebles effective three-level hydrogen atom once equilibrium breaks,
//! plus the Compton-coupled matter-temperature equation.  The products —
//! ionization fraction, Thomson opacity, optical depth, visibility
//! function, and baryon sound speed — are tabulated on a log-`a` grid and
//! splined for the Boltzmann solver's inner loop.
//!
//! ```no_run
//! use background::{Background, CosmoParams};
//! use recomb::ThermoHistory;
//!
//! let bg = Background::new(CosmoParams::standard_cdm());
//! let th = ThermoHistory::new(&bg);
//! println!("recombination at z = {:.0}, τ = {:.0} Mpc", th.z_rec(), th.tau_rec());
//! println!("x_e(z = 100) = {:.2e}", th.xe(1.0 / 101.0));
//! ```

pub mod peebles;
pub mod saha;

use background::{Background, BgCache};
use numutil::constants;
use numutil::interp::CubicSpline;

pub use peebles::peebles_dxh_dlna;
pub use saha::{saha_helium_fractions, saha_hydrogen_xh};

/// Conversion from Mpc⁻¹ (c = 1) to s⁻¹ for expansion rates.
const MPC_INV_TO_S_INV: f64 = constants::C_KM_S * 1.0e3 / constants::MPC_M;

/// Hydrogen ionized fraction above which Saha equilibrium is trusted.
const SAHA_SWITCH_XH: f64 = 0.985;

/// Compton tight-coupling threshold: while `Γ_C/H` exceeds this, the
/// matter temperature is slaved to the radiation temperature.
const COMPTON_TIGHT: f64 = 500.0;

/// RK4 substeps the Peebles and the T_b march take across one grid step.
const SUBSTEPS: usize = 24;

/// `(a, H)` with `H` in s⁻¹ at each substep of the grid step starting
/// at `lna0`.  Both marches step through the same scale factors, so a
/// grid step evaluates these once and whichever march runs reads them.
fn substep_rates(hub: &mut BgCache<'_>, lna0: f64, h_step: f64) -> [(f64, f64); SUBSTEPS] {
    std::array::from_fn(|s| {
        let a_s = (lna0 + h_step * s as f64).exp();
        (a_s, hub.conformal_hubble(a_s) / a_s * MPC_INV_TO_S_INV)
    })
}

/// Tabulated thermal history of the universe.
pub struct ThermoHistory {
    /// `x_e = n_e/n_H` vs `ln a` (can exceed 1 thanks to helium).
    xe_spline: CubicSpline,
    /// Baryon temperature (K) vs `ln a`.
    tb_spline: CubicSpline,
    /// `ln(dκ/dτ)` vs `ln a`, opacity in Mpc⁻¹.
    lnopac_spline: CubicSpline,
    /// Optical depth κ(τ) from τ to today, vs conformal time (Mpc).
    kappa_spline: CubicSpline,
    /// First scale factor of the table; earlier times are fully ionized.
    a_start: f64,
    /// `n_He/n_H`.
    f_he: f64,
    /// Present-day hydrogen number density, m⁻³.
    n_h0: f64,
    /// Conformal time (Mpc) of the visibility-function peak.
    tau_rec: f64,
    /// Redshift of the visibility peak.
    z_rec: f64,
}

impl ThermoHistory {
    /// Compute the thermal history for the given background.
    ///
    /// The table spans `z = 10⁴ → 0`; queries earlier than that return the
    /// fully-ionized analytic values.
    pub fn new(bg: &Background) -> Self {
        Self::build(bg, None)
    }

    /// Compute the thermal history with late-time reionization — an
    /// optional extension beyond the paper's 1995 runs (which assumed no
    /// reionization).  The ionized fraction follows a tanh transition of
    /// width `delta_z` centred on `z_reion`, the form later standardized
    /// by CMBFAST/CAMB; hydrogen and the first helium ionization
    /// reionize together.
    pub fn with_reionization(bg: &Background, z_reion: f64, delta_z: f64) -> Self {
        assert!(z_reion > 0.0 && delta_z > 0.0);
        Self::build(bg, Some((z_reion, delta_z)))
    }

    fn build(bg: &Background, reion: Option<(f64, f64)>) -> Self {
        let p = bg.params();
        let y = p.y_helium;
        let f_he = y / (4.0 * (1.0 - y));
        let n_h0 = constants::n_hydrogen_today_m3(p.omega_b_h2(), y);
        let t_cmb = p.t_cmb_k;

        let n = 2400;
        let lna_start = (1.0f64 / 1.0e4).ln();
        let lna_end = 0.0;
        let dlna = (lna_end - lna_start) / (n - 1) as f64;

        let mut lnas = Vec::with_capacity(n);
        let mut xes = Vec::with_capacity(n);
        let mut tbs = Vec::with_capacity(n);

        // march down in redshift
        let mut xh = 1.0; // hydrogen ionized fraction
        let mut tb = t_cmb * 1.0e4; // start tight-coupled
        let mut in_saha = true;
        // the march only moves up in `a`: one hunted reader serves every
        // ℋ it asks for
        let mut hub = bg.cache();
        let h_step = dlna / SUBSTEPS as f64;

        for i in 0..n {
            let lna = lna_start + dlna * i as f64;
            let mut rates = None;
            let a = lna.exp();
            let z = 1.0 / a - 1.0;
            let tgamma = t_cmb * (1.0 + z);
            let n_h = n_h0 / (a * a * a);

            // helium by Saha throughout (He recombination completes while
            // equilibrium still holds)
            // iterate: electron density depends on xh & helium state
            let mut xe = xh + f_he; // initial guess: He singly ionized
            for _ in 0..40 {
                let ne = (xe * n_h).max(1e-30);
                let (x_he2, x_he3) = saha_helium_fractions(tgamma, ne);
                let xh_eff = if in_saha {
                    saha_hydrogen_xh(tgamma, n_h, xe)
                } else {
                    xh
                };
                let xe_new = xh_eff + f_he * (x_he2 + 2.0 * x_he3);
                if (xe_new - xe).abs() < 1e-12 {
                    xe = xe_new;
                    break;
                }
                xe = 0.5 * (xe + xe_new);
            }
            if in_saha {
                let ne = (xe * n_h).max(1e-30);
                let (x_he2, x_he3) = saha_helium_fractions(tgamma, ne);
                xh = saha_hydrogen_xh(tgamma, n_h, xe);
                xe = xh + f_he * (x_he2 + 2.0 * x_he3);
                if xh < SAHA_SWITCH_XH {
                    in_saha = false;
                }
            } else {
                // advance the Peebles ODE across [lna - dlna, lna]
                let sub = *rates.get_or_insert_with(|| substep_rates(&mut hub, lna - dlna, h_step));
                for (a_s, h_s) in sub {
                    let z_s = 1.0 / a_s - 1.0;
                    let tg_s = t_cmb * (1.0 + z_s);
                    let nh_s = n_h0 / (a_s * a_s * a_s);
                    // RK4 on dxh/dlna
                    let f = |x: f64| peebles_dxh_dlna(x, tg_s.min(tb.max(1.0)), tg_s, nh_s, h_s);
                    let k1 = f(xh);
                    let k2 = f((xh + 0.5 * h_step * k1).clamp(1e-12, 1.0));
                    let k3 = f((xh + 0.5 * h_step * k2).clamp(1e-12, 1.0));
                    let k4 = f((xh + h_step * k3).clamp(1e-12, 1.0));
                    xh = (xh + h_step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).clamp(1e-12, 1.0);
                }
                let ne = (xh * n_h).max(1e-30);
                let (x_he2, x_he3) = saha_helium_fractions(tgamma, ne);
                xe = xh + f_he * (x_he2 + 2.0 * x_he3);
            }

            // matter temperature
            let h_sinv = hub.conformal_hubble(a) / a * MPC_INV_TO_S_INV;
            let gamma_c = compton_rate_sinv(xe, f_he, tgamma);
            if gamma_c / h_sinv > COMPTON_TIGHT {
                tb = tgamma * (1.0 - h_sinv / gamma_c);
            } else {
                // RK4 on dT_b/dlna = -2 T_b + (Γ/H)(T_γ - T_b)
                let sub = *rates.get_or_insert_with(|| substep_rates(&mut hub, lna - dlna, h_step));
                for (a_s, h_s) in sub {
                    let tg_s = t_cmb / a_s;
                    let g_s = compton_rate_sinv(xe, f_he, tg_s);
                    let f = |t: f64| -2.0 * t + g_s / h_s * (tg_s - t);
                    let k1 = f(tb);
                    let k2 = f(tb + 0.5 * h_step * k1);
                    let k3 = f(tb + 0.5 * h_step * k2);
                    let k4 = f(tb + h_step * k3);
                    tb += h_step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
                }
            }

            lnas.push(lna);
            xes.push(xe);
            tbs.push(tb);
        }

        // optional late-time reionization (tanh in y = (1+z)^{3/2})
        if let Some((z_re, dz)) = reion {
            let y_re = (1.0 + z_re).powf(1.5);
            let dy = 1.5 * (1.0 + z_re).sqrt() * dz;
            let xe_full = 1.0 + f_he; // H + first He ionization
            for (lna, xe) in lnas.iter().zip(xes.iter_mut()) {
                let z = 1.0 / lna.exp() - 1.0;
                let frac = 0.5 * (1.0 + ((y_re - (1.0 + z).powf(1.5)) / dy).tanh());
                *xe = xe.max(frac * xe_full);
            }
        }

        let xe_spline = CubicSpline::natural(lnas.clone(), xes.clone());
        let tb_spline = CubicSpline::natural(lnas.clone(), tbs.clone());

        // opacity dκ/dτ = σ_T n_e a (comoving, per Mpc) = σ_T x_e n_H0 a⁻² Mpc
        let lnopac: Vec<f64> = lnas
            .iter()
            .zip(&xes)
            .map(|(&lna, &xe)| {
                let a = lna.exp();
                (constants::thomson_rate_per_mpc(xe.max(1e-25) * n_h0) / (a * a)).ln()
            })
            .collect();
        let lnopac_spline = CubicSpline::natural(lnas.clone(), lnopac);

        // optical depth κ(τ) = ∫_τ^τ0 (dκ/dτ) dτ', on the same a-grid
        let a_start = lnas[0].exp();
        let taus: Vec<f64> = lnas
            .iter()
            .map(|&lna| bg.conformal_time(lna.exp()))
            .collect();
        let opacs: Vec<f64> = lnas
            .iter()
            .zip(&xes)
            .map(|(&lna, &xe)| {
                let a = lna.exp();
                constants::thomson_rate_per_mpc(xe.max(1e-25) * n_h0) / (a * a)
            })
            .collect();
        let mut kappa = vec![0.0; n];
        for i in (0..n - 1).rev() {
            kappa[i] = kappa[i + 1] + 0.5 * (opacs[i] + opacs[i + 1]) * (taus[i + 1] - taus[i]);
        }
        let kappa_spline = CubicSpline::natural(taus.clone(), kappa.clone());

        // visibility peak: g(τ) = κ'(τ) e^{-κ(τ)}
        let mut best = (0usize, f64::MIN);
        for i in 0..n {
            let g = opacs[i] * (-kappa[i]).exp();
            if g > best.1 {
                best = (i, g);
            }
        }
        let tau_rec = taus[best.0];
        let z_rec = 1.0 / lnas[best.0].exp() - 1.0;

        Self {
            xe_spline,
            tb_spline,
            lnopac_spline,
            kappa_spline,
            a_start,
            f_he,
            n_h0,
            tau_rec,
            z_rec,
        }
    }

    /// Ionization fraction `x_e = n_e/n_H` at scale factor `a`.
    pub fn xe(&self, a: f64) -> f64 {
        if a < self.a_start {
            1.0 + 2.0 * self.f_he
        } else {
            self.xe_spline.eval(a.ln())
        }
    }

    /// Baryon (matter) temperature in kelvin.
    pub fn t_baryon(&self, a: f64, t_cmb_k: f64) -> f64 {
        if a < self.a_start {
            t_cmb_k / a
        } else {
            self.tb_spline.eval(a.ln())
        }
    }

    /// Thomson opacity `dκ/dτ = a n_e σ_T` in Mpc⁻¹.
    pub fn opacity(&self, a: f64) -> f64 {
        if a < self.a_start {
            constants::thomson_rate_per_mpc((1.0 + 2.0 * self.f_he) * self.n_h0) / (a * a)
        } else {
            self.lnopac_spline.eval(a.ln()).exp()
        }
    }

    /// Logarithmic derivative `d ln(dκ/dτ) / d ln a`, needed by the
    /// tight-coupling slip expansion.
    pub fn opacity_dlna(&self, a: f64) -> f64 {
        if a < self.a_start {
            -2.0
        } else {
            self.lnopac_spline.deriv(a.ln())
        }
    }

    /// Optical depth from conformal time `tau` to today.
    pub fn optical_depth(&self, tau: f64) -> f64 {
        let ts = self.kappa_spline.xs();
        if tau <= ts[0] {
            // extend with the fully-ionized opacity ∝ a⁻² ∝ τ⁻² (radiation era)
            self.kappa_spline.ys()[0] + self.opacity_before_table(tau)
        } else if tau >= ts[ts.len() - 1] {
            0.0
        } else {
            self.kappa_spline.eval(tau).max(0.0)
        }
    }

    fn opacity_before_table(&self, tau: f64) -> f64 {
        // crude trapezoid from tau to table start assuming κ' ∝ τ⁻²
        let t0 = self.kappa_spline.xs()[0];
        let op0 = constants::thomson_rate_per_mpc((1.0 + 2.0 * self.f_he) * self.n_h0)
            / (self.a_start * self.a_start);
        // κ' (t) = op0 (t0/t)², ∫_τ^{t0} = op0 t0² (1/τ - 1/t0)
        op0 * t0 * t0 * (1.0 / tau - 1.0 / t0)
    }

    /// Visibility function `g(τ) = κ'(τ) e^{-κ(τ)}` (per Mpc), given the
    /// scale factor reached at `tau` (callers have the background handy).
    pub fn visibility(&self, tau: f64, a: f64) -> f64 {
        self.opacity(a) * (-self.optical_depth(tau)).exp()
    }

    /// Baryon adiabatic sound speed squared (c = 1 units):
    /// `c_s² = (k_B T_b / μ̄ c²) (1 − ⅓ d ln T_b / d ln a)`.
    pub fn cs2_baryon(&self, a: f64, t_cmb_k: f64, y_helium: f64) -> f64 {
        let tb = self.t_baryon(a, t_cmb_k);
        let xe = self.xe(a);
        let dlntb = if a < self.a_start {
            -1.0
        } else {
            self.tb_spline.deriv(a.ln()) / tb
        };
        self.cs2_from(tb, xe, dlntb, y_helium)
    }

    /// The sound-speed expression from its ingredients — shared by
    /// [`Self::cs2_baryon`] and [`ThermoCache::at`] so both paths run
    /// the identical arithmetic.
    #[inline]
    fn cs2_from(&self, tb: f64, xe: f64, dlntb: f64, y_helium: f64) -> f64 {
        // mean particle count per hydrogen mass: (1-Y)(1 + f_He + x_e);
        // k_B T / (m_p c²) with m_p c² = 938.272 MeV
        let mp_c2_ev = 938.272_088e6;
        let kt_ev = constants::K_B_EV_K * tb;
        (kt_ev / mp_c2_ev) * (1.0 - y_helium) * (1.0 + self.f_he + xe) * (1.0 - dlntb / 3.0)
    }

    /// A stateful fast-path reader over this history's tables — see
    /// [`ThermoCache`].
    pub fn cache(&self) -> ThermoCache<'_> {
        ThermoCache { th: self, h: 0 }
    }

    /// Conformal time of the visibility peak ("recombination"), Mpc.
    pub fn tau_rec(&self) -> f64 {
        self.tau_rec
    }

    /// Redshift of the visibility peak.
    pub fn z_rec(&self) -> f64 {
        self.z_rec
    }

    /// Helium-to-hydrogen number ratio.
    pub fn f_helium(&self) -> f64 {
        self.f_he
    }
}

/// The thermodynamic inputs of one RHS evaluation, computed in a single
/// pass: Thomson opacity, its logarithmic derivative, and the baryon
/// sound speed.
#[derive(Debug, Clone, Copy)]
pub struct ThermoPoint {
    /// `dκ/dτ = a n_e σ_T`, Mpc⁻¹.
    pub opacity: f64,
    /// `d ln(dκ/dτ) / d ln a` (tight-coupling slip input).
    pub opacity_dlna: f64,
    /// Baryon adiabatic sound speed squared, c = 1 units.
    pub cs2: f64,
}

/// Stateful fast path over [`ThermoHistory`] for the inner ODE loop.
///
/// The `x_e`, `T_b`, and `ln κ̇` splines share one `ln a` abscissa, so a
/// single hunt hint (the last-found interval) serves all five lookups
/// of a query, and `ln a` is computed once instead of per lookup.
/// Results are bitwise identical to the corresponding [`ThermoHistory`]
/// queries: the interval index is unique and the interpolation and
/// sound-speed arithmetic are shared with the direct path.  Cheap to
/// construct — one per `LingerRhs` (or per worker) costs one `usize`.
pub struct ThermoCache<'a> {
    th: &'a ThermoHistory,
    h: usize,
}

impl<'a> ThermoCache<'a> {
    /// The history this cache reads.
    pub fn history(&self) -> &'a ThermoHistory {
        self.th
    }

    /// Opacity, its log-derivative, and the baryon sound speed at scale
    /// factor `a` — the per-eval thermodynamics block of the RHS, in
    /// one call.
    #[inline]
    pub fn at(&mut self, a: f64, t_cmb_k: f64, y_helium: f64) -> ThermoPoint {
        let th = self.th;
        if a < th.a_start {
            // fully-ionized analytic regime, mirroring the branch each
            // direct query takes before the table starts
            let opacity =
                constants::thomson_rate_per_mpc((1.0 + 2.0 * th.f_he) * th.n_h0) / (a * a);
            let tb = t_cmb_k / a;
            let xe = 1.0 + 2.0 * th.f_he;
            ThermoPoint {
                opacity,
                opacity_dlna: -2.0,
                cs2: th.cs2_from(tb, xe, -1.0, y_helium),
            }
        } else {
            let lna = a.ln();
            let opacity = th.lnopac_spline.eval_hunt(lna, &mut self.h).exp();
            let opacity_dlna = th.lnopac_spline.deriv_hunt(lna, &mut self.h);
            let tb = th.tb_spline.eval_hunt(lna, &mut self.h);
            let xe = th.xe_spline.eval_hunt(lna, &mut self.h);
            let dlntb = th.tb_spline.deriv_hunt(lna, &mut self.h) / tb;
            ThermoPoint {
                opacity,
                opacity_dlna,
                cs2: th.cs2_from(tb, xe, dlntb, y_helium),
            }
        }
    }
}

/// Compton heating rate `Γ_C = (8/3) σ_T a_r T_γ⁴ x_e / (m_e c (1+f_He+x_e))`
/// in s⁻¹.
fn compton_rate_sinv(xe: f64, f_he: f64, tgamma_k: f64) -> f64 {
    // a_r = 7.5657e-16 J m⁻³ K⁻⁴; m_e c = 2.7309e-22 kg m/s
    let a_rad = 7.565_733e-16;
    let m_e_c = 9.109_383_701_5e-31 * constants::C_KM_S * 1.0e3;
    (8.0 / 3.0) * constants::SIGMA_T_M2 * a_rad * tgamma_k.powi(4) * xe
        / (m_e_c * (1.0 + f_he + xe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use background::CosmoParams;

    fn thermo() -> (Background, ThermoHistory) {
        let bg = Background::new(CosmoParams::standard_cdm());
        let th = ThermoHistory::new(&bg);
        (bg, th)
    }

    #[test]
    fn fully_ionized_early() {
        let (_bg, th) = thermo();
        let xe = th.xe(5e-5); // z ~ 20000
        let expect = 1.0 + 2.0 * th.f_helium();
        assert!((xe - expect).abs() < 1e-6, "x_e = {xe}, expect {expect}");
    }

    #[test]
    fn helium_recombines_before_hydrogen() {
        let (_bg, th) = thermo();
        // z ≈ 3000: He fully recombined... actually HeII→HeI ends ~1800;
        // check x_e has dropped from 1+2f to ≈ 1+f by z≈3500 and ≈1 by z≈1800.
        let xe_3500 = th.xe(1.0 / 3501.0);
        assert!(
            xe_3500 < 1.0 + 1.5 * th.f_helium() && xe_3500 > 1.0,
            "x_e(3500) = {xe_3500}"
        );
        let xe_1800 = th.xe(1.0 / 1801.0);
        assert!((xe_1800 - 1.0).abs() < 0.03, "x_e(1800) = {xe_1800}");
    }

    #[test]
    fn hydrogen_recombination_epoch() {
        let (_bg, th) = thermo();
        // around z ≈ 1100 x_e should pass through ~0.1-0.5
        let xe_1100 = th.xe(1.0 / 1101.0);
        assert!(xe_1100 > 0.01 && xe_1100 < 0.9, "x_e(1100) = {xe_1100}");
        // and well before, near unity:
        let xe_1400 = th.xe(1.0 / 1401.0);
        assert!(xe_1400 > 0.7, "x_e(1400) = {xe_1400}");
    }

    #[test]
    fn freeze_out_fraction() {
        let (_bg, th) = thermo();
        // residual ionization for SCDM (Ω_b h² = 0.0125): few × 10⁻⁴
        let xe0 = th.xe(1.0 / 101.0);
        assert!(xe0 > 1e-5 && xe0 < 5e-3, "x_e(z=100) = {xe0}");
    }

    #[test]
    fn xe_monotone_through_recombination() {
        let (_bg, th) = thermo();
        let mut last = f64::INFINITY;
        for z in [
            5000.0f64, 3000.0, 2000.0, 1500.0, 1200.0, 1000.0, 800.0, 400.0,
        ] {
            let xe = th.xe(1.0 / (z + 1.0));
            assert!(xe <= last + 1e-9, "x_e not monotone at z={z}");
            last = xe;
        }
    }

    #[test]
    fn visibility_peaks_near_z_1100() {
        let (_bg, th) = thermo();
        assert!(
            th.z_rec() > 950.0 && th.z_rec() < 1250.0,
            "z_rec = {}",
            th.z_rec()
        );
    }

    #[test]
    fn tau_rec_for_scdm() {
        let (bg, th) = thermo();
        // τ_rec should be the conformal time at z_rec
        let a_rec = 1.0 / (1.0 + th.z_rec());
        let expect = bg.conformal_time(a_rec);
        assert!(
            (th.tau_rec() - expect).abs() / expect < 0.02,
            "τ_rec = {}, expect {expect}",
            th.tau_rec()
        );
        // ballpark: 250-350 Mpc for SCDM h=0.5 (the paper's movie ends at 250)
        assert!(
            th.tau_rec() > 200.0 && th.tau_rec() < 400.0,
            "τ_rec = {}",
            th.tau_rec()
        );
    }

    #[test]
    fn matter_temperature_tracks_then_decouples() {
        let (_bg, th) = thermo();
        let t_cmb = constants::T_CMB_K;
        // tightly coupled at z = 2000
        let a = 1.0 / 2001.0;
        let tb = th.t_baryon(a, t_cmb);
        let tg = t_cmb / a;
        assert!(
            (tb - tg).abs() / tg < 0.01,
            "T_b/T_γ at z=2000: {}",
            tb / tg
        );
        // decoupled by z = 30: T_b < T_γ
        let a = 1.0 / 31.0;
        let tb = th.t_baryon(a, t_cmb);
        let tg = t_cmb / a;
        assert!(tb < 0.9 * tg, "T_b = {tb}, T_γ = {tg}");
        assert!(tb > 0.001 * tg);
    }

    #[test]
    fn optical_depth_decreasing_and_large_early() {
        let (bg, th) = thermo();
        let tau_1500 = bg.conformal_time(1.0 / 1501.0);
        let tau_500 = bg.conformal_time(1.0 / 501.0);
        let k_early = th.optical_depth(tau_1500);
        let k_late = th.optical_depth(tau_500);
        assert!(k_early > 10.0, "κ(z=1500) = {k_early}");
        assert!(k_late < 1.0, "κ(z=500) = {k_late}");
        assert!(th.optical_depth(bg.tau0()) == 0.0);
    }

    #[test]
    fn visibility_normalized() {
        // ∫ g dτ = 1 − e^{-κ(0)} ≈ 1
        let (bg, th) = thermo();
        let n = 4000;
        let t0 = bg.conformal_time(1.0 / 8001.0);
        let t1 = bg.tau0();
        let mut sum = 0.0;
        for i in 0..n {
            let t = t0 + (t1 - t0) * (i as f64 + 0.5) / n as f64;
            let a = bg.a_of_tau(t);
            sum += th.visibility(t, a) * (t1 - t0) / n as f64;
        }
        assert!((sum - 1.0).abs() < 0.05, "∫g dτ = {sum}");
    }

    #[test]
    fn sound_speed_magnitude() {
        let (_bg, th) = thermo();
        // at z ~ 1100, c_s² ~ k_B T/m_p ~ (0.26 eV / 938 MeV) ~ 2.7e-10·(stuff)
        let cs2 = th.cs2_baryon(1.0 / 1101.0, constants::T_CMB_K, 0.24);
        assert!(cs2 > 1e-11 && cs2 < 1e-8, "c_s² = {cs2}");
        // decreases with time
        let cs2_late = th.cs2_baryon(0.1, constants::T_CMB_K, 0.24);
        assert!(cs2_late < cs2);
    }

    #[test]
    fn reionization_restores_late_ionization() {
        let bg = Background::new(CosmoParams::standard_cdm());
        let th = ThermoHistory::with_reionization(&bg, 10.0, 1.0);
        // fully ionized H (+ HeI) today
        let xe0 = th.xe(1.0);
        assert!(xe0 > 1.0, "x_e(z=0) = {xe0}");
        // untouched before reionization
        let th_base = ThermoHistory::new(&bg);
        let a_30 = 1.0 / 31.0;
        assert!((th.xe(a_30) - th_base.xe(a_30)).abs() < 1e-6);
        // optical depth to recombination now includes the reionization
        // bump: κ(τ(z=25)) must exceed the no-reionization value
        let tau_late = bg.conformal_time(1.0 / 26.0);
        assert!(
            th.optical_depth(tau_late) > th_base.optical_depth(tau_late) + 0.01,
            "τ_reion missing: {} vs {}",
            th.optical_depth(tau_late),
            th_base.optical_depth(tau_late)
        );
        // and the reionization optical depth is a sane magnitude
        let tau_re = th.optical_depth(bg.conformal_time(1.0 / 16.0));
        assert!(tau_re > 0.02 && tau_re < 0.5, "τ_re = {tau_re}");
    }

    #[test]
    fn reionization_transition_is_smooth_and_monotone_late() {
        let bg = Background::new(CosmoParams::standard_cdm());
        let th = ThermoHistory::with_reionization(&bg, 10.0, 1.5);
        // allow percent-level spline overshoot at the tanh kink, but no
        // genuine reversal of the transition
        let mut last = 0.0;
        for z in (0..30).rev() {
            let xe = th.xe(1.0 / (1.0 + z as f64));
            assert!(
                xe >= last - 0.02,
                "x_e reverses through reionization: {xe} after {last} at z={z}"
            );
            last = xe.max(last);
        }
        assert!(last > 1.0, "reionization never completed: x_e = {last}");
    }

    #[test]
    fn opacity_slope_early() {
        let (_bg, th) = thermo();
        assert!((th.opacity_dlna(1e-6) + 2.0).abs() < 1e-12);
        // through recombination the slope is steeply negative
        let slope = th.opacity_dlna(1.0 / 1101.0);
        assert!(slope < -5.0, "d ln κ'/d ln a = {slope}");
    }
}
