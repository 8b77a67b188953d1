//! FRW background cosmology for the LINGER/PLINGER reproduction.
//!
//! Supplies the homogeneous expansion history every perturbation equation
//! is written against: the conformal Hubble rate `ℋ(a)`, the per-species
//! densities in "Einstein units" `g_i = (8πG/3) a² ρ̄_i`, the conformal
//! time ↔ scale factor maps, and the massive-neutrino background from
//! Fermi–Dirac kernels.  Units are comoving Mpc with c = 1 throughout.

pub mod params;

pub use params::{CosmoParams, Species};

use numutil::constants;
use numutil::interp::CubicSpline;
use numutil::quad::gl_integrate;
use special::fermi::{fermi_dirac_energy, fermi_dirac_pressure};

/// Precomputed background expansion history.
///
/// Construction tabulates the massive-neutrino kernels and the conformal
/// time map; all queries afterwards are spline lookups plus a handful of
/// arithmetic operations, cheap enough for the inner ODE loop.
pub struct Background {
    params: CosmoParams,
    /// `H0²`, Mpc⁻².  This and the fields down to `r_nu_early` depend
    /// on `params` alone and are computed once in [`Self::new`]: with a
    /// massive species `Ω_k` is a Fermi–Dirac quadrature, which must not
    /// run per lookup.
    h0sq: f64,
    /// `Ω_k` — [`CosmoParams::omega_k`], evaluated once.
    omega_k: f64,
    /// `H0² Ω_k`, the curvature term of `ℋ²`.
    curv: f64,
    /// `H0² Ω_c`.
    g_cdm: f64,
    /// `H0² Ω_b`.
    g_baryon: f64,
    /// `H0² Ω_γ`.
    g_photon: f64,
    /// `H0² Ω_ν` of the massless species.
    g_nu_massless: f64,
    /// `H0² Ω_Λ`.
    g_lambda: f64,
    /// `H0² Ω_ν1 · n_massive`, the relativistic normalization of the
    /// massive species.
    g_nu_massive_rel: f64,
    /// `k_B T_ν0` in eV.
    t_nu0_ev: f64,
    /// See [`Self::r_nu_early`].
    r_nu_early: f64,
    /// `ln I_ρ(r)` vs `ln r` for the massive-neutrino energy kernel.
    nu_rho_spline: Option<CubicSpline>,
    /// `ln I_p(r)` vs `ln r` for the pressure kernel.
    nu_p_spline: Option<CubicSpline>,
    /// `I_ρ(0)` normalization.
    nu_kernel_rel: f64,
    /// τ(ln a) spline.
    tau_of_lna: CubicSpline,
    /// ln a(τ) spline (inverse map).
    lna_of_tau: CubicSpline,
    /// Conformal time today (a = 1), Mpc.
    tau0: f64,
}

/// Densities in Einstein units at one scale factor:
/// `g = (8πG/3) a² ρ̄` for each species, all in Mpc⁻².
#[derive(Debug, Clone, Copy, Default)]
pub struct EinsteinDensities {
    /// CDM.
    pub cdm: f64,
    /// Baryons.
    pub baryon: f64,
    /// Photons.
    pub photon: f64,
    /// Massless neutrinos.
    pub nu_massless: f64,
    /// Massive neutrinos (energy density).
    pub nu_massive: f64,
    /// Massive-neutrino pressure, same units (`(8πG/3) a² p̄`).
    pub nu_massive_p: f64,
    /// Cosmological constant.
    pub lambda: f64,
}

impl EinsteinDensities {
    /// Total `(8πG/3) a² ρ̄`.
    pub fn total(&self) -> f64 {
        self.cdm + self.baryon + self.photon + self.nu_massless + self.nu_massive + self.lambda
    }
}

impl Background {
    /// Build the background for `params`, tabulating kernels and the
    /// conformal-time map from `a = 10⁻¹²` to today.
    pub fn new(params: CosmoParams) -> Self {
        params.validate();
        let (nu_rho_spline, nu_p_spline) = if params.has_massive_nu() {
            // r spans ultra-relativistic (early) to deeply non-relativistic.
            let n = 256;
            let lr_min = (1e-6f64).ln();
            let lr_max = (1e8f64).ln();
            let mut lrs = Vec::with_capacity(n);
            let mut lrho = Vec::with_capacity(n);
            let mut lp = Vec::with_capacity(n);
            for i in 0..n {
                let lr = lr_min + (lr_max - lr_min) * i as f64 / (n - 1) as f64;
                let r = lr.exp();
                lrs.push(lr);
                lrho.push(fermi_dirac_energy(r).ln());
                lp.push(fermi_dirac_pressure(r).ln());
            }
            (
                Some(CubicSpline::natural(lrs.clone(), lrho)),
                Some(CubicSpline::natural(lrs, lp)),
            )
        } else {
            (None, None)
        };
        let nu_kernel_rel = fermi_dirac_energy(0.0);

        let h0sq = params.h0() * params.h0();
        let omega_k = params.omega_k();
        let nu_rel = params.omega_nu_massless()
            + params.omega_nu_one_relativistic() * params.n_nu_massive as f64;
        let mut bg = Self {
            h0sq,
            omega_k,
            curv: h0sq * omega_k,
            g_cdm: h0sq * params.omega_c,
            g_baryon: h0sq * params.omega_b,
            g_photon: h0sq * params.omega_gamma(),
            g_nu_massless: h0sq * params.omega_nu_massless(),
            g_lambda: h0sq * params.omega_lambda,
            g_nu_massive_rel: h0sq
                * params.omega_nu_one_relativistic()
                * params.n_nu_massive as f64,
            t_nu0_ev: constants::K_B_EV_K * params.t_cmb_k * constants::T_NU_T_GAMMA,
            r_nu_early: nu_rel / (nu_rel + params.omega_gamma()),
            params,
            nu_rho_spline,
            nu_p_spline,
            nu_kernel_rel,
            // placeholder splines, replaced below
            tau_of_lna: CubicSpline::natural(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]),
            lna_of_tau: CubicSpline::natural(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]),
            tau0: 0.0,
        };
        bg.build_time_map();
        bg
    }

    /// The parameter set.
    pub fn params(&self) -> &CosmoParams {
        &self.params
    }

    /// Curvature parameter `Ω_k` of the parameter set, evaluated once
    /// at construction ([`CosmoParams::omega_k`] integrates).
    pub fn omega_curvature(&self) -> f64 {
        self.omega_k
    }

    fn build_time_map(&mut self) {
        // τ(a) = ∫₀^a da' / (a'² H(a')) = ∫ da' / (a' ℋ(a')).
        // Deep in radiation domination τ ≈ a / (H0 √Ω_r), which anchors the
        // integral analytically below a_start.
        let n = 1600;
        let lna_start = (1e-12f64).ln();
        let lna_end = 0.0f64;
        let mut lnas = Vec::with_capacity(n);
        let mut taus = Vec::with_capacity(n);
        let a_start = lna_start.exp();
        // the abscissae only ever move up, so one hunted reader serves
        // all of them; it reads the kernel tables, never the time map
        let mut reader = self.cache();
        let mut tau = a_start / (a_start * reader.conformal_hubble(a_start));
        lnas.push(lna_start);
        taus.push(tau);
        for i in 1..n {
            let lna0 = lna_start + (lna_end - lna_start) * (i - 1) as f64 / (n - 1) as f64;
            let lna1 = lna_start + (lna_end - lna_start) * i as f64 / (n - 1) as f64;
            // dτ = d(ln a) / ℋ
            tau += gl_integrate(
                |lna| 1.0 / reader.conformal_hubble(lna.exp()),
                lna0,
                lna1,
                8,
            );
            lnas.push(lna1);
            taus.push(tau);
        }
        // `tau` holds the last accumulated value, i.e. τ(a = 1)
        self.tau0 = tau;
        self.lna_of_tau = CubicSpline::natural(taus.clone(), lnas.clone());
        self.tau_of_lna = CubicSpline::natural(lnas, taus);
    }

    /// Per-species densities in Einstein units at scale factor `a`
    /// (normalized to `a = 1` today).
    pub fn densities(&self, a: f64) -> EinsteinDensities {
        self.densities_impl(a, None)
    }

    /// One body for the direct and hinted density paths, so the cached
    /// fast path reuses literally the same expressions (and bits) as the
    /// public queries — only the spline interval search differs.
    fn densities_impl(&self, a: f64, hint: Option<&mut usize>) -> EinsteinDensities {
        let mut d = EinsteinDensities {
            cdm: self.g_cdm / a,
            baryon: self.g_baryon / a,
            photon: self.g_photon / (a * a),
            nu_massless: self.g_nu_massless / (a * a),
            lambda: self.g_lambda * a * a,
            ..Default::default()
        };
        if self.params.has_massive_nu() {
            let r = self.nu_mass_ratio(a);
            let (irho, ip) = self.nu_kernels_impl(r, hint);
            let base = self.g_nu_massive_rel / (a * a);
            d.nu_massive = base * irho / self.nu_kernel_rel;
            d.nu_massive_p = base * ip / self.nu_kernel_rel;
        }
        d
    }

    /// `r = a m_ν c² / (k_B T_ν0)`, the mass/temperature ratio entering
    /// the Fermi–Dirac kernels.
    #[inline]
    pub fn nu_mass_ratio(&self, a: f64) -> f64 {
        a * self.params.m_nu_ev / self.t_nu0_ev
    }

    fn nu_kernels_impl(&self, r: f64, hint: Option<&mut usize>) -> (f64, f64) {
        match (&self.nu_rho_spline, &self.nu_p_spline) {
            (Some(srho), Some(sp)) => {
                let lr = r.clamp(1e-6, 1e8).ln();
                match hint {
                    // ρ and p kernels share one abscissa, so one hint
                    // serves both (the second lookup starts on the
                    // interval the first just found)
                    Some(h) => (srho.eval_hunt(lr, h).exp(), sp.eval_hunt(lr, h).exp()),
                    None => (srho.eval(lr).exp(), sp.eval(lr).exp()),
                }
            }
            _ => (self.nu_kernel_rel, self.nu_kernel_rel / 3.0),
        }
    }

    /// `ℋ` from densities already in hand — shared by
    /// [`Self::conformal_hubble`] and [`BgCache::at_tau`] so both paths
    /// run the identical expression.
    #[inline]
    fn hubble_from(&self, d: &EinsteinDensities) -> f64 {
        (d.total() + self.curv).max(0.0).sqrt()
    }

    /// `dℋ/dτ` from densities already in hand.
    #[inline]
    fn dhubble_from(&self, d: &EinsteinDensities) -> f64 {
        // matter: w = 0 → −½ g; radiation: w = 1/3 → −g; Λ: w = −1 → +g
        let mut sum = -0.5 * (d.cdm + d.baryon) - (d.photon + d.nu_massless) + d.lambda;
        if self.params.has_massive_nu() {
            sum += -0.5 * (d.nu_massive + 3.0 * d.nu_massive_p);
        }
        sum
    }

    /// Conformal Hubble rate `ℋ = ȧ/a` (dot = d/dτ) in Mpc⁻¹.
    pub fn conformal_hubble(&self, a: f64) -> f64 {
        let d = self.densities(a);
        self.hubble_from(&d)
    }

    /// `dℋ/dτ` in Mpc⁻².
    ///
    /// From the acceleration equation:
    /// `dℋ/dτ = −(1/2) (8πG/3) a² (ρ̄ + 3p̄) + (8πG/3) a² Λ-term`, which in
    /// Einstein units reads `ℋ' = −½ Σ g_i (1 + 3w_i) + g_Λ` with the
    /// curvature term dropping out.
    pub fn dconformal_hubble_dtau(&self, a: f64) -> f64 {
        let d = self.densities(a);
        self.dhubble_from(&d)
    }

    /// Conformal time at scale factor `a` (Mpc).
    pub fn conformal_time(&self, a: f64) -> f64 {
        self.tau_of_lna.eval(a.ln())
    }

    /// Scale factor at conformal time `tau` (Mpc).
    pub fn a_of_tau(&self, tau: f64) -> f64 {
        self.lna_of_tau.eval(tau).exp()
    }

    /// Conformal time today, Mpc.
    pub fn tau0(&self) -> f64 {
        self.tau0
    }

    /// Fraction of the radiation density carried by (massless + still
    /// relativistic massive) neutrinos at early times,
    /// `R_ν = ρ_ν / (ρ_γ + ρ_ν)` — enters the adiabatic initial conditions.
    pub fn r_nu_early(&self) -> f64 {
        self.r_nu_early
    }

    /// A stateful fast-path reader over this background's tables — see
    /// [`BgCache`].
    pub fn cache(&self) -> BgCache<'_> {
        BgCache {
            bg: self,
            h_time: 0,
            h_nu: 0,
        }
    }

    /// Density parameter of each species today (massive ν evaluated from
    /// the kernel at `a = 1`).
    pub fn omega_today(&self, s: Species) -> f64 {
        let d = self.densities(1.0);
        let h0sq = self.h0sq;
        match s {
            Species::Cdm => d.cdm / h0sq,
            Species::Baryon => d.baryon / h0sq,
            Species::Photon => d.photon / h0sq,
            Species::NuMassless => d.nu_massless / h0sq,
            Species::NuMassive => d.nu_massive / h0sq,
            Species::Lambda => d.lambda / h0sq,
        }
    }
}

/// Everything the Einstein–Boltzmann right-hand side needs from the
/// background at one conformal time, computed in a single pass.
#[derive(Debug, Clone, Copy)]
pub struct BgPoint {
    /// Scale factor `a(τ)`.
    pub a: f64,
    /// Conformal Hubble rate `ℋ`, Mpc⁻¹.
    pub hub: f64,
    /// `dℋ/dτ`, Mpc⁻².
    pub dhub: f64,
    /// Per-species Einstein-unit densities.
    pub d: EinsteinDensities,
}

/// Stateful fast path over [`Background`] for the inner ODE loop.
///
/// Holds hunt hints (last-found spline intervals) for the `a(τ)` map
/// and the massive-neutrino kernels, so the near-monotone query
/// sequence of an integration finds its interval in O(1) instead of a
/// fresh bisection per lookup, and evaluates `a`, `ℋ`, `ℋ'`, and the
/// densities from one table walk instead of three.  Results are
/// bitwise identical to the corresponding [`Background`] queries: the
/// interval index is unique, the interpolation arithmetic is shared,
/// and `ℋ`/`ℋ'` are computed by the same `*_from` expressions the
/// direct path uses.  Cheap to construct — one per `LingerRhs` (or per
/// worker) costs two `usize` hints.
pub struct BgCache<'a> {
    bg: &'a Background,
    h_time: usize,
    h_nu: usize,
}

impl<'a> BgCache<'a> {
    /// The background this cache reads.
    pub fn background(&self) -> &'a Background {
        self.bg
    }

    /// [`Background::conformal_hubble`] off this reader's kernel hint —
    /// for table builders that walk `a` monotonically.
    #[inline]
    pub fn conformal_hubble(&mut self, a: f64) -> f64 {
        let d = self.bg.densities_impl(a, Some(&mut self.h_nu));
        self.bg.hubble_from(&d)
    }

    /// Scale factor, expansion rates, and densities at conformal time
    /// `tau` — the per-eval background block of the RHS, in one call.
    #[inline]
    pub fn at_tau(&mut self, tau: f64) -> BgPoint {
        let bg = self.bg;
        let a = bg.lna_of_tau.eval_hunt(tau, &mut self.h_time).exp();
        let d = bg.densities_impl(a, Some(&mut self.h_nu));
        BgPoint {
            a,
            hub: bg.hubble_from(&d),
            dhub: bg.dhubble_from(&d),
            d,
        }
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn scdm() -> Background {
        Background::new(CosmoParams::standard_cdm())
    }

    #[test]
    fn hubble_today_is_h0() {
        let bg = scdm();
        let h0 = bg.params().h0();
        // at a=1, ℋ = a H = H0 (radiation adds ~1e-4 relative)
        let hc = bg.conformal_hubble(1.0);
        assert!((hc - h0).abs() / h0 < 2e-4, "ℋ(1) = {hc}, H0 = {h0}");
    }

    #[test]
    fn radiation_dominates_early() {
        let bg = scdm();
        let d = bg.densities(1e-8);
        let rad = d.photon + d.nu_massless;
        let mat = d.cdm + d.baryon;
        assert!(rad / mat > 1e3);
    }

    #[test]
    fn matter_radiation_equality_redshift() {
        // SCDM (Ω=1, h=0.5): a_eq = Ω_r/Ω_m ≈ 4.15e-5/(h²) / 1 → z_eq ≈ 24000·Ωh²...
        let bg = scdm();
        let p = bg.params().clone();
        let omega_r = p.omega_gamma() + p.omega_nu_massless();
        let a_eq = omega_r / (p.omega_c + p.omega_b);
        let d = bg.densities(a_eq);
        let rad = d.photon + d.nu_massless;
        let mat = d.cdm + d.baryon;
        assert!((rad - mat).abs() / mat < 1e-10);
        // For h=0.5 equality is near z ~ 6000 (Ω h² = 0.25)
        let z_eq = 1.0 / a_eq - 1.0;
        assert!(z_eq > 4000.0 && z_eq < 8000.0, "z_eq = {z_eq}");
    }

    #[test]
    fn conformal_time_scales_in_radiation_era() {
        // τ ∝ a in radiation domination
        let bg = scdm();
        let t1 = bg.conformal_time(1e-8);
        let t2 = bg.conformal_time(2e-8);
        assert!((t2 / t1 - 2.0).abs() < 1e-3, "ratio {}", t2 / t1);
    }

    #[test]
    fn conformal_time_scales_in_matter_era() {
        // τ ∝ √a in matter domination, up to the radiation-era offset:
        // τ(a) = (2/H0√Ωm)(√(a+a_eq) − √a_eq), so the 0.08/0.02 ratio lands
        // slightly above 2.
        let bg = scdm();
        let t1 = bg.conformal_time(0.02);
        let t2 = bg.conformal_time(0.08);
        let ratio = t2 / t1;
        assert!(ratio > 1.95 && ratio < 2.15, "ratio {ratio}");
        // exact prediction with the offset:
        let p = bg.params();
        let a_eq = (p.omega_gamma() + p.omega_nu_massless()) / (p.omega_c + p.omega_b);
        let expect =
            ((0.08f64 + a_eq).sqrt() - a_eq.sqrt()) / ((0.02f64 + a_eq).sqrt() - a_eq.sqrt());
        assert!((ratio - expect).abs() < 0.01, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn tau0_for_scdm() {
        // SCDM h=0.5: τ₀ ≈ 2 c/H0 (1/√a integral) = 2·5995.8 ≈ 11990 Mpc,
        // slightly reduced by radiation
        let bg = scdm();
        assert!(
            bg.tau0() > 11000.0 && bg.tau0() < 12100.0,
            "τ₀ = {}",
            bg.tau0()
        );
    }

    #[test]
    fn a_of_tau_inverts_conformal_time() {
        let bg = scdm();
        for &a in &[1e-6, 1e-4, 1e-2, 0.3, 1.0] {
            let tau = bg.conformal_time(a);
            let a_back = bg.a_of_tau(tau);
            assert!(
                (a_back - a).abs() / a < 1e-6,
                "a = {a}, round-trip {a_back}"
            );
        }
    }

    #[test]
    fn dh_dtau_matches_finite_difference() {
        let bg = scdm();
        for &a in &[1e-6, 1e-3, 0.1, 0.9] {
            let tau = bg.conformal_time(a);
            let dt = tau * 1e-5;
            let hp = bg.conformal_hubble(bg.a_of_tau(tau + dt));
            let hm = bg.conformal_hubble(bg.a_of_tau(tau - dt));
            let fd = (hp - hm) / (2.0 * dt);
            let an = bg.dconformal_hubble_dtau(a);
            assert!(
                (fd - an).abs() / an.abs().max(1e-12) < 1e-3,
                "a={a}: fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn r_nu_early_standard_value() {
        // 3 massless neutrinos: R_ν = 3·0.2271/(1+3·0.2271) ≈ 0.405
        let bg = scdm();
        let r = bg.r_nu_early();
        assert!((r - 0.405).abs() < 0.005, "R_ν = {r}");
    }

    #[test]
    fn massive_nu_matches_massless_when_relativistic() {
        let mut p = CosmoParams::standard_cdm();
        p.n_nu_massless = 2.0;
        p.n_nu_massive = 1;
        p.m_nu_ev = 0.1;
        let bg = Background::new(p);
        // early on (a tiny) the massive species must act like a massless one
        let d = bg.densities(1e-9);
        let per_massless = d.nu_massless / 2.0;
        assert!(
            (d.nu_massive - per_massless).abs() / per_massless < 1e-3,
            "massive {} vs massless-per-species {}",
            d.nu_massive,
            per_massless
        );
        // and the pressure must be ρ/3
        assert!((d.nu_massive_p - d.nu_massive / 3.0).abs() / d.nu_massive < 1e-3);
    }

    #[test]
    fn massive_nu_redshifts_like_matter_late() {
        let mut p = CosmoParams::standard_cdm();
        p.n_nu_massless = 2.0;
        p.n_nu_massive = 1;
        p.m_nu_ev = 10.0; // heavy → non-relativistic well before z=100
        let bg = Background::new(p);
        let d1 = bg.densities(0.005);
        let d2 = bg.densities(0.01);
        // g = (8πG/3)a²ρ ∝ 1/a for matter
        let ratio = d1.nu_massive / d2.nu_massive;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
        // pressure negligible
        assert!(d2.nu_massive_p / d2.nu_massive < 0.01);
    }

    #[test]
    fn omega_nu_massive_tracks_mass_formula() {
        // Ω_ν h² ≈ m_ν / 93.1 eV for one species
        let mut p = CosmoParams::standard_cdm();
        p.n_nu_massless = 2.0;
        p.n_nu_massive = 1;
        p.m_nu_ev = 5.0;
        let bg = Background::new(p.clone());
        let omega_nu = bg.omega_today(Species::NuMassive);
        let expect = p.m_nu_ev / 93.14 / (p.h * p.h);
        assert!(
            (omega_nu - expect).abs() / expect < 0.03,
            "Ω_ν = {omega_nu}, formula {expect}"
        );
    }

    #[test]
    fn flat_universe_energy_budget() {
        let bg = scdm();
        let d = bg.densities(1.0);
        let h0sq = bg.params().h0().powi(2);
        let total_omega = d.total() / h0sq + bg.params().omega_k();
        assert!((total_omega - 1.0).abs() < 1e-10, "ΣΩ = {total_omega}");
    }

    #[test]
    fn lcdm_preset_late_time_acceleration() {
        let bg = Background::new(CosmoParams::lcdm());
        // ℋ' > 0 today for Λ domination
        assert!(bg.dconformal_hubble_dtau(1.0) > 0.0);
        // but decelerating in matter era
        assert!(bg.dconformal_hubble_dtau(0.1) < 0.0);
    }
}
