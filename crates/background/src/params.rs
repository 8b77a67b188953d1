//! Cosmological parameter sets and the presets used by the paper.

use numutil::constants;

/// Species labels used for density queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Species {
    /// Cold dark matter.
    Cdm,
    /// Baryons (+ electrons).
    Baryon,
    /// Photons.
    Photon,
    /// Massless neutrinos.
    NuMassless,
    /// Massive neutrinos.
    NuMassive,
    /// Cosmological constant.
    Lambda,
}

/// Cosmological parameters.
///
/// Density parameters are today's values in units of the critical density;
/// `omega_k` is derived, not stored, so the parameter set is always
/// self-consistent.  The defaults reproduce the paper's "standard Cold
/// Dark Matter" model.
#[derive(Debug, Clone, PartialEq)]
pub struct CosmoParams {
    /// Hubble parameter `h` (`H0 = 100 h km/s/Mpc`).
    pub h: f64,
    /// CDM density parameter today.
    pub omega_c: f64,
    /// Baryon density parameter today.
    pub omega_b: f64,
    /// Cosmological-constant density parameter.
    pub omega_lambda: f64,
    /// CMB temperature today in kelvin.
    pub t_cmb_k: f64,
    /// Helium mass fraction.
    pub y_helium: f64,
    /// Number of massless neutrino species (may be fractional).
    pub n_nu_massless: f64,
    /// Number of massive neutrino species.
    pub n_nu_massive: usize,
    /// Mass of each massive neutrino species in eV.
    pub m_nu_ev: f64,
    /// Scalar spectral index of the primordial spectrum.
    pub n_s: f64,
}

impl CosmoParams {
    /// The paper's "standard Cold Dark Matter" model: Ω = 1, h = 0.5,
    /// Ω_b = 0.05, n = 1, three massless neutrinos, T = 2.726 K.
    pub fn standard_cdm() -> Self {
        Self {
            h: 0.5,
            omega_c: 0.95 - Self::radiation_omega(0.5, constants::T_CMB_K, 3.0),
            omega_b: 0.05,
            omega_lambda: 0.0,
            t_cmb_k: constants::T_CMB_K,
            y_helium: constants::Y_HELIUM_DEFAULT,
            n_nu_massless: constants::N_NU_DEFAULT,
            n_nu_massive: 0,
            m_nu_ev: 0.0,
            n_s: 1.0,
        }
    }

    /// A flat Λ-dominated model of the era (ΛCDM, h = 0.65, Ω_Λ = 0.7).
    pub fn lcdm() -> Self {
        let h = 0.65;
        Self {
            h,
            omega_c: 0.25,
            omega_b: 0.05,
            omega_lambda: 0.7 - Self::radiation_omega(h, constants::T_CMB_K, 3.0),
            t_cmb_k: constants::T_CMB_K,
            y_helium: constants::Y_HELIUM_DEFAULT,
            n_nu_massless: constants::N_NU_DEFAULT,
            n_nu_massive: 0,
            m_nu_ev: 0.0,
            n_s: 1.0,
        }
    }

    /// Mixed dark matter: one massive neutrino species carrying ~20% of
    /// the critical density (the C+HDM models contemporaneous with the
    /// paper).  Ω_c closes the budget exactly (flat universe) against
    /// the Fermi–Dirac kernel value of Ω_ν.
    pub fn mixed_dark_matter() -> Self {
        let h = 0.5;
        let m_nu = 4.66; // eV → Ω_ν ≈ 0.198 at h = 0.5
        let mut p = Self {
            h,
            omega_c: 0.0,
            omega_b: 0.05,
            omega_lambda: 0.0,
            t_cmb_k: constants::T_CMB_K,
            y_helium: constants::Y_HELIUM_DEFAULT,
            n_nu_massless: 2.0,
            n_nu_massive: 1,
            m_nu_ev: m_nu,
            n_s: 1.0,
        };
        // with omega_c = 0, omega_k() returns 1 − (everything else)
        p.omega_c = p.omega_k();
        p
    }

    fn radiation_omega(h: f64, t_cmb: f64, n_nu: f64) -> f64 {
        let og = constants::OMEGA_GAMMA_H2 * (t_cmb / constants::T_CMB_K).powi(4) / (h * h);
        og * (1.0 + n_nu * constants::NU_PHOTON_RATIO)
    }

    /// `H0` in Mpc⁻¹ (c = 1 units).
    #[inline]
    pub fn h0(&self) -> f64 {
        self.h / constants::HUBBLE_DIST_MPC
    }

    /// Photon density parameter today.
    #[inline]
    pub fn omega_gamma(&self) -> f64 {
        constants::OMEGA_GAMMA_H2 * (self.t_cmb_k / constants::T_CMB_K).powi(4) / (self.h * self.h)
    }

    /// Massless-neutrino density parameter today.
    #[inline]
    pub fn omega_nu_massless(&self) -> f64 {
        self.omega_gamma() * self.n_nu_massless * constants::NU_PHOTON_RATIO
    }

    /// Density parameter one *massless* neutrino species would have — the
    /// normalization used for the massive-neutrino Fermi–Dirac kernels.
    #[inline]
    pub fn omega_nu_one_relativistic(&self) -> f64 {
        self.omega_gamma() * constants::NU_PHOTON_RATIO
    }

    /// Whether any massive neutrino species is present.
    #[inline]
    pub fn has_massive_nu(&self) -> bool {
        self.n_nu_massive > 0 && self.m_nu_ev > 0.0
    }

    /// Curvature parameter `Ω_k = 1 − ΣΩ_i` where the massive-neutrino
    /// contribution is approximated by its instantaneous value at `a = 1`
    /// from the relativistic normalization times the kernel ratio; for the
    /// flat presets this is consistent to machine precision.
    ///
    /// With a massive species this integrates: two Fermi–Dirac
    /// quadratures per call.  It is for building and checking parameter
    /// sets, not for hot paths — code that holds a `Background` reads
    /// [`crate::Background::omega_curvature`], evaluated once.
    pub fn omega_k(&self) -> f64 {
        let mut sum = self.omega_c
            + self.omega_b
            + self.omega_lambda
            + self.omega_gamma()
            + self.omega_nu_massless();
        if self.has_massive_nu() {
            let t_nu0_ev = constants::K_B_EV_K * self.t_cmb_k * constants::T_NU_T_GAMMA;
            let r = self.m_nu_ev / t_nu0_ev;
            let kernel =
                special::fermi::fermi_dirac_energy(r) / special::fermi::fermi_dirac_energy(0.0);
            sum += self.omega_nu_one_relativistic() * self.n_nu_massive as f64 * kernel;
        }
        1.0 - sum
    }

    /// Baryon density `Ω_b h²`, the combination recombination depends on.
    #[inline]
    pub fn omega_b_h2(&self) -> f64 {
        self.omega_b * self.h * self.h
    }

    /// Refuse unphysical parameters, naming the first one out of range.
    /// `Background::new` panics on a refusal, so callers that take
    /// parameters from outside check here first.  NaN fails every check.
    pub fn validate(&self) -> Result<(), ParamError> {
        let check = |param, value: f64, ok: bool, need| {
            if ok {
                Ok(())
            } else {
                Err(ParamError { param, value, need })
            }
        };
        check("h", self.h, self.h > 0.1 && self.h < 2.0, "0.1 < h < 2")?;
        check("omega_c", self.omega_c, self.omega_c >= 0.0, ">= 0")?;
        check("omega_b", self.omega_b, self.omega_b > 0.0, "> 0")?;
        check("t_cmb_k", self.t_cmb_k, self.t_cmb_k > 0.0, "> 0")?;
        check(
            "y_helium",
            self.y_helium,
            (0.0..0.5).contains(&self.y_helium),
            "in [0, 0.5)",
        )?;
        check(
            "n_nu_massless",
            self.n_nu_massless,
            self.n_nu_massless >= 0.0,
            ">= 0",
        )?;
        check("m_nu_ev", self.m_nu_ev, self.m_nu_ev >= 0.0, ">= 0")
    }
}

/// A cosmological parameter out of the range [`CosmoParams::validate`]
/// accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    /// The field of [`CosmoParams`] that is out of range.
    pub param: &'static str,
    /// Its value.
    pub value: f64,
    /// The range it must lie in.
    pub need: &'static str,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ParamError { param, value, need } = self;
        write!(f, "{param} = {value} out of range (need {need})")
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scdm_is_flat() {
        let p = CosmoParams::standard_cdm();
        assert!(p.omega_k().abs() < 1e-12, "Ω_k = {}", p.omega_k());
    }

    #[test]
    fn lcdm_is_flat() {
        let p = CosmoParams::lcdm();
        assert!(p.omega_k().abs() < 1e-12, "Ω_k = {}", p.omega_k());
    }

    #[test]
    fn scdm_values_match_paper() {
        let p = CosmoParams::standard_cdm();
        assert_eq!(p.h, 0.5);
        assert_eq!(p.omega_b, 0.05);
        assert_eq!(p.n_s, 1.0);
        assert_eq!(p.omega_lambda, 0.0);
        assert!((p.omega_c - 0.95).abs() < 1e-3); // minus tiny radiation share
    }

    #[test]
    fn h0_units() {
        let p = CosmoParams::standard_cdm();
        // H0 = 0.5/2997.9 Mpc⁻¹ → Hubble radius 5995.8 Mpc
        assert!((1.0 / p.h0() - 5_995.849_16).abs() < 0.01);
    }

    #[test]
    fn omega_gamma_h_half() {
        let p = CosmoParams::standard_cdm();
        // Ω_γ = 2.47e-5/0.25 ≈ 9.88e-5
        assert!((p.omega_gamma() - 2.4706e-5 / 0.25).abs() < 1e-9);
    }

    #[test]
    fn validate_names_the_parameter_out_of_range() {
        assert_eq!(CosmoParams::standard_cdm().validate(), Ok(()));
        let mut p = CosmoParams::standard_cdm();
        p.omega_b = 0.0;
        assert_eq!(p.validate().unwrap_err().param, "omega_b");
        p = CosmoParams::standard_cdm();
        p.h = -0.5;
        let e = p.validate().unwrap_err();
        assert_eq!(e.param, "h");
        assert!(e.to_string().starts_with("h = -0.5 out of range"), "{e}");
        p.h = f64::NAN;
        assert_eq!(p.validate().unwrap_err().param, "h");
    }

    #[test]
    fn mdm_has_massive_species() {
        let p = CosmoParams::mixed_dark_matter();
        assert!(p.has_massive_nu());
        assert_eq!(p.n_nu_massive, 1);
    }
}
