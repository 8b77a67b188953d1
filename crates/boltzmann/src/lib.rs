//! LINGER core: the linearized Einstein–Boltzmann solver.
//!
//! This crate is the paper's primary contribution: it evolves the
//! coupled, linearized Einstein, Boltzmann, and fluid equations for one
//! Fourier mode `k` from deep in the radiation era to the present,
//! following Ma & Bertschinger (1995).  Both the synchronous and the
//! conformal Newtonian gauge are implemented, with:
//!
//! * photon temperature **and polarization** moment hierarchies with the
//!   full angular dependence of Thomson scattering,
//! * the massless-neutrino hierarchy,
//! * massive neutrinos sampled on a Fermi–Dirac momentum grid
//!   (`Ψ_l(k, q, τ)`),
//! * baryons and CDM as fluids, Thomson-coupled to the photons,
//! * adiabatic and CDM-isocurvature initial conditions,
//! * the photon–baryon tight-coupling approximation at early times
//!   (the only deviation from brute-force integration, exactly as in
//!   LINGER), and
//! * the free-streaming truncation of Ma & Bertschinger eq. (51) — the
//!   hierarchy is carried to `lmax` with **no free-streaming
//!   approximation**, as the paper emphasizes.
//!
//! The entry point is [`evolve_mode`], which integrates a single
//! wavenumber and returns a [`ModeOutput`] — exactly the unit of work a
//! PLINGER worker performs:
//!
//! ```no_run
//! use background::{Background, CosmoParams};
//! use recomb::ThermoHistory;
//! use boltzmann::{evolve_mode, ModeConfig};
//!
//! let bg = Background::new(CosmoParams::standard_cdm());
//! let thermo = ThermoHistory::new(&bg);
//! let out = evolve_mode(&bg, &thermo, 0.05, &ModeConfig::default()).unwrap();
//! println!("δ_c(k = 0.05, τ₀) = {}, ψ = {}", out.delta_c, out.psi);
//! println!("Θ_100 = {}", out.delta_t[100]);
//! ```

pub mod evolve;
pub mod gauge_transform;
pub mod initial;
pub mod layout;
pub mod output;
pub mod rhs;
pub mod source;

pub use evolve::{
    evolve_mode, evolve_mode_scratch, EvolveError, ModeConfig, Preset, FLATNESS_TOLERANCE,
};
pub use initial::InitialConditions;
pub use layout::{Gauge, StateLayout};
pub use output::{ModeOutput, WireError};
pub use rhs::LingerRhs;
pub use source::{ModeSources, SpectrumMethod, LOS_LMAX};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_surface() {
        // compile-time sanity that the re-exports stay wired
        let _ = Gauge::Synchronous;
        let _ = Gauge::ConformalNewtonian;
        let _ = InitialConditions::Adiabatic;
        let _ = Preset::Demo;
    }
}
