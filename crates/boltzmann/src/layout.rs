//! State-vector layout for one k-mode.
//!
//! The ODE state is a flat `Vec<f64>`; this module maps physical
//! variables to indices.  Layout (synchronous gauge):
//!
//! ```text
//! [ h, η,
//!   δ_c, θ_c,
//!   δ_b, θ_b,
//!   F_γ0 … F_γ,lmax_g,          (temperature; F0 = δ_γ, F1 = 4θ_γ/3k)
//!   G_γ0 … G_γ,lmax_g,          (polarization)
//!   F_ν0 … F_ν,lmax_nu,         (massless neutrinos)
//!   Ψ_{q0,0} … Ψ_{q0,lmax_h},   (massive ν, momentum bin 0)
//!   …
//!   Ψ_{q(nq-1),0} … Ψ_{q(nq-1),lmax_h} ]
//! ```
//!
//! In the conformal Newtonian gauge the two metric slots hold `φ` and an
//! unused zero (kept so both gauges share one layout and the wire format
//! never branches).

/// Gauge selector for the perturbation equations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Synchronous gauge (CDM at rest; LINGER's primary gauge).
    Synchronous,
    /// Conformal Newtonian (longitudinal) gauge — the gauge of the
    /// paper's ψ-potential movie.
    ConformalNewtonian,
}

/// Index map for the flat state vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLayout {
    /// Gauge of the evolved equations.
    pub gauge: Gauge,
    /// Photon hierarchy cutoff (temperature and polarization).
    pub lmax_g: usize,
    /// Massless-neutrino hierarchy cutoff.
    pub lmax_nu: usize,
    /// Massive-neutrino hierarchy cutoff (per momentum bin).
    pub lmax_h: usize,
    /// Number of massive-neutrino momentum bins (0 = no massive ν).
    pub nq: usize,
}

impl StateLayout {
    /// Build a layout; every ladder it carries reaches [`Self::MIN_LMAX`].
    pub fn new(gauge: Gauge, lmax_g: usize, lmax_nu: usize, lmax_h: usize, nq: usize) -> Self {
        let min = Self::MIN_LMAX;
        assert!(lmax_g >= min, "photon hierarchy needs lmax_g >= {min}");
        assert!(lmax_nu >= min, "neutrino hierarchy needs lmax_nu >= {min}");
        if nq > 0 {
            assert!(lmax_h >= min, "massive-ν hierarchy needs lmax_h >= {min}");
        }
        Self {
            gauge,
            lmax_g,
            lmax_nu,
            lmax_h,
            nq,
        }
    }

    /// First metric slot: `h` (synchronous) or `φ` (Newtonian).
    pub const METRIC0: usize = 0;
    /// Second metric slot: `η` (synchronous) or unused (Newtonian).
    pub const METRIC1: usize = 1;
    /// CDM density contrast.
    pub const DELTA_C: usize = 2;
    /// CDM velocity divergence (identically zero in synchronous gauge).
    pub const THETA_C: usize = 3;
    /// Baryon density contrast.
    pub const DELTA_B: usize = 4;
    /// Baryon velocity divergence.
    pub const THETA_B: usize = 5;
    /// Smallest cutoff of any ladder: the equations name `l = 3` explicitly.
    pub const MIN_LMAX: usize = 3;

    /// Index of photon temperature moment `F_γl`.
    #[inline]
    pub fn fg(&self, l: usize) -> usize {
        debug_assert!(l <= self.lmax_g);
        6 + l
    }

    /// Index of photon polarization moment `G_γl`.
    #[inline]
    pub fn gg(&self, l: usize) -> usize {
        debug_assert!(l <= self.lmax_g);
        6 + (self.lmax_g + 1) + l
    }

    /// Index of massless-neutrino moment `F_νl`.
    #[inline]
    pub fn fnu(&self, l: usize) -> usize {
        debug_assert!(l <= self.lmax_nu);
        6 + 2 * (self.lmax_g + 1) + l
    }

    /// Index of massive-neutrino moment `Ψ_l` for momentum bin `iq`.
    #[inline]
    pub fn psi(&self, iq: usize, l: usize) -> usize {
        debug_assert!(iq < self.nq && l <= self.lmax_h);
        6 + 2 * (self.lmax_g + 1) + (self.lmax_nu + 1) + iq * (self.lmax_h + 1) + l
    }

    /// Total state dimension.
    pub fn dim(&self) -> usize {
        6 + 2 * (self.lmax_g + 1) + (self.lmax_nu + 1) + self.nq * (self.lmax_h + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StateLayout {
        StateLayout::new(Gauge::Synchronous, 10, 8, 4, 3)
    }

    #[test]
    fn indices_are_disjoint_and_dense() {
        let lay = layout();
        let mut seen = vec![false; lay.dim()];
        let mut mark = |i: usize| {
            assert!(!seen[i], "index {i} reused");
            seen[i] = true;
        };
        mark(StateLayout::METRIC0);
        mark(StateLayout::METRIC1);
        mark(StateLayout::DELTA_C);
        mark(StateLayout::THETA_C);
        mark(StateLayout::DELTA_B);
        mark(StateLayout::THETA_B);
        for l in 0..=lay.lmax_g {
            mark(lay.fg(l));
            mark(lay.gg(l));
        }
        for l in 0..=lay.lmax_nu {
            mark(lay.fnu(l));
        }
        for iq in 0..lay.nq {
            for l in 0..=lay.lmax_h {
                mark(lay.psi(iq, l));
            }
        }
        assert!(seen.iter().all(|&s| s), "layout has holes");
    }

    #[test]
    fn dim_matches_formula() {
        let lay = layout();
        assert_eq!(lay.dim(), 6 + 2 * 11 + 9 + 3 * 5);
    }

    #[test]
    fn no_massive_nu_layout() {
        let lay = StateLayout::new(Gauge::ConformalNewtonian, 5, 5, 3, 0);
        assert_eq!(lay.dim(), 6 + 2 * 6 + 6);
    }

    #[test]
    #[should_panic(expected = "lmax_g >= 3")]
    fn rejects_tiny_photon_hierarchy() {
        let _ = StateLayout::new(Gauge::Synchronous, 2, 8, 4, 0);
    }
}
