//! Line-of-sight source recording.
//!
//! The line-of-sight method (Seljak & Zaldarriaga; CMBAns,
//! arXiv:1910.00725) replaces the full multipole ladder with a small
//! truncated hierarchy plus the source function `S(k,τ)` recorded while
//! the mode evolves.  The high-l anisotropy is recovered afterwards by
//! projecting the source onto spherical Bessel functions,
//!
//! ```text
//! Θ_l(k) = ∫ dτ [ s₀ j_l(y) + s₁ j_l'(y) + s₂ (3j_l''(y) + j_l(y)) ],
//! y = k(τ₀ − τ),
//! ```
//!
//! so per-mode cost no longer scales with the output `l_max`.
//!
//! The three projector coefficients absorb every term of the standard
//! source without any numerical time-derivatives (the `ψ̇` of the
//! textbook ISW form is traded for a `k ψ j_l'` term by parts):
//!
//! * conformal Newtonian gauge —
//!   `s₀ = g Θ₀ + e^{−κ} φ̇`, `s₁ = g θ_b/k + e^{−κ} k ψ`,
//!   `s₂ = g Π/4`;
//! * synchronous gauge —
//!   `s₀ = g Θ₀ − e^{−κ} ḣ/6`, `s₁ = g θ_b/k`,
//!   `s₂ = g Π/4 + e^{−κ} (ḣ + 6η̇)/6`,
//!
//! with `g = κ̇ e^{−κ}` the visibility function and
//! `Π = Θ₂ + ΘP₀ + ΘP₂` the polarization source.  The E-type
//! polarization uses the single projector `3(j_l + j_l'')` with
//! coefficient `s_P = g Π/4`.
//!
//! The mode's step recorder evaluates the four coefficients on the
//! integrator's natural accepted steps (via the read-only observer hook —
//! zero extra RHS work) and keeps them, five reals a step with `τ`; the
//! state vector they were read from is not kept.  At the end it resamples
//! the four histories onto a compact two-block grid: a fine uniform block
//! across the recombination window where the visibility peaks, and a
//! coarse uniform tail to `τ₀` for the ISW contribution.  The result is
//! small (a few hundred points independent of `l_max`), which is what
//! shrinks the farm's per-mode message.
//!
//! The same recorder, on the same steps, keeps the potentials `(φ, ψ)`
//! when [`crate::evolve::potential_history`] asks for them — the data
//! behind the paper's ψ movie.

use std::sync::atomic::{AtomicUsize, Ordering};

use background::Background;
use recomb::ThermoHistory;

use crate::evolve::Preset;
use crate::layout::{Gauge, StateLayout};
use crate::rhs::{LingerRhs, MetricQuantities};

/// How a mode's anisotropy spectrum is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectrumMethod {
    /// Evolve the full multipole ladder to `l_max` (LINGER's method; the
    /// hierarchy at `τ_end` *is* the answer).
    #[default]
    FullHierarchy,
    /// Truncate the hierarchy at [`LOS_LMAX`] moments, record the source
    /// function, and project onto `j_l` afterwards.
    LineOfSight,
}

/// Default hierarchy truncation in line-of-sight mode.  A few tens of
/// moments keep the monopole/dipole/quadrupole accurate through
/// recombination (CMBAns uses 25–50); `ModeConfig::lmax_g` overrides.
pub const LOS_LMAX: usize = 30;

/// The recorded source function of one mode, resampled onto the compact
/// two-block grid.  `s0/s1/s2` are the temperature projector
/// coefficients (against `j_l`, `j_l'`, `3j_l''+j_l`), `sp` the
/// polarization coefficient (against `3(j_l+j_l'')`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSources {
    /// Observation time: the `τ₀` of `y = k(τ₀ − τ)` (the evolution's
    /// `τ_end`, today for production runs).
    pub tau_obs: f64,
    /// Strictly increasing sample times, Mpc.
    pub tau: Vec<f64>,
    /// `j_l` coefficient.
    pub s0: Vec<f64>,
    /// `j_l'` coefficient.
    pub s1: Vec<f64>,
    /// `3j_l''+j_l` coefficient.
    pub s2: Vec<f64>,
    /// Polarization coefficient (against `3(j_l+j_l'')`).
    pub sp: Vec<f64>,
}

impl ModeSources {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.tau.len()
    }

    /// True when no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.tau.is_empty()
    }

    /// Number of wire reals the extension occupies: `2 + 5n`.
    pub fn wire_len(&self) -> usize {
        2 + 5 * self.tau.len()
    }

    /// Append the wire extension `[n, τ_obs, τ…, s0…, s1…, s2…, sp…]`.
    pub fn to_wire_ext(&self, payload: &mut Vec<f64>) {
        payload.push(self.tau.len() as f64);
        payload.push(self.tau_obs);
        payload.extend_from_slice(&self.tau);
        payload.extend_from_slice(&self.s0);
        payload.extend_from_slice(&self.s1);
        payload.extend_from_slice(&self.s2);
        payload.extend_from_slice(&self.sp);
    }

    /// Parse the extension written by [`Self::to_wire_ext`].  Returns
    /// `None` when `ext` is not exactly `2 + 5n` reals with `n` the
    /// count it opens with, or when the sample times are not finite and
    /// strictly increasing (the projection splines on them).
    pub fn from_wire_ext(ext: &[f64]) -> Option<Self> {
        // the count is whatever the length says; the real on the wire
        // (NaN, ±inf, negative, fractional, 1e300) only has to agree
        let body = ext.len().checked_sub(2)?;
        let n = body / 5;
        if body % 5 != 0 || ext[0] != n as f64 {
            return None;
        }
        let tau = &ext[2..2 + n];
        if tau.iter().any(|t| !t.is_finite()) || tau.windows(2).any(|w| w[1] <= w[0]) {
            return None;
        }
        let block = |i: usize| ext[2 + i * n..2 + (i + 1) * n].to_vec();
        Some(Self {
            tau_obs: ext[1],
            tau: block(0),
            s0: block(1),
            s1: block(2),
            s2: block(3),
            sp: block(4),
        })
    }
}

/// Most reals any one recorder of this process held when it finished.
static RECORDER_HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// The most reals (by capacity: `τ` and four coefficients per accepted
/// step, plus `(τ, φ, ψ)` when the potentials are kept) that any single
/// mode's step recorder has held in this process — a statistic for the
/// memory gate in `scripts/ci.sh`.
pub fn recorder_high_water_reals() -> usize {
    RECORDER_HIGH_WATER.load(Ordering::Relaxed)
}

/// A mode's `(τ, φ, ψ)` samples, as [`crate::evolve::potential_history`]
/// returns them.
pub(crate) type History = Vec<(f64, f64, f64)>;

/// The mode's one step recorder: accumulates `(τ, s₀, s₁, s₂, s_P)`, or
/// `(τ, φ, ψ)`, or both, on the integrator's accepted steps.
///
/// The observer fires with the freshly accepted state, which is boiled
/// down to the kept columns on the spot.  That needs the metric at
/// `(τ, y)`, and the integrator holds the mode's `LingerRhs` mutably
/// while the observer runs, so the recorder carries its own: same
/// background, thermal history, layout and `k`, used for
/// [`LingerRhs::metrics`] only, which reads no integrator state.  When
/// the mode's ladders grow, [`Self::relayout`] rebuilds it on the new
/// layout; the samples already taken are reals, not states, and stay.
///
/// The handoff patch at the TCA switch re-pushes the same `τ` with the
/// slaved moments filled in, which replaces the previous sample so the
/// sample times stay strictly increasing.
pub(crate) struct StepRecorder<'a> {
    rhs: LingerRhs<'a>,
    taus: Vec<f64>,
    /// `s₀, s₁, s₂, s_P` histories when kept, each as long as `taus`.
    sources: Option<[Vec<f64>; 4]>,
    /// The `(τ, φ, ψ)` history when kept, as long as `taus`.
    potentials: Option<History>,
}

impl<'a> StepRecorder<'a> {
    pub(crate) fn new(
        bg: &'a Background,
        thermo: &'a ThermoHistory,
        layout: StateLayout,
        k: f64,
        sources: bool,
        potentials: bool,
    ) -> Self {
        Self {
            rhs: LingerRhs::new(bg, thermo, layout, k),
            taus: Vec::with_capacity(1024),
            sources: sources.then(|| std::array::from_fn(|_| Vec::with_capacity(1024))),
            potentials: potentials.then(|| Vec::with_capacity(1024)),
        }
    }

    /// Read the states pushed from now on in `layout`.
    pub(crate) fn relayout(&mut self, layout: StateLayout) {
        let (bg, thermo, k) = (self.rhs.background(), self.rhs.thermo(), self.rhs.k);
        self.rhs = LingerRhs::new(bg, thermo, layout, k);
    }

    pub(crate) fn push(&mut self, tau: f64, y: &[f64]) {
        debug_assert_eq!(y.len(), self.rhs.layout.dim());
        fn put<T>(col: &mut Vec<T>, v: T, replace: bool) {
            match col.last_mut() {
                Some(last) if replace => *last = v,
                _ => col.push(v),
            }
        }
        // the TCA handoff re-pushes the switch time (and endpoint
        // clamping can land one ulp past it): overwrite the last sample,
        // at the time already recorded for it, so the sample times stay
        // strictly increasing
        let replace = self.taus.last().is_some_and(|&last| tau <= last);
        if !replace {
            self.taus.push(tau);
        }
        let tau = *self.taus.last().expect("a time was just recorded");
        let m = self.rhs.metrics(tau, y);
        if self.sources.is_some() {
            let coefs = self.coefficients(tau, y, &m);
            let cols = self.sources.iter_mut().flatten();
            cols.zip(coefs).for_each(|(col, v)| put(col, v, replace));
        }
        if let Some(history) = self.potentials.as_mut() {
            put(history, (tau, m.phi, m.psi), replace);
        }
    }

    /// The projector coefficients `[s₀, s₁, s₂, s_P]` of state `y` at
    /// `tau`, whose metric is `m`.
    fn coefficients(&self, tau: f64, y: &[f64], m: &MetricQuantities) -> [f64; 4] {
        let lay = &self.rhs.layout;
        let k = self.rhs.k;
        let thermo = self.rhs.thermo();
        let a = self.rhs.background().a_of_tau(tau);
        let g = thermo.visibility(tau, a);
        let expmk = (-thermo.optical_depth(tau)).exp();
        let theta0 = 0.25 * y[lay.fg(0)];
        let pi_q = 0.25 * (y[lay.fg(2)] + y[lay.gg(0)] + y[lay.gg(2)]);
        let theta_b = y[StateLayout::THETA_B];
        let (s0, s1, s2) = match lay.gauge {
            Gauge::Synchronous => (
                g * theta0 - expmk * m.hdot / 6.0,
                g * theta_b / k,
                g * pi_q / 4.0 + expmk * (m.hdot + 6.0 * m.etadot) / 6.0,
            ),
            Gauge::ConformalNewtonian => (
                g * theta0 + expmk * m.phidot,
                g * theta_b / k + expmk * k * m.psi,
                g * pi_q / 4.0,
            ),
        };
        [s0, s1, s2, g * pi_q / 4.0]
    }

    /// Reals held, by capacity.
    fn reals(&self) -> usize {
        let sources: usize = self.sources.iter().flatten().map(Vec::capacity).sum();
        let potentials = self.potentials.as_ref().map_or(0, |h| 3 * h.capacity());
        self.taus.capacity() + sources + potentials
    }

    /// The source histories resampled onto the compact two-block grid,
    /// when kept, and the `(τ, φ, ψ)` history, empty unless kept.
    pub(crate) fn finish(self, tau_end: f64, preset: Preset) -> (Option<ModeSources>, History) {
        RECORDER_HIGH_WATER.fetch_max(self.reals(), Ordering::Relaxed);
        let sources = self.sources.as_ref().map(|[s0, s1, s2, sp]| {
            let thermo = self.rhs.thermo();
            resample(&self.taus, [s0, s1, s2, sp], thermo, tau_end, preset)
        });
        (sources, self.potentials.unwrap_or_default())
    }
}

/// Per-block resolution of the compact source grid.
fn grid_sizes(preset: Preset) -> (usize, usize) {
    match preset {
        Preset::Draft => (96, 120),
        Preset::Demo => (192, 240),
        Preset::Production => (384, 480),
    }
}

/// The recombination window `[0.45 τ*, 2.2 τ*]` in units of the
/// visibility peak `τ* = ThermoHistory::tau_rec`: where the visibility
/// function is non-negligible.  The source grid's fine block spans it,
/// and a full-hierarchy mode grows its ladders at its end.
pub(crate) const REC_WINDOW: (f64, f64) = (0.45, 2.2);

/// Build the two-block grid and spline the coefficient histories onto
/// it.  The fine block spans the recombination window [`REC_WINDOW`];
/// the coarse block covers the ISW tail out to `τ_end`.
fn resample(
    taus: &[f64],
    cols: [&Vec<f64>; 4],
    thermo: &ThermoHistory,
    tau_end: f64,
    preset: Preset,
) -> ModeSources {
    let (n_rec, n_tail) = grid_sizes(preset);
    let tau_star = thermo.tau_rec();
    let first = taus[0];
    let rec_lo = (REC_WINDOW.0 * tau_star).max(first);
    let rec_hi = (REC_WINDOW.1 * tau_star).min(tau_end);

    let mut grid = Vec::with_capacity(n_rec + n_tail);
    if rec_lo < rec_hi {
        let dt = (rec_hi - rec_lo) / n_rec as f64;
        for i in 0..=n_rec {
            grid.push(rec_lo + dt * i as f64);
        }
    }
    let tail_lo = *grid.last().unwrap_or(&first.max(1e-6));
    if tail_lo < tau_end {
        let dt = (tau_end - tail_lo) / n_tail as f64;
        for i in 1..=n_tail {
            grid.push(tail_lo + dt * i as f64);
        }
    }
    if grid.is_empty() {
        grid.push(tau_end);
    }
    // exact endpoint (the uniform stride accumulates rounding)
    *grid.last_mut().unwrap() = tau_end;

    let interp = |ys: &Vec<f64>| -> Vec<f64> {
        if taus.len() >= 4 {
            let sp = numutil::interp::CubicSpline::natural(taus, ys.clone());
            let mut hint = 0usize;
            grid.iter().map(|&t| sp.eval_hunt(t, &mut hint)).collect()
        } else if taus.len() >= 2 {
            let li = numutil::interp::LinearInterp::new(taus.to_vec(), ys.clone());
            grid.iter().map(|&t| li.eval(t)).collect()
        } else {
            vec![ys.first().copied().unwrap_or(0.0); grid.len()]
        }
    };

    let [c0, c1, c2, c3] = cols;
    ModeSources {
        tau_obs: tau_end,
        s0: interp(c0),
        s1: interp(c1),
        s2: interp(c2),
        sp: interp(c3),
        tau: grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sources(n: usize) -> ModeSources {
        ModeSources {
            tau_obs: 11990.0,
            tau: (0..n).map(|i| 100.0 + i as f64).collect(),
            s0: (0..n).map(|i| (i as f64).sin()).collect(),
            s1: (0..n).map(|i| (i as f64).cos()).collect(),
            s2: (0..n).map(|i| 1e-3 * i as f64).collect(),
            sp: (0..n).map(|i| -1e-4 * i as f64).collect(),
        }
    }

    #[test]
    fn wire_ext_roundtrip_is_lossless() {
        let src = sample_sources(17);
        let mut buf = Vec::new();
        src.to_wire_ext(&mut buf);
        assert_eq!(buf.len(), src.wire_len());
        let back = ModeSources::from_wire_ext(&buf).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn wire_ext_rejects_bad_lengths() {
        let src = sample_sources(5);
        let mut buf = Vec::new();
        src.to_wire_ext(&mut buf);
        assert!(ModeSources::from_wire_ext(&buf[..buf.len() - 1]).is_none());
        assert!(ModeSources::from_wire_ext(&[3.0]).is_none());
        assert!(ModeSources::from_wire_ext(&[]).is_none());
    }

    #[test]
    fn recorder_replaces_equal_time_samples() {
        use background::CosmoParams;

        let bg = Background::new(CosmoParams::standard_cdm());
        let th = ThermoHistory::new(&bg);
        let layout = StateLayout::new(Gauge::Synchronous, 8, 8, 0, 0);
        let state = |seed: f64| -> Vec<f64> {
            (0..layout.dim())
                .map(|i| seed * (1.0 + i as f64).sin())
                .collect()
        };
        let (first, early, patched) = (state(1.0), state(2.0), state(3.0));
        let mut rec = StepRecorder::new(&bg, &th, layout.clone(), 0.03, true, true);
        rec.push(100.0, &first);
        rec.push(250.0, &early);
        rec.push(250.0, &patched); // TCA handoff re-push
        rec.push(250.0 - 1e-13, &patched); // an ulp short of it: same sample
        assert_eq!(rec.taus, vec![100.0, 250.0]);

        // the re-push overwrote the last sample of every kept column
        let reference = StepRecorder::new(&bg, &th, layout.clone(), 0.03, false, false);
        let sample = |tau: f64, y: &[f64]| {
            let m = reference.rhs.metrics(tau, y);
            let c = reference.coefficients(tau, y, &m);
            [c[0], c[1], c[2], c[3], m.phi, m.psi]
        };
        let want = [sample(100.0, &first), sample(250.0, &patched)];
        for (c, col) in rec.sources.as_ref().unwrap().iter().enumerate() {
            let got: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, [want[0][c].to_bits(), want[1][c].to_bits()], "col {c}");
        }
        assert_ne!(sample(250.0, &early), sample(250.0, &patched));

        let held = rec.reals();
        assert_eq!(held, 8 * 1024, "τ, four coefficients and (τ, φ, ψ) a step");
        let (sources, history) = rec.finish(bg.tau0(), Preset::Draft);
        assert!(sources.is_some());
        let bits = |(t, phi, psi): (f64, f64, f64)| [t, phi, psi].map(f64::to_bits);
        let history: Vec<_> = history.into_iter().map(bits).collect();
        let want_history = [
            (100.0, want[0][4], want[0][5]),
            (250.0, want[1][4], want[1][5]),
        ];
        assert_eq!(history, want_history.map(bits));
        assert!(recorder_high_water_reals() >= held);

        // a source-only recorder keeps five reals a step and no history
        let rec = StepRecorder::new(&bg, &th, layout, 0.03, true, false);
        assert_eq!(rec.reals(), 5 * 1024, "τ and four coefficients a step");
        assert!(rec.potentials.is_none());
    }
}
