//! Evolution of a single k-mode from the radiation era to the present —
//! the unit of work a PLINGER worker performs.

use background::Background;
use ode::{IntegrateOpts, Integrator, Method, OdeError, StepStats};
use recomb::ThermoHistory;

use crate::initial::{set_initial_conditions, InitialConditions};
use crate::layout::{Gauge, StateLayout};
use crate::output::ModeOutput;
use crate::rhs::LingerRhs;
use crate::source::{SourceRecorder, SpectrumMethod, LOS_LMAX};

/// Tight-coupling validity threshold: TCA holds while
/// `max(k, ℋ)·τ_c < EPS_TCA`.
const EPS_TCA: f64 = 0.008;

/// Largest `|Ω_k|` the flat-space perturbation equations are run at;
/// [`evolve_mode_scratch`] asserts on it, so anything that takes a
/// cosmology from outside the program checks against it first.
pub const FLATNESS_TOLERANCE: f64 = 1.0e-3;

/// Accuracy / hierarchy-size presets.
///
/// `Production` mirrors the paper's high-accuracy settings scaled to a
/// workstation; `Demo` is for tests and quick figures; `Draft` for unit
/// tests that only need qualitative behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Coarse: small hierarchies, loose tolerance (unit tests).
    Draft,
    /// Medium: figure-quality shapes (the default for benches).
    Demo,
    /// Tight tolerances and large hierarchies (expensive).
    Production,
}

impl Preset {
    fn rtol(&self) -> f64 {
        match self {
            Preset::Draft => 1e-5,
            Preset::Demo => 1e-6,
            Preset::Production => 1e-8,
        }
    }

    fn lmax_cap(&self) -> usize {
        match self {
            Preset::Draft => 60,
            Preset::Demo => 1500,
            Preset::Production => 10_000, // the paper's "up to 10,000 moments"
        }
    }

    fn lmax_margin(&self) -> usize {
        match self {
            Preset::Draft => 10,
            Preset::Demo => 40,
            Preset::Production => 100,
        }
    }
}

/// Configuration for one mode integration.
#[derive(Debug, Clone)]
pub struct ModeConfig {
    /// Gauge to evolve in.
    pub gauge: Gauge,
    /// Initial conditions.
    pub ic: InitialConditions,
    /// Accuracy preset.
    pub preset: Preset,
    /// Photon hierarchy size; `None` = automatic `k·τ_end`-based choice.
    pub lmax_g: Option<usize>,
    /// Massless-neutrino hierarchy size; `None` = automatic.
    pub lmax_nu: Option<usize>,
    /// Massive-neutrino hierarchy size per momentum bin.
    pub lmax_h: usize,
    /// Massive-neutrino momentum bins (0 disables even if the cosmology
    /// has massive species; the default follows the cosmology).
    pub nq: Option<usize>,
    /// End time; `None` = today (`τ₀`).
    pub tau_end: Option<f64>,
    /// Record the trajectory (needed by the ψ-movie harness).
    pub record_trajectory: bool,
    /// ODE method (the DVERK pair by default, as in LINGER).
    pub method: Method,
    /// Full hierarchy to `l_max`, or the truncated-hierarchy
    /// line-of-sight fast path.  In [`SpectrumMethod::LineOfSight`] the
    /// photon and neutrino ladders default to [`LOS_LMAX`] moments
    /// (`lmax_g`/`lmax_nu` still override) and the mode's
    /// [`ModeOutput::sources`] carries the recorded source function.
    pub spectrum_method: SpectrumMethod,
}

impl Default for ModeConfig {
    fn default() -> Self {
        Self {
            gauge: Gauge::Synchronous,
            ic: InitialConditions::Adiabatic,
            preset: Preset::Demo,
            lmax_g: None,
            lmax_nu: None,
            lmax_h: 16,
            nq: None,
            tau_end: None,
            record_trajectory: false,
            method: Method::Verner65,
            spectrum_method: SpectrumMethod::FullHierarchy,
        }
    }
}

/// Failure modes of a mode evolution.
#[derive(Debug)]
pub enum EvolveError {
    /// The requested wavenumber is not a positive finite number.
    BadWavenumber {
        /// The offending wavenumber.
        k: f64,
    },
    /// The ODE integrator failed.
    Ode {
        /// Wavenumber of the failing mode.
        k: f64,
        /// Underlying integrator error.
        source: OdeError,
    },
}

impl std::fmt::Display for EvolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvolveError::BadWavenumber { k } => {
                write!(f, "wavenumber k = {k} Mpc⁻¹ is not positive and finite")
            }
            EvolveError::Ode { k, source } => {
                write!(f, "mode k = {k} Mpc⁻¹ failed: {source}")
            }
        }
    }
}

impl std::error::Error for EvolveError {}

/// Automatic photon hierarchy size: the paper integrates enough moments
/// to resolve structure out to `l ≈ k·τ₀`, plus margin.
pub fn auto_lmax(k: f64, tau_end: f64, preset: Preset) -> usize {
    let base = (1.05 * k * tau_end) as usize + preset.lmax_margin();
    base.clamp(8, preset.lmax_cap())
}

/// Evolve one wavenumber and return its output record.
///
/// This reproduces the inner loop of LINGER: choose the start time so
/// `kτ ≪ 1`, lay down adiabatic (or isocurvature) initial conditions,
/// integrate under tight coupling while Thomson scattering is fast, then
/// integrate the full moment hierarchies to `τ_end` with no
/// free-streaming approximation.
pub fn evolve_mode(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
) -> Result<ModeOutput, EvolveError> {
    evolve_mode_observed(bg, thermo, k, config, None)
}

/// Like [`evolve_mode`], with a callback invoked after every accepted
/// integrator step.  The observer cannot perturb the numerics — the
/// output is bit-identical with or without it.  PLINGER workers use it
/// to emit heartbeats between DVERK step batches, and to poll for
/// cancellation: returning `false` aborts the mode with
/// [`OdeError::Aborted`] wrapped in [`EvolveError::Ode`].
pub fn evolve_mode_observed(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
    observer: Option<&mut dyn FnMut() -> bool>,
) -> Result<ModeOutput, EvolveError> {
    evolve_mode_scratch(bg, thermo, k, config, observer, &mut Integrator::new())
}

/// Like [`evolve_mode_observed`], reusing a caller-held [`Integrator`]
/// as scratch space.  A worker looping over many modes passes the same
/// integrator each time so the step-stage buffers keep their capacity
/// instead of being reallocated per mode.  The integrator resets its
/// adaptive state at the start of every integration, so the output is
/// bit-identical to a fresh [`Integrator::new`] — `farm_transports.rs`
/// locks that equivalence down against the serial reference.
pub fn evolve_mode_scratch(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
    mut observer: Option<&mut dyn FnMut() -> bool>,
    integ: &mut Integrator,
) -> Result<ModeOutput, EvolveError> {
    let wall_start = std::time::Instant::now();
    if !(k > 0.0 && k.is_finite()) {
        return Err(EvolveError::BadWavenumber { k });
    }
    // the perturbation equations are the flat-space MB95 set; the
    // hyperspherical generalization for open/closed models is out of scope
    let omega_k = bg.omega_curvature();
    assert!(
        omega_k.abs() < FLATNESS_TOLERANCE,
        "perturbation evolution requires a flat background (Ω_k = {omega_k})"
    );
    let tau_end = config.tau_end.unwrap_or_else(|| bg.tau0());
    let preset = config.preset;
    let los = config.spectrum_method == SpectrumMethod::LineOfSight;

    // in line-of-sight mode the ladders are truncated: the recorded
    // source only needs the monopole through quadrupole to be accurate,
    // so a few tens of moments suffice regardless of the output l_max
    let lmax_g = config.lmax_g.unwrap_or_else(|| {
        let auto = auto_lmax(k, tau_end, preset);
        if los {
            auto.min(LOS_LMAX)
        } else {
            auto
        }
    });
    let lmax_nu = config.lmax_nu.unwrap_or_else(|| {
        let auto = auto_lmax(k, tau_end, preset).clamp(16, 600);
        if los {
            auto.min(LOS_LMAX)
        } else {
            auto
        }
    });
    let nq = config
        .nq
        .unwrap_or(if bg.params().has_massive_nu() { 16 } else { 0 });
    let layout = StateLayout::new(
        config.gauge,
        lmax_g.max(3),
        lmax_nu.max(3),
        config.lmax_h,
        nq,
    );

    let mut rhs = LingerRhs::new(bg, thermo, layout.clone(), k);

    // start time: kτ = 10⁻³, but no later than a = 10⁻⁵ (radiation era)
    let tau_start = (1.0e-3 / k)
        .min(bg.conformal_time(1.0e-5))
        .min(0.2 * tau_end);
    let mut y = vec![0.0; layout.dim()];
    set_initial_conditions(&rhs, config.ic, tau_start, bg.r_nu_early(), &mut y);

    // tight-coupling switch time
    let tau_switch = find_tca_switch(bg, thermo, k, tau_start, tau_end);

    let mut opts = IntegrateOpts {
        rtol: preset.rtol(),
        atol: preset.rtol() * 1e-4,
        method: config.method,
        record_trajectory: config.record_trajectory,
        max_steps: 80_000_000,
        ..Default::default()
    };

    let mut stats = StepStats::default();
    let mut trajectory = Vec::new();
    let mut tau = tau_start;

    // line-of-sight mode evaluates the projector coefficients at every
    // accepted step, through the recorder's own metric evaluator (it
    // cannot borrow `rhs` while the integrator holds it)
    let mut recorder = los.then(|| {
        let mut rec = SourceRecorder::new(bg, thermo, layout.clone(), k);
        rec.push(tau_start, &y);
        rec
    });

    // trampoline: `&mut dyn FnMut(..) -> bool` is invariant in the trait
    // object's lifetime, so the caller's observer cannot be reborrowed
    // for two sequential integrate_observed calls; a per-phase closure
    // over `observer` (and the recorder) can
    macro_rules! relay {
        () => {
            |t: f64, y_now: &[f64]| {
                if let Some(rec) = recorder.as_mut() {
                    rec.push(t, y_now);
                }
                match observer.as_mut() {
                    Some(obs) => obs(),
                    None => true,
                }
            }
        };
    }

    if tau_switch > tau_start {
        rhs.tca = true;
        let upper = tau_switch.min(tau_end);
        let mut relay = relay!();
        let sol = integ
            .integrate_observed(&mut rhs, tau, upper, &mut y, &opts, Some(&mut relay))
            .map_err(|source| EvolveError::Ode { k, source })?;
        stats.merge(&sol.stats);
        trajectory.extend(sol.trajectory);
        tau = upper;
        rhs.tca = false;
        if tau < tau_end {
            patch_tca_handoff(&rhs, thermo, tau, &mut y);
            if let Some(rec) = recorder.as_mut() {
                // re-record the switch state with the slaved moments
                rec.push(tau, &y);
            }
        }
    }

    if tau < tau_end {
        // after the handoff the state is only O(τ_c)-accurate in the slaved
        // moments; keep the same tolerances but refresh the controller
        opts.h0 = None;
        let mut relay = relay!();
        let sol = integ
            .integrate_observed(&mut rhs, tau, tau_end, &mut y, &opts, Some(&mut relay))
            .map_err(|source| EvolveError::Ode { k, source })?;
        stats.merge(&sol.stats);
        trajectory.extend(sol.trajectory);
    }

    let sources = recorder.map(|rec| rec.finish(tau_end, preset));
    let cpu_seconds = wall_start.elapsed().as_secs_f64();
    let mut out = ModeOutput::from_state(&rhs, bg, tau_end, &y, stats, cpu_seconds, trajectory);
    out.sources = sources;
    Ok(out)
}

/// Evolve one mode recording the trajectory, and return the potentials
/// `(τ, φ, ψ)` at every accepted step — the data behind the paper's
/// ψ-movie of the conformal Newtonian gauge.
pub fn potential_history(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
) -> Result<Vec<(f64, f64, f64)>, EvolveError> {
    let mut cfg = config.clone();
    cfg.record_trajectory = true;
    let out = evolve_mode(bg, thermo, k, &cfg)?;
    // rebuild an RHS with the same layout to evaluate the metric
    let layout = StateLayout::new(
        cfg.gauge,
        out.lmax_g,
        cfg.lmax_nu
            .unwrap_or_else(|| auto_lmax(k, out.tau_end, cfg.preset).clamp(16, 600))
            .max(3),
        cfg.lmax_h,
        cfg.nq
            .unwrap_or(if bg.params().has_massive_nu() { 16 } else { 0 }),
    );
    let rhs = LingerRhs::new(bg, thermo, layout, k);
    Ok(out
        .trajectory
        .iter()
        .map(|s| {
            let m = rhs.metrics(s.t, &s.y);
            (s.t, m.phi, m.psi)
        })
        .collect())
}

/// Find the conformal time at which tight coupling stops being valid:
/// the first `τ` with `max(k, ℋ)·τ_c(τ) ≥ EPS_TCA`.
fn find_tca_switch(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    tau_start: f64,
    tau_end: f64,
) -> f64 {
    let crit = |tau: f64| {
        let a = bg.a_of_tau(tau);
        let tau_c = 1.0 / thermo.opacity(a);
        let hub = bg.conformal_hubble(a);
        k.max(hub) * tau_c - EPS_TCA
    };
    if crit(tau_start) >= 0.0 {
        return tau_start; // never tightly coupled for this mode
    }
    // TCA surely broken by recombination; bracket between start and there
    let upper = thermo.tau_rec().min(tau_end).max(tau_start * 1.0001);
    if crit(upper) <= 0.0 {
        return upper;
    }
    numutil::roots::brent(crit, tau_start, upper, 1e-6 * upper).unwrap_or(upper)
}

/// Initialize the slaved photon moments at the TCA → full-equations
/// handoff: `σ_γ` from the first-order tight-coupling value and the
/// polarization from its Thomson-equilibrium relations
/// (`G₀ = (5/4)F₂`, `G₂ = (1/4)F₂`).
fn patch_tca_handoff(rhs: &LingerRhs<'_>, thermo: &ThermoHistory, tau: f64, y: &mut [f64]) {
    let lay = rhs.layout.clone();
    let m = rhs.metrics(tau, y);
    let a = rhs_a(rhs, tau);
    let tau_c = 1.0 / thermo.opacity(a);
    let theta_g = 0.75 * rhs.k * y[lay.fg(1)];
    let k2_alpha = match lay.gauge {
        Gauge::Synchronous => 0.5 * (m.hdot + 6.0 * m.etadot),
        Gauge::ConformalNewtonian => 0.0,
    };
    let sigma_g = 16.0 / 45.0 * tau_c * (theta_g + k2_alpha);
    y[lay.fg(2)] = 2.0 * sigma_g;
    y[lay.gg(0)] = 1.25 * (2.0 * sigma_g);
    y[lay.gg(2)] = 0.25 * (2.0 * sigma_g);
}

#[inline]
fn rhs_a(rhs: &LingerRhs<'_>, tau: f64) -> f64 {
    rhs.background().a_of_tau(tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use background::CosmoParams;
    use std::sync::OnceLock;

    fn setup() -> &'static (Background, ThermoHistory) {
        static CTX: OnceLock<(Background, ThermoHistory)> = OnceLock::new();
        CTX.get_or_init(|| {
            let bg = Background::new(CosmoParams::standard_cdm());
            let th = ThermoHistory::new(&bg);
            (bg, th)
        })
    }

    fn draft_config() -> ModeConfig {
        ModeConfig {
            preset: Preset::Draft,
            ..Default::default()
        }
    }

    #[test]
    fn auto_lmax_scales_with_k() {
        let l1 = auto_lmax(0.01, 12000.0, Preset::Demo);
        let l2 = auto_lmax(0.05, 12000.0, Preset::Demo);
        assert!(l2 > l1);
        assert!(auto_lmax(10.0, 12000.0, Preset::Demo) == 1500); // capped
    }

    #[test]
    fn superhorizon_mode_evolves_and_grows() {
        // tiny k: mode stays outside the horizon until late times; CDM
        // density contrast grows, metric stays finite.
        let (bg, th) = setup();
        let out = evolve_mode(bg, th, 2.0e-4, &draft_config()).unwrap();
        assert!(out.delta_c.abs() > 1.0, "δ_c = {}", out.delta_c);
        assert!(out.delta_c.is_finite());
        assert!(out.stats.accepted > 10);
        // adiabatic sign convention: δ < 0 with C = +1
        assert!(out.delta_c < 0.0);
    }

    #[test]
    fn subhorizon_matter_mode_grows_strongly() {
        // k = 0.02/Mpc enters the horizon before equality; δ_c should be
        // amplified by orders of magnitude over the superhorizon value.
        let (bg, th) = setup();
        let small = evolve_mode(bg, th, 2.0e-4, &draft_config()).unwrap();
        let large = evolve_mode(bg, th, 0.02, &draft_config()).unwrap();
        assert!(
            large.delta_c.abs() > 10.0 * small.delta_c.abs(),
            "δ_c(0.02) = {}, δ_c(2e-4) = {}",
            large.delta_c,
            small.delta_c
        );
    }

    #[test]
    fn tca_switch_is_ordered() {
        let (bg, th) = setup();
        let t_start = 0.01;
        let t1 = find_tca_switch(bg, th, 0.5, t_start, bg.tau0());
        let t2 = find_tca_switch(bg, th, 0.01, t_start, bg.tau0());
        // larger k leaves tight coupling earlier
        assert!(t1 < t2, "τ_switch(k=0.5) = {t1}, τ_switch(k=0.01) = {t2}");
        assert!(t2 <= th.tau_rec() * 1.001);
    }

    #[test]
    fn stats_count_work() {
        let (bg, th) = setup();
        let out = evolve_mode(bg, th, 0.01, &draft_config()).unwrap();
        assert!(out.stats.rhs_evals > 100);
        assert!(out.stats.total_flops() > 1_000_000);
        assert!(out.cpu_seconds > 0.0);
    }

    #[test]
    fn photon_monopole_oscillates_subhorizon() {
        // by today, a k = 0.02 mode has gone through acoustic
        // oscillations; the final photon moments must be bounded (no
        // runaway) while matter grew large.
        let (bg, th) = setup();
        let out = evolve_mode(bg, th, 0.02, &draft_config()).unwrap();
        assert!(out.delta_g.abs() < 100.0, "δ_γ = {}", out.delta_g);
        assert!(out.delta_c.abs() > out.delta_g.abs());
    }

    #[test]
    fn early_stop_matches_partial_evolution() {
        let (bg, th) = setup();
        let mut cfg = draft_config();
        cfg.tau_end = Some(200.0);
        let out = evolve_mode(bg, th, 0.05, &cfg).unwrap();
        assert!((out.tau_end - 200.0).abs() < 1e-9);
        assert!(out.a_end < 1.0e-2);
    }
}
