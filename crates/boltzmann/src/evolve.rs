//! Evolution of a single k-mode from the radiation era to the present —
//! the unit of work a PLINGER worker performs.

use background::Background;
use ode::{IntegrateOpts, Integrator, OdeError, StepStats};
use recomb::ThermoHistory;

use crate::initial::{set_initial_conditions, InitialConditions};
use crate::layout::{Gauge, StateLayout};
use crate::output::ModeOutput;
use crate::rhs::LingerRhs;
use crate::source::{History, SpectrumMethod, StepRecorder, LOS_LMAX, REC_WINDOW};

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

/// Configuration for one mode integration.  Neither the stepper (every
/// mode runs DVERK's Verner 6(5) pair, as LINGER did) nor a recording
/// switch is part of it: [`potential_history`] asks for the ψ history.
#[derive(Debug, Clone)]
pub struct ModeConfig {
    /// Gauge to evolve in.
    pub gauge: Gauge,
    /// Initial conditions.
    pub ic: InitialConditions,
    /// Accuracy preset.
    pub preset: Preset,
    /// Photon hierarchy size, the same in every phase; `None` = automatic:
    /// [`auto_lmax`]`(k, τ_end)`, but on the full-hierarchy path the
    /// phases up to the end of the recombination window carry that end's
    /// smaller `auto_lmax` (see [`evolve_mode`]).
    pub lmax_g: Option<usize>,
    /// Massless-neutrino hierarchy size; `None` = automatic, sized and
    /// grown as `lmax_g` is but clamped to `16..=600`.
    pub lmax_nu: Option<usize>,
    /// Massive-neutrino hierarchy size per momentum bin.
    pub lmax_h: usize,
    /// Massive-neutrino momentum bins (0 disables even if the cosmology
    /// has massive species; the default follows the cosmology).
    pub nq: Option<usize>,
    /// End time, which must be positive; `None` = today (`τ₀`).
    pub tau_end: Option<f64>,
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
            EvolveError::Ode { k, source } => write!(f, "mode k = {k} Mpc⁻¹ failed: {source}"),
        }
    }
}

impl std::error::Error for EvolveError {}

/// Automatic photon hierarchy size at conformal time `tau`: free
/// streaming has carried structure out to `l ≈ k·τ`, so the ladder
/// holds that many moments plus the preset's margin.  At `τ₀` this is
/// the paper's `l ≈ k·τ₀`, the size of the output ladder; a
/// full-hierarchy mode carries the smaller size for the end of the
/// recombination window until then (see [`evolve_mode`]).
pub fn auto_lmax(k: f64, tau: f64, preset: Preset) -> usize {
    let base = (1.05 * k * tau) as usize + preset.lmax_margin();
    base.clamp(8, preset.lmax_cap())
}

/// The state layout a mode carries at conformal time `tau`: the
/// config's explicit ladders, or [`auto_lmax`]`(k, tau)` for the photons
/// and the same clamped to `16..=600` for the massless neutrinos, none
/// below [`StateLayout::MIN_LMAX`].  In line-of-sight mode the automatic
/// ladders are truncated at [`LOS_LMAX`]: the recorded source only needs
/// the monopole through quadrupole to be accurate.
fn state_layout(bg: &Background, config: &ModeConfig, k: f64, tau: f64) -> StateLayout {
    let los = config.spectrum_method == SpectrumMethod::LineOfSight;
    let truncate = |auto: usize| if los { auto.min(LOS_LMAX) } else { auto };
    let floor = |lmax: usize| lmax.max(StateLayout::MIN_LMAX);
    let auto = auto_lmax(k, tau, config.preset);
    let lmax_g = floor(config.lmax_g.unwrap_or(truncate(auto)));
    let lmax_nu = floor(config.lmax_nu.unwrap_or(truncate(auto.clamp(16, 600))));
    let massive = bg.params().has_massive_nu();
    let nq = config.nq.unwrap_or(if massive { 16 } else { 0 });
    StateLayout::new(config.gauge, lmax_g, lmax_nu, config.lmax_h, nq)
}

/// One stretch of a mode's evolution: up to `end` it carries `layout`,
/// under the tight-coupling equations while `tca`.
#[derive(Debug)]
struct Phase {
    end: f64,
    layout: StateLayout,
    tca: bool,
}

/// A mode's phases from `tau_start` to `tau_end`, with a boundary only
/// where the layout or `tca` changes: tight coupling until `tau_switch`
/// (by τ_rec); on the full-hierarchy path, the ladders sized for the end
/// of the recombination window until there and τ_end's after.
fn schedule(
    bg: &Background,
    thermo: &ThermoHistory,
    config: &ModeConfig,
    k: f64,
    [tau_start, tau_switch, tau_end]: [f64; 3],
) -> Vec<Phase> {
    let last = state_layout(bg, config, k, tau_end);
    let tau_window = (REC_WINDOW.1 * thermo.tau_rec()).min(tau_end);
    let early = match config.spectrum_method {
        SpectrumMethod::LineOfSight => last.clone(),
        SpectrumMethod::FullHierarchy => state_layout(bg, config, k, tau_window),
    };
    let mut phases: Vec<Phase> = Vec::new();
    for (end, layout, tca) in [
        (tau_switch.min(tau_end), early.clone(), true),
        (tau_window, early, false),
        (tau_end, last, false),
    ] {
        let from = phases.last().map_or(tau_start, |p| p.end);
        match phases.last_mut() {
            _ if end <= from => {}
            Some(p) if (&p.layout, p.tca) == (&layout, tca) => p.end = end,
            _ => phases.push(Phase { end, layout, tca }),
        }
    }
    phases
}

/// The one transition into phase `next` at `tau`: where tight coupling
/// ends, the slaved photon moments are patched in and the recorder
/// re-reads the state; where the layout changes, `y` is re-laid (the
/// moments both layouts carry are copied, new ones start at zero) and
/// the RHS and the recorder move to the new layout.
fn transition(
    rhs: &mut LingerRhs<'_>,
    mut recorder: Option<&mut StepRecorder<'_>>,
    tau: f64,
    y: &mut Vec<f64>,
    next: &Phase,
) {
    if rhs.tca && !next.tca {
        patch_tca_handoff(rhs, tau, y);
        if let Some(rec) = recorder.as_mut() {
            rec.push(tau, y); // re-record the switch state with the slaved moments
        }
    }
    let (from, to) = (&rhs.layout, &next.layout);
    if from != to {
        debug_assert!(from.nq == to.nq && from.lmax_h == to.lmax_h);
        // the fluid and metric slots with F_γ, then G_γ, F_ν and the
        // massive-ν block: (first index in `from`, in `to`, length)
        let g = from.lmax_g.min(to.lmax_g) + 1;
        let nu = from.lmax_nu.min(to.lmax_nu) + 1;
        let massive = |lay: &StateLayout| lay.fnu(lay.lmax_nu) + 1;
        let mut out = vec![0.0; to.dim()];
        for (src, dst, n) in [
            (0, 0, from.fg(0) + g),
            (from.gg(0), to.gg(0), g),
            (from.fnu(0), to.fnu(0), nu),
            (massive(from), massive(to), from.dim() - massive(from)),
        ] {
            out[dst..dst + n].copy_from_slice(&y[src..src + n]);
        }
        *y = out;
        *rhs = LingerRhs::new(rhs.background(), rhs.thermo(), to.clone(), rhs.k);
        if let Some(rec) = recorder {
            rec.relayout(to.clone());
        }
    }
    rhs.tca = next.tca;
}

/// Evolve one wavenumber and return its output record.
///
/// This reproduces the inner loop of LINGER: choose the start time so
/// `kτ ≪ 1`, lay down adiabatic (or isocurvature) initial conditions,
/// integrate under tight coupling while Thomson scattering is fast, then
/// integrate the full moment hierarchies to `τ_end` with no
/// free-streaming approximation.
///
/// The mode runs as a list of phases, each with one state layout and
/// one tight-coupling flag, computed before the first step.  An explicit
/// `lmax_g`/`lmax_nu` is one layout throughout.  An automatic ladder
/// ([`auto_lmax`]) on the full-hierarchy path is sized for the end of
/// the recombination window (`2.2 τ_rec`) until there, where the state
/// is re-laid once onto `k·τ_end`'s ladder, the new moments at zero.
pub fn evolve_mode(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
) -> Result<ModeOutput, EvolveError> {
    evolve_mode_scratch(bg, thermo, k, config, None, &mut Integrator::new())
}

/// Like [`evolve_mode`], with a callback invoked after every accepted
/// integrator step, reusing a caller-held [`Integrator`] as scratch
/// space.  Neither can perturb the numerics: the output is bit-identical
/// to [`evolve_mode`]'s (`farm_transports.rs` pins it against the serial
/// reference).  PLINGER workers use the observer to emit heartbeats and
/// poll for cancellation: returning `false` aborts the mode with
/// [`OdeError::Aborted`] wrapped in [`EvolveError::Ode`].  A worker
/// passes the same integrator for every mode, so its stage buffers keep
/// their capacity.
pub fn evolve_mode_scratch(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
    observer: Option<&mut dyn FnMut() -> bool>,
    integ: &mut Integrator,
) -> Result<ModeOutput, EvolveError> {
    evolve(bg, thermo, k, config, observer, integ, false).map(|(out, _)| out)
}

/// Evolve one mode and return the potentials `(τ, φ, ψ)` at its start
/// and at every accepted step, one sample per `τ` — the data behind the
/// paper's ψ-movie of the conformal Newtonian gauge.  The last sample is
/// the output's `(τ_end, φ, ψ)`.
pub fn potential_history(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
) -> Result<Vec<(f64, f64, f64)>, EvolveError> {
    evolve(bg, thermo, k, config, None, &mut Integrator::new(), true).map(|(_, hist)| hist)
}

/// The evolution behind [`evolve_mode_scratch`] and [`potential_history`],
/// which alone asks for the `(τ, φ, ψ)` history (empty otherwise).
fn evolve(
    bg: &Background,
    thermo: &ThermoHistory,
    k: f64,
    config: &ModeConfig,
    mut observer: Option<&mut dyn FnMut() -> bool>,
    integ: &mut Integrator,
    potentials: bool,
) -> Result<(ModeOutput, History), EvolveError> {
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
    assert!(tau_end > 0.0, "τ_end = {tau_end} must be positive");
    let los = config.spectrum_method == SpectrumMethod::LineOfSight;

    // start time: kτ = 10⁻³, but no later than a = 10⁻⁵ (radiation era)
    let tau_start = (1.0e-3 / k)
        .min(bg.conformal_time(1.0e-5))
        .min(0.2 * tau_end);
    let tau_switch = find_tca_switch(bg, thermo, k, tau_start, tau_end);
    let phases = schedule(bg, thermo, config, k, [tau_start, tau_switch, tau_end]);

    let mut rhs = LingerRhs::new(bg, thermo, phases[0].layout.clone(), k);
    let mut y = vec![0.0; rhs.layout.dim()];
    set_initial_conditions(&rhs, config.ic, tau_start, bg.r_nu_early(), &mut y);

    let opts = IntegrateOpts {
        rtol: config.preset.rtol(),
        atol: config.preset.rtol() * 1e-4,
        max_steps: 80_000_000,
        ..Default::default()
    };

    let mut stats = StepStats::default();
    let mut tau = tau_start;

    // the line-of-sight source and the ψ history are read at every
    // accepted step through the recorder's own metric evaluator (it
    // cannot borrow `rhs` while the integrator holds it)
    let mut recorder = (los || potentials).then(|| {
        let mut rec = StepRecorder::new(bg, thermo, rhs.layout.clone(), k, los, potentials);
        rec.push(tau_start, &y);
        rec
    });

    // Every phase starts a fresh step controller (`opts.h0` is `None`):
    // after the hand-off the slaved moments are only O(τ_c)-accurate, and
    // after a re-lay the new moments start at zero.
    for phase in &phases {
        transition(&mut rhs, recorder.as_mut(), tau, &mut y, phase);
        // the caller's observer and the recorder see every accepted step
        let mut relay = |t: f64, y_now: &[f64]| {
            if let Some(rec) = recorder.as_mut() {
                rec.push(t, y_now);
            }
            observer.as_mut().is_none_or(|obs| obs())
        };
        let phase_stats = integ
            .integrate_observed(&mut rhs, tau, phase.end, &mut y, &opts, Some(&mut relay))
            .map_err(|source| EvolveError::Ode { k, source })?;
        stats.merge(&phase_stats);
        tau = phase.end;
    }

    let (sources, history) =
        recorder.map_or_else(Default::default, |rec| rec.finish(tau_end, config.preset));
    let cpu_seconds = wall_start.elapsed().as_secs_f64();
    let out = ModeOutput::from_state(&rhs, bg, tau_end, &y, stats, cpu_seconds, sources);
    Ok((out, history))
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
fn patch_tca_handoff(rhs: &LingerRhs<'_>, tau: f64, y: &mut [f64]) {
    let lay = &rhs.layout;
    let m = rhs.metrics(tau, y);
    let a = rhs.background().a_of_tau(tau);
    let tau_c = 1.0 / rhs.thermo().opacity(a);
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
    fn growing_a_state_keeps_every_moment_and_zeroes_the_new_ones() {
        let (bg, th) = setup();
        let from = StateLayout::new(Gauge::Synchronous, 4, 5, 3, 2);
        let to = StateLayout::new(Gauge::Synchronous, 7, 9, 3, 2);
        let y: Vec<f64> = (0..from.dim()).map(|i| 1.0 + i as f64).collect();
        let mut rhs = LingerRhs::new(bg, th, from.clone(), 0.01);
        let mut grown = y.clone();
        let next = Phase {
            end: 1.0,
            layout: to.clone(),
            tca: false,
        };
        transition(&mut rhs, None, 0.5, &mut grown, &next);
        assert_eq!(rhs.layout, to, "the RHS moves to the new layout");
        assert_eq!(grown.len(), to.dim());
        assert_eq!(grown[..6], y[..6]);
        for l in 0..=to.lmax_g {
            let kept = l <= from.lmax_g;
            assert_eq!(grown[to.fg(l)], if kept { y[from.fg(l)] } else { 0.0 });
            assert_eq!(grown[to.gg(l)], if kept { y[from.gg(l)] } else { 0.0 });
        }
        for l in 0..=to.lmax_nu {
            let kept = l <= from.lmax_nu;
            assert_eq!(grown[to.fnu(l)], if kept { y[from.fnu(l)] } else { 0.0 });
        }
        for iq in 0..to.nq {
            for l in 0..=to.lmax_h {
                assert_eq!(grown[to.psi(iq, l)], y[from.psi(iq, l)]);
            }
        }
    }

    #[test]
    fn a_schedule_has_a_boundary_only_where_the_layout_or_tca_changes() {
        let (bg, th) = setup();
        let (tau0, tau_rec) = (bg.tau0(), th.tau_rec());
        let window = REC_WINDOW.1 * tau_rec;
        let los = ModeConfig {
            spectrum_method: SpectrumMethod::LineOfSight,
            ..draft_config()
        };
        let explicit = ModeConfig {
            lmax_g: Some(40),
            lmax_nu: Some(30),
            ..draft_config()
        };
        let auto = draft_config();
        let k = 0.01;
        let tau_start = bg.conformal_time(1.0e-5);
        // (row, config, tightly coupled at the start, τ_end, re-lays)
        let rows: [(&str, &ModeConfig, bool, f64, &[f64]); 6] = [
            ("automatic ladders", &auto, true, tau0, &[window]),
            ("line of sight", &los, true, tau0, &[]),
            ("explicit ladders", &explicit, true, tau0, &[]),
            ("τ_end inside the window", &auto, true, 1.5 * tau_rec, &[]),
            ("tight coupling to τ_end", &auto, true, 50.0, &[]),
            ("never tightly coupled", &auto, false, tau0, &[window]),
        ];
        for (row, cfg, coupled, tau_end, relays) in rows {
            let tau_switch = match coupled {
                true => find_tca_switch(bg, th, k, tau_start, tau_end),
                false => tau_start,
            };
            let phases = schedule(bg, th, cfg, k, [tau_start, tau_switch, tau_end]);
            assert_eq!(phases[0].tca, coupled, "{row}: {phases:?}");
            for w in phases.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                assert!(a.layout != b.layout || a.tca != b.tca, "{row}: {phases:?}");
            }
            let boundary = |at: fn(&Phase, &Phase) -> bool| -> Vec<f64> {
                let w = phases.windows(2);
                w.filter(|w| at(&w[0], &w[1])).map(|w| w[0].end).collect()
            };
            let handoff = coupled && tau_switch < tau_end;
            let handoffs: &[f64] = if handoff { &[tau_switch] } else { &[] };
            assert_eq!(boundary(|a, b| a.tca && !b.tca), handoffs, "{row}");
            assert_eq!(boundary(|a, b| a.layout != b.layout), relays, "{row}");
            // the integrator's intervals: the switch, the re-lays, τ_end
            let ends: Vec<f64> = phases.iter().map(|p| p.end).collect();
            assert_eq!(ends, [handoffs, relays, &[tau_end]].concat(), "{row}");
            assert_eq!(
                phases.last().unwrap().layout,
                state_layout(bg, cfg, k, tau_end)
            );
        }
    }

    /// One sample at the start and one per accepted step, at strictly
    /// increasing `τ`, the last bit-equal to the output's potentials.
    fn assert_history_reads_each_step_once(hist: &[(f64, f64, f64)], out: &ModeOutput) {
        assert!(hist.windows(2).all(|w| w[1].0 > w[0].0), "τ must increase");
        assert_eq!(hist.len(), out.stats.accepted + 1);
        let &(t, phi, psi) = hist.last().unwrap();
        assert_eq!(
            t.to_bits(),
            out.tau_end.to_bits(),
            "τ {t} vs {}",
            out.tau_end
        );
        assert_eq!(phi.to_bits(), out.phi.to_bits(), "φ {phi} vs {}", out.phi);
        assert_eq!(psi.to_bits(), out.psi.to_bits(), "ψ {psi} vs {}", out.psi);
        assert!(hist
            .iter()
            .all(|&(_, phi, psi)| phi.is_finite() && psi.is_finite()));
    }

    #[test]
    fn a_growing_modes_history_ends_on_its_output_potentials() {
        // the ν ladder is automatic, so it grows at the end of the
        // recombination window; the recorder reads every step in the
        // layout the mode carried at it
        let (bg, th) = setup();
        let cfg = ModeConfig {
            lmax_g: Some(20),
            ..draft_config()
        };
        let k = 0.01;
        assert_ne!(
            state_layout(bg, &cfg, k, REC_WINDOW.1 * th.tau_rec()),
            state_layout(bg, &cfg, k, bg.tau0()),
            "this mode must grow its ladder"
        );
        let hist = potential_history(bg, th, k, &cfg).unwrap();
        let out = evolve_mode(bg, th, k, &cfg).unwrap();
        assert_history_reads_each_step_once(&hist, &out);
    }

    #[test]
    fn line_of_sight_history_with_massive_neutrinos_reads_the_truncated_ladder() {
        // the history must read the ν ladder as the mode sized it,
        // truncated at LOS_LMAX, or it indexes past the massive-ν block
        let bg = Background::new(CosmoParams::mixed_dark_matter());
        let th = ThermoHistory::new(&bg);
        let cfg = ModeConfig {
            spectrum_method: SpectrumMethod::LineOfSight,
            tau_end: Some(2000.0),
            ..draft_config()
        };
        let hist = potential_history(&bg, &th, 0.1, &cfg).unwrap();
        let out = evolve_mode(&bg, &th, 0.1, &cfg).unwrap();
        assert_history_reads_each_step_once(&hist, &out);
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
