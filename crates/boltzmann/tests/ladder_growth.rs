//! A full-hierarchy mode with automatic ladders carries the ladder sized
//! for the end of the recombination window until then and grows it to
//! τ₀'s size there.  The same mode with `lmax_g`/`lmax_nu` set
//! explicitly to τ₀'s sizes carries one ladder from the first step —
//! the behaviour before the growth, bit for bit — and is the reference
//! here: the two must agree to well inside the integration tolerance.

use background::{Background, CosmoParams};
use boltzmann::evolve::auto_lmax;
use boltzmann::{evolve_mode, ModeConfig, ModeOutput, Preset};
use recomb::ThermoHistory;

/// Largest `|ΔΘ_l| / max_l |Θ_l|` allowed, temperature and polarization.
const LADDER_TOL: f64 = 1e-6;
/// Largest relative error of `δ_c` and `ψ`.
const SCALAR_TOL: f64 = 1e-7;

fn context(params: CosmoParams) -> (Background, ThermoHistory) {
    let bg = Background::new(params);
    let th = ThermoHistory::new(&bg);
    (bg, th)
}

/// The mode with automatic ladders, and with τ₀'s ladders set explicitly.
fn grown_and_fixed(
    bg: &Background,
    th: &ThermoHistory,
    k: f64,
    preset: Preset,
) -> (ModeOutput, ModeOutput) {
    let auto = ModeConfig {
        preset,
        ..Default::default()
    };
    let tau0 = bg.tau0();
    let fixed = ModeConfig {
        lmax_g: Some(auto_lmax(k, tau0, preset)),
        lmax_nu: Some(auto_lmax(k, tau0, preset).clamp(16, 600)),
        ..auto.clone()
    };
    (
        evolve_mode(bg, th, k, &auto).unwrap(),
        evolve_mode(bg, th, k, &fixed).unwrap(),
    )
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `max_l |a_l − b_l| / max_l |b_l|`.
fn ladder_error(a: &[f64], b: &[f64]) -> f64 {
    let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    max_abs(&diff) / max_abs(b)
}

fn assert_agree(grown: &ModeOutput, fixed: &ModeOutput) {
    let k = fixed.k;
    assert_eq!(grown.lmax_g, fixed.lmax_g, "k = {k}: output ladder moved");
    assert_eq!(
        grown.to_wire(0).1.len(),
        fixed.to_wire(0).1.len(),
        "k = {k}: payload length moved"
    );
    let dt = ladder_error(&grown.delta_t, &fixed.delta_t);
    let dp = ladder_error(&grown.delta_p, &fixed.delta_p);
    assert!(dt <= LADDER_TOL, "k = {k}: max|ΔΘ_l|/max|Θ_l| = {dt:e}");
    assert!(dp <= LADDER_TOL, "k = {k}: max|ΔΘP_l|/max|ΘP_l| = {dp:e}");
    for (name, a, b) in [
        ("δ_c", grown.delta_c, fixed.delta_c),
        ("ψ", grown.psi, fixed.psi),
    ] {
        let rel = ((a - b) / b).abs();
        assert!(rel <= SCALAR_TOL, "k = {k}: {name} {a} vs {b}, rel {rel:e}");
    }
}

#[test]
fn demo_scdm_modes_agree_with_fixed_tau0_ladders() {
    let (bg, th) = context(CosmoParams::standard_cdm());
    for k in [0.002, 0.01, 0.05, 0.065] {
        let (grown, fixed) = grown_and_fixed(&bg, &th, k, Preset::Demo);
        assert_agree(&grown, &fixed);
    }
}

#[test]
fn draft_mixed_dark_matter_mode_agrees_with_fixed_tau0_ladders() {
    let (bg, th) = context(CosmoParams::mixed_dark_matter());
    let (grown, fixed) = grown_and_fixed(&bg, &th, 0.03, Preset::Draft);
    assert_agree(&grown, &fixed);
}
