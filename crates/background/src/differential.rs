//! Differential tests: [`Background`] keeps every quantity that depends
//! on the parameter set alone in a field computed once at construction.
//! The reference below is the code those fields replaced — each constant
//! recomputed from [`CosmoParams`] on every call, `Ω_k` by quadrature —
//! and every query must agree with it to the bit.

use super::*;
use proptest::prelude::*;

fn ref_nu_mass_ratio(bg: &Background, a: f64) -> f64 {
    let t_nu0_ev = constants::K_B_EV_K * bg.params.t_cmb_k * constants::T_NU_T_GAMMA;
    a * bg.params.m_nu_ev / t_nu0_ev
}

fn ref_densities(bg: &Background, a: f64) -> EinsteinDensities {
    let p = &bg.params;
    let h0sq = p.h0() * p.h0();
    let mut d = EinsteinDensities {
        cdm: h0sq * p.omega_c / a,
        baryon: h0sq * p.omega_b / a,
        photon: h0sq * p.omega_gamma() / (a * a),
        nu_massless: h0sq * p.omega_nu_massless() / (a * a),
        lambda: h0sq * p.omega_lambda * a * a,
        ..Default::default()
    };
    if p.has_massive_nu() {
        let r = ref_nu_mass_ratio(bg, a);
        let (irho, ip) = bg.nu_kernels_impl(r, None);
        let base = h0sq * p.omega_nu_one_relativistic() * p.n_nu_massive as f64 / (a * a);
        d.nu_massive = base * irho / bg.nu_kernel_rel;
        d.nu_massive_p = base * ip / bg.nu_kernel_rel;
    }
    d
}

fn ref_hubble(bg: &Background, a: f64) -> f64 {
    let h0sq = bg.params.h0() * bg.params.h0();
    let curv = h0sq * bg.params.omega_k();
    (ref_densities(bg, a).total() + curv).max(0.0).sqrt()
}

fn ref_dhubble(bg: &Background, a: f64) -> f64 {
    let d = ref_densities(bg, a);
    let mut sum = -0.5 * (d.cdm + d.baryon) - (d.photon + d.nu_massless) + d.lambda;
    if bg.params.has_massive_nu() {
        sum += -0.5 * (d.nu_massive + 3.0 * d.nu_massive_p);
    }
    sum
}

fn assert_densities_eq(got: &EinsteinDensities, want: &EinsteinDensities, at: f64) {
    for (name, got, want) in [
        ("cdm", got.cdm, want.cdm),
        ("baryon", got.baryon, want.baryon),
        ("photon", got.photon, want.photon),
        ("nu_massless", got.nu_massless, want.nu_massless),
        ("nu_massive", got.nu_massive, want.nu_massive),
        ("nu_massive_p", got.nu_massive_p, want.nu_massive_p),
        ("lambda", got.lambda, want.lambda),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "{name} differs at a={at}");
    }
}

/// Every query at scale factor `a`, direct and through `reader` (whose
/// hints are wherever the previous point left them).
fn assert_point_matches(bg: &Background, reader: &mut BgCache<'_>, a: f64) {
    let d = ref_densities(bg, a);
    let hub = ref_hubble(bg, a);
    let dhub = ref_dhubble(bg, a);
    assert_densities_eq(&bg.densities(a), &d, a);
    assert_eq!(
        bg.nu_mass_ratio(a).to_bits(),
        ref_nu_mass_ratio(bg, a).to_bits()
    );
    assert_eq!(
        bg.conformal_hubble(a).to_bits(),
        hub.to_bits(),
        "ℋ at a={a}"
    );
    assert_eq!(
        reader.conformal_hubble(a).to_bits(),
        hub.to_bits(),
        "hunted ℋ at a={a}"
    );
    assert_eq!(
        bg.dconformal_hubble_dtau(a).to_bits(),
        dhub.to_bits(),
        "ℋ' at a={a}"
    );
    // the RHS's block: whatever a(τ) the time map returns, the rest of
    // the point is the reference at that scale factor
    let tau = bg.conformal_time(a);
    let pt = reader.at_tau(tau);
    assert_eq!(pt.a.to_bits(), bg.a_of_tau(tau).to_bits());
    assert_densities_eq(&pt.d, &ref_densities(bg, pt.a), pt.a);
    assert_eq!(pt.hub.to_bits(), ref_hubble(bg, pt.a).to_bits());
    assert_eq!(pt.dhub.to_bits(), ref_dhubble(bg, pt.a).to_bits());
}

/// The clamp ends of the massive-neutrino kernel table (`r = 1e-6` and
/// `r = 1e8`), each with neighbours on either side, where they fall
/// inside `[1e-10, 1]`.
fn clamp_end_points(bg: &Background) -> Vec<f64> {
    if !bg.params.has_massive_nu() {
        return Vec::new();
    }
    let a_per_r = 1.0 / ref_nu_mass_ratio(bg, 1.0);
    let mut pts = Vec::new();
    for r_end in [1e-6, 1e8] {
        for f in [0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0] {
            let a = r_end * f * a_per_r;
            if (1e-10..=1.0).contains(&a) {
                pts.push(a);
            }
        }
    }
    pts
}

/// Scale factors over `[1e-10, 1]`: a log sweep, time-map knots and the
/// kernel table's clamp ends.
fn probe_points(bg: &Background) -> Vec<f64> {
    let mut pts: Vec<f64> = (0..=40)
        .map(|i| 10f64.powf(-10.0 + 0.25 * i as f64))
        .collect();
    let lna_start = (1e-12f64).ln();
    pts.extend(
        (320..1600)
            .step_by(61)
            .map(|i| (lna_start * (1.0 - i as f64 / 1599.0)).exp()),
    );
    pts.extend(clamp_end_points(bg));
    pts
}

fn assert_background_matches_reference(bg: &Background) {
    assert_eq!(
        bg.omega_curvature().to_bits(),
        bg.params.omega_k().to_bits()
    );
    let p = &bg.params;
    let nu = p.omega_nu_massless() + p.omega_nu_one_relativistic() * p.n_nu_massive as f64;
    assert_eq!(
        bg.r_nu_early().to_bits(),
        (nu / (nu + p.omega_gamma())).to_bits()
    );
    let pts = probe_points(bg);
    let mut reader = bg.cache();
    // up, then straight back down without resetting the hints
    for &a in pts.iter().chain(pts.iter().rev()) {
        assert_point_matches(bg, &mut reader, a);
    }
}

/// `n_massive` of the three neutrino species given `m_nu` eV each, the
/// budget closed with CDM as `mixed_dark_matter` does.
fn flat_with_massive_species(mut p: CosmoParams, n_massive: usize, m_nu: f64) -> CosmoParams {
    p.n_nu_massless = 3.0 - n_massive as f64;
    p.n_nu_massive = n_massive;
    p.m_nu_ev = m_nu;
    p.omega_c = 0.0;
    p.omega_c = p.omega_k();
    p
}

#[test]
fn presets_match_the_per_call_reference() {
    for p in [
        CosmoParams::standard_cdm(),
        CosmoParams::lcdm(),
        CosmoParams::mixed_dark_matter(),
    ] {
        assert_background_matches_reference(&Background::new(p));
    }
}

#[test]
fn both_clamp_ends_of_the_kernel_table_match_the_reference() {
    // a 0.01 eV species is still at r = 1e-6 when a ≈ 1.7e-8; reaching
    // r = 1e8 by today takes a radiation bath 10⁴ times colder than ours
    let light = flat_with_massive_species(CosmoParams::standard_cdm(), 1, 0.01);
    let mut cold = CosmoParams::standard_cdm();
    cold.t_cmb_k *= 1e-4;
    let cold = flat_with_massive_species(cold, 1, 5.0);
    for p in [light, cold] {
        let bg = Background::new(p);
        assert_eq!(clamp_end_points(&bg).len(), 5);
        assert_background_matches_reference(&bg);
    }
}

#[test]
fn time_map_matches_a_reference_built_without_the_hunted_reader() {
    // the 1600-knot τ(ln a) accumulation of `build_time_map`, every ℋ
    // from the per-call reference
    for p in [
        CosmoParams::standard_cdm(),
        CosmoParams::mixed_dark_matter(),
    ] {
        let bg = Background::new(p);
        let n = 1600;
        let lna_start = (1e-12f64).ln();
        let a_start = lna_start.exp();
        let mut tau = a_start / (a_start * ref_hubble(&bg, a_start));
        for i in 1..n {
            let lna0 = lna_start + (0.0 - lna_start) * (i - 1) as f64 / (n - 1) as f64;
            let lna1 = lna_start + (0.0 - lna_start) * i as f64 / (n - 1) as f64;
            tau += gl_integrate(|lna| 1.0 / ref_hubble(&bg, lna.exp()), lna0, lna1, 8);
            assert_eq!(
                bg.tau_of_lna.ys()[i].to_bits(),
                tau.to_bits(),
                "τ at knot {i}"
            );
        }
        assert_eq!(bg.tau0().to_bits(), tau.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_flat_massive_nu_sets_match_the_per_call_reference(
        h in 0.4f64..0.9,
        omega_b in 0.02f64..0.08,
        omega_lambda in 0.0f64..0.6,
        m_nu in 0.01f64..2.0,
        n_massive in 1usize..4,
    ) {
        let mut p = CosmoParams::standard_cdm();
        p.h = h;
        p.omega_b = omega_b;
        p.omega_lambda = omega_lambda;
        let p = flat_with_massive_species(p, n_massive, m_nu);
        prop_assume!(p.omega_c >= 0.0);
        prop_assert!(p.omega_k().abs() < 1e-12);
        assert_background_matches_reference(&Background::new(p));
    }
}
