//! Node-robustness of the sparse line-of-sight `C_l` assembly: the band
//! power `l(l+1)C_l` is smooth in `l`, so the spectrum must not depend
//! on exactly *which* node multipoles the spline samples.  We project
//! one set of recorded modes through [`spectra::los_spectrum_with_nodes`]
//! with the default preset node set and with a deliberately perturbed
//! one (interior nodes jittered and thinned) and require sub-percent
//! agreement in temperature, polarization, and the cross spectrum.
//! Polarization is the stringent channel — its band power is orders of
//! magnitude below temperature, so any node-placement sensitivity shows
//! up there first.
//!
//! The property only holds on a `k`-converged quadrature: at the coarse
//! 2-samples-per-oscillation grid the `ln k` integral carries a
//! parity-alternating ripple of tens of percent per `l`, which the
//! even-parity default node set aliases away — node placement would
//! then change the answer through the ripple, not the spline.  The
//! 4-samples grid used here is ripple-converged (checked against 6).

use background::{Background, CosmoParams};
use boltzmann::{evolve_mode, ModeConfig, Preset, SpectrumMethod};
use recomb::ThermoHistory;
use spectra::los::node_multipoles;
use spectra::{los_spectrum, los_spectrum_with_nodes, PrimordialSpectrum};

/// The evolved mode set is the expensive part and is identical across
/// tests in this binary — compute it once.
fn shared_outputs(l_max: usize) -> &'static [boltzmann::ModeOutput] {
    static OUTS: std::sync::OnceLock<Vec<boltzmann::ModeOutput>> = std::sync::OnceLock::new();
    OUTS.get_or_init(|| los_outputs(l_max).0)
}

fn los_outputs(l_max: usize) -> (Vec<boltzmann::ModeOutput>, PrimordialSpectrum) {
    let bg = Background::new(CosmoParams::standard_cdm());
    let th = ThermoHistory::new(&bg);
    let cfg = ModeConfig {
        preset: Preset::Draft,
        spectrum_method: SpectrumMethod::LineOfSight,
        ..Default::default()
    };
    let ks = spectra::cl_k_grid(bg.tau0(), l_max, 4.0);
    let outs: Vec<_> = ks
        .iter()
        .map(|&k| evolve_mode(&bg, &th, k, &cfg).unwrap())
        .collect();
    (outs, PrimordialSpectrum::unit(1.0))
}

/// Perturb the sparse tail of the node set: the dense `l ≤ 10` block
/// stays (the band power genuinely varies there — that density is load
/// bearing, not a free choice), while every geometric tail node is
/// jittered by ±1, alternating direction.  Endpoints are kept and
/// collisions skipped, so the set still strictly increases from 2 to
/// `l_max` at essentially the preset spacing — same resolution,
/// different sample points.
fn perturbed_nodes(l_max: usize) -> Vec<usize> {
    let base = node_multipoles(l_max);
    let mut out: Vec<usize> = base.iter().copied().filter(|&l| l <= 10).collect();
    for (i, &l) in base.iter().filter(|&&l| l > 10 && l < l_max).enumerate() {
        let jittered = if i % 2 == 0 { l + 1 } else { l - 1 };
        let lo = *out.last().unwrap();
        if jittered > lo && jittered < l_max {
            out.push(jittered);
        }
    }
    out.push(l_max);
    out
}

#[test]
fn default_nodes_delegate_bitwise() {
    let l_max = 30;
    let outs = shared_outputs(l_max);
    let prim = PrimordialSpectrum::unit(1.0);
    let a = los_spectrum(outs, &prim, l_max);
    let b = los_spectrum_with_nodes(outs, &prim, l_max, &node_multipoles(l_max));
    for l in 2..=l_max {
        assert_eq!(a.cl[l].to_bits(), b.cl[l].to_bits(), "T l={l}");
        assert_eq!(a.cl_pol[l].to_bits(), b.cl_pol[l].to_bits(), "E l={l}");
        assert_eq!(a.cl_cross[l].to_bits(), b.cl_cross[l].to_bits(), "X l={l}");
    }
}

#[test]
fn perturbed_nodes_move_the_spectrum_sub_percent() {
    let l_max = 30;
    let outs = shared_outputs(l_max);
    let prim = PrimordialSpectrum::unit(1.0);
    let reference = los_spectrum(outs, &prim, l_max);
    let nodes = perturbed_nodes(l_max);
    assert_ne!(
        nodes,
        node_multipoles(l_max),
        "perturbation should move the sample points"
    );
    let moved = los_spectrum_with_nodes(outs, &prim, l_max, &nodes);

    // compare band powers relative to each channel's peak amplitude —
    // near zero crossings (the cross spectrum has them) per-l relative
    // error is unbounded
    type Channel = fn(&spectra::ClSpectrum, usize) -> f64;
    let channels: [(&str, Channel); 3] = [
        ("T", |s, l| s.cl[l]),
        ("E", |s, l| s.cl_pol[l]),
        ("X", |s, l| s.cl_cross[l]),
    ];
    for (name, get) in channels {
        let scale = (2..=l_max)
            .map(|l| {
                let lf = l as f64;
                (lf * (lf + 1.0) * get(&reference, l)).abs()
            })
            .fold(0.0f64, f64::max);
        assert!(scale > 0.0, "{name}: reference spectrum is empty");
        let mut worst = 0.0f64;
        for l in 2..=l_max {
            let lf = l as f64;
            let band_ref = lf * (lf + 1.0) * get(&reference, l);
            let band_new = lf * (lf + 1.0) * get(&moved, l);
            let rel = (band_ref - band_new).abs() / scale;
            worst = worst.max(rel);
            assert!(
                rel < 0.01,
                "{name} l={l}: {band_ref:e} vs {band_new:e} (rel-to-peak {rel:.5})"
            );
        }
        // sub-percent across the whole channel, not just per-l
        assert!(worst < 0.01, "{name}: worst deviation {worst:.5}");
    }
}

#[test]
#[should_panic(expected = "nodes must increase")]
fn nodes_not_reaching_l_max_are_rejected() {
    let l_max = 30;
    let outs = shared_outputs(l_max);
    let prim = PrimordialSpectrum::unit(1.0);
    los_spectrum_with_nodes(outs, &prim, l_max, &[2, 5, 10, 20]);
}

#[test]
fn default_spectrum_matches_the_parent_commit() {
    // captured before the Bessel table went from all rows 0..=l_max to
    // the node rows only: the node values, hence every bit of the
    // spectrum, must not depend on which other rows share the table
    let l_max = 30;
    let cl = los_spectrum(shared_outputs(l_max), &PrimordialSpectrum::unit(1.0), l_max);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in cl.cl.iter().chain(&cl.cl_pol).chain(&cl.cl_cross) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // optimised and unoptimised builds differ in the last bits of the
    // evolved modes, so each profile pins its own value
    let want: u64 = if cfg!(debug_assertions) {
        0x583f_bee2_cd89_1778
    } else {
        0x8390_93fe_d9fd_6587
    };
    assert_eq!(h, want, "got {h:#018x}");
}
