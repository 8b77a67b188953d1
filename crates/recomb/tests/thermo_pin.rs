//! Golden hashes of the tabulated thermal history.
//!
//! `ThermoHistory::build` reads ℋ about a hundred thousand times; how it
//! reads it (a hunted reader, the substep values of a grid step shared
//! between the Peebles and the T_b march) must not move one bit of the
//! tables.  The hashes below were recorded at the commit before `build`
//! and `Background` stopped recomputing cosmology constants per lookup.
//!
//! Optimised and unoptimised builds lower `powi` differently, so each
//! profile pins its own value.

use background::{Background, CosmoParams};
use recomb::ThermoHistory;

/// `(debug, release)` → the value for the profile this test was built in.
fn pinned(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// FNV-1a over the bit patterns of `x_e`, `T_b`, `dκ/dτ` and `κ` at 64
/// scale factors from before the table's start (`a = 10⁻⁴`) to today,
/// then `τ_rec` and `z_rec`.
fn history_hash(cosmo: CosmoParams, reion: Option<(f64, f64)>) -> u64 {
    let t_cmb = cosmo.t_cmb_k;
    let bg = Background::new(cosmo);
    let th = match reion {
        Some((z, dz)) => ThermoHistory::with_reionization(&bg, z, dz),
        None => ThermoHistory::new(&bg),
    };
    let lna_lo = (5.0e-5f64).ln();
    let mut reals = Vec::with_capacity(4 * 64 + 2);
    for i in 0..64 {
        let a = (lna_lo * (1.0 - i as f64 / 63.0)).exp();
        reals.push(th.xe(a));
        reals.push(th.t_baryon(a, t_cmb));
        reals.push(th.opacity(a));
        reals.push(th.optical_depth(bg.conformal_time(a)));
    }
    reals.push(th.tau_rec());
    reals.push(th.z_rec());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in reals.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn scdm_history_matches_the_parent_commit() {
    let h = history_hash(CosmoParams::standard_cdm(), None);
    assert_eq!(
        h,
        pinned(0x6699_9bda_9b21_f6ea, 0xc8c1_339e_37e3_4079),
        "got {h:#018x}"
    );
}

#[test]
fn reionized_scdm_history_matches_the_parent_commit() {
    let h = history_hash(CosmoParams::standard_cdm(), Some((10.0, 1.0)));
    assert_eq!(
        h,
        pinned(0x1b89_6707_dc23_5c2f, 0x3261_4196_b019_b732),
        "got {h:#018x}"
    );
}

#[test]
fn mixed_dark_matter_history_matches_the_parent_commit() {
    let h = history_hash(CosmoParams::mixed_dark_matter(), None);
    assert_eq!(
        h,
        pinned(0x891b_938b_3e3d_e35e, 0xacc9_9ca6_4f64_d568),
        "got {h:#018x}"
    );
}
