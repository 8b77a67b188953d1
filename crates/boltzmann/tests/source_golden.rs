//! Golden hashes of recorded line-of-sight sources.
//!
//! The recorder evaluates the projector coefficients inside the
//! integrator's observer hook and keeps five reals per accepted step;
//! the hashes below were captured from the commit that still kept every
//! step's whole state vector and evaluated the coefficients afterwards.
//! The two must agree to the bit: the recorder reads the state, it never
//! feeds back into it.  All three modes start tightly coupled, so each
//! crosses the TCA handoff, where the switch-time sample is pushed twice
//! and the second push must overwrite the first.
//!
//! Optimised and unoptimised builds of the same source differ in the
//! last bits of an evolved state, so each profile pins its own value.

use background::{Background, CosmoParams};
use boltzmann::{evolve_mode, Gauge, ModeConfig, Preset, SpectrumMethod};
use recomb::ThermoHistory;

/// `(debug, release)` → the value for the profile this test was built in.
fn pinned(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// FNV-1a over the bit patterns of the source record's wire extension.
fn sources_hash(cosmo: CosmoParams, gauge: Gauge, k: f64) -> u64 {
    let bg = Background::new(cosmo);
    let th = ThermoHistory::new(&bg);
    let cfg = ModeConfig {
        gauge,
        preset: Preset::Draft,
        spectrum_method: SpectrumMethod::LineOfSight,
        ..Default::default()
    };
    let out = evolve_mode(&bg, &th, k, &cfg).unwrap();
    let mut wire = Vec::new();
    out.sources
        .expect("LOS run must record sources")
        .to_wire_ext(&mut wire);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in wire.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn synchronous_mode_sources_match_the_parent_commit() {
    let h = sources_hash(CosmoParams::standard_cdm(), Gauge::Synchronous, 0.05);
    assert_eq!(
        h,
        pinned(0xcf66_6b98_2f23_77da, 0x542b_c6af_d928_e159),
        "got {h:#018x}"
    );
}

#[test]
fn newtonian_mode_sources_match_the_parent_commit() {
    let h = sources_hash(CosmoParams::standard_cdm(), Gauge::ConformalNewtonian, 0.01);
    assert_eq!(
        h,
        pinned(0xf29b_4c54_a4bc_0659, 0x8350_1850_5931_2493),
        "got {h:#018x}"
    );
}

#[test]
fn massive_neutrino_mode_sources_match_the_parent_commit() {
    let h = sources_hash(CosmoParams::mixed_dark_matter(), Gauge::Synchronous, 0.02);
    assert_eq!(
        h,
        pinned(0x3bdb_9f01_3905_83f5, 0xc7e5_7b25_fbea_4a72),
        "got {h:#018x}"
    );
}
