//! Golden values and round-trip stability of the canonical hashes.
//!
//! The canonical cosmology/job hashes are cache keys: persistent
//! workers key their physics tables on [`cosmo_hash`] and the service's
//! `ResultCache` keys on [`job_hash`].  Both must be *stable* — across
//! platforms, across wire round-trips, and across releases — so the
//! three preset cosmologies and a standard-CDM job per spectrum method
//! are pinned to golden values here, and a
//! property test checks that encode/decode round-trips never move a
//! hash.  If an intentional parameter or encoding change shifts a
//! golden value, update it here *and* remember that every persisted
//! cache keyed on the old value silently invalidates.

use background::CosmoParams;
use boltzmann::{Preset, SpectrumMethod};
use plinger::{cosmo_hash, hash_reals, job_hash, RunSpec};
use proptest::prelude::*;

const GOLD_SCDM: u64 = 0x7d5a_d26a_08b0_e3c6;
const GOLD_LCDM: u64 = 0x19d7_23bc_2956_7b8b;
const GOLD_MDM: u64 = 0xd095_b814_c039_fadc;

#[test]
fn preset_cosmologies_hash_to_golden_values() {
    let golden = [
        ("standard_cdm", CosmoParams::standard_cdm(), GOLD_SCDM),
        ("lcdm", CosmoParams::lcdm(), GOLD_LCDM),
        (
            "mixed_dark_matter",
            CosmoParams::mixed_dark_matter(),
            GOLD_MDM,
        ),
    ];
    for (name, params, want) in golden {
        assert_eq!(
            cosmo_hash(&params),
            want,
            "canonical hash of {name} moved — physics caches keyed on \
             the old value are invalidated"
        );
    }
}

/// `job_hash` of the standard-CDM spec on [`golden_grid`], per method.
const GOLD_JOB_HIERARCHY: u64 = 0x7f8c_8f9d_17a2_267a;
const GOLD_JOB_LOS: u64 = 0x84f1_3c91_40b9_e997;

fn golden_grid() -> Vec<f64> {
    vec![1.0e-3, 1.0e-2, 0.1]
}

#[test]
fn standard_jobs_hash_to_golden_values() {
    let hierarchy = RunSpec::standard_cdm(golden_grid());
    let mut los = hierarchy.clone();
    los.method = SpectrumMethod::LineOfSight;
    for (name, spec, want) in [
        ("hierarchy", hierarchy, GOLD_JOB_HIERARCHY),
        ("line-of-sight", los, GOLD_JOB_LOS),
    ] {
        assert_eq!(
            job_hash(&spec),
            want,
            "job hash of the {name} standard_cdm spec moved — result caches \
             keyed on the old value are invalidated (change CACHE_MAGIC)"
        );
    }
}

#[test]
fn preset_hashes_are_pairwise_distinct() {
    assert_ne!(GOLD_SCDM, GOLD_LCDM);
    assert_ne!(GOLD_SCDM, GOLD_MDM);
    assert_ne!(GOLD_LCDM, GOLD_MDM);
}

#[test]
fn every_field_reaches_the_cosmology_hash() {
    // perturbing any single field must move the hash: a field the hash
    // ignored would let two distinguishable cosmologies share a warm
    // physics cache
    let base = CosmoParams::standard_cdm();
    let h0 = cosmo_hash(&base);
    let perturbed: Vec<(&str, CosmoParams)> = vec![
        (
            "h",
            CosmoParams {
                h: 0.51,
                ..base.clone()
            },
        ),
        (
            "omega_c",
            CosmoParams {
                omega_c: 0.3,
                ..base.clone()
            },
        ),
        (
            "omega_b",
            CosmoParams {
                omega_b: 0.06,
                ..base.clone()
            },
        ),
        (
            "omega_lambda",
            CosmoParams {
                omega_lambda: 0.1,
                ..base.clone()
            },
        ),
        (
            "t_cmb_k",
            CosmoParams {
                t_cmb_k: 2.8,
                ..base.clone()
            },
        ),
        (
            "y_helium",
            CosmoParams {
                y_helium: 0.25,
                ..base.clone()
            },
        ),
        (
            "n_nu_massless",
            CosmoParams {
                n_nu_massless: 2.0,
                ..base.clone()
            },
        ),
        (
            "n_nu_massive",
            CosmoParams {
                n_nu_massive: 1,
                ..base.clone()
            },
        ),
        (
            "m_nu_ev",
            CosmoParams {
                m_nu_ev: 1.0,
                ..base.clone()
            },
        ),
        (
            "n_s",
            CosmoParams {
                n_s: 0.96,
                ..base.clone()
            },
        ),
    ];
    for (field, p) in perturbed {
        assert_ne!(cosmo_hash(&p), h0, "hash is blind to {field}");
    }
}

proptest! {
    #[test]
    fn hashes_survive_wire_round_trips(
        h in 0.3f64..1.0,
        omega_c in 0.0f64..1.0,
        omega_b in 0.01f64..0.2,
        omega_lambda in 0.0f64..0.8,
        m_nu_ev in 0.0f64..10.0,
        n_s in 0.8f64..1.2,
        ks in proptest::collection::vec(1e-4f64..1.0, 1..40),
        lmax_g in proptest::option::of(4usize..2000),
        tau_end in proptest::option::of(10.0f64..15000.0),
    ) {
        // NaN-free parameters (the strategies above generate only
        // finite values) must hash identically before and after an
        // encode/decode round trip, field by field in canonical order —
        // the master hashes its RunSpec, the worker hashes the decoded
        // broadcast, and cache reuse depends on the two agreeing
        let mut spec = RunSpec::standard_cdm(ks);
        spec.cosmo = CosmoParams {
            h,
            omega_c,
            omega_b,
            omega_lambda,
            m_nu_ev,
            n_s,
            ..CosmoParams::standard_cdm()
        };
        spec.preset = Preset::Draft;
        spec.lmax_g = lmax_g;
        spec.tau_end = tau_end;
        let back = RunSpec::decode(&spec.encode()).unwrap();
        prop_assert_eq!(cosmo_hash(&back.cosmo), cosmo_hash(&spec.cosmo));
        prop_assert_eq!(job_hash(&back), job_hash(&spec));
        // and re-encoding is byte-stable, so the hash never drifts with
        // repeated hops
        prop_assert_eq!(back.encode(), spec.encode());
    }

    #[test]
    fn hash_reals_is_content_addressed(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..200),
    ) {
        // equal content ⇒ equal hash (the cache-correctness direction)
        prop_assert_eq!(hash_reals(&xs), hash_reals(&xs.clone()));
        // any single-element change moves the hash in practice; check a
        // representative perturbation rather than quantifying collisions
        if let Some(first) = xs.first().copied() {
            let mut changed = xs.clone();
            changed[0] = first + 1.0;
            prop_assert_ne!(hash_reals(&changed), hash_reals(&xs));
        }
    }
}

/// Build an ensemble from raw axis draws: sorting and deduplicating
/// each axis keeps the injectivity property honest — two shards that
/// share a parameter point are *supposed* to share a hash.
fn make_ensemble(
    mut omega_b: Vec<f64>,
    mut h: Vec<f64>,
    mut n_s: Vec<f64>,
    ks: Vec<f64>,
) -> plinger::EnsembleSpec {
    for axis in [&mut omega_b, &mut h, &mut n_s] {
        axis.sort_by(|a, b| a.partial_cmp(b).expect("finite axis values"));
        axis.dedup();
    }
    let mut base = RunSpec::standard_cdm(ks);
    base.preset = Preset::Draft;
    plinger::EnsembleSpec {
        base,
        omega_b,
        h,
        n_s,
    }
}

proptest! {
    #[test]
    fn shard_hashes_are_injective_over_the_grid(
        omega_b in proptest::collection::vec(0.02f64..0.12, 1..4),
        h in proptest::collection::vec(0.4f64..0.9, 1..4),
        n_s in proptest::collection::vec(0.8f64..1.2, 1..4),
        ks in proptest::collection::vec(1e-4f64..1.0, 2..8),
    ) {
        // every shard is a distinct parameter point, so every shard
        // must map to a distinct cache key — a collision would let one
        // cosmology's spectrum be served for another's
        let ens = make_ensemble(omega_b, h, n_s, ks);
        let n = ens.n_shards();
        let hashes: std::collections::HashSet<u64> =
            (0..n).map(|i| ens.shard_hash(i)).collect();
        prop_assert_eq!(hashes.len(), n, "shard hash collision");
        // and each one is exactly the single-job hash of that shard's
        // spec: the ensemble path and the one-off path share the cache
        for i in 0..n {
            prop_assert_eq!(ens.shard_hash(i), job_hash(&ens.shard_spec(i)));
        }
    }

    #[test]
    fn shard_hashes_are_visit_order_independent(
        omega_b in proptest::collection::vec(0.02f64..0.12, 1..4),
        h in proptest::collection::vec(0.4f64..0.9, 1..4),
        n_s in proptest::collection::vec(0.8f64..1.2, 1..4),
        ks in proptest::collection::vec(1e-4f64..1.0, 2..8),
        seed in 1.0f64..1e15,
    ) {
        // a shard's identity is its grid index, never its position in
        // the work queue: hashing shards in any visit order yields the
        // same per-index keys, so requeues and the service's
        // skip-what-is-cached order cannot move a result to the wrong
        // cache slot
        let ens = make_ensemble(omega_b, h, n_s, ks);
        let n = ens.n_shards();
        let forward: Vec<u64> = (0..n).map(|i| ens.shard_hash(i)).collect();
        // xorshift-shuffled visit order from the drawn seed
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = (seed as u64) | 1;
        for i in (1..n).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut revisited = vec![0u64; n];
        for &i in &order {
            revisited[i] = ens.shard_hash(i);
        }
        prop_assert_eq!(revisited, forward);
    }

    #[test]
    fn ensemble_spec_wire_roundtrip(
        omega_b in proptest::collection::vec(0.02f64..0.12, 1..4),
        h in proptest::collection::vec(0.4f64..0.9, 1..4),
        n_s in proptest::collection::vec(0.8f64..1.2, 1..4),
        ks in proptest::collection::vec(1e-4f64..1.0, 2..8),
    ) {
        // the wire form is canonical: decode inverts encode exactly,
        // re-encoding is byte-stable, and every hash-derived identity —
        // the sweep key and each shard's cache key — survives the hop
        let ens = make_ensemble(omega_b, h, n_s, ks);
        let wire = ens.encode();
        let back = plinger::EnsembleSpec::decode(&wire).expect("decode");
        prop_assert_eq!(&back, &ens);
        prop_assert_eq!(back.encode(), wire);
        prop_assert_eq!(plinger::ensemble_hash(&back), plinger::ensemble_hash(&ens));
        for i in 0..ens.n_shards() {
            prop_assert_eq!(back.shard_hash(i), ens.shard_hash(i));
        }
    }
}
