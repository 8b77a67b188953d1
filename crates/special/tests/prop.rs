//! Property tests for the special functions.

use proptest::prelude::*;
use special::bessel::{sph_bessel_jl, sph_bessel_jl_array, JlTable, JL_TABLE_DX};
use special::legendre::{assoc_legendre_norm, legendre_pl, legendre_pl_array};

proptest! {
    #[test]
    fn legendre_bounded_on_interval(l in 0usize..200, x in -1.0f64..1.0) {
        let p = legendre_pl(l, x);
        prop_assert!(p.abs() <= 1.0 + 1e-12, "P_{l}({x}) = {p}");
    }

    #[test]
    fn legendre_parity(l in 0usize..100, x in 0.0f64..1.0) {
        let sign = if l % 2 == 0 { 1.0 } else { -1.0 };
        let a = legendre_pl(l, x);
        let b = legendre_pl(l, -x);
        prop_assert!((a - sign * b).abs() < 1e-11);
    }

    #[test]
    fn legendre_array_consistent(lmax in 2usize..150, x in -1.0f64..1.0) {
        let mut arr = vec![0.0; lmax + 1];
        legendre_pl_array(x, &mut arr);
        for l in (0..=lmax).step_by(7) {
            prop_assert!((arr[l] - legendre_pl(l, x)).abs() < 1e-11);
        }
    }

    #[test]
    fn bessel_recurrence_holds(l in 2usize..60, x in 0.5f64..80.0) {
        let lhs = (2.0 * l as f64 + 1.0) / x * sph_bessel_jl(l, x);
        let rhs = sph_bessel_jl(l - 1, x) + sph_bessel_jl(l + 1, x);
        // relative to the largest of the three values
        let scale = sph_bessel_jl(l - 1, x).abs()
            .max(sph_bessel_jl(l + 1, x).abs())
            .max(1e-20);
        prop_assert!((lhs - rhs).abs() / scale < 1e-7,
            "recurrence at l={l}, x={x}: {lhs} vs {rhs}");
    }

    #[test]
    fn bessel_array_matches_scalar(lmax in 3usize..120, x in 0.1f64..100.0) {
        let mut arr = vec![0.0; lmax + 1];
        sph_bessel_jl_array(x, &mut arr);
        for l in [0, lmax / 2, lmax] {
            let s = sph_bessel_jl(l, x);
            prop_assert!((arr[l] - s).abs() <= 1e-9 * s.abs().max(1e-12),
                "l={l}, x={x}: {} vs {s}", arr[l]);
        }
    }

    #[test]
    fn table_rows_do_not_depend_on_their_neighbours(
        ls in proptest::collection::vec(0usize..90, 1..12),
        x_max in 5.0f64..120.0,
        offs in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        // a row is the same bits whether it was built alone, among a
        // random subset, or among all rows 0..=l_max — on the nodes and
        // between them
        let sparse = JlTable::build_rows(&ls, x_max);
        let dense = JlTable::build(*ls.iter().max().unwrap(), x_max);
        for &l in &ls {
            let nodes = (0..8).map(|i| (i * 29 % 240) as f64 * JL_TABLE_DX);
            for x in nodes.chain(offs.iter().map(|f| f * x_max)).filter(|&x| x <= x_max) {
                let (a, b) = (sparse.eval(l, x), dense.eval(l, x));
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits(), "j l={} x={}", l, x);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "j' l={} x={}", l, x);
            }
        }
    }

    #[test]
    fn shared_table_growth_changes_no_entry(
        first in proptest::collection::vec(0usize..70, 1..6),
        more in proptest::collection::vec(0usize..70, 1..6),
        x_max in 5.0f64..60.0,
        stretch in 0.0f64..40.0,
        offs in proptest::collection::vec(0.0f64..1.0, 6),
    ) {
        // the process-wide table only grows over the cases of this test
        // (more rows, a larger x_max); whatever it already held, every
        // entry must equal a private table of just these rows, before
        // and after the request that grows it
        let alone = JlTable::build_rows(&first, x_max);
        let before = JlTable::shared_rows(&first, x_max);
        let after = JlTable::shared_rows(&more, x_max + stretch);
        prop_assert!(first.iter().chain(&more).all(|&l| after.has(l)));
        prop_assert!(after.x_max() >= x_max + stretch);
        for &l in &first {
            for x in offs.iter().map(|f| f * x_max) {
                let want = alone.eval(l, x);
                for got in [before.eval(l, x), after.eval(l, x)] {
                    prop_assert_eq!(want.0.to_bits(), got.0.to_bits(), "j l={} x={}", l, x);
                    prop_assert_eq!(want.1.to_bits(), got.1.to_bits(), "j' l={} x={}", l, x);
                }
            }
        }
    }

    #[test]
    fn bessel_bounded_by_one(l in 0usize..100, x in 0.0f64..200.0) {
        let j = sph_bessel_jl(l, x);
        prop_assert!(j.abs() <= 1.0 + 1e-12);
        prop_assert!(j.is_finite());
    }

    #[test]
    fn ylm_symmetric_under_parity(l in 0usize..40, m in 0usize..40, x in 0.0f64..1.0) {
        prop_assume!(m <= l);
        let sign = if (l + m) % 2 == 0 { 1.0 } else { -1.0 };
        let a = assoc_legendre_norm(l, m, x);
        let b = assoc_legendre_norm(l, m, -x);
        prop_assert!((a - sign * b).abs() < 1e-10 * a.abs().max(1.0));
    }
}
