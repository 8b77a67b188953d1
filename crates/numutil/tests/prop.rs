//! Property-based tests for the numerical utility layer.

use numutil::interp::{locate, CubicSpline, LinearInterp};
use numutil::quad::{gauss_laguerre, gauss_legendre, gl_integrate};
use numutil::roots::brent;
use proptest::prelude::*;

fn sorted_grid(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, n).prop_map(|steps| {
        let mut acc = 0.0;
        let mut out = Vec::with_capacity(steps.len() + 1);
        out.push(0.0);
        for s in steps {
            acc += s;
            out.push(acc);
        }
        out
    })
}

proptest! {
    #[test]
    fn locate_bounds_the_point(grid in sorted_grid(20), t in 0.0f64..1.0) {
        let x = grid[0] + t * (grid[grid.len()-1] - grid[0]);
        let i = locate(&grid, x);
        prop_assert!(i + 1 < grid.len());
        if x >= grid[0] && x <= grid[grid.len()-1] {
            prop_assert!(grid[i] <= x + 1e-12);
            prop_assert!(x <= grid[i+1] + 1e-12);
        }
    }

    #[test]
    fn linear_interp_within_data_range(grid in sorted_grid(15), t in 0.0f64..1.0) {
        let ys: Vec<f64> = grid.iter().map(|x| x.sin()).collect();
        let li = LinearInterp::new(grid.clone(), ys.clone());
        let x = grid[0] + t * (grid[grid.len()-1] - grid[0]);
        let v = li.eval(x);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // linear interpolation cannot overshoot the data range
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn spline_interpolates_knots(grid in sorted_grid(10)) {
        let ys: Vec<f64> = grid.iter().map(|x| (x * 1.3).cos()).collect();
        let sp = CubicSpline::natural(grid.clone(), ys.clone());
        for (x, y) in grid.iter().zip(&ys) {
            prop_assert!((sp.eval(*x) - y).abs() < 1e-10);
        }
    }

    #[test]
    fn gauss_legendre_integrates_linear_exactly(a in -5.0f64..0.0, b in 0.1f64..5.0, m in -3.0f64..3.0, c in -3.0f64..3.0) {
        let v = gl_integrate(|x| m*x + c, a, b, 4);
        let exact = 0.5*m*(b*b - a*a) + c*(b - a);
        prop_assert!((v - exact).abs() < 1e-10 * (1.0 + exact.abs()));
    }

    #[test]
    fn gl_weights_positive(n in 2usize..80) {
        let (_, ws) = gauss_legendre(n);
        prop_assert!(ws.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn laguerre_nodes_increasing(n in 2usize..32) {
        let (xs, ws) = gauss_laguerre(n);
        prop_assert!(xs.windows(2).all(|w| w[1] > w[0]));
        prop_assert!(ws.iter().all(|&w| w > 0.0));
        let s: f64 = ws.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-8);
    }

    #[test]
    fn brent_finds_root_of_shifted_cubic(r in -2.0f64..2.0) {
        let f = move |x: f64| (x - r) * ((x - r).powi(2) + 0.5);
        let root = brent(f, -10.0, 10.0, 1e-13).unwrap();
        prop_assert!((root - r).abs() < 1e-9);
    }
}
