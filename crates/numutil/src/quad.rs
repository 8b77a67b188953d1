//! Quadrature: Gauss–Legendre, Gauss–Laguerre, Romberg, and trapezoid
//! helpers.
//!
//! Gauss–Laguerre rules integrate the massive-neutrino Fermi–Dirac moments
//! (∫₀^∞ f(q) e^{-q} w(q) dq after factoring the exponential), while
//! Gauss–Legendre handles finite-interval background integrals and σ₈.

/// Nodes and weights of an `n`-point Gauss–Legendre rule on `[-1, 1]`,
/// computed by Newton iteration on the Legendre polynomial (accurate to
/// machine precision for n ≲ 1000).
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let mut x = vec![0.0; n];
    let mut w = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev-like initial guess for the i-th root.
        let mut z = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut pp = 0.0;
        for _ in 0..100 {
            // Evaluate P_n(z) and its derivative by recurrence.
            let mut p0 = 1.0;
            let mut p1 = 0.0;
            for j in 0..n {
                let p2 = p1;
                p1 = p0;
                p0 = ((2.0 * j as f64 + 1.0) * z * p1 - j as f64 * p2) / (j as f64 + 1.0);
            }
            pp = n as f64 * (z * p0 - p1) / (z * z - 1.0);
            let dz = p0 / pp;
            z -= dz;
            if dz.abs() < 1e-15 {
                break;
            }
        }
        x[i] = -z;
        x[n - 1 - i] = z;
        let wi = 2.0 / ((1.0 - z * z) * pp * pp);
        w[i] = wi;
        w[n - 1 - i] = wi;
    }
    (x, w)
}

/// Integrate `f` over `[a, b]` with an `n`-point Gauss–Legendre rule.
pub fn gl_integrate<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, n: usize) -> f64 {
    let (xs, ws) = gauss_legendre(n);
    let c = 0.5 * (b - a);
    let d = 0.5 * (b + a);
    xs.iter()
        .zip(&ws)
        .map(|(&x, &w)| w * f(c * x + d))
        .sum::<f64>()
        * c
}

/// Nodes and weights of an `n`-point Gauss–Laguerre rule:
/// `∫₀^∞ e^{-x} f(x) dx ≈ Σ w_i f(x_i)`.
///
/// Newton iteration on the Laguerre polynomial; good to near machine
/// precision for n ≲ 60, plenty for the ≤ 32-point neutrino grids.
pub fn gauss_laguerre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let mut x = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut z = 0.0f64;
    for i in 0..n {
        // Stroud & Secrest initial guesses.
        if i == 0 {
            z = 3.0 / (1.0 + 2.4 * n as f64);
        } else if i == 1 {
            z += 15.0 / (1.0 + 2.5 * n as f64);
        } else {
            let ai = i as f64 - 1.0;
            z += (1.0 + 2.55 * ai) / (1.9 * ai) * (z - x[i - 2]);
        }
        let mut pp = 0.0;
        let mut p1 = 0.0;
        for _ in 0..200 {
            p1 = 1.0;
            let mut p2 = 0.0;
            for j in 0..n {
                let p3 = p2;
                p2 = p1;
                p1 = ((2.0 * j as f64 + 1.0 - z) * p2 - j as f64 * p3) / (j as f64 + 1.0);
            }
            pp = n as f64 * (p1 - p2) / z;
            let dz = p1 / pp;
            z -= dz;
            if dz.abs() < 1e-14 * z.abs().max(1.0) {
                break;
            }
        }
        x[i] = z;
        // w_i = -1 / (n * P'_n(x_i) * P_{n-1}(x_i)) — expressed via pp:
        w[i] = -1.0 / (pp * n as f64 * poly_laguerre(n - 1, z));
        let _ = p1;
    }
    (x, w)
}

/// Laguerre polynomial `L_n(x)` by recurrence.
fn poly_laguerre(n: usize, x: f64) -> f64 {
    let mut p1 = 1.0;
    let mut p2 = 0.0;
    for j in 0..n {
        let p3 = p2;
        p2 = p1;
        p1 = ((2.0 * j as f64 + 1.0 - x) * p2 - j as f64 * p3) / (j as f64 + 1.0);
    }
    p1
}

/// Romberg integration of `f` over `[a, b]` to relative tolerance `tol`.
///
/// Returns `(value, estimated_error)`.  Falls back to the deepest level
/// (2¹⁶ panels) if the tolerance is not reached.
pub fn romberg<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> (f64, f64) {
    const KMAX: usize = 17;
    let mut r = [[0.0f64; KMAX]; KMAX];
    let mut h = b - a;
    r[0][0] = 0.5 * h * (f(a) + f(b));
    let mut n = 1usize;
    for k in 1..KMAX {
        h *= 0.5;
        // Trapezoid refinement: add the midpoints.
        let mut sum = 0.0;
        for i in 0..n {
            sum += f(a + (2 * i + 1) as f64 * h);
        }
        n *= 2;
        r[k][0] = 0.5 * r[k - 1][0] + h * sum;
        // Richardson extrapolation.
        let mut fac = 1.0;
        for j in 1..=k {
            fac *= 4.0;
            r[k][j] = r[k][j - 1] + (r[k][j - 1] - r[k - 1][j - 1]) / (fac - 1.0);
        }
        let err = (r[k][k] - r[k - 1][k - 1]).abs();
        if k >= 4 && err <= tol * r[k][k].abs().max(1e-300) {
            return (r[k][k], err);
        }
    }
    let last = KMAX - 1;
    (r[last][last], (r[last][last] - r[last - 1][last - 1]).abs())
}

/// Composite trapezoid rule over tabulated samples `(xs, ys)`.
pub fn trapz(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let mut sum = 0.0;
    for i in 1..xs.len() {
        sum += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gl_nodes_symmetric_and_weights_sum() {
        for n in [2usize, 5, 16, 64] {
            let (xs, ws) = gauss_legendre(n);
            let wsum: f64 = ws.iter().sum();
            assert!((wsum - 2.0).abs() < 1e-12, "n={n} wsum={wsum}");
            for i in 0..n {
                assert!((xs[i] + xs[n - 1 - i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gl_exact_for_polynomials() {
        // n-point rule is exact for degree 2n-1
        let val = gl_integrate(|x| x.powi(9) + 3.0 * x.powi(4) - x, -1.0, 1.0, 5);
        let exact = 2.0 * 3.0 / 5.0;
        assert!((val - exact).abs() < 1e-12, "val={val}");
    }

    #[test]
    fn gl_integrates_exp() {
        let val = gl_integrate(f64::exp, 0.0, 1.0, 12);
        assert!((val - (std::f64::consts::E - 1.0)).abs() < 1e-13);
    }

    #[test]
    fn laguerre_weights_sum_to_one() {
        // ∫ e^{-x} dx = 1
        for n in [4usize, 8, 16, 24, 32] {
            let (_, ws) = gauss_laguerre(n);
            let s: f64 = ws.iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "n={n} sum={s}");
        }
    }

    #[test]
    fn laguerre_moments() {
        // ∫ e^{-x} x^k dx = k!
        let (xs, ws) = gauss_laguerre(16);
        for (k, expect) in [(1u32, 1.0f64), (2, 2.0), (3, 6.0), (5, 120.0)] {
            let s: f64 = xs
                .iter()
                .zip(&ws)
                .map(|(&x, &w)| w * x.powi(k as i32))
                .sum();
            assert!((s - expect).abs() / expect < 1e-10, "k={k} s={s}");
        }
    }

    #[test]
    fn laguerre_fermi_dirac_density() {
        // ∫₀^∞ q²/(e^q+1) dq = (3/2) ζ(3) = 1.80309...
        let (xs, ws) = gauss_laguerre(24);
        let s: f64 = xs
            .iter()
            .zip(&ws)
            .map(|(&x, &w)| w * x * x * (x.exp() / (x.exp() + 1.0)))
            .sum();
        let exact = 1.5 * 1.202_056_903_159_594;
        assert!((s - exact).abs() / exact < 1e-8, "s={s} exact={exact}");
    }

    #[test]
    fn romberg_sine() {
        let (v, e) = romberg(f64::sin, 0.0, std::f64::consts::PI, 1e-12);
        assert!((v - 2.0).abs() < 1e-10, "v={v} err={e}");
    }

    #[test]
    fn romberg_sharp_gaussian() {
        let (v, _) = romberg(|x: f64| (-x * x / 0.02).exp(), -1.0, 1.0, 1e-10);
        let exact = (0.02f64 * std::f64::consts::PI).sqrt(); // erf(≫1) ≈ 1
        assert!((v - exact).abs() / exact < 1e-8, "v={v}");
    }

    #[test]
    fn trapz_linear_exact() {
        let xs = vec![0.0, 0.5, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((trapz(&xs, &ys) - 12.0).abs() < 1e-12);
    }
}
