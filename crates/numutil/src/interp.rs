//! Interpolation: natural cubic splines and piecewise-linear tables.
//!
//! The thermal history, background expansion, and transfer functions are
//! all tabulated once and then queried millions of times inside the ODE
//! right-hand side, so lookup speed matters.  Both interpolants use a
//! branch-light bisection search with a cached hint for monotone access
//! patterns.

/// Locate the interval `i` such that `xs[i] <= x < xs[i+1]` by bisection.
///
/// Returns `0` for `x` below the table and `n-2` above, i.e. evaluation
/// extrapolates linearly/cubically off the ends rather than panicking —
/// the physics tables are always built to generously cover the queried
/// range, and the integration tests assert that.
#[inline]
pub fn locate(xs: &[f64], x: f64) -> usize {
    debug_assert!(xs.len() >= 2);
    if x <= xs[0] {
        return 0;
    }
    let n = xs.len();
    if x >= xs[n - 1] {
        return n - 2;
    }
    let mut lo = 0usize;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`locate`] with a starting guess: hunt outward from `hint` with
/// geometrically growing steps to bracket `x`, then bisect inside the
/// bracket.  O(1) for the near-monotone query sequences an ODE driver
/// produces, and returns exactly the index [`locate`] would — the
/// bracketed interval is unique, so downstream interpolation arithmetic
/// is unchanged to the last bit.
#[inline]
pub fn locate_hunt(xs: &[f64], x: f64, hint: usize) -> usize {
    debug_assert!(xs.len() >= 2);
    let n = xs.len();
    if x <= xs[0] {
        return 0;
    }
    if x >= xs[n - 1] {
        return n - 2;
    }
    let mut lo = hint.min(n - 2);
    let mut hi;
    if xs[lo] <= x {
        // hunt upward
        if x < xs[lo + 1] {
            return lo;
        }
        let mut step = 1usize;
        hi = lo + 1;
        while xs[hi] <= x {
            lo = hi;
            hi = (lo + step).min(n - 1);
            step *= 2;
        }
    } else {
        // hunt downward (x > xs[0] guarantees termination)
        let mut step = 1usize;
        hi = lo;
        loop {
            lo = hi.saturating_sub(step);
            if xs[lo] <= x {
                break;
            }
            hi = lo;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Piecewise-linear interpolation over a strictly increasing abscissa.
#[derive(Debug, Clone)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Build from parallel arrays.  `xs` must be strictly increasing and
    /// at least two points long.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(xs.len() >= 2, "need at least two points");
        assert!(
            xs.windows(2).all(|w| w[1] > w[0]),
            "abscissa must be strictly increasing"
        );
        Self { xs, ys }
    }

    /// Interpolated value at `x` (linear extrapolation off the ends).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let i = locate(&self.xs, x);
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }

    /// The abscissa.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Natural cubic spline with precomputed second derivatives.
///
/// The abscissa `X` is owned (`Vec<f64>`, the default) or borrowed
/// (`&[f64]`): several splines over the same knots can share one
/// vector instead of each holding a copy.
#[derive(Debug, Clone)]
pub struct CubicSpline<X = Vec<f64>> {
    xs: X,
    ys: Vec<f64>,
    y2: Vec<f64>,
}

impl<X: std::ops::Deref<Target = [f64]>> CubicSpline<X> {
    /// Construct a natural spline (zero second derivative at both ends).
    pub fn natural(xs: X, ys: Vec<f64>) -> Self {
        Self::with_bc(xs, ys, None, None)
    }

    /// Construct a clamped spline with prescribed end-point first
    /// derivatives where given (`None` = natural end).
    pub fn with_bc(xs: X, ys: Vec<f64>, yp0: Option<f64>, ypn: Option<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        let n = xs.len();
        assert!(n >= 3, "need at least three points for a cubic spline");
        assert!(
            xs.windows(2).all(|w| w[1] > w[0]),
            "abscissa must be strictly increasing"
        );
        // Tridiagonal solve for the second derivatives (Numerical-Recipes
        // style forward sweep + back substitution).
        let mut y2 = vec![0.0; n];
        let mut u = vec![0.0; n];
        match yp0 {
            None => {
                y2[0] = 0.0;
                u[0] = 0.0;
            }
            Some(d) => {
                y2[0] = -0.5;
                u[0] = (3.0 / (xs[1] - xs[0])) * ((ys[1] - ys[0]) / (xs[1] - xs[0]) - d);
            }
        }
        for i in 1..n - 1 {
            let sig = (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1]);
            let p = sig * y2[i - 1] + 2.0;
            y2[i] = (sig - 1.0) / p;
            let dy1 = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]);
            let dy0 = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]);
            u[i] = (6.0 * (dy1 - dy0) / (xs[i + 1] - xs[i - 1]) - sig * u[i - 1]) / p;
        }
        let (qn, un) = match ypn {
            None => (0.0, 0.0),
            Some(d) => {
                let h = xs[n - 1] - xs[n - 2];
                (0.5, (3.0 / h) * (d - (ys[n - 1] - ys[n - 2]) / h))
            }
        };
        y2[n - 1] = (un - qn * u[n - 2]) / (qn * y2[n - 2] + 1.0);
        for i in (0..n - 1).rev() {
            y2[i] = y2[i] * y2[i + 1] + u[i];
        }
        Self { xs, ys, y2 }
    }

    /// The cubic on segment `i` evaluated at `x` — single source of the
    /// interpolation arithmetic, so the hinted and bisecting entry
    /// points are bitwise interchangeable.
    #[inline]
    fn segment_value(&self, i: usize, x: f64) -> f64 {
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.y2[i] + (b * b * b - b) * self.y2[i + 1]) * (h * h) / 6.0
    }

    /// First derivative of the segment-`i` cubic at `x`.
    #[inline]
    fn segment_deriv(&self, i: usize, x: f64) -> f64 {
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        (self.ys[i + 1] - self.ys[i]) / h
            + ((3.0 * b * b - 1.0) * self.y2[i + 1] - (3.0 * a * a - 1.0) * self.y2[i]) * h / 6.0
    }

    /// Spline value at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.segment_value(locate(&self.xs, x), x)
    }

    /// First derivative of the spline at `x`.
    #[inline]
    pub fn deriv(&self, x: f64) -> f64 {
        self.segment_deriv(locate(&self.xs, x), x)
    }

    /// [`Self::eval`] with a caller-held interval hint (updated in
    /// place).  Bitwise identical to `eval` for every `x`; only the
    /// interval search differs.
    #[inline]
    pub fn eval_hunt(&self, x: f64, hint: &mut usize) -> f64 {
        let i = locate_hunt(&self.xs, x, *hint);
        *hint = i;
        self.segment_value(i, x)
    }

    /// [`Self::deriv`] with a caller-held interval hint (updated in
    /// place).  Bitwise identical to `deriv` for every `x`.
    #[inline]
    pub fn deriv_hunt(&self, x: f64, hint: &mut usize) -> f64 {
        let i = locate_hunt(&self.xs, x, *hint);
        *hint = i;
        self.segment_deriv(i, x)
    }

    /// Definite integral of the spline from `xs[0]` to `x` (exact for the
    /// piecewise-cubic interpolant).
    pub fn integral_to(&self, x: f64) -> f64 {
        let iend = locate(&self.xs, x);
        let mut sum = 0.0;
        for i in 0..=iend {
            let hi = self.xs[i + 1].min(x).max(self.xs[i]);
            if i < iend {
                sum += self.segment_integral(i, self.xs[i + 1]);
            } else {
                sum += self.segment_integral(i, hi.max(self.xs[i]));
                // Extrapolated tail beyond the table:
                if x > self.xs[self.xs.len() - 1] {
                    // integrate the last cubic segment's extension
                    sum += self.segment_integral_range(i, self.xs[i + 1], x)
                }
            }
        }
        if x < self.xs[0] {
            // integral from xs[0] backwards uses the first segment's cubic
            return -self.segment_integral_range(0, x, self.xs[0]);
        }
        sum
    }

    /// Integral over segment `i` from `xs[i]` to `xu`.
    fn segment_integral(&self, i: usize, xu: f64) -> f64 {
        self.segment_integral_range(i, self.xs[i], xu)
    }

    /// Integral of segment `i`'s cubic between arbitrary bounds.
    fn segment_integral_range(&self, i: usize, xl: f64, xu: f64) -> f64 {
        let h = self.xs[i + 1] - self.xs[i];
        let prim = |x: f64| -> f64 {
            let a = (self.xs[i + 1] - x) / h;
            let b = (x - self.xs[i]) / h;
            // ∫ y dx with y = a y_i + b y_{i+1} + ((a³-a) y2_i + (b³-b) y2_{i+1}) h²/6
            // antiderivative in terms of a and b (da/dx = -1/h, db/dx = 1/h):
            let t1 = -h * a * a / 2.0 * self.ys[i] + h * b * b / 2.0 * self.ys[i + 1];
            let t2 = (-h * (a.powi(4) / 4.0 - a * a / 2.0) * self.y2[i]
                + h * (b.powi(4) / 4.0 - b * b / 2.0) * self.y2[i + 1])
                * (h * h)
                / 6.0;
            t1 + t2
        };
        prim(xu) - prim(xl)
    }

    /// The abscissa.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, a: f64, b: f64) -> Vec<f64> {
        (0..n)
            .map(|i| a + (b - a) * i as f64 / (n - 1) as f64)
            .collect()
    }

    #[test]
    fn locate_finds_interval() {
        let xs = [0.0, 1.0, 2.0, 5.0];
        assert_eq!(locate(&xs, -1.0), 0);
        assert_eq!(locate(&xs, 0.5), 0);
        assert_eq!(locate(&xs, 1.0), 1);
        assert_eq!(locate(&xs, 4.9), 2);
        assert_eq!(locate(&xs, 7.0), 2);
    }

    #[test]
    fn locate_hunt_agrees_with_locate_everywhere() {
        // irregular grid + every hint + a dense sweep of x, including
        // knots, off-table points, and both table ends
        let xs = [0.0, 0.7, 1.0, 2.0, 2.1, 5.0, 9.0];
        let mut queries: Vec<f64> = xs.to_vec();
        for i in 0..200 {
            queries.push(-1.0 + 11.0 * i as f64 / 199.0);
        }
        for hint in 0..xs.len() + 2 {
            for &x in &queries {
                assert_eq!(
                    locate_hunt(&xs, x, hint),
                    locate(&xs, x),
                    "x={x} hint={hint}"
                );
            }
        }
    }

    #[test]
    fn hunted_spline_is_bitwise_identical() {
        let xs = grid(64, -3.0, 4.0);
        let ys: Vec<f64> = xs.iter().map(|&x| (0.7 * x).sin() + 0.1 * x * x).collect();
        let sp = CubicSpline::natural(xs, ys);
        let mut hint = 0usize;
        // monotone up, then jump back down, then random-ish: every access
        // pattern must reproduce the bisecting path exactly
        let mut queries = Vec::new();
        for i in 0..300 {
            queries.push(-3.5 + 8.0 * i as f64 / 299.0);
        }
        for i in 0..300 {
            queries.push(4.5 - 8.0 * i as f64 / 299.0);
        }
        for &x in &queries {
            assert_eq!(sp.eval_hunt(x, &mut hint).to_bits(), sp.eval(x).to_bits());
            assert_eq!(sp.deriv_hunt(x, &mut hint).to_bits(), sp.deriv(x).to_bits());
        }
    }

    #[test]
    fn linear_reproduces_line() {
        let xs = grid(11, 0.0, 10.0);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let li = LinearInterp::new(xs, ys);
        for &x in &[0.3, 4.7, 9.99, -1.0, 12.0] {
            assert!((li.eval(x) - (3.0 * x - 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn spline_reproduces_cubic_on_interior() {
        // a clamped spline with exact end derivatives reproduces any cubic
        let f = |x: f64| 1.0 + x - 0.5 * x * x + 0.25 * x * x * x;
        let fp = |x: f64| 1.0 - x + 0.75 * x * x;
        let xs = grid(9, 0.0, 4.0);
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let sp = CubicSpline::with_bc(xs, ys, Some(fp(0.0)), Some(fp(4.0)));
        for i in 0..=40 {
            let x = 0.1 * i as f64;
            assert!(
                (sp.eval(x) - f(x)).abs() < 1e-10,
                "x={x} sp={} f={}",
                sp.eval(x),
                f(x)
            );
        }
    }

    #[test]
    fn spline_derivative_accuracy() {
        let xs = grid(60, 0.0, std::f64::consts::PI);
        let ys: Vec<f64> = xs.iter().map(|&x| x.sin()).collect();
        let sp = CubicSpline::with_bc(xs, ys, Some(1.0), Some(-1.0));
        for i in 1..30 {
            let x = 0.1 * i as f64;
            assert!(
                (sp.deriv(x) - x.cos()).abs() < 1e-5,
                "deriv mismatch at {x}"
            );
        }
    }

    #[test]
    fn spline_integral_of_sine() {
        let xs = grid(200, 0.0, std::f64::consts::PI);
        let ys: Vec<f64> = xs.iter().map(|&x| x.sin()).collect();
        let sp = CubicSpline::with_bc(xs, ys, Some(1.0), Some(-1.0));
        let integral = sp.integral_to(std::f64::consts::PI);
        assert!((integral - 2.0).abs() < 1e-8, "∫sin = {integral}");
        let half = sp.integral_to(std::f64::consts::PI / 2.0);
        assert!((half - 1.0).abs() < 1e-8, "∫sin half = {half}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn spline_rejects_unsorted() {
        let _ = CubicSpline::natural(vec![0.0, 2.0, 1.0], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn linear_rejects_mismatch() {
        let _ = LinearInterp::new(vec![0.0, 1.0], vec![0.0]);
    }
}
