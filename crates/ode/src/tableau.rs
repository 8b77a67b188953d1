//! The Butcher tableau of the one embedded pair the driver runs.
//!
//! The Verner 6(5) coefficients are exactly those of netlib's DVERK (the
//! integrator named in the paper); their order properties are verified in
//! the test suite both algebraically (row-sum and order-condition checks)
//! and empirically (error-scaling tests in the driver module).

/// An embedded Runge–Kutta pair in standard Butcher form.  `b` weights the
/// propagated (higher-order) solution; `b_err[i] = b[i] − b̂[i]` gives the
/// embedded error estimate directly.
#[derive(Debug)]
pub struct Tableau {
    /// Stage count.
    pub stages: usize,
    /// Nodes `c_i`.
    pub c: &'static [f64],
    /// Row-major lower-triangular stage coefficients: row `i` holds
    /// `a_{i,0} … a_{i,i-1}` flattened (row `0` is empty).
    pub a: &'static [f64],
    /// Propagated-solution weights.
    pub b: &'static [f64],
    /// Error weights `b − b̂`.
    pub b_err: &'static [f64],
}

impl Tableau {
    /// Offset of row `i` in the flattened `a` array: `i(i-1)/2`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * (i - 1) / 2;
        &self.a[start..start + i]
    }
}

// --- Verner 6(5), the DVERK pair (Verner 1978) -------------------------

const V65_C: [f64; 8] = [
    0.0,
    1.0 / 6.0,
    4.0 / 15.0,
    2.0 / 3.0,
    5.0 / 6.0,
    1.0,
    1.0 / 15.0,
    1.0,
];

const V65_A: [f64; 28] = [
    // row 1
    1.0 / 6.0,
    // row 2
    4.0 / 75.0,
    16.0 / 75.0,
    // row 3
    5.0 / 6.0,
    -8.0 / 3.0,
    5.0 / 2.0,
    // row 4
    -165.0 / 64.0,
    55.0 / 6.0,
    -425.0 / 64.0,
    85.0 / 96.0,
    // row 5
    12.0 / 5.0,
    -8.0,
    4015.0 / 612.0,
    -11.0 / 36.0,
    88.0 / 255.0,
    // row 6
    -8263.0 / 15000.0,
    124.0 / 75.0,
    -643.0 / 680.0,
    -81.0 / 250.0,
    2484.0 / 10625.0,
    0.0,
    // row 7
    3501.0 / 1720.0,
    -300.0 / 43.0,
    297275.0 / 52632.0,
    -319.0 / 2322.0,
    24068.0 / 84065.0,
    0.0,
    3850.0 / 26703.0,
];

/// 6th-order weights.
const V65_B: [f64; 8] = [
    3.0 / 40.0,
    0.0,
    875.0 / 2244.0,
    23.0 / 72.0,
    264.0 / 1955.0,
    0.0,
    125.0 / 11592.0,
    43.0 / 616.0,
];

/// 5th-order embedded weights.
const V65_BHAT: [f64; 8] = [
    13.0 / 160.0,
    0.0,
    2375.0 / 5984.0,
    5.0 / 16.0,
    12.0 / 85.0,
    3.0 / 44.0,
    0.0,
    0.0,
];

const V65_BERR: [f64; 8] = [
    V65_B[0] - V65_BHAT[0],
    V65_B[1] - V65_BHAT[1],
    V65_B[2] - V65_BHAT[2],
    V65_B[3] - V65_BHAT[3],
    V65_B[4] - V65_BHAT[4],
    V65_B[5] - V65_BHAT[5],
    V65_B[6] - V65_BHAT[6],
    V65_B[7] - V65_BHAT[7],
];

/// The DVERK tableau.
pub static VERNER65: Tableau = Tableau {
    stages: 8,
    c: &V65_C,
    a: &V65_A,
    b: &V65_B,
    b_err: &V65_BERR,
};

/// Order of the solution [`VERNER65`] propagates.
pub const ORDER: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    fn check_consistency(t: &Tableau, name: &str) {
        // Row-sum condition: Σ_j a_ij = c_i.
        for i in 1..t.stages {
            let s: f64 = t.row(i).iter().sum();
            assert!(
                (s - t.c[i]).abs() < 1e-14,
                "{name}: row {i} sums to {s}, c = {}",
                t.c[i]
            );
        }
        // First-order condition: Σ b_i = 1.
        let sb: f64 = t.b.iter().sum();
        assert!((sb - 1.0).abs() < 1e-14, "{name}: Σb = {sb}");
        // The embedded solution must also be consistent: Σ (b_i - e_i) = 1.
        let sbh: f64 = t.b.iter().zip(t.b_err).map(|(b, e)| b - e).sum();
        assert!((sbh - 1.0).abs() < 1e-14, "{name}: Σb̂ = {sbh}");
        // Second-order condition: Σ b_i c_i = 1/2.
        let sc: f64 = t.b.iter().zip(t.c).map(|(b, c)| b * c).sum();
        assert!((sc - 0.5).abs() < 1e-13, "{name}: Σb·c = {sc}");
        // Third-order condition: Σ b_i c_i² = 1/3.
        let sc2: f64 = t.b.iter().zip(t.c).map(|(b, c)| b * c * c).sum();
        assert!((sc2 - 1.0 / 3.0).abs() < 1e-13, "{name}: Σb·c² = {sc2}");
    }

    #[test]
    fn verner_consistent() {
        check_consistency(&VERNER65, "Verner65");
    }

    #[test]
    fn higher_order_conditions_verner() {
        let t = &VERNER65;
        // Σ b_i c_i³ = 1/4, Σ b_i c_i⁴ = 1/5, Σ b_i c_i⁵ = 1/6 (quadrature-type)
        for (p, expect) in [(3i32, 0.25), (4, 0.2), (5, 1.0 / 6.0)] {
            let s: f64 = t.b.iter().zip(t.c).map(|(b, c)| b * c.powi(p)).sum();
            assert!((s - expect).abs() < 1e-13, "order cond c^{p}: {s}");
        }
        // Σ_i b_i Σ_j a_ij c_j = 1/6 (the τ(3,2) tree condition).
        let mut s = 0.0;
        for i in 1..t.stages {
            let inner: f64 = t.row(i).iter().zip(t.c).map(|(a, c)| a * c).sum();
            s += t.b[i] * inner;
        }
        assert!((s - 1.0 / 6.0).abs() < 1e-13, "τ32: {s}");
    }

    #[test]
    fn error_weights_sum_to_zero() {
        // Both solutions are consistent, so Σ b_err = 0.
        let s: f64 = VERNER65.b_err.iter().sum();
        assert!(s.abs() < 1e-14, "Σb_err = {s}");
    }
}
