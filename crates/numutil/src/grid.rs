//! Grid builders: linear and logarithmic.

/// `n` points uniformly spaced on `[a, b]` inclusive.
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n)
        .map(|i| a + (b - a) * i as f64 / (n - 1) as f64)
        .collect()
}

/// `n` points logarithmically spaced on `[a, b]` inclusive (`a, b > 0`).
pub fn logspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(a > 0.0 && b > 0.0, "logspace requires positive bounds");
    linspace(a.ln(), b.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

/// Strictly-increasing check used by grid consumers.
pub fn is_strictly_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] > w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints() {
        let g = linspace(1.0, 3.0, 5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], 1.0);
        assert_eq!(g[4], 3.0);
        assert!((g[2] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn logspace_ratios_constant() {
        let g = logspace(1e-4, 1.0, 5);
        let r0 = g[1] / g[0];
        for w in g.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-12);
        }
        assert!((g[0] - 1e-4).abs() < 1e-18);
        assert!((g[4] - 1.0).abs() < 1e-12);
    }
}
