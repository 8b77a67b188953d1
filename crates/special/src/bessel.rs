//! Spherical Bessel functions `j_l(x)`.
//!
//! Strategy: for `x > l` the upward recurrence is stable; for `x <= l` we
//! run Miller's downward recurrence from a safely high starting order and
//! normalize against `j_0`.  Small arguments use the series limit
//! `j_l(x) → x^l / (2l+1)!!` to avoid under/overflow.

/// `j_0(x) = sin(x)/x`, with the series limit at the origin.
#[inline]
pub fn j0(x: f64) -> f64 {
    if x.abs() < 1e-6 {
        1.0 - x * x / 6.0
    } else {
        x.sin() / x
    }
}

/// `j_1(x) = sin(x)/x² − cos(x)/x`.
#[inline]
pub fn j1(x: f64) -> f64 {
    if x.abs() < 1e-2 {
        // the closed form cancels two ~1/x terms, losing |x|⁻¹·ε
        // absolutely — ruinous for kernels that divide by x² (the
        // line-of-sight projection).  Three series terms are exact to
        // machine precision on this range (truncation ~ x⁶/15120).
        let x2 = x * x;
        x * (1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0)
    } else {
        x.sin() / (x * x) - x.cos() / x
    }
}

/// Double factorial `(2l+1)!!` in log space to avoid overflow.
fn ln_double_factorial_odd(l: usize) -> f64 {
    // (2l+1)!! = (2l+1)! / (2^l l!)
    let mut s = 0.0;
    let mut m = 2 * l + 1;
    while m > 1 {
        s += (m as f64).ln();
        m -= 2;
    }
    s
}

/// Spherical Bessel function `j_l(x)` for `x >= 0`.
pub fn sph_bessel_jl(l: usize, x: f64) -> f64 {
    assert!(x >= 0.0, "sph_bessel_jl requires x >= 0");
    if l == 0 {
        return j0(x);
    }
    if l == 1 {
        return j1(x);
    }
    // Tiny argument: series leading term (guard against total underflow).
    let lf = l as f64;
    if x < 1e-10 * (lf + 1.0) {
        let ln_val = lf * x.max(1e-300).ln() - ln_double_factorial_odd(l);
        return if ln_val < -700.0 { 0.0 } else { ln_val.exp() };
    }
    if x > lf {
        // Upward recurrence: j_{n+1} = (2n+1)/x j_n - j_{n-1}
        let mut jm = j0(x);
        let mut j = j1(x);
        for n in 1..l {
            let jn = (2.0 * n as f64 + 1.0) / x * j - jm;
            jm = j;
            j = jn;
        }
        j
    } else {
        // Downward (Miller). Start high enough above l.
        let extra = (x.sqrt() * 15.0) as usize + 36;
        let lstart = l + extra;
        let mut jp = 0.0f64;
        let mut j = 1e-30f64;
        let mut jl = 0.0f64;
        let mut j0acc = 0.0f64;
        for n in (1..=lstart).rev() {
            let jm = (2.0 * n as f64 + 1.0) / x * j - jp;
            jp = j;
            j = jm;
            if n - 1 == l {
                jl = j;
            }
            // renormalize on the fly to dodge overflow
            if j.abs() > 1e250 {
                jp /= 1e250;
                j /= 1e250;
                jl /= 1e250;
            }
        }
        j0acc += j; // j now holds the downward estimate of j_0
        let scale = j0(x) / j0acc;
        jl * scale
    }
}

/// Fill `out[l] = j_l(x)` for `l = 0..out.len()` with one downward pass
/// (much cheaper than `out.len()` independent calls).
pub fn sph_bessel_jl_array(x: f64, out: &mut [f64]) {
    let lmax = out.len().saturating_sub(1);
    if out.is_empty() {
        return;
    }
    out[0] = j0(x);
    if lmax == 0 {
        return;
    }
    out[1] = j1(x);
    if x > lmax as f64 {
        for n in 1..lmax {
            out[n + 1] = (2.0 * n as f64 + 1.0) / x * out[n] - out[n - 1];
        }
        return;
    }
    if x < 1e-12 {
        // the Miller sweep divides by x; use the series leading term
        // instead.  Zero-filling here (the old behaviour) disagreed with
        // the scalar path, which returns j_l ≈ x^l/(2l+1)!! — nonzero
        // well below x = 1e-12 for small l (j_2(1e-13) ≈ 6.7e-28).
        let lnx = x.max(1e-300).ln();
        for (l, v) in out.iter_mut().enumerate().skip(2) {
            let ln_val = l as f64 * lnx - ln_double_factorial_odd(l);
            *v = if ln_val < -700.0 { 0.0 } else { ln_val.exp() };
        }
        return;
    }
    // Single Miller sweep.
    let extra = (x.sqrt() * 15.0) as usize + 36;
    let lstart = lmax + extra;
    let mut jp = 0.0f64;
    let mut j = 1e-30f64;
    let mut tmp = vec![0.0f64; lmax + 1];
    for n in (1..=lstart).rev() {
        let jm = (2.0 * n as f64 + 1.0) / x * j - jp;
        jp = j;
        j = jm;
        if n - 1 <= lmax {
            tmp[n - 1] = j;
        }
        if j.abs() > 1e250 {
            jp /= 1e250;
            j /= 1e250;
            for v in tmp.iter_mut() {
                *v /= 1e250;
            }
        }
    }
    let scale = j0(x) / tmp[0];
    for (o, t) in out.iter_mut().zip(&tmp) {
        *o = t * scale;
    }
}

// ---------------------------------------------------------------------------
// Cached j_l / j_l' table for the line-of-sight projection
// ---------------------------------------------------------------------------

/// Node spacing of [`JlTable`].  Cubic-Hermite interpolation between
/// nodes carrying exact derivatives has error `~ dx⁴/384 · max|j⁗| ≈
/// 2·10⁻⁴` of the local envelope at this spacing — far below the
/// line-of-sight method's own truncation error.
pub const JL_TABLE_DX: f64 = 0.5;

/// First `x` at which `j_l` is non-negligible: below `ν − 7ν^{1/3} − 2`
/// (`ν = l + ½`) the function is smaller than ~10⁻⁵ of its peak, so the
/// table rows are windowed to start there.  Queries below the window
/// evaluate to exactly zero.
pub fn jl_window_start(l: usize) -> f64 {
    let nu = l as f64 + 0.5;
    (nu - 7.0 * nu.cbrt() - 2.0).max(0.0)
}

/// Largest `l` whose window includes `x` (inverse of
/// [`jl_window_start`]).
fn jl_window_lmax(x: f64) -> usize {
    let mut l = (x + 7.0 * x.max(1.0).cbrt() + 14.0) as usize;
    while l > 0 && jl_window_start(l) > x {
        l -= 1;
    }
    while jl_window_start(l + 1) <= x {
        l += 1;
    }
    l
}

/// `(j_l(x), j_l'(x))` evaluated directly: the scalar recurrences for
/// `j_l`, and `j_l' = j_{l−1} − (l+1)/x · j_l` for the derivative (its
/// `x → 0` limit is `δ_{l1}/3`).
pub fn sph_bessel_jl_pair(l: usize, x: f64) -> (f64, f64) {
    let j = sph_bessel_jl(l, x);
    let dj = if l == 0 {
        -sph_bessel_jl(1, x)
    } else if x < 1e-14 {
        if l == 1 {
            1.0 / 3.0
        } else {
            0.0
        }
    } else {
        sph_bessel_jl(l - 1, x) - (l as f64 + 1.0) / x * j
    };
    (j, dj)
}

/// One windowed row of the table: values and derivatives of `j_l` at
/// the uniform nodes `x = i·JL_TABLE_DX`, `i ≥ i0`.
#[derive(Debug, Clone)]
struct JlRow {
    /// First node index: the row covers `x ≥ i0 · JL_TABLE_DX`.
    i0: usize,
    /// `j_l` at the nodes.
    j: Vec<f64>,
    /// `j_l'` at the nodes (from the recurrence
    /// `j_l' = j_{l−1} − (l+1)/x · j_l`, exact at the nodes).
    dj: Vec<f64>,
}

/// Slot-map entry of a multipole the table has no row for.
const NO_ROW: u32 = u32::MAX;

/// Precomputed `j_l(x)` / `j_l'(x)` at *requested* multipoles over the
/// projection grid, with interpolated lookup.
///
/// The table holds one row per requested `l` and nothing else: the
/// line-of-sight assembly reads `j_l` at its ~60 node multipoles only,
/// and a row is up to 32 kB per 1 000 of `x_max`, so the 63 node rows of
/// `l_max = 1500` at `x_max = 3010` take 5 MB where all 1 501 rows took
/// 106 MB.  Rows are also *windowed*: row `l` starts at
/// [`jl_window_start`]`(l)`, where the function rises from zero.
///
/// Node values depend only on `(l, x)` — one downward Miller sweep per
/// node, carried to the node's own window `l_max` whatever rows were
/// asked for — so a row is bit-identical in every table that has it,
/// and growing a cached table never changes an existing entry.
///
/// Lookup is cubic-Hermite in both `j` and `j'`: each uses the exact
/// node value and the exact node derivative of the quantity being
/// interpolated (`j''` at the nodes comes from the Bessel ODE
/// identity), giving `O(dx⁴)` accuracy for both.
#[derive(Debug, Clone)]
pub struct JlTable {
    /// The tabulated multipoles, strictly increasing.
    ls: Vec<usize>,
    /// `l → index into rows`, [`NO_ROW`] where `l` was not requested.
    slot: Vec<u32>,
    x_max: f64,
    rows: Vec<JlRow>,
}

impl JlTable {
    /// Build a fresh table with a row for each of `ls` (any order,
    /// repeats ignored), covering `x ∈ [0, x_max]`.
    pub fn build_rows(ls: &[usize], x_max: f64) -> Self {
        let mut ls = ls.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let l_top = ls.last().copied().unwrap_or(0);
        assert!(
            l_top < NO_ROW as usize,
            "multipole {l_top} is beyond the table's slot map"
        );
        let x_max = x_max.max(JL_TABLE_DX);
        let i_max = (x_max / JL_TABLE_DX).ceil() as usize + 1;
        let mut slot = vec![NO_ROW; if ls.is_empty() { 0 } else { l_top + 1 }];
        let mut rows = Vec::with_capacity(ls.len());
        for (at, &l) in ls.iter().enumerate() {
            slot[l] = at as u32;
            let i0 = (jl_window_start(l) / JL_TABLE_DX).ceil() as usize;
            // a row takes every node from its window to the table's end
            let len = (i_max + 1).saturating_sub(i0);
            rows.push(JlRow {
                i0,
                j: Vec::with_capacity(len),
                dj: Vec::with_capacity(len),
            });
        }
        let mut buf = Vec::new();
        for i in 0..=i_max {
            let x = i as f64 * JL_TABLE_DX;
            // sweep to the window l_max of this node (not of the table)
            // so the node values are pure functions of (l, x)
            let wl = jl_window_lmax(x);
            buf.resize(wl + 2, 0.0);
            sph_bessel_jl_array(x, &mut buf);
            for (&l, row) in ls.iter().zip(rows.iter_mut()) {
                if l > wl {
                    break;
                }
                if i < row.i0 {
                    continue;
                }
                row.j.push(buf[l]);
                row.dj.push(if i == 0 {
                    // j_l'(0) = δ_{l1}/3
                    if l == 1 {
                        1.0 / 3.0
                    } else {
                        0.0
                    }
                } else if l == 0 {
                    -buf[1]
                } else {
                    buf[l - 1] - (l as f64 + 1.0) / x * buf[l]
                });
            }
        }
        Self {
            ls,
            slot,
            x_max,
            rows,
        }
    }

    /// Build a fresh table with every row `l = 0..=l_max`.
    pub fn build(l_max: usize, x_max: f64) -> Self {
        Self::build_rows(&(0..=l_max).collect::<Vec<_>>(), x_max)
    }

    /// Largest tabulated multipole.
    pub fn l_max(&self) -> usize {
        self.ls.last().copied().unwrap_or(0)
    }

    /// Largest tabulated argument.
    pub fn x_max(&self) -> f64 {
        self.x_max
    }

    /// Whether the table has a row for `l`.
    pub fn has(&self, l: usize) -> bool {
        self.slot.get(l).is_some_and(|&at| at != NO_ROW)
    }

    /// Bytes of heap the table holds, by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ls.capacity() * size_of::<usize>()
            + self.slot.capacity() * size_of::<u32>()
            + self.rows.capacity() * size_of::<JlRow>()
            + self
                .rows
                .iter()
                .map(|r| (r.j.capacity() + r.dj.capacity()) * size_of::<f64>())
                .sum::<usize>()
    }

    /// The process-wide cached table, grown to hold every row
    /// `0..=l_max` out to `x_max` — see [`Self::shared_rows`].
    pub fn shared(l_max: usize, x_max: f64) -> std::sync::Arc<JlTable> {
        Self::shared_rows(&(0..=l_max).collect::<Vec<_>>(), x_max)
    }

    /// The process-wide cached table, grown to hold at least the rows
    /// `ls` out to `x_max`.  The cache only ever grows (to the union of
    /// the rows and the largest `x_max` asked of it); because node
    /// values are independent of what else is tabulated, entries shared
    /// between the old and new coverage are bitwise identical after
    /// growth.
    pub fn shared_rows(ls: &[usize], x_max: f64) -> std::sync::Arc<JlTable> {
        use std::sync::{Arc, Mutex, PoisonError};
        static CACHE: Mutex<Option<Arc<JlTable>>> = Mutex::new(None);
        // a build that panicked left the slot empty or holding a
        // finished table — both valid — so a poisoned lock is recovered
        let mut slot = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = slot.as_ref() {
            if t.x_max >= x_max && ls.iter().all(|&l| t.has(l)) {
                return Arc::clone(t);
            }
        }
        // let go of the old table before building its successor, so the
        // two are never resident together
        let (mut union, x_cur) = match slot.take() {
            Some(old) => (old.ls.clone(), old.x_max),
            None => (Vec::new(), 0.0),
        };
        union.extend_from_slice(ls);
        let fresh = Arc::new(JlTable::build_rows(&union, x_max.max(x_cur)));
        *slot = Some(Arc::clone(&fresh));
        fresh
    }

    /// `(j_l(x), j_l'(x))` by cubic-Hermite interpolation.  Exactly zero
    /// below the row window (where `j_l` is negligible).
    ///
    /// A query outside the table's coverage — an `l` it has no row for,
    /// or `x` beyond [`Self::x_max`] — is a caller bug and fails a
    /// `debug_assert!`.  In release builds it is answered by direct
    /// evaluation ([`sph_bessel_jl_pair`]: exact, and much slower),
    /// never by extrapolating the last interval.
    #[inline]
    pub fn eval(&self, l: usize, x: f64) -> (f64, f64) {
        let row = match self.slot.get(l) {
            Some(&at) if at != NO_ROW && x <= self.x_max => &self.rows[at as usize],
            _ => return self.uncovered(l, x),
        };
        let u = x / JL_TABLE_DX - row.i0 as f64;
        if u < 0.0 {
            return (0.0, 0.0);
        }
        let n = row.j.len();
        if n < 2 {
            // window opens within the last node spacing of x_max — the
            // function is still negligible over the covered range
            return (0.0, 0.0);
        }
        let i = (u as usize).min(n - 2);
        let t = u - i as f64;
        let dx = JL_TABLE_DX;
        let xa = (row.i0 + i) as f64 * dx;
        let xb = xa + dx;
        let (ja, da) = (row.j[i], row.dj[i]);
        let (jb, db) = (row.j[i + 1], row.dj[i + 1]);
        // Hermite basis
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        let j = h00 * ja + h10 * dx * da + h01 * jb + h11 * dx * db;
        // j' gets its own Hermite: node derivative of j' is j'', exact
        // from the Bessel ODE  j'' = (l(l+1)/x² − 1) j − (2/x) j'
        let ll1 = (l * (l + 1)) as f64;
        let dda = if xa > 0.0 {
            (ll1 / (xa * xa) - 1.0) * ja - 2.0 / xa * da
        } else {
            // j''(0): −1/3 for l = 0, 2/15 for l = 2, else 0
            match l {
                0 => -1.0 / 3.0,
                2 => 2.0 / 15.0,
                _ => 0.0,
            }
        };
        let ddb = (ll1 / (xb * xb) - 1.0) * jb - 2.0 / xb * db;
        let dj = h00 * da + h10 * dx * dda + h01 * db + h11 * dx * ddb;
        (j, dj)
    }

    /// The out-of-coverage arm of [`Self::eval`].
    #[cold]
    fn uncovered(&self, l: usize, x: f64) -> (f64, f64) {
        debug_assert!(
            false,
            "JlTable::eval(l = {l}, x = {x}) outside the table: {} rows up to l = {}, x_max = {}",
            self.rows.len(),
            self.l_max(),
            self.x_max
        );
        sph_bessel_jl_pair(l, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values verified against scipy.special.spherical_jn.
    const REFS: &[(usize, f64, f64)] = &[
        (0, 0.5, 0.958_851_077_208_406),
        (1, 0.5, 0.162_537_030_636_066_6),
        (2, 1.0, 0.062_035_052_011_373_86),
        (2, 10.0, 0.077_942_193_628_562_45),
        (5, 1.0, 9.256_115_861_125_816e-5),
        (5, 10.0, -0.055_534_511_621_452_18),
        (10, 5.0, 4.073_442_442_494_604e-4),
        (10, 25.0, -0.036_253_285_601_128_57),
        (50, 10.0, 2.230_696_023_218_647e-31),
        (50, 60.0, -0.021_230_978_268_738_99),
        (100, 120.0, 0.010_398_358_612_379_5),
    ];

    #[test]
    fn matches_reference_values() {
        for &(l, x, expect) in REFS {
            let got = sph_bessel_jl(l, x);
            let tol = 1e-9 * expect.abs().max(1e-12);
            assert!(
                (got - expect).abs() < tol.max(1e-13),
                "j_{l}({x}) = {got:e}, expect {expect:e}"
            );
        }
    }

    #[test]
    fn array_matches_scalar() {
        for &x in &[0.3, 2.0, 17.5, 80.0] {
            let mut arr = vec![0.0; 61];
            sph_bessel_jl_array(x, &mut arr);
            for l in (0..=60).step_by(7) {
                let s = sph_bessel_jl(l, x);
                assert!(
                    (arr[l] - s).abs() < 1e-10 * s.abs().max(1e-10),
                    "l={l} x={x}: array={} scalar={s}",
                    arr[l]
                );
            }
        }
    }

    #[test]
    fn small_argument_series() {
        // j_2(x) ≈ x²/15 for small x
        let x = 1e-4;
        assert!((sph_bessel_jl(2, x) - x * x / 15.0).abs() < 1e-16);
        // j_3(x) ≈ x³/105
        assert!((sph_bessel_jl(3, x) - x * x * x / 105.0).abs() < 1e-19);
    }

    #[test]
    fn zero_argument() {
        assert_eq!(sph_bessel_jl(0, 0.0), 1.0);
        assert_eq!(sph_bessel_jl(3, 0.0), 0.0);
        assert_eq!(sph_bessel_jl(500, 0.0), 0.0);
    }

    #[test]
    fn satisfies_recurrence() {
        // (2l+1)/x j_l = j_{l-1} + j_{l+1}
        for &x in &[3.0, 12.0, 40.0] {
            for l in [2usize, 5, 11, 30] {
                let lhs = (2.0 * l as f64 + 1.0) / x * sph_bessel_jl(l, x);
                let rhs = sph_bessel_jl(l - 1, x) + sph_bessel_jl(l + 1, x);
                assert!(
                    (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1e-8),
                    "recurrence fails at l={l}, x={x}"
                );
            }
        }
    }

    #[test]
    fn array_small_x_matches_scalar_series() {
        // the pre-fix array path zero-filled every l ≥ 2 below x = 1e-12,
        // disagreeing with the scalar series limit
        for &x in &[1e-13, 1e-12 * 0.999, 3e-11] {
            let mut arr = vec![0.0; 8];
            sph_bessel_jl_array(x, &mut arr);
            for (l, &a) in arr.iter().enumerate() {
                let s = sph_bessel_jl(l, x);
                assert!(
                    (a - s).abs() <= 1e-9 * s.abs(),
                    "l={l} x={x:e}: array={a:e} scalar={s:e}"
                );
            }
            assert!(arr[2] > 0.0, "j_2({x:e}) must not underflow to zero");
        }
    }

    #[test]
    fn j1_small_argument_is_fully_accurate() {
        // regression: the closed form loses ~|x|⁻¹·ε to cancellation,
        // which the 1/x² projection kernels amplify; the series branch
        // must hold to a few ulps across its whole range
        for &x in &[1e-6f64, 1e-4, 1e-3, 5e-3, 9.9e-3] {
            let reference = x / 3.0 - x.powi(3) / 30.0 + x.powi(5) / 840.0 - x.powi(7) / 45360.0;
            let got = j1(x);
            assert!(
                (got - reference).abs() <= 4.0 * reference.abs() * f64::EPSILON,
                "j1({x:e}) = {got:e}, reference {reference:e}"
            );
        }
        // continuity across the series/closed-form switch — the jump
        // is the closed form's own cancellation error, ~|x|⁻¹·ε
        let a = j1(1e-2 - 1e-12);
        let b = j1(1e-2 + 1e-12);
        assert!((a - b).abs() < 5e-12, "{a:e} vs {b:e}");
    }

    #[test]
    fn table_nodes_match_direct_evaluation() {
        // Property: table node values (one Miller sweep per node) agree
        // with the independent scalar evaluation.  Near the zeros of
        // j_l the relative ulp distance is unbounded for any two
        // algorithms, so the documented contract is absolute: the error
        // stays within 64 ulps of the 1/x amplitude envelope.
        let table = JlTable::build(80, 60.0);
        for l in [0usize, 1, 2, 7, 23, 45, 80] {
            let mut i = 0usize;
            loop {
                let x = jl_window_start(l) + (i as f64) * 7.0 * JL_TABLE_DX;
                if x > 59.0 {
                    break;
                }
                i += 1;
                let node = (x / JL_TABLE_DX).ceil() * JL_TABLE_DX;
                let (j, _) = table.eval(l, node);
                let direct = sph_bessel_jl(l, node);
                let envelope = 1.0 / node.max(1.0);
                let err = (j - direct).abs();
                assert!(
                    err <= 64.0 * envelope * f64::EPSILON,
                    "l={l} x={node}: table={j:e} direct={direct:e} ({} envelope-ulps)",
                    err / (envelope * f64::EPSILON)
                );
            }
        }
    }

    #[test]
    fn table_nodes_satisfy_the_recurrence() {
        // (2l+1)/x j_l = j_{l−1} + j_{l+1} across rows at shared nodes;
        // all three values come from the same per-node sweep, so the
        // residual is pure rounding (documented: ≤ 16 ulps of the
        // dominant term)
        let table = JlTable::build(40, 50.0);
        for l in [2usize, 5, 17, 39] {
            for i in 1..40 {
                let x = i as f64 * JL_TABLE_DX * 2.0 + JL_TABLE_DX;
                if x >= 49.0 || x <= jl_window_start(l + 1) {
                    continue;
                }
                let (jm, _) = table.eval(l - 1, x);
                let (j, _) = table.eval(l, x);
                let (jp, _) = table.eval(l + 1, x);
                let lhs = (2.0 * l as f64 + 1.0) / x * j;
                let rhs = jm + jp;
                // the residual is rounding noise in the *operands*
                // (jm + jp cancels near zeros of j_l), so scale the
                // bound to the largest operand: ≤ 16 ulps of it
                let scale = jm.abs().max(jp.abs()).max(lhs.abs()).max(1e-30);
                assert!(
                    (lhs - rhs).abs() <= 16.0 * scale * f64::EPSILON,
                    "recurrence at l={l}, x={x}: lhs={lhs:e} rhs={rhs:e}"
                );
            }
        }
    }

    #[test]
    fn table_interpolation_tracks_the_function() {
        // off-node queries: cubic Hermite with exact node derivatives is
        // good to ~2e-4 of the envelope at dx = 0.5
        let table = JlTable::build(60, 80.0);
        for l in [2usize, 10, 31, 60] {
            for i in 0..200 {
                let x = jl_window_start(l) + 0.37 + i as f64 * 0.391;
                if x > 79.0 {
                    break;
                }
                let (j, dj) = table.eval(l, x);
                let direct = sph_bessel_jl(l, x);
                let ddirect = if l == 0 {
                    -sph_bessel_jl(1, x)
                } else {
                    sph_bessel_jl(l - 1, x) - (l as f64 + 1.0) / x * sph_bessel_jl(l, x)
                };
                let envelope = 1.0 / x.max(1.0);
                assert!(
                    (j - direct).abs() < 3e-4 * envelope,
                    "j l={l} x={x}: table={j:e} direct={direct:e}"
                );
                assert!(
                    (dj - ddirect).abs() < 3e-4 * envelope,
                    "j' l={l} x={x}: table={dj:e} direct={ddirect:e}"
                );
            }
        }
    }

    #[test]
    fn table_edge_cases_at_the_origin() {
        let table = JlTable::build(5, 10.0);
        // l = 0: j_0(0) = 1, j_0'(0) = 0
        let (j, dj) = table.eval(0, 0.0);
        assert!((j - 1.0).abs() < 1e-12 && dj.abs() < 1e-12, "({j}, {dj})");
        // l = 1: j_1(0) = 0, j_1'(0) = 1/3
        let (j, dj) = table.eval(1, 0.0);
        assert!(j.abs() < 1e-12 && (dj - 1.0 / 3.0).abs() < 1e-12);
        // small-x behaviour between nodes: j_1(x) ≈ x/3, j_2(x) ≈ x²/15
        let (j, _) = table.eval(1, 0.05);
        assert!((j - 0.05 / 3.0).abs() < 1e-5, "j_1(0.05) = {j}");
        let (j, _) = table.eval(2, 0.2);
        assert!((j - 0.2 * 0.2 / 15.0).abs() < 1e-5, "j_2(0.2) = {j}");
        // below the window: identically zero
        let (j, dj) = table.eval(5, 0.0);
        assert_eq!((j, dj), (0.0, 0.0));
    }

    #[test]
    fn shared_table_grows_by_union_and_survives_a_panicking_build() {
        let small = JlTable::shared(20, 30.0);
        let probe: Vec<(usize, f64)> =
            vec![(0, 7.25), (3, 12.1), (11, 22.9), (20, 29.3), (17, 0.75)];
        let before: Vec<(f64, f64)> = probe.iter().map(|&(l, x)| small.eval(l, x)).collect();
        drop(small);
        // more rows, scattered, and a longer reach
        let big = JlTable::shared_rows(&[45, 33, 2], 90.0);
        assert!(big.x_max() >= 90.0);
        assert!((0..=20).chain([33, 45]).all(|l| big.has(l)));
        for (&(l, x), &(j0v, dj0v)) in probe.iter().zip(&before) {
            let (j1v, dj1v) = big.eval(l, x);
            assert_eq!(
                j0v.to_bits(),
                j1v.to_bits(),
                "j bits changed on growth at l={l}, x={x}"
            );
            assert_eq!(dj0v.to_bits(), dj1v.to_bits());
        }
        // covered requests are answered without rebuilding
        let again = JlTable::shared_rows(&[33, 7], 10.0);
        assert!(std::sync::Arc::ptr_eq(&big, &again));

        // the build runs under the cache's lock: a multipole beyond the
        // slot map makes it panic there and poisons the mutex, which
        // must not take the cache down with it.  (Same test as the
        // growth above because both own the process-wide slot.)
        let poisoned = std::thread::spawn(|| JlTable::shared_rows(&[usize::MAX], 1.0)).join();
        assert!(poisoned.is_err());
        let t = JlTable::shared_rows(&[4], 12.0);
        assert!(t.has(4) && t.x_max() >= 12.0);
        assert_eq!(t.eval(4, 9.3).0.to_bits(), big.eval(4, 9.3).0.to_bits());
    }

    #[test]
    fn only_requested_rows_are_tabulated() {
        let t = JlTable::build_rows(&[7, 3, 7, 40], 50.0);
        assert_eq!(t.l_max(), 40);
        for l in 0..=45 {
            assert_eq!(t.has(l), [3, 7, 40].contains(&l), "l = {l}");
        }
        assert!(!JlTable::build_rows(&[], 5.0).has(0));
        // the dense builder is the same table with every row asked for
        // (row-for-row bit equality is a property test in tests/prop.rs)
        let dense = JlTable::build(40, 50.0);
        assert!((0..=40).all(|l| dense.has(l)) && !dense.has(41));
    }

    #[test]
    fn rows_are_allocated_to_their_exact_length() {
        let t = JlTable::build_rows(&[2, 30, 200, 1500], 400.0);
        let mut reals = 0;
        for row in &t.rows {
            assert_eq!(row.j.len(), row.j.capacity());
            assert_eq!(row.dj.len(), row.dj.capacity());
            assert_eq!(row.j.len(), row.dj.len());
            reals += 2 * row.j.len();
        }
        // l = 1500 opens beyond x = 400: an empty row, no allocation
        assert!(t.rows[3].j.is_empty());
        let overhead = t.heap_bytes() - reals * std::mem::size_of::<f64>();
        assert!(
            overhead < 8 * 1024,
            "slot map and row headers: {overhead} bytes"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the table")]
    fn eval_beyond_x_max_is_caught_in_debug_builds() {
        JlTable::build_rows(&[5], 20.0).eval(5, 20.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the table")]
    fn eval_of_a_missing_row_is_caught_in_debug_builds() {
        JlTable::build_rows(&[5, 9], 20.0).eval(7, 10.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn eval_outside_the_table_is_exact_in_release_builds() {
        let t = JlTable::build_rows(&[5, 9], 20.0);
        // beyond x_max (even past the last node), a row never asked for,
        // and an l above every row: the direct value, to the bit
        for (l, x) in [(5usize, 20.5), (5, 47.3), (7, 10.0), (12, 3.0)] {
            let (j, dj) = t.eval(l, x);
            let (jd, djd) = sph_bessel_jl_pair(l, x);
            assert_eq!(j.to_bits(), jd.to_bits(), "j l={l} x={x}");
            assert_eq!(dj.to_bits(), djd.to_bits(), "j' l={l} x={x}");
        }
    }

    #[test]
    fn closure_sum_rule() {
        // Σ_l (2l+1) j_l²(x) = 1 for any x
        for &x in &[1.0, 7.3, 31.0] {
            let lmax = (x as usize) + 80;
            let mut arr = vec![0.0; lmax + 1];
            sph_bessel_jl_array(x, &mut arr);
            let s: f64 = arr
                .iter()
                .enumerate()
                .map(|(l, j)| (2.0 * l as f64 + 1.0) * j * j)
                .sum();
            assert!((s - 1.0).abs() < 1e-8, "sum rule at x={x}: {s}");
        }
    }
}
