//! Line-of-sight projection of recorded source functions onto `Θ_l(k)`.
//!
//! A truncated-hierarchy run ([`boltzmann::SpectrumMethod::LineOfSight`])
//! carries the compact source record `S(k, τ)` instead of a deep moment
//! ladder.  This stage performs the remaining projection integral
//!
//! ```text
//! Θ_l(k) = ∫ dτ [ s₀ j_l(y) + s₁ j_l′(y) + s₂ (3j_l″ + j_l)(y) ],
//! Θᴾ_l(k) = ∫ dτ  s_p · 3 (j_l + j_l″)(y),        y = k (τ_obs − τ),
//! ```
//!
//! with `j_l″` reduced through the Bessel ODE, so only `(j_l, j_l′)`
//! from a [`special::JlTable`] are needed:
//!
//! ```text
//! 3j_l″ + j_l   = (3l(l+1)/y² − 2) j_l − (6/y) j_l′,
//! 3(j_l + j_l″) =  3l(l+1)/y²      j_l − (6/y) j_l′.
//! ```
//!
//! The integral runs on a per-interval refinement of the recorded
//! source grid: each source interval is subdivided until the spacing
//! resolves the `2π/k` oscillation of `j_l(k(τ_obs − τ))`, sources are
//! splined onto the fine points (they are smooth on Hubble times), and
//! composite Simpson is applied per interval.  Two prunings keep the
//! cost near-linear: multipoles with `l ≳ k τ_obs` never leave the
//! Bessel window and are skipped outright, and for surviving `l` the
//! integration stops at the conformal time where `y` drops below the
//! window start.
//!
//! [`los_spectrum`] assembles `C_l` the fast way: `Θ_l(k)` at ~50 node
//! multipoles, the `k`-quadrature of [`crate::angular_power_spectrum`]
//! at each node, and a spline of `l(l+1)C_l` across nodes (`Θ_l`
//! oscillates in `l`; `C_l` is smooth).  [`project_outputs`] fills
//! every multipole densely — the slow exact path used by cross-checks.

use boltzmann::ModeOutput;
use numutil::interp::CubicSpline;
use special::{jl_window_start, sph_bessel_jl_pair, JlTable};

use crate::cl::ClSpectrum;
use crate::primordial::PrimordialSpectrum;

/// Oscillation samples per `2π/k` Bessel period on the fine grid.
const OSC_SAMPLES: f64 = 8.0;

/// Below this argument the table's Hermite error would be amplified by
/// the `l(l+1)/y²` kernel, so `j_l` is evaluated directly instead.
const Y_DIRECT: f64 = 4.0;

/// Multipole margin above `k τ_obs` before a mode is pruned for an `l`.
const L_MARGIN: f64 = 60.0;

/// `(j_l, j_l′)` with the small-argument region routed around the
/// table: the projection kernels divide by `y²`, which would amplify
/// the table's interpolation error near the origin.
fn jl_pair(table: &JlTable, l: usize, y: f64) -> (f64, f64) {
    if y >= Y_DIRECT {
        return table.eval(l, y);
    }
    if y <= jl_window_start(l) {
        return (0.0, 0.0);
    }
    sph_bessel_jl_pair(l, y)
}

/// The two source kernels `(3j″+j, 3(j+j″))` at argument `y`, with the
/// `y → 0` limits taken analytically (only `l ≤ 2` reach them).
fn kernels(l: usize, y: f64, j: f64, dj: f64) -> (f64, f64) {
    if y < 1e-8 {
        return match l {
            0 => (0.0, 2.0),
            2 => (0.4, 0.4),
            _ => (0.0, 0.0),
        };
    }
    let a = 3.0 * (l * (l + 1)) as f64 / (y * y);
    let b = 6.0 / y * dj;
    ((a - 2.0) * j - b, a * j - b)
}

/// Project one recorded mode onto `(Θ_l, Θᴾ_l)` for each requested
/// multipole; `table` must have a row for each.  Returns `None` when
/// the mode carries no source record.
pub fn project_mode(
    out: &ModeOutput,
    ls: &[usize],
    table: &JlTable,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let src = out.sources.as_ref()?;
    let n = src.len();
    if n < 2 {
        return Some((vec![0.0; ls.len()], vec![0.0; ls.len()]));
    }
    let k = out.k;
    let tau_obs = src.tau_obs;
    let y_max = k * (tau_obs - src.tau[0]);

    // smooth interpolants for the four source components, on one
    // shared knot vector
    let knots = src.tau.as_slice();
    let sp0 = CubicSpline::natural(knots, src.s0.clone());
    let sp1 = CubicSpline::natural(knots, src.s1.clone());
    let sp2 = CubicSpline::natural(knots, src.s2.clone());
    let spp = CubicSpline::natural(knots, src.sp.clone());

    let h_osc = 2.0 * std::f64::consts::PI / (k * OSC_SAMPLES);
    let mut theta = vec![0.0; ls.len()];
    let mut theta_p = vec![0.0; ls.len()];

    for (il, &l) in ls.iter().enumerate() {
        if (l as f64) > k * tau_obs + L_MARGIN {
            continue; // never enters the Bessel window
        }
        let y_start = jl_window_start(l);
        if y_start >= y_max {
            continue;
        }
        // integrate τ ∈ [τ_first, τ_stop]; beyond τ_stop, y < window
        let tau_stop = (tau_obs - y_start / k).min(src.tau[n - 1]);
        let mut acc_t = 0.0;
        let mut acc_p = 0.0;
        let mut hint = 0usize;
        for i in 0..n - 1 {
            let (a, b) = (src.tau[i], src.tau[i + 1].min(tau_stop));
            if b <= a {
                break;
            }
            // even subdivision resolving the Bessel oscillation
            let m = (((b - a) / h_osc).ceil() as usize)
                .max(1)
                .next_multiple_of(2);
            let h = (b - a) / m as f64;
            let mut sum_t = 0.0;
            let mut sum_p = 0.0;
            for q in 0..=m {
                let tau = a + q as f64 * h;
                let y = k * (tau_obs - tau);
                let (j, dj) = jl_pair(table, l, y);
                let (kq, kp) = kernels(l, y, j, dj);
                let ft = sp0.eval_hunt(tau, &mut hint) * j
                    + sp1.eval_hunt(tau, &mut hint) * dj
                    + sp2.eval_hunt(tau, &mut hint) * kq;
                let fp = spp.eval_hunt(tau, &mut hint) * kp;
                let w = if q == 0 || q == m {
                    1.0
                } else if q % 2 == 1 {
                    4.0
                } else {
                    2.0
                };
                sum_t += w * ft;
                sum_p += w * fp;
            }
            acc_t += sum_t * h / 3.0;
            acc_p += sum_p * h / 3.0;
            if b >= tau_stop {
                break;
            }
        }
        theta[il] = acc_t;
        theta_p[il] = acc_p;
    }
    Some((theta, theta_p))
}

/// The `x` range a Bessel table must cover to project these modes.
fn required_x_max<'a>(outputs: impl IntoIterator<Item = &'a ModeOutput>) -> f64 {
    outputs
        .into_iter()
        .filter_map(|o| {
            let s = o.sources.as_ref()?;
            Some(o.k * (s.tau_obs - s.tau[0]))
        })
        .fold(0.0f64, f64::max)
        + 10.0
}

/// Replace each mode's moment ladder with the line-of-sight projection
/// at every `l ≤ l_max` — the exact (dense) path, suitable for
/// cross-checks and modest `l_max`.  Modes without a source record are
/// passed through unchanged.
///
/// The all-rows Bessel table this needs is built privately and dropped
/// on return: put in the process-wide cache it would stay dense (~70 kB
/// per row per 3 000 of `x`) for the life of the process.
pub fn project_outputs(outputs: &[ModeOutput], l_max: usize) -> Vec<ModeOutput> {
    let table = JlTable::build(l_max, required_x_max(outputs));
    let ls: Vec<usize> = (0..=l_max).collect();
    outputs
        .iter()
        .map(|o| match project_mode(o, &ls, &table) {
            Some((t, p)) => {
                let mut out = o.clone();
                out.delta_t = t;
                out.delta_p = p;
                out.lmax_g = l_max;
                out
            }
            None => o.clone(),
        })
        .collect()
}

/// Node multipoles for the sparse `C_l` assembly: every `l` through 10,
/// then geometrically opening steps (capped at 50), always ending at
/// `l_max`.
pub fn node_multipoles(l_max: usize) -> Vec<usize> {
    let mut ls = Vec::new();
    let mut l = 2usize;
    while l <= l_max {
        ls.push(l);
        l += if l < 10 { 1 } else { (l / 8).clamp(2, 50) };
    }
    if *ls.last().unwrap() != l_max {
        ls.push(l_max);
    }
    ls
}

/// Assemble the angular power spectrum from line-of-sight modes: the
/// projection at [`node_multipoles`], the standard `ln k` quadrature at
/// each node, and a spline of the band power across nodes.
///
/// Panics if fewer than four modes carry a source record.
pub fn los_spectrum(outputs: &[ModeOutput], prim: &PrimordialSpectrum, l_max: usize) -> ClSpectrum {
    los_spectrum_with_nodes(outputs, prim, l_max, &node_multipoles(l_max))
}

/// [`los_spectrum`] with a caller-chosen node-multipole set — the
/// preset-independent entry the node-robustness tests drive: the band
/// power `l(l+1)C_l` is smooth in `l`, so any reasonable node set must
/// reproduce the default spectrum to sub-percent accuracy.
///
/// Panics if fewer than four modes carry a source record, or if `nodes`
/// is not a strictly increasing sequence starting at `l ≥ 2` and ending
/// exactly at `l_max` (the spline must cover the requested range).
pub fn los_spectrum_with_nodes(
    outputs: &[ModeOutput],
    prim: &PrimordialSpectrum,
    l_max: usize,
    nodes: &[usize],
) -> ClSpectrum {
    let with_src: Vec<&ModeOutput> = outputs.iter().filter(|o| o.sources.is_some()).collect();
    assert!(
        with_src.len() >= 4,
        "need at least four modes with recorded sources"
    );
    assert!(
        with_src.windows(2).all(|w| w[1].k > w[0].k),
        "modes must be sorted in k"
    );
    assert!(
        !nodes.is_empty()
            && nodes[0] >= 2
            && *nodes.last().unwrap_or(&0) == l_max
            && nodes.windows(2).all(|w| w[1] > w[0]),
        "nodes must increase from l ≥ 2 to exactly l_max"
    );
    // the projection reads j_l at the node multipoles only
    let table = JlTable::shared_rows(nodes, required_x_max(with_src.iter().copied()));

    let lnk: Vec<f64> = with_src.iter().map(|o| o.k.ln()).collect();
    let projected: Vec<(Vec<f64>, Vec<f64>)> = with_src
        .iter()
        .map(|o| project_mode(o, nodes, &table).unwrap())
        .collect();

    let four_pi = 4.0 * std::f64::consts::PI;
    let mut band_t = Vec::with_capacity(nodes.len());
    let mut band_p = Vec::with_capacity(nodes.len());
    let mut band_x = Vec::with_capacity(nodes.len());
    for (il, &l) in nodes.iter().enumerate() {
        let mut f_t = Vec::with_capacity(with_src.len());
        let mut f_p = Vec::with_capacity(with_src.len());
        let mut f_x = Vec::with_capacity(with_src.len());
        for (o, (tv, pv)) in with_src.iter().zip(&projected) {
            let p = prim.power(o.k);
            let t = tv[il] / o.psi_initial;
            let g = pv[il] / o.psi_initial;
            f_t.push(p * t * t);
            f_p.push(p * g * g);
            f_x.push(p * t * g);
        }
        let top = lnk[lnk.len() - 1];
        let st = CubicSpline::natural(lnk.as_slice(), f_t);
        let sp = CubicSpline::natural(lnk.as_slice(), f_p);
        let sx = CubicSpline::natural(lnk.as_slice(), f_x);
        let lf = l as f64;
        let ll1 = lf * (lf + 1.0);
        band_t.push(ll1 * four_pi * st.integral_to(top).max(0.0));
        band_p.push(ll1 * four_pi * sp.integral_to(top).max(0.0));
        band_x.push(ll1 * four_pi * sx.integral_to(top));
    }

    // the band power l(l+1)C_l is smooth in l — spline it across nodes
    let lsf: Vec<f64> = nodes.iter().map(|&l| l as f64).collect();
    let bt = CubicSpline::natural(lsf.as_slice(), band_t);
    let bp = CubicSpline::natural(lsf.as_slice(), band_p);
    let bx = CubicSpline::natural(lsf.as_slice(), band_x);

    let mut cl = vec![0.0; l_max + 1];
    let mut cl_pol = vec![0.0; l_max + 1];
    let mut cl_cross = vec![0.0; l_max + 1];
    for l in 2..=l_max {
        let lf = l as f64;
        let ll1 = lf * (lf + 1.0);
        cl[l] = (bt.eval(lf) / ll1).max(0.0);
        cl_pol[l] = (bp.eval(lf) / ll1).max(0.0);
        cl_cross[l] = bx.eval(lf) / ll1;
    }

    ClSpectrum {
        cl,
        cl_pol,
        cl_cross,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_multipoles_cover_the_range() {
        for l_max in [2usize, 10, 35, 500, 1500] {
            let ls = node_multipoles(l_max);
            assert_eq!(ls[0], 2);
            assert_eq!(*ls.last().unwrap(), l_max);
            assert!(ls.windows(2).all(|w| w[1] > w[0]));
            assert!(ls.windows(2).all(|w| w[1] - w[0] <= 50));
        }
    }

    #[test]
    fn node_rows_of_the_largest_preset_fit_in_8_mb() {
        // scripts/ci.sh runs this by name: the table `los_spectrum`
        // asks for at l_max 1500 (x_max 3010 is the `los_cl` benchmark's
        // reach); all 1 501 rows would be 106 MB
        let nodes = node_multipoles(1500);
        let bytes = JlTable::build_rows(&nodes, 3010.0).heap_bytes();
        println!("{} node rows: {bytes} bytes", nodes.len());
        assert!(bytes <= 8 << 20, "{} rows take {bytes} bytes", nodes.len());
    }

    #[test]
    fn kernels_match_their_limits() {
        // continuity of the y → 0 limits against the explicit formula
        for l in [0usize, 1, 2, 3] {
            // the limits are approached linearly (slope −4l/15-ish)
            let y = 1e-4;
            let (j, dj) = sph_bessel_jl_pair(l, y);
            let (kq, kp) = kernels(l, y, j, dj);
            let (kq0, kp0) = kernels(l, 0.0, 0.0, 0.0);
            assert!((kq - kq0).abs() < 1e-4, "l={l}: {kq} vs {kq0}");
            assert!((kp - kp0).abs() < 1e-4, "l={l}: {kp} vs {kp0}");
        }
    }

    #[test]
    fn jl_pair_is_continuous_across_the_direct_boundary() {
        let table = JlTable::build(10, 30.0);
        for l in [0usize, 2, 5, 10] {
            let (jd, djd) = jl_pair(&table, l, Y_DIRECT - 1e-9);
            let (jt, djt) = jl_pair(&table, l, Y_DIRECT + 1e-9);
            assert!((jd - jt).abs() < 1e-3, "l={l}: {jd} vs {jt}");
            assert!((djd - djt).abs() < 1e-3, "l={l}: {djd} vs {djt}");
        }
    }
}
