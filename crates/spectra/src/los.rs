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
//! Only the Bessel factor depends on `l`.  The fine grid of every whole
//! source interval and the splined sources on it are therefore built
//! once per mode ([`project_mode`]) and walked by each multipole; the
//! one interval a multipole's stopping time cuts short has its own
//! subdivision and is evaluated on the fly.  Modes are independent, so
//! [`los_spectrum_with_nodes`] projects them on every core.
//!
//! [`los_spectrum`] assembles `C_l` the fast way: `Θ_l(k)` at ~50 node
//! multipoles, the `k`-quadrature of [`crate::angular_power_spectrum`]
//! at each node, and a spline of `l(l+1)C_l` across nodes (`Θ_l`
//! oscillates in `l`; `C_l` is smooth).  [`project_outputs`] fills
//! every multipole densely — the slow exact path used by cross-checks.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// What the integrand needs at one fine point that does not depend on
/// the multipole: `[y, s₀, s₁, s₂, s_P]`.
type FinePoint = [f64; 5];

/// The even subdivision of `[a, b]` that resolves the Bessel
/// oscillation: `(m, h)` with `m` steps of `h`.
fn subdivide(a: f64, b: f64, h_osc: f64) -> (usize, f64) {
    let m = (((b - a) / h_osc).ceil() as usize)
        .max(1)
        .next_multiple_of(2);
    (m, (b - a) / m as f64)
}

/// Composite Simpson of the temperature and polarization integrands at
/// multipole `l` over one interval: `points` yields its `m + 1` fine
/// points, `h` apart.
fn simpson_interval(
    table: &JlTable,
    l: usize,
    (m, h): (usize, f64),
    points: impl Iterator<Item = FinePoint>,
) -> (f64, f64) {
    let mut sum_t = 0.0;
    let mut sum_p = 0.0;
    for (q, [y, s0, s1, s2, sp]) in points.enumerate() {
        let (j, dj) = jl_pair(table, l, y);
        let (kq, kp) = kernels(l, y, j, dj);
        let ft = s0 * j + s1 * dj + s2 * kq;
        let fp = sp * kp;
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
    (sum_t * h / 3.0, sum_p * h / 3.0)
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
    let point = |tau: f64, hint: &mut usize| -> FinePoint {
        [
            k * (tau_obs - tau),
            sp0.eval_hunt(tau, hint),
            sp1.eval_hunt(tau, hint),
            sp2.eval_hunt(tau, hint),
            spp.eval_hunt(tau, hint),
        ]
    };

    // once per mode: the fine grid of every whole source interval, with
    // the sources on it.  Interval `i` is `steps[i]` and the points
    // `fine[first[i]..=first[i] + m]`.
    let h_osc = 2.0 * std::f64::consts::PI / (k * OSC_SAMPLES);
    let mut steps = Vec::with_capacity(n - 1);
    let mut first = Vec::with_capacity(n - 1);
    let mut fine = Vec::new();
    let mut hint = 0usize;
    for w in knots.windows(2) {
        let (m, h) = subdivide(w[0], w[1], h_osc);
        steps.push((m, h));
        first.push(fine.len());
        fine.extend((0..=m).map(|q| point(w[0] + q as f64 * h, &mut hint)));
    }

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
        for i in 0..n - 1 {
            let (a, b) = (src.tau[i], src.tau[i + 1]);
            let (dt, dp) = if b <= tau_stop {
                let (m, _) = steps[i];
                let points = fine[first[i]..=first[i] + m].iter().copied();
                simpson_interval(table, l, steps[i], points)
            } else if a < tau_stop {
                // τ_stop cuts this interval short; where depends on l,
                // so it gets its own subdivision and points
                let (m, h) = subdivide(a, tau_stop, h_osc);
                let points = (0..=m).map(|q| point(a + q as f64 * h, &mut hint));
                simpson_interval(table, l, (m, h), points)
            } else {
                break;
            };
            acc_t += dt;
            acc_p += dp;
            if b >= tau_stop {
                break;
            }
        }
        theta[il] = acc_t;
        theta_p[il] = acc_p;
    }
    Some((theta, theta_p))
}

/// `job(i)` for every `i < n`, in index order, computed on `threads`
/// scoped threads (at least one, at most `n`) that each pull the next
/// index off one shared counter until none is left — the farm's
/// self-scheduling in miniature.  Indices are handed out from `n − 1`
/// down, so with jobs sorted by cost the largest start first.  Results
/// are put back in index order: the output does not depend on `threads`.
///
/// Every thread is joined; if jobs panicked, the first payload is then
/// re-raised on the caller, message intact.
fn fan_out<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // Relaxed: the counter only deals out indices; results reach the
    // caller through `join`
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let taken = next.fetch_add(1, Ordering::Relaxed);
            if taken >= n {
                break done;
            }
            let i = n - 1 - taken;
            done.push((i, job(i)));
        }
    };
    let joined: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| s.spawn(worker))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut done = Vec::with_capacity(n);
    for thread in joined {
        match thread {
            Ok(part) => done.extend(part),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    // every index was handed out exactly once
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
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
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    los_spectrum_on(outputs, prim, l_max, nodes, threads)
}

/// [`los_spectrum_with_nodes`] with the modes projected on `threads`
/// threads; the spectrum is the same to the bit for any count.
fn los_spectrum_on(
    outputs: &[ModeOutput],
    prim: &PrimordialSpectrum,
    l_max: usize,
    nodes: &[usize],
    threads: usize,
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
    // modes are sorted in k and the cost of one grows with k: the last
    // index is the largest job
    let projected: Vec<(Vec<f64>, Vec<f64>)> = fan_out(with_src.len(), threads, |i| {
        project_mode(with_src[i], nodes, &table).expect("filtered on a source record")
    });

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
    use std::sync::{Mutex, OnceLock};

    use background::{Background, CosmoParams};
    use boltzmann::{evolve_mode, Gauge, ModeConfig, Preset, SpectrumMethod};
    use recomb::ThermoHistory;

    use super::*;

    /// [`project_mode`] as it was before the fine grid was hoisted out of
    /// the multipole loop: every source re-splined at every fine point for
    /// every `l`.  The differential tests require bit equality with it.
    fn project_mode_reference(
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

    /// The three modes of `crates/boltzmann/tests/source_golden.rs`
    /// (conformal-Newtonian, massive-ν, synchronous) and a fourth so
    /// that `los_spectrum` accepts the set, sorted in `k`.  They do not
    /// share a cosmology: these tests compare bits, not physics.
    fn recorded_modes() -> &'static [ModeOutput] {
        static MODES: OnceLock<Vec<ModeOutput>> = OnceLock::new();
        MODES.get_or_init(|| {
            [
                (CosmoParams::standard_cdm(), Gauge::ConformalNewtonian, 0.01),
                (CosmoParams::mixed_dark_matter(), Gauge::Synchronous, 0.02),
                (CosmoParams::standard_cdm(), Gauge::Synchronous, 0.03),
                (CosmoParams::standard_cdm(), Gauge::Synchronous, 0.05),
            ]
            .into_iter()
            .map(|(cosmo, gauge, k)| {
                let bg = Background::new(cosmo);
                let th = ThermoHistory::new(&bg);
                let cfg = ModeConfig {
                    gauge,
                    preset: Preset::Draft,
                    spectrum_method: SpectrumMethod::LineOfSight,
                    ..Default::default()
                };
                evolve_mode(&bg, &th, k, &cfg).unwrap()
            })
            .collect()
        })
    }

    /// Where a multipole's stopping time falls on a mode's source grid.
    #[derive(Debug, PartialEq)]
    enum Stop {
        /// The multipole is skipped for this mode.
        Pruned,
        /// Exactly on knot `i`: every interval walked is whole.
        OnKnot(usize),
        /// Strictly inside interval `i`, which is cut short.
        Inside(usize),
    }

    fn tau_stop(out: &ModeOutput, l: usize) -> f64 {
        let src = out.sources.as_ref().unwrap();
        (src.tau_obs - jl_window_start(l) / out.k).min(*src.tau.last().unwrap())
    }

    fn stop_of(out: &ModeOutput, l: usize) -> Stop {
        let src = out.sources.as_ref().unwrap();
        if (l as f64) > out.k * src.tau_obs + L_MARGIN
            || jl_window_start(l) >= out.k * (src.tau_obs - src.tau[0])
        {
            return Stop::Pruned;
        }
        let stop = tau_stop(out, l);
        match src.tau.binary_search_by(|t| t.total_cmp(&stop)) {
            Ok(i) => Stop::OnKnot(i),
            Err(i) => Stop::Inside(i.saturating_sub(1)),
        }
    }

    fn assert_matches_reference(out: &ModeOutput, ls: &[usize], table: &JlTable, what: &str) {
        let (t, p) = project_mode(out, ls, table).unwrap();
        let (rt, rp) = project_mode_reference(out, ls, table).unwrap();
        assert_eq!((t.len(), p.len()), (ls.len(), ls.len()));
        for (il, &l) in ls.iter().enumerate() {
            assert_eq!(
                (t[il].to_bits(), p[il].to_bits()),
                (rt[il].to_bits(), rp[il].to_bits()),
                "{what}, k = {}, l = {l}: ({:e}, {:e}) vs reference ({:e}, {:e})",
                out.k,
                t[il],
                p[il],
                rt[il],
                rp[il]
            );
        }
    }

    #[test]
    fn project_mode_is_bit_identical_to_the_reference_loop() {
        // scripts/ci.sh runs this by name
        let l_max = 700; // past k τ_obs + L_MARGIN of the largest mode
        let modes = recorded_modes();
        let table = JlTable::build(l_max, required_x_max(modes));
        let dense: Vec<usize> = (0..=l_max).collect();
        let nodes = node_multipoles(l_max);

        // splitmix64: seeded subsets, unordered and with repeats
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };

        let mut cut_in_the_middle = false;
        let mut on_the_last_knot = false;
        let mut pruned = false;
        for out in modes {
            assert_matches_reference(out, &nodes, &table, "nodes");
            assert_matches_reference(out, &dense, &table, "dense");
            for round in 0..3 {
                let len = 1 + (next() % 40) as usize;
                let subset: Vec<usize> = (0..len).map(|_| (next() % 701) as usize).collect();
                assert_matches_reference(out, &subset, &table, &format!("subset {round}"));
            }
            let last = out.sources.as_ref().unwrap().len() - 1;
            for &l in &dense {
                match stop_of(out, l) {
                    Stop::Inside(i) => cut_in_the_middle |= i > 0,
                    Stop::OnKnot(i) => on_the_last_knot |= i == last,
                    Stop::Pruned => pruned = true,
                }
            }
        }
        assert!(cut_in_the_middle && on_the_last_knot && pruned);

        // a stopping time inside the FIRST interval: retune k so that
        // l = 300 leaves its Bessel window halfway through it
        let l = 300;
        let mut first = modes[3].clone();
        let src = first.sources.as_ref().unwrap();
        first.k = jl_window_start(l) / (src.tau_obs - 0.5 * (src.tau[0] + src.tau[1]));
        assert_eq!(stop_of(&first, l), Stop::Inside(0));
        assert_matches_reference(&first, &dense, &table, "cut in the first interval");

        // a stopping time exactly on an interior knot: move the knot
        // above l = 300's stopping time onto it
        let mut knot = modes[3].clone();
        let Stop::Inside(i) = stop_of(&knot, l) else {
            panic!("l = {l} should stop inside an interval");
        };
        assert!(i > 0 && i + 2 < knot.sources.as_ref().unwrap().len());
        let stop = tau_stop(&knot, l);
        knot.sources.as_mut().unwrap().tau[i + 1] = stop;
        assert_eq!(stop_of(&knot, l), Stop::OnKnot(i + 1));
        assert_matches_reference(&knot, &dense, &table, "stop on a knot");

        // fewer than two source points: nothing to integrate
        let mut point = modes[3].clone();
        let src = point.sources.as_mut().unwrap();
        for col in [
            &mut src.tau,
            &mut src.s0,
            &mut src.s1,
            &mut src.s2,
            &mut src.sp,
        ] {
            col.truncate(1);
        }
        assert_matches_reference(&point, &nodes, &table, "one source point");
        let (t, p) = project_mode(&point, &nodes, &table).unwrap();
        assert!(t.iter().chain(&p).all(|&v| v == 0.0));
    }

    #[test]
    fn spectrum_does_not_depend_on_the_thread_count() {
        let l_max = 200;
        let modes = recorded_modes(); // four: the minimum `los_spectrum` takes
        let prim = PrimordialSpectrum::unit(1.0);
        let nodes = node_multipoles(l_max);
        let bits = |threads: usize| -> Vec<u64> {
            let cl = los_spectrum_on(modes, &prim, l_max, &nodes, threads);
            cl.cl
                .iter()
                .chain(&cl.cl_pol)
                .chain(&cl.cl_cross)
                .map(|v| v.to_bits())
                .collect()
        };
        let one = bits(1);
        assert!(one.iter().any(|&b| b != 0));
        for threads in [2, 3, modes.len(), 4 * modes.len()] {
            assert_eq!(bits(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn fan_out_orders_results_by_index_and_deals_the_last_index_first() {
        for threads in [0, 1, 2, 3, 7, 20] {
            assert_eq!(
                fan_out(7, threads, |i| 10 * i),
                [0, 10, 20, 30, 40, 50, 60],
                "{threads} threads"
            );
        }
        assert_eq!(fan_out(0, 3, |i| i), Vec::<usize>::new());
        let dealt = Mutex::new(Vec::new());
        fan_out(5, 1, |i| dealt.lock().unwrap().push(i));
        assert_eq!(*dealt.lock().unwrap(), [4, 3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "mode 2 is not projectable")]
    fn fan_out_reraises_a_job_panic_with_its_message() {
        fan_out(6, 3, |i| assert!(i != 2, "mode {i} is not projectable"));
    }

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
