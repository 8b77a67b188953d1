//! Integration-level pins of the step loop.
//!
//! Every number below was recorded at commit `9db763d`, before the step's
//! tail (candidate state, error estimate, error norm) moved onto pre-cut
//! slices.  A rewrite of any loop in `Integrator::integrate_observed` must
//! reproduce them to the bit: the same steps accepted and rejected, the
//! same evaluations spent, the same `(t, y[0])` sequence shown to the
//! observer and the same final state, forward and backward in time and on
//! the way into `OdeError::NonFinite`.
//!
//! Unlike `boltzmann`'s `source_golden.rs`, one value pins both profiles:
//! the right-hand sides below use `+ − ×` only (no `powi`, whose expansion
//! differs between debug and release) and the driver's `powf` is the same
//! libm call in both, so debug and release agreed to the bit when these
//! were recorded.  `scripts/ci.sh` runs this file under both.

use ode::{IntegrateOpts, Integrator, Method, OdeError, Rhs};

/// FNV-1a over the bit patterns of a run of reals.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const MASSES: usize = 32;

/// 32 masses on a line between two walls, springs stiffening along the
/// chain: `y = [x_0 … x_31, v_0 … v_31]`.  Only `+ − ×`, so the state is
/// a pure function of the driver's own arithmetic.
struct Chain {
    evals: usize,
}

impl Rhs for Chain {
    fn dim(&self) -> usize {
        2 * MASSES
    }
    fn eval(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        self.evals += 1;
        let (x, v) = y.split_at(MASSES);
        for i in 0..MASSES {
            let left = if i == 0 { 0.0 } else { x[i - 1] };
            let right = if i + 1 == MASSES { 0.0 } else { x[i + 1] };
            dydt[i] = v[i];
            dydt[MASSES + i] = (1.0 + 0.125 * i as f64) * (left - 2.0 * x[i] + right);
        }
    }
}

fn chain_start() -> Vec<f64> {
    (0..2 * MASSES)
        .map(|i| ((i * 37 % 17) as f64 - 8.0) / 16.0)
        .collect()
}

/// What one chain run must reproduce: `(accepted, rejected, rhs_evals)`,
/// FNV of the final state, FNV of the `(t, y[0])` the observer saw.
type ChainPin = ((usize, usize, usize), u64, u64);

fn run_chain(method: Method, t0: f64, t1: f64) -> ChainPin {
    let mut y = chain_start();
    let mut rhs = Chain { evals: 0 };
    let opts = IntegrateOpts {
        method,
        rtol: 1e-7,
        atol: 1e-10,
        ..Default::default()
    };
    let mut seen = Fnv::new();
    let mut obs = |t: f64, y: &[f64]| {
        seen.push(t);
        seen.push(y[0]);
        true
    };
    let sol = Integrator::new()
        .integrate_observed(&mut rhs, t0, t1, &mut y, &opts, Some(&mut obs))
        .expect("the chain is smooth");
    assert_eq!(
        sol.stats.rhs_evals, rhs.evals,
        "the census counts every call"
    );
    let mut y_fnv = Fnv::new();
    y.iter().for_each(|&v| y_fnv.push(v));
    let stats = &sol.stats;
    (
        (stats.accepted, stats.rejected, stats.rhs_evals),
        y_fnv.0,
        seen.0,
    )
}

#[test]
fn oscillator_chain_forward_matches_the_parent_commit() {
    for (method, pin) in [
        (
            Method::Verner65,
            ((146, 0, 1168), 0xcedf_381f_156d_5616, 0xa3b8_4550_01a8_bc21),
        ),
        (
            Method::DormandPrince54,
            ((223, 0, 1339), 0x8421_68b3_c6ff_a995, 0x0cc4_7652_8832_1dc0),
        ),
        (
            Method::CashKarp45,
            ((173, 0, 1038), 0x6b53_8c81_1eee_5d8c, 0xd0b0_afc0_26cf_e3d6),
        ),
    ] {
        let got = run_chain(method, 0.0, 6.0);
        assert_eq!(got, pin, "{method:?} forward: {got:#x?}");
    }
}

#[test]
fn oscillator_chain_backward_matches_the_parent_commit() {
    for (method, pin) in [
        (
            Method::Verner65,
            ((135, 4, 1108), 0x0327_bda9_c21d_303c, 0x1efa_b0dc_98c1_3a8e),
        ),
        (
            Method::DormandPrince54,
            ((217, 4, 1327), 0x2691_3d37_384e_7c70, 0x8fc3_5672_2b5b_8a2d),
        ),
        (
            Method::CashKarp45,
            ((165, 4, 1010), 0x314e_9eb4_4b30_8a8b, 0xecbc_3523_d29b_241c),
        ),
    ] {
        let got = run_chain(method, 6.0, 0.0);
        assert_eq!(got, pin, "{method:?} backward: {got:#x?}");
    }
}

/// A decay chain whose last derivative is NaN at any stage time past
/// `t = 1`: every step that reaches over the cliff is quartered, steps
/// that stop short of it are accepted, and the run ends in `NonFinite`
/// when a quartered step falls under `h_min`.
struct Cliff {
    evals: usize,
}

impl Rhs for Cliff {
    fn dim(&self) -> usize {
        3
    }
    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.evals += 1;
        dydt[0] = -y[0];
        dydt[1] = y[0] - y[1];
        dydt[2] = if t > 1.0 { f64::NAN } else { y[1] };
    }
}

/// `(accepted, rhs_evals)`, the bits of the error's `t`, FNV of the
/// `(t, y[0])` the observer saw.  The error carries no counters, so the
/// RHS and the observer count: with the accepted steps and the
/// evaluations both fixed, so is the number of quarter-step rejections
/// between them.
type CliffPin = ((usize, usize), u64, u64);

#[test]
fn non_finite_rhs_ends_in_the_parent_commits_error() {
    for (method, pin) in [
        (
            Method::Verner65,
            ((49, 632), 0x3fef_ffff_ffe9_2081, 0x4066_36b2_18cd_73d3),
        ),
        (
            Method::DormandPrince54,
            ((50, 482), 0x3fef_ffff_ffa5_727d, 0x9591_0f35_4d21_ac48),
        ),
        (
            Method::CashKarp45,
            ((49, 480), 0x3fef_ffff_ff94_ccd3, 0xaf4f_9989_9495_148f),
        ),
    ] {
        let mut y = [1.0, 0.5, 0.0];
        let mut rhs = Cliff { evals: 0 };
        let opts = IntegrateOpts {
            method,
            h_min: 1e-9,
            ..Default::default()
        };
        let mut accepted = 0usize;
        let mut seen = Fnv::new();
        let mut obs = |t: f64, y: &[f64]| {
            accepted += 1;
            seen.push(t);
            seen.push(y[0]);
            true
        };
        let r =
            Integrator::new().integrate_observed(&mut rhs, 0.0, 2.0, &mut y, &opts, Some(&mut obs));
        let Err(OdeError::NonFinite { t }) = r else {
            panic!("{method:?}: expected NonFinite, got {r:?}");
        };
        let got: CliffPin = ((accepted, rhs.evals), t.to_bits(), seen.0);
        assert_eq!(got, pin, "{method:?} cliff: {got:#x?}");
    }
}
