//! The output record of one evolved mode, and its wire format.
//!
//! The paper's master/worker protocol ships each finished wavenumber as
//! two messages: a fixed 21-real header (tag 4, with `y(1) = ik` and
//! `y(21) = lmax`) followed by a `2·lmax + 8`-real payload (tag 5)
//! containing the photon moment hierarchies.  [`ModeOutput::to_wire`] and
//! [`ModeOutput::from_wire`] implement exactly that framing so the
//! PLINGER farm can be tested for byte-identical results against the
//! serial code.

use background::Background;
use ode::{DenseSample, StepStats};
use std::fmt;

use crate::layout::{Gauge, StateLayout};
use crate::rhs::LingerRhs;
use crate::source::ModeSources;

/// A malformed wire record (wrong header or payload geometry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The header was not exactly 21 reals.
    BadHeaderLen {
        /// Actual header length.
        got: usize,
    },
    /// The payload length disagreed with the `lmax` the header declared.
    BadPayloadLen {
        /// `lmax_g` read from `header[20]`.
        lmax_g: usize,
        /// Expected payload length, `2·lmax + 8`.
        want: usize,
        /// Actual payload length.
        got: usize,
    },
    /// `header[20]` was not a whole number of multipoles in
    /// `0..=10 000`.
    BadLmax {
        /// Bit pattern of the offending real (`f64::from_bits`); bits so
        /// that the error stays `Eq` when the real is a NaN.
        bits: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadHeaderLen { got } => {
                write!(f, "wire header must be 21 reals, got {got}")
            }
            WireError::BadPayloadLen { lmax_g, want, got } => write!(
                f,
                "wire payload for lmax={lmax_g} must be {want} reals (2·lmax+8, \
                 plus an optional well-formed source extension), got {got}"
            ),
            WireError::BadLmax { bits } => write!(
                f,
                "wire header declares lmax = {}; must be a whole number in 0..={MAX_WIRE_LMAX}",
                f64::from_bits(*bits)
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Longest photon ladder a wire header may declare: the paper's "up to
/// 10,000 moments", where `Preset::Production` caps and the ceiling the
/// spectrum service admits requests under.
const MAX_WIRE_LMAX: f64 = 10_000.0;

/// The `lmax` real of a wire header as a count.  The real arrives from
/// another process: `1e300 as usize` saturates, and `2·lmax + 8` on that
/// overflows (a panic in debug, a wrapped length in release that accepts
/// garbage as an empty spectrum).
fn wire_lmax(real: f64) -> Result<usize, WireError> {
    // a NaN is in no range
    if (0.0..=MAX_WIRE_LMAX).contains(&real) && real.fract() == 0.0 {
        Ok(real as usize)
    } else {
        Err(WireError::BadLmax {
            bits: real.to_bits(),
        })
    }
}

/// Results of one k-mode integration.
#[derive(Debug, Clone)]
pub struct ModeOutput {
    /// Wavenumber, Mpc⁻¹.
    pub k: f64,
    /// Gauge the mode was evolved in.
    pub gauge: Gauge,
    /// Photon hierarchy size.
    pub lmax_g: usize,
    /// Final conformal time, Mpc.
    pub tau_end: f64,
    /// Final scale factor.
    pub a_end: f64,
    /// CDM density contrast at `tau_end`.
    pub delta_c: f64,
    /// CDM velocity divergence.
    pub theta_c: f64,
    /// Baryon density contrast.
    pub delta_b: f64,
    /// Baryon velocity divergence.
    pub theta_b: f64,
    /// Photon density contrast.
    pub delta_g: f64,
    /// Photon velocity divergence.
    pub theta_g: f64,
    /// Massless-neutrino density contrast.
    pub delta_nu: f64,
    /// Massless-neutrino velocity divergence.
    pub theta_nu: f64,
    /// Massive-neutrino density contrast (0 when absent).
    pub delta_h: f64,
    /// Photon shear.
    pub sigma_g: f64,
    /// Massless-neutrino shear.
    pub sigma_nu: f64,
    /// Conformal Newtonian potential φ (native or gauge-transformed).
    pub phi: f64,
    /// Conformal Newtonian potential ψ.
    pub psi: f64,
    /// Initial ψ amplitude (for transfer-function normalization).
    pub psi_initial: f64,
    /// Einstein-constraint residual at the final time.
    pub constraint: f64,
    /// Photon temperature moments `Θ_l = F_γl/4`, `l = 0..=lmax_g`.
    pub delta_t: Vec<f64>,
    /// Photon polarization moments `G_γl/4`.
    pub delta_p: Vec<f64>,
    /// Integrator work counters.
    pub stats: StepStats,
    /// Wall-clock seconds spent on this mode.
    pub cpu_seconds: f64,
    /// Accepted-step trajectory when recording was requested.
    pub trajectory: Vec<DenseSample>,
    /// Line-of-sight source function (recorded only in
    /// [`crate::SpectrumMethod::LineOfSight`] mode; rides the wire as a
    /// payload extension after the moment hierarchies).
    pub sources: Option<ModeSources>,
}

impl ModeOutput {
    /// Build the record from the final integrator state.
    pub(crate) fn from_state(
        rhs: &LingerRhs<'_>,
        bg: &Background,
        tau_end: f64,
        y: &[f64],
        stats: StepStats,
        cpu_seconds: f64,
        trajectory: Vec<DenseSample>,
    ) -> Self {
        let lay = rhs.layout.clone();
        let k = rhs.k;
        let m = rhs.metrics(tau_end, y);
        let delta_t: Vec<f64> = (0..=lay.lmax_g).map(|l| 0.25 * y[lay.fg(l)]).collect();
        let delta_p: Vec<f64> = (0..=lay.lmax_g).map(|l| 0.25 * y[lay.gg(l)]).collect();
        let r_nu = bg.r_nu_early();
        Self {
            k,
            gauge: lay.gauge,
            lmax_g: lay.lmax_g,
            tau_end,
            a_end: bg.a_of_tau(tau_end),
            delta_c: y[StateLayout::DELTA_C],
            theta_c: y[StateLayout::THETA_C],
            delta_b: y[StateLayout::DELTA_B],
            theta_b: y[StateLayout::THETA_B],
            delta_g: y[lay.fg(0)],
            theta_g: 0.75 * k * y[lay.fg(1)],
            delta_nu: y[lay.fnu(0)],
            theta_nu: 0.75 * k * y[lay.fnu(1)],
            delta_h: rhs.massive_delta(tau_end, y),
            sigma_g: 0.5 * y[lay.fg(2)],
            sigma_nu: 0.5 * y[lay.fnu(2)],
            phi: m.phi,
            psi: m.psi,
            psi_initial: 20.0 / (15.0 + 4.0 * r_nu),
            constraint: m.constraint,
            delta_t,
            delta_p,
            stats,
            cpu_seconds,
            trajectory,
            sources: None,
        }
    }

    /// Gauge-invariant total-matter density contrast used for the matter
    /// power spectrum (CDM + baryons, density-weighted).
    pub fn delta_matter(&self, omega_c: f64, omega_b: f64) -> f64 {
        (omega_c * self.delta_c + omega_b * self.delta_b) / (omega_c + omega_b)
    }

    /// Serialize to the paper's two-message wire format:
    /// a 21-real header and a `2·lmax+8`-real payload.  A line-of-sight
    /// run appends the recorded source function as a trailing
    /// `[n, τ_obs, 5·n reals]` extension — legacy frames (no extension)
    /// decode unchanged.
    pub fn to_wire(&self, ik: usize) -> (Vec<f64>, Vec<f64>) {
        let header = vec![
            ik as f64,
            self.k,
            self.tau_end,
            self.a_end,
            self.delta_c,
            self.theta_c,
            self.delta_b,
            self.theta_b,
            self.delta_g,
            self.theta_g,
            self.delta_nu,
            self.theta_nu,
            self.delta_h,
            self.sigma_g,
            self.sigma_nu,
            self.phi,
            self.psi,
            self.constraint,
            self.cpu_seconds,
            self.stats.total_flops() as f64,
            self.lmax_g as f64,
        ];
        debug_assert_eq!(header.len(), 21);
        let mut payload = Vec::with_capacity(2 * self.lmax_g + 8);
        payload.push(self.psi_initial);
        payload.push(self.stats.rhs_evals as f64);
        payload.push(self.stats.accepted as f64);
        payload.push(self.stats.rejected as f64);
        payload.push(match self.gauge {
            Gauge::Synchronous => 0.0,
            Gauge::ConformalNewtonian => 1.0,
        });
        payload.push(self.stats.stepper_flops as f64);
        payload.extend_from_slice(&self.delta_t);
        payload.extend_from_slice(&self.delta_p);
        debug_assert_eq!(payload.len(), 2 * self.lmax_g + 8);
        if let Some(src) = &self.sources {
            src.to_wire_ext(&mut payload);
        }
        (header, payload)
    }

    /// Reconstruct a record from the wire format.  Returns `(ik, record)`.
    /// The full [`StepStats`] travel: accepted/rejected steps and RHS
    /// evaluations ride in `payload[1..4]`, stepper flops in
    /// `payload[5]`, and RHS flops are recovered as the difference
    /// between the header's total-flops word and the stepper flops.
    /// Only the trajectory stays behind (it is a debugging aid, not a
    /// result).
    ///
    /// Malformed frames — a header that is not 21 reals, an `lmax` real
    /// that is not a whole number within the ceiling, or a payload
    /// whose length disagrees with the `lmax` the header declares (after
    /// accounting for an optional trailing source extension) — are
    /// reported as [`WireError`] rather than panicking, so a corrupt
    /// message from one worker can fail a farm run cleanly.
    pub fn from_wire(header: &[f64], payload: &[f64]) -> Result<(usize, Self), WireError> {
        if header.len() != 21 {
            return Err(WireError::BadHeaderLen { got: header.len() });
        }
        let lmax_g = wire_lmax(header[20])?;
        let want = 2 * lmax_g + 8;
        if payload.len() < want {
            return Err(WireError::BadPayloadLen {
                lmax_g,
                want,
                got: payload.len(),
            });
        }
        let sources = if payload.len() > want {
            match ModeSources::from_wire_ext(&payload[want..]) {
                Some(src) => Some(src),
                None => {
                    return Err(WireError::BadPayloadLen {
                        lmax_g,
                        want,
                        got: payload.len(),
                    })
                }
            }
        } else {
            None
        };
        let nl = lmax_g + 1;
        let delta_t = payload[6..6 + nl].to_vec();
        let delta_p = payload[6 + nl..6 + 2 * nl].to_vec();
        let stepper_flops = payload[5] as u64;
        let stats = StepStats {
            accepted: payload[2] as usize,
            rejected: payload[3] as usize,
            rhs_evals: payload[1] as usize,
            rhs_flops: (header[19] as u64).saturating_sub(stepper_flops),
            stepper_flops,
        };
        let out = Self {
            k: header[1],
            gauge: if payload[4] == 0.0 {
                Gauge::Synchronous
            } else {
                Gauge::ConformalNewtonian
            },
            lmax_g,
            tau_end: header[2],
            a_end: header[3],
            delta_c: header[4],
            theta_c: header[5],
            delta_b: header[6],
            theta_b: header[7],
            delta_g: header[8],
            theta_g: header[9],
            delta_nu: header[10],
            theta_nu: header[11],
            delta_h: header[12],
            sigma_g: header[13],
            sigma_nu: header[14],
            phi: header[15],
            psi: header[16],
            constraint: header[17],
            cpu_seconds: header[18],
            psi_initial: payload[0],
            delta_t,
            delta_p,
            stats,
            trajectory: Vec::new(),
            sources,
        };
        Ok((header[0] as usize, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output(lmax: usize) -> ModeOutput {
        ModeOutput {
            k: 0.05,
            gauge: Gauge::Synchronous,
            lmax_g: lmax,
            tau_end: 11990.0,
            a_end: 1.0,
            delta_c: -123.0,
            theta_c: 0.0,
            delta_b: -122.5,
            theta_b: 0.7,
            delta_g: 0.3,
            theta_g: -0.1,
            delta_nu: 0.2,
            theta_nu: -0.05,
            delta_h: 0.0,
            sigma_g: 0.01,
            sigma_nu: 0.02,
            phi: -1.1e-5,
            psi: -1.0e-5,
            psi_initial: 1.2,
            constraint: 1e-8,
            delta_t: (0..=lmax).map(|l| (l as f64).sin() * 1e-3).collect(),
            delta_p: (0..=lmax).map(|l| (l as f64).cos() * 1e-5).collect(),
            stats: StepStats {
                accepted: 1000,
                rejected: 13,
                rhs_evals: 8104,
                rhs_flops: 123456789,
                stepper_flops: 4200,
            },
            cpu_seconds: 3.25,
            trajectory: Vec::new(),
            sources: None,
        }
    }

    #[test]
    fn wire_sizes_match_the_paper() {
        let out = sample_output(50);
        let (h, p) = out.to_wire(7);
        assert_eq!(h.len(), 21);
        assert_eq!(p.len(), 2 * 50 + 8);
        // paper: y(1) = ik, y(21) = lmax
        assert_eq!(h[0], 7.0);
        assert_eq!(h[20], 50.0);
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let out = sample_output(31);
        let (h, p) = out.to_wire(42);
        let (ik, back) = ModeOutput::from_wire(&h, &p).unwrap();
        assert_eq!(ik, 42);
        assert_eq!(back.k, out.k);
        assert_eq!(back.lmax_g, out.lmax_g);
        assert_eq!(back.delta_c, out.delta_c);
        assert_eq!(back.delta_t, out.delta_t);
        assert_eq!(back.delta_p, out.delta_p);
        assert_eq!(back.stats.rhs_evals, out.stats.rhs_evals);
        assert_eq!(back.stats.accepted, out.stats.accepted);
        assert_eq!(back.stats.rejected, out.stats.rejected);
        assert_eq!(back.stats.stepper_flops, out.stats.stepper_flops);
        assert_eq!(back.stats.rhs_flops, out.stats.rhs_flops);
        assert_eq!(back.stats.total_flops(), out.stats.total_flops());
        assert_eq!(back.gauge, out.gauge);
        assert_eq!(back.psi_initial, out.psi_initial);
    }

    #[test]
    fn message_size_grows_with_lmax_as_in_section_4() {
        // "the message length increases roughly in proportion to the CPU
        // time, to a maximum of 80 kbyte" — sizes must scale linearly.
        let small = sample_output(10).to_wire(0).1.len();
        let big = sample_output(1000).to_wire(0).1.len();
        assert_eq!(small, 28);
        assert_eq!(big, 2008);
        // 10,000 moments → 8-byte reals × (2·10⁴ + 8) ≈ 160 kB for both
        // polarizations, i.e. the paper's 80 kB for temperature alone.
        let paper_scale = (2 * 10_000 + 8) * 8;
        assert!(paper_scale > 80_000);
    }

    #[test]
    fn delta_matter_weighting() {
        let out = sample_output(5);
        let dm = out.delta_matter(0.95, 0.05);
        assert!((dm - (0.95 * -123.0 + 0.05 * -122.5) / 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_wire_rejects_bad_header() {
        let err = ModeOutput::from_wire(&[0.0; 20], &[0.0; 28]).unwrap_err();
        assert_eq!(err, WireError::BadHeaderLen { got: 20 });
    }

    #[test]
    fn from_wire_rejects_a_garbled_lmax() {
        let (h, p) = sample_output(10).to_wire(0);
        assert!(ModeOutput::from_wire(&h, &p).is_ok());
        for garbled in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            2.5,
            1e300, // saturates to usize::MAX; 2·lmax + 8 then wraps to 6
            10_001.0,
        ] {
            let mut h = h.clone();
            h[20] = garbled;
            // six reals: what the wrapped length used to accept
            for payload in [&p[..], &p[..6]] {
                assert_eq!(
                    ModeOutput::from_wire(&h, payload).unwrap_err(),
                    WireError::BadLmax {
                        bits: garbled.to_bits()
                    },
                    "lmax real {garbled}"
                );
            }
        }
        // the ceiling itself is a length like any other
        let (h, p) = sample_output(10_000).to_wire(0);
        assert_eq!(ModeOutput::from_wire(&h, &p).unwrap().1.lmax_g, 10_000);
    }

    #[test]
    fn wire_roundtrip_carries_the_source_extension() {
        let mut out = sample_output(30);
        out.sources = Some(ModeSources {
            tau_obs: 11990.0,
            tau: vec![100.0, 200.0, 300.0],
            s0: vec![1.0, 2.0, 3.0],
            s1: vec![4.0, 5.0, 6.0],
            s2: vec![7.0, 8.0, 9.0],
            sp: vec![10.0, 11.0, 12.0],
        });
        let (h, p) = out.to_wire(3);
        assert_eq!(p.len(), 2 * 30 + 8 + 2 + 5 * 3);
        let (ik, back) = ModeOutput::from_wire(&h, &p).unwrap();
        assert_eq!(ik, 3);
        assert_eq!(back.sources, out.sources);
        assert_eq!(back.delta_t, out.delta_t);
        assert_eq!(back.delta_p, out.delta_p);
    }

    #[test]
    fn from_wire_rejects_corrupt_source_extension() {
        let mut out = sample_output(10);
        out.sources = Some(ModeSources {
            tau_obs: 11990.0,
            tau: vec![100.0, 200.0],
            s0: vec![1.0, 2.0],
            s1: vec![3.0, 4.0],
            s2: vec![5.0, 6.0],
            sp: vec![7.0, 8.0],
        });
        let (h, p) = out.to_wire(0);
        assert_eq!(
            ModeOutput::from_wire(&h, &p).unwrap().1.sources,
            out.sources
        );
        let rejected = |p: &[f64]| {
            let err = ModeOutput::from_wire(&h, p).unwrap_err();
            assert!(matches!(err, WireError::BadPayloadLen { lmax_g: 10, .. }));
        };
        rejected(&p[..p.len() - 1]); // extension now 11 reals, not 2 + 5·2

        // a count real that does not say what the length says
        let count = p.len() - 12;
        assert_eq!(p[count], 2.0);
        for garbled in [f64::NAN, f64::INFINITY, -2.0, 2.5, 1e300, 3.0] {
            let mut q = p.clone();
            q[count] = garbled;
            rejected(&q);
        }

        // sample times that are not finite and strictly increasing
        let tau = count + 2;
        for (t0, t1) in [
            (200.0, 100.0),
            (100.0, 100.0),
            (100.0, f64::NAN),
            (100.0, f64::INFINITY),
        ] {
            let mut q = p.clone();
            (q[tau], q[tau + 1]) = (t0, t1);
            rejected(&q);
        }
    }

    #[test]
    fn from_wire_rejects_mismatched_payload() {
        let (h, mut p) = sample_output(10).to_wire(0);
        p.pop();
        let err = ModeOutput::from_wire(&h, &p).unwrap_err();
        assert_eq!(
            err,
            WireError::BadPayloadLen {
                lmax_g: 10,
                want: 28,
                got: 27
            }
        );
    }
}
