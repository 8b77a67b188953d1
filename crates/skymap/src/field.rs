//! 2-D Fourier synthesis of the evolving ψ potential — the paper's
//! movie: "the evolution of the potential psi of the conformal Newtonian
//! gauge … a comoving 100 Mpc across … ends shortly after recombination,
//! at conformal time 250 Mpc."

use numutil::interp::CubicSpline;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A realization of the potential on a periodic 2-D slice.
pub struct PotentialField {
    /// Box size, comoving Mpc.
    pub box_mpc: f64,
    /// Pixels per side.
    pub npix: usize,
    modes: Vec<FieldMode>,
    /// Interpolators ψ(τ) per |k| shell, shared by the modes.
    shells: Vec<CubicSpline>,
}

struct FieldMode {
    /// Wavevector components (2π n / L).
    kx: f64,
    ky: f64,
    /// Index into the |k| shells.
    shell: usize,
    /// Amplitude drawn from the primordial spectrum.
    amp: f64,
    /// Random phase.
    phase: f64,
}

impl PotentialField {
    /// Build a field realization.
    ///
    /// * `shell_k` — |k| values (Mpc⁻¹) at which ψ(τ) histories are
    ///   supplied, ascending;
    /// * `histories` — for each shell, `(τ, ψ)` samples at strictly
    ///   increasing `τ`, at least three (as
    ///   `boltzmann::evolve::potential_history` records them);
    /// * `spectrum_power` — primordial 𝒫_ψ(k) evaluated per shell;
    /// * `n_modes_max` — cap on the number of Fourier modes synthesized.
    pub fn new(
        box_mpc: f64,
        npix: usize,
        shell_k: &[f64],
        histories: &[Vec<(f64, f64)>],
        spectrum_power: &[f64],
        n_modes_max: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(shell_k.len(), histories.len());
        assert_eq!(shell_k.len(), spectrum_power.len());
        assert!(shell_k.windows(2).all(|w| w[1] > w[0]));
        let shells: Vec<CubicSpline> = histories
            .iter()
            .map(|h| {
                let (taus, psis): (Vec<f64>, Vec<f64>) = h.iter().copied().unzip();
                CubicSpline::natural(taus, psis)
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let kf = 2.0 * std::f64::consts::PI / box_mpc;
        let nmax = (shell_k[shell_k.len() - 1] / kf).floor() as i64;
        let mut modes = Vec::new();
        for nx in -nmax..=nmax {
            for ny in 0..=nmax {
                if ny == 0 && nx <= 0 {
                    continue; // avoid double-counting conjugate pairs and DC
                }
                let kx = kf * nx as f64;
                let ky = kf * ny as f64;
                let kk = (kx * kx + ky * ky).sqrt();
                if kk < shell_k[0] || kk > shell_k[shell_k.len() - 1] {
                    continue;
                }
                let shell = numutil::interp::locate(shell_k, kk);
                // Rayleigh amplitude from 𝒫_ψ: per-mode variance scales
                // with the dimensionless power spread over the 2-D shell
                let p = spectrum_power[shell];
                let sigma = (p / (kk / kf).max(1.0)).sqrt();
                let u: f64 = rng.random::<f64>().max(1e-12);
                let amp = sigma * (-2.0 * u.ln()).sqrt() / 2.0;
                let phase = rng.random::<f64>() * 2.0 * std::f64::consts::PI;
                modes.push(FieldMode {
                    kx,
                    ky,
                    shell,
                    amp,
                    phase,
                });
            }
        }
        // keep the largest-amplitude modes if over the budget
        modes.sort_by(|a, b| b.amp.total_cmp(&a.amp));
        modes.truncate(n_modes_max);
        Self {
            box_mpc,
            npix,
            modes,
            shells,
        }
    }

    /// Number of Fourier modes synthesized.
    pub fn n_modes(&self) -> usize {
        self.modes.len()
    }

    /// Render ψ(x; τ) as an `npix × npix` frame.
    pub fn frame(&self, tau: f64) -> Vec<f64> {
        let n = self.npix;
        let dx = self.box_mpc / n as f64;
        // evaluate each mode's transfer once
        let transfer: Vec<f64> = self
            .modes
            .iter()
            .map(|m| m.amp * self.shells[m.shell].eval(tau))
            .collect();
        (0..n * n)
            .map(|idx| {
                let i = idx / n;
                let j = idx % n;
                let x = i as f64 * dx;
                let y = j as f64 * dx;
                let mut v = 0.0;
                for (m, t) in self.modes.iter().zip(&transfer) {
                    v += t * (m.kx * x + m.ky * y + m.phase).cos();
                }
                v
            })
            .collect()
    }

    /// RMS of a frame.
    pub fn frame_rms(frame: &[f64]) -> f64 {
        (frame.iter().map(|v| v * v).sum::<f64>() / frame.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_history(osc: f64) -> Vec<(f64, f64)> {
        // ψ(τ) = cos(osc τ)/(1+τ/100): oscillating, decaying
        (0..=100)
            .map(|i| {
                let t = 2.5 * i as f64;
                (t, (osc * t).cos() / (1.0 + t / 100.0))
            })
            .collect()
    }

    fn build(seed: u64) -> PotentialField {
        let shells = vec![0.07, 0.2, 0.5, 1.0];
        let hist: Vec<_> = shells.iter().map(|&k| fake_history(k)).collect();
        let power = vec![1.0; 4];
        PotentialField::new(100.0, 16, &shells, &hist, &power, 64, seed)
    }

    #[test]
    fn field_is_deterministic_per_seed() {
        let f1 = build(5);
        let f2 = build(5);
        assert_eq!(f1.frame(100.0), f2.frame(100.0));
        let f3 = build(6);
        assert_ne!(f1.frame(100.0), f3.frame(100.0));
    }

    #[test]
    fn frames_evolve_in_time() {
        let f = build(1);
        let a = f.frame(10.0);
        let b = f.frame(200.0);
        assert_eq!(a.len(), 256);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "field must evolve");
    }

    #[test]
    fn mode_count_respects_budget_and_box() {
        let f = build(2);
        assert!(
            f.n_modes() > 10 && f.n_modes() <= 64,
            "modes = {}",
            f.n_modes()
        );
    }

    #[test]
    fn frame_has_zero_mean() {
        let f = build(3);
        let frame = f.frame(50.0);
        let mean: f64 = frame.iter().sum::<f64>() / frame.len() as f64;
        let rms = PotentialField::frame_rms(&frame);
        assert!(mean.abs() < 0.2 * rms, "mean {mean}, rms {rms}");
    }
}
