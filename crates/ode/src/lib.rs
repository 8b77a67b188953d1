//! The adaptive embedded Runge–Kutta integrator every mode runs.
//!
//! LINGER integrated its moment hierarchies with DVERK, Hull–Enright–
//! Jackson's implementation of Verner's 6(5) pair from netlib.  This crate
//! provides that tableau ([`tableau::VERNER65`]) and nothing else, behind
//! one adaptive driver with a PI step-size controller, an observer that
//! sees every accepted step, and detailed work counters used by the
//! flop-rate benchmarks.
//!
//! The right-hand side is a [`Rhs`] implementor; systems of tens of
//! thousands of equations are routine (photon hierarchies to `l ≈ 10⁴`),
//! so the driver reuses stage buffers and never allocates inside the step
//! loop.

pub mod driver;
pub mod tableau;

pub use driver::{IntegrateOpts, Integrator, OdeError, StepObserver, StepStats};
pub use tableau::{Tableau, VERNER65};

/// A first-order ODE system `dy/dt = f(t, y)`.
///
/// `eval` must fill `dydt` completely.  Implementations may keep scratch
/// state (`&mut self`) — e.g. cached background-interpolation hints.
pub trait Rhs {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Evaluate the derivative.
    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]);

    /// Floating-point operations per `eval` call, used by the flop-rate
    /// accounting of the benchmark harness.  Default: unknown (0).
    fn flops_per_eval(&self) -> u64 {
        0
    }
}

impl<F> Rhs for (usize, F)
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    fn dim(&self) -> usize {
        self.0
    }
    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (self.1)(t, y, dydt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential decay: y' = -y, y(0)=1 → y(t) = e^{-t}.
    #[test]
    fn closure_rhs_adapter() {
        let mut rhs = (1usize, |_t: f64, y: &[f64], dydt: &mut [f64]| {
            dydt[0] = -y[0];
        });
        assert_eq!(rhs.dim(), 1);
        let mut d = [0.0];
        rhs.eval(0.0, &[2.0], &mut d);
        assert_eq!(d[0], -2.0);
    }
}
