//! Property tests for the adaptive integrator.

use ode::{IntegrateOpts, Integrator, Rhs};
use proptest::prelude::*;

struct LinearDecay {
    rates: Vec<f64>,
}

impl Rhs for LinearDecay {
    fn dim(&self) -> usize {
        self.rates.len()
    }
    fn eval(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        for ((d, y), r) in dydt.iter_mut().zip(y).zip(&self.rates) {
            *d = -r * y;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decay_solutions_match_exponentials(
        rates in proptest::collection::vec(0.01f64..3.0, 1..6),
        t_end in 0.1f64..5.0,
    ) {
        let mut rhs = LinearDecay { rates: rates.clone() };
        let mut y: Vec<f64> = vec![1.0; rates.len()];
        let opts = IntegrateOpts { rtol: 1e-9, atol: 1e-12, ..Default::default() };
        Integrator::new().integrate(&mut rhs, 0.0, t_end, &mut y, &opts).unwrap();
        for (yi, r) in y.iter().zip(&rates) {
            let exact = (-r * t_end).exp();
            prop_assert!((yi - exact).abs() < 1e-6,
                "rate {r}: got {yi}, exact {exact}");
        }
    }

    #[test]
    fn forward_then_backward_returns_start(
        rate in 0.05f64..2.0,
        t_end in 0.2f64..3.0,
    ) {
        let mut rhs = LinearDecay { rates: vec![rate] };
        let mut y = vec![1.0];
        let opts = IntegrateOpts { rtol: 1e-10, atol: 1e-13, ..Default::default() };
        Integrator::new().integrate(&mut rhs, 0.0, t_end, &mut y, &opts).unwrap();
        Integrator::new().integrate(&mut rhs, t_end, 0.0, &mut y, &opts).unwrap();
        prop_assert!((y[0] - 1.0).abs() < 1e-7, "round trip gave {}", y[0]);
    }

    #[test]
    fn stats_monotone_in_tolerance(rate in 0.5f64..2.0) {
        let run = |rtol: f64| {
            let mut rhs = LinearDecay { rates: vec![rate] };
            let mut y = vec![1.0];
            let opts = IntegrateOpts { rtol, atol: rtol * 1e-3, ..Default::default() };
            Integrator::new().integrate(&mut rhs, 0.0, 10.0, &mut y, &opts).unwrap().rhs_evals
        };
        let loose = run(1e-4);
        let tight = run(1e-10);
        prop_assert!(tight >= loose, "tight {tight} < loose {loose}");
    }
}
