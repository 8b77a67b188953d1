//! Property tests for the farm's protocol pieces and simulator.

use boltzmann::SpectrumMethod;
use plinger::{
    simulate_farm, EnsembleRequest, EnsembleSpec, RunSpec, SchedulePolicy, SimParams,
    SpectrumRequest,
};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = SchedulePolicy> {
    prop_oneof![
        Just(SchedulePolicy::LargestFirst),
        Just(SchedulePolicy::SmallestFirst),
        Just(SchedulePolicy::Fifo),
        any::<u64>().prop_map(SchedulePolicy::Random),
    ]
}

/// Reals a socket can put where a decoder expects a count: the ones
/// `as usize` mangles without a word (NaN → 0, ±∞ and anything ≥ 2⁶⁴ →
/// saturated, fractions truncated, negatives → 0), integers far past any
/// payload, and raw bit patterns.
fn arb_hostile_count() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-1.0),
        Just(2.5),
        Just(9007199254740992.0),     // 2^53
        Just(1.8e19),                 // the largest decade below 2^64
        Just(18446744073709551616.0), // 2^64
        any::<f64>(),
    ]
}

proptest! {
    #[test]
    fn hostile_counts_are_decode_errors_never_panics(
        ks in proptest::collection::vec(1e-4f64..1.0, 0..6),
        n_ob in 1usize..4,
        n_h in 1usize..4,
        n_ns in 1usize..4,
        los in proptest::bool::ANY,
        counts in proptest::collection::vec(arb_hostile_count(), 4),
        overwrite in 1usize..16,
    ) {
        let mut base = RunSpec::standard_cdm(ks);
        if los {
            base.method = SpectrumMethod::LineOfSight;
        }
        let ens = EnsembleSpec {
            omega_b: vec![0.05; n_ob],
            h: vec![0.5; n_h],
            n_s: vec![1.0; n_ns],
            base,
        };
        // the four count reals of a sweep: three axes, then the base
        // spec's k-count behind the axis values
        let at = [0, 1, 2, 3 + n_ob + n_h + n_ns];
        let mut wire = ens.encode();
        for (bit, (&i, &bad)) in at.iter().zip(&counts).enumerate() {
            if overwrite >> bit & 1 == 1 {
                wire[i] = bad;
            }
        }
        prop_assert!(EnsembleSpec::decode(&wire).is_err());
        let mut framed = vec![-1.0, 50.0];
        framed.extend_from_slice(&wire);
        prop_assert!(EnsembleRequest::decode(&framed).is_err());

        let mut wire = ens.base.encode();
        wire[0] = counts[3];
        prop_assert!(RunSpec::decode(&wire).is_err());
        let mut framed = vec![-1.0, 50.0];
        framed.extend_from_slice(&wire);
        prop_assert!(SpectrumRequest::decode(&framed).is_err());
    }

    #[test]
    fn schedule_order_is_a_permutation(
        ks in proptest::collection::vec(1e-4f64..1.0, 1..60),
        policy in arb_policy(),
    ) {
        let order = policy.order(&ks);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..ks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn spec_wire_roundtrip(
        ks in proptest::collection::vec(1e-4f64..1.0, 1..40),
        lmax_g in proptest::option::of(4usize..2000),
        tau_end in proptest::option::of(10.0f64..15000.0),
    ) {
        let mut spec = RunSpec::standard_cdm(ks.clone());
        spec.lmax_g = lmax_g;
        spec.tau_end = tau_end;
        let back = RunSpec::decode(&spec.encode()).unwrap();
        prop_assert_eq!(back.ks, ks);
        prop_assert_eq!(back.lmax_g, lmax_g);
        match (back.tau_end, tau_end) {
            (Some(a), Some(b)) => prop_assert_eq!(a, b),
            (None, None) => {},
            _ => prop_assert!(false, "tau_end mismatch"),
        }
    }

    #[test]
    fn simulator_conserves_work_and_bounds_efficiency(
        durations in proptest::collection::vec(0.01f64..5.0, 2..80),
        n_workers in 1usize..40,
        policy in arb_policy(),
    ) {
        let ks: Vec<f64> = (0..durations.len()).map(|i| 1e-3 * (i + 1) as f64).collect();
        let total: f64 = durations.iter().sum();
        let longest = durations.iter().cloned().fold(0.0, f64::max);
        let r = simulate_farm(&SimParams {
            durations: durations.clone(),
            policy,
            ks,
            n_workers,
            overhead: 0.0,
            startup: 0.0,
            speeds: Vec::new(),
        });
        // CPU conservation
        prop_assert!((r.busy.iter().sum::<f64>() - total).abs() < 1e-9);
        // makespan bounds: max(longest, total/N) ≤ wall ≤ total
        let lower = longest.max(total / n_workers as f64);
        prop_assert!(r.wall_seconds >= lower - 1e-9);
        prop_assert!(r.wall_seconds <= total + 1e-9);
        // list-scheduling guarantee: wall ≤ total/N + longest
        prop_assert!(r.wall_seconds <= total / n_workers as f64 + longest + 1e-9);
        let e = r.efficiency();
        prop_assert!(e > 0.0 && e <= 1.0 + 1e-12);
    }

    #[test]
    fn largest_first_meets_the_lpt_guarantee(
        durations in proptest::collection::vec(0.01f64..5.0, 4..60),
        n_workers in 2usize..16,
    ) {
        // Graham's LPT bound: makespan ≤ (4/3 − 1/3m) · OPT, and
        // OPT ≥ max(total/m, longest); so LPT's makespan can exceed the
        // *lower bound* by at most 4/3 of the gap structure.  We check
        // the universally valid chain: wall(LPT) ≤ (4/3)·wall(any OPT
        // witness) is unobservable, but wall(LPT) ≤ total/m + p_max(1−1/m)
        // — Graham's bound for any list schedule — must hold with slack.
        let m = n_workers as f64;
        let ks: Vec<f64> = durations.clone(); // cost grows with k by construction
        let total: f64 = durations.iter().sum();
        let p_max = durations.iter().cloned().fold(0.0, f64::max);
        let r = simulate_farm(&SimParams {
            durations: durations.clone(),
            policy: SchedulePolicy::LargestFirst,
            ks,
            n_workers,
            overhead: 0.0,
            startup: 0.0,
            speeds: Vec::new(),
        });
        prop_assert!(
            r.wall_seconds <= total / m + p_max * (1.0 - 1.0 / m) + 1e-9,
            "LPT violates Graham's bound: wall = {}", r.wall_seconds
        );
    }
}
