//! Transport-independence of the farm: the same `Farm` session runs
//! over the channel and TCP transports, producing
//! identical physics — the paper's claim that "the choice of which
//! library to use has no effect" beyond convenience.  Also the
//! session-layer fault test: a worker that dies mid-run costs the
//! default farm a requeue, not the run, within bounded time.

use std::time::{Duration, Instant};

use msgpass::channel::ChannelWorld;
use msgpass::tcp::TcpWorld;
use plinger::{Farm, FaultPlan, RunSpec, SchedulePolicy};
use plinger_repro::prelude::*;
use proptest::prelude::*;

fn tiny_spec() -> RunSpec {
    let mut spec = RunSpec::standard_cdm(vec![3.0e-4, 1.5e-3, 6.0e-4]);
    spec.preset = Preset::Draft;
    spec
}

fn assert_bitwise_match(outputs: &[boltzmann::ModeOutput], serial: &[boltzmann::ModeOutput]) {
    assert_eq!(outputs.len(), serial.len());
    for (out, s) in outputs.iter().zip(serial) {
        assert_eq!(out.k, s.k);
        assert_eq!(out.delta_c.to_bits(), s.delta_c.to_bits());
        assert_eq!(out.psi.to_bits(), s.psi.to_bits());
        assert_eq!(out.delta_t.len(), s.delta_t.len());
        for (a, b) in out.delta_t.iter().zip(&s.delta_t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn farm_over_tcp_star_matches_serial() {
    let spec = tiny_spec();
    let rep = Farm::<TcpWorld>::new(2)
        .run(&spec, SchedulePolicy::LargestFirst)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise_match(&rep.outputs, &serial);
}

#[test]
fn channel_and_tcp_agree_with_each_other() {
    let spec = tiny_spec();
    let chan = Farm::<ChannelWorld>::new(2)
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let tcp = Farm::<TcpWorld>::new(1)
        .run(&spec, SchedulePolicy::Random(9))
        .unwrap();
    for (c, t) in chan.outputs.iter().zip(&tcp.outputs) {
        assert_eq!(c.delta_b.to_bits(), t.delta_b.to_bits());
        assert_eq!(c.lmax_g, t.lmax_g);
    }
}

#[test]
fn completion_log_respects_scheduling() {
    // with one worker the completion order IS the dispatch order
    let spec = tiny_spec();
    let rep = Farm::<ChannelWorld>::new(1)
        .run(&spec, SchedulePolicy::LargestFirst)
        .unwrap();
    let iks: Vec<usize> = rep.completion_log.iter().map(|&(ik, _)| ik).collect();
    // ks = [3e-4, 1.5e-3, 6e-4] → largest first: 1, 2, 0
    assert_eq!(iks, vec![1, 2, 0]);
}

#[test]
fn default_farm_survives_a_dropped_worker() {
    // worker 1 silently dies holding its first mode (which the master
    // guarantees it is dealt); a farm with the default master
    // configuration requeues the mode, worker 2 finishes the run, and
    // the outputs are bit-identical to serial — within bounded time
    let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]);
    spec.preset = Preset::Draft;
    let t0 = Instant::now();
    let rep = Farm::<ChannelWorld>::new(2)
        .fault_plan(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "farm took {elapsed:?} to recover from the dead worker"
    );
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise_match(&rep.outputs, &serial);
    assert!(rep.recovery.requeues >= 1, "{:?}", rep.recovery);
    assert!(rep.recovery.failed_modes.is_empty(), "{:?}", rep.recovery);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For random tiny k-sets, the in-process farm reproduces the
    /// serial reference bit for bit whichever end of the grid it
    /// dispatches first.
    #[test]
    fn farm_is_bit_identical_across_transports(
        ks in proptest::collection::vec(2.0e-4f64..2.0e-3, 1..4),
        n_workers in 1usize..3,
    ) {
        let mut spec = RunSpec::standard_cdm(ks);
        spec.preset = Preset::Draft;
        let (serial, _) = run_serial(&spec).unwrap();
        let chan = Farm::<ChannelWorld>::new(n_workers)
            .run(&spec, SchedulePolicy::LargestFirst)
            .unwrap();
        let smallest = Farm::<ChannelWorld>::new(n_workers)
            .run(&spec, SchedulePolicy::SmallestFirst)
            .unwrap();
        for ((s, c), m) in serial.iter().zip(&chan.outputs).zip(&smallest.outputs) {
            prop_assert_eq!(s.delta_c.to_bits(), c.delta_c.to_bits());
            prop_assert_eq!(s.delta_c.to_bits(), m.delta_c.to_bits());
            prop_assert_eq!(s.psi.to_bits(), c.psi.to_bits());
            prop_assert_eq!(s.psi.to_bits(), m.psi.to_bits());
            for ((a, b), d) in s.delta_t.iter().zip(&c.delta_t).zip(&m.delta_t) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
                prop_assert_eq!(a.to_bits(), d.to_bits());
            }
        }
    }
}
