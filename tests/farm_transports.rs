//! Transport-independence of the farm: the same `Farm` session runs
//! over the channel, shared-memory, and TCP transports, producing
//! identical physics — the paper's claim that "the choice of which
//! library to use has no effect" beyond convenience.  Also the
//! session-layer fault tests: a worker that dies mid-run must surface
//! as a typed error naming the unfinished modes, within bounded time.

use std::time::{Duration, Instant};

use msgpass::channel::ChannelWorld;
use msgpass::shmem::ShmemWorld;
use msgpass::tcp::TcpWorld;
use plinger::{Farm, FarmError, FaultPlan, MasterConfig, RunSpec, SchedulePolicy};
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
fn farm_over_shared_memory_matches_serial() {
    let spec = tiny_spec();
    let rep = Farm::<ShmemWorld>::new(2)
        .run(&spec, SchedulePolicy::LargestFirst)
        .unwrap();
    let (serial, _) = run_serial(&spec).unwrap();
    assert_bitwise_match(&rep.outputs, &serial);
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
fn dropped_worker_yields_error_not_deadlock() {
    // worker 1 silently dies holding its first mode (which the master
    // guarantees it is dealt); the master must detect the loss, drain
    // worker 2, and report which modes never finished — all within
    // bounded time.
    let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3, 6.0e-4]);
    spec.preset = Preset::Draft;
    let t0 = Instant::now();
    let err = Farm::<ChannelWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "farm took {elapsed:?} to notice the dead worker"
    );
    match err {
        FarmError::WorkerLost { rank, unfinished } => {
            assert_eq!(rank, 1);
            assert!(!unfinished.is_empty(), "some modes must be unfinished");
            assert!(
                unfinished.iter().all(|&ik| ik < spec.ks.len()),
                "unfinished iks must index the k-grid: {unfinished:?}"
            );
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
}

#[test]
fn dropped_worker_over_shmem_also_detected() {
    // shmem has no disconnect signal at all — liveness must come purely
    // from the watch flags and the unconditional stop flush
    let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 8.0e-4, 4.0e-4, 1.0e-3]);
    spec.preset = Preset::Draft;
    let t0 = Instant::now();
    let err = Farm::<ShmemWorld>::new(2)
        .master_config(MasterConfig {
            poll: Duration::from_millis(10),
            drain_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        })
        .fault_plan(FaultPlan::DropWorker {
            rank: 2,
            after_modes: 0,
        })
        .run(&spec, SchedulePolicy::Fifo)
        .unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(10));
    match err {
        FarmError::WorkerLost { rank, .. } => assert_eq!(rank, 2),
        other => panic!("expected WorkerLost, got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For random tiny k-sets, the farm over every in-process transport
    /// reproduces the serial reference bit for bit.
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
        let shm = Farm::<ShmemWorld>::new(n_workers)
            .run(&spec, SchedulePolicy::SmallestFirst)
            .unwrap();
        for ((s, c), m) in serial.iter().zip(&chan.outputs).zip(&shm.outputs) {
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
