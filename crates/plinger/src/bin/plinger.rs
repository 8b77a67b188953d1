//! `plinger` — the parallel code: master/worker farm over wavenumbers.
//!
//! ```text
//! plinger --model scdm --nk 64 --workers 8 --output run1                 # threads
//! plinger --model scdm --nk 64 --workers 4 --transport tcp --output r1  # processes
//! ```
//!
//! With `--transport tcp` (or the `--tcp` shorthand), the master spawns
//! `--workers` copies of itself as OS subprocesses (hidden
//! `--tcp-worker ADDR RANK SIZE` mode) connected over localhost TCP —
//! the multi-node deployment of the paper mapped onto one machine.
//! Outputs are identical to `linger`'s, mode for mode and bit for bit.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use msgpass::channel::ChannelWorld;
use plinger::cli::{parse, CliOptions, Parsed, TelemetryMode, TransportKind, USAGE};
use plinger::output_files::{write_ascii, write_binary, write_run_report, write_trace};
use plinger::{
    parse_worker_fault, render_pretty, run_tcp_processes, run_tcp_worker, Farm, FarmReport,
    PoolOptions, SchedulePolicy,
};

/// Exit code used by scripted-fault workers so the master's respawn
/// logic can tell a deliberate vanish from a clean end-of-run exit.
const FAULT_EXIT: u8 = 42;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Parsed::TcpWorker(w)) => {
            let addr: std::net::SocketAddr = match w.addr.parse() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("plinger[worker {}]: bad master address: {e}", w.rank);
                    return ExitCode::FAILURE;
                }
            };
            let fault = match w.fault.as_deref() {
                Some(s) => match parse_worker_fault(s) {
                    Some(f) => Some(f),
                    None => {
                        eprintln!("plinger[worker {}]: bad fault spec {s:?}", w.rank);
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            // A vanish fault simulates a crash: exit with the marker
            // code so the master treats it as an abnormal exit worth a
            // replacement. Stall/failmode workers run to completion and
            // take the normal exit path.
            let vanish = matches!(fault, Some(plinger::WorkerFault::Vanish { .. }));
            match run_tcp_worker(addr, w.rank, w.size, fault) {
                Ok(()) if vanish => ExitCode::from(FAULT_EXIT),
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("plinger[worker {}]: {e}", w.rank);
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Parsed::Run(opts)) => run_master(*opts),
        Err(msg) => {
            eprintln!("error: {msg}\n\nusage: plinger [options]\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_master(opts: CliOptions) -> ExitCode {
    if opts.telemetry == TelemetryMode::Off {
        telemetry::set_enabled(false);
    }
    let farm = &opts.farm;
    farm.apply_log();
    let (transport_name, transport_tag) = match farm.transport {
        TransportKind::Channel => ("channel threads", "channel"),
        TransportKind::Tcp => ("TCP processes", "tcp"),
    };
    eprintln!(
        "plinger: {} modes on {} workers ({transport_name}), largest-k-first",
        opts.spec.ks.len(),
        farm.workers,
    );
    let t0 = std::time::Instant::now();
    let policy = SchedulePolicy::LargestFirst;
    let cfg = farm.master_config();
    let report: Result<FarmReport, _> = match farm.transport {
        TransportKind::Channel => Farm::<ChannelWorld>::new(farm.workers)
            .master_config(cfg)
            .run(&opts.spec, policy),
        TransportKind::Tcp => match std::env::current_exe() {
            Ok(exe) => {
                let pool = PoolOptions {
                    respawn_limit: farm.respawn_limit,
                    fault: None,
                };
                run_tcp_processes(&opts.spec, policy, farm.workers, &exe, cfg, pool)
            }
            Err(e) => {
                eprintln!("plinger: cannot locate own executable: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("plinger: farm failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "plinger: {:.2} s wall, {:.1} Mflop/s aggregate, efficiency {:.1}%",
        report.wall_seconds,
        report.mflops(),
        100.0 * report.parallel_efficiency()
    );
    // a spectrum missing quarantined modes is never written; the run
    // report, whose recovery ledger lists them, still is
    let complete = report.require_complete();
    if complete.is_ok() {
        if let Err(e) = write_ascii(
            format!("{}.linger", opts.output),
            &opts.spec,
            &report.outputs,
        ) {
            eprintln!("plinger: writing ASCII output failed: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = write_binary(format!("{}.lingerd", opts.output), &report.outputs) {
            eprintln!("plinger: writing binary output failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.telemetry != TelemetryMode::Off {
        match write_run_report(&opts.output, &report, transport_tag) {
            Ok((path, text)) => match opts.telemetry {
                TelemetryMode::Json => println!("{text}"),
                TelemetryMode::Pretty => {
                    print!("{}", render_pretty(&report, transport_tag));
                    eprintln!("plinger: run report written to {path}");
                }
                TelemetryMode::Off => unreachable!(),
            },
            Err(e) => {
                eprintln!("plinger: writing run report failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = write_trace(path, &report) {
            eprintln!("plinger: writing trace failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("plinger: chrome trace written to {path}");
    }
    if let Err(e) = complete {
        eprintln!("plinger: farm failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("plinger: total {:.2} s", t0.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
