//! `linger` — the serial code: LINGER's main loop over wavenumbers.
//!
//! ```text
//! linger --model scdm --nk 32 --kmax 0.1 --output run1
//! ```
//!
//! Writes `run1.linger` (ASCII headers) and `run1.lingerd` (binary
//! moment payloads), the two output units of the paper's master
//! subroutine.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use plinger::cli::{parse, Parsed, TelemetryMode, USAGE};
use plinger::output_files::{write_ascii, write_binary, write_run_report, write_trace};
use plinger::{render_pretty, run_serial, FarmReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Parsed::Run(o)) => o,
        Ok(Parsed::TcpWorker(_)) => {
            eprintln!("linger is the serial code; --tcp-worker belongs to plinger");
            return ExitCode::from(2);
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\nusage: linger [options]\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    opts.farm.apply_log();

    eprintln!(
        "linger: {} modes, k ∈ [{:.3e}, {:.3e}] Mpc⁻¹, gauge {:?}, preset {:?}",
        opts.spec.ks.len(),
        opts.spec.ks[0],
        opts.spec.ks[opts.spec.ks.len() - 1],
        opts.spec.gauge,
        opts.spec.preset
    );
    let t0 = std::time::Instant::now();
    let (outputs, wall) = match run_serial(&opts.spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("linger: {e}");
            return ExitCode::FAILURE;
        }
    };
    let flops: u64 = outputs.iter().map(|o| o.stats.total_flops()).sum();
    let rate = if wall > 0.0 {
        flops as f64 / wall / 1e6
    } else {
        0.0
    };
    eprintln!(
        "linger: done in {wall:.2} s ({rate:.1} Mflop/s); writing {}.linger / {}.lingerd",
        opts.output, opts.output
    );
    if let Err(e) = write_ascii(format!("{}.linger", opts.output), &opts.spec, &outputs) {
        eprintln!("linger: writing ASCII output failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_binary(format!("{}.lingerd", opts.output), &outputs) {
        eprintln!("linger: writing binary output failed: {e}");
        return ExitCode::FAILURE;
    }
    // The serial code has no workers or message traffic, but the mode
    // timing ledger is still worth a report: wrap the run in an
    // otherwise-empty FarmReport so the same writers apply.
    let report = FarmReport {
        outputs,
        wall_seconds: wall,
        ..FarmReport::default()
    };
    if opts.telemetry != TelemetryMode::Off {
        match write_run_report(&opts.output, &report, "serial") {
            Ok((path, text)) => match opts.telemetry {
                TelemetryMode::Json => println!("{text}"),
                TelemetryMode::Pretty => {
                    print!("{}", render_pretty(&report, "serial"));
                    eprintln!("linger: run report written to {path}");
                }
                TelemetryMode::Off => unreachable!(),
            },
            Err(e) => {
                eprintln!("linger: writing run report failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = write_trace(path, &report) {
            eprintln!("linger: writing trace failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("linger: chrome trace written to {path}");
    }
    eprintln!("linger: total {:.2} s", t0.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
