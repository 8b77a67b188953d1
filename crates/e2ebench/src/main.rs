//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`: run one
//! workload, print every metric by name with its unit, verify the
//! outputs, and end with one JSON object on the last line of stdout.

use std::process::ExitCode;
use std::time::Instant;

use e2ebench::harness::{Outcome, RunCtx};
use e2ebench::metrics::{Better, END_TO_END};
use telemetry::{write_chrome_trace, Json};

const USAGE: &str = "\
usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 [options]

  --workload NAME   hierarchy_cl | los_cl | sweep_pk | serve_mix
  --seed N          the inputs are a function of this alone
  --seconds S       length of the measured window
  --trace 0|1       0: end-to-end metrics, harness tracing off
                    1: spans recorded, layer probes run, per-layer metrics
options:
  --trace-out FILE  with --trace 1, write the spans as a chrome trace
                    (open in ui.perfetto.dev or chrome://tracing)
  --repeat N        run N times; print how far each end-to-end metric
                    moved between the first and last run, against its bound
  --smoke           shrink the workload to a fraction of a second
";

struct Args {
    workload: String,
    ctx: RunCtx,
    trace_out: Option<String>,
    repeat: usize,
}

fn parse(argv: &[String], started: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut repeat = 1usize;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| bad(&v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<f64>().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&v));
                }
                seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--trace-out" => trace_out = Some(value()?),
            "--repeat" => {
                let v = value()?;
                repeat = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad(&v))?;
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: RunCtx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            workers,
            started,
        },
        trace_out,
        repeat,
    })
}

fn print_metrics(outcome: &Outcome) {
    for (def, value) in outcome.metrics.rows() {
        println!("metric {} = {value} {}", def.name, def.unit);
    }
    for problem in &outcome.problems {
        println!("# verify: {problem}");
    }
}

/// How far each end-to-end metric moved between two runs of the same
/// code, as a share of the first, beside the bound it is held to.
fn print_drift(first: &Outcome, last: &Outcome) {
    println!("# drift between the first and the last run, against each bound:");
    for def in END_TO_END {
        let (Some(a), Some(b), Some(bound)) = (
            first.metrics.get(def.name),
            last.metrics.get(def.name),
            def.bound,
        ) else {
            continue;
        };
        let worse = match def.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        println!(
            "#   {:<20} {a:>12.5} -> {b:>12.5} {:<4} worse by {:>+7.2} %  (bound {:.0} %){}",
            def.name,
            def.unit,
            100.0 * worse,
            100.0 * bound,
            if worse > bound { "  OVER" } else { "" },
        );
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv, started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# e2ebench {} seed={} seconds={} trace={} workers={}{}",
        args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        u8::from(args.ctx.trace),
        args.ctx.workers,
        if args.ctx.smoke { " (smoke scale)" } else { "" },
    );

    let mut outcomes: Vec<Outcome> = Vec::new();
    for run in 0..args.repeat {
        // a later run is not a fresh process: its first set-up starts now
        let ctx = RunCtx {
            started: if run == 0 { started } else { Instant::now() },
            ..args.ctx.clone()
        };
        match e2ebench::run(&args.workload, &ctx) {
            Ok(outcome) => {
                print_metrics(&outcome);
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(last) = outcomes.last() else {
        return ExitCode::FAILURE;
    };
    if !args.ctx.trace && outcomes.len() > 1 {
        print_drift(&outcomes[0], last);
    }
    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut w| {
                write_chrome_trace(&mut w, &last.spans)?;
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# {} spans written to {path}", last.spans.len());
    }

    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(last.correct())),
        ("attempted".into(), Json::Num(last.attempted as f64)),
        ("failed".into(), Json::Num(last.failed as f64)),
        ("metrics".into(), last.metrics.to_json()),
    ]);
    println!("{result}");
    if last.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
