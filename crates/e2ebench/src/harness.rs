//! What the workloads share: the run's arguments, its outcome, the
//! time-bounded repetition loop and the bitwise output comparison.

use std::time::Instant;

use boltzmann::ModeOutput;
use plinger::hash_reals;
use telemetry::SpanEvent;

use crate::metrics::Metrics;
use crate::stats::{lower_quartile, median};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Slices the serial baseline is taken in, one a repetition: every part
/// is timed once in this many repetitions.
pub const SERIAL_SLICES: usize = 3;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// `--seed`: the only source of the inputs.
    pub seed: u64,
    /// `--seconds`: length of the measured window.
    pub seconds: f64,
    /// `--trace 1`: record spans, run the layer probes, report the
    /// per-layer table instead of the end-to-end one.
    pub trace: bool,
    /// `--smoke`: shrink every workload to a fraction of a second.
    pub smoke: bool,
    /// Workers, and `serve_mix` connections: the core count.
    pub workers: usize,
    /// When the process started.
    pub started: Instant,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Timed repetitions or requests.
    pub attempted: u64,
    /// Those that errored, were refused, or failed verification.
    pub failed: u64,
    /// The table this run reports (end-to-end, or per-layer when traced).
    pub metrics: Metrics,
    /// Verification failures, in words.
    pub problems: Vec<String>,
    /// Harness spans plus the timelines the program returned.
    pub spans: Vec<SpanEvent>,
}

impl Outcome {
    /// Whether every output was verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The measured loop of the repetition workloads: call `rep(i, traced)`
/// until the next call would overrun `budget` seconds, and often enough
/// to take the serial baseline once.  A traced run marks every other
/// repetition `traced`, so traced and untraced ones share whatever the
/// machine is doing.  The budget is spent by the calls' whole duration;
/// the typical call is the median so far.  Returns what finished and
/// what failed.
pub fn timed_reps<R>(
    ctx: &RunCtx,
    budget: f64,
    mut rep: impl FnMut(usize, bool) -> Result<R, String>,
) -> (Vec<R>, Vec<String>) {
    // never fewer than cover the serial baseline once
    let min_reps = if ctx.trace && !ctx.smoke {
        4
    } else {
        SERIAL_SLICES
    };
    let began = Instant::now();
    let (mut done, mut errors, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let i = walls.len();
        let t = Instant::now();
        match rep(i, ctx.trace && i % 2 == 1) {
            Ok(r) => done.push(r),
            Err(e) => errors.push(e),
        }
        walls.push(t.elapsed().as_secs_f64());
        let typical = median(&walls).unwrap_or(0.0);
        if walls.len() >= min_reps && began.elapsed().as_secs_f64() + typical > budget {
            return (done, errors);
        }
    }
}

/// The serial side of `speedup_vs_serial`, and the reference of the
/// verify stage: the job run part by part (a k-mode, a shard) through
/// `run_serial`, one slice of the parts beside each timed repetition
/// instead of one pass before them all.  Whatever else the host is doing
/// then falls on both sides of the ratio alike, and a part's time is the
/// lower quartile of its samples, as the parallel side's is of its.
#[derive(Debug)]
pub struct SerialBaseline {
    /// Seconds of each part, sample by sample.
    samples: Vec<Vec<f64>>,
    /// Seconds of each slice spent outside its parts (building tables).
    overheads: Vec<f64>,
    /// Output hash of each part, once it has run.
    hashes: Vec<Option<u64>>,
    /// Parts whose outputs differed between two serial runs.
    unstable: Vec<usize>,
}

impl SerialBaseline {
    /// A baseline over `parts` parts, none run yet.
    pub fn new(parts: usize) -> Self {
        Self {
            samples: vec![Vec::new(); parts],
            overheads: Vec::new(),
            hashes: vec![None; parts],
            unstable: Vec::new(),
        }
    }

    /// The parts repetition `rep` runs: every [`SERIAL_SLICES`]-th,
    /// starting one further each time, so neighbouring parts — the ones
    /// of like cost — spread over the slices.
    pub fn slice(&self, rep: usize) -> Vec<usize> {
        (rep % SERIAL_SLICES..self.samples.len())
            .step_by(SERIAL_SLICES)
            .collect()
    }

    /// Part `part` ran serially in `seconds` and made outputs of `hash`.
    pub fn record(&mut self, part: usize, seconds: f64, hash: u64) {
        self.samples[part].push(seconds);
        if self.hashes[part]
            .replace(hash)
            .is_some_and(|old| old != hash)
        {
            self.unstable.push(part);
        }
    }

    /// A slice spent `seconds` outside its parts.
    pub fn record_overhead(&mut self, seconds: f64) {
        self.overheads.push(seconds);
    }

    /// Seconds of the whole job run serially: each part's lower
    /// quartile, plus that of a slice's overhead.
    pub fn seconds(&self) -> f64 {
        let parts: f64 = self.samples.iter().filter_map(|s| lower_quartile(s)).sum();
        parts + lower_quartile(&self.overheads).unwrap_or(0.0)
    }

    /// Why `hashes`, a parallel run's outputs part by part, are not the
    /// serial ones bit for bit; `None` when they are.
    pub fn mismatch(&self, hashes: &[u64]) -> Option<String> {
        if let Some(part) = self.unstable.first() {
            return Some(format!("run_serial made two outputs of part {part}"));
        }
        if hashes.len() != self.hashes.len() {
            return Some(format!(
                "{} parts, {} expected",
                hashes.len(),
                self.hashes.len()
            ));
        }
        let part = (0..hashes.len()).find(|&i| self.hashes[i] != Some(hashes[i]))?;
        Some(match self.hashes[part] {
            Some(_) => format!("part {part} differs from run_serial"),
            None => format!("part {part} never ran serially"),
        })
    }
}

/// The reals of `out` that physics determines: its wire encoding with
/// the worker's own `cpu_seconds` blanked.
fn physics_reals(out: &ModeOutput, into: &mut Vec<f64>) {
    let (mut header, payload) = out.to_wire(0);
    header[18] = 0.0; // cpu_seconds
    into.extend_from_slice(&header);
    into.extend_from_slice(&payload);
}

/// Content hash of a run's outputs, timing excluded: equal exactly when
/// two runs agree bit for bit, mode for mode.
pub fn outputs_hash(outputs: &[ModeOutput]) -> u64 {
    let mut reals = Vec::new();
    for out in outputs {
        physics_reals(out, &mut reals);
    }
    hash_reals(&reals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slices_of_consecutive_repetitions_cover_every_part_once() {
        let baseline = SerialBaseline::new(8);
        let mut seen: Vec<usize> = (0..SERIAL_SLICES).flat_map(|r| baseline.slice(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(baseline.slice(0), baseline.slice(SERIAL_SLICES));
    }

    #[test]
    fn the_baseline_sums_undisturbed_parts_and_checks_hashes() {
        let mut baseline = SerialBaseline::new(2);
        assert_eq!(
            baseline.mismatch(&[7, 8]).as_deref(),
            Some("part 0 never ran serially")
        );
        for (part, seconds, hash) in [(0, 1.0, 7), (1, 2.0, 8), (0, 1.5, 7), (1, 3.0, 8)] {
            baseline.record(part, seconds, hash);
        }
        baseline.record_overhead(0.25);
        baseline.record_overhead(0.5);
        assert_eq!(baseline.seconds(), 3.25);
        assert_eq!(baseline.mismatch(&[7, 8]), None);
        assert_eq!(
            baseline.mismatch(&[7, 9]).as_deref(),
            Some("part 1 differs from run_serial")
        );
        assert!(baseline.mismatch(&[7]).is_some());
        // a part that does not repeat itself spoils the reference
        baseline.record(0, 1.0, 6);
        assert!(baseline.mismatch(&[6, 8]).is_some());
    }
}
