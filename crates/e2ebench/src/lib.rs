//! The repo's benchmark harness: four seeded workloads, six end-to-end
//! metrics every workload reports, and a per-layer table from a traced
//! run — the contract `BENCHMARK.json` at the repo root describes.
//!
//! Everything is measured from outside the program: by timing calls into
//! its public functions and by reading the counters those functions
//! already return.  See `README.md` beside this crate for the metric and
//! interaction tables and for why each workload exists.

pub mod cl;
pub mod gen;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod sys;
pub mod trace;

use boltzmann::SpectrumMethod;
use harness::{Outcome, RunCtx};

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: &[&str] = &["hierarchy_cl", "los_cl", "sweep_pk", "serve_mix"];

/// Run workload `name`.
pub fn run(name: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    match name {
        "hierarchy_cl" => cl::run(SpectrumMethod::FullHierarchy, ctx),
        "los_cl" => cl::run(SpectrumMethod::LineOfSight, ctx),
        "sweep_pk" => sweep::run(ctx),
        "serve_mix" => serve::run(ctx),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
