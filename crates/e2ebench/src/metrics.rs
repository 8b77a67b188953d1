//! The benchmark's metric names, units, directions and bounds — the
//! table `BENCHMARK.json` repeats (a test holds the two together) — and
//! the value set one run fills in.

use std::collections::BTreeMap;

use telemetry::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique over both tables.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; end-to-end metrics have
    /// one, per-layer metrics do not.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one,
/// measured with harness tracing off.  An *item* is a k-mode on the two
/// C_l workloads, a shard on `sweep_pk`, a request on `serve_mix`; a
/// *result* is a normalised spectrum, a whole P(k) cube, a client's
/// cycle of one new spectrum and two replays.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_result_s", "s", Lower, 0.25),
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("speedup_vs_serial", "x", Higher, 0.25),
    e2e("cpu_ms_per_item", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Single layers, named by module, from the traced run.  A layer a
/// workload never enters reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("background.build_ms", "ms", Lower),
    layer("background.lookup_ns", "ns", Lower),
    layer("recomb.build_ms", "ms", Lower),
    layer("recomb.lookup_ns", "ns", Lower),
    layer("boltzmann.mode_ms_lo", "ms", Lower),
    layer("boltzmann.mode_ms_mid", "ms", Lower),
    layer("boltzmann.mode_ms_hi", "ms", Lower),
    layer("boltzmann.us_per_rhs_eval", "us", Lower),
    layer("boltzmann.rhs_kernel_ns_hi", "ns", Lower),
    layer("boltzmann.rhs_kernel_share", "ratio", Higher),
    layer("boltzmann.flops_per_mode", "count", Lower),
    layer("boltzmann.source_samples_per_mode", "count", Lower),
    layer("ode.rhs_evals_per_mode", "count", Lower),
    layer("ode.steps_accepted", "count", Lower),
    layer("ode.steps_rejected", "count", Lower),
    layer("ode.accept_ratio", "ratio", Higher),
    layer("ode.stepper_share", "ratio", Lower),
    layer("msgpass.msgs_per_mode", "count", Lower),
    layer("msgpass.bytes_per_mode", "bytes", Lower),
    layer("msgpass.roundtrip_us_channel", "us", Lower),
    layer("msgpass.codec_mb_per_s", "MB/s", Higher),
    layer("plinger.farm_efficiency", "ratio", Higher),
    layer("plinger.worker_idle_s", "s", Lower),
    layer("plinger.master_idle_s", "s", Lower),
    layer("plinger.load_imbalance", "ratio", Lower),
    layer("plinger.farm_fixed_ms", "ms", Lower),
    layer("plinger.pool_job_fixed_ms", "ms", Lower),
    layer("plinger.ctx_rebuilds", "count", Lower),
    layer("plinger.prefetch_builds", "count", Lower),
    layer("plinger.ctx_builds_per_shard", "ratio", Lower),
    layer("plinger.sweep_efficiency", "ratio", Higher),
    layer("plinger.job_hash_us", "us", Lower),
    layer("plinger.body_encode_us", "us", Lower),
    layer("plinger.body_decode_us", "us", Lower),
    layer("plinger.cache_lookup_us", "us", Lower),
    layer("plinger.cache_insert_us", "us", Lower),
    layer("plinger.serve_miss_ms_p50", "ms", Lower),
    layer("plinger.serve_miss_ms_p95", "ms", Lower),
    layer("plinger.serve_hit_us_p50", "us", Lower),
    layer("plinger.serve_hit_ms_p90", "ms", Lower),
    layer("plinger.serve_requests_per_s", "1/s", Higher),
    layer("plinger.serve_queue_wait_ms_p50", "ms", Lower),
    layer("plinger.serve_queue_wait_ms_p99", "ms", Lower),
    layer("plinger.serve_run_ms_p50", "ms", Lower),
    layer("plinger.serve_run_ms_p99", "ms", Lower),
    layer("plinger.serve_hits", "count", Higher),
    layer("plinger.serve_misses", "count", Higher),
    layer("plinger.serve_pool_jobs", "count", Lower),
    layer("plinger.serve_errors", "count", Lower),
    layer("plinger.serve_shed", "count", Lower),
    layer("plinger.hit_blocked_share", "ratio", Lower),
    layer("special.jltable_build_ms", "ms", Lower),
    layer("special.jl_eval_ns", "ns", Lower),
    layer("spectra.los_project_s", "s", Lower),
    layer("spectra.project_mode_ms_hi", "ms", Lower),
    layer("spectra.cl_assemble_ms", "ms", Lower),
    layer("spectra.pk_assemble_ms", "ms", Lower),
    layer("spectra.normalize_us", "us", Lower),
    layer("spectra.cl_band_dev", "ratio", Lower),
    layer("phase.context_s", "s", Lower),
    layer("phase.evolve_s", "s", Lower),
    layer("phase.project_s", "s", Lower),
    layer("phase.assemble_s", "s", Lower),
    layer("phase.residual_s", "s", Lower),
    layer("trace_overhead_share", "ratio", Lower),
    layer("setup.first_s", "s", Lower),
];

/// Per-layer counts that must repeat exactly for a fixed seed.
pub const EXACT_COUNTS: &[&str] = &[
    "boltzmann.flops_per_mode",
    "boltzmann.source_samples_per_mode",
    "ode.rhs_evals_per_mode",
    "ode.steps_accepted",
    "ode.steps_rejected",
    "msgpass.msgs_per_mode",
    "plinger.ctx_rebuilds",
    "plinger.prefetch_builds",
];

/// The values of one table for one run.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Record `value` under `name`.
    ///
    /// # Panics
    /// When `name` is not in the table, is set twice, or the value is
    /// not finite — each a bug in a workload, not in its input.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is {value}");
        let old = self.values.insert(def.name, value);
        assert!(old.is_none(), "metric {name} set twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric of the table in table order; a per-layer metric the
    /// workload left unset reads 0.
    ///
    /// # Panics
    /// When an end-to-end metric is unset: every workload reports all.
    pub fn rows(&self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or_else(|| {
                    assert!(d.bound.is_none(), "end-to-end metric {} unset", d.name);
                    0.0
                });
                (d, v)
            })
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.rows()
                .into_iter()
                .map(|(d, v)| {
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }
}
