//! Shared command-line parsing for the `linger`, `plinger`, and
//! `plinger-serve` binaries.
//!
//! A tiny hand-rolled parser (no external CLI crates): flags are
//! `--name value` pairs; unknown flags abort with usage.  The flags are
//! grouped into reusable builders — [`SpecArgs`] (cosmology, grid,
//! accuracy → a [`RunSpec`]), [`FarmArgs`] (workers, transport,
//! recovery, timing → [`FarmSettings`]), and [`ServeArgs`] (listen
//! addresses, admission control, persistent cache →
//! [`ServeSettings`]) — so each binary composes exactly the groups it
//! understands: `linger`/`plinger` take the first two through
//! [`parse`], the `plinger-serve` server takes [`FarmArgs`] plus
//! [`ServeArgs`], and the `plinger-serve` client takes [`SpecArgs`]
//! plus a connect address.  Every flag keeps one definition, one
//! default, and one error message across all binaries.

use crate::ensemble::EnsembleSpec;
use crate::master::MasterConfig;
use crate::protocol::{require_flat, RunSpec};
use crate::recovery::RecoveryPolicy;
use background::CosmoParams;
use boltzmann::{Gauge, InitialConditions, Preset, SpectrumMethod};
use std::path::PathBuf;
use std::time::Duration;
use telemetry::log::{parse_log_flag, Level};

/// Which message-passing substrate the parallel binary farms over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process worker threads over mailboxes that refuse sends to a
    /// rank that is gone.
    #[default]
    Channel,
    /// In-process worker threads over shared-memory mailboxes.
    Shmem,
    /// OS-subprocess workers over localhost TCP sockets.
    Tcp,
}

/// How the run report is surfaced at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Human-readable summary tables on stdout (plus the JSON file).
    #[default]
    Pretty,
    /// Machine-readable `run_report.json` on stdout (plus the file).
    Json,
    /// Disable telemetry recording entirely; no report is written.
    Off,
}

/// Parsed run options common to both binaries.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The run specification (cosmology, grids, accuracy).
    pub spec: RunSpec,
    /// Output file prefix (writes `<prefix>.linger` + `<prefix>.lingerd`).
    pub output: String,
    /// Run-report surfacing mode.
    pub telemetry: TelemetryMode,
    /// Optional chrome-tracing output path (`--trace-out trace.json`).
    pub trace_out: Option<String>,
    /// Workers, transport, recovery, timings and `--log` — the same
    /// settings `plinger-serve` builds its pool from.
    pub farm: FarmSettings,
}

/// Internal marker for TCP worker subprocesses:
/// `--tcp-worker ADDR RANK SIZE [FAULT]`.
#[derive(Debug, Clone)]
pub struct TcpWorkerArgs {
    /// Master address to connect to.
    pub addr: String,
    /// This worker's rank.
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// Optional scripted fault (`vanish:N`, `stall:N:MS`, `failmode:IK`)
    /// injected by the fault-plan test harness.
    pub fault: Option<String>,
}

/// Result of parsing: a normal run or a hidden TCP-worker invocation.
#[derive(Debug)]
pub enum Parsed {
    /// Drive a run.
    Run(Box<CliOptions>),
    /// Act as a TCP worker child process.
    TcpWorker(TcpWorkerArgs),
}

/// Usage text shared by both binaries.
pub const USAGE: &str = "\
options:
  --model scdm|lcdm|mdm     cosmology preset              [scdm]
  --h VALUE                 Hubble parameter h
  --omega-b VALUE           baryon density
  --omega-c VALUE           CDM density
  --omega-lambda VALUE      cosmological constant
  --m-nu EV                 massive neutrino mass (eV)
  --n-s VALUE               primordial spectral index
  --gauge sync|newt         evolution gauge               [sync]
  --ic adiabatic|iso        initial conditions            [adiabatic]
  --preset draft|demo|prod  accuracy preset               [demo]
  --kmin / --kmax VALUE     k-grid bounds (Mpc⁻¹)         [1e-4 / 0.1]
  --nk N                    number of k values (log grid) [32]
  --lmax N                  photon hierarchy override     [auto]
  --method hierarchy|los    full ladder, or truncated hierarchy +
                            line-of-sight projection      [hierarchy]
  --tau-end MPC             stop early (conformal time)   [today]
  --output PREFIX           output file prefix            [linger_out]
  --workers N               parallel workers              [cores]
  --transport KIND          channel|shmem|tcp             [channel]
  --tcp                     shorthand for --transport tcp
  --telemetry MODE          pretty|json|off               [pretty]
  --trace-out FILE          write chrome-tracing JSON spans to FILE
  --recovery MODE           failfast|requeue              [requeue]
  --max-attempts N          dispatches per mode before quarantine [2]
  --poll MS                 master idle-poll interval     [25]
  --drain-timeout MS        worker drain window on error  [5000]
  --heartbeat-timeout MS    silence before a worker is dead [30000]
  --respawn-limit N         TCP subprocess respawn budget [2]
  --log LEVEL[,json]        structured events on stderr
                            (error|warn|info|debug)       [off]
";

/// Pop the value of `flag` off the argument iterator.
fn take<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Builder for the run-specification flag group: cosmology, gauge,
/// initial conditions, accuracy preset, and the k grid.
///
/// Feed it flags via [`SpecArgs::try_flag`] (it answers `Ok(false)` for
/// flags it does not own, so builders chain), then [`SpecArgs::build`]
/// validates and assembles the [`RunSpec`].
#[derive(Debug, Clone)]
pub struct SpecArgs {
    /// Cosmological parameters (preset + individual overrides).
    pub cosmo: CosmoParams,
    /// Evolution gauge.
    pub gauge: Gauge,
    /// Perturbation initial conditions.
    pub ic: InitialConditions,
    /// Accuracy preset.
    pub preset: Preset,
    /// Lower k-grid bound, Mpc⁻¹.
    pub kmin: f64,
    /// Upper k-grid bound, Mpc⁻¹.
    pub kmax: f64,
    /// Number of (log-spaced) grid points.
    pub nk: usize,
    /// Photon hierarchy override.
    pub lmax: Option<usize>,
    /// Early-stop conformal time, Mpc.
    pub tau_end: Option<f64>,
    /// Full hierarchy or line-of-sight fast path.
    pub method: SpectrumMethod,
    /// Ω_k of the selected `--model` before any flag overrides — the
    /// curvature [`SpecArgs::build`] re-closes the density budget to.
    base_omega_k: f64,
    /// `--omega-c` was given explicitly: the budget is the user's,
    /// `build` leaves it alone.
    pin_omega_c: bool,
}

impl Default for SpecArgs {
    fn default() -> Self {
        let cosmo = CosmoParams::standard_cdm();
        Self {
            base_omega_k: cosmo.omega_k(),
            cosmo,
            gauge: Gauge::Synchronous,
            ic: InitialConditions::Adiabatic,
            preset: Preset::Demo,
            kmin: 1.0e-4,
            kmax: 0.1,
            nk: 32,
            lmax: None,
            tau_end: None,
            method: SpectrumMethod::FullHierarchy,
            pin_omega_c: false,
        }
    }
}

impl SpecArgs {
    /// Consume `flag` (and its value from `it`) if it belongs to this
    /// group.  `Ok(true)` means handled; `Ok(false)` means not ours.
    pub fn try_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--model" => {
                self.cosmo = match take(flag, it)?.as_str() {
                    "scdm" => CosmoParams::standard_cdm(),
                    "lcdm" => CosmoParams::lcdm(),
                    "mdm" => CosmoParams::mixed_dark_matter(),
                    other => return Err(format!("unknown model {other}")),
                };
                self.base_omega_k = self.cosmo.omega_k();
            }
            "--h" => self.cosmo.h = num(take(flag, it)?)?,
            "--omega-b" => self.cosmo.omega_b = num(take(flag, it)?)?,
            "--omega-c" => {
                self.cosmo.omega_c = num(take(flag, it)?)?;
                self.pin_omega_c = true;
            }
            "--omega-lambda" => self.cosmo.omega_lambda = num(take(flag, it)?)?,
            "--m-nu" => {
                self.cosmo.m_nu_ev = num(take(flag, it)?)?;
                if self.cosmo.m_nu_ev > 0.0 && self.cosmo.n_nu_massive == 0 {
                    self.cosmo.n_nu_massive = 1;
                    self.cosmo.n_nu_massless = 2.0;
                }
            }
            "--n-s" => self.cosmo.n_s = num(take(flag, it)?)?,
            "--gauge" => {
                self.gauge = match take(flag, it)?.as_str() {
                    "sync" => Gauge::Synchronous,
                    "newt" => Gauge::ConformalNewtonian,
                    other => return Err(format!("unknown gauge {other}")),
                }
            }
            "--ic" => {
                self.ic = match take(flag, it)?.as_str() {
                    "adiabatic" => InitialConditions::Adiabatic,
                    "iso" => InitialConditions::CdmIsocurvature,
                    other => return Err(format!("unknown ic {other}")),
                }
            }
            "--preset" => {
                self.preset = match take(flag, it)?.as_str() {
                    "draft" => Preset::Draft,
                    "demo" => Preset::Demo,
                    "prod" => Preset::Production,
                    other => return Err(format!("unknown preset {other}")),
                }
            }
            "--kmin" => self.kmin = num(take(flag, it)?)?,
            "--kmax" => self.kmax = num(take(flag, it)?)?,
            "--nk" => self.nk = count(flag, it)?,
            "--lmax" => self.lmax = Some(count(flag, it)?),
            "--method" => {
                self.method = match take(flag, it)?.as_str() {
                    "hierarchy" | "full" => SpectrumMethod::FullHierarchy,
                    "los" => SpectrumMethod::LineOfSight,
                    other => return Err(format!("unknown method {other}")),
                }
            }
            "--tau-end" => self.tau_end = Some(num(take(flag, it)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validate and assemble the [`RunSpec`].
    ///
    /// Density overrides (`--omega-b`, `--h`, `--m-nu`, …) are
    /// re-closed into Ω_c at the `--model`'s curvature — the same
    /// trade [`EnsembleSpec::shard_cosmo`](crate::EnsembleSpec) makes
    /// — so flag-built cosmologies stay evolvable (the perturbation
    /// equations are flat-space-only) and hash-identical with the
    /// matching sweep shard.  The adjustment is exactly `0.0` when no
    /// density flag was given; an explicit `--omega-c` pins the whole
    /// budget and skips it, and a budget it leaves curved is refused by
    /// [`parse`] for the farm CLIs and by the server's admission for a
    /// `plinger-serve` client.
    pub fn build(self) -> Result<RunSpec, String> {
        if !(self.kmin > 0.0 && self.kmax > self.kmin) {
            return Err(format!("bad k range [{}, {}]", self.kmin, self.kmax));
        }
        if self.nk < 1 {
            return Err("need at least one k".into());
        }
        let ks = if self.nk == 1 {
            vec![self.kmin]
        } else {
            numutil::grid::logspace(self.kmin, self.kmax, self.nk)
        };
        let mut cosmo = self.cosmo;
        if !self.pin_omega_c {
            cosmo.omega_c += cosmo.omega_k() - self.base_omega_k;
        }
        Ok(RunSpec {
            cosmo,
            gauge: self.gauge,
            ic: self.ic,
            preset: self.preset,
            lmax_g: self.lmax,
            lmax_nu: None,
            lmax_h: 16,
            nq: None,
            tau_end: self.tau_end,
            method: self.method,
            ks,
        })
    }
}

/// Builder for the ensemble-sweep flag group: `--ensemble` plus the
/// `--sweep-*` axes over Ω_b, h, and n_s.  Composes with [`SpecArgs`]
/// (which fills the non-swept base cosmology): [`EnsembleArgs::build`]
/// turns the base [`RunSpec`] into an [`EnsembleSpec`] whose
/// unspecified axes default to singletons of the base value.
#[derive(Debug, Clone, Default)]
pub struct EnsembleArgs {
    /// `--ensemble` was given: the request is a sweep.
    pub ensemble: bool,
    /// `--sweep-omega-b` axis, when given.
    pub omega_b: Option<Vec<f64>>,
    /// `--sweep-h` axis, when given.
    pub h: Option<Vec<f64>>,
    /// `--sweep-ns` axis, when given.
    pub n_s: Option<Vec<f64>>,
}

impl EnsembleArgs {
    /// Consume `flag` (and its value from `it`) if it belongs to this
    /// group.  `Ok(true)` means handled; `Ok(false)` means not ours.
    pub fn try_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--ensemble" => self.ensemble = true,
            "--sweep-omega-b" => self.omega_b = Some(parse_axis(flag, take(flag, it)?)?),
            "--sweep-h" => self.h = Some(parse_axis(flag, take(flag, it)?)?),
            "--sweep-ns" => self.n_s = Some(parse_axis(flag, take(flag, it)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Assemble the sweep over `base`: `None` without `--ensemble`
    /// (a `--sweep-*` axis without it is an error), otherwise the
    /// [`EnsembleSpec`] with unspecified axes defaulting to the base
    /// cosmology's value.
    pub fn build(self, base: RunSpec) -> Result<Option<EnsembleSpec>, String> {
        if !self.ensemble {
            if self.omega_b.is_some() || self.h.is_some() || self.n_s.is_some() {
                return Err("--sweep-* axes need --ensemble".into());
            }
            return Ok(None);
        }
        let mut ens = EnsembleSpec::singleton(base);
        if let Some(axis) = self.omega_b {
            ens.omega_b = axis;
        }
        if let Some(axis) = self.h {
            ens.h = axis;
        }
        if let Some(axis) = self.n_s {
            ens.n_s = axis;
        }
        Ok(Some(ens))
    }
}

/// Parse a comma-separated `--sweep-*` axis into its values.
fn parse_axis(flag: &str, list: &str) -> Result<Vec<f64>, String> {
    let axis: Vec<f64> = list
        .split(',')
        .map(|v| num(v.trim()))
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad {flag} value {list:?} (comma-separated reals)"))?;
    if axis.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(axis)
}

/// Builder for the farm flag group: worker count, transport, recovery
/// policy, master timings, and respawn budget.
#[derive(Debug, Clone)]
pub struct FarmArgs {
    /// Worker count (defaults to the core count).
    pub workers: usize,
    /// Transport selection.
    pub transport: TransportKind,
    /// `--recovery requeue` (the default) vs `failfast`.
    pub requeue: bool,
    /// Dispatches per mode before quarantine.
    pub max_attempts: usize,
    /// Master idle-poll interval override.
    pub poll: Option<Duration>,
    /// Worker drain timeout override.
    pub drain_timeout: Option<Duration>,
    /// Heartbeat silence threshold override.
    pub heartbeat_timeout: Option<Duration>,
    /// Worker respawn budget.
    pub respawn_limit: usize,
    /// Structured-log stderr sink.
    pub log: Option<(Level, bool)>,
}

impl Default for FarmArgs {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            transport: TransportKind::default(),
            requeue: true,
            max_attempts: 2,
            poll: None,
            drain_timeout: None,
            heartbeat_timeout: None,
            respawn_limit: 2,
            log: None,
        }
    }
}

/// Validated farm settings out of [`FarmArgs::build`].
#[derive(Debug, Clone)]
pub struct FarmSettings {
    /// Worker count (≥ 1).
    pub workers: usize,
    /// Transport selection.
    pub transport: TransportKind,
    /// Assembled recovery policy.
    pub recovery: RecoveryPolicy,
    /// Master idle-poll interval override.
    pub poll: Option<Duration>,
    /// Worker drain timeout override.
    pub drain_timeout: Option<Duration>,
    /// Heartbeat silence threshold override.
    pub heartbeat_timeout: Option<Duration>,
    /// Worker respawn budget.
    pub respawn_limit: usize,
    /// Structured-log stderr sink (`--log level[,json]`).
    pub log: Option<(Level, bool)>,
}

impl FarmSettings {
    /// Assemble a [`MasterConfig`], leaving unset timings at their
    /// library defaults.
    pub fn master_config(&self) -> MasterConfig {
        let d = MasterConfig::default();
        MasterConfig {
            poll: self.poll.unwrap_or(d.poll),
            drain_timeout: self.drain_timeout.unwrap_or(d.drain_timeout),
            heartbeat_timeout: self.heartbeat_timeout.unwrap_or(d.heartbeat_timeout),
            recovery: self.recovery,
        }
    }

    /// Apply the `--log` flag to the process-wide stderr sink (no-op
    /// when the flag was absent).
    pub fn apply_log(&self) {
        if let Some((level, json)) = self.log {
            telemetry::log::set_stderr(Some(level), json);
        }
    }
}

impl FarmArgs {
    /// Consume `flag` (and its value from `it`) if it belongs to this
    /// group.  `Ok(true)` means handled; `Ok(false)` means not ours.
    pub fn try_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--workers" => self.workers = count(flag, it)?,
            "--transport" => {
                self.transport = match take(flag, it)?.as_str() {
                    "channel" => TransportKind::Channel,
                    "shmem" => TransportKind::Shmem,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport {other}")),
                }
            }
            "--tcp" => self.transport = TransportKind::Tcp,
            "--recovery" => {
                self.requeue = match take(flag, it)?.as_str() {
                    "failfast" => false,
                    "requeue" => true,
                    other => return Err(format!("unknown recovery mode {other}")),
                }
            }
            "--max-attempts" => self.max_attempts = count(flag, it)?,
            "--poll" => self.poll = Some(Duration::from_millis(count(flag, it)?)),
            "--drain-timeout" => self.drain_timeout = Some(Duration::from_millis(count(flag, it)?)),
            "--heartbeat-timeout" => {
                self.heartbeat_timeout = Some(Duration::from_millis(count(flag, it)?))
            }
            "--respawn-limit" => self.respawn_limit = count(flag, it)?,
            "--log" => self.log = Some(parse_log_flag(take(flag, it)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validate and assemble the [`FarmSettings`].
    pub fn build(self) -> Result<FarmSettings, String> {
        if self.workers < 1 {
            return Err("need at least one worker".into());
        }
        if self.max_attempts < 1 {
            return Err("need at least one attempt per mode".into());
        }
        let recovery = if self.requeue {
            RecoveryPolicy::Requeue {
                max_attempts: self.max_attempts,
                respawn: self.respawn_limit > 0,
            }
        } else {
            RecoveryPolicy::FailFast
        };
        Ok(FarmSettings {
            workers: self.workers,
            transport: self.transport,
            recovery,
            poll: self.poll,
            drain_timeout: self.drain_timeout,
            heartbeat_timeout: self.heartbeat_timeout,
            respawn_limit: self.respawn_limit,
            log: self.log,
        })
    }
}

/// In-flight request cap applied when `--queue-limit` is absent: both
/// the admission-control threshold and the `/healthz` not-ready trip
/// point.
pub const DEFAULT_QUEUE_LIMIT: u64 = 64;

/// Builder for the `plinger-serve` server flag group: listen/metrics
/// addresses, request admission, and the persistent result-cache tier.
#[derive(Debug, Clone, Default)]
pub struct ServeArgs {
    /// Bind address (`--listen`, required; port 0 picks one).
    pub listen: Option<String>,
    /// Optional HTTP `/metrics` + `/healthz` address.
    pub metrics_addr: Option<String>,
    /// Exit after N connections; 0 serves forever.
    pub max_requests: usize,
    /// Directory for per-miss run reports and flight dumps.
    pub report_dir: Option<PathBuf>,
    /// In-flight request cap (`--queue-limit`; `None` = 64).
    pub queue_limit: Option<u64>,
    /// Crash-safe result-cache directory (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
}

/// Validated server settings out of [`ServeArgs::build`].
#[derive(Debug, Clone)]
pub struct ServeSettings {
    /// Bind address.
    pub listen: String,
    /// Optional HTTP `/metrics` + `/healthz` address.
    pub metrics_addr: Option<String>,
    /// Exit after N connections; 0 serves forever.
    pub max_requests: usize,
    /// Directory for per-miss run reports and flight dumps.
    pub report_dir: Option<PathBuf>,
    /// In-flight request cap: requests past it are shed with a typed
    /// `Busy` frame, and `/healthz` reports not-ready at it.
    pub queue_limit: u64,
    /// Crash-safe result-cache directory.
    pub cache_dir: Option<PathBuf>,
}

impl ServeArgs {
    /// Consume `flag` (and its value from `it`) if it belongs to this
    /// group.  `Ok(true)` means handled; `Ok(false)` means not ours.
    pub fn try_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--listen" => self.listen = Some(take(flag, it)?.clone()),
            "--metrics-addr" => self.metrics_addr = Some(take(flag, it)?.clone()),
            "--max-requests" => self.max_requests = count(flag, it)?,
            "--report-dir" => self.report_dir = Some(PathBuf::from(take(flag, it)?)),
            "--queue-limit" => self.queue_limit = Some(count(flag, it)?),
            "--cache-dir" => self.cache_dir = Some(PathBuf::from(take(flag, it)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validate and assemble the [`ServeSettings`].
    pub fn build(self) -> Result<ServeSettings, String> {
        let listen = self.listen.ok_or("--listen needs a value")?;
        let queue_limit = self.queue_limit.unwrap_or(DEFAULT_QUEUE_LIMIT);
        if queue_limit < 1 {
            return Err("need a queue limit of at least 1".into());
        }
        Ok(ServeSettings {
            listen,
            metrics_addr: self.metrics_addr,
            max_requests: self.max_requests,
            report_dir: self.report_dir,
            queue_limit,
            cache_dir: self.cache_dir,
        })
    }
}

/// Recognize the hidden `--tcp-worker ADDR RANK SIZE [FAULT]` prefix.
/// `Ok(None)` means the arguments are a normal invocation.
pub fn parse_tcp_worker(args: &[String]) -> Result<Option<TcpWorkerArgs>, String> {
    if args.first().map(|s| s.as_str()) != Some("--tcp-worker") {
        return Ok(None);
    }
    if args.len() != 4 && args.len() != 5 {
        return Err("--tcp-worker needs ADDR RANK SIZE [FAULT]".into());
    }
    Ok(Some(TcpWorkerArgs {
        addr: args[1].clone(),
        rank: args[2].parse().map_err(|_| "bad rank")?,
        size: args[3].parse().map_err(|_| "bad size")?,
        fault: args.get(4).cloned(),
    }))
}

/// Parse `args` (without `argv[0]`).  On error, returns the message to
/// print alongside [`USAGE`].
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    // hidden worker mode first
    if let Some(w) = parse_tcp_worker(args)? {
        return Ok(Parsed::TcpWorker(w));
    }

    let mut spec = SpecArgs::default();
    let mut farm = FarmArgs::default();
    let mut output = "linger_out".to_string();
    let mut telemetry = TelemetryMode::default();
    let mut trace_out = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if spec.try_flag(flag, &mut it)? || farm.try_flag(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--output" => output = take(flag, &mut it)?.clone(),
            "--telemetry" => {
                telemetry = match take(flag, &mut it)?.as_str() {
                    "pretty" => TelemetryMode::Pretty,
                    "json" => TelemetryMode::Json,
                    "off" => TelemetryMode::Off,
                    other => return Err(format!("unknown telemetry mode {other}")),
                }
            }
            "--trace-out" => trace_out = Some(take(flag, &mut it)?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let spec = spec.build()?;
    // the farm CLIs refuse a curved model before any worker starts (the
    // serve client sends it on, for the server's admission to refuse)
    require_flat(&spec.cosmo).map_err(|e| e.to_string())?;
    Ok(Parsed::Run(Box::new(CliOptions {
        spec,
        output,
        telemetry,
        trace_out,
        farm: farm.build()?,
    })))
}

fn num(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

/// Pop the value of a count or millisecond flag: a whole number that
/// fits the field, or a usage error naming the flag (`2.5`, `1e300`,
/// `nan` and `-1` are all refused, never truncated or wrapped).
fn count<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<T, String> {
    let v = take(flag, it)?;
    v.parse()
        .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let p = parse(&[]).unwrap();
        match p {
            Parsed::Run(o) => {
                assert_eq!(o.spec.ks.len(), 32);
                assert_eq!(o.output, "linger_out");
                assert_eq!(o.farm.transport, TransportKind::Channel);
            }
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn full_flag_set() {
        let p = parse(&argv(
            "--model lcdm --gauge newt --ic iso --preset draft --kmin 1e-3 \
             --kmax 1e-2 --nk 5 --lmax 40 --tau-end 250 --output foo --workers 3 --tcp",
        ))
        .unwrap();
        match p {
            Parsed::Run(o) => {
                assert!(o.spec.cosmo.omega_lambda > 0.5);
                assert_eq!(o.spec.gauge, Gauge::ConformalNewtonian);
                assert_eq!(o.spec.ic, InitialConditions::CdmIsocurvature);
                assert_eq!(o.spec.preset, Preset::Draft);
                assert_eq!(o.spec.ks.len(), 5);
                assert_eq!(o.spec.lmax_g, Some(40));
                assert_eq!(o.spec.tau_end, Some(250.0));
                assert_eq!(o.output, "foo");
                assert_eq!(o.farm.workers, 3);
                assert_eq!(o.farm.transport, TransportKind::Tcp);
            }
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn ensemble_args_parse_axes_and_default_to_base_singletons() {
        let args = argv("--sweep-omega-b 0.04,0.05,0.06 --sweep-ns 0.95,1.0 --ensemble");
        let mut ens_args = EnsembleArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            assert!(ens_args.try_flag(flag, &mut it).unwrap(), "{flag}");
        }
        let base = SpecArgs::default().build().unwrap();
        let ens = ens_args.build(base.clone()).unwrap().unwrap();
        assert_eq!(ens.omega_b, vec![0.04, 0.05, 0.06]);
        assert_eq!(ens.n_s, vec![0.95, 1.0]);
        // the unswept h axis is the base value's singleton
        assert_eq!(ens.h, vec![base.cosmo.h]);
        assert_eq!(ens.n_shards(), 6);

        // no --ensemble: no sweep, and stray axes are an error
        assert!(EnsembleArgs::default()
            .build(base.clone())
            .unwrap()
            .is_none());
        let stray = EnsembleArgs {
            omega_b: Some(vec![0.04]),
            ..EnsembleArgs::default()
        };
        assert!(stray.build(base).is_err());

        // malformed axis values are rejected with the flag named
        let bad = argv("--sweep-h 0.5,banana");
        let mut ens_args = EnsembleArgs::default();
        let mut it = bad.iter();
        let flag = it.next().unwrap();
        assert!(ens_args.try_flag(flag, &mut it).is_err());
    }

    /// Build a [`RunSpec`] from spectrum-flag text alone.
    fn spec_flags(text: &str) -> RunSpec {
        let args = argv(text);
        let mut sa = SpecArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            assert!(sa.try_flag(flag, &mut it).unwrap(), "{flag}");
        }
        sa.build().unwrap()
    }

    #[test]
    fn density_overrides_reclose_into_omega_c() {
        let base = SpecArgs::default().build().unwrap();
        // no density flags: the closure is a bitwise no-op
        assert_eq!(
            base.cosmo.omega_c.to_bits(),
            CosmoParams::standard_cdm().omega_c.to_bits()
        );
        // Ω_b / h overrides trade against Ω_c at the model's curvature
        let moved = spec_flags("--omega-b 0.06 --h 0.7");
        assert!((moved.cosmo.omega_k() - base.cosmo.omega_k()).abs() < 1e-12);
        assert_ne!(moved.cosmo.omega_c, base.cosmo.omega_c);
        // an explicit --omega-c pins the budget verbatim
        let pinned = spec_flags("--omega-b 0.06 --omega-c 0.2");
        assert_eq!(pinned.cosmo.omega_c, 0.2);
        // --model resets the closure target to the new model's curvature
        let lcdm = spec_flags("--model lcdm --omega-b 0.06");
        let lcdm_base = spec_flags("--model lcdm");
        assert!((lcdm.cosmo.omega_k() - lcdm_base.cosmo.omega_k()).abs() < 1e-12);
    }

    #[test]
    fn flag_built_spec_crosses_over_into_the_matching_sweep_shard() {
        // the cli closure and EnsembleSpec::shard_cosmo must agree
        // bitwise, or a single-spectrum request stops sharing cache
        // entries with the sweep that already computed its cosmology
        let base = SpecArgs::default().build().unwrap();
        let ens = EnsembleArgs {
            ensemble: true,
            omega_b: Some(vec![0.03, 0.06]),
            h: Some(vec![0.5, 0.7]),
            n_s: None,
        }
        .build(base)
        .unwrap()
        .unwrap();
        // canonical order is omega_b-major, h-fast: (0.06, 0.7) is shard 3
        let single = spec_flags("--omega-b 0.06 --h 0.7");
        assert_eq!(
            crate::job_hash(&ens.shard_spec(3)),
            crate::job_hash(&single)
        );
        assert_eq!(ens.shard_hash(3), crate::job_hash(&single));
    }

    #[test]
    fn transport_flag_selects_substrate() {
        for (arg, want) in [
            ("--transport channel", TransportKind::Channel),
            ("--transport shmem", TransportKind::Shmem),
            ("--transport tcp", TransportKind::Tcp),
            ("--tcp", TransportKind::Tcp),
        ] {
            match parse(&argv(arg)).unwrap() {
                Parsed::Run(o) => assert_eq!(o.farm.transport, want, "{arg}"),
                _ => panic!("expected run for {arg}"),
            }
        }
        assert!(parse(&argv("--transport carrier-pigeon")).is_err());
    }

    #[test]
    fn massive_nu_flag_reshuffles_species() {
        match parse(&argv("--m-nu 4.66")).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.spec.cosmo.n_nu_massive, 1);
                assert_eq!(o.spec.cosmo.n_nu_massless, 2.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn tcp_worker_mode() {
        match parse(&argv("--tcp-worker 127.0.0.1:4000 2 5")).unwrap() {
            Parsed::TcpWorker(w) => {
                assert_eq!(w.rank, 2);
                assert_eq!(w.size, 5);
                assert_eq!(w.addr, "127.0.0.1:4000");
                assert_eq!(w.fault, None);
            }
            _ => panic!(),
        }
        match parse(&argv("--tcp-worker 127.0.0.1:4000 2 5 vanish:1")).unwrap() {
            Parsed::TcpWorker(w) => assert_eq!(w.fault.as_deref(), Some("vanish:1")),
            _ => panic!(),
        }
        assert!(parse(&argv("--tcp-worker 127.0.0.1:4000 2 5 vanish:1 extra")).is_err());
    }

    #[test]
    fn recovery_flags_parse() {
        match parse(&[]).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(
                    o.farm.recovery,
                    RecoveryPolicy::Requeue {
                        max_attempts: 2,
                        respawn: true
                    }
                );
                assert_eq!(o.farm.respawn_limit, 2);
                let cfg = o.farm.master_config();
                assert_eq!(cfg.poll, MasterConfig::default().poll);
            }
            _ => panic!("expected run"),
        }
        match parse(&argv("--recovery failfast")).unwrap() {
            Parsed::Run(o) => assert_eq!(o.farm.recovery, RecoveryPolicy::FailFast),
            _ => panic!("expected run"),
        }
        match parse(&argv(
            "--recovery requeue --max-attempts 3 --respawn-limit 0 \
             --poll 10 --drain-timeout 750 --heartbeat-timeout 2000",
        ))
        .unwrap()
        {
            Parsed::Run(o) => {
                assert_eq!(
                    o.farm.recovery,
                    RecoveryPolicy::Requeue {
                        max_attempts: 3,
                        respawn: false
                    }
                );
                assert_eq!(o.farm.respawn_limit, 0);
                let cfg = o.farm.master_config();
                assert_eq!(cfg.poll, Duration::from_millis(10));
                assert_eq!(cfg.drain_timeout, Duration::from_millis(750));
                assert_eq!(cfg.heartbeat_timeout, Duration::from_millis(2000));
            }
            _ => panic!("expected run"),
        }
        assert!(parse(&argv("--recovery maybe")).is_err());
        assert!(parse(&argv("--max-attempts 0")).is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        match parse(&[]).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.telemetry, TelemetryMode::Pretty);
                assert_eq!(o.trace_out, None);
            }
            _ => panic!("expected run"),
        }
        for (arg, want) in [
            ("--telemetry pretty", TelemetryMode::Pretty),
            ("--telemetry json", TelemetryMode::Json),
            ("--telemetry off", TelemetryMode::Off),
        ] {
            match parse(&argv(arg)).unwrap() {
                Parsed::Run(o) => assert_eq!(o.telemetry, want, "{arg}"),
                _ => panic!("expected run for {arg}"),
            }
        }
        match parse(&argv("--trace-out /tmp/trace.json")).unwrap() {
            Parsed::Run(o) => assert_eq!(o.trace_out.as_deref(), Some("/tmp/trace.json")),
            _ => panic!("expected run"),
        }
        assert!(parse(&argv("--telemetry verbose")).is_err());
        assert!(parse(&argv("--trace-out")).is_err());
    }

    #[test]
    fn log_flag_parses() {
        match parse(&[]).unwrap() {
            Parsed::Run(o) => assert_eq!(o.farm.log, None),
            _ => panic!("expected run"),
        }
        match parse(&argv("--log info")).unwrap() {
            Parsed::Run(o) => assert_eq!(o.farm.log, Some((Level::Info, false))),
            _ => panic!("expected run"),
        }
        match parse(&argv("--log debug,json")).unwrap() {
            Parsed::Run(o) => assert_eq!(o.farm.log, Some((Level::Debug, true))),
            _ => panic!("expected run"),
        }
        assert!(parse(&argv("--log loud")).is_err());
    }

    #[test]
    fn serve_args_parse() {
        let args = argv(
            "--listen 127.0.0.1:0 --metrics-addr 127.0.0.1:9 --max-requests 7 \
             --queue-limit 3 --cache-dir /tmp/cache --report-dir /tmp/reports",
        );
        let mut serve = ServeArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            assert!(serve.try_flag(flag, &mut it).unwrap(), "{flag} not owned");
        }
        let cfg = serve.build().unwrap();
        assert_eq!(cfg.listen, "127.0.0.1:0");
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(cfg.max_requests, 7);
        assert_eq!(cfg.queue_limit, 3);
        assert_eq!(cfg.cache_dir.as_deref(), Some(Path::new("/tmp/cache")));
        assert_eq!(cfg.report_dir.as_deref(), Some(Path::new("/tmp/reports")));

        // defaults: the queue limit falls back, the listen address is
        // mandatory, and a zero limit is rejected
        let mut serve = ServeArgs::default();
        let args = argv("--listen 127.0.0.1:0");
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            serve.try_flag(flag, &mut it).unwrap();
        }
        let cfg = serve.build().unwrap();
        assert_eq!(cfg.queue_limit, DEFAULT_QUEUE_LIMIT);
        assert_eq!(cfg.max_requests, 0);
        assert!(ServeArgs::default().build().is_err(), "listen is required");
        let mut serve = ServeArgs {
            listen: Some("x".into()),
            queue_limit: Some(0),
            ..Default::default()
        };
        assert!(serve.clone().build().is_err(), "zero limit rejected");
        serve.queue_limit = Some(1);
        assert!(serve.build().is_ok());

        // farm flags are not owned by the serve group
        let mut serve = ServeArgs::default();
        let args = argv("--workers 2");
        let mut it = args.iter();
        let flag = it.next().unwrap();
        assert!(!serve.try_flag(flag, &mut it).unwrap());
    }

    #[test]
    fn bad_flag_is_error() {
        assert!(parse(&argv("--frobnicate 3")).is_err());
        assert!(parse(&argv("--kmin -1")).is_err());
        assert!(parse(&argv("--kmin 0.1 --kmax 0.01")).is_err());
    }

    #[test]
    fn builders_compose_independently() {
        // the serve client path: spec flags only, farm flags rejected
        let args = argv("--model lcdm --nk 3 --preset draft");
        let mut spec = SpecArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            assert!(spec.try_flag(flag, &mut it).unwrap(), "{flag} not owned");
        }
        let spec = spec.build().unwrap();
        assert_eq!(spec.ks.len(), 3);
        assert!(spec.cosmo.omega_lambda > 0.5);

        let mut spec = SpecArgs::default();
        let args = argv("--workers 3");
        let mut it = args.iter();
        let flag = it.next().unwrap();
        assert!(!spec.try_flag(flag, &mut it).unwrap());

        // the serve server path: farm flags only
        let args = argv("--workers 2 --transport shmem --recovery failfast");
        let mut farm = FarmArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            assert!(farm.try_flag(flag, &mut it).unwrap(), "{flag} not owned");
        }
        let farm = farm.build().unwrap();
        assert_eq!(farm.workers, 2);
        assert_eq!(farm.transport, TransportKind::Shmem);
        assert_eq!(farm.recovery, RecoveryPolicy::FailFast);

        // a value-less flag errors inside the builder, not at build()
        let args = argv("--kmin");
        let mut spec = SpecArgs::default();
        let mut it = args.iter();
        let flag = it.next().unwrap();
        assert!(spec.try_flag(flag, &mut it).is_err());
    }
}
