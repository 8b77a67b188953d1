//! Spectrum-as-a-service: a job front-end over a warm [`FarmPool`].
//!
//! A pooled farm turns "run the spectrum code" into "ask a resident
//! service for a spectrum", and once jobs are cheap to issue the same
//! k-grid gets requested twice.  [`SpectrumService`] closes that loop:
//! every request is keyed by the canonical job hash
//! ([`crate::protocol::job_hash`] — an FNV-1a over the exact tag-1 wire
//! bits of the [`RunSpec`], so two requests collide exactly when they
//! would broadcast identical job parameters) and looked up in a
//! content-addressed [`ResultCache`] before any worker is disturbed.  A
//! hit returns the stored response body — bit-for-bit the bytes the
//! first run produced, with hit/miss telemetry counted; a miss runs the
//! job on the pool, encodes the outputs into a flat real-vector body
//! ([`encode_spectrum_body`]), caches it, and also hands back the
//! per-job [`FarmReport`] for `run_report`-schema metrics export.
//!
//! The response body is a plain `Vec<f64>` rather than a struct so the
//! `plinger-serve` wire protocol (see `docs/PROTOCOL.md`) can ship it
//! unmodified in one length-prefixed frame, and so cached and fresh
//! responses are comparable by hashing the reals' bit patterns.
//!
//! Requests are served strictly in arrival order on the pool (the
//! master already deals each job's modes, one at a time, to every
//! worker); concurrency lives one layer up, in the server bin,
//! which runs one connection per thread and hands every frame it reads
//! to [`answer`].  Tag 20 and tag 22 take the one request path there:
//! admission gate, decode and admit, the service lock, the run, the
//! reply frames.  A queue slot taken at the gate is released by its
//! `Drop` on every way out, so no exit path can leak queue depth.
//! Inside the service every pool job, a spectrum miss or a sweep's
//! evolution, is run and counted at one point, and a sweep has no loop
//! of its own: it is a consumer of the one group walk in
//! [`crate::ensemble`], holding whatever the cache holds.
//! Every frame has one wire form (`docs/PROTOCOL.md` §5).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use boltzmann::ModeOutput;
use msgpass::{Message, Tag, World};
use telemetry::log::{self as tlog, Level};
use telemetry::{Counter, Histogram, TelemetrySnapshot};

use crate::ensemble::{
    ensemble_hash, walk, EnsembleOptions, EnsembleSpec, ShardTurn, SweepConsumer,
};
use crate::error::{CancelReason, FarmError};
use crate::farm::FarmReport;
use crate::master::JobControl;
use crate::output_files::{write_run_report, write_trace};
use crate::pool::FarmPool;
use crate::protocol::{count_from_real, hash_reals, job_hash, require_evolvable, RunSpec};
use crate::schedule::SchedulePolicy;

/// Tag 20, client → server: request one spectrum.  Payload:
/// `[-1.0, deadline_ms, …RunSpec::encode()]`, where `deadline_ms` is the
/// client's *relative* time budget in milliseconds (`≤ 0` meaning none;
/// clocks differ, so the wire never carries an absolute time).  A
/// payload without that header is a `bad-request`.
///
/// See [`SpectrumRequest`].  The deadline is *not* part of the job
/// identity: [`crate::protocol::job_hash`] covers the spec bits only,
/// so cache keys are deadline-independent.
pub const TAG_REQ_SPECTRUM: Tag = 20;
/// Tag 21, server → client: the spectrum response.  The payload is
/// `[hit_flag]` (1.0 when served from the [`ResultCache`], else 0.0)
/// followed by the [`encode_spectrum_body`] reals.
pub const TAG_RESP_SPECTRUM: Tag = 21;
/// Tag 22, client → server: request a whole parameter sweep.  Payload:
/// `[-1.0, deadline_ms, …EnsembleSpec::encode()]`, the header of
/// [`TAG_REQ_SPECTRUM`] with the deadline covering the *whole sweep*.
///
/// The server answers with one [`TAG_RESP_SHARD`] frame per shard in
/// canonical shard order, then one [`TAG_RESP_ENSEMBLE`] summary — or a
/// [`TAG_RESP_ERROR`] at any point, which terminates the stream.
pub const TAG_REQ_ENSEMBLE: Tag = 22;
/// Tag 23, server → client: one finished shard of an ensemble request.
/// Payload: `[shard_index, n_shards, hit_flag, key_hi, key_lo,
/// …encode_spectrum_body reals]` where `hit_flag` is 1.0 for a
/// [`ResultCache`] hit and the shard's canonical job hash rides as two
/// exact 32-bit halves (`key_hi = key >> 32`, `key_lo = key & 0xffff_ffff`)
/// so no transport needs to preserve NaN bit patterns.
pub const TAG_RESP_SHARD: Tag = 23;
/// Tag 24, server → client: the ensemble stream terminator.  Payload:
/// exactly `[n_ok, n_shards, wall_seconds, cache_hits]`.
pub const TAG_RESP_ENSEMBLE: Tag = 24;
/// Tag 25, client → server: request service counters (empty payload).
pub const TAG_REQ_METRICS: Tag = 25;
/// Tag 26, server → client: service counters, gauges, and latency
/// summaries as exactly 18 reals (see [`ServiceMetrics::wire_payload`]
/// for the layout).
pub const TAG_RESP_METRICS: Tag = 26;
/// Tag 29, server → client: the request could not be served.  Payload:
/// `[-1.0, code, retry_after_ms, …UTF-8 text, one byte per real]` —
/// `code` is an [`ErrorCode`] discriminant and `retry_after_ms` the
/// server's backoff hint (0 when meaningless).
pub const TAG_RESP_ERROR: Tag = 29;

/// Machine-readable class of a [`TAG_RESP_ERROR`] reply.  The wire
/// discriminants are part of the protocol (docs/PROTOCOL.md §5) and
/// must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue is full; retry after the hinted backoff.
    Busy = 1,
    /// The request frame failed to decode.
    BadRequest = 2,
    /// The farm failed while running the job.
    Internal = 3,
    /// The server is draining and no longer accepts work.
    ShuttingDown = 4,
    /// The request's deadline expired before or during the job.
    DeadlineExceeded = 5,
    /// The job was cancelled cooperatively for another reason.
    Cancelled = 6,
}

impl ErrorCode {
    fn from_wire(code: f64) -> Option<Self> {
        match code as i64 {
            1 => Some(ErrorCode::Busy),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::Internal),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::DeadlineExceeded),
            6 => Some(ErrorCode::Cancelled),
            _ => None,
        }
    }

    /// Kebab-case name, used in logs and client-facing messages.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Cancelled => "cancelled",
        }
    }
}

/// A typed [`TAG_RESP_ERROR`] frame: an [`ErrorCode`], an optional
/// retry hint, and the human-readable text.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Server's suggested minimum backoff before retrying, ms (0 when
    /// retrying is pointless or the server has no opinion).
    pub retry_after_ms: u64,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ServiceError {
    /// A frame with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            retry_after_ms: 0,
            message: message.into(),
        }
    }

    /// The typed wire form: `[-1.0, code, retry_after_ms, …text]`.
    pub fn encode(&self) -> Vec<f64> {
        let mut v = vec![-1.0, self.code as i64 as f64, self.retry_after_ms as f64];
        v.extend(self.message.bytes().map(f64::from));
        v
    }

    /// Decode a [`TAG_RESP_ERROR`] payload.  An unknown code decodes as
    /// [`ErrorCode::Internal`], keeping the text; a payload without the
    /// `[-1.0, code, retry_after_ms]` header is an `Internal` error that
    /// says so, never text.
    pub fn decode(data: &[f64]) -> Self {
        match data {
            [sentinel, code, retry, text @ ..] if *sentinel == -1.0 => Self {
                code: ErrorCode::from_wire(*code).unwrap_or(ErrorCode::Internal),
                retry_after_ms: retry.max(0.0) as u64,
                message: text.iter().map(|&b| b as u8 as char).collect(),
            },
            _ => Self::new(
                ErrorCode::Internal,
                format!("error frame without its header ({} reals)", data.len()),
            ),
        }
    }
}

/// Prefix `body` with the `[-1.0, deadline_ms]` header of a tag-20/22
/// request (`0.0` for no deadline).
fn with_deadline(deadline_ms: Option<f64>, body: Vec<f64>) -> Vec<f64> {
    [vec![-1.0, deadline_ms.unwrap_or(0.0)], body].concat()
}

/// Decode a tag-20/22 payload: the `[-1.0, deadline_ms]` header
/// (`deadline_ms ≤ 0` meaning none), then the body by `decode`.  Any
/// failure is a `bad-request` naming `what`.
fn decode_with_deadline<T, E: std::fmt::Display>(
    data: &[f64],
    what: &str,
    decode: impl FnOnce(&[f64]) -> Result<T, E>,
) -> Result<(T, Option<f64>), ServiceError> {
    let bad = |why: String| {
        ServiceError::new(ErrorCode::BadRequest, format!("bad {what} request: {why}"))
    };
    match data {
        [sentinel, ms, body @ ..] if *sentinel == -1.0 => {
            let body = decode(body).map_err(|e| bad(e.to_string()))?;
            Ok((body, (*ms > 0.0).then_some(*ms)))
        }
        _ => Err(bad("no [-1, deadline_ms] header".into())),
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)?;
        if self.retry_after_ms > 0 {
            write!(f, " (retry after {} ms)", self.retry_after_ms)?;
        }
        Ok(())
    }
}

/// One tag-20 request: the job spec plus an optional relative deadline.
#[derive(Debug, Clone)]
pub struct SpectrumRequest {
    /// The job parameters (the cache key covers exactly these bits).
    pub spec: RunSpec,
    /// Client's time budget in milliseconds, measured from server
    /// accept; `None` means run to completion.
    pub deadline_ms: Option<f64>,
}

impl SpectrumRequest {
    /// A request with no deadline.
    pub fn new(spec: RunSpec) -> Self {
        Self {
            spec,
            deadline_ms: None,
        }
    }

    /// Encode for the wire (see [`TAG_REQ_SPECTRUM`]).
    pub fn encode(&self) -> Vec<f64> {
        with_deadline(self.deadline_ms, self.spec.encode())
    }

    /// Decode a [`TAG_REQ_SPECTRUM`] payload; anything malformed is a
    /// `bad-request`.  A non-positive deadline decodes as `None`.
    pub fn decode(data: &[f64]) -> Result<Self, ServiceError> {
        let (spec, deadline_ms) = decode_with_deadline(data, "spectrum", RunSpec::decode)?;
        Ok(Self { spec, deadline_ms })
    }

    /// Admission check, run before the request is queued: a cosmology
    /// the workers cannot evolve (a parameter out of range, a curved
    /// budget), or a real that would size an absurd allocation, is the
    /// client's error
    /// ([`ErrorCode::BadRequest`]), not a worker panic mid-job.
    pub fn admit(&self) -> Result<(), ServiceError> {
        require_bounded(&self.spec)?;
        admit_cosmology(&self.spec.cosmo, "request")
    }
}

/// Ceiling on a requested photon or massless-neutrino ladder: the
/// paper's "up to 10,000 moments", which `Preset::Production` caps at.
const MAX_LMAX: usize = 10_000;
/// Ceiling on a requested massive-neutrino ladder (per momentum bin).
const MAX_LMAX_H: usize = 1_000;
/// Ceiling on requested massive-neutrino momentum bins.
const MAX_NQ: usize = 256;
/// Ceiling on the number of massive neutrino species.
const MAX_NU_MASSIVE: usize = 16;

/// Refuse a spec whose untrusted reals would size a state vector beyond
/// the ceilings above (a wire `1e18` decodes to a `usize` just fine).
fn require_bounded(spec: &RunSpec) -> Result<(), ServiceError> {
    let sized = [
        ("lmax_g", spec.lmax_g.unwrap_or(0), MAX_LMAX),
        ("lmax_nu", spec.lmax_nu.unwrap_or(0), MAX_LMAX),
        ("lmax_h", spec.lmax_h, MAX_LMAX_H),
        ("nq", spec.nq.unwrap_or(0), MAX_NQ),
        ("n_nu_massive", spec.cosmo.n_nu_massive, MAX_NU_MASSIVE),
    ];
    match sized.into_iter().find(|(_, got, max)| got > max) {
        None => Ok(()),
        Some((name, got, max)) => Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("{name} = {got} is beyond this service's ceiling of {max}"),
        )),
    }
}

/// [`require_evolvable`] as a `bad-request` naming `what`.
fn admit_cosmology(cosmo: &background::CosmoParams, what: &str) -> Result<(), ServiceError> {
    require_evolvable(cosmo)
        .map_err(|e| ServiceError::new(ErrorCode::BadRequest, format!("{what} {e}")))
}

/// One tag-22 request: a whole sweep plus an optional relative deadline
/// covering all of it.
#[derive(Debug, Clone)]
pub struct EnsembleRequest {
    /// The sweep (axes + base spec).  Each shard's cache key is its own
    /// [`crate::ensemble::EnsembleSpec::shard_hash`], shared with
    /// single-spectrum requests for the same cosmology.
    pub ens: EnsembleSpec,
    /// Client's time budget for the whole sweep in milliseconds,
    /// measured from server accept; `None` means run to completion.
    pub deadline_ms: Option<f64>,
}

impl EnsembleRequest {
    /// A request with no deadline.
    pub fn new(ens: EnsembleSpec) -> Self {
        Self {
            ens,
            deadline_ms: None,
        }
    }

    /// Encode for the wire (see [`TAG_REQ_ENSEMBLE`]).
    pub fn encode(&self) -> Vec<f64> {
        with_deadline(self.deadline_ms, self.ens.encode())
    }

    /// Decode a [`TAG_REQ_ENSEMBLE`] payload; anything malformed is a
    /// `bad-request`.  A non-positive deadline decodes as `None`.
    pub fn decode(data: &[f64]) -> Result<Self, ServiceError> {
        let (ens, deadline_ms) = decode_with_deadline(data, "ensemble", EnsembleSpec::decode)?;
        Ok(Self { ens, deadline_ms })
    }

    /// Admission check, run before the sweep is queued: the base (whose
    /// sizes every shard shares) must be bounded, and it and every shard
    /// cosmology evolvable (see [`SpectrumRequest::admit`]).
    pub fn admit(&self) -> Result<(), ServiceError> {
        require_bounded(&self.ens.base)?;
        admit_cosmology(&self.ens.base.cosmo, "ensemble base")?;
        (0..self.ens.n_shards())
            .try_for_each(|i| admit_cosmology(&self.ens.shard_cosmo(i), &format!("shard {i}")))
    }
}

/// Split a 64-bit key into two exactly-representable reals for the
/// tag-23 shard frame (`[hi, lo]` 32-bit halves).
pub fn key_to_reals(key: u64) -> [f64; 2] {
    [(key >> 32) as f64, (key & 0xffff_ffff) as f64]
}

/// Inverse of [`key_to_reals`].
pub fn key_from_reals(hi: f64, lo: f64) -> u64 {
    ((hi as u64) << 32) | (lo as u64 & 0xffff_ffff)
}

/// Content-addressed store of finished response bodies, keyed by the
/// canonical job hash.
///
/// Values are `Arc`ed so a hit hands out the original allocation — a
/// repeated request cannot differ from the first response even in
/// principle.  The hit/miss counters are the cache's telemetry
/// (exported per-request by `plinger-serve` and asserted by the CI
/// smoke test).
///
/// With [`ResultCache::with_dir`] the cache gains a crash-safe disk
/// tier: every insert is also written as one checksummed file per
/// `job_hash` (`spec_<key:016x>.bin`, temp + atomic rename), and a
/// fresh cache warm-loads the directory at startup, discarding corrupt
/// or truncated entries.  Bodies store exact `f64` bit patterns, so a
/// hit after restart is bitwise-identical to the original response.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: HashMap<u64, Arc<Vec<f64>>>,
    hits: u64,
    misses: u64,
    dir: Option<PathBuf>,
    persist_writes: u64,
    persist_loads: u64,
    persist_discards: u64,
}

/// First word of a persisted cache entry ("PLNGRES3" in ASCII).  It
/// changes whenever the bits a served body holds change: when the spec
/// encoding moves [`job_hash`], and when the physics moves the results
/// under an unchanged key (PLNGRES3: full-hierarchy modes grow their
/// ladders at the end of recombination).  Entries written under an
/// older magic are discarded at warm-load, never served.
const CACHE_MAGIC: u64 = u64::from_le_bytes(*b"PLNGRES3");

/// Layout of one persisted entry: header `[magic, key, len, checksum]`
/// as little-endian u64 words, then `len` f64 payload words (LE bit
/// patterns).  The checksum is [`hash_reals`] over the payload — the
/// same canonical FNV-1a the job key itself uses.
const CACHE_HEADER_WORDS: usize = 4;

fn cache_entry_name(key: u64) -> String {
    format!("spec_{key:016x}.bin")
}

/// Parse and validate one persisted entry; `None` means corrupt.
fn decode_cache_entry(key: u64, bytes: &[u8]) -> Option<Vec<f64>> {
    if bytes.len() < CACHE_HEADER_WORDS * 8 || !bytes.len().is_multiple_of(8) {
        return None;
    }
    let word = |i: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
        u64::from_le_bytes(w)
    };
    if word(0) != CACHE_MAGIC || word(1) != key {
        return None;
    }
    let len = word(2) as usize;
    if bytes.len() != (CACHE_HEADER_WORDS + len) * 8 {
        return None;
    }
    let body: Vec<f64> = bytes[CACHE_HEADER_WORDS * 8..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
        .collect();
    (hash_reals(&body) == word(3)).then_some(body)
}

fn encode_cache_entry(key: u64, body: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity((CACHE_HEADER_WORDS + body.len()) * 8);
    for w in [CACHE_MAGIC, key, body.len() as u64, hash_reals(body)] {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    for v in body {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

impl ResultCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache backed by `dir`: existing entries are warm-loaded (and
    /// corrupt ones deleted), future inserts are written through.  The
    /// directory is created if missing.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut cache = Self {
            dir: Some(dir.clone()),
            ..Self::default()
        };
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(key) = name
                .strip_prefix("spec_")
                .and_then(|n| n.strip_suffix(".bin"))
                .and_then(|h| u64::from_str_radix(h, 16).ok())
            else {
                // stray files (including orphaned temp files from a
                // crash mid-write) are removed, not loaded
                if name.starts_with(".tmp_") {
                    let _ = std::fs::remove_file(&path);
                }
                continue;
            };
            match std::fs::read(&path)
                .ok()
                .and_then(|b| decode_cache_entry(key, &b))
            {
                Some(body) => {
                    cache.entries.insert(key, Arc::new(body));
                    cache.persist_loads += 1;
                }
                None => {
                    // corrupt or truncated: discard so it can never be
                    // served, and count the discard as evidence
                    let _ = std::fs::remove_file(&path);
                    cache.persist_discards += 1;
                    tlog::log(
                        Level::Warn,
                        "service",
                        "cache_persist_discard",
                        &[("job", tlog::job_hex(key))],
                    );
                }
            }
        }
        Ok(cache)
    }

    /// Look up `key`, counting the outcome as a hit or a miss.
    pub fn lookup(&mut self, key: u64) -> Option<Arc<Vec<f64>>> {
        match self.entries.get(&key) {
            Some(body) => {
                self.hits += 1;
                Some(Arc::clone(body))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store the body for `key` (last write wins; in practice the key
    /// is content-derived, so a rewrite stores identical bits).  With a
    /// disk tier the entry is also persisted via temp file + atomic
    /// rename, so a crash mid-write can never leave a half-entry under
    /// the real name.  Returns `true` when a disk write completed (a
    /// failed write keeps the in-memory entry and is only logged — the
    /// disk tier is an optimization, not a correctness dependency).
    pub fn insert(&mut self, key: u64, body: Arc<Vec<f64>>) -> bool {
        let persisted = match &self.dir {
            Some(dir) => {
                let tmp = dir.join(format!(".tmp_{key:016x}_{}", std::process::id()));
                let dest = dir.join(cache_entry_name(key));
                let write = std::fs::write(&tmp, encode_cache_entry(key, &body))
                    .and_then(|()| std::fs::rename(&tmp, &dest));
                match write {
                    Ok(()) => {
                        self.persist_writes += 1;
                        true
                    }
                    Err(e) => {
                        let _ = std::fs::remove_file(&tmp);
                        tlog::log(
                            Level::Warn,
                            "service",
                            "cache_persist_error",
                            &[("job", tlog::job_hex(key)), ("error", e.to_string())],
                        );
                        false
                    }
                }
            }
            None => false,
        };
        self.entries.insert(key, body);
        persisted
    }

    /// Whether `key` is stored, *without* counting a hit or a miss —
    /// the sweep walk's probe for "which shards the service already
    /// holds", which must not skew the request-path hit/miss telemetry.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Distinct results stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from the store.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to a pool job.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries written through to the disk tier this session.
    pub fn persist_writes(&self) -> u64 {
        self.persist_writes
    }

    /// Entries warm-loaded from the disk tier at startup.
    pub fn persist_loads(&self) -> u64 {
        self.persist_loads
    }

    /// Corrupt/truncated disk entries discarded at startup.
    pub fn persist_discards(&self) -> u64 {
        self.persist_discards
    }
}

/// Live service-level telemetry, shared between the request path and
/// any number of scrapers.
///
/// Everything here is lock-free (relaxed atomics) except the folded
/// per-job communication aggregate, which takes a short mutex once per
/// pool job — so `/metrics` and `/healthz` can be answered while a job
/// is running *without* touching the service's request lock.  The
/// metric names produced by [`ServiceMetrics::snapshot`] are a
/// stability contract, catalogued in `docs/OBSERVABILITY.md`.
#[derive(Default)]
pub struct ServiceMetrics {
    /// Requests accepted (hits and misses both count).
    pub requests: Counter,
    /// Requests answered from the [`ResultCache`].
    pub cache_hits: Counter,
    /// Requests that fell through to a pool job.
    pub cache_misses: Counter,
    /// Response-body bytes served (8 × reals, cached or fresh).
    pub cache_bytes_served: Counter,
    /// Requests that ended in a [`TAG_RESP_ERROR`].
    pub errors: Counter,
    /// Pool jobs run on behalf of requests.
    pub pool_jobs: Counter,
    /// Requests whose spec selected the line-of-sight method (hits and
    /// misses both count).
    pub los_jobs: Counter,
    /// Requests rejected at admission because the queue was over its
    /// limit (answered with a typed `Busy` frame).
    pub requests_shed: Counter,
    /// Pool jobs aborted cooperatively via tag-12 (any reason).
    pub jobs_cancelled: Counter,
    /// Requests that failed because their deadline passed — before the
    /// job started or mid-run (a subset also counts in
    /// `jobs_cancelled` when a running job was interrupted).
    pub deadline_expired: Counter,
    /// Ensemble (tag-22) requests accepted.
    pub ensemble_requests: Counter,
    /// Shards completed across all ensemble requests (hits and pool
    /// runs both count).
    pub ensemble_shards: Counter,
    /// Ensemble shards answered from the [`ResultCache`] without a pool
    /// job.
    pub ensemble_shard_hits: Counter,
    /// Result-cache entries written through to the disk tier.
    pub cache_persist_writes: Counter,
    /// Result-cache entries warm-loaded from disk at startup.
    pub cache_persist_loads: Counter,
    /// Corrupt/truncated disk-cache entries discarded at startup.
    pub cache_persist_discards: Counter,
    /// Time from request accept to service-lock acquisition, ns.
    pub queue_wait_ns: Histogram,
    /// Time inside the service (cache probe + any pool job), ns.
    pub run_ns: Histogram,
    /// Accept-to-reply wall time, ns.
    pub total_ns: Histogram,
    /// Resident workers the pool was started with.
    workers: usize,
    /// Requests currently accepted but not yet replied to.
    queue_depth: AtomicU64,
    /// Resident workers whose session thread is running (refreshed
    /// after every job; starts at the pool size).
    workers_alive: AtomicU64,
    /// 1 while the server is draining (stopped accepting, finishing
    /// its queue), else 0.  `/healthz` flips to not-ready on it.
    draining: AtomicU64,
    /// Per-job farm communication telemetry, folded after each miss.
    comm: Mutex<TelemetrySnapshot>,
}

impl ServiceMetrics {
    /// Fresh metrics reporting `workers` resident workers.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            workers_alive: AtomicU64::new(workers as u64),
            ..Self::default()
        }
    }

    /// Count a request into the queue; returns the new depth.
    fn enter_queue(&self) -> u64 {
        self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Remove a finished (or failed) request from the queue.
    fn leave_queue(&self) {
        // saturating: a stray call must not wrap the gauge to 2^64
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Requests currently in flight.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Record the current count of live resident workers.
    pub fn set_workers_alive(&self, n: usize) {
        self.workers_alive.store(n as u64, Ordering::Relaxed);
    }

    /// Live resident workers as last reported.
    pub fn workers_alive(&self) -> u64 {
        self.workers_alive.load(Ordering::Relaxed)
    }

    /// Flip the draining state (set once at drain start).
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining as u64, Ordering::Relaxed);
    }

    /// True while the server is draining.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) != 0
    }

    /// Fold one pool job's communication telemetry into the aggregate
    /// exposed on `/metrics` (counters add, histograms merge).
    pub fn fold_comm(&self, snap: TelemetrySnapshot) {
        if let Ok(mut agg) = self.comm.lock() {
            agg.merge(snap);
        }
    }

    /// The current readings as one [`TelemetrySnapshot`] — service
    /// counters/gauges/latency histograms plus the folded farm
    /// communication aggregate.  Names here are the `/metrics` contract.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = match self.comm.lock() {
            Ok(agg) => agg.clone(),
            Err(_) => TelemetrySnapshot::default(),
        };
        s.add("requests_total", self.requests.get());
        s.add("cache_hits_total", self.cache_hits.get());
        s.add("cache_misses_total", self.cache_misses.get());
        s.add("cache_bytes_served_total", self.cache_bytes_served.get());
        s.add("errors_total", self.errors.get());
        s.add("pool_jobs_total", self.pool_jobs.get());
        s.add("los_jobs_total", self.los_jobs.get());
        s.add("requests_shed_total", self.requests_shed.get());
        s.add("jobs_cancelled_total", self.jobs_cancelled.get());
        s.add("deadline_expired_total", self.deadline_expired.get());
        s.add("ensemble_requests_total", self.ensemble_requests.get());
        s.add("ensemble_shards_total", self.ensemble_shards.get());
        s.add("ensemble_shard_hits_total", self.ensemble_shard_hits.get());
        s.add(
            "cache_persist_writes_total",
            self.cache_persist_writes.get(),
        );
        s.add("cache_persist_loads_total", self.cache_persist_loads.get());
        s.add(
            "cache_persist_discards_total",
            self.cache_persist_discards.get(),
        );
        s.gauges
            .insert("queue_depth".into(), self.queue_depth() as f64);
        s.gauges
            .insert("workers_alive".into(), self.workers_alive() as f64);
        s.gauges
            .insert("draining".into(), self.draining() as u64 as f64);
        s.histograms.insert(
            "request_queue_wait_ns".into(),
            self.queue_wait_ns.snapshot(),
        );
        s.histograms
            .insert("request_run_ns".into(), self.run_ns.snapshot());
        s.histograms
            .insert("request_total_ns".into(), self.total_ns.snapshot());
        s
    }

    /// The [`TAG_RESP_METRICS`] payload: the historical five counters
    /// first (`requests, cache_hits, cache_misses, pool_jobs, workers`),
    /// then gauges and latency summaries —
    /// `[.., workers_alive, queue_depth, errors, cache_bytes_served,
    /// total_ms_p50, total_ms_p99, queue_ms_p50, queue_ms_p99,
    /// run_ms_p50, run_ms_p99, ensemble_requests, ensemble_shards,
    /// ensemble_shard_hits]` (18 reals; milliseconds for the latency
    /// entries).
    pub fn wire_payload(&self) -> Vec<f64> {
        let ms = |ns: u64| ns as f64 / 1e6;
        let total = self.total_ns.snapshot();
        let queue = self.queue_wait_ns.snapshot();
        let run = self.run_ns.snapshot();
        vec![
            self.requests.get() as f64,
            self.cache_hits.get() as f64,
            self.cache_misses.get() as f64,
            self.pool_jobs.get() as f64,
            self.workers as f64,
            self.workers_alive() as f64,
            self.queue_depth() as f64,
            self.errors.get() as f64,
            self.cache_bytes_served.get() as f64,
            ms(total.quantile(0.5)),
            ms(total.quantile(0.99)),
            ms(queue.quantile(0.5)),
            ms(queue.quantile(0.99)),
            ms(run.quantile(0.5)),
            ms(run.quantile(0.99)),
            self.ensemble_requests.get() as f64,
            self.ensemble_shards.get() as f64,
            self.ensemble_shard_hits.get() as f64,
        ]
    }
}

/// One answered request: where the body came from and, on a miss, the
/// job's full report for metrics export.
#[derive(Debug)]
pub struct ServiceReply {
    /// Canonical job hash the request was keyed under.
    pub key: u64,
    /// True when the body came from the [`ResultCache`] (no pool job
    /// ran, no worker spans exist for this request).
    pub cache_hit: bool,
    /// The response body (see [`encode_spectrum_body`] for the layout).
    pub body: Arc<Vec<f64>>,
    /// The per-job [`FarmReport`] of the pool run that produced the
    /// body — `None` on a cache hit, which did no work worth reporting.
    pub report: Option<FarmReport>,
}

/// One finished shard of an ensemble request, as streamed to the
/// client in a [`TAG_RESP_SHARD`] frame.
#[derive(Debug, Clone)]
pub struct ShardReply {
    /// Canonical shard index.
    pub shard: usize,
    /// Total shards in the sweep (every frame repeats it so a client
    /// can size its progress display from the first frame).
    pub n_shards: usize,
    /// The shard's canonical job hash (its [`ResultCache`] key).
    pub key: u64,
    /// True when the body came from the cache (no pool job ran).
    pub cache_hit: bool,
    /// The shard's response body ([`encode_spectrum_body`] layout —
    /// identical to what a single-spectrum request for the same
    /// cosmology would return).
    pub body: Arc<Vec<f64>>,
}

impl ShardReply {
    /// The [`TAG_RESP_SHARD`] payload:
    /// `[shard, n_shards, hit_flag, key_hi, key_lo, …body]`.
    pub fn frame(&self) -> Vec<f64> {
        let [hi, lo] = key_to_reals(self.key);
        let mut v = Vec::with_capacity(5 + self.body.len());
        v.extend_from_slice(&[
            self.shard as f64,
            self.n_shards as f64,
            f64::from(self.cache_hit),
            hi,
            lo,
        ]);
        v.extend_from_slice(&self.body);
        v
    }

    /// Decode a [`TAG_RESP_SHARD`] payload.
    pub fn decode_frame(data: &[f64]) -> Result<Self, String> {
        if data.len() < 5 {
            return Err(format!("shard frame too short: {} reals", data.len()));
        }
        Ok(Self {
            shard: data[0] as usize,
            n_shards: data[1] as usize,
            cache_hit: data[2] != 0.0,
            key: key_from_reals(data[3], data[4]),
            body: Arc::new(data[5..].to_vec()),
        })
    }
}

/// The terminating [`TAG_RESP_ENSEMBLE`] summary of an ensemble stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSummary {
    /// Shards answered (equals `n_shards` on success).
    pub n_ok: usize,
    /// Total shards in the sweep.
    pub n_shards: usize,
    /// Wall-clock seconds the server spent on the sweep.
    pub wall_seconds: f64,
    /// Shards served from the [`ResultCache`].
    pub cache_hits: usize,
}

impl EnsembleSummary {
    /// The wire payload: `[n_ok, n_shards, wall_seconds, cache_hits]`.
    pub fn frame(&self) -> Vec<f64> {
        vec![
            self.n_ok as f64,
            self.n_shards as f64,
            self.wall_seconds,
            self.cache_hits as f64,
        ]
    }

    /// Decode a [`TAG_RESP_ENSEMBLE`] payload.
    pub fn decode_frame(data: &[f64]) -> Result<Self, String> {
        let &[n_ok, n_shards, wall_seconds, cache_hits] = data else {
            return Err(format!("ensemble summary is {} reals, not 4", data.len()));
        };
        Ok(Self {
            n_ok: n_ok as usize,
            n_shards: n_shards as usize,
            wall_seconds,
            cache_hits: cache_hits as usize,
        })
    }
}

/// A resident spectrum service: one warm [`FarmPool`] plus the
/// [`ResultCache`] in front of it.
pub struct SpectrumService<W: World> {
    pool: FarmPool<W>,
    cache: ResultCache,
    policy: SchedulePolicy,
    metrics: Arc<ServiceMetrics>,
}

impl<W: World> SpectrumService<W> {
    /// Wrap a running pool; `policy` schedules every job's k-grid.
    pub fn new(pool: FarmPool<W>, policy: SchedulePolicy) -> Self {
        Self::with_cache(pool, policy, ResultCache::new())
    }

    /// [`SpectrumService::new`] with a caller-built [`ResultCache`] —
    /// typically [`ResultCache::with_dir`] for the crash-safe disk
    /// tier.  The cache's warm-load counters are folded into the
    /// service metrics so `/metrics` shows what a restart recovered.
    pub fn with_cache(pool: FarmPool<W>, policy: SchedulePolicy, cache: ResultCache) -> Self {
        let metrics = Arc::new(ServiceMetrics::new(pool.n_workers()));
        metrics.cache_persist_loads.add(cache.persist_loads());
        metrics.cache_persist_discards.add(cache.persist_discards());
        Self {
            pool,
            cache,
            policy,
            metrics,
        }
    }

    /// Serve one spectrum request: cache lookup, then (on a miss) one
    /// pooled job.
    pub fn handle(&mut self, spec: &RunSpec) -> Result<ServiceReply, FarmError> {
        self.handle_with(spec, &JobControl::default())
    }

    /// [`SpectrumService::handle`] under external [`JobControl`].  A
    /// deadline that has already passed fails immediately with
    /// [`FarmError::Cancelled`] — no cache probe, no pool job; one that
    /// fires mid-job cancels the job cooperatively (tag-12) and frees
    /// the ranks for the next request.
    pub fn handle_with(
        &mut self,
        spec: &RunSpec,
        ctrl: &JobControl<'_>,
    ) -> Result<ServiceReply, FarmError> {
        self.metrics.requests.inc();
        if spec.method == boltzmann::SpectrumMethod::LineOfSight {
            self.metrics.los_jobs.inc();
        }
        let key = job_hash(spec);
        let job = tlog::job_hex(key);
        if let Some(reason) = ctrl.triggered() {
            log_expired(&self.metrics, reason, "request_expired", ("job", job));
            return Err(FarmError::Cancelled {
                reason,
                unfinished: Vec::new(),
            });
        }
        let (body, report) = match self.cache.lookup(key) {
            Some(body) => {
                self.metrics.cache_hits.inc();
                self.metrics.cache_bytes_served.add(body.len() as u64 * 8);
                tlog::log(Level::Info, "service", "cache_hit", &[("job", job)]);
                (body, None)
            }
            None => {
                self.metrics.cache_misses.inc();
                tlog::log(Level::Info, "service", "cache_miss", &[("job", job)]);
                let report = run_job(&mut self.pool, &self.metrics, spec, self.policy, ctrl, None)?;
                let body = store(&mut self.cache, &self.metrics, &report, [key]);
                (body, Some(report))
            }
        };
        Ok(ServiceReply {
            key,
            cache_hit: report.is_none(),
            body,
            report,
        })
    }

    /// Serve a whole sweep through the cache, streaming each shard to
    /// `sink` in canonical shard order.
    ///
    /// The service is a consumer of the one sweep walk (the one behind
    /// [`run_ensemble`](crate::run_ensemble)) that holds what its cache
    /// holds.  Every shard is keyed by its own [`job_hash`], so shards
    /// already produced — by an earlier sweep *or* by single-spectrum
    /// requests for the same cosmology — stream from the cache, and every
    /// fresh body is stored under each key of its `n_s` group that has no
    /// entry yet: the group's other shards then stream as cache hits
    /// sharing the one allocation, and a cold sweep costs one pool job
    /// per `(Ω_b, h)` point.  A group whose job fails twice (the default
    /// [`EnsembleOptions`] budget) ends the sweep with its [`FarmError`],
    /// and so does a cancel; shards already streamed stay cached, so a
    /// retried sweep resumes where the last one stopped.
    ///
    /// The outer `Result` is the sink's: a `sink` error (client gone)
    /// stops the sweep at once and comes back as the outer `Err`, kept
    /// apart from the farm's own outcome in the inner one.
    pub fn handle_ensemble_with<E>(
        &mut self,
        ens: &EnsembleSpec,
        ctrl: &JobControl<'_>,
        sink: impl FnMut(&ShardReply) -> Result<(), E>,
    ) -> Result<Result<EnsembleSummary, FarmError>, E> {
        self.metrics.ensemble_requests.inc();
        let n = ens.n_shards();
        let sweep = tlog::job_hex(ensemble_hash(ens));
        let accept = [("ensemble", sweep.clone()), ("shards", n.to_string())];
        tlog::log(Level::Info, "service", "ensemble_accept", &accept);
        let (pool, metrics) = (&mut self.pool, &*self.metrics);
        let mut runs = 0;
        let run = |spec: &RunSpec, policy, ctrl: &JobControl<'_>, hint: Option<&RunSpec>| {
            runs += 1;
            run_job(pool, metrics, spec, policy, ctrl, hint)
        };
        let mut shards = CacheSweep {
            ens,
            cache: &mut self.cache,
            metrics: &self.metrics,
            hits: 0,
            sink,
        };
        let opts = EnsembleOptions {
            policy: self.policy,
            ..EnsembleOptions::default()
        };
        let walked = walk(run, ens, &opts, ctrl, &mut shards);
        let hits = shards.hits;
        // the walk runs a job only for a shard the cache lacks: each is a
        // counted miss, as a spectrum miss's lookup is
        self.cache.misses += runs;
        let wall_seconds = match walked {
            Ok(walked) => walked.wall_seconds,
            Err(SweepStop::Farm(e)) => return Ok(Err(e)),
            Err(SweepStop::Sink(e)) => return Err(e),
        };
        let done = [
            ("ensemble", sweep),
            ("shards", n.to_string()),
            ("hits", hits.to_string()),
            ("wall_ms", format!("{:.1}", wall_seconds * 1000.0)),
        ];
        tlog::log(Level::Info, "service", "ensemble_done", &done);
        Ok(Ok(EnsembleSummary {
            n_ok: n,
            n_shards: n,
            wall_seconds,
            cache_hits: hits,
        }))
    }

    /// Requests handled, spectra and sweeps (hits and misses both count).
    pub fn requests(&self) -> u64 {
        self.metrics.requests.get() + self.metrics.ensemble_requests.get()
    }

    /// The shared live-metrics handle — clone it before locking the
    /// service away so scrapers never contend with running jobs.
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The cache's telemetry.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The pool underneath (e.g. to read `jobs_run`).
    pub fn pool(&self) -> &FarmPool<W> {
        &self.pool
    }

    /// Shut the pool down, returning the service's [`ResultCache`] so a
    /// caller can log final hit/miss totals.
    pub fn shutdown(self) -> ResultCache {
        let _ = self.pool.shutdown();
        self.cache
    }
}

/// Run one pool job for the service, a spectrum miss or a sweep's
/// evolution alike, so that every job is counted at this one point: the
/// workers gauge after any job, `jobs_cancelled` and `deadline_expired`
/// for a cancelled one, `pool_jobs` and the comm fold for a finished one.
/// A finished job that quarantined modes is [`FarmError::Quarantined`]
/// ([`FarmReport::require_complete`]): a spectrum missing modes is never
/// served, so it never reaches the cache either.
fn run_job<W: World>(
    pool: &mut FarmPool<W>,
    metrics: &ServiceMetrics,
    spec: &RunSpec,
    policy: SchedulePolicy,
    ctrl: &JobControl<'_>,
    prefetch: Option<&RunSpec>,
) -> Result<FarmReport, FarmError> {
    let outcome = pool.run_job_prefetched(spec, policy, ctrl, prefetch);
    metrics.set_workers_alive(pool.workers_alive());
    if let Err(FarmError::Cancelled { reason, .. }) = &outcome {
        metrics.jobs_cancelled.inc();
        if *reason == CancelReason::DeadlineExceeded {
            metrics.deadline_expired.inc();
        }
    }
    let report = outcome?;
    metrics.pool_jobs.inc();
    metrics.fold_comm(report.telemetry.merged_comm().to_telemetry());
    report.require_complete()?;
    Ok(report)
}

/// Encode a finished job's body and store it under each of `keys` that
/// has no entry yet — an entry already there is a body some client has
/// seen, and it keeps its bytes.
fn store(
    cache: &mut ResultCache,
    metrics: &ServiceMetrics,
    report: &FarmReport,
    keys: impl IntoIterator<Item = u64>,
) -> Arc<Vec<f64>> {
    let body = Arc::new(encode_spectrum_body(&report.outputs, report.wall_seconds));
    metrics.cache_bytes_served.add(body.len() as u64 * 8);
    for k in keys {
        if !cache.contains(k) && cache.insert(k, Arc::clone(&body)) {
            metrics.cache_persist_writes.inc();
        }
    }
    body
}

/// Count and log work refused because its control fired before it
/// started: `event` at `at`.
fn log_expired(metrics: &ServiceMetrics, reason: CancelReason, event: &str, at: (&str, String)) {
    if reason == CancelReason::DeadlineExceeded {
        metrics.deadline_expired.inc();
    }
    let fields = [at, ("reason", reason.to_string())];
    tlog::log(Level::Warn, "service", event, &fields);
}

/// Why a service sweep stopped early: the farm's failure or a cancel, or
/// the sink's error.
enum SweepStop<E> {
    Farm(FarmError),
    Sink(E),
}

impl<E> From<FarmError> for SweepStop<E> {
    fn from(e: FarmError) -> Self {
        SweepStop::Farm(e)
    }
}

/// The service's side of the sweep walk: a shard is held when the
/// result cache has its key, and each shard's turn is one tag-23 frame.
struct CacheSweep<'a, S> {
    ens: &'a EnsembleSpec,
    cache: &'a mut ResultCache,
    metrics: &'a ServiceMetrics,
    /// Shards streamed from the cache.
    hits: usize,
    sink: S,
}

impl<S, E> SweepConsumer for CacheSweep<'_, S>
where
    S: FnMut(&ShardReply) -> Result<(), E>,
{
    type Error = SweepStop<E>;

    fn holds(&self, shard: usize) -> bool {
        self.cache.contains(self.ens.shard_hash(shard))
    }

    fn refused(&mut self, shard: usize, reason: CancelReason) {
        let at = tlog::shard_label(ensemble_hash(self.ens), shard);
        log_expired(self.metrics, reason, "ensemble_expired", ("shard", at));
    }

    fn take(&mut self, turn: ShardTurn) -> Result<(), SweepStop<E>> {
        let (shard, key, fresh) = match turn {
            ShardTurn::Failed(e, _) => return Err(SweepStop::Farm(e)),
            ShardTurn::Held(shard) => (shard, self.ens.shard_hash(shard), None),
            // a twin's key took the evolved body, so the walk finds it held
            ShardTurn::Done(r) if r.evolved_by != r.shard => (r.shard, r.job, None),
            ShardTurn::Done(r) => {
                let keys = self.ens.group(r.shard).map(|i| self.ens.shard_hash(i));
                let body = store(self.cache, self.metrics, &r.report, keys);
                (r.shard, r.job, Some(body))
            }
        };
        let cache_hit = fresh.is_none();
        let body = match fresh {
            Some(body) => body,
            None => {
                let body = self.cache.lookup(key).ok_or_else(|| FarmError::Protocol {
                    rank: 0,
                    detail: format!("shard {shard} left the result cache mid-sweep"),
                })?;
                self.hits += 1;
                self.metrics.ensemble_shard_hits.inc();
                self.metrics.cache_bytes_served.add(body.len() as u64 * 8);
                let label = tlog::shard_label(ensemble_hash(self.ens), shard);
                let at = [("shard", label), ("job", tlog::job_hex(key))];
                tlog::log(Level::Info, "service", "shard_hit", &at);
                body
            }
        };
        self.metrics.ensemble_shards.inc();
        let reply = ShardReply {
            shard,
            n_shards: self.ens.n_shards(),
            key,
            cache_hit,
            body,
        };
        (self.sink)(&reply).map_err(SweepStop::Sink)
    }
}

/// Retry hint per request past the queue limit when shedding, ms.
const SHED_RETRY_STEP_MS: u64 = 50;

/// Cap on a shed request's retry hint, ms.
const SHED_RETRY_CAP_MS: u64 = 2000;

/// Flight-recorder events dumped per failing job.
const FLIGHT_DUMP_EVENTS: usize = 256;

/// One admitted request's place in the queue.  Dropping it leaves the
/// queue and records the request's accept-to-reply `total_ns`, so every
/// path out of [`answer`] releases the slot exactly once.
struct QueueSlot<'a> {
    metrics: &'a ServiceMetrics,
    accepted: Instant,
}

impl<'a> QueueSlot<'a> {
    /// The admission gate.  Once the drain window is spent every request
    /// is refused with `shutting-down`; past `queue_limit` in flight one
    /// is shed with `busy` and a retry hint of 50 ms per request over
    /// the limit, at most 2 s.  The check-and-increment is one atomic,
    /// so a burst cannot slip past the limit.
    fn enter(
        metrics: &'a ServiceMetrics,
        queue_limit: u64,
        drain_spent: bool,
    ) -> Result<Self, ServiceError> {
        if drain_spent {
            return Err(ServiceError::new(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
        }
        let depth = metrics.enter_queue();
        if depth <= queue_limit {
            return Ok(Self {
                metrics,
                accepted: Instant::now(),
            });
        }
        metrics.leave_queue();
        metrics.requests_shed.inc();
        let retry_after_ms = SHED_RETRY_STEP_MS
            .saturating_mul(depth - queue_limit)
            .min(SHED_RETRY_CAP_MS);
        tlog::log(
            Level::Warn,
            "service",
            "request_shed",
            &[
                ("queue_depth", depth.to_string()),
                ("queue_limit", queue_limit.to_string()),
                ("retry_after_ms", retry_after_ms.to_string()),
            ],
        );
        Err(ServiceError {
            code: ErrorCode::Busy,
            retry_after_ms,
            message: format!("queue full ({depth} requests in flight, limit {queue_limit})"),
        })
    }

    fn elapsed_ns(&self) -> u64 {
        self.accepted.elapsed().as_nanos() as u64
    }
}

impl Drop for QueueSlot<'_> {
    fn drop(&mut self) {
        self.metrics.leave_queue();
        self.metrics.total_ns.record(self.elapsed_ns());
    }
}

/// Answer one client frame of `plinger-serve`.  A [`TAG_REQ_SPECTRUM`]
/// or [`TAG_REQ_ENSEMBLE`] frame takes the one request path of both
/// kinds: admission gate (`drain_spent`: the drain window is over),
/// decode and admit, the service lock, the run under the request's
/// deadline and `cancel`, and every reply frame through `send` (a
/// tag-21; tag-23 shards and the tag-24 summary; or one tag-29).  With
/// `report_dir` a spectrum miss leaves its run report and its trace
/// (master and worker tracks) there, a failed spectrum job its flight
/// dump.  [`TAG_REQ_METRICS`] is answered off
/// `metrics` alone, never the service lock, and any other tag is a
/// `bad-request`; neither passes the gate.  An `Err` from `send` (client
/// gone) ends the request at once, is not counted as an error, and
/// comes back.
#[allow(clippy::too_many_arguments)]
pub fn answer<W: World, E>(
    service: &Mutex<SpectrumService<W>>,
    metrics: &ServiceMetrics,
    queue_limit: u64,
    drain_spent: bool,
    cancel: &AtomicBool,
    report_dir: Option<&Path>,
    msg: &Message,
    mut send: impl FnMut(Tag, &[f64]) -> Result<(), E>,
) -> Result<(), E> {
    let reply = match msg.tag {
        TAG_REQ_METRICS => Ok((TAG_RESP_METRICS, metrics.wire_payload())),
        TAG_REQ_SPECTRUM | TAG_REQ_ENSEMBLE => {
            match QueueSlot::enter(metrics, queue_limit, drain_spent) {
                Err(refusal) => Err(refusal),
                Ok(slot) => {
                    let reply = if msg.tag == TAG_REQ_SPECTRUM {
                        answer_spectrum(service, slot, cancel, report_dir, &msg.data)
                    } else {
                        answer_ensemble(service, slot, cancel, &msg.data, &mut send)?
                    };
                    reply.inspect_err(|_| metrics.errors.inc())
                }
            }
        }
        other => Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("unknown request tag {other}"),
        )),
    };
    match reply {
        Ok((tag, payload)) => send(tag, &payload),
        Err(err) => send(TAG_RESP_ERROR, &err.encode()),
    }
}

/// Log a request refused before it could wait for the service lock:
/// undecodable, or a cosmology no worker can evolve.
fn log_refusal(err: &ServiceError) {
    tlog::log(
        Level::Error,
        "service",
        "request_failed",
        &[("error", err.message.clone())],
    );
}

/// Take the service lock (the queue wait ends there) and run `job`
/// under the request's deadline, counted from accept, and the server's
/// `cancel` flag; the slot is released on return.
fn run_locked<W: World, T>(
    service: &Mutex<SpectrumService<W>>,
    slot: QueueSlot<'_>,
    deadline_ms: Option<f64>,
    cancel: &AtomicBool,
    job: impl FnOnce(&mut SpectrumService<W>, &JobControl<'_>) -> T,
) -> Result<T, ServiceError> {
    let Ok(mut svc) = service.lock() else {
        return Err(ServiceError::new(
            ErrorCode::Internal,
            "service lock poisoned",
        ));
    };
    slot.metrics.queue_wait_ns.record(slot.elapsed_ns());
    let ctrl = JobControl {
        // a budget too large for an Instant is no budget
        deadline: deadline_ms.and_then(|ms| {
            slot.accepted
                .checked_add(Duration::try_from_secs_f64(ms / 1e3).ok()?)
        }),
        cancel: Some(cancel),
    };
    let t_run = Instant::now();
    let out = job(&mut svc, &ctrl);
    drop(svc);
    slot.metrics
        .run_ns
        .record(t_run.elapsed().as_nanos() as u64);
    Ok(out)
}

/// The typed answer to a job the farm did not finish: a cancel keeps
/// its reason's code, anything else is `internal`.
fn farm_failure(e: &FarmError, message: String) -> ServiceError {
    let code = match e {
        FarmError::Cancelled { reason, .. } => match reason {
            CancelReason::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            CancelReason::Cancelled => ErrorCode::Cancelled,
        },
        _ => ErrorCode::Internal,
    };
    ServiceError::new(code, message)
}

/// The spectrum half of [`answer`]: its reply frame, with the run
/// report of a miss and the flight dump of a failed job.
fn answer_spectrum<W: World>(
    service: &Mutex<SpectrumService<W>>,
    slot: QueueSlot<'_>,
    cancel: &AtomicBool,
    report_dir: Option<&Path>,
    data: &[f64],
) -> Result<(Tag, Vec<f64>), ServiceError> {
    let accepted = slot.accepted;
    let req = SpectrumRequest::decode(data)
        .and_then(|req| req.admit().map(|()| req))
        .inspect_err(log_refusal)?;
    let key = job_hash(&req.spec);
    let job = tlog::job_hex(key);
    tlog::log(
        Level::Info,
        "service",
        "request_accepted",
        &[
            ("job", job.clone()),
            ("queue_depth", slot.metrics.queue_depth().to_string()),
            (
                "deadline_ms",
                req.deadline_ms
                    .map_or("none".into(), |ms| format!("{ms:.0}")),
            ),
        ],
    );
    let (outcome, requests) = run_locked(service, slot, req.deadline_ms, cancel, |svc, ctrl| {
        (svc.handle_with(&req.spec, ctrl), svc.requests())
    })?;
    let reply = outcome.map_err(|e| {
        let cancelled = matches!(e, FarmError::Cancelled { .. });
        let text = if cancelled {
            e.to_string()
        } else {
            format!("farm failed: {e}")
        };
        tlog::log(
            Level::Error,
            "service",
            "request_failed",
            &[("job", job.clone()), ("error", text.clone())],
        );
        // a cancel is deliberate — only real failures dump evidence
        if !cancelled {
            write_flight_dump(report_dir, key, &job);
        }
        farm_failure(&e, text)
    })?;
    if let (Some(report), Some(dir)) = (reply.report.as_ref(), report_dir) {
        let prefix = dir
            .join(format!("req{:04}_{:016x}", requests, reply.key))
            .to_string_lossy()
            .into_owned();
        match write_run_report(&prefix, report, W::NAME) {
            Ok((path, _)) => eprintln!("plinger-serve: run report written to {path}"),
            Err(e) => eprintln!("plinger-serve: writing run report failed: {e}"),
        }
        // the job's master and worker tracks, beside its report
        if let Err(e) = write_trace(format!("{prefix}.trace.json"), report) {
            eprintln!("plinger-serve: writing trace failed: {e}");
        }
    }
    tlog::log(
        Level::Info,
        "service",
        "request_done",
        &[
            ("job", job),
            ("cache_hit", u8::from(reply.cache_hit).to_string()),
            (
                "wall_ms",
                format!("{:.3}", accepted.elapsed().as_secs_f64() * 1e3),
            ),
        ],
    );
    let mut payload = Vec::with_capacity(1 + reply.body.len());
    payload.push(f64::from(reply.cache_hit));
    payload.extend_from_slice(&reply.body);
    Ok((TAG_RESP_SPECTRUM, payload))
}

/// The sweep half of [`answer`]: each shard streams to `send` as the
/// service finishes it, and the reply's last frame is the summary.  The
/// outer `Err` is `send`'s own.
fn answer_ensemble<W: World, E>(
    service: &Mutex<SpectrumService<W>>,
    slot: QueueSlot<'_>,
    cancel: &AtomicBool,
    data: &[f64],
    send: &mut impl FnMut(Tag, &[f64]) -> Result<(), E>,
) -> Result<Result<(Tag, Vec<f64>), ServiceError>, E> {
    let ran = EnsembleRequest::decode(data)
        .and_then(|req| req.admit().map(|()| req))
        .inspect_err(log_refusal)
        .and_then(|req| {
            run_locked(service, slot, req.deadline_ms, cancel, |svc, ctrl| {
                svc.handle_ensemble_with(&req.ens, ctrl, |r| send(TAG_RESP_SHARD, &r.frame()))
            })
        });
    Ok(match ran {
        Err(err) => Err(err),
        Ok(outcome) => match outcome? {
            Ok(summary) => Ok((TAG_RESP_ENSEMBLE, summary.frame())),
            Err(e) => Err(farm_failure(&e, format!("ensemble failed: {e}"))),
        },
    })
}

/// Dump the flight recorder's last events for `key` next to the run
/// reports, so a failed job leaves its story behind.
fn write_flight_dump(report_dir: Option<&Path>, key: u64, job: &str) {
    let Some(dir) = report_dir else { return };
    let events = tlog::for_job(key, FLIGHT_DUMP_EVENTS);
    let path = dir.join(format!("flight_{job}.jsonl"));
    match std::fs::write(&path, tlog::render_flight_dump(&events)) {
        Ok(()) => {
            tlog::log(
                Level::Warn,
                "service",
                "flight_dump",
                &[
                    ("job", job.to_string()),
                    ("events", events.len().to_string()),
                    ("path", path.display().to_string()),
                ],
            );
            eprintln!(
                "plinger-serve: flight recorder dump ({} events) written to {}",
                events.len(),
                path.display()
            );
        }
        Err(e) => eprintln!("plinger-serve: writing flight dump failed: {e}"),
    }
}

/// Flatten a finished job into one real vector:
///
/// ```text
/// [ n_outputs, wall_seconds,
///   header_len, payload_len, header…, payload…,   // output 0
///   header_len, payload_len, header…, payload…,   // output 1
///   … ]
/// ```
///
/// Each output's header/payload pair is exactly its tag-4/tag-5 wire
/// encoding ([`ModeOutput::to_wire`], with `ik` the output's position),
/// so a body round-trips through [`decode_spectrum_body`] with the same
/// fidelity as the farm wire itself.
pub fn encode_spectrum_body(outputs: &[ModeOutput], wall_seconds: f64) -> Vec<f64> {
    let mut body = vec![outputs.len() as f64, wall_seconds];
    for (ik, out) in outputs.iter().enumerate() {
        let (header, payload) = out.to_wire(ik);
        body.push(header.len() as f64);
        body.push(payload.len() as f64);
        body.extend_from_slice(&header);
        body.extend_from_slice(&payload);
    }
    body
}

/// Inverse of [`encode_spectrum_body`].  Malformed bodies (truncated
/// frames, header/payload lengths that disagree with the declared
/// counts, counts or lengths that are not whole numbers) are reported
/// as a `String` rather than panicking, so a corrupt service response
/// fails one request, not the client.
pub fn decode_spectrum_body(body: &[f64]) -> Result<(Vec<ModeOutput>, f64), String> {
    let [count, wall_seconds, ..] = *body else {
        return Err(format!("body too short: {} reals", body.len()));
    };
    let n = count_from_real(count).ok_or_else(|| format!("output count {count} is not a count"))?;
    // every output takes at least its two length reals
    let mut outputs = Vec::with_capacity(n.min(body.len() / 2));
    let mut at = 2usize;
    for i in 0..n {
        let len = |x: f64| {
            count_from_real(x).ok_or_else(|| format!("output {i}: length {x} is not a count"))
        };
        let [hlen, plen] = *take_reals(body, &mut at, 2)
            .and_then(|s| <&[f64; 2]>::try_from(s).ok())
            .ok_or_else(|| format!("output {i}: truncated length prefix at {at}"))?;
        let header = take_reals(body, &mut at, len(hlen)?)
            .ok_or_else(|| format!("output {i}: truncated header"))?;
        let payload = take_reals(body, &mut at, len(plen)?)
            .ok_or_else(|| format!("output {i}: truncated payload"))?;
        let (_ik, out) =
            ModeOutput::from_wire(header, payload).map_err(|e| format!("output {i}: {e}"))?;
        outputs.push(out);
    }
    if at != body.len() {
        return Err(format!(
            "body has {} trailing reals after {n} outputs",
            body.len() - at
        ));
    }
    Ok((outputs, wall_seconds))
}

/// The `len` reals of `body` from `*at` on, moving `*at` past them;
/// `None` when the body ends first.
fn take_reals<'a>(body: &'a [f64], at: &mut usize, len: usize) -> Option<&'a [f64]> {
    let end = at.checked_add(len)?;
    let reals = body.get(*at..end)?;
    *at = end;
    Some(reals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::{run_serial, FaultPlan};
    use crate::master::MasterConfig;
    use crate::pool::PoolOptions;
    use boltzmann::Preset;
    use msgpass::channel::ChannelWorld;
    use std::convert::Infallible;

    fn tiny_spec(ks: Vec<f64>) -> RunSpec {
        let mut spec = RunSpec::standard_cdm(ks);
        spec.preset = Preset::Draft;
        spec
    }

    fn two_point_sweep(base: RunSpec) -> EnsembleSpec {
        EnsembleSpec {
            base,
            omega_b: vec![0.04, 0.06],
            h: vec![0.5],
            n_s: vec![1.0],
        }
    }

    /// Every frame [`answer`] sends for one request, through a `Vec`.
    fn answer_frames<W: World>(
        svc: &Mutex<SpectrumService<W>>,
        metrics: &ServiceMetrics,
        drain_spent: bool,
        tag: Tag,
        data: Vec<f64>,
    ) -> Vec<(Tag, Vec<f64>)> {
        let mut frames = Vec::new();
        let msg = Message {
            source: 0,
            tag,
            data,
        };
        let cancel = AtomicBool::new(false);
        answer(
            svc,
            metrics,
            64,
            drain_spent,
            &cancel,
            None,
            &msg,
            |tag, data| {
                frames.push((tag, data.to_vec()));
                Ok::<_, Infallible>(())
            },
        )
        .unwrap();
        frames
    }

    /// The one frame of a refused request, decoded.
    fn refusal(frames: &[(Tag, Vec<f64>)]) -> ServiceError {
        assert_eq!(frames.len(), 1, "a refusal is one frame");
        assert_eq!(frames[0].0, TAG_RESP_ERROR);
        ServiceError::decode(&frames[0].1)
    }

    #[test]
    fn the_gate_sheds_with_a_hint_per_excess_request_and_refuses_a_spent_drain() {
        let m = ServiceMetrics::new(1);
        let shed = |limit| {
            QueueSlot::enter(&m, limit, false)
                .map(drop)
                .expect_err("admitted past the limit")
        };
        let held: Vec<_> = (0..3)
            .map(|_| QueueSlot::enter(&m, 64, false).unwrap())
            .collect();
        // the fourth in flight is three over a limit of one
        let err = shed(1);
        assert_eq!((err.code, err.retry_after_ms), (ErrorCode::Busy, 150));
        let more: Vec<_> = (0..60)
            .map(|_| QueueSlot::enter(&m, 64, false).unwrap())
            .collect();
        assert_eq!(shed(1).retry_after_ms, 2000, "63 over is capped");
        let err = QueueSlot::enter(&m, 64, true)
            .map(drop)
            .expect_err("admitted after the drain window");
        assert_eq!(err.code, ErrorCode::ShuttingDown);
        assert_eq!(m.queue_depth(), 63, "refusals leave the queue as they were");
        assert_eq!(m.requests_shed.get(), 2);
        drop((held, more));
        assert_eq!(m.queue_depth(), 0);
        assert_eq!(m.total_ns.snapshot().count, 63, "only admitted requests");

        // a spent drain window refuses both kinds before any decode
        let pool = FarmPool::<ChannelWorld>::start(1).unwrap();
        let svc = Mutex::new(SpectrumService::new(pool, SchedulePolicy::LargestFirst));
        let spec = tiny_spec(vec![0.001]);
        for (tag, data) in [
            (
                TAG_REQ_SPECTRUM,
                SpectrumRequest::new(spec.clone()).encode(),
            ),
            (TAG_REQ_ENSEMBLE, vec![]),
        ] {
            let err = refusal(&answer_frames(&svc, &m, true, tag, data));
            assert_eq!(err.code, ErrorCode::ShuttingDown, "tag {tag}");
        }
        // a metrics query and an unknown tag never meet the gate
        let frames = answer_frames(&svc, &m, true, TAG_REQ_METRICS, vec![]);
        assert_eq!((frames[0].0, frames[0].1.len()), (TAG_RESP_METRICS, 18));
        let err = refusal(&answer_frames(&svc, &m, true, 99, vec![]));
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(m.requests_shed.get(), 2);
        assert_eq!((m.queue_depth(), m.errors.get()), (0, 0));
        let _ = svc.into_inner().unwrap().shutdown();
    }

    #[test]
    fn answer_sends_each_kind_its_frames_and_always_leaves_the_queue() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let svc = Mutex::new(svc);
        let spec = tiny_spec(vec![0.001, 0.02]);

        // a budget too large for an Instant is no budget, not a panic
        let single = SpectrumRequest {
            spec: spec.clone(),
            deadline_ms: Some(f64::INFINITY),
        }
        .encode();
        let miss = answer_frames(&svc, &metrics, false, TAG_REQ_SPECTRUM, single.clone());
        let hit = answer_frames(&svc, &metrics, false, TAG_REQ_SPECTRUM, single);
        for (frames, flag) in [(&miss, 0.0), (&hit, 1.0)] {
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].0, TAG_RESP_SPECTRUM);
            assert_eq!(frames[0].1[0], flag);
        }
        assert_eq!(miss[0].1[1..], hit[0].1[1..]);

        let sweep = EnsembleRequest::new(two_point_sweep(spec.clone())).encode();
        let frames = answer_frames(&svc, &metrics, false, TAG_REQ_ENSEMBLE, sweep);
        let tags: Vec<Tag> = frames.iter().map(|f| f.0).collect();
        assert_eq!(tags, [TAG_RESP_SHARD, TAG_RESP_SHARD, TAG_RESP_ENSEMBLE]);

        // bare specs of either kind are bad requests
        let bare_sweep = EnsembleSpec::singleton(spec.clone()).encode();
        for (tag, bare) in [
            (TAG_REQ_SPECTRUM, spec.encode()),
            (TAG_REQ_ENSEMBLE, bare_sweep),
        ] {
            let err = refusal(&answer_frames(&svc, &metrics, false, tag, bare));
            assert_eq!(err.code, ErrorCode::BadRequest, "tag {tag}: {err}");
        }
        assert_eq!(metrics.errors.get(), 2);
        assert_eq!(metrics.queue_depth(), 0);
        assert_eq!(metrics.total_ns.snapshot().count, 5);
        let _ = svc.into_inner().unwrap().shutdown();
    }

    #[test]
    fn a_failing_sink_ends_the_request_without_an_error_frame() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let svc = Mutex::new(svc);
        let msg = Message {
            source: 0,
            tag: TAG_REQ_ENSEMBLE,
            data: EnsembleRequest::new(two_point_sweep(tiny_spec(vec![0.001]))).encode(),
        };
        let mut tried = Vec::new();
        let cancel = AtomicBool::new(false);
        let out = answer(&svc, &metrics, 64, false, &cancel, None, &msg, |tag, _| {
            tried.push(tag);
            Err("client hung up")
        });
        assert_eq!(out, Err("client hung up"));
        assert_eq!(
            tried,
            [TAG_RESP_SHARD],
            "nothing is sent after the sink fails"
        );
        assert_eq!(metrics.errors.get(), 0, "a hang-up is not a service error");
        assert_eq!(metrics.queue_depth(), 0);
        let _ = svc.into_inner().unwrap().shutdown();
    }

    /// One worker under `fault`, with no respawn.
    fn faulty_pool(fault: FaultPlan) -> FarmPool<ChannelWorld> {
        let config = MasterConfig {
            poll: std::time::Duration::from_millis(10),
            ..MasterConfig::default()
        };
        let opts = PoolOptions {
            respawn_limit: 0,
            fault: Some(fault),
        };
        FarmPool::<ChannelWorld>::start_with(1, config, opts).unwrap()
    }

    /// One worker that dies on its first assignment, with no respawn:
    /// every job on this pool fails.
    fn dead_pool() -> FarmPool<ChannelWorld> {
        faulty_pool(FaultPlan::DropWorker {
            rank: 1,
            after_modes: 0,
        })
    }

    #[test]
    fn a_spectrum_with_quarantined_modes_is_an_error_and_never_cached() {
        // mode 1 fails on every dispatch, so every job quarantines it:
        // each identical request runs its own job, fails naming the mode,
        // and leaves nothing for the next one to hit
        let mut svc = SpectrumService::new(
            faulty_pool(FaultPlan::FailMode { ik: 1 }),
            SchedulePolicy::LargestFirst,
        );
        let spec = tiny_spec(vec![0.001, 0.002]);
        for _ in 0..2 {
            match svc.handle(&spec) {
                Err(FarmError::Quarantined { modes }) => {
                    assert_eq!(modes.len(), 1, "{modes:?}");
                    assert_eq!(modes[0].ik, 1);
                }
                Err(e) => panic!("expected Quarantined, got {e}"),
                Ok(reply) => panic!("served a partial spectrum (hit={})", reply.cache_hit),
            }
        }
        assert_eq!(svc.metrics().pool_jobs.get(), 2);
        assert_eq!(svc.cache().len(), 0);
        svc.shutdown();
    }

    #[test]
    fn a_dead_pool_answers_one_internal_frame() {
        let pool = dead_pool();
        let svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let svc = Mutex::new(svc);
        let spec = tiny_spec(vec![0.001]);

        let sweep = EnsembleRequest::new(two_point_sweep(spec.clone())).encode();
        let err = refusal(&answer_frames(
            &svc,
            &metrics,
            false,
            TAG_REQ_ENSEMBLE,
            sweep,
        ));
        assert_eq!(err.code, ErrorCode::Internal, "{err}");
        assert!(err.message.starts_with("ensemble failed"), "{err}");
        assert_eq!(metrics.errors.get(), 1);

        let single = SpectrumRequest::new(spec).encode();
        let err = refusal(&answer_frames(
            &svc,
            &metrics,
            false,
            TAG_REQ_SPECTRUM,
            single,
        ));
        assert_eq!(err.code, ErrorCode::Internal, "{err}");
        assert!(err.message.starts_with("farm failed"), "{err}");
        assert_eq!(metrics.errors.get(), 2);
        assert_eq!(metrics.queue_depth(), 0);
        let _ = svc.into_inner().unwrap().shutdown();
    }

    /// Every bit a mode carries over the wire except its timing real.
    fn physics_bits(out: &ModeOutput) -> Vec<u64> {
        let timeless = ModeOutput {
            cpu_seconds: 0.0,
            ..out.clone()
        };
        let (header, payload) = timeless.to_wire(0);
        header.iter().chain(&payload).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn body_roundtrips_bitwise() {
        let spec = tiny_spec(vec![0.001, 0.02]);
        let (outputs, wall) = run_serial(&spec).unwrap();
        let body = encode_spectrum_body(&outputs, wall);
        let (back, wall_back) = decode_spectrum_body(&body).unwrap();
        assert_eq!(wall_back.to_bits(), wall.to_bits());
        assert_eq!(back.len(), outputs.len());
        for (a, b) in outputs.iter().zip(&back) {
            assert_eq!(a.k.to_bits(), b.k.to_bits());
            assert_eq!(a.delta_c.to_bits(), b.delta_c.to_bits());
            assert_eq!(a.delta_t.len(), b.delta_t.len());
            for (x, y) in a.delta_t.iter().zip(&b.delta_t) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        assert!(decode_spectrum_body(&[]).is_err());
        // claims one output but carries none
        assert!(decode_spectrum_body(&[1.0, 0.5]).is_err());
        let spec = tiny_spec(vec![0.001]);
        let (outputs, wall) = run_serial(&spec).unwrap();
        let mut body = encode_spectrum_body(&outputs, wall);
        body.pop();
        assert!(decode_spectrum_body(&body).is_err());
        // trailing garbage is rejected, not silently ignored
        let mut body = encode_spectrum_body(&outputs, wall);
        body.push(0.0);
        assert!(decode_spectrum_body(&body).is_err());
        // counts and lengths that are not whole numbers, or that no body
        // could hold: an error each, never a capacity or offset overflow
        for hostile in [
            &[1e300, 0.0][..],
            &[1e18, 0.0],
            &[f64::NAN, 0.0],
            &[-1.0, 0.0],
            &[1.0, 0.0, 1e300, 1.0, 0.0],
            &[1.0, 0.0, 1.0, f64::NAN, 0.0],
        ] {
            assert!(decode_spectrum_body(hostile).is_err(), "{hostile:?}");
        }
    }

    #[test]
    fn admission_refuses_curved_cosmologies_with_bad_request() {
        // an open budget decodes fine — the wire has no notion of
        // curvature — so admission is what keeps it off the pool
        let mut open = tiny_spec(vec![0.001]);
        open.cosmo.omega_c -= 2.0 * boltzmann::FLATNESS_TOLERANCE;
        let single = SpectrumRequest::decode(&SpectrumRequest::new(open.clone()).encode())
            .expect("curved spec still decodes");
        let err = single.admit().expect_err("open single request admitted");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("not flat"), "{}", err.message);
        // a flat budget with a parameter out of range is refused by name
        let mut negative_h = tiny_spec(vec![0.001]);
        negative_h.cosmo.h = -0.5;
        let err = SpectrumRequest::new(negative_h)
            .admit()
            .expect_err("h = -0.5 admitted");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("h = -0.5"), "{}", err.message);

        // a sweep keeps its base's curvature in every shard: a curved
        // base is refused, and so is a NaN axis value in one shard
        let sweep = |base: RunSpec, h: Vec<f64>| {
            EnsembleRequest::new(EnsembleSpec {
                omega_b: vec![0.04, 0.06],
                h,
                n_s: vec![1.0],
                base,
            })
        };
        let err = sweep(open, vec![0.5]).admit().expect_err("curved base");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.starts_with("ensemble base"), "{}", err.message);
        let err = sweep(tiny_spec(vec![0.001]), vec![0.5, f64::NAN])
            .admit()
            .expect_err("NaN shard");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.starts_with("shard 1"), "{}", err.message);

        // flat requests pass, at the tolerance the evolver asserts on
        assert_eq!(SpectrumRequest::new(tiny_spec(vec![0.001])).admit(), Ok(()));
        assert_eq!(
            sweep(tiny_spec(vec![0.001]), vec![0.5, 0.7]).admit(),
            Ok(())
        );
    }

    #[test]
    fn admission_refuses_reals_that_size_beyond_the_ceilings() {
        // each sizing real decodes from the wire as whatever usize the
        // client named; one past its ceiling is refused by name, the
        // ceiling itself is served
        type Set = fn(&mut RunSpec, usize);
        let cases: [(&str, usize, Set); 5] = [
            ("lmax_g", MAX_LMAX, |s, n| s.lmax_g = Some(n)),
            ("lmax_nu", MAX_LMAX, |s, n| s.lmax_nu = Some(n)),
            ("lmax_h", MAX_LMAX_H, |s, n| s.lmax_h = n),
            ("nq", MAX_NQ, |s, n| s.nq = Some(n)),
            ("n_nu_massive", MAX_NU_MASSIVE, |s, n| {
                s.cosmo.n_nu_massive = n
            }),
        ];
        for (name, max, set) in cases {
            let mut spec = tiny_spec(vec![0.001]);
            set(&mut spec, max);
            let wire = SpectrumRequest::new(spec.clone()).encode();
            let at = SpectrumRequest::decode(&wire).expect("decodes");
            assert_eq!(at.admit(), Ok(()), "{name} at its ceiling");

            set(&mut spec, max + 1);
            let wire = SpectrumRequest::new(spec.clone()).encode();
            let over = SpectrumRequest::decode(&wire).expect("decodes");
            let err = over.admit().expect_err("oversized single admitted");
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.starts_with(name), "{}", err.message);
            let err = EnsembleRequest::new(EnsembleSpec::singleton(spec))
                .admit()
                .expect_err("oversized sweep admitted");
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.starts_with(name), "{}", err.message);
        }
    }

    #[test]
    fn spectrum_request_roundtrips_its_one_form() {
        let spec = tiny_spec(vec![0.001, 0.02]);
        // no deadline still rides the header, as 0
        let plain = SpectrumRequest::new(spec.clone());
        assert_eq!(&plain.encode()[..2], &[-1.0, 0.0]);
        assert_eq!(plain.encode()[2..], spec.encode());
        let plain_back = SpectrumRequest::decode(&plain.encode()).unwrap();
        assert_eq!(plain_back.encode(), plain.encode());
        assert_eq!(plain_back.deadline_ms, None);
        // a deadline takes the header's second real
        let dl = SpectrumRequest {
            spec: spec.clone(),
            deadline_ms: Some(250.0),
        };
        let wire = dl.encode();
        assert_eq!(wire[0], -1.0);
        assert_eq!(wire[1], 250.0);
        let dl_back = SpectrumRequest::decode(&wire).unwrap();
        assert_eq!(dl_back.encode(), wire);
        assert_eq!(dl_back.deadline_ms, Some(250.0));
        // the deadline is not part of the job identity
        assert_eq!(job_hash(&dl.spec), job_hash(&plain.spec));
        // a non-positive deadline decodes as none
        let mut negative = vec![-1.0, -5.0];
        negative.extend(spec.encode());
        assert_eq!(
            SpectrumRequest::decode(&negative).unwrap().deadline_ms,
            None
        );
        // a bare spec, and truncated frames, are bad requests
        for wire in [spec.encode(), vec![-1.0], vec![-1.0, 100.0, 2.0]] {
            let err = SpectrumRequest::decode(&wire).expect_err("malformed frame decoded");
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.starts_with("bad spectrum request"), "{err}");
        }
    }

    #[test]
    fn service_error_roundtrips_and_reads_headerless_frames_as_internal() {
        let e = ServiceError {
            code: ErrorCode::Busy,
            retry_after_ms: 350,
            message: "queue full".into(),
        };
        let back = ServiceError::decode(&e.encode());
        assert_eq!(back, e);
        assert_eq!(back.to_string(), "busy: queue full (retry after 350 ms)");
        // text without the typed header is never read as text
        let text: Vec<f64> = "busy: boom".bytes().map(f64::from).collect();
        for wire in [text, vec![], vec![-1.0, 1.0]] {
            let headerless = ServiceError::decode(&wire);
            assert_eq!(headerless.code, ErrorCode::Internal);
            assert_eq!(headerless.retry_after_ms, 0);
            assert!(
                headerless.message.contains("without its header"),
                "{headerless}"
            );
        }
        // an unknown future code degrades to Internal, keeping the text
        let unknown = ServiceError::decode(&[-1.0, 99.0, 10.0, 104.0, 105.0]);
        assert_eq!(unknown.code, ErrorCode::Internal);
        assert_eq!(unknown.message, "hi");
    }

    #[test]
    fn disk_cache_survives_restart_bitwise_and_discards_corruption() {
        let dir = std::env::temp_dir().join(format!("plinger_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let body = vec![1.5, -2.25, f64::MIN_POSITIVE, 0.1 + 0.2];
        {
            let mut cache = ResultCache::with_dir(&dir).unwrap();
            assert!(cache.insert(0xabcd, Arc::new(body.clone())));
            assert!(cache.insert(0x1234, Arc::new(vec![9.0])));
            assert_eq!(cache.persist_writes(), 2);
        }
        // corrupt one entry: flip a payload byte so the checksum fails
        let victim = dir.join(cache_entry_name(0x1234));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        // and plant a truncated stray plus an orphaned temp file
        std::fs::write(dir.join(cache_entry_name(0x77)), b"short").unwrap();
        std::fs::write(dir.join(".tmp_dead_1"), b"partial").unwrap();
        // intact entries written under older magics: the first encoding's,
        // and the one before full-hierarchy ladders grew
        for (key, magic) in [(0x5151, b"PLNGRSLT"), (0x5252, b"PLNGRES2")] {
            let mut stale = encode_cache_entry(key, &body);
            stale[..8].copy_from_slice(magic);
            std::fs::write(dir.join(cache_entry_name(key)), &stale).unwrap();
        }

        let mut warm = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(warm.persist_loads(), 1, "only the intact entry loads");
        assert_eq!(
            warm.persist_discards(),
            4,
            "corrupt + truncated + two old magics dropped"
        );
        for key in [0x5151, 0x5252] {
            assert!(warm.lookup(key).is_none(), "old-magic entry never served");
        }
        assert!(!victim.exists(), "corrupt file deleted");
        assert!(!dir.join(".tmp_dead_1").exists(), "orphaned temp removed");
        let hit = warm.lookup(0xabcd).expect("persisted entry survives");
        for (a, b) in hit.iter().zip(&body) {
            assert_eq!(a.to_bits(), b.to_bits(), "restart changed the bits");
        }
        assert!(warm.lookup(0x1234).is_none(), "corrupt entry never served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = ResultCache::new();
        assert!(cache.lookup(7).is_none());
        cache.insert(7, Arc::new(vec![1.0, 2.0]));
        let hit = cache.lookup(7).unwrap();
        assert_eq!(*hit, vec![1.0, 2.0]);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn service_metrics_snapshot_and_wire_payload() {
        let m = ServiceMetrics::new(2);
        m.requests.add(3);
        m.cache_hits.inc();
        m.cache_misses.add(2);
        m.pool_jobs.add(2);
        m.errors.inc();
        m.total_ns.record(1_000_000);
        assert_eq!(m.enter_queue(), 1);

        let s = m.snapshot();
        assert_eq!(s.counter("requests_total"), 3);
        assert_eq!(s.counter("cache_hits_total"), 1);
        assert_eq!(s.counter("errors_total"), 1);
        assert_eq!(s.gauges["queue_depth"], 1.0);
        assert_eq!(s.gauges["workers_alive"], 2.0);
        assert_eq!(s.histograms["request_total_ns"].count, 1);

        m.leave_queue();
        m.leave_queue(); // a stray extra leave must not wrap the gauge
        assert_eq!(m.queue_depth(), 0);

        let wire = m.wire_payload();
        assert_eq!(wire.len(), 18);
        assert_eq!(&wire[..5], &[3.0, 1.0, 2.0, 2.0, 2.0]);
        // total_ms_p50 reflects the single 1 ms sample (log-bucket
        // resolution: within a factor of 2)
        assert!(wire[9] > 0.5 && wire[9] < 2.1, "p50 {} ms", wire[9]);
    }

    #[test]
    fn service_counts_into_shared_metrics() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let spec = tiny_spec(vec![0.001, 0.02]);
        svc.handle(&spec).unwrap();
        svc.handle(&spec).unwrap();
        assert_eq!(metrics.requests.get(), 2);
        assert_eq!(metrics.cache_hits.get(), 1);
        assert_eq!(metrics.cache_misses.get(), 1);
        assert_eq!(metrics.pool_jobs.get(), 1);
        assert_eq!(metrics.workers_alive(), 2);
        assert!(metrics.cache_bytes_served.get() > 0);
        // the folded farm comm aggregate reaches the snapshot
        let s = metrics.snapshot();
        assert!(s.counter("msgs_sent") > 0);
        let _ = svc.shutdown();
    }

    #[test]
    fn service_serves_los_requests_bitwise_and_counts_them() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let mut spec = tiny_spec(vec![0.001, 0.004, 0.02]);
        spec.method = boltzmann::SpectrumMethod::LineOfSight;

        let reply = svc.handle(&spec).unwrap();
        assert!(!reply.cache_hit);
        // the reply body decodes to the serial LOS answer, source
        // extension included, bit for bit
        let (serial, _) = run_serial(&spec).unwrap();
        let (decoded, _) = decode_spectrum_body(&reply.body).unwrap();
        assert_eq!(decoded.len(), serial.len());
        for (d, s) in decoded.iter().zip(&serial) {
            assert_eq!(d.sources, s.sources, "sources must survive the body");
            for (a, b) in d.delta_t.iter().zip(&s.delta_t) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // the same spec hits the cache; both requests count as LOS
        let second = svc.handle(&spec).unwrap();
        assert!(second.cache_hit);
        assert_eq!(metrics.los_jobs.get(), 2);

        // a full-hierarchy request is a different key and not LOS
        let full = tiny_spec(vec![0.001, 0.004, 0.02]);
        let other = svc.handle(&full).unwrap();
        assert!(!other.cache_hit);
        assert_ne!(other.key, reply.key);
        assert_eq!(metrics.los_jobs.get(), 2);
        let _ = svc.shutdown();
    }

    #[test]
    fn ensemble_request_and_frames_roundtrip() {
        let ens = EnsembleSpec {
            base: tiny_spec(vec![0.001, 0.02]),
            omega_b: vec![0.04, 0.06],
            h: vec![0.5],
            n_s: vec![1.0],
        };
        // the tag-20 header, with no deadline
        let plain = EnsembleRequest::new(ens.clone());
        assert_eq!(plain.encode()[2..], ens.encode());
        let back = EnsembleRequest::decode(&plain.encode()).unwrap();
        assert_eq!(back.ens, ens);
        assert_eq!(back.deadline_ms, None);
        let bare = EnsembleRequest::decode(&ens.encode()).expect_err("bare sweep decoded");
        assert_eq!(bare.code, ErrorCode::BadRequest);
        // and with a sweep-wide deadline
        let dl = EnsembleRequest {
            ens: ens.clone(),
            deadline_ms: Some(1500.0),
        };
        let wire = dl.encode();
        assert_eq!(wire[0], -1.0);
        let dl_back = EnsembleRequest::decode(&wire).unwrap();
        assert_eq!(dl_back.deadline_ms, Some(1500.0));
        assert_eq!(dl_back.ens, ens);
        assert!(EnsembleRequest::decode(&[-1.0]).is_err());

        // 64-bit keys survive the two-real split exactly
        for key in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            let [hi, lo] = key_to_reals(key);
            assert_eq!(key_from_reals(hi, lo), key);
        }
        let reply = ShardReply {
            shard: 3,
            n_shards: 12,
            key: 0xfeed_face_0123_4567,
            cache_hit: true,
            body: Arc::new(vec![2.0, 0.25, -1.5]),
        };
        let frame = reply.frame();
        let back = ShardReply::decode_frame(&frame).unwrap();
        assert_eq!(back.shard, 3);
        assert_eq!(back.n_shards, 12);
        assert_eq!(back.key, reply.key);
        assert!(back.cache_hit);
        assert_eq!(*back.body, *reply.body);
        assert!(ShardReply::decode_frame(&frame[..4]).is_err());

        let summary = EnsembleSummary {
            n_ok: 12,
            n_shards: 12,
            wall_seconds: 1.25,
            cache_hits: 5,
        };
        assert_eq!(
            EnsembleSummary::decode_frame(&summary.frame()).unwrap(),
            summary
        );
        assert!(EnsembleSummary::decode_frame(&[1.0]).is_err());
        let mut grown = summary.frame();
        grown.push(0.0);
        assert!(EnsembleSummary::decode_frame(&grown).is_err());
    }

    #[test]
    fn ensemble_streams_shards_and_shares_the_spectrum_cache() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let ens = EnsembleSpec {
            base: tiny_spec(vec![0.001, 0.02]),
            omega_b: vec![0.04, 0.06],
            h: vec![0.5, 0.7],
            n_s: vec![0.95, 1.0],
        };
        let n = ens.n_shards();
        let evolutions = ens.omega_b.len() * ens.h.len();

        // pre-warm one shard through the ordinary spectrum path: the
        // sweep must treat it as already done — and leave its bytes be,
        // though it is the twin of a shard the sweep runs fresh
        let warm = svc.handle(&ens.shard_spec(5)).unwrap();
        assert!(!warm.cache_hit);
        let jobs_before = svc.pool().jobs_run();

        let mut frames: Vec<ShardReply> = Vec::new();
        let summary = svc
            .handle_ensemble_with(&ens, &JobControl::default(), |r| {
                frames.push(r.clone());
                Ok::<_, Infallible>(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(summary.n_ok, n);
        assert_eq!(summary.cache_hits, n - evolutions, "every twin hit");
        assert_eq!(
            svc.pool().jobs_run() - jobs_before,
            evolutions,
            "one pool job per (omega_b, h) point"
        );
        assert_eq!(frames.len(), n);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.shard, i, "canonical order");
            assert_eq!(f.n_shards, n);
            assert_eq!(f.key, ens.shard_hash(i));
            assert_eq!(f.cache_hit, i % 2 == 1, "shard {i}");
            // each shard's body is bitwise the serial answer to its
            // OWN spec, whichever shard's job produced it
            let (serial, _) = run_serial(&ens.shard_spec(i)).unwrap();
            let (decoded, _) = decode_spectrum_body(&f.body).unwrap();
            assert_eq!(decoded.len(), serial.len());
            for (d, s) in decoded.iter().zip(&serial) {
                assert_eq!(physics_bits(d), physics_bits(s), "shard {i}");
            }
        }
        for pair in frames.chunks(2) {
            let shared = Arc::ptr_eq(&pair[0].body, &pair[1].body);
            // shard 5 keeps the body its single request was answered with
            assert_eq!(shared, pair[1].shard != 5, "shard {}", pair[1].shard);
        }
        assert!(Arc::ptr_eq(&frames[5].body, &warm.body));
        assert_eq!(metrics.ensemble_requests.get(), 1);
        assert_eq!(metrics.ensemble_shards.get(), n as u64);
        assert_eq!(
            metrics.ensemble_shard_hits.get(),
            (n - evolutions) as u64,
            "twins count as shard hits"
        );

        // the whole sweep repeats from the cache: no new pool jobs
        let jobs_before = svc.pool().jobs_run();
        let mut rerun = 0usize;
        let again = svc
            .handle_ensemble_with(&ens, &JobControl::default(), |r| {
                assert!(r.cache_hit);
                assert!(Arc::ptr_eq(&r.body, &frames[r.shard].body));
                rerun += 1;
                Ok::<_, Infallible>(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(again.cache_hits, n);
        assert_eq!(rerun, n);
        assert_eq!(svc.pool().jobs_run(), jobs_before);

        // and a single-spectrum request for a swept cosmology hits too
        let cross = svc.handle(&ens.shard_spec(3)).unwrap();
        assert!(cross.cache_hit);
        let _ = svc.shutdown();
    }

    /// Run `ens` through the service, collecting its streamed frames.
    fn sweep_frames<W: World>(
        svc: &mut SpectrumService<W>,
        ens: &EnsembleSpec,
    ) -> (Vec<ShardReply>, EnsembleSummary) {
        let mut frames = Vec::new();
        let summary = svc
            .handle_ensemble_with(ens, &JobControl::default(), |r| {
                frames.push(r.clone());
                Ok::<_, Infallible>(())
            })
            .unwrap()
            .unwrap();
        (frames, summary)
    }

    /// `(shard, cache_hit)` of every streamed frame, in stream order.
    fn stream(frames: &[ShardReply]) -> Vec<(usize, bool)> {
        frames.iter().map(|f| (f.shard, f.cache_hit)).collect()
    }

    #[test]
    fn a_sweep_streams_a_shard_a_single_request_cached_and_evolves_the_rest_of_its_group() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let ens = EnsembleSpec {
            base: tiny_spec(vec![0.001]),
            omega_b: vec![0.04],
            h: vec![0.5],
            n_s: vec![0.95, 1.0],
        };
        let warm = svc.handle(&ens.shard_spec(0)).unwrap();
        assert!(!warm.cache_hit);
        assert_eq!(svc.pool().jobs_run(), 1);

        let (frames, summary) = sweep_frames(&mut svc, &ens);
        assert_eq!(stream(&frames), [(0, true), (1, false)]);
        assert!(Arc::ptr_eq(&frames[0].body, &warm.body));
        assert_eq!(svc.pool().jobs_run(), 2, "shard 1 evolves in one job");
        assert_eq!(metrics.ensemble_shards.get(), 2);
        assert_eq!(metrics.ensemble_shard_hits.get(), 1);
        assert_eq!((svc.cache().hits(), svc.cache().misses()), (1, 2));
        let want = EnsembleSummary {
            wall_seconds: summary.wall_seconds,
            n_ok: 2,
            n_shards: 2,
            cache_hits: 1,
        };
        assert_eq!(summary, want);
        let _ = svc.shutdown();
    }

    #[test]
    fn a_sweep_hint_skips_cached_shards() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let metrics = svc.metrics();
        let ens = EnsembleSpec {
            base: tiny_spec(vec![0.001]),
            omega_b: vec![0.04, 0.05, 0.06],
            h: vec![0.5],
            n_s: vec![1.0],
        };
        let single = svc.handle(&ens.shard_spec(1)).unwrap();
        assert!(!single.cache_hit);
        // the single request's job built shard 1's tables, and its
        // report carries the worker span that says so
        let built: Vec<String> = (single.report.unwrap().telemetry.spans.iter())
            .filter(|s| s.name == "build_ctx")
            .filter_map(|s| s.args.iter().find(|(k, _)| k == "job"))
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(built, [tlog::job_hex(ens.shard_hash(1))]);

        let (frames, summary) = sweep_frames(&mut svc, &ens);
        assert_eq!(stream(&frames), [(0, false), (1, true), (2, false)]);
        assert_eq!(svc.pool().jobs_run(), 3);
        assert_eq!(metrics.ensemble_shards.get(), 3);
        assert_eq!(metrics.ensemble_shard_hits.get(), 1);
        assert_eq!((svc.cache().hits(), svc.cache().misses()), (1, 3));
        assert_eq!(
            (summary.n_ok, summary.n_shards, summary.cache_hits),
            (3, 3, 1)
        );

        // shard 0's job hinted shard 2, past the cached shard 1: one rank
        // built shard 2's tables then, and shard 2's job built none.  A
        // hint at shard 1 would have found its tables built, and shard
        // 2's job would have built its own (2 rebuilds, 0 prefetches).
        // The walk sums both counts over its jobs' reports.
        let sweep = tlog::job_hex(ensemble_hash(&ens));
        let done = tlog::recent(tlog::FLIGHT_CAPACITY)
            .into_iter()
            .rfind(|e| e.message == "sweep_done" && e.field("ensemble") == Some(sweep.as_str()))
            .expect("the sweep's sweep_done event");
        assert_eq!(done.field("ctx_rebuilds"), Some("1"), "ctx_rebuilds");
        assert_eq!(done.field("prefetch_builds"), Some("1"), "prefetch_builds");
        let _ = svc.shutdown();
    }

    #[test]
    fn a_failed_sweep_job_is_tried_twice_after_the_shards_before_it_stream() {
        let pool = dead_pool();
        let ens = two_point_sweep(tiny_spec(vec![0.001]));
        let mut cache = ResultCache::new();
        let held = Arc::new(vec![0.0, 0.0]);
        cache.insert(ens.shard_hash(0), Arc::clone(&held));
        let svc = SpectrumService::with_cache(pool, SchedulePolicy::LargestFirst, cache);
        let metrics = svc.metrics();
        let svc = Mutex::new(svc);

        let sweep = EnsembleRequest::new(ens.clone()).encode();
        let frames = answer_frames(&svc, &metrics, false, TAG_REQ_ENSEMBLE, sweep);
        let tags: Vec<Tag> = frames.iter().map(|f| f.0).collect();
        assert_eq!(tags, [TAG_RESP_SHARD, TAG_RESP_ERROR], "no tag-24 summary");
        let shard = ShardReply::decode_frame(&frames[0].1).unwrap();
        assert_eq!((shard.shard, shard.cache_hit), (0, true));
        assert_eq!(*shard.body, *held);
        let err = ServiceError::decode(&frames[1].1);
        assert_eq!(err.code, ErrorCode::Internal, "{err}");
        assert!(err.message.starts_with("ensemble failed"), "{err}");

        let svc = svc.into_inner().unwrap();
        assert_eq!(svc.pool().jobs_run(), 0);
        assert_eq!(metrics.ensemble_shards.get(), 1);
        assert_eq!(metrics.ensemble_shard_hits.get(), 1);
        assert_eq!(
            (svc.cache().hits(), svc.cache().misses()),
            (1, 2),
            "shard 1's job is tried twice"
        );
        assert_eq!(metrics.errors.get(), 1);
        let _ = svc.shutdown();
    }

    #[test]
    fn ensemble_sink_error_aborts_the_sweep() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let ens = EnsembleSpec {
            base: tiny_spec(vec![0.001]),
            omega_b: vec![0.04, 0.06],
            h: vec![0.5],
            n_s: vec![1.0],
        };
        let mut served = 0usize;
        let out = svc.handle_ensemble_with(&ens, &JobControl::default(), |_| {
            served += 1;
            Err("client hung up")
        });
        assert!(matches!(out, Err("client hung up")), "{out:?}");
        assert_eq!(served, 1, "the first frame's failure stops the stream");
        let _ = svc.shutdown();
    }

    #[test]
    fn service_serves_second_identical_request_from_cache() {
        let pool = FarmPool::<ChannelWorld>::start(2).unwrap();
        let mut svc = SpectrumService::new(pool, SchedulePolicy::LargestFirst);
        let spec = tiny_spec(vec![0.001, 0.004, 0.02]);

        let first = svc.handle(&spec).unwrap();
        assert!(!first.cache_hit);
        let rep = first.report.as_ref().unwrap();
        assert_eq!(rep.outputs.len(), 3);

        let second = svc.handle(&spec).unwrap();
        assert!(second.cache_hit);
        assert!(second.report.is_none());
        // the literal same allocation: bitwise equality is structural
        assert!(Arc::ptr_eq(&first.body, &second.body));
        assert_eq!(svc.pool().jobs_run(), 1);

        // a distinct grid is a distinct key and a fresh pool job
        let other = svc.handle(&tiny_spec(vec![0.001, 0.004])).unwrap();
        assert!(!other.cache_hit);
        assert_eq!(svc.pool().jobs_run(), 2);
        assert_ne!(other.key, first.key);

        let cache = svc.shutdown();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));

        // cached body decodes to the serial answer, bit for bit
        let (serial, _) = run_serial(&spec).unwrap();
        let (decoded, _) = decode_spectrum_body(&second.body).unwrap();
        for (s, d) in serial.iter().zip(&decoded) {
            assert_eq!(s.delta_c.to_bits(), d.delta_c.to_bits());
            assert_eq!(s.phi.to_bits(), d.phi.to_bits());
        }
    }
}
