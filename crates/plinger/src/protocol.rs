//! The wire protocol of Appendix A: message tags and the initial
//! broadcast encoding.
//!
//! # Wire formats beyond the paper's table
//!
//! Two messages carry more than the paper's Appendix A specifies:
//!
//! * **Tag 5 (data)** — the `2·lmax + 8` payload reserves slots
//!   `payload[1..6]` for integrator statistics: RHS evaluations,
//!   accepted steps, rejected steps, the gauge discriminant, and the
//!   stepper's own flop count.  Together with `header[19]`
//!   (total flops) this lets [`boltzmann::ModeOutput::from_wire`]
//!   reconstruct the full [`ode::StepStats`] on the master side, so
//!   per-mode timing ledgers survive the wire even when workers are OS
//!   subprocesses.
//! * **Tag 7 (stats)** — a 10-real worker self-report per job (see
//!   [`TAG_STATS`]).

use background::CosmoParams;
use boltzmann::{Gauge, InitialConditions, ModeConfig, Preset, SpectrumMethod};
use msgpass::Tag;

use crate::error::FarmError;

/// Tag 1: first message of a job from master to workers (run
/// parameters, `20 + nk` reals), sent to every live rank — and re-sent
/// to a rank respawned mid-job.  The worker takes the job's physics
/// tables from its process's [`TableCache`](crate::TableCache),
/// building them only if that cosmology is not there yet.
pub const TAG_INIT: Tag = 1;
/// Tag 2: from worker, asking for a wavenumber.
pub const TAG_REQUEST: Tag = 2;
/// Tag 3: from master, giving the worker one mode to work on — the
/// paper's one-wavenumber-at-a-time protocol.  The payload is `[ik]`,
/// exactly one index into the job's k-grid; the worker answers it with
/// a tag-4/5 result pair or a tag-8 failure, and refuses any other
/// payload with [`FarmError::Protocol`].
pub const TAG_ASSIGN: Tag = 3;
/// Tag 4: from worker, first set of data (21 reals, `y(21) = lmax`).
pub const TAG_HEADER: Tag = 4;
/// Tag 5: from worker, second set of data (`2·lmax + 8` reals).
pub const TAG_DATA: Tag = 5;
/// Tag 6: from master, telling the worker to stop — the end of its
/// session, sent by its pool's shutdown once no job is open.
pub const TAG_STOP: Tag = 6;
/// Tag 7: from worker, after its tag-11 release — that job's statistics
/// as 10 reals: `[modes, busy seconds, total seconds, bytes sent,
/// steps accepted, steps rejected, rhs evals, bytes received,
/// ctx rebuilds, prefetch builds]`.  Any other length, or any
/// non-finite or negative value, is rejected by
/// [`crate::worker::WorkerStats::from_wire`].  Not in the paper's
/// table; carrying the counters over the wire keeps the report uniform
/// whether workers are threads or OS processes.
pub const TAG_STATS: Tag = 7;
/// Tag 8: from worker, a mode integration failed (2 reals: ik, k).
/// The mode goes back into the queue (or is quarantined once its
/// attempt budget is spent) and the worker stays in rotation.
pub const TAG_FAIL: Tag = 8;
/// Tag 9: from worker, a liveness heartbeat (1 real: a monotonically
/// increasing sequence number).  Workers emit one between DVERK step
/// batches, at most every ~100 ms; the master only reads them to
/// refresh a rank's last-seen clock, so losing heartbeats is harmless
/// while data messages still flow.  Not in the paper's table — the
/// 1995 codes had no liveness detection beyond socket close.
pub const TAG_HEARTBEAT: Tag = 9;
/// Tag 11: from master, releasing a worker at the end of a job
/// *without* ending its session (1 real, ignored).  The worker answers
/// with its per-job tag-7 stats and then parks, keeping its integrator
/// scratch and the process's tables warm, until the next tag-1 job or
/// the tag-6 stop.  (Tag 10 is retired: it once opened jobs on resident
/// workers, which tag 1 now does for every job.)
pub const TAG_JOBDONE: Tag = 11;
/// Tag 12: from master, cooperative job cancellation (1 real, ignored).
/// Workers poll for it inside the heartbeat observer (every
/// `HEARTBEAT_CHECK_STEPS` accepted DVERK steps) and between
/// assignments, so a deadline-expired or client-abandoned job releases
/// its ranks mid-mode instead of finishing dead work.  A worker that
/// sees it abandons its mode, answers with its per-job
/// tag-7 stats — exactly as it would answer [`TAG_JOBDONE`] — and then
/// parks.  Results already in flight when the cancel lands are consumed
/// blindly by the master's drain.
pub const TAG_CANCEL: Tag = 12;
/// Tag 13: from master, a next-job table hint — the same spec payload
/// as [`TAG_INIT`], but it does **not** start a job.  The master sends
/// it to every live rank immediately before the tag-1 of the job that
/// *precedes* the announced one; the first rank
/// of a process to see an unclaimed cosmology builds its
/// background/thermo tables into the process's
/// [`TableCache`](crate::TableCache) while its peers start on the
/// current job's modes, and every other rank skips the hint at once.
/// This is how an ensemble sweep overlaps shard `i+1`'s per-cosmology
/// table construction with shard `i`'s integration: when the real
/// tag-1 job for that cosmology arrives, the tables are already there
/// and `ctx_rebuilds` is 0 on every rank.  A worker may safely ignore it
/// (it is a hint, not a job), and it never changes results — tables are keyed on the
/// canonical cosmology hash and bit-identical wherever they are built.
pub const TAG_PREFETCH: Tag = 13;

/// 64-bit FNV-1a over a sequence of 64-bit words, fed byte-wise in
/// little-endian order.  Dependency-free and stable across platforms —
/// the point is a *canonical* value that can be pinned in golden tests
/// and compared between master and worker processes.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Canonical hash of a cosmology: FNV-1a over the IEEE-754 bit patterns
/// of every [`CosmoParams`] field, in the fixed order of the tag-1 wire
/// encoding (`h, omega_c, omega_b, omega_lambda, t_cmb_k, y_helium,
/// n_nu_massless, n_nu_massive, m_nu_ev, n_s`).
///
/// Persistent workers key their background/thermo caches on this value:
/// two jobs whose cosmologies hash equal reuse the tables, any change
/// rebuilds them.  Hashing bit patterns (not numeric equality) is
/// deliberate — a cache key must never conflate parameter sets the
/// physics could distinguish, and bitwise identity is the only relation
/// that survives encode/decode round-trips exactly.
pub fn cosmo_hash(c: &CosmoParams) -> u64 {
    fnv1a64([
        c.h.to_bits(),
        c.omega_c.to_bits(),
        c.omega_b.to_bits(),
        c.omega_lambda.to_bits(),
        c.t_cmb_k.to_bits(),
        c.y_helium.to_bits(),
        c.n_nu_massless.to_bits(),
        c.n_nu_massive as u64,
        c.m_nu_ev.to_bits(),
        c.n_s.to_bits(),
    ])
}

/// Canonical hash of a whole job: FNV-1a over the bit patterns of the
/// tag-1 wire encoding ([`RunSpec::encode`]), which covers the
/// cosmology, gauge, initial conditions, accuracy preset, hierarchy
/// sizes, integration horizon, spectrum method, and the full k-grid in
/// order.
///
/// The service's content-addressed `ResultCache` keys on this value:
/// requests that hash equal are — by construction of the encoding —
/// the same job, and the deterministic integrator makes their results
/// bitwise interchangeable.
pub fn job_hash(spec: &RunSpec) -> u64 {
    hash_reals(&spec.encode())
}

/// FNV-1a over the exact bit patterns of `xs`.  This is the generic
/// content hash behind [`job_hash`]; the `plinger-serve` client also
/// applies it to response bodies, so two responses print the same hash
/// exactly when they are bitwise identical.
pub fn hash_reals(xs: &[f64]) -> u64 {
    fnv1a64(xs.iter().map(|x| x.to_bits()))
}

/// Reals of a tag-1 spec ahead of its k-grid: run geometry, cosmology
/// and the spectrum method.
pub(crate) const SPEC_PREFIX: usize = 20;

/// A tag-1 broadcast payload that cannot be decoded into a [`RunSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecDecodeError {
    /// Payload shorter than the fixed 20-real prefix.
    TooShort {
        /// Actual length.
        got: usize,
    },
    /// The k-count is not a count: NaN, infinite, negative, fractional,
    /// or past what a `usize` holds.
    BadCount {
        /// Bit pattern of the real that was sent (bits, so that the
        /// error stays `Eq` with a NaN inside).
        bits: u64,
    },
    /// Payload length disagrees with the k-count it declares.
    LengthMismatch {
        /// k-count read from the first real.
        nk: usize,
        /// Expected total length, `20 + nk`.
        want: usize,
        /// Actual length.
        got: usize,
    },
    /// A code real — gauge (index 1), initial conditions (2), preset
    /// (3) or spectrum method (19) — is not exactly one of its codes.
    BadCode {
        /// Index of the real in the payload.
        index: usize,
        /// Bit pattern of the real that was sent.
        bits: u64,
    },
}

impl std::fmt::Display for SpecDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecDecodeError::TooShort { got } => {
                write!(f, "broadcast too short: {got} reals (need ≥ {SPEC_PREFIX})")
            }
            SpecDecodeError::BadCount { bits } => write!(
                f,
                "broadcast mode count is not a count: {}",
                f64::from_bits(*bits)
            ),
            SpecDecodeError::LengthMismatch { nk, want, got } => write!(
                f,
                "broadcast length mismatch: {nk} modes need {want} reals, got {got}"
            ),
            SpecDecodeError::BadCode { index, bits } => write!(
                f,
                "broadcast real {index} is not a {} code: {}",
                match index {
                    1 => "gauge",
                    2 => "initial-condition",
                    3 => "preset",
                    _ => "spectrum-method",
                },
                f64::from_bits(*bits)
            ),
        }
    }
}

impl std::error::Error for SpecDecodeError {}

/// Read the code real `v[index]` as an index into `codes`; anything but
/// an exact code is [`SpecDecodeError::BadCode`].
fn code_from_real<T: Copy>(v: &[f64], index: usize, codes: &[T]) -> Result<T, SpecDecodeError> {
    count_from_real(v[index])
        .and_then(|c| codes.get(c).copied())
        .ok_or(SpecDecodeError::BadCode {
            index,
            bits: v[index].to_bits(),
        })
}

/// Read a count that arrived as a real from outside the program: `None`
/// unless it is finite, integral, non-negative and exactly a `usize`
/// (`as usize` alone saturates ±∞ and anything ≥ 2⁶⁴, turns NaN into 0
/// and drops fractions without a word).
pub(crate) fn count_from_real(x: f64) -> Option<usize> {
    // `usize::MAX as f64` rounds up to 2⁶⁴, so `<` keeps the cast exact
    (x >= 0.0 && x < usize::MAX as f64 && x.fract() == 0.0).then_some(x as usize)
}

/// Complete description of a PLINGER run, broadcast to every worker as
/// the tag-1 message so each worker can rebuild the background and
/// thermal history on its own node (as the Fortran original did).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Cosmological parameters.
    pub cosmo: CosmoParams,
    /// Gauge of the evolution.
    pub gauge: Gauge,
    /// Initial conditions.
    pub ic: InitialConditions,
    /// Accuracy preset.
    pub preset: Preset,
    /// Photon hierarchy override (`None` = automatic).
    pub lmax_g: Option<usize>,
    /// Neutrino hierarchy override.
    pub lmax_nu: Option<usize>,
    /// Massive-neutrino hierarchy size.
    pub lmax_h: usize,
    /// Massive-neutrino momentum bins (`None` = follow the cosmology).
    pub nq: Option<usize>,
    /// End of the integration; `None` = today.
    pub tau_end: Option<f64>,
    /// Full hierarchy or the line-of-sight fast path (real 19 of the
    /// broadcast: 0 or 1).
    pub method: SpectrumMethod,
    /// The wavenumber grid, Mpc⁻¹.
    pub ks: Vec<f64>,
}

impl RunSpec {
    /// A spec with the paper's standard-CDM model and defaults.
    pub fn standard_cdm(ks: Vec<f64>) -> Self {
        Self {
            cosmo: CosmoParams::standard_cdm(),
            gauge: Gauge::Synchronous,
            ic: InitialConditions::Adiabatic,
            preset: Preset::Demo,
            lmax_g: None,
            lmax_nu: None,
            lmax_h: 16,
            nq: None,
            tau_end: None,
            method: SpectrumMethod::FullHierarchy,
            ks,
        }
    }

    /// The per-mode configuration this spec implies.
    pub fn mode_config(&self) -> ModeConfig {
        ModeConfig {
            gauge: self.gauge,
            ic: self.ic,
            preset: self.preset,
            lmax_g: self.lmax_g,
            lmax_nu: self.lmax_nu,
            lmax_h: self.lmax_h,
            nq: self.nq,
            tau_end: self.tau_end,
            record_trajectory: false,
            method: ode::Method::Verner65,
            spectrum_method: self.method,
        }
    }

    /// Encode as the tag-1 broadcast payload.
    pub fn encode(&self) -> Vec<f64> {
        let c = &self.cosmo;
        let mut v = vec![
            // run geometry
            self.ks.len() as f64,
            match self.gauge {
                Gauge::Synchronous => 0.0,
                Gauge::ConformalNewtonian => 1.0,
            },
            match self.ic {
                InitialConditions::Adiabatic => 0.0,
                InitialConditions::CdmIsocurvature => 1.0,
            },
            match self.preset {
                Preset::Draft => 0.0,
                Preset::Demo => 1.0,
                Preset::Production => 2.0,
            },
            self.lmax_g.map(|l| l as f64).unwrap_or(-1.0),
            self.lmax_nu.map(|l| l as f64).unwrap_or(-1.0),
            self.lmax_h as f64,
            self.nq.map(|n| n as f64).unwrap_or(-1.0),
            self.tau_end.unwrap_or(-1.0),
            // cosmology
            c.h,
            c.omega_c,
            c.omega_b,
            c.omega_lambda,
            c.t_cmb_k,
            c.y_helium,
            c.n_nu_massless,
            c.n_nu_massive as f64,
            c.m_nu_ev,
            c.n_s,
            match self.method {
                SpectrumMethod::FullHierarchy => 0.0,
                SpectrumMethod::LineOfSight => 1.0,
            },
        ];
        v.extend_from_slice(&self.ks);
        v
    }

    /// Decode a tag-1 broadcast payload.  A truncated or inconsistent
    /// payload is a [`SpecDecodeError`], not a panic — a worker that
    /// receives garbage must be able to fail the session cleanly, and
    /// `plinger-serve` hands this function what a socket sent it: the
    /// k-count is checked before anything is indexed by it.
    pub fn decode(v: &[f64]) -> Result<Self, SpecDecodeError> {
        if v.len() < SPEC_PREFIX {
            return Err(SpecDecodeError::TooShort { got: v.len() });
        }
        let bad_count = || SpecDecodeError::BadCount {
            bits: v[0].to_bits(),
        };
        let nk = count_from_real(v[0]).ok_or_else(bad_count)?;
        let want = nk.checked_add(SPEC_PREFIX).ok_or_else(bad_count)?;
        if v.len() != want {
            return Err(SpecDecodeError::LengthMismatch {
                nk,
                want,
                got: v.len(),
            });
        }
        Ok(Self {
            gauge: code_from_real(v, 1, &[Gauge::Synchronous, Gauge::ConformalNewtonian])?,
            ic: code_from_real(
                v,
                2,
                &[
                    InitialConditions::Adiabatic,
                    InitialConditions::CdmIsocurvature,
                ],
            )?,
            preset: code_from_real(v, 3, &[Preset::Draft, Preset::Demo, Preset::Production])?,
            method: code_from_real(
                v,
                19,
                &[SpectrumMethod::FullHierarchy, SpectrumMethod::LineOfSight],
            )?,
            lmax_g: (v[4] >= 0.0).then(|| v[4] as usize),
            lmax_nu: (v[5] >= 0.0).then(|| v[5] as usize),
            lmax_h: v[6] as usize,
            nq: (v[7] >= 0.0).then(|| v[7] as usize),
            tau_end: (v[8] >= 0.0).then_some(v[8]),
            cosmo: CosmoParams {
                h: v[9],
                omega_c: v[10],
                omega_b: v[11],
                omega_lambda: v[12],
                t_cmb_k: v[13],
                y_helium: v[14],
                n_nu_massless: v[15],
                n_nu_massive: v[16] as usize,
                m_nu_ev: v[17],
                n_s: v[18],
            },
            ks: v[SPEC_PREFIX..].to_vec(),
        })
    }
}

/// Refuse a cosmology the workers cannot evolve: a parameter out of
/// the range [`CosmoParams::validate`] accepts ([`FarmError::BadParam`],
/// where `Background::new` would panic), or `|Ω_k|` at or past
/// [`boltzmann::FLATNESS_TOLERANCE`] or a NaN budget
/// ([`FarmError::NotFlat`]: the perturbation equations are flat-space
/// only).  Service admission, the farm CLIs, [`crate::run_serial`] and
/// every pooled job check it before any work starts, so a bad cosmology
/// is a typed error, never a worker panic.
pub(crate) fn require_evolvable(cosmo: &CosmoParams) -> Result<(), FarmError> {
    cosmo.validate().map_err(FarmError::BadParam)?;
    let omega_k = cosmo.omega_k();
    // written so that a NaN budget is refused too
    if omega_k.abs() < boltzmann::FLATNESS_TOLERANCE {
        Ok(())
    } else {
        Err(FarmError::NotFlat { omega_k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_the_paper_table() {
        assert_eq!(TAG_INIT, 1);
        assert_eq!(TAG_REQUEST, 2);
        assert_eq!(TAG_ASSIGN, 3);
        assert_eq!(TAG_HEADER, 4);
        assert_eq!(TAG_DATA, 5);
        assert_eq!(TAG_STOP, 6);
        // extensions beyond the paper's table, for session accounting
        // and typed failure reporting
        assert_eq!(TAG_STATS, 7);
        assert_eq!(TAG_FAIL, 8);
        assert_eq!(TAG_HEARTBEAT, 9);
        // resident-worker extensions (10 is retired): job release and
        // cancel for workers that stay parked between k-grids
        assert_eq!(TAG_JOBDONE, 11);
        assert_eq!(TAG_CANCEL, 12);
        // ensemble extension: next-shard table hint
        assert_eq!(TAG_PREFETCH, 13);
    }

    #[test]
    fn job_hash_tracks_every_spec_field() {
        let base = RunSpec::standard_cdm(vec![0.001, 0.01]);
        let h0 = job_hash(&base);
        assert_eq!(job_hash(&base), h0, "hash must be deterministic");

        let mut m = base.clone();
        m.cosmo.omega_b += 1e-12;
        assert_ne!(job_hash(&m), h0, "cosmology must be keyed");

        let mut m = base.clone();
        m.preset = Preset::Draft;
        assert_ne!(job_hash(&m), h0, "accuracy must be keyed");

        let mut m = base.clone();
        m.ks.push(0.1);
        assert_ne!(job_hash(&m), h0, "grid must be keyed");

        let mut m = base.clone();
        m.method = SpectrumMethod::LineOfSight;
        assert_ne!(job_hash(&m), h0, "spectrum method must be keyed");

        // cosmo_hash ignores everything but the cosmology
        let mut m = base.clone();
        m.preset = Preset::Draft;
        m.ks = vec![0.5];
        assert_eq!(cosmo_hash(&m.cosmo), cosmo_hash(&base.cosmo));
    }

    #[test]
    fn method_is_always_the_last_fixed_real() {
        let full = RunSpec::standard_cdm(vec![0.001, 0.01]);
        let mut los = full.clone();
        los.method = SpectrumMethod::LineOfSight;
        for (spec, code) in [(&full, 0.0), (&los, 1.0)] {
            let wire = spec.encode();
            assert_eq!(wire.len(), SPEC_PREFIX + spec.ks.len());
            assert_eq!(wire[19], code);
            assert_eq!(&wire[SPEC_PREFIX..], &spec.ks[..], "the k-grid stays last");
            assert_eq!(RunSpec::decode(&wire).unwrap(), *spec);
        }
    }

    #[test]
    fn code_reals_decode_only_from_their_exact_codes() {
        // gauge, initial conditions, preset, method: index and code count
        let wire = RunSpec::standard_cdm(vec![0.001]).encode();
        for (index, n_codes) in [(1, 2.0), (2, 2.0), (3, 3.0), (19, 2.0)] {
            for bad in [
                0.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -1.0,
                n_codes,
            ] {
                let mut wire = wire.clone();
                wire[index] = bad;
                assert_eq!(
                    RunSpec::decode(&wire).unwrap_err(),
                    SpecDecodeError::BadCode {
                        index,
                        bits: bad.to_bits()
                    },
                    "real {index} = {bad}"
                );
            }
        }
    }

    #[test]
    fn spec_roundtrip() {
        let mut spec = RunSpec::standard_cdm(vec![0.001, 0.01, 0.1]);
        spec.gauge = Gauge::ConformalNewtonian;
        spec.lmax_g = Some(77);
        spec.tau_end = Some(250.0);
        spec.cosmo.n_nu_massive = 1;
        spec.cosmo.m_nu_ev = 4.66;
        spec.method = SpectrumMethod::LineOfSight;
        let wire = spec.encode();
        let back = RunSpec::decode(&wire).unwrap();
        assert_eq!(back.method, SpectrumMethod::LineOfSight);
        assert_eq!(back.ks, spec.ks);
        assert_eq!(back.gauge, spec.gauge);
        assert_eq!(back.lmax_g, Some(77));
        assert_eq!(back.lmax_nu, None);
        assert_eq!(back.tau_end, Some(250.0));
        assert_eq!(back.cosmo.m_nu_ev, 4.66);
        assert_eq!(back.cosmo.n_nu_massive, 1);
        assert_eq!(back.preset, spec.preset);
    }

    #[test]
    fn decode_rejects_truncated() {
        let spec = RunSpec::standard_cdm(vec![0.1, 0.2]);
        let mut wire = spec.encode();
        wire.pop();
        assert_eq!(
            RunSpec::decode(&wire).unwrap_err(),
            SpecDecodeError::LengthMismatch {
                nk: 2,
                want: 22,
                got: 21
            }
        );
        assert_eq!(
            RunSpec::decode(&[0.0; 5]).unwrap_err(),
            SpecDecodeError::TooShort { got: 5 }
        );
    }

    #[test]
    fn decode_rejects_a_mode_count_that_is_not_a_count() {
        // an unchecked count of 2⁶⁴ − 1 would wrap `20 + nk` round to a
        // length a short payload can match
        let wire = RunSpec::standard_cdm(Vec::new()).encode();
        assert_eq!(wire.len(), SPEC_PREFIX);
        for bad in [f64::INFINITY, f64::NAN, -1.0, 2.5, 1.8446744073709552e19] {
            let mut wire = wire.clone();
            wire[0] = bad;
            assert_eq!(
                RunSpec::decode(&wire).unwrap_err(),
                SpecDecodeError::BadCount {
                    bits: bad.to_bits()
                }
            );
        }
        // a count, but more modes than the payload holds
        let mut wire = wire.clone();
        wire[0] = 1.8e19;
        assert_eq!(
            RunSpec::decode(&wire).unwrap_err(),
            SpecDecodeError::LengthMismatch {
                nk: 18_000_000_000_000_000_000,
                want: 18_000_000_000_000_000_020,
                got: 20
            }
        );
    }
}
