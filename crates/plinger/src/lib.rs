//! PLINGER: the parallel LINGER farm.
//!
//! The paper's observation is that every wavenumber of the linearized
//! Einstein–Boltzmann system evolves independently, so the serial main
//! loop over `k` parallelizes as a master/worker farm with trivial
//! communication: a broadcast of run parameters, one integer of work
//! assignment per mode, and the finished mode's moment hierarchy coming
//! back (150 bytes – 80 kB, "roughly in proportion to the CPU time").
//!
//! This crate reproduces that farm over the `msgpass` wrapper routines:
//! the message tags of Appendix A (1–6, plus extensions 7–13 for
//! statistics, failure reports, liveness and resident workers), one
//! master subroutine (`parentsub`, [`master_job_session`]) hardened
//! into a liveness-aware session loop, one worker subroutine (`kidsub`,
//! [`worker_pool_session`]), largest-k-first scheduling ("one simple
//! method by which we minimized this idle time"), and the timing
//! accounting behind the paper's Figure 1 and §5.1 flop rates.
//!
//! Workers live in a [`FarmPool`] (threads over any transport) or a
//! [`TcpFarmPool`] (subprocesses) and serve any number of jobs.  The
//! entry point [`Farm`] is the pool of one job: it starts the workers,
//! runs the master loop once, stops them, and returns a [`FarmReport`]
//! — or a typed [`FarmError`] naming exactly what failed, with no
//! panics on the communication path.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;
pub mod ensemble;
pub mod error;
pub mod farm;
pub mod master;
pub mod output_files;
pub mod pool;
pub mod protocol;
pub mod recovery;
pub mod report;
pub mod schedule;
pub mod service;
pub mod simulate;
pub mod tables;
pub mod worker;

pub use ensemble::{
    ensemble_hash, run_ensemble, EnsembleDecodeError, EnsembleOptions, EnsembleReport,
    EnsembleSpec, ShardResult, ShardRunner,
};
pub use error::{CancelReason, FarmError};
pub use farm::{
    parse_worker_fault, run_serial, run_tcp_processes, run_tcp_worker, Farm, FarmReport, FaultPlan,
    TcpFarmOptions,
};
pub use master::{master_job_session, JobControl, MasterConfig, MasterLedger};
pub use pool::{FarmPool, PoolOptions, PoolShutdown, TcpFarmPool};
pub use protocol::{
    cosmo_hash, hash_reals, job_hash, RunSpec, SpecDecodeError, TAG_ASSIGN, TAG_CANCEL, TAG_DATA,
    TAG_FAIL, TAG_HEADER, TAG_HEARTBEAT, TAG_INIT, TAG_JOBDONE, TAG_PREFETCH, TAG_REQUEST,
    TAG_STATS, TAG_STOP,
};
pub use recovery::{FailedMode, RecoveryLog, RecoveryPolicy, WorkerEvent};
pub use report::{build_run_report, render_pretty, FarmTelemetry};
pub use schedule::{SchedulePolicy, WorkQueue};
pub use service::{
    decode_spectrum_body, encode_spectrum_body, key_from_reals, key_to_reals, EnsembleRequest,
    EnsembleSummary, ErrorCode, ResultCache, ServiceError, ServiceMetrics, ServiceReply,
    ShardReply, SpectrumRequest, SpectrumService, TAG_REQ_ENSEMBLE, TAG_REQ_METRICS,
    TAG_REQ_SPECTRUM, TAG_RESP_ENSEMBLE, TAG_RESP_ERROR, TAG_RESP_METRICS, TAG_RESP_SHARD,
    TAG_RESP_SPECTRUM,
};
pub use simulate::{simulate_farm, synthetic_costs, SimParams, SimResult};
pub use tables::{PhysicsTables, TableCache};
pub use worker::{worker_pool_session, WorkerFault, WorkerStats, WorkerTotals};
