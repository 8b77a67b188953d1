//! # plinger-repro
//!
//! A Rust reproduction of Bode & Bertschinger, *Parallel Linear General
//! Relativity and CMB Anisotropies* (Supercomputing '95): the
//! LINGER/PLINGER linearized Einstein–Boltzmann solver and its
//! master/worker parallelization over wavenumbers.
//!
//! This facade re-exports the public API of every crate in the
//! workspace.  The typical flow:
//!
//! ```no_run
//! use plinger_repro::prelude::*;
//!
//! // 1. pick a cosmology and build the wavenumber grid
//! let spec = RunSpec::standard_cdm(vec![1e-3, 5e-3, 1e-2]);
//!
//! // 2. run the farm (4 workers, largest-k-first as in the paper) —
//! //    a `FarmPool` started, given this one job and shut down; swap
//! //    ChannelWorld for TcpWorld to change the message-passing
//! //    substrate without touching the farm code
//! let report = Farm::<ChannelWorld>::new(4)
//!     .run(&spec, SchedulePolicy::LargestFirst)
//!     .expect("farm session");
//!
//! // 3. assemble observables
//! let prim = PrimordialSpectrum::unit(spec.cosmo.n_s);
//! let cl = angular_power_spectrum(&report.outputs, &prim, 8);
//! let (cl, _amp) = cobe_normalize(&cl, spec.cosmo.t_cmb_k, Q_RMS_PS_UK);
//! println!("l(l+1)C_l/2π at l = 5: {}", cl.band_power(5));
//! ```

pub use background;
pub use boltzmann;
pub use icgen;
pub use msgpass;
pub use numutil;
pub use ode;
pub use plinger;
pub use recomb;
pub use skymap;
pub use special;
pub use spectra;

/// Convenient one-stop imports.
pub mod prelude {
    pub use background::{Background, CosmoParams, Species};
    pub use boltzmann::{evolve_mode, Gauge, InitialConditions, ModeConfig, ModeOutput, Preset};
    pub use msgpass::channel::ChannelWorld;
    pub use msgpass::tcp::TcpWorld;
    pub use msgpass::{CommError, Rank, Tag, Transport, World};
    pub use plinger::{
        cosmo_hash, job_hash, run_serial, run_tcp_processes, Farm, FarmError, FarmPool, FarmReport,
        FaultPlan, PoolOptions, RecoveryLog, ResultCache, RunSpec, SchedulePolicy, SpectrumService,
    };
    pub use recomb::ThermoHistory;
    pub use skymap::{AlmRealization, PotentialField, SkyMap};
    pub use spectra::{
        angular_power_spectrum, cl_k_grid, cobe_normalize, correlation_function, map_variance,
        matter_k_grid, matter_power_spectrum, sigma_r, transfer_function, ClSpectrum, MatterPower,
        PrimordialSpectrum, Q_RMS_PS_UK,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let p = CosmoParams::standard_cdm();
        assert_eq!(p.h, 0.5);
        let _ = SchedulePolicy::LargestFirst;
    }
}
