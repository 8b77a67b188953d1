//! Numerical utilities shared by the LINGER/PLINGER reproduction.
//!
//! This crate provides the low-level numerics the physics crates are built
//! on: physical constants in the unit system of the code (comoving Mpc,
//! c = 1), linear and logarithmic grids, cubic-spline and linear
//! interpolation, Gauss–Legendre and Gauss–Laguerre quadrature, Romberg
//! integration, bracketing root finders, and the FFT behind the initial
//! conditions.  Everything here is deterministic, allocation-conscious,
//! and unit- and property-tested, because the Boltzmann solver leans on
//! these primitives in its innermost loops.

pub mod constants;
pub mod fft;
pub mod grid;
pub mod interp;
pub mod quad;
pub mod roots;

pub use interp::{CubicSpline, LinearInterp};
pub use quad::{gauss_laguerre, gauss_legendre, romberg};
pub use roots::{bisect, brent};
