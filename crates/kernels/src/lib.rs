//! Signal-processing benchmark kernels for word-length optimization.
//!
//! These are the four fixed-point benchmarks of the paper's experimental
//! study (Section IV):
//!
//! | kernel                | Nv | paper's quality metric |
//! |-----------------------|----|------------------------|
//! | [`fir::FirBenchmark`]  (64-tap)      | 2  | output noise power |
//! | [`iir::IirBenchmark`]  (8th order)   | 5  | output noise power |
//! | [`fft::FftBenchmark`]  (64 points)   | 10 | output noise power |
//! | [`hevc::HevcMcBenchmark`] (8×8 MC)   | 23 | output noise power |
//!
//! Each kernel owns a deterministic input data set (the paper's "exhaustive
//! input data set `I`") and exposes [`WordLengthBenchmark::noise_power`],
//! which runs the double-precision reference and the word-length-configured
//! fixed-point implementation side by side and returns the mean error power
//! at the output — the quantity `P` whose opposite is the accuracy metric
//! `λ` handed to the optimizer and to kriging.
//!
//! The fixed-point paths instrument every internal variable named in the
//! benchmark's word-length vector with a [`krigeval_fixedpoint::Quantizer`];
//! this emulates a C++ fixed-point library (the paper's refs \[12\], \[13\]) at
//! `f64` simulation speed.
//!
//! # Examples
//!
//! ```
//! use krigeval_kernels::{fir::FirBenchmark, WordLengthBenchmark};
//!
//! # fn main() -> Result<(), krigeval_kernels::KernelError> {
//! let fir = FirBenchmark::with_defaults();
//! assert_eq!(fir.num_variables(), 2);
//! let coarse = fir.noise_power(&[6, 6])?;
//! let fine = fir.noise_power(&[14, 14])?;
//! assert!(fine.db() < coarse.db()); // more bits, less noise
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels (substitution loops, butterfly passes, separable
// filters) read several arrays at one index; explicit index loops are the
// clearest form for them.
#![allow(clippy::needless_range_loop)]

mod benchmark;
pub mod dct;
mod error;
pub mod fft;
pub mod filter_design;
pub mod fir;
pub mod hevc;
pub mod iir;
pub mod lms;
mod memo;
pub mod signal;

pub use benchmark::WordLengthBenchmark;
pub use error::KernelError;
