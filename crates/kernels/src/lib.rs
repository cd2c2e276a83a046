//! # hpcsim-kernels
//!
//! Real, runnable implementations of the computational kernels behind the
//! paper's benchmarks — not models, actual numerics:
//!
//! * [`mod@dgemm`] — blocked, Rayon-parallel dense matrix multiply.
//! * [`stream`] — the four STREAM kernels (copy/scale/add/triad).
//! * [`fft`] — iterative radix-2 complex FFT with inverse.
//! * [`lu`] — blocked LU factorization with partial pivoting, solve, and
//!   the HPL-style scaled residual check (this is the mathematical core
//!   of both HPCC HPL and the TOP500 run in §II.C).
//! * [`ptrans`] — blocked parallel matrix transpose (HPCC PTRANS's local
//!   kernel).
//! * [`randomaccess`] — the HPCC RandomAccess (GUPS) LFSR update stream
//!   with XOR self-verification.
//!
//! These serve three purposes in the reproduction: they validate that the
//! benchmark *specifications* we simulate are implemented faithfully (the
//! property tests here are the ground truth for the simulator's workload
//! descriptors), they give the Criterion benches something real to
//! measure, and they make the crate useful standalone.

pub mod dgemm;
pub mod fft;
pub mod lu;
pub mod ptrans;
pub mod randomaccess;
pub mod stream;

pub use dgemm::{dgemm, dgemm_naive};
pub use fft::{fft_forward, fft_inverse, Complex};
pub use lu::{lu_factor, lu_solve, residual_check, LuFactors};
pub use ptrans::{transpose, transpose_add};
pub use randomaccess::{gups_run, starts, RandomAccessResult, POLY};
pub use stream::{stream_add, stream_copy, stream_scale, stream_triad};
