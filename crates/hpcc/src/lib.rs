//! # hpcsim-hpcc
//!
//! The paper's micro-benchmarks and kernels, written as simulated-MPI
//! programs and run against the machine models:
//!
//! * [`hpl`] — High Performance Linpack on a P×Q process grid (HPCC HPL
//!   for Fig 1a, and the §II.C TOP500 configuration with power).
//! * [`epkernels`] — the single-process and embarrassingly-parallel HPCC
//!   tests: DGEMM, STREAM (Table 2's compute rows).
//! * [`fft`] — the MPI-parallel 1-D FFT (Fig 1b): local FFTs bracketed by
//!   Alltoall transposes.
//! * [`ptrans`] — parallel transpose (Fig 1c): pairwise block exchange
//!   across the grid diagonal, a bisection-bandwidth stress test.
//! * [`ra`] — MPI RandomAccess (Fig 1d): bucketed update routing.
//! * [`comm`] — latency/bandwidth probes: ping-pong and the random-ring
//!   tests (Table 2's communication rows).
//! * [`halo`] — the Wallcraft HALO nearest-neighbour exchange with
//!   selectable protocol, process mapping and grid shape (Fig 2).
//! * [`imb`] — the Intel MPI Benchmark Allreduce and Bcast sweeps
//!   (Fig 3), including the single- vs double-precision Allreduce split.

pub mod comm;
pub mod epkernels;
pub mod fft;
pub mod halo;
pub mod hpl;
pub mod imb;
pub mod ptrans;
pub mod ra;

pub use comm::{pingpong, random_ring, RingResult};
pub use epkernels::{dgemm_rate, stream_triad_rate, EpMode};
pub use fft::{fft_run, FftResult};
pub use halo::{
    halo_eval_traces, halo_phase_pressure, halo_record_exchange, halo_run, halo_run_traces_with,
    halo_traces, halo_try_run, HaloConfig, HaloProtocol,
};
pub use hpl::{hpl_problem_size, hpl_run, top500_run, HplConfig, HplResult, Top500Result};
pub use imb::{imb_allreduce, imb_allreduce_probe, imb_bcast, imb_bcast_probe, ImbPoint};
pub use ptrans::{ptrans_run, PtransResult};
pub use ra::{ra_run, ra_run_stock, RaResult};
