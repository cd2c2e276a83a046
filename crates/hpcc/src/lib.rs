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
//!
//! Every MPI-parallel test has one shape: a machine-free `*_traces`
//! recorder and a `*Result::of` reducer. Pricing lives in one place:
//! `hpcsim_cache::ProgramSpec` names each test at a configuration and
//! the scenario cache records it once and prices it on every machine
//! through [`hpcsim_mpi::sweep_points`]. HALO keeps two direct entries
//! for the harness guards: [`halo_run`] through that same function, and
//! the fault-armed, traced [`halo_try_run`].

pub mod comm;
pub mod epkernels;
pub mod fft;
pub mod halo;
pub mod hpl;
pub mod imb;
pub mod ptrans;
pub mod ra;

pub use comm::{pingpong_of, pingpong_traces, random_ring_traces, RingResult, PINGPONG_REPS};
pub use epkernels::{dgemm_rate, stream_triad_rate, EpMode};
pub use fft::{fft_problem_size, fft_traces, FftResult};
pub use halo::{
    halo_eval_traces, halo_record_exchange, halo_recording, halo_run, halo_traces, halo_try_run,
    HaloConfig, HaloProtocol,
};
pub use hpl::{hpl_problem_size, hpl_traces, HplConfig, HplResult};
pub use imb::{imb_allreduce_traces, imb_bcast_traces, ImbPoint};
pub use ptrans::{ptrans_traces, PtransResult};
pub use ra::{ra_traces, RaResult};
