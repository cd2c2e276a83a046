//! # hpcsim-apps
//!
//! Proxy applications for §III of the paper — the science codes whose
//! communication/computation structure the evaluation dissects:
//!
//! * [`pop`] — the Parallel Ocean Program 0.1° benchmark (Fig 4):
//!   a compute-heavy baroclinic phase with nearest-neighbour halos and a
//!   latency-bound barotropic conjugate-gradient solver with a global
//!   reduction per iteration (standard PCG or the Chronopoulos–Gear
//!   single-reduction variant), plus the paper's timing-barrier
//!   methodology for separating load imbalance from solver time.
//! * [`cam`] — the Community Atmosphere Model (Fig 5): spectral Eulerian
//!   (T42/T85) and finite-volume dycores, pure-MPI vs hybrid
//!   MPI/OpenMP, with the dycore's parallelism limit and the physics'
//!   thread scaling.
//! * [`s3d`] — the DNS combustion solver (Fig 6): weak-scaled 50³
//!   points/rank, six-stage Runge–Kutta, ghost exchanges and CO-H₂
//!   chemistry, reported as cost per grid point per step.
//! * [`gyro`] — the gyrokinetic tokamak solver (Fig 7): B1-std and
//!   B3-gtc strong scaling (Alltoall-transpose-dominated) and the
//!   weak-scaled modified B3-gtc, with the DUAL-mode memory constraint.
//! * [`md`] — molecular dynamics on the 290,220-atom RuBisCO system
//!   (Fig 8): a LAMMPS-like spatial-decomposition code and a
//!   PMEMD-like PME code whose scaling dies in Allreduce latency and
//!   FFT exchanges.
//!
//! Every proxy has one shape: a machine-free `*_traces` recorder, a
//! `*Result::of` reducer to the paper's own metric (simulated years per
//! day, cost per grid point, …), and a `*_run` entry that records,
//! prices one point through [`hpcsim_mpi::sweep_points`] and reduces.

pub mod cam;
pub mod gyro;
pub mod md;
pub mod pop;
pub mod s3d;

pub use cam::{cam_run, cam_sim_config, cam_traces, CamConfig, CamResult, Dycore};
pub use gyro::{gyro_run, gyro_sim_config, gyro_traces, GyroConfig, GyroProblem, GyroResult};
pub use md::{md_run, md_sim_config, md_traces, MdCode, MdConfig, MdResult};
pub use pop::{pop_run, pop_sim_config, pop_traces, PopConfig, PopResult};
pub use s3d::{s3d_run, s3d_traces, S3dConfig, S3dResult};

use hpcsim_mpi::{sweep_points, Op, SimConfig, SimResult};

/// Price one point of a recorded proxy on the process-global sweep
/// engine. Proxy traces are well-formed and fault-free, so a replay
/// error is a bug: panic with the engine's diagnosis.
fn price_one(point: SimConfig, traces: &[Vec<Op>]) -> SimResult {
    sweep_points(None, &[point], traces, &[], None, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .remove(0)
}
