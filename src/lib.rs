//! # bgp-eval
//!
//! A from-scratch Rust reproduction of **"Early Evaluation of IBM
//! BlueGene/P"** (Alam et al., SC'08). Since the paper is a measurement
//! study of hardware we do not have, every measured system is replaced by
//! a simulator built in this workspace — machine models, a 3-D torus and
//! collective-tree network, a trace-replay MPI, benchmark programs
//! (HPCC, HALO, IMB, TOP500 HPL), application proxies (POP, CAM, S3D,
//! GYRO, LAMMPS/PMEMD), and a calibrated power model.
//!
//! This umbrella crate re-exports the workspace so downstream users can
//! depend on one crate:
//!
//! ```
//! use bgp_eval::machine::registry::bluegene_p;
//! use bgp_eval::machine::{ExecMode, NodeModel, Workload};
//!
//! let model = NodeModel::new(bluegene_p());
//! let gf = model.sustained_flops(&Workload::Dgemm { n: 1000 }, ExecMode::Vn, 1) / 1e9;
//! assert!(gf > 2.5 && gf < 3.4); // a PPC450 core does ~3 GF/s of DGEMM
//! ```
//!
//! Regenerate the paper's artifacts with the `repro` binary:
//!
//! ```text
//! cargo run --release -p hpcsim-bench --bin repro -- all
//! ```
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

/// Application proxies: POP, CAM, S3D, GYRO, MD (Figures 4–8).
pub use hpcsim_apps as apps;
/// Content-addressed scenario cache: canonical specs, two-tier
/// memoization, the `evaluate` front door.
pub use hpcsim_cache as cache;
/// Evaluation framework: experiments, runner, reports.
pub use hpcsim_core as core;
/// Discrete-event simulation primitives.
pub use hpcsim_engine as engine;
/// Deterministic fault plans: link outages, OS noise, message loss.
pub use hpcsim_faults as faults;
/// Coverage-guided adversarial scenario fuzzing: generator, mutator,
/// differential oracle, minimizer, deterministic corpus.
pub use hpcsim_fuzz as fuzz;
/// HPCC / HALO / IMB / TOP500 benchmark programs (Tables 2, Figures 1–3).
pub use hpcsim_hpcc as hpcc;
/// I/O-node forwarding and parallel-filesystem model.
pub use hpcsim_io as io;
/// Real numeric kernels (DGEMM, FFT, LU, STREAM, PTRANS, RandomAccess).
pub use hpcsim_kernels as kernels;
/// Machine models (Table 1) and the node cost model.
pub use hpcsim_machine as machine;
/// Simulated MPI: rank programs and trace replay.
pub use hpcsim_mpi as mpi;
/// Network models: torus p2p with contention, collectives.
pub use hpcsim_net as net;
/// Harness observability: process-wide metrics registry, leveled
/// logging, Prometheus / run-report exporters.
pub use hpcsim_obs as obs;
/// Power and energy model (Table 3).
pub use hpcsim_power as power;
/// Observability: simulated-time tracing, metrics, contention heatmaps.
pub use hpcsim_probe as probe;
/// Topologies: torus, tree, mappings, grids.
pub use hpcsim_topo as topo;
