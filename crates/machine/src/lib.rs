//! # hpcsim-machine
//!
//! Machine models for the five systems compared in *Early Evaluation of IBM
//! BlueGene/P* (SC08): BlueGene/L, BlueGene/P, Cray XT3, Cray XT4
//! (dual-core), and Cray XT4 (quad-core). The crate owns:
//!
//! * [`arch`] — the static description of a machine: core, cache hierarchy,
//!   memory system, NIC/network endpoints, packaging and power parameters.
//!   These are the rows of the paper's **Table 1**.
//! * [`registry`] — constructors for the five studied machines with the
//!   paper's published parameters, plus the ORNL ("Eugene", 2 racks) and
//!   ANL ("Intrepid", 40 racks) installation descriptions.
//! * [`exec`] — execution modes: SMP / DUAL / VN on BlueGene, SN / VN on
//!   the XT, and the rules for how node resources (cores, memory, L3,
//!   memory bandwidth, NIC) are shared between MPI tasks in each mode.
//! * [`cost`] — symbolic workload descriptors ([`Workload`]) for the
//!   kernels and application phases in the study, resolved to concrete
//!   flop/DRAM-traffic costs against a given cache share.
//! * [`node_model`] — the roofline-with-cache-traffic model that converts
//!   a resolved cost into execution time on a given machine, mode and
//!   thread count. This is what makes DGEMM "compute-bound, XT wins on
//!   clock" and STREAM "bandwidth-bound, BG/P competitive" fall out of the
//!   same formula, as the paper observes.
//! * [`perturb`] — seeded multiplicative perturbations of the machine
//!   parameter groups (link bandwidth, hop latency, compute noise,
//!   collectives) for Monte-Carlo sensitivity sweeps; deterministic
//!   per-sample sub-RNGs from the engine's splittable RNG.

pub mod arch;
pub mod cost;
pub mod exec;
pub mod node_model;
pub mod perturb;
pub mod registry;

pub use arch::{
    CacheCoherence, CoreArch, L2Kind, MachineId, MachineSpec, MemorySpec, NicSpec, Packaging,
    PowerSpec,
};
pub use cost::{CostDesc, Workload};
pub use exec::ExecMode;
pub use node_model::NodeModel;
pub use perturb::{ParamGroups, PerturbSpec, Perturbation, PerturbationSampler};
pub use registry::{all_machines, machine, Installation};
