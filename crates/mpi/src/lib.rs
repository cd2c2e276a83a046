//! # hpcsim-mpi
//!
//! A simulated MPI. Rank programs are ordinary Rust functions that run
//! once per rank against an [`Mpi`] handle and *record a trace* of
//! operations (compute blocks, sends/receives, collectives). The
//! [`sim::TraceSim`] engine then replays all traces against the machine,
//! topology and network models, producing per-rank virtual-time clocks.
//!
//! Trace-driven simulation is sound here because none of the paper's
//! benchmarks or applications branch on message *contents* — iteration
//! counts, neighbours and payload sizes are all functions of rank and
//! configuration. (This is the same soundness argument LogGOPSim makes.)
//!
//! What the replay models:
//! * **eager vs rendezvous** point-to-point protocols (threshold from the
//!   machine spec), including the unexpected-message copy penalty when a
//!   message arrives before its receive is posted — this is what makes
//!   HALO's protocol variants differ (Fig 2a/b);
//! * **link and endpoint contention** via the flow tracker — this is what
//!   makes process mappings differ for bandwidth-bound halos (Fig 2c/d);
//! * **collectives** via the closed-form models (hardware tree on
//!   BlueGene, software algorithms on the XT) with arrival-skew
//!   semantics: a collective completes `duration` after its *last*
//!   member arrives, so load imbalance shows up exactly as the paper's
//!   POP barrier experiment shows it;
//! * **execution modes** — VN/DUAL/SMP placement of ranks onto nodes and
//!   the corresponding resource sharing, via [`layout::RankLayout`].
//!
//! For parameter sweeps that replay one trace under many (machine,
//! mapping, mode) points, [`dag::TraceDag`] compiles the trace once into
//! a task DAG and evaluates each point in a single pass — exact against
//! replay on contention-flat machines. [`dag::sweep_points`] picks the
//! engine per point: the DAG where it is exact, replay elsewhere (see
//! the [`dag`] module docs).

pub mod dag;
pub mod layout;
pub mod ops;
pub mod program;
pub mod result;
pub mod sim;
pub mod traces;
pub mod wire;

pub use dag::{perturbed_batches, set_sweep_engine, sweep_points, DagStats, SweepEngine, TraceDag};
pub use layout::RankLayout;
pub use ops::{CommId, Op, Req};
pub use program::{FnProgram, Mpi, Program};
pub use result::{SimError, SimResult};
pub use sim::{SimConfig, TraceSim};
pub use traces::{TraceBuilder, Traces, PEER_LIMIT};
pub use wire::{parse_traces, write_traces};
