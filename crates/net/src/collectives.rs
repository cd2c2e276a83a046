//! Closed-form collective-operation models.
//!
//! Two regimes, exactly as in the paper's Figure 3:
//!
//! * **BlueGene hardware tree** — Barrier rides the global-interrupt
//!   network (microsecond-flat at any scale); Bcast/Reduce/Allreduce
//!   stream through the dedicated collective tree at near-constant
//!   latency. The tree ALU operates on integers; *double-precision*
//!   reductions use the well-known two-pass integer scheme and stay on
//!   the tree, while *single-precision* reductions fall back to a
//!   software algorithm on the torus — reproducing the paper's finding of
//!   "a substantial performance benefit to using double precision over
//!   single precision on the BG/P but not the Cray XT".
//! * **Software algorithms** — binomial trees for short vectors,
//!   Rabenseifner recursive-halving/doubling for long reductions,
//!   scatter+allgather broadcast, and pairwise-exchange Alltoall bounded
//!   by both endpoint injection and torus bisection. This is all the Cray
//!   XT has, and what BG/P uses for operations the tree cannot offload.

use hpcsim_engine::SimTime;
use hpcsim_machine::MachineSpec;
use hpcsim_topo::{alloc_torus_dims, CollectiveTree, Torus3D};
use serde::{Deserialize, Serialize};

/// Element type of a reduction — selects the BG/P tree fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit float: software path on BlueGene (tree ALU is integer-only
    /// and the two-pass trick needs the double format).
    F32,
    /// 64-bit float: tree-offloadable on BlueGene.
    F64,
    /// Integers: natively supported by the tree ALU.
    Int,
}

impl DType {
    /// Every element type.
    pub const ALL: [DType; 3] = [DType::F32, DType::F64, DType::Int];

    /// The one text spelling of the element type, shared by every text
    /// format that writes one (trace op lines, scenario specs).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::Int => "int",
        }
    }

    /// Parse a [`DType::name`] spelling.
    pub fn parse(s: &str) -> Option<DType> {
        DType::ALL.into_iter().find(|d| d.name() == s)
    }
}

/// A collective operation over a communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveOp {
    /// Synchronization only.
    Barrier,
    /// One-to-all broadcast of `bytes`.
    Bcast {
        /// Payload size.
        bytes: u64,
    },
    /// All-to-one reduction of `bytes`.
    Reduce {
        /// Vector size in bytes.
        bytes: u64,
        /// Element type.
        dtype: DType,
    },
    /// Reduction + broadcast of `bytes`.
    Allreduce {
        /// Vector size in bytes.
        bytes: u64,
        /// Element type.
        dtype: DType,
    },
    /// Each rank contributes `bytes_per_rank`; all receive everything.
    Allgather {
        /// Contribution per rank.
        bytes_per_rank: u64,
    },
    /// Each rank sends `bytes_per_pair` to every other rank.
    Alltoall {
        /// Per-destination payload.
        bytes_per_pair: u64,
    },
}

/// Collective timing model for one machine + job size.
#[derive(Debug, Clone)]
pub struct CollectiveModel {
    ranks: usize,
    /// Endpoint software overhead for one message (send + recv side).
    o2: SimTime,
    /// Mean torus path latency between job nodes.
    path_latency: SimTime,
    /// Point-to-point effective bandwidth (link vs injection bound).
    p2p_bw: f64,
    /// Aggregate one-direction bisection bandwidth of the job partition.
    bisection_bw: f64,
    /// One-direction injection bandwidth of a node.
    inj_bw: f64,
    /// Per-core streaming bandwidth (reduction arithmetic bound).
    core_bw: f64,
    /// Hardware tree, if the machine has one.
    tree: Option<TreeParams>,
}

#[derive(Debug, Clone)]
struct TreeParams {
    depth: usize,
    /// Software cost to enter/exit the tree hardware.
    overhead: SimTime,
    /// Per-tree-hop forwarding latency.
    per_hop: SimTime,
    /// Streaming payload rate for one-way operations (bcast/reduce).
    stream_bw: f64,
    /// Streaming rate for allreduce (up+down pipelined, slightly lower).
    allreduce_bw: f64,
    /// Barrier on the global-interrupt network.
    barrier_base: SimTime,
    barrier_per_level: SimTime,
}

impl CollectiveModel {
    /// Model for `ranks` MPI tasks at `tasks_per_node` on `machine`,
    /// assuming a compact partition.
    pub fn new(machine: &MachineSpec, ranks: usize, tasks_per_node: usize) -> Self {
        Self::with_hop_scale(machine, ranks, tasks_per_node, 1.0)
    }

    /// As [`CollectiveModel::new`], with mean path lengths scaled by
    /// `hop_scale` (> 1 models fragmented placement on the XT).
    pub fn with_hop_scale(
        machine: &MachineSpec,
        ranks: usize,
        tasks_per_node: usize,
        hop_scale: f64,
    ) -> Self {
        let ranks = ranks.max(1);
        let tpn = tasks_per_node.max(1);
        let nodes = ranks.div_ceil(tpn).max(1);
        let torus = Torus3D::new(alloc_torus_dims(nodes));
        let mean_hops = torus.mean_hops() * hop_scale;
        let path_latency = machine.nic.per_hop.scale(mean_hops);
        let p2p_bw = machine.nic.torus_link_bw.min(machine.nic.injection_bw / 2.0);
        let bisection_bw = torus.bisection_links() as f64 * machine.nic.torus_link_bw;
        let tree = machine.nic.tree_bw.map(|bw| {
            let t = CollectiveTree::bluegene(nodes);
            TreeParams {
                depth: t.depth(),
                overhead: SimTime::from_us_f64(1.8),
                per_hop: SimTime::from_ns(250),
                stream_bw: bw,
                allreduce_bw: bw * 0.7,
                barrier_base: SimTime::from_ns(700),
                barrier_per_level: SimTime::from_ns(25),
            }
        });
        CollectiveModel {
            ranks,
            o2: machine.nic.o_send + machine.nic.o_recv,
            path_latency,
            p2p_bw,
            bisection_bw,
            inj_bw: machine.nic.injection_bw / 2.0,
            core_bw: machine.core.mem_bw_core,
            tree,
        }
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn stages(&self) -> u64 {
        (self.ranks.max(1) as f64).log2().ceil() as u64
    }

    /// Software binomial/Rabenseifner stage latency.
    fn stage_latency(&self) -> SimTime {
        self.o2 + self.path_latency
    }

    /// Predicted duration of `op`.
    pub fn time(&self, op: CollectiveOp) -> SimTime {
        if self.ranks <= 1 {
            return SimTime::from_ns(100);
        }
        match op {
            CollectiveOp::Barrier => self.barrier(),
            CollectiveOp::Bcast { bytes } => self.bcast(bytes),
            CollectiveOp::Reduce { bytes, dtype } => self.reduce(bytes, dtype, false),
            CollectiveOp::Allreduce { bytes, dtype } => self.reduce(bytes, dtype, true),
            CollectiveOp::Allgather { bytes_per_rank } => self.allgather(bytes_per_rank),
            CollectiveOp::Alltoall { bytes_per_pair } => self.alltoall(bytes_per_pair),
        }
    }

    fn barrier(&self) -> SimTime {
        if let Some(t) = &self.tree {
            // global interrupt network: flat microsecond-scale
            t.barrier_base + t.barrier_per_level * t.depth as u64
        } else {
            self.stage_latency() * self.stages()
        }
    }

    fn bcast(&self, bytes: u64) -> SimTime {
        if let Some(t) = &self.tree {
            t.overhead + t.per_hop * t.depth as u64 + SimTime::from_secs(bytes as f64 / t.stream_bw)
        } else {
            self.software_bcast(bytes)
        }
    }

    fn software_bcast(&self, bytes: u64) -> SimTime {
        let stages = self.stages();
        let binomial =
            (self.stage_latency() + SimTime::from_secs(bytes as f64 / self.p2p_bw)) * stages;
        let p = self.ranks as f64;
        let scatter_allgather = self.stage_latency() * (2 * stages)
            + SimTime::from_secs(2.0 * bytes as f64 * (p - 1.0) / p / self.p2p_bw);
        binomial.min(scatter_allgather)
    }

    fn reduce(&self, bytes: u64, dtype: DType, all: bool) -> SimTime {
        if let Some(t) = &self.tree {
            if matches!(dtype, DType::F64 | DType::Int) {
                let hops = if all { 2 * t.depth } else { t.depth };
                let bw = if all { t.allreduce_bw } else { t.stream_bw };
                return t.overhead
                    + t.per_hop * hops as u64
                    + SimTime::from_secs(bytes as f64 / bw);
            }
            // single precision: software on the torus
        }
        self.software_reduce(bytes, all)
    }

    fn software_reduce(&self, bytes: u64, all: bool) -> SimTime {
        let stages = self.stages();
        let p = self.ranks as f64;
        let lat_stages = if all { 2 * stages } else { stages };
        // Rabenseifner: recursive halving reduce-scatter + doubling
        // allgather; each moves (p-1)/p of the vector.
        let vol_factor = if all { 2.0 } else { 1.0 };
        let wire = vol_factor * bytes as f64 * (p - 1.0) / p / self.p2p_bw;
        // local reduction arithmetic is memory-streaming bound
        let arith = 2.0 * bytes as f64 / self.core_bw;
        self.stage_latency() * lat_stages + SimTime::from_secs(wire + arith)
    }

    fn allgather(&self, bytes_per_rank: u64) -> SimTime {
        let stages = self.stages();
        let p = self.ranks as f64;
        let total = bytes_per_rank as f64 * p;
        self.stage_latency() * stages + SimTime::from_secs(total * (p - 1.0) / p / self.p2p_bw)
    }

    fn alltoall(&self, bytes_per_pair: u64) -> SimTime {
        let p = self.ranks as f64;
        let bpp = bytes_per_pair as f64;
        // endpoint bound: every rank injects (p-1)·bpp
        let endpoint = (p - 1.0) * bpp / self.inj_bw;
        // bisection bound: p²/4 · bpp crosses the cut each way
        let bisection = p * p / 4.0 * bpp / self.bisection_bw;
        // pairwise-exchange message overheads, pipelined 4-deep
        let overhead = self.stage_latency().scale((p - 1.0) / 4.0);
        overhead + SimTime::from_secs(endpoint.max(bisection))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    fn bgp(ranks: usize) -> CollectiveModel {
        CollectiveModel::new(&bluegene_p(), ranks, 4)
    }
    fn qc(ranks: usize) -> CollectiveModel {
        CollectiveModel::new(&xt4_qc(), ranks, 4)
    }

    #[test]
    fn dtype_names_round_trip() {
        for d in DType::ALL {
            assert_eq!(DType::parse(d.name()), Some(d));
        }
        assert_eq!(DType::parse("f16"), None);
    }

    /// Fig 3(c): BG/P Bcast beats the XT at ALL message sizes.
    #[test]
    fn bcast_bgp_wins_at_all_sizes() {
        for bytes in [8u64, 512, 32 * 1024, 1 << 20, 4 << 20] {
            let b = bgp(8192).time(CollectiveOp::Bcast { bytes });
            let x = qc(8192).time(CollectiveOp::Bcast { bytes });
            assert!(b < x, "bytes={bytes}: BG/P {b} vs XT {x}");
        }
    }

    /// Fig 3(d): BG/P Bcast latency is nearly flat in process count.
    #[test]
    fn bcast_bgp_scales_flat() {
        let bytes = 32 * 1024;
        let t128 = bgp(128).time(CollectiveOp::Bcast { bytes });
        let t16k = bgp(16384).time(CollectiveOp::Bcast { bytes });
        assert!(
            t16k.as_secs() < t128.as_secs() * 1.6,
            "128p {t128} vs 16384p {t16k} must grow < 60%"
        );
        // while the XT's grows substantially
        let x128 = qc(128).time(CollectiveOp::Bcast { bytes });
        let x16k = qc(16384).time(CollectiveOp::Bcast { bytes });
        assert!(x16k.as_secs() > x128.as_secs() * 1.5);
    }

    /// §II.B.2: double-precision Allreduce is much faster than single on
    /// BG/P (tree offload), but NOT on the XT.
    #[test]
    fn allreduce_precision_gap_only_on_bgp() {
        let bytes = 32 * 1024;
        let b_dp = bgp(8192).time(CollectiveOp::Allreduce { bytes, dtype: DType::F64 });
        let b_sp = bgp(8192).time(CollectiveOp::Allreduce { bytes, dtype: DType::F32 });
        assert!(b_sp.as_secs() > 2.0 * b_dp.as_secs(), "BG/P SP {b_sp} must be >2x DP {b_dp}");
        let x_dp = qc(8192).time(CollectiveOp::Allreduce { bytes, dtype: DType::F64 });
        let x_sp = qc(8192).time(CollectiveOp::Allreduce { bytes, dtype: DType::F32 });
        let ratio = x_sp.as_secs() / x_dp.as_secs();
        assert!((0.8..1.3).contains(&ratio), "XT ratio {ratio} should be ~1");
    }

    /// Fig 3(b): BG/P double-precision Allreduce scalability is
    /// exceptional — nearly flat across process counts.
    #[test]
    fn allreduce_dp_bgp_nearly_flat() {
        let bytes = 32 * 1024;
        let t256 = bgp(256).time(CollectiveOp::Allreduce { bytes, dtype: DType::F64 });
        let t16k = bgp(16384).time(CollectiveOp::Allreduce { bytes, dtype: DType::F64 });
        assert!(t16k.as_secs() < 1.6 * t256.as_secs());
    }

    /// Barrier: dedicated network keeps BG/P in low microseconds at scale.
    #[test]
    fn barrier_flat_on_bgp() {
        let b = bgp(32768).time(CollectiveOp::Barrier);
        assert!(b < SimTime::from_us(3), "BG/P barrier {b}");
        let x = qc(32768).time(CollectiveOp::Barrier);
        assert!(x > SimTime::from_us(20), "XT software barrier {x}");
    }

    /// Alltoall: endpoint-bound for small rank counts, bisection-bound at
    /// scale; time per rank grows with p.
    #[test]
    fn alltoall_grows_with_scale() {
        let small = bgp(256).time(CollectiveOp::Alltoall { bytes_per_pair: 1024 });
        let large = bgp(4096).time(CollectiveOp::Alltoall { bytes_per_pair: 1024 });
        assert!(large > small * 4);
    }

    /// XT's fatter links give it the Alltoall bandwidth edge at equal
    /// rank counts (GYRO's B3-gtc transposes).
    #[test]
    fn alltoall_xt_bandwidth_edge() {
        let b = bgp(1024).time(CollectiveOp::Alltoall { bytes_per_pair: 64 * 1024 });
        let x = qc(1024).time(CollectiveOp::Alltoall { bytes_per_pair: 64 * 1024 });
        assert!(x < b, "XT {x} should beat BG/P {b} on bulk Alltoall");
    }

    /// Degenerate communicators do not blow up.
    #[test]
    fn single_rank_is_trivial() {
        for op in [
            CollectiveOp::Barrier,
            CollectiveOp::Bcast { bytes: 1 << 20 },
            CollectiveOp::Allreduce { bytes: 8, dtype: DType::F64 },
        ] {
            assert!(bgp(1).time(op) < SimTime::from_us(1));
        }
    }

    /// Payload monotonicity: more bytes never gets faster.
    #[test]
    fn monotone_in_payload() {
        let m = bgp(4096);
        let mut prev = SimTime::ZERO;
        for bytes in [8u64, 64, 512, 4096, 32768, 1 << 18, 1 << 21] {
            let t = m.time(CollectiveOp::Allreduce { bytes, dtype: DType::F64 });
            assert!(t >= prev, "allreduce({bytes}) regressed");
            prev = t;
        }
    }

    /// Fragmented placement (hop_scale > 1) slows software collectives.
    #[test]
    fn hop_scale_slows_software_collectives() {
        let compact = CollectiveModel::new(&xt4_qc(), 4096, 4);
        let frag = CollectiveModel::with_hop_scale(&xt4_qc(), 4096, 4, 2.0);
        let op = CollectiveOp::Allreduce { bytes: 1024, dtype: DType::F64 };
        assert!(frag.time(op) > compact.time(op));
    }

    /// Reduce is cheaper than Allreduce for the same payload on the tree.
    #[test]
    fn reduce_cheaper_than_allreduce() {
        let m = bgp(8192);
        let r = m.time(CollectiveOp::Reduce { bytes: 1 << 20, dtype: DType::F64 });
        let ar = m.time(CollectiveOp::Allreduce { bytes: 1 << 20, dtype: DType::F64 });
        assert!(r < ar);
    }
}
