//! The node performance model: a roofline with explicit resource sharing.
//!
//! Given a [`Workload`], an [`ExecMode`] and a thread count, the model
//! computes how long one MPI task needs for its local work on a given
//! machine:
//!
//! ```text
//! t = max( flops / F_eff , dram_bytes / B_eff )
//! F_eff = threads_speedup(t, serial_frac) · core_peak · simd_eff
//! B_eff = min( threads · core_bw_cap , node_bw · stream_eff / tasks )
//! ```
//!
//! The two branches of the `max` are exactly the paper's two stories:
//! DGEMM/HPL live on the compute branch, where the XT's 2.1–2.6 GHz
//! Opterons beat the 850 MHz PPC450 by the clock ratio; STREAM and the
//! barotropic solver live on the bandwidth branch, where BG/P's balanced
//! memory system keeps it competitive.

use crate::arch::MachineSpec;
use crate::cost::{CostDesc, Workload};
use crate::exec::ExecMode;
use hpcsim_engine::SimTime;

/// Performance model for one machine's compute node.
#[derive(Debug, Clone)]
pub struct NodeModel {
    spec: MachineSpec,
}

impl NodeModel {
    /// Build a model for `spec`.
    pub fn new(spec: MachineSpec) -> Self {
        NodeModel { spec }
    }

    /// The underlying machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Cache available to one task: its private caches plus an even share
    /// of the shared last-level cache.
    pub fn cache_per_task(&self, mode: ExecMode) -> f64 {
        let tasks = mode.tasks_per_node(self.spec.cores_per_node) as f64;
        self.spec.private_cache_bytes() + self.spec.l3_bytes() / tasks
    }

    /// Amdahl speedup for `threads` threads with serial fraction `s`.
    fn thread_speedup(threads: u32, s: f64) -> f64 {
        let t = threads.max(1) as f64;
        1.0 / (s + (1.0 - s) / t)
    }

    /// Effective flop rate of one task using `threads` threads on a kernel
    /// with the given SIMD efficiency and serial fraction.
    pub fn flop_rate(&self, threads: u32, simd_eff: f64, serial_frac: f64) -> f64 {
        self.spec.core_peak_flops() * simd_eff * Self::thread_speedup(threads, serial_frac)
    }

    /// Effective DRAM bandwidth available to one task.
    ///
    /// `threads` is the task's thread count; the number of *active cores
    /// on the node* is `tasks × threads`, which selects between the
    /// lightly-loaded and fully-loaded memory efficiencies.
    pub fn mem_bw_per_task(&self, mode: ExecMode, threads: u32) -> f64 {
        let tasks = mode.tasks_per_node(self.spec.cores_per_node) as f64;
        // A t-threaded task can always choose to stream from fewer
        // threads, so its bandwidth is the best over thread subsets —
        // which keeps bandwidth monotone in the thread count even when
        // loaded efficiency is below single-stream efficiency.
        let bw_for = |active_threads: f64| -> f64 {
            let active_cores = tasks * active_threads;
            let eff = if active_cores <= 1.0 {
                self.spec.mem.stream_eff_single
            } else {
                self.spec.mem.stream_eff_loaded
            };
            let node_share = self.spec.mem.bw_bytes * eff / tasks;
            let core_cap = self.spec.core.mem_bw_core * active_threads;
            node_share.min(core_cap)
        };
        bw_for(1.0).max(bw_for(threads.max(1) as f64))
    }

    /// Time for one task to execute `cost` (already resolved).
    pub fn time_for_cost(&self, cost: &CostDesc, mode: ExecMode, threads: u32) -> SimTime {
        let threads = threads.clamp(1, mode.max_threads_per_task(self.spec.cores_per_node));
        let irr = if cost.irregular { self.spec.core.irregular_eff } else { 1.0 };
        let t_flops = if cost.flops > 0.0 {
            cost.flops / self.flop_rate(threads, (cost.simd_eff * irr).max(1e-3), cost.serial_frac)
        } else {
            0.0
        };
        let t_mem = if cost.dram_bytes > 0.0 {
            cost.dram_bytes / self.mem_bw_per_task(mode, threads)
        } else {
            0.0
        };
        SimTime::from_secs(t_flops.max(t_mem))
    }

    /// Time for one task to execute `workload` in `mode` with `threads`
    /// OpenMP threads.
    pub fn time(&self, workload: &Workload, mode: ExecMode, threads: u32) -> SimTime {
        let cost = workload.cost(self.cache_per_task(mode));
        self.time_for_cost(&cost, mode, threads)
    }

    /// Sustained flop rate for `workload` (flops / time); zero for
    /// flop-free workloads.
    pub fn sustained_flops(&self, workload: &Workload, mode: ExecMode, threads: u32) -> f64 {
        let cost = workload.cost(self.cache_per_task(mode));
        let t = self.time_for_cost(&cost, mode, threads).as_secs();
        if t <= 0.0 {
            0.0
        } else {
            cost.flops / t
        }
    }

    /// Sustained DRAM bandwidth for `workload` (bytes / time).
    pub fn sustained_bandwidth(&self, workload: &Workload, mode: ExecMode, threads: u32) -> f64 {
        let cost = workload.cost(self.cache_per_task(mode));
        let t = self.time_for_cost(&cost, mode, threads).as_secs();
        if t <= 0.0 {
            0.0
        } else {
            cost.dram_bytes / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{bluegene_p, xt4_qc};

    fn bgp() -> NodeModel {
        NodeModel::new(bluegene_p())
    }
    fn qc() -> NodeModel {
        NodeModel::new(xt4_qc())
    }

    /// DGEMM per task in VN mode: BG/P ≈ 0.9·3.4 GF, XT4/QC ≈ 0.9·8.4 GF.
    /// The paper: "the BG/P's lower clock rate [is] the likely reason for
    /// its smaller processing rate on the DGEMM".
    #[test]
    fn dgemm_rates_follow_clock_ratio() {
        let w = Workload::Dgemm { n: 2000 };
        let r_bgp = bgp().sustained_flops(&w, ExecMode::Vn, 1);
        let r_qc = qc().sustained_flops(&w, ExecMode::Vn, 1);
        assert!(r_bgp > 2.7e9 && r_bgp < 3.2e9, "BG/P DGEMM {r_bgp:.3e}");
        assert!(r_qc > 6.5e9 && r_qc < 8.0e9, "QC DGEMM {r_qc:.3e}");
        let ratio = r_qc / r_bgp;
        assert!(ratio > 2.0 && ratio < 2.9, "clock-driven ratio {ratio}");
    }

    /// STREAM triad, embarrassingly parallel (all cores): BG/P per-task
    /// bandwidth must EXCEED the XT4/QC's — the paper's §II.A.1 surprise.
    #[test]
    fn stream_ep_bgp_beats_qc() {
        let w = Workload::StreamTriad { n: 2_000_000 };
        let b_bgp = bgp().sustained_bandwidth(&w, ExecMode::Vn, 1);
        let b_qc = qc().sustained_bandwidth(&w, ExecMode::Vn, 1);
        assert!(b_bgp > b_qc, "BG/P {b_bgp:.3e} vs QC {b_qc:.3e}");
        // and in plausible absolute ranges (GB/s per task)
        assert!(b_bgp > 2.2e9 && b_bgp < 3.2e9);
        assert!(b_qc > 1.5e9 && b_qc < 2.4e9);
    }

    /// Single-process STREAM declines less on BG/P than on the XT when all
    /// cores become active (the core-bandwidth cap at work).
    #[test]
    fn stream_decline_single_to_ep() {
        let w = Workload::StreamTriad { n: 2_000_000 };
        let decline = |m: &NodeModel| {
            let single = m.sustained_bandwidth(&w, ExecMode::Smp, 1);
            let ep = m.sustained_bandwidth(&w, ExecMode::Vn, 1);
            single / ep
        };
        let d_bgp = decline(&bgp());
        let d_qc = decline(&qc());
        assert!(d_bgp < d_qc, "BG/P decline {d_bgp:.2} vs QC {d_qc:.2}");
        assert!(d_bgp < 1.5, "BG/P nearly flat, got {d_bgp:.2}");
        assert!(d_qc > 2.0, "QC declines hard, got {d_qc:.2}");
    }

    /// VN mode quarters the L3 share on BG/P.
    #[test]
    fn cache_share_by_mode() {
        let m = bgp();
        let smp = m.cache_per_task(ExecMode::Smp);
        let vn = m.cache_per_task(ExecMode::Vn);
        let l3 = 8.0 * 1024.0 * 1024.0;
        let l1 = 32.0 * 1024.0;
        assert_eq!(smp, l1 + l3);
        assert_eq!(vn, l1 + l3 / 4.0);
    }

    /// OpenMP threading: 4 threads in SMP mode approach but do not reach
    /// 4× one VN task for a slightly-serial kernel.
    #[test]
    fn openmp_speedup_bounded_by_amdahl() {
        let m = bgp();
        let w = Workload::Chemistry { points: 1 << 20, flops_per_point: 1000.0 };
        let t1 = m.time(&w, ExecMode::Smp, 1).as_secs();
        let t4 = m.time(&w, ExecMode::Smp, 4).as_secs();
        let speedup = t1 / t4;
        assert!(speedup > 3.0 && speedup < 4.0, "speedup {speedup}");
    }

    /// Thread counts are clamped to the mode's limit: VN tasks cannot
    /// thread.
    #[test]
    fn threads_clamped_by_mode() {
        let m = bgp();
        let w = Workload::Dgemm { n: 500 };
        assert_eq!(m.time(&w, ExecMode::Vn, 4), m.time(&w, ExecMode::Vn, 1));
        assert_eq!(m.time(&w, ExecMode::Dual, 4), m.time(&w, ExecMode::Dual, 2));
    }

    /// Zero-flop workloads report zero sustained flops, not NaN.
    #[test]
    fn flop_free_workload_is_finite() {
        let m = bgp();
        let w = Workload::StreamCopy { n: 1000 };
        assert_eq!(m.sustained_flops(&w, ExecMode::Vn, 1), 0.0);
        assert!(m.time(&w, ExecMode::Vn, 1) > SimTime::ZERO);
    }

    /// The roofline's compute branch: a pure-compute workload's time is
    /// inversely proportional to SIMD efficiency.
    #[test]
    fn compute_branch_scales_with_simd_eff() {
        let m = qc();
        let hi = Workload::Custom { flops: 1e9, dram_bytes: 0.0, simd_eff: 1.0, serial_frac: 0.0 };
        let lo = Workload::Custom { flops: 1e9, dram_bytes: 0.0, simd_eff: 0.25, serial_frac: 0.0 };
        let r = m.time(&lo, ExecMode::Vn, 1).as_secs() / m.time(&hi, ExecMode::Vn, 1).as_secs();
        assert!((r - 4.0).abs() < 1e-6);
    }

    /// Memory-bound workload time halves when the task count halves
    /// (DUAL vs VN on the bandwidth branch).
    #[test]
    fn bandwidth_branch_scales_with_tasks() {
        let m = qc();
        let w = Workload::StreamTriad { n: 10_000_000 };
        let t_vn = m.time(&w, ExecMode::Vn, 1).as_secs();
        let t_dual = m.time(&w, ExecMode::Dual, 1).as_secs();
        let r = t_vn / t_dual;
        assert!((r - 2.0).abs() < 0.2, "VN/DUAL ratio {r}");
    }
}
