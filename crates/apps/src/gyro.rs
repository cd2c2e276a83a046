//! The GYRO gyrokinetic solver proxy (Figure 7).
//!
//! GYRO propagates a 5-D distribution function with an explicit Eulerian
//! scheme; its "primary communication costs result from calls to
//! MPI_ALLTOALL to transpose distributed arrays" (§III.D). Under strong
//! scaling the per-rank arithmetic shrinks while the transpose latency
//! does not — so the machine with the faster cores (XT4) "quickly runs
//! out of work per process … while the BG/P system continues to scale".
//!
//! Problems:
//! * **B1-std** — 16 toroidal modes, 16×140×8×8×20 grid, 500 steps,
//!   kinetic electrons (more work per point, no FFT).
//! * **B3-gtc** — 64 modes, 64×400×8×8×20 grid, 100 steps, FFT-based
//!   field solve. Its memory footprint forces DUAL mode on BG/P.

use hpcsim_machine::{ExecMode, MachineSpec, Workload};
use hpcsim_mpi::{CommId, FnProgram, Mpi, SimResult, TraceSim, Traces};
use hpcsim_net::DType;
use serde::Serialize;

/// Which benchmark problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GyroProblem {
    /// 16-mode electrostatic case, kinetic electrons.
    B1Std,
    /// 64-mode adiabatic case, FFT field solve.
    B3Gtc,
    /// The paper's memory-reduced weak-scaling variant of B3-gtc.
    B3GtcModified,
}

/// GYRO proxy configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GyroConfig {
    /// Problem selection.
    pub problem: GyroProblem,
    /// Simulated timesteps (results are per step; a few suffice).
    pub steps: u32,
}

impl GyroConfig {
    /// The B1-std benchmark.
    pub fn b1_std() -> Self {
        GyroConfig { problem: GyroProblem::B1Std, steps: 4 }
    }

    /// The B3-gtc benchmark.
    pub fn b3_gtc() -> Self {
        GyroConfig { problem: GyroProblem::B3Gtc, steps: 4 }
    }

    /// Grid dimensions (modes, radial, v-space…).
    fn grid_points(&self) -> u64 {
        match self.problem {
            GyroProblem::B1Std => 16 * 140 * 8 * 8 * 20,
            GyroProblem::B3Gtc => 64 * 400 * 8 * 8 * 20,
            // modified to fit BG/P memory: half the radial domain
            GyroProblem::B3GtcModified => 64 * 200 * 8 * 8 * 20,
        }
    }

    /// Flops per grid point per step (kinetic electrons cost more).
    fn flops_per_point(&self) -> f64 {
        match self.problem {
            GyroProblem::B1Std => 900.0,
            GyroProblem::B3Gtc | GyroProblem::B3GtcModified => 260.0,
        }
    }

    /// Per-rank replicated memory (fields, geometry, FFT workspaces) —
    /// the footprint that forced DUAL mode on BG/P for B3-gtc, and that
    /// the "modified" variant shrank to fit.
    fn replicated_bytes(&self) -> f64 {
        match self.problem {
            GyroProblem::B1Std => 150e6,
            GyroProblem::B3Gtc => 600e6,
            GyroProblem::B3GtcModified => 200e6,
        }
    }

    /// Per-task memory footprint in bytes at `ranks` tasks: replicated
    /// arrays plus this task's slice of the distribution function.
    pub fn mem_per_task(&self, ranks: usize) -> f64 {
        self.replicated_bytes() + 16.0 * 8.0 * self.grid_points() as f64 / ranks as f64
    }
}

/// Result of a GYRO run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GyroResult {
    /// Wall seconds per timestep.
    pub seconds_per_step: f64,
    /// The execution mode actually used (DUAL when memory demands it).
    pub mode: ExecMode,
}

/// Pick the densest execution mode whose per-task memory fits.
pub fn mode_for_memory(machine: &MachineSpec, cfg: &GyroConfig, ranks: usize) -> ExecMode {
    for mode in [ExecMode::Vn, ExecMode::Dual, ExecMode::Smp] {
        let per_task = mode.mem_per_task(machine.mem.capacity_bytes(), machine.cores_per_node);
        if cfg.mem_per_task(ranks) <= per_task * 0.8 {
            return mode;
        }
    }
    ExecMode::Smp
}

impl GyroResult {
    /// The per-step time of a priced run of `cfg` in `mode`.
    pub fn of(res: &SimResult, cfg: &GyroConfig, mode: ExecMode) -> GyroResult {
        GyroResult { seconds_per_step: res.makespan().as_secs() / cfg.steps as f64, mode }
    }
}

/// Record the GYRO trace on `ranks` tasks (machine-free).
pub fn gyro_traces(ranks: usize, cfg: &GyroConfig) -> Traces {
    let prog = cfg.clone();
    let record = FnProgram(move |mpi: &mut Mpi| {
        let p = mpi.size() as u64;
        // B1/B3 are strong-scaled (fixed grid over p ranks); the modified
        // B3-gtc is the paper's WEAK-scaled case — constant work per rank
        // ("weakly scaled by keeping the ENERGY GRID size constant").
        let pts_local = match prog.problem {
            GyroProblem::B3GtcModified => prog.grid_points() / 64,
            _ => (prog.grid_points() / p).max(1),
        };
        for _ in 0..prog.steps {
            // RHS evaluation: collisionless streaming + collisions
            mpi.compute(Workload::Stencil {
                points: pts_local,
                flops_per_point: prog.flops_per_point(),
                bytes_per_point: 64.0,
            });
            // field solve: distributed transposes (FFT-based for B3)
            let transpose_bytes = (8 * pts_local / p / 4).max(8);
            mpi.alltoall(CommId::WORLD, transpose_bytes);
            if matches!(prog.problem, GyroProblem::B3Gtc | GyroProblem::B3GtcModified) {
                // FFT along the mode dimension between the transposes
                mpi.compute(Workload::Fft1d { n: (pts_local / 64).max(64) });
                mpi.alltoall(CommId::WORLD, transpose_bytes);
            }
            // time-advance bookkeeping
            mpi.allreduce(CommId::WORLD, 16, DType::F64);
        }
    });
    TraceSim::trace_program(&record, ranks, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_l, bluegene_p, xt4_qc};
    use hpcsim_mpi::{sweep_points, SimConfig};

    fn gyro_run(machine: &MachineSpec, ranks: usize, cfg: &GyroConfig) -> GyroResult {
        let point = SimConfig::new(machine.clone(), ranks, mode_for_memory(machine, cfg, ranks));
        let traces = gyro_traces(ranks, cfg);
        let res = sweep_points(std::slice::from_ref(&point), &|| &traces, None, None);
        GyroResult::of(&res.unwrap()[0], cfg, point.mode)
    }

    /// Fig 7(a): B1-std strong scaling — "the XT4 quickly runs out of
    /// work per process …, while the BG/P system continues to scale".
    #[test]
    fn b1_xt_saturates_before_bgp() {
        let cfg = GyroConfig::b1_std();
        let eff = |machine: &MachineSpec| {
            let t128 = gyro_run(machine, 128, &cfg).seconds_per_step;
            let t1024 = gyro_run(machine, 1024, &cfg).seconds_per_step;
            (t128 / t1024) / 8.0 // parallel efficiency of the 8x step
        };
        let e_bgp = eff(&bluegene_p());
        let e_xt = eff(&xt4_qc());
        assert!(e_bgp > e_xt, "efficiency BG/P {e_bgp:.2} vs XT {e_xt:.2}");
        assert!(e_xt < 0.8, "XT must visibly saturate, eff {e_xt:.2}");
        assert!(e_bgp > 0.5, "BG/P keeps scaling, eff {e_bgp:.2}");
    }

    /// Fig 7(b): B3-gtc runs in DUAL mode on BG/P "due to memory
    /// requirements" — VN's 512 MiB per task cannot hold the problem at
    /// moderate rank counts.
    #[test]
    fn b3_forces_dual_mode_on_bgp() {
        let cfg = GyroConfig::b3_gtc();
        let r = gyro_run(&bluegene_p(), 512, &cfg);
        assert_eq!(r.mode, ExecMode::Dual, "BG/P must fall back to DUAL");
        // the XT4's 2 GiB/task in VN mode is fine
        let x = gyro_run(&xt4_qc(), 512, &cfg);
        assert_eq!(x.mode, ExecMode::Vn);
    }

    /// Fig 7(b): both systems scale B3-gtc to 2048 without significant
    /// efficiency drop.
    #[test]
    fn b3_scales_on_both() {
        let cfg = GyroConfig::b3_gtc();
        for machine in [bluegene_p(), xt4_qc()] {
            let t256 = gyro_run(&machine, 256, &cfg).seconds_per_step;
            let t2048 = gyro_run(&machine, 2048, &cfg).seconds_per_step;
            let eff = (t256 / t2048) / 8.0;
            assert!(eff > 0.4, "{}: B3 efficiency {eff:.2}", machine.id);
        }
    }

    /// Fig 7(c): weak-scaled modified B3-gtc — BG/P and BG/L numbers are
    /// "almost the same".
    #[test]
    fn bgp_tracks_bgl_on_weak_scaling() {
        let cfg = GyroConfig { problem: GyroProblem::B3GtcModified, steps: 4 };
        for ranks in [128usize, 512] {
            let p = gyro_run(&bluegene_p(), ranks, &cfg).seconds_per_step;
            let l = gyro_run(&bluegene_l(), ranks, &cfg).seconds_per_step;
            let ratio = p / l;
            assert!((0.5..1.3).contains(&ratio), "BGP/BGL {ratio:.2} at {ranks}");
        }
        let t128 = gyro_run(&bluegene_p(), 128, &cfg).seconds_per_step;
        let t1024 = gyro_run(&bluegene_p(), 1024, &cfg).seconds_per_step;
        let growth = t1024 / t128;
        assert!((0.8..1.8).contains(&growth), "weak-scaling growth {growth:.2}");
    }

    /// Strong scaling sanity: more ranks, less time per step.
    #[test]
    fn time_decreases_with_ranks() {
        let cfg = GyroConfig::b1_std();
        let t64 = gyro_run(&bluegene_p(), 64, &cfg).seconds_per_step;
        let t512 = gyro_run(&bluegene_p(), 512, &cfg).seconds_per_step;
        assert!(t512 < t64 / 3.0);
    }
}
