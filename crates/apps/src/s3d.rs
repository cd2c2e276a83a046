//! The S3D direct numerical simulation proxy (Figure 6).
//!
//! S3D solves compressible reacting Navier–Stokes on a structured 3-D
//! mesh with eighth-order finite differences (9-point stencils per
//! direction), tenth-order filters (11-point), six-stage fourth-order
//! Runge–Kutta, and CO-H₂ chemistry with 11 species (§III.C). Each rank
//! owns 50³ points regardless of scale (weak scaling); communication is
//! ghost-zone exchange with the six face neighbours via non-blocking
//! sends/receives, plus a tiny global reduction for monitoring. The
//! paper's Figure 6 metric is **cost per grid point per time step** —
//! flat curves mean perfect weak scaling.

use hpcsim_machine::Workload;
use hpcsim_mpi::{CommId, FnProgram, Mpi, SimResult, TraceSim, Traces};
use hpcsim_net::DType;
use hpcsim_topo::Grid3D;
use serde::Serialize;

/// S3D configuration (defaults: the paper's pressure-wave test).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct S3dConfig {
    /// Grid points per rank along each axis (50 in the paper).
    pub pts_per_rank_edge: u64,
    /// Chemical species (CO-H₂: 11).
    pub species: u64,
    /// Runge–Kutta stages (6).
    pub rk_stages: u32,
    /// Timesteps to simulate (cost is per step; a few suffice).
    pub steps: u32,
}

impl Default for S3dConfig {
    fn default() -> Self {
        S3dConfig { pts_per_rank_edge: 50, species: 11, rk_stages: 6, steps: 2 }
    }
}

/// Result of an S3D run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct S3dResult {
    /// Core-hours per grid point per step — Figure 6's y-axis.
    pub core_hours_per_point_step: f64,
    /// Wall seconds per step.
    pub seconds_per_step: f64,
}

impl S3dResult {
    /// The cost metrics of a priced run of `cfg` on `ranks` tasks.
    pub fn of(res: &SimResult, ranks: usize, cfg: &S3dConfig) -> S3dResult {
        let seconds_per_step = res.makespan().as_secs() / cfg.steps as f64;
        let pts = cfg.pts_per_rank_edge.pow(3) as f64; // per rank
                                                       // total core-seconds per step / total points
        let core_s = seconds_per_step * ranks as f64;
        let total_pts = pts * ranks as f64;
        S3dResult { core_hours_per_point_step: core_s / total_pts / 3600.0, seconds_per_step }
    }
}

/// Record the S3D trace on `ranks` tasks (machine-free).
pub fn s3d_traces(ranks: usize, cfg: &S3dConfig) -> Traces {
    let prog = cfg.clone();
    let record = FnProgram(move |mpi: &mut Mpi| {
        let grid = Grid3D::near_cube(mpi.size());
        for _ in 0..prog.steps {
            record_step(mpi, &prog, grid);
        }
    });
    TraceSim::trace_program(&record, ranks, 1)
}

fn record_step(mpi: &mut Mpi, cfg: &S3dConfig, grid: Grid3D) {
    let edge = cfg.pts_per_rank_edge;
    let pts = edge * edge * edge;
    let vars = cfg.species + 5; // species + density, momentum, energy
                                // ghost-zone: 4-deep faces of all transported variables
    let face_bytes = 4 * edge * edge * 8 * vars;
    let me = mpi.rank();

    for stage in 0..cfg.rk_stages {
        // exchange ghost zones with the six face neighbours
        let tag0 = stage * 8;
        let nbrs = grid.face_neighbors(me);
        let mut reqs = Vec::with_capacity(12);
        for (i, &nb) in nbrs.iter().enumerate() {
            reqs.push(mpi.irecv(nb, tag0 + i as u32, face_bytes));
        }
        for (i, &nb) in nbrs.iter().enumerate() {
            // the matching send uses the neighbour's receive tag from the
            // opposite direction: pair directions (0,1),(2,3),(4,5)
            let opposite = [1u32, 0, 3, 2, 5, 4][i];
            reqs.push(mpi.isend(nb, tag0 + opposite, face_bytes));
        }
        mpi.waitall(&reqs);
        // derivatives + filters: 9/11-pt stencils over all variables
        mpi.compute(Workload::Stencil {
            points: pts,
            flops_per_point: 40.0 * vars as f64, // per stage
            bytes_per_point: 16.0 * vars as f64,
        });
        // chemistry: reaction rates for all species
        mpi.compute(Workload::Chemistry {
            points: pts,
            flops_per_point: 190.0 * cfg.species as f64,
        });
    }
    // monitoring reduction once per step
    mpi.allreduce(CommId::WORLD, 64, DType::F64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt3, xt4_qc};
    use hpcsim_machine::{ExecMode, MachineSpec};
    use hpcsim_mpi::{sweep_points, SimConfig};

    fn s3d_run(machine: &MachineSpec, mode: ExecMode, ranks: usize, cfg: &S3dConfig) -> S3dResult {
        let point = SimConfig::new(machine.clone(), ranks, mode);
        let traces = s3d_traces(ranks, cfg);
        let res = sweep_points(&[point], &|| &traces, None, None).unwrap();
        S3dResult::of(&res[0], ranks, cfg)
    }

    /// Fig 6: cost per grid point per step is FLAT under weak scaling —
    /// "S3D exhibits excellent parallel performance".
    #[test]
    fn weak_scaling_is_flat() {
        let m = bluegene_p();
        let costs: Vec<f64> = [8usize, 64, 512, 1728]
            .iter()
            .map(|&p| s3d_run(&m, ExecMode::Vn, p, &S3dConfig::default()).core_hours_per_point_step)
            .collect();
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.15, "weak-scaling spread {:.3} ({costs:?})", max / min);
    }

    /// Fig 6: per-core cost ordering BG/P > XT3 ≳ XT4 (the XT's faster
    /// cores), with BG/P roughly 2.5–4× the XT4/QC cost.
    #[test]
    fn cost_ordering_across_machines() {
        let p = 512;
        let cfg = S3dConfig::default();
        let b = s3d_run(&bluegene_p(), ExecMode::Vn, p, &cfg).core_hours_per_point_step;
        let x3 = s3d_run(&xt3(), ExecMode::Vn, p, &cfg).core_hours_per_point_step;
        let x4 = s3d_run(&xt4_qc(), ExecMode::Vn, p, &cfg).core_hours_per_point_step;
        assert!(b > x3 && b > x4, "BG/P {b:.2e} vs XT3 {x3:.2e}, XT4 {x4:.2e}");
        let ratio = b / x4;
        assert!((2.0..4.5).contains(&ratio), "BGP/XT4QC {ratio:.2}");
    }

    /// Absolute plausibility: tens of µs of core time per point per step
    /// on the XT — i.e. 1e-8-ish core-hours.
    #[test]
    fn absolute_cost_plausible() {
        let r = s3d_run(&xt4_qc(), ExecMode::Vn, 64, &S3dConfig::default());
        let core_us = r.core_hours_per_point_step * 3600.0 * 1e6;
        assert!(core_us > 2.0 && core_us < 120.0, "{core_us:.1} core-µs/pt/step");
    }

    /// More species cost more.
    #[test]
    fn chemistry_scales_with_species() {
        let m = xt3();
        let small = s3d_run(&m, ExecMode::Vn, 64, &S3dConfig { species: 11, ..Default::default() });
        let big = s3d_run(&m, ExecMode::Vn, 64, &S3dConfig { species: 33, ..Default::default() });
        assert!(big.seconds_per_step > small.seconds_per_step * 1.8);
    }
}
