//! The Community Atmosphere Model proxy (Figure 5).
//!
//! CAM alternates a *dynamics* phase (the dycore) with a *physics* phase
//! (§III.B). The spectral Eulerian dycore decomposes over latitudes —
//! which caps pure-MPI parallelism at the latitude count — and spends its
//! communication in transposes between grid and spectral space. The
//! finite-volume dycore decomposes in 2-D with halo exchanges. Physics is
//! per-column work that load-balances and threads well, which is why
//! "OpenMP parallelism ... provides additional scalability for large
//! processor counts": hybrid runs place 4× fewer MPI ranks on the same
//! cores, staying inside the dycore's rank limit while threads mop up
//! the physics.

use hpcsim_machine::Workload;
use hpcsim_mpi::{CommId, FnProgram, Mpi, SimResult, TraceSim, Traces};
use hpcsim_net::DType;
use hpcsim_topo::Grid2D;
use serde::Serialize;

/// Which dynamical core (compile-time choice in CAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Dycore {
    /// Spectral Eulerian (T42, T85 resolutions).
    SpectralEulerian,
    /// Finite-volume semi-Lagrangian (1.9×2.5°, 0.47×0.63°).
    FiniteVolume,
}

/// A CAM benchmark problem.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CamConfig {
    /// Problem label ("T42L26", "FV 1.9x2.5 L26", …).
    pub name: &'static str,
    /// Dycore selection.
    pub dycore: Dycore,
    /// Longitudes.
    pub nlon: u64,
    /// Latitudes (the spectral dycore's MPI rank cap).
    pub nlat: u64,
    /// Vertical levels.
    pub nlev: u64,
    /// Model steps per simulated day.
    pub steps_per_day: f64,
}

impl CamConfig {
    /// T42L26: 64×128 horizontal grid, 26 levels.
    pub fn t42() -> Self {
        CamConfig {
            name: "T42L26",
            dycore: Dycore::SpectralEulerian,
            nlon: 128,
            nlat: 64,
            nlev: 26,
            steps_per_day: 72.0,
        }
    }

    /// T85L26: 128×256 horizontal grid, 26 levels.
    pub fn t85() -> Self {
        CamConfig {
            name: "T85L26",
            dycore: Dycore::SpectralEulerian,
            nlon: 256,
            nlat: 128,
            nlev: 26,
            steps_per_day: 144.0,
        }
    }

    /// FV 1.9×2.5 L26: 96×144 grid.
    pub fn fv_2deg() -> Self {
        CamConfig {
            name: "FV 1.9x2.5 L26",
            dycore: Dycore::FiniteVolume,
            nlon: 144,
            nlat: 96,
            nlev: 26,
            steps_per_day: 96.0,
        }
    }

    /// FV 0.47×0.63 L26: 384×576 grid.
    pub fn fv_half_deg() -> Self {
        CamConfig {
            name: "FV 0.47x0.63 L26",
            dycore: Dycore::FiniteVolume,
            nlon: 576,
            nlat: 384,
            nlev: 26,
            steps_per_day: 384.0,
        }
    }

    /// The four problems of Figure 5, in the order above.
    pub fn presets() -> [CamConfig; 4] {
        [Self::t42(), Self::t85(), Self::fv_2deg(), Self::fv_half_deg()]
    }

    /// Maximum useful MPI ranks for this problem.
    pub fn max_ranks(&self) -> usize {
        match self.dycore {
            Dycore::SpectralEulerian => self.nlat as usize,
            // FV: 2-D decomposition down to 3-latitude strips
            Dycore::FiniteVolume => (self.nlat as usize / 3) * (self.nlon as usize / 4),
        }
    }

    /// The MPI ranks a request for `ranks` actually runs: ranks above
    /// the dycore cap would do dynamics-idle physics only (CAM would
    /// refuse; we clamp instead and the caller sees flat scaling).
    pub fn mpi_ranks(&self, ranks: usize) -> usize {
        ranks.min(self.max_ranks()).max(1)
    }
}

/// Result of a CAM proxy run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CamResult {
    /// Simulated years per day.
    pub years_per_day: f64,
    /// Cores actually used (ranks × threads).
    pub cores: usize,
}

impl CamResult {
    /// The throughput of a priced run of `cfg` with `threads` per rank.
    pub fn of(res: &SimResult, threads: u32, cfg: &CamConfig) -> CamResult {
        let t_day = cfg.steps_per_day * res.makespan().as_secs();
        let cores = res.finish.len() * threads as usize;
        CamResult { years_per_day: 86_400.0 / (t_day * 365.0), cores }
    }
}

/// Record one CAM step on `ranks` (clamped) tasks × `threads` threads
/// (machine-free).
pub fn cam_traces(ranks: usize, threads: u32, cfg: &CamConfig) -> Traces {
    let prog = cfg.clone();
    let record = FnProgram(move |mpi: &mut Mpi| record_step(mpi, &prog, threads));
    TraceSim::trace_program(&record, cfg.mpi_ranks(ranks), threads)
}

fn record_step(mpi: &mut Mpi, cfg: &CamConfig, threads: u32) {
    let p = mpi.size() as u64;
    let cols_total = cfg.nlon * cfg.nlat;
    let cols_local = (cols_total / p).max(1);
    let pts_local = cols_local * cfg.nlev;

    match cfg.dycore {
        Dycore::SpectralEulerian => {
            // Legendre + Fourier transforms: O(nlat) work per column
            // row, plus a transpose between grid and spectral space.
            // The spectral transforms are irregular application code —
            // they never mapped well onto the Double Hummer (part of why
            // the paper's spectral gap exceeds the FV gap).
            mpi.compute_threads(
                Workload::Stencil {
                    points: pts_local,
                    flops_per_point: 40.0 * cfg.nlat as f64,
                    bytes_per_point: 64.0,
                },
                threads,
            );
            // grid↔spectral transpose (twice per step)
            let bytes_per_pair = (8 * pts_local / p).max(8);
            mpi.alltoall(CommId::WORLD, bytes_per_pair);
            mpi.alltoall(CommId::WORLD, bytes_per_pair);
        }
        Dycore::FiniteVolume => {
            // 2-D decomposition with wide halos (semi-Lagrangian). The
            // FV remap loops are long and regular — they vectorize on
            // the Double Hummer where the spectral code does not, which
            // is why the paper finds "the comparison is somewhat better
            // for the finite volume dycore".
            let grid = Grid2D::near_square(p as usize);
            let me = mpi.rank();
            mpi.compute_threads(
                Workload::Custom {
                    flops: pts_local as f64 * 2200.0,
                    dram_bytes: pts_local as f64 * 120.0,
                    simd_eff: 0.16,
                    serial_frac: 0.05,
                },
                threads,
            );
            let halo_bytes = (3 * 8 * cfg.nlev * (cfg.nlon / grid.cols as u64).max(1)).max(64);
            let (n, s) = (grid.north(me), grid.south(me));
            let r1 = mpi.irecv(s, 1, halo_bytes);
            let r2 = mpi.irecv(n, 2, halo_bytes);
            let s1 = mpi.isend(n, 1, halo_bytes);
            let s2 = mpi.isend(s, 2, halo_bytes);
            mpi.waitall(&[r1, r2, s1, s2]);
        }
    }

    // Physics: per-column parameterizations; threads nearly ideal,
    // load-balancing exchange beforehand (small).
    mpi.allreduce(CommId::WORLD, 64, DType::F64); // load-balance bookkeeping
    mpi.compute_threads(
        Workload::Chemistry { points: cols_local, flops_per_point: 400_000.0 },
        threads,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt3, xt4_qc};
    use hpcsim_machine::{ExecMode, MachineSpec};
    use hpcsim_mpi::{sweep_points, SimConfig};

    fn cam_run(
        machine: &MachineSpec,
        mode: ExecMode,
        ranks: usize,
        threads: u32,
        cfg: &CamConfig,
    ) -> CamResult {
        let point =
            SimConfig { threads, ..SimConfig::new(machine.clone(), cfg.mpi_ranks(ranks), mode) };
        let traces = cam_traces(ranks, threads, cfg);
        CamResult::of(&sweep_points(&[point], &|| &traces, None, None).unwrap()[0], threads, cfg)
    }

    /// Fig 5(a): hybrid ≈ pure MPI at small core counts, but extends
    /// scalability at large counts (the dycore caps MPI ranks).
    #[test]
    fn hybrid_extends_scaling_t42() {
        let m = bluegene_p();
        let cfg = CamConfig::t42();
        // 256 cores: MPI capped at 64 ranks; hybrid uses 64 ranks × 4
        let mpi_only = cam_run(&m, ExecMode::Vn, 256, 1, &cfg);
        let hybrid = cam_run(&m, ExecMode::Smp, 64, 4, &cfg);
        assert!(
            hybrid.years_per_day > mpi_only.years_per_day * 1.5,
            "hybrid {:.1} vs MPI {:.1}",
            hybrid.years_per_day,
            mpi_only.years_per_day
        );
        // at small counts they are comparable
        let mpi_small = cam_run(&m, ExecMode::Vn, 16, 1, &cfg);
        let hyb_small = cam_run(&m, ExecMode::Smp, 4, 4, &cfg);
        let ratio = hyb_small.years_per_day / mpi_small.years_per_day;
        assert!((0.6..1.5).contains(&ratio), "small-count ratio {ratio:.2}");
    }

    /// Fig 5(c): "the BG/P is never less than a factor of 2.1 slower
    /// than the XT3 and 3.1 slower than the XT4" for spectral problems.
    #[test]
    fn xt_advantage_spectral() {
        let cfg = CamConfig::t85();
        for cores in [32usize, 64, 128] {
            let b = cam_run(&bluegene_p(), ExecMode::Vn, cores, 1, &cfg);
            let x3 = cam_run(&xt3(), ExecMode::Vn, cores, 1, &cfg);
            let x4 = cam_run(&xt4_qc(), ExecMode::Vn, cores, 1, &cfg);
            let r3 = x3.years_per_day / b.years_per_day;
            let r4 = x4.years_per_day / b.years_per_day;
            assert!(r3 > 1.8 && r3 < 5.0, "XT3/BGP {r3:.2} at {cores}");
            assert!(r4 > 2.2 && r4 < 5.5, "XT4/BGP {r4:.2} at {cores}");
        }
    }

    /// Fig 5(b): the FV dycore comparison is "somewhat better" for BG/P
    /// (smaller XT advantage than spectral).
    #[test]
    fn fv_gap_smaller_than_spectral() {
        let cores = 96;
        let spec = CamConfig::t85();
        let fv = CamConfig::fv_2deg();
        let gap = |cfg: &CamConfig| {
            let b = cam_run(&bluegene_p(), ExecMode::Vn, cores, 1, cfg);
            let x = cam_run(&xt4_qc(), ExecMode::Vn, cores, 1, cfg);
            x.years_per_day / b.years_per_day
        };
        let g_spec = gap(&spec);
        let g_fv = gap(&fv);
        assert!(g_fv < g_spec, "FV gap {g_fv:.2} should be < spectral {g_spec:.2}");
    }

    /// Scaling stops at the dycore's rank cap for pure MPI.
    #[test]
    fn mpi_scaling_caps_at_nlat() {
        let m = bluegene_p();
        let cfg = CamConfig::t42();
        let at_cap = cam_run(&m, ExecMode::Vn, 64, 1, &cfg);
        let beyond = cam_run(&m, ExecMode::Vn, 256, 1, &cfg);
        let ratio = beyond.years_per_day / at_cap.years_per_day;
        assert!((0.95..1.05).contains(&ratio), "beyond-cap ratio {ratio:.3}");
    }

    /// T85 is a bigger problem: lower years/day than T42 at equal cores.
    #[test]
    fn resolution_ordering() {
        let m = xt4_qc();
        let t42 = cam_run(&m, ExecMode::Vn, 64, 1, &CamConfig::t42());
        let t85 = cam_run(&m, ExecMode::Vn, 64, 1, &CamConfig::t85());
        assert!(t42.years_per_day > 2.0 * t85.years_per_day);
    }

    /// Larger FV problem scales further but runs slower in absolute terms.
    #[test]
    fn fv_half_degree_is_heavy() {
        let m = bluegene_p();
        let coarse = cam_run(&m, ExecMode::Smp, 128, 4, &CamConfig::fv_2deg());
        let fine = cam_run(&m, ExecMode::Smp, 128, 4, &CamConfig::fv_half_deg());
        assert!(fine.years_per_day < coarse.years_per_day / 4.0);
    }
}
