//! Molecular-dynamics proxies: LAMMPS-like and AMBER/PMEMD-like codes on
//! the 290,220-atom solvated RuBisCO system (Figure 8).
//!
//! Both codes integrate the same physics but communicate differently
//! (§III.E):
//!
//! * **LAMMPS** — spatial decomposition: each rank owns a box of atoms,
//!   exchanges ghost atoms with its six face neighbours each step, and
//!   joins one small reduction. Communication shrinks as surface/volume,
//!   so it "scale[s] from a few hundred to tens of thousands of
//!   processors".
//! * **PMEMD** — particle-mesh Ewald: the direct-space force loop plus a
//!   distributed 3-D FFT (transpose exchanges with `MPI_Sendrecv` and
//!   non-blocking pairs) and per-step energy `MPI_Allreduce`s, with a
//!   higher output frequency (periodic gathers). The paper: "scaling and
//!   runtime … is highly sensitive to MPI_Allreduce latencies and
//!   exchange operations in FFT computation"; BG/P's collective network
//!   yields "relatively higher parallel efficiencies".

use crate::price_one;
use hpcsim_machine::{ExecMode, MachineSpec, Workload};
use hpcsim_mpi::{CommId, FnProgram, Mpi, Op, SimConfig, SimResult, TraceSim};
use hpcsim_net::DType;
use hpcsim_topo::Grid3D;
use serde::Serialize;

/// Which MD code's communication structure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MdCode {
    /// Spatial decomposition, neighbour exchanges only.
    Lammps,
    /// Particle-mesh Ewald with FFT transposes and frequent reductions.
    Pmemd,
}

/// MD proxy configuration (defaults: the paper's RuBisCO system).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MdConfig {
    /// Which code.
    pub code: MdCode,
    /// Atom count (RuBisCO with explicit solvent: 290,220).
    pub atoms: u64,
    /// Average neighbours per atom inside the 10–11 Å cutoffs.
    pub neighbors: u64,
    /// PME mesh points per axis (PMEMD only).
    pub pme_mesh: u64,
    /// Steps between trajectory outputs (PMEMD ran with a higher output
    /// frequency, i.e. a smaller number here).
    pub output_every: u32,
    /// Timesteps to simulate.
    pub steps: u32,
}

impl MdConfig {
    /// LAMMPS on RuBisCO.
    pub fn lammps_rub() -> Self {
        MdConfig {
            code: MdCode::Lammps,
            atoms: 290_220,
            neighbors: 190,
            pme_mesh: 0,
            output_every: 100,
            steps: 8,
        }
    }

    /// AMBER/PMEMD on RuBisCO ("relatively higher output frequency").
    pub fn pmemd_rub() -> Self {
        MdConfig {
            code: MdCode::Pmemd,
            atoms: 290_220,
            neighbors: 190,
            pme_mesh: 144,
            output_every: 4,
            steps: 8,
        }
    }
}

/// Result of an MD run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MdResult {
    /// Wall seconds per timestep.
    pub seconds_per_step: f64,
    /// Nanoseconds of simulated time per wall-clock day (1 fs steps).
    pub ns_per_day: f64,
}

impl MdResult {
    /// The per-step rates of a replayed or DAG-evaluated run of `cfg`.
    pub fn of(res: &SimResult, cfg: &MdConfig) -> MdResult {
        let seconds_per_step = res.makespan().as_secs() / cfg.steps as f64;
        // 1 fs per step -> ns/day = 86400 / (s/step) * 1e-6
        MdResult { seconds_per_step, ns_per_day: 86_400.0 / seconds_per_step * 1e-6 }
    }
}

/// The simulator configuration the MD proxy runs on: `ranks` tasks in
/// VN mode with the machine's default placement.
pub fn md_sim_config(machine: &MachineSpec, ranks: usize) -> SimConfig {
    SimConfig::new(machine.clone(), ranks, ExecMode::Vn)
}

/// Record the MD proxy's trace on `ranks` tasks. The trace depends only
/// on the rank count and configuration — not the machine — so one
/// recording serves every machine in a comparison scan.
pub fn md_traces(ranks: usize, cfg: &MdConfig) -> Vec<Vec<Op>> {
    let prog = cfg.clone();
    TraceSim::trace_program(
        &FnProgram(move |mpi: &mut Mpi| {
            let grid = Grid3D::near_cube(mpi.size());
            for step in 0..prog.steps {
                record_step(mpi, &prog, grid, step);
            }
        }),
        ranks,
        1,
    )
}

/// Run the MD proxy on `ranks` tasks in VN mode.
pub fn md_run(machine: &MachineSpec, ranks: usize, cfg: &MdConfig) -> MdResult {
    MdResult::of(&price_one(md_sim_config(machine, ranks), &md_traces(ranks, cfg)), cfg)
}

fn record_step(mpi: &mut Mpi, cfg: &MdConfig, grid: Grid3D, step: u32) {
    let p = mpi.size() as u64;
    let atoms_local = (cfg.atoms / p).max(1);
    let me = mpi.rank();

    // direct-space force evaluation over the neighbour list
    mpi.compute(Workload::MdForce {
        pairs: atoms_local * cfg.neighbors / 2,
        flops_per_pair: 220.0,
    });

    // ghost-atom exchange with the six face neighbours: surface atoms
    // scale as (atoms_local)^(2/3) with a cutoff-deep shell
    let surface_atoms = (atoms_local as f64).powf(2.0 / 3.0).ceil() as u64 * 3;
    let ghost_bytes = (surface_atoms * 4 * 8).max(64); // x,y,z,q per atom
    let tag0 = step * 8;
    let nbrs = grid.face_neighbors(me);
    let mut reqs = Vec::with_capacity(12);
    for (i, &nb) in nbrs.iter().enumerate() {
        reqs.push(mpi.irecv(nb, tag0 + i as u32, ghost_bytes));
    }
    for (i, &nb) in nbrs.iter().enumerate() {
        let opposite = [1u32, 0, 3, 2, 5, 4][i];
        reqs.push(mpi.isend(nb, tag0 + opposite, ghost_bytes));
    }
    mpi.waitall(&reqs);

    match cfg.code {
        MdCode::Lammps => {
            // one small reduction (thermo) per step
            mpi.allreduce(CommId::WORLD, 48, DType::F64);
        }
        MdCode::Pmemd => {
            // charge spreading + 3-D FFT forward/backward: two transpose
            // exchanges over the mesh, plus mesh work
            let mesh_pts = cfg.pme_mesh.pow(3);
            let mesh_local = (mesh_pts / p).max(1);
            mpi.compute(Workload::Fft1d { n: mesh_local.max(64) });
            let bytes_per_pair = (16 * mesh_local / p).max(16);
            mpi.alltoall(CommId::WORLD, bytes_per_pair);
            mpi.compute(Workload::Fft1d { n: mesh_local.max(64) });
            mpi.alltoall(CommId::WORLD, bytes_per_pair);
            // PMEMD's per-step energy/virial reductions (several vectors)
            mpi.allreduce(CommId::WORLD, 8 * 64, DType::F64);
            mpi.allreduce(CommId::WORLD, 8 * 64, DType::F64);
            // periodic trajectory output: gather coordinates to rank 0
            if step.is_multiple_of(cfg.output_every.max(1)) {
                mpi.reduce(CommId::WORLD, atoms_local * 24, DType::F64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_dc};

    fn eff(machine: &MachineSpec, cfg: &MdConfig, lo: usize, hi: usize) -> f64 {
        let t_lo = md_run(machine, lo, cfg).seconds_per_step;
        let t_hi = md_run(machine, hi, cfg).seconds_per_step;
        (t_lo / t_hi) / (hi as f64 / lo as f64)
    }

    /// Fig 8: LAMMPS scales further than PMEMD on the same machine —
    /// "PMEMD scaling is limited due to higher rate of increase in
    /// communication volume".
    #[test]
    fn lammps_outscales_pmemd() {
        for machine in [bluegene_p(), xt4_dc()] {
            let e_l = eff(&machine, &MdConfig::lammps_rub(), 128, 2048);
            let e_p = eff(&machine, &MdConfig::pmemd_rub(), 128, 2048);
            assert!(
                e_l > e_p + 0.05,
                "{}: LAMMPS eff {e_l:.2} vs PMEMD {e_p:.2}",
                machine.id
            );
        }
    }

    /// §III.E: "The collective network of the BG/P results in relatively
    /// higher parallel efficiencies" (PMEMD's Allreduce sensitivity).
    #[test]
    fn bgp_pmemd_efficiency_beats_xt() {
        let e_b = eff(&bluegene_p(), &MdConfig::pmemd_rub(), 128, 2048);
        let e_x = eff(&xt4_dc(), &MdConfig::pmemd_rub(), 128, 2048);
        assert!(e_b > e_x, "BG/P {e_b:.2} vs XT {e_x:.2}");
    }

    /// Absolute per-step time: the XT's faster cores win at moderate
    /// scale.
    #[test]
    fn xt_faster_at_moderate_scale() {
        let b = md_run(&bluegene_p(), 256, &MdConfig::lammps_rub());
        let x = md_run(&xt4_dc(), 256, &MdConfig::lammps_rub());
        assert!(x.seconds_per_step < b.seconds_per_step);
        let ratio = b.seconds_per_step / x.seconds_per_step;
        assert!(ratio < 5.0, "ratio {ratio:.2} should stay moderate");
    }

    /// Output frequency hurts: PMEMD with frequent output is slower than
    /// with rare output.
    #[test]
    fn output_frequency_costs() {
        let frequent = MdConfig::pmemd_rub();
        let rare = MdConfig { output_every: 1000, ..MdConfig::pmemd_rub() };
        let t_f = md_run(&bluegene_p(), 512, &frequent).seconds_per_step;
        let t_r = md_run(&bluegene_p(), 512, &rare).seconds_per_step;
        assert!(t_f > t_r, "frequent {t_f:.2e} vs rare {t_r:.2e}");
    }

    /// ns/day sanity: hundreds of atoms per rank at 1 fs steps lands in
    /// the 0.1–10 ns/day band of 2008-era MD.
    #[test]
    fn ns_per_day_plausible() {
        let r = md_run(&xt4_dc(), 1024, &MdConfig::lammps_rub());
        assert!(r.ns_per_day > 0.5 && r.ns_per_day < 30.0, "{} ns/day", r.ns_per_day);
    }
}
