//! HPCC PTRANS (Figure 1c).
//!
//! `A ← Aᵀ + C` over a P×Q-distributed matrix: every rank exchanges its
//! block with its transpose partner across the grid diagonal, then adds.
//! Pure bisection-bandwidth stress — "exhibits high spatial locality and
//! stresses a system's network bisection bandwidth" (§II.A.3). Figure 1c
//! shows the XT matching BG/P in absolute rate but with far more
//! variability, which the paper attributes to allocator fragmentation —
//! reproduced here via the `Placement` of the run.

use crate::price;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{FnProgram, Mpi, Op, RankLayout, SimConfig, SimResult, TraceSim};
use hpcsim_topo::{Grid2D, Placement};
use serde::Serialize;

/// Result of a PTRANS run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PtransResult {
    /// Matrix order.
    pub n: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Effective transpose bandwidth, GB/s (8·N² bytes over wall time).
    pub gbps: f64,
}

impl PtransResult {
    /// The transpose bandwidth of a priced run of order `n`.
    pub fn of(res: &SimResult, n: u64) -> PtransResult {
        let seconds = res.makespan().as_secs();
        PtransResult { n, seconds, gbps: 8.0 * (n as f64).powi(2) / seconds / 1e9 }
    }
}

/// The simulator configuration of PTRANS on `ranks` tasks: BlueGene
/// machines place by their default; XT machines by `placement` (use
/// `Placement::Fragmented` to reproduce the XT's variability).
pub fn ptrans_sim_config(
    machine: &MachineSpec,
    mode: ExecMode,
    ranks: usize,
    placement: Placement,
) -> SimConfig {
    let layout = if machine.id.is_bluegene() {
        RankLayout::default_for(machine, ranks, mode)
    } else {
        RankLayout::xt(machine, ranks, mode, placement)
    };
    SimConfig { machine: machine.clone(), mode, threads: 1, layout }
}

/// Record PTRANS of order `n` over `ranks` tasks.
pub fn ptrans_traces(ranks: usize, n: u64) -> Vec<Vec<Op>> {
    let grid = Grid2D::near_square(ranks);
    let record = FnProgram(move |mpi: &mut Mpi| {
        let (r, c) = grid.pos(mpi.rank());
        // block owned by this rank
        let block_rows = n / grid.rows as u64;
        let block_cols = n / grid.cols as u64;
        let bytes = 8 * block_rows * block_cols;
        // Transpose partner. The pairing must be an involution or the
        // sendrecv deadlocks: on a square grid it is the true transpose
        // partner (r,c)<->(c,r); on rectangular grids we use the
        // antipodal pairing, which crosses the bisection just as hard.
        let partner = if grid.rows == grid.cols {
            grid.rank(c, r)
        } else {
            grid.size() - 1 - mpi.rank()
        };
        if partner != mpi.rank() {
            mpi.sendrecv(partner, 3, bytes, partner, 3, bytes);
        }
        // local transpose + add: bandwidth-bound, 3 touches per element
        mpi.compute(hpcsim_machine::Workload::Stencil {
            points: block_rows * block_cols,
            flops_per_point: 1.0,
            bytes_per_point: 24.0,
        });
    });
    TraceSim::trace_program(&record, ranks, 1)
}

/// Run PTRANS of order `n` over `ranks` tasks with the given placement.
pub fn ptrans_run(
    machine: &MachineSpec,
    mode: ExecMode,
    ranks: usize,
    n: u64,
    placement: Placement,
) -> PtransResult {
    let point = ptrans_sim_config(machine, mode, ranks, placement);
    PtransResult::of(&price(&[point], &ptrans_traces(ranks, n), &[])[0], n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    const N: u64 = 65_536;

    #[test]
    fn similar_absolute_rates_across_machines() {
        // Fig 1c: "Both systems exhibited similar absolute performance"
        let b = ptrans_run(&bluegene_p(), ExecMode::Vn, 1024, N, Placement::Compact);
        let x = ptrans_run(&xt4_qc(), ExecMode::Vn, 1024, N, Placement::Compact);
        let ratio = x.gbps / b.gbps;
        assert!(ratio > 0.3 && ratio < 4.0, "PTRANS ratio {ratio:.2}");
    }

    #[test]
    fn fragmentation_adds_variability() {
        // Fig 1c: XT runs scatter; different allocations, different rates.
        let rates: Vec<f64> = (0..4)
            .map(|seed| {
                ptrans_run(
                    &xt4_qc(),
                    ExecMode::Vn,
                    256,
                    N,
                    Placement::Fragmented { spread: 2.0, seed },
                )
                .gbps
            })
            .collect();
        let compact = ptrans_run(&xt4_qc(), ExecMode::Vn, 256, N, Placement::Compact).gbps;
        // fragmented runs are slower than compact...
        assert!(rates.iter().all(|&r| r < compact * 1.05), "{rates:?} vs {compact}");
        // ...and not all identical (allocation lottery)
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.005, "variability {:.4}", max / min);
    }

    #[test]
    fn scales_with_ranks() {
        let small = ptrans_run(&bluegene_p(), ExecMode::Vn, 64, N, Placement::Compact);
        let large = ptrans_run(&bluegene_p(), ExecMode::Vn, 1024, N * 4, Placement::Compact);
        assert!(large.gbps > small.gbps * 2.0);
    }
}
