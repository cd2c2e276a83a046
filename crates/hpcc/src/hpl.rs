//! High Performance Linpack on the simulator.
//!
//! The blocked right-looking factorization over a P×Q process grid,
//! N/NB elimination steps. Each step: the owner column factors the
//! panel, broadcasts it along process rows; pivot rows swap within
//! process columns; the block row of U is broadcast down columns; and
//! every rank runs its share of the trailing DGEMM update. Since steps
//! shrink smoothly as the factorization proceeds, we simulate a sample
//! of steps across the progress axis and integrate — the same flop
//! accounting HPL's own projections use (total flops = 2N³/3 + lower
//! order).

use hpcsim_machine::{ExecMode, MachineSpec, Workload};
use hpcsim_mpi::{CommId, FnProgram, Mpi, SimResult, TraceSim, Traces};
use hpcsim_net::DType;
use hpcsim_topo::Grid2D;
use serde::Serialize;

/// HPL run configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HplConfig {
    /// Matrix order.
    pub n: u64,
    /// Panel width.
    pub nb: u64,
    /// Process grid (P rows × Q cols); `P·Q` = ranks.
    pub grid: Grid2D,
    /// Progress-axis sample count for the step integration.
    pub samples: usize,
}

/// Result of an HPL run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HplResult {
    /// Wall time of the factorization + solve, seconds.
    pub seconds: f64,
    /// Sustained GFlop/s (2N³/3 + 3N²/2 over wall time).
    pub gflops: f64,
    /// Fraction of machine peak.
    pub efficiency: f64,
}

/// HPCC guidance: a problem filling `mem_fraction` of aggregate memory.
pub fn hpl_problem_size(
    machine: &MachineSpec,
    ranks: usize,
    mode: ExecMode,
    mem_fraction: f64,
) -> u64 {
    let per_task = mode.mem_per_task(machine.mem.capacity_bytes(), machine.cores_per_node);
    let total = per_task * ranks as f64 * mem_fraction;
    ((total / 8.0).sqrt() as u64 / 2) * 2
}

/// Simulate one sampled elimination step at progress `f ∈ [0,1)` and
/// return nothing — ops are recorded into `mpi`.
#[allow(clippy::too_many_arguments)]
fn record_step(mpi: &mut Mpi, cfg: &HplConfig, row_comm: CommId, col_comm: CommId, f: f64) {
    let p = cfg.grid.rows as f64;
    let q = cfg.grid.cols as f64;
    let rem = (cfg.n as f64 * (1.0 - f)).max(cfg.nb as f64); // remaining order
    let rows_local = (rem / p).ceil() as u64;
    let cols_local = (rem / q).ceil() as u64;
    let nb = cfg.nb;

    // Panel factorization: the owning column's ranks factor an
    // rem×NB panel; ownership round-robins over columns, so charge the
    // amortized 1/Q share to everyone.
    let panel_flops = (2.0 * nb as f64 * nb as f64 * rows_local as f64) / q;
    mpi.compute(Workload::Custom {
        flops: panel_flops,
        dram_bytes: 8.0 * nb as f64 * rows_local as f64 / q,
        simd_eff: 0.5, // pivot search + scaling vectorize poorly
        serial_frac: 0.1,
    });

    // Panel broadcast along the process row.
    let panel_bytes = 8 * rows_local * nb;
    mpi.bcast(row_comm, panel_bytes);

    // Pivot row swaps within the process column: NB rows of the local
    // block width move between column peers.
    let (my_row, my_col) = cfg.grid.pos(mpi.rank());
    if cfg.grid.rows > 1 {
        // ring exchange within the process column: send to the next row,
        // receive from the previous (a matched, deadlock-free pairing)
        let next = cfg.grid.rank((my_row + 1) % cfg.grid.rows, my_col);
        let prev = cfg.grid.rank((my_row + cfg.grid.rows - 1) % cfg.grid.rows, my_col);
        let swap_bytes = 8 * nb * cols_local / cfg.grid.rows as u64;
        mpi.sendrecv(next, 1, swap_bytes.max(8), prev, 1, swap_bytes.max(8));
    }

    // U block-row broadcast down the process column.
    let u_bytes = 8 * nb * cols_local;
    mpi.bcast(col_comm, u_bytes);

    // Trailing update: local share of (rem × rem) -= (rem × NB)(NB × rem).
    mpi.compute(Workload::LuUpdate { m: rows_local, n: cols_local, k: nb });
}

/// Record HPL with `cfg`, with the sub-communicators it uses — one per
/// process row, then one per process column, numbered from `CommId(1)`
/// in that order.
pub fn hpl_traces(cfg: &HplConfig) -> Traces {
    let grid = cfg.grid;
    let rows = (0..grid.rows).map(|r| (0..grid.cols).map(|c| grid.rank(r, c)).collect());
    let cols = (0..grid.cols).map(|c| (0..grid.rows).map(|r| grid.rank(r, c)).collect());
    let comms: Vec<Vec<usize>> = rows.chain(cols).collect();
    let prog = cfg.clone();
    let samples = cfg.samples.max(2);
    let record = FnProgram(move |mpi: &mut Mpi| {
        let (my_row, my_col) = grid.pos(mpi.rank());
        let row_comm = CommId(1 + my_row as u32);
        let col_comm = CommId(1 + (grid.rows + my_col) as u32);
        for s in 0..samples {
            let f = s as f64 / samples as f64;
            record_step(mpi, &prog, row_comm, col_comm, f);
        }
        // final allreduce: residual check
        mpi.allreduce(CommId::WORLD, 8, DType::F64);
    });
    TraceSim::trace_program(&record, grid.size(), 1).with_comms(comms)
}

impl HplResult {
    /// The rates of a priced run of `cfg` on `machine`.
    pub fn of(res: &SimResult, machine: &MachineSpec, cfg: &HplConfig) -> HplResult {
        // The simulated makespan covers `samples` steps spread evenly
        // across the progress axis; the real run has N/NB steps with the
        // same mean per-step cost (by the sampling construction), so scale.
        let steps_total = (cfg.n / cfg.nb).max(1) as f64;
        let seconds = res.makespan().as_secs() * steps_total / cfg.samples.max(2) as f64;
        let flops = 2.0 / 3.0 * (cfg.n as f64).powi(3) + 1.5 * (cfg.n as f64).powi(2);
        let gflops = flops / seconds / 1e9;
        let peak = machine.core_peak_flops() * cfg.grid.size() as f64 / 1e9;
        HplResult { seconds, gflops, efficiency: gflops / peak }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};
    use hpcsim_mpi::{sweep_points, SimConfig};

    fn hpl_run(machine: &MachineSpec, mode: ExecMode, cfg: &HplConfig) -> HplResult {
        let point = SimConfig::new(machine.clone(), cfg.grid.size(), mode);
        let traces = hpl_traces(cfg);
        let res = sweep_points(&[point], &|| &traces, None, None).unwrap();
        HplResult::of(&res[0], machine, cfg)
    }

    fn small_cfg(ranks: usize, n: u64) -> HplConfig {
        HplConfig { n, nb: 96, grid: Grid2D::near_square(ranks), samples: 6 }
    }

    #[test]
    fn problem_size_follows_memory() {
        let bgp = hpl_problem_size(&bluegene_p(), 4096, ExecMode::Vn, 0.8);
        let xt = hpl_problem_size(&xt4_qc(), 4096, ExecMode::Vn, 0.8);
        // XT has 4x the node memory -> 2x the matrix order
        let ratio = xt as f64 / bgp as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
        // BG/P VN 4096 tasks × 0.5 GiB × 0.8 -> N ≈ 0.46M
        assert!(bgp > 400_000 && bgp < 500_000, "N = {bgp}");
    }

    #[test]
    fn hpl_efficiency_in_plausible_band() {
        let cfg = small_cfg(64, 60_000);
        let r = hpl_run(&bluegene_p(), ExecMode::Vn, &cfg);
        assert!(
            r.efficiency > 0.55 && r.efficiency < 0.92,
            "BG/P HPL efficiency {:.3}",
            r.efficiency
        );
    }

    #[test]
    fn xt_outrates_bgp_per_process() {
        let n_bgp = 40_000;
        let r_bgp = hpl_run(&bluegene_p(), ExecMode::Vn, &small_cfg(64, n_bgp));
        let r_xt = hpl_run(&xt4_qc(), ExecMode::Vn, &small_cfg(64, n_bgp * 2));
        let ratio = r_xt.gflops / r_bgp.gflops;
        assert!(
            ratio > 1.8 && ratio < 3.2,
            "XT/BGP HPL ratio {ratio:.2} (clock ratio ~2.5 expected)"
        );
    }

    #[test]
    fn hpl_scales_with_ranks() {
        // weak-ish scaling: 4x ranks with 2x N (constant memory/rank)
        let r64 = hpl_run(&bluegene_p(), ExecMode::Vn, &small_cfg(64, 40_000));
        let r256 = hpl_run(&bluegene_p(), ExecMode::Vn, &small_cfg(256, 80_000));
        let speedup = r256.gflops / r64.gflops;
        assert!(speedup > 3.0, "4x ranks should give >3x rate, got {speedup:.2}");
    }
}
