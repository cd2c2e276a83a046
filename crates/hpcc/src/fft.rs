//! HPCC MPI-parallel 1-D FFT (Figure 1b).
//!
//! The classic distributed large-FFT algorithm: view the N-point vector
//! as an n1×n2 matrix, local FFTs along one axis, a global Alltoall
//! transpose, twiddle + local FFTs along the other axis, and a final
//! transpose back. Communication is two full Alltoalls — which is why the
//! benchmark "stresses a system's memory hierarchy and network more than
//! HPL" (§II.A.3).

use crate::price;
use hpcsim_machine::{ExecMode, MachineSpec, Workload};
use hpcsim_mpi::{CommId, FnProgram, Mpi, Op, SimConfig, SimResult, TraceSim};
use serde::Serialize;

/// Result of an MPI FFT run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FftResult {
    /// Total vector length.
    pub n: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Sustained GFlop/s (5·N·log₂N over wall time).
    pub gflops: f64,
}

/// Problem size from memory: HPCC sizes the FFT vector at roughly an
/// eighth of the HPL matrix footprint. We use `mem_fraction` of aggregate
/// memory in 16-byte complex elements, rounded down to a power of two.
pub fn fft_problem_size(machine: &MachineSpec, ranks: usize, mode: ExecMode, mem_fraction: f64) -> u64 {
    let per_task = mode.mem_per_task(machine.mem.capacity_bytes(), machine.cores_per_node);
    let elems = (per_task * ranks as f64 * mem_fraction / 16.0) as u64;
    if elems == 0 {
        return 1;
    }
    1u64 << (63 - elems.leading_zeros() as u64)
}

impl FftResult {
    /// The rate of a priced run of an `n`-point FFT.
    pub fn of(res: &SimResult, n: u64) -> FftResult {
        let seconds = res.makespan().as_secs();
        let flops = 5.0 * n as f64 * (n as f64).log2();
        FftResult { n, seconds, gflops: flops / seconds / 1e9 }
    }
}

/// Record the distributed FFT of `n` points over `ranks` tasks.
pub fn fft_traces(ranks: usize, n: u64) -> Vec<Vec<Op>> {
    let local = (n / ranks as u64).max(1);
    let record = FnProgram(move |mpi: &mut Mpi| {
        let p = mpi.size() as u64;
        // bytes each rank exchanges with each other rank per transpose
        let bytes_per_pair = (16 * local / p).max(16);
        // local FFTs along axis 1 (each rank: `local` points in rows)
        mpi.compute(Workload::Fft1d { n: local });
        mpi.alltoall(CommId::WORLD, bytes_per_pair);
        // twiddle scaling + local FFTs along axis 2
        mpi.compute(Workload::Custom {
            flops: 6.0 * local as f64,
            dram_bytes: 16.0 * local as f64,
            simd_eff: 0.5,
            serial_frac: 0.0,
        });
        mpi.compute(Workload::Fft1d { n: local });
        mpi.alltoall(CommId::WORLD, bytes_per_pair);
    });
    TraceSim::trace_program(&record, ranks, 1)
}

/// Run the distributed FFT of `n` points over `ranks` tasks.
pub fn fft_run(machine: &MachineSpec, mode: ExecMode, ranks: usize, n: u64) -> FftResult {
    let point = SimConfig::new(machine.clone(), ranks, mode);
    FftResult::of(&price(&[point], &fft_traces(ranks, n), &[])[0], n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    #[test]
    fn problem_size_is_power_of_two() {
        let n = fft_problem_size(&bluegene_p(), 256, ExecMode::Vn, 0.3);
        assert!(n.is_power_of_two());
        assert!(n > 1 << 28, "n = {n}");
    }

    /// Fig 1(b): the XT's larger problem and memory bandwidth give it
    /// higher FFT throughput at equal process counts.
    #[test]
    fn xt_wins_fft_at_equal_ranks() {
        let ranks = 256;
        let n_b = fft_problem_size(&bluegene_p(), ranks, ExecMode::Vn, 0.3);
        let n_x = fft_problem_size(&xt4_qc(), ranks, ExecMode::Vn, 0.3);
        assert!(n_x > n_b);
        let b = fft_run(&bluegene_p(), ExecMode::Vn, ranks, n_b);
        let x = fft_run(&xt4_qc(), ExecMode::Vn, ranks, n_x);
        assert!(x.gflops > b.gflops, "XT {:.1} vs BG/P {:.1}", x.gflops, b.gflops);
    }

    /// Both systems scale: 4× the ranks on 4× the data gives ≥2.4× rate.
    #[test]
    fn fft_scales() {
        let m = bluegene_p();
        let a = fft_run(&m, ExecMode::Vn, 64, 1 << 28);
        let b = fft_run(&m, ExecMode::Vn, 256, 1 << 30);
        let s = b.gflops / a.gflops;
        assert!(s > 2.4, "scaling {s:.2}");
    }
}
