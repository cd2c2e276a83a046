//! Intel MPI Benchmark: Allreduce and Bcast sweeps (Figure 3).
//!
//! The IMB convention: run the operation `reps` times back-to-back and
//! report mean latency. We sweep message size at fixed process count
//! (Fig 3a/c) and process count at fixed 32 KiB payload (Fig 3b/d), with
//! the single- vs double-precision Allreduce distinction from §II.B.2.

use crate::price;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{CommId, FnProgram, Mpi, Op, SimConfig, SimResult, TraceSim};
use hpcsim_net::DType;
use serde::Serialize;

/// One measured point of an IMB sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ImbPoint {
    /// Ranks participating.
    pub ranks: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Mean operation latency, microseconds.
    pub usec: f64,
}

/// Back-to-back rounds one IMB point averages over.
const IMB_REPS: u32 = 4;

impl ImbPoint {
    /// The mean latency of a priced `imb_*_traces(ranks, bytes, ..)` run.
    pub fn of(res: &SimResult, ranks: usize, bytes: u64) -> ImbPoint {
        ImbPoint { ranks, bytes, usec: res.makespan().as_secs() / IMB_REPS as f64 * 1e6 }
    }
}

/// Record [`IMB_REPS`] back-to-back rounds of `round` on `ranks` tasks.
fn imb_traces(ranks: usize, round: impl Fn(&mut Mpi) + Sync) -> Vec<Vec<Op>> {
    let record = FnProgram(move |mpi: &mut Mpi| {
        for _ in 0..IMB_REPS {
            round(mpi);
        }
    });
    TraceSim::trace_program(&record, ranks, 1)
}

/// Record the IMB Allreduce of `bytes` of `dtype` on `ranks` tasks.
pub fn imb_allreduce_traces(ranks: usize, bytes: u64, dtype: DType) -> Vec<Vec<Op>> {
    imb_traces(ranks, move |mpi| mpi.allreduce(CommId::WORLD, bytes, dtype))
}

/// Record the IMB Bcast of `bytes` on `ranks` tasks.
pub fn imb_bcast_traces(ranks: usize, bytes: u64) -> Vec<Vec<Op>> {
    imb_traces(ranks, move |mpi| mpi.bcast(CommId::WORLD, bytes))
}

/// IMB Allreduce latency at one (ranks, bytes) point.
pub fn imb_allreduce(
    machine: &MachineSpec,
    mode: ExecMode,
    ranks: usize,
    bytes: u64,
    dtype: DType,
) -> ImbPoint {
    let point = SimConfig::new(machine.clone(), ranks, mode);
    let traces = imb_allreduce_traces(ranks, bytes, dtype);
    ImbPoint::of(&price(&[point], &traces, &[])[0], ranks, bytes)
}

/// IMB Bcast latency at one (ranks, bytes) point.
pub fn imb_bcast(machine: &MachineSpec, mode: ExecMode, ranks: usize, bytes: u64) -> ImbPoint {
    let point = SimConfig::new(machine.clone(), ranks, mode);
    ImbPoint::of(&price(&[point], &imb_bcast_traces(ranks, bytes), &[])[0], ranks, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    /// Fig 3(c): BG/P "dramatically outperforms the Cray XT for all
    /// message sizes" on Bcast.
    #[test]
    fn bcast_bgp_dominates_all_sizes() {
        for bytes in [8u64, 1024, 32 * 1024, 1 << 20] {
            let b = imb_bcast(&bluegene_p(), ExecMode::Vn, 512, bytes);
            let x = imb_bcast(&xt4_qc(), ExecMode::Vn, 512, bytes);
            assert!(
                b.usec < x.usec,
                "bytes={bytes}: BG/P {:.1}us vs XT {:.1}us",
                b.usec,
                x.usec
            );
        }
    }

    /// Fig 3(a): at 32 KiB the BG/P double-precision Allreduce beats the
    /// XT; its single-precision variant does not enjoy the tree.
    #[test]
    fn allreduce_precision_story() {
        let ranks = 512;
        let bytes = 32 * 1024;
        let b_dp = imb_allreduce(&bluegene_p(), ExecMode::Vn, ranks, bytes, DType::F64);
        let b_sp = imb_allreduce(&bluegene_p(), ExecMode::Vn, ranks, bytes, DType::F32);
        let x_dp = imb_allreduce(&xt4_qc(), ExecMode::Vn, ranks, bytes, DType::F64);
        assert!(b_dp.usec < x_dp.usec, "DP: BG/P {:.1} vs XT {:.1}", b_dp.usec, x_dp.usec);
        assert!(b_sp.usec > 2.0 * b_dp.usec, "SP {:.1} vs DP {:.1}", b_sp.usec, b_dp.usec);
    }

    /// Fig 3(b,d): latency grows slowly with process count on BG/P.
    #[test]
    fn scaling_in_process_count() {
        let bytes = 32 * 1024;
        let small = imb_allreduce(&bluegene_p(), ExecMode::Vn, 64, bytes, DType::F64);
        let large = imb_allreduce(&bluegene_p(), ExecMode::Vn, 2048, bytes, DType::F64);
        assert!(large.usec < small.usec * 1.8, "{} -> {}", small.usec, large.usec);
    }

    /// Latency grows with message size for both operations.
    #[test]
    fn monotone_in_bytes() {
        let a = imb_bcast(&bluegene_p(), ExecMode::Vn, 128, 8);
        let b = imb_bcast(&bluegene_p(), ExecMode::Vn, 128, 1 << 20);
        assert!(b.usec > a.usec * 10.0);
    }
}
