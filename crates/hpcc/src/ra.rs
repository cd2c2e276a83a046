//! HPCC MPI RandomAccess (Figure 1d).
//!
//! Each rank generates LFSR updates destined (uniformly) for the whole
//! distributed table, buckets them by destination, and routes the buckets
//! — the `RA_SANDIA_OPT2` algorithm the paper also measured does this
//! with a hypercube-style exchange in log₂(p) stages, halving traffic per
//! stage. Local table updates are memory-latency bound. "The RA test is
//! very sensitive to network latency" (§II.A.3). Only the optimized
//! router is modelled: Fig 1(d) plots it.

use hpcsim_machine::Workload;
use hpcsim_mpi::{FnProgram, Mpi, SimResult, TraceSim, Traces};
use serde::Serialize;

/// Result of an MPI RandomAccess run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RaResult {
    /// Total updates routed.
    pub updates: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Billions of updates per second.
    pub gups: f64,
}

impl RaResult {
    /// The update rate of a priced run of `updates_per_rank` updates on
    /// each of `ranks` tasks.
    pub fn of(res: &SimResult, ranks: usize, updates_per_rank: u64) -> RaResult {
        let updates = updates_per_rank * ranks as u64;
        let seconds = res.makespan().as_secs();
        RaResult { updates, seconds, gups: updates as f64 / seconds / 1e9 }
    }
}

/// Record distributed RandomAccess on `ranks` tasks: table of
/// `table_bytes_per_rank` per rank, `updates_per_rank` updates per rank,
/// hypercube routing (the `RA_SANDIA_OPT2` algorithm for power-of-two
/// process counts).
pub fn ra_traces(ranks: usize, table_bytes_per_rank: u64, updates_per_rank: u64) -> Traces {
    let record = FnProgram(move |mpi: &mut Mpi| {
        let p = mpi.size();
        let stages = (p as f64).log2().ceil() as u32;
        // Updates move through log2(p) hypercube stages; each stage
        // exchanges half the in-flight updates with the dimension partner
        // (16 bytes per update: index + value).
        let mut in_flight = updates_per_rank;
        for s in 0..stages {
            let partner = mpi.rank() ^ (1 << s);
            if partner < p {
                let bytes = (in_flight / 2).max(1) * 16;
                mpi.sendrecv(partner, 10 + s, bytes, partner, 10 + s, bytes);
            }
            in_flight = (in_flight / 2).max(1);
        }
        // Local application of the rank's share of all updates.
        mpi.compute(Workload::RandomAccess {
            updates: updates_per_rank,
            table_bytes: table_bytes_per_rank,
        });
    });
    TraceSim::trace_program(&record, ranks, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};
    use hpcsim_machine::{ExecMode, MachineSpec};
    use hpcsim_mpi::{sweep_points, SimConfig};

    fn ra_run(m: &MachineSpec, mode: ExecMode, ranks: usize, table: u64, updates: u64) -> RaResult {
        let point = SimConfig::new(m.clone(), ranks, mode);
        let traces = ra_traces(ranks, table, updates);
        let res = sweep_points(&[point], &|| &traces, None, None);
        RaResult::of(&res.unwrap()[0], ranks, updates)
    }

    /// Fig 1d: "The two systems showed very similar performance and
    /// scalability trends" — RA parity despite different networks.
    #[test]
    fn parity_between_systems() {
        let args = (1u64 << 26, 1u64 << 18);
        let b = ra_run(&bluegene_p(), ExecMode::Vn, 256, args.0, args.1);
        let x = ra_run(&xt4_qc(), ExecMode::Vn, 256, args.0 * 4, args.1);
        let ratio = x.gups / b.gups;
        assert!(ratio > 0.3 && ratio < 3.0, "GUPS ratio {ratio:.2}");
    }

    /// Aggregate GUPS grows with rank count (both systems scaled well).
    #[test]
    fn gups_scales_with_ranks() {
        let m = bluegene_p();
        let small = ra_run(&m, ExecMode::Vn, 64, 1 << 26, 1 << 18);
        let large = ra_run(&m, ExecMode::Vn, 1024, 1 << 26, 1 << 18);
        assert!(large.gups > small.gups * 4.0, "{} -> {}", small.gups, large.gups);
    }

    /// Power-of-two rank counts use the full hypercube; odd sizes must
    /// still terminate (partners beyond p are skipped).
    #[test]
    fn non_power_of_two_ranks() {
        let r = ra_run(&bluegene_p(), ExecMode::Vn, 96, 1 << 24, 1 << 16);
        assert!(r.gups > 0.0);
    }
}
