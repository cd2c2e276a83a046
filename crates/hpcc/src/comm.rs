//! HPCC communication probes: ping-pong and the random-ring tests.
//!
//! Table 2's communication rows. The random-ring test is the harsh one:
//! every rank exchanges with ring neighbours under a random permutation,
//! so messages take long, contended routes — near-neighbour hardware
//! can't help. The paper reads these as "the BG/P network's strength is
//! low-latency communication whereas the XT's strength is high-bandwidth
//! communication".

use crate::price;
use hpcsim_engine::DetRng;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{FnProgram, Mpi, Op, SimConfig, SimResult, TraceSim};
use serde::Serialize;

/// Record `reps` ping-pong round trips of `bytes` between ranks 0 and 1.
pub fn pingpong_traces(bytes: u64, reps: u32) -> Vec<Vec<Op>> {
    let record = FnProgram(move |mpi: &mut Mpi| {
        for i in 0..reps {
            if mpi.rank() == 0 {
                mpi.send(1, i, bytes);
                mpi.recv(1, 1000 + i, bytes);
            } else {
                mpi.recv(0, i, bytes);
                mpi.send(0, 1000 + i, bytes);
            }
        }
    });
    TraceSim::trace_program(&record, 2, 1)
}

/// Round trips of the small- and the large-payload ping-pong run.
pub const PINGPONG_REPS: [u32; 2] = [8, 4];

/// (one-way latency seconds, bandwidth bytes/s) of priced small- and
/// `large_bytes`-payload ping-pong runs ([`PINGPONG_REPS`] round trips).
pub fn pingpong_of(small: &SimResult, large: &SimResult, large_bytes: u64) -> (f64, f64) {
    let one_way = |res: &SimResult, reps: u32| res.makespan().as_secs() / reps as f64 / 2.0;
    let t_large = one_way(large, PINGPONG_REPS[1]);
    (one_way(small, PINGPONG_REPS[0]), large_bytes as f64 / t_large)
}

/// Ping-pong between ranks 0 and 1: returns (one-way latency seconds,
/// bandwidth bytes/s) measured with `small` and `large` payloads.
pub fn pingpong(machine: &MachineSpec, small: u64, large: u64) -> (f64, f64) {
    let point = [SimConfig::new(machine.clone(), 2, ExecMode::Smp)];
    let [s, l] = [(small, PINGPONG_REPS[0]), (large, PINGPONG_REPS[1])]
        .map(|(bytes, reps)| price(&point, &pingpong_traces(bytes, reps), &[]).remove(0));
    pingpong_of(&s, &l, large)
}

/// Result of a ring test.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RingResult {
    /// Mean one-way small-message latency, seconds.
    pub latency_s: f64,
    /// Per-rank large-message bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl RingResult {
    /// The ring metrics of priced `small`- and `large`-byte ring runs.
    pub fn of(small: &SimResult, large: &SimResult, large_bytes: u64) -> RingResult {
        // each run makes two exchanges
        let latency_s = small.makespan().as_secs() / 2.0;
        RingResult { latency_s, bandwidth: large_bytes as f64 / (large.makespan().as_secs() / 2.0) }
    }
}

/// Record one HPCC random-ring run of `bytes`-byte messages: ranks
/// permuted by `seed`, each exchanges with its ring neighbours.
pub fn random_ring_traces(ranks: usize, bytes: u64, seed: u64) -> Vec<Vec<Op>> {
    // one shared random permutation
    let mut perm: Vec<usize> = (0..ranks).collect();
    let mut rng = DetRng::new(seed, 0x52494E47); // "RING"
    for i in (1..ranks).rev() {
        let j = rng.next_below((i + 1) as u64) as usize;
        perm.swap(i, j);
    }
    let mut pos_of = vec![0usize; ranks];
    for (pos, &r) in perm.iter().enumerate() {
        pos_of[r] = pos;
    }
    let record = FnProgram(move |mpi: &mut Mpi| {
        let n = mpi.size();
        let pos = pos_of[mpi.rank()];
        let next = perm[(pos + 1) % n];
        let prev = perm[(pos + n - 1) % n];
        mpi.sendrecv(next, 7, bytes, prev, 7, bytes);
        mpi.sendrecv(prev, 8, bytes, next, 8, bytes);
    });
    TraceSim::trace_program(&record, ranks, 1)
}

/// HPCC random-ring: ranks permuted randomly, each exchanges with its
/// ring neighbours (`small`-byte messages for latency, `large` for
/// bandwidth).
pub fn random_ring(
    machine: &MachineSpec,
    mode: ExecMode,
    ranks: usize,
    small: u64,
    large: u64,
    seed: u64,
) -> RingResult {
    let point = [SimConfig::new(machine.clone(), ranks, mode)];
    let [s, l] = [small, large]
        .map(|bytes| price(&point, &random_ring_traces(ranks, bytes, seed), &[]).remove(0));
    RingResult::of(&s, &l, large)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    /// Table 2: BG/P strength = latency; XT strength = bandwidth.
    #[test]
    fn latency_vs_bandwidth_split() {
        let (lat_b, bw_b) = pingpong(&bluegene_p(), 8, 1 << 21);
        let (lat_x, bw_x) = pingpong(&xt4_qc(), 8, 1 << 21);
        assert!(lat_b < lat_x, "latency: BG/P {lat_b:.2e} vs XT {lat_x:.2e}");
        assert!(bw_x > bw_b, "bandwidth: XT {bw_x:.3e} vs BG/P {bw_b:.3e}");
        // plausible magnitudes: microseconds and hundreds of MB/s – GB/s
        assert!(lat_b > 0.5e-6 && lat_b < 10e-6);
        assert!(bw_b > 200e6 && bw_b < 500e6);
        assert!(bw_x > 1e9);
    }

    /// Random-ring latency grows with scale (longer average routes) and
    /// stays lower on BG/P.
    #[test]
    fn random_ring_latency_ordering() {
        let b = random_ring(&bluegene_p(), ExecMode::Vn, 512, 8, 1 << 20, 1);
        let x = random_ring(&xt4_qc(), ExecMode::Vn, 512, 8, 1 << 20, 1);
        assert!(b.latency_s < x.latency_s);
        assert!(x.bandwidth > b.bandwidth);
    }

    #[test]
    fn random_ring_deterministic_per_seed() {
        let a = random_ring(&bluegene_p(), ExecMode::Vn, 128, 8, 1 << 18, 5);
        let b = random_ring(&bluegene_p(), ExecMode::Vn, 128, 8, 1 << 18, 5);
        assert_eq!(a.latency_s, b.latency_s);
        assert_eq!(a.bandwidth, b.bandwidth);
    }
}
