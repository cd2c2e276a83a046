//! Replay results and derived metrics.

use hpcsim_engine::SimTime;
use serde::Serialize;

/// A diagnosed replay failure under fault injection. The replay engine
/// raises these instead of wedging its event queue: a stuck message is
/// named (rank, peer, tag, size) so the operator can see *which* traffic
/// the fault plan killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A message exhausted its retransmit budget.
    Stalled {
        /// Sending rank (the one that gives up).
        rank: usize,
        /// Destination rank.
        peer: usize,
        /// MPI tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
        /// Consecutive lost attempts observed.
        lost: u32,
        /// Index of the originating send in the rank's program trace.
        op: usize,
    },
    /// Link outages cut every route between two ranks' nodes.
    Unreachable {
        /// Sending rank.
        rank: usize,
        /// Destination rank.
        peer: usize,
        /// MPI tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// The event queue kept cycling without the clock advancing: the
    /// step-budget watchdog tripped. Unlike [`SimError::Stalled`] (a
    /// diagnosed protocol dead end) this names a scheduling livelock —
    /// the engine was still busy, just not going anywhere.
    Livelock {
        /// Rank whose event tripped the watchdog.
        rank: usize,
        /// Events processed since the clock last advanced.
        steps: u64,
    },
    /// The event queue drained with ranks still blocked: a structural
    /// deadlock (e.g. a receive nobody sends to, or mismatched
    /// collective participation).
    Deadlock {
        /// How many ranks never finished.
        unfinished: usize,
        /// Example stuck rank.
        rank: usize,
        /// That rank's program op index.
        op: usize,
    },
    /// Two members recorded different collectives at the same sequence
    /// slot on one communicator.
    CollectiveMismatch {
        /// Rank whose collective disagreed with an earlier member's.
        rank: usize,
        /// The communicator id.
        comm: u32,
        /// The disagreeing rank's program op index.
        op: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { rank, peer, tag, bytes, lost, op } => write!(
                f,
                "rank {rank} stalled at op {op}: message to rank {peer} (tag {tag}, {bytes} \
                 bytes) lost {lost} times; retransmit budget exhausted"
            ),
            SimError::Unreachable { rank, peer, tag, bytes } => write!(
                f,
                "rank {rank}: no surviving route to rank {peer} (tag {tag}, {bytes} bytes); \
                 destination cut off by link outages"
            ),
            SimError::Livelock { rank, steps } => write!(
                f,
                "livelock: event queue cycled {steps} steps without clock progress \
                 (last event on rank {rank}); step-budget watchdog tripped"
            ),
            // keep the historical panic text: `TraceSim::replay` panics with
            // exactly this Display, and callers match on "deadlock"
            SimError::Deadlock { unfinished, rank, op } => write!(
                f,
                "deadlock: {unfinished} ranks did not finish, e.g. rank {rank} at op {op}"
            ),
            SimError::CollectiveMismatch { rank, comm, op } => {
                write!(f, "rank {rank}: collective mismatch on comm {comm} at op {op}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one replay.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// Per-rank completion time.
    pub finish: Vec<SimTime>,
    /// Per-rank time spent in compute/delay (the rest is communication
    /// and waiting).
    pub busy: Vec<SimTime>,
    /// Total payload bytes sent over point-to-point messages.
    pub bytes_sent: u64,
    /// Total point-to-point message count.
    pub messages: u64,
    /// Per-rank `(label, time)` marks recorded by the program.
    pub marks: Vec<Vec<(u32, SimTime)>>,
}

impl SimResult {
    /// Wall-clock of the whole job: the last rank's finish time.
    pub fn makespan(&self) -> SimTime {
        self.finish.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Mean fraction of the makespan ranks spent computing — the
    /// utilization the power model charges dynamic energy for.
    pub fn mean_utilization(&self) -> f64 {
        let span = self.makespan().as_secs();
        if span <= 0.0 || self.finish.is_empty() {
            return 0.0;
        }
        let total_busy: f64 = self.busy.iter().map(|t| t.as_secs()).sum();
        (total_busy / (span * self.finish.len() as f64)).clamp(0.0, 1.0)
    }

    /// Time of rank `rank`'s mark with label `id` (first occurrence).
    pub fn mark(&self, rank: usize, id: u32) -> Option<SimTime> {
        self.marks.get(rank)?.iter().find(|(l, _)| *l == id).map(|&(_, t)| t)
    }

    /// Duration between two marks on one rank.
    pub fn mark_span(&self, rank: usize, from: u32, to: u32) -> Option<SimTime> {
        let a = self.mark(rank, from)?;
        let b = self.mark(rank, to)?;
        Some(b.saturating_sub(a))
    }

    /// Spread between the earliest and latest rank finish — a load
    /// imbalance indicator.
    pub fn finish_skew(&self) -> SimTime {
        let max = self.finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        let min = self.finish.iter().copied().min().unwrap_or(SimTime::ZERO);
        max.saturating_sub(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SimResult {
        SimResult {
            finish: vec![SimTime::from_us(10), SimTime::from_us(20)],
            busy: vec![SimTime::from_us(5), SimTime::from_us(10)],
            bytes_sent: 100,
            messages: 2,
            marks: vec![vec![(1, SimTime::from_us(2)), (2, SimTime::from_us(8))], vec![]],
        }
    }

    #[test]
    fn makespan_is_max_finish() {
        assert_eq!(result().makespan(), SimTime::from_us(20));
    }

    #[test]
    fn utilization_is_busy_over_span() {
        // (5 + 10) / (20 * 2) = 0.375
        assert!((result().mean_utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_safe() {
        let r =
            SimResult { finish: vec![], busy: vec![], bytes_sent: 0, messages: 0, marks: vec![] };
        assert_eq!(r.makespan(), SimTime::ZERO);
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.finish_skew(), SimTime::ZERO);
    }

    #[test]
    fn marks_and_spans() {
        let r = result();
        assert_eq!(r.mark(0, 2), Some(SimTime::from_us(8)));
        assert_eq!(r.mark(1, 1), None);
        assert_eq!(r.mark_span(0, 1, 2), Some(SimTime::from_us(6)));
    }

    #[test]
    fn skew() {
        assert_eq!(result().finish_skew(), SimTime::from_us(10));
    }
}
