//! Trace operations.
//!
//! The vocabulary a rank program records. Kept deliberately small: the
//! replay engine implements blocking operations in terms of the
//! non-blocking ones exactly as real MPI implementations do.

use hpcsim_engine::SimTime;
use hpcsim_machine::Workload;
use hpcsim_net::CollectiveOp;
use serde::{Deserialize, Serialize};

/// A communicator handle. `CommId(0)` is `MPI_COMM_WORLD`; sub-
/// communicators are registered with the simulator before the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommId(pub u32);

impl CommId {
    /// The world communicator.
    pub const WORLD: CommId = CommId(0);
}

/// A request handle returned by the non-blocking operations; local to the
/// issuing rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Req(pub u32);

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Op {
    /// Local computation described symbolically; the engine prices it via
    /// the node model with the run's execution mode and `threads`.
    Compute {
        /// What is computed.
        work: Workload,
        /// OpenMP threads used for this block.
        threads: u32,
    },
    /// A fixed local delay (I/O stubs, imposed imbalance, …).
    Delay {
        /// Duration of the delay.
        time: SimTime,
    },
    /// Non-blocking send of `bytes` to world rank `dst`.
    Isend {
        /// Destination world rank.
        dst: usize,
        /// Match tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Request slot.
        req: Req,
    },
    /// Non-blocking receive of `bytes` from world rank `src`.
    Irecv {
        /// Source world rank.
        src: usize,
        /// Match tag.
        tag: u32,
        /// Payload bytes (must match the send).
        bytes: u64,
        /// Request slot.
        req: Req,
    },
    /// Block until `req` completes.
    Wait {
        /// The request to complete.
        req: Req,
    },
    /// A collective over `comm`; every member must record the same
    /// sequence of collectives on a given communicator.
    Collective {
        /// The communicator.
        comm: CommId,
        /// Which collective and payload.
        op: CollectiveOp,
    },
    /// Record this rank's current virtual time under a label (phase
    /// timers, à la POP's barotropic/baroclinic breakdown).
    Mark {
        /// Program-defined label.
        id: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_comm_zero() {
        assert_eq!(CommId::WORLD, CommId(0));
    }

    #[test]
    fn ops_are_small() {
        // Recordings hold millions of ops at 40k ranks: the arena keeps
        // each one packed in 16 bytes; `Op` is only the decoded view.
        assert_eq!(std::mem::size_of::<crate::traces::Packed>(), 16);
        assert!(std::mem::size_of::<Op>() <= 64, "Op grew to {} bytes", std::mem::size_of::<Op>());
    }
}
