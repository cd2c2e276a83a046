//! The rank-program API: what application and benchmark code writes
//! against. Looks like MPI, records a trace.

use crate::ops::{CommId, Op, Req};
use hpcsim_engine::SimTime;
use hpcsim_machine::Workload;
use hpcsim_net::{CollectiveOp, DType};

/// A program executed (logically) by every rank. Implementations must be
/// deterministic functions of `(rank, size)` and their own configuration.
pub trait Program: Sync {
    /// Record rank `mpi.rank()`'s operations.
    fn run(&self, mpi: &mut Mpi);
}

/// Adapter: any `Fn(&mut Mpi)` closure is a program.
pub struct FnProgram<F: Fn(&mut Mpi) + Sync>(pub F);

impl<F: Fn(&mut Mpi) + Sync> Program for FnProgram<F> {
    fn run(&self, mpi: &mut Mpi) {
        (self.0)(mpi)
    }
}

/// Per-rank recording handle.
#[derive(Debug)]
pub struct Mpi {
    rank: usize,
    size: usize,
    default_threads: u32,
    next_req: u32,
    ops: Vec<Op>,
}

impl Mpi {
    /// Fresh recorder for `rank` of `size` ranks; compute blocks default
    /// to `default_threads` OpenMP threads.
    pub fn new(rank: usize, size: usize, default_threads: u32) -> Self {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        Mpi { rank, size, default_threads, next_req: 0, ops: Vec::new() }
    }

    /// This rank's id in `MPI_COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Reserve room for `ops` more operations, so a recorder told its
    /// trace length up front stores it without growth slack.
    pub(crate) fn reserve(&mut self, ops: usize) {
        self.ops.reserve_exact(ops);
    }

    /// Consume the recorder, yielding the trace.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }

    /// Number of recorded operations (tests/diagnostics).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn fresh_req(&mut self) -> Req {
        let r = Req(self.next_req);
        self.next_req += 1;
        r
    }

    // ---- local work -----------------------------------------------------

    /// Record a compute block with the run's default thread count.
    pub fn compute(&mut self, work: Workload) {
        self.ops.push(Op::Compute { work, threads: self.default_threads });
    }

    /// Record a compute block with an explicit thread count.
    pub fn compute_threads(&mut self, work: Workload, threads: u32) {
        self.ops.push(Op::Compute { work, threads });
    }

    /// Record a fixed delay.
    pub fn delay(&mut self, time: SimTime) {
        self.ops.push(Op::Delay { time });
    }

    /// Record a phase-timer mark (the replay stores this rank's virtual
    /// time under `id`).
    pub fn mark(&mut self, id: u32) {
        self.ops.push(Op::Mark { id });
    }

    // ---- point-to-point -------------------------------------------------

    /// Non-blocking send; complete with [`Mpi::wait`].
    pub fn isend(&mut self, dst: usize, tag: u32, bytes: u64) -> Req {
        debug_assert!(dst < self.size, "isend to rank {dst} of {}", self.size);
        let req = self.fresh_req();
        self.ops.push(Op::Isend { dst, tag, bytes, req });
        req
    }

    /// Non-blocking receive; complete with [`Mpi::wait`].
    pub fn irecv(&mut self, src: usize, tag: u32, bytes: u64) -> Req {
        debug_assert!(src < self.size, "irecv from rank {src} of {}", self.size);
        let req = self.fresh_req();
        self.ops.push(Op::Irecv { src, tag, bytes, req });
        req
    }

    /// Block until `req` completes.
    pub fn wait(&mut self, req: Req) {
        self.ops.push(Op::Wait { req });
    }

    /// Block until every request in `reqs` completes.
    pub fn waitall(&mut self, reqs: &[Req]) {
        for &r in reqs {
            self.ops.push(Op::Wait { req: r });
        }
    }

    /// Blocking send (`MPI_Send`): isend + immediate wait.
    pub fn send(&mut self, dst: usize, tag: u32, bytes: u64) {
        let r = self.isend(dst, tag, bytes);
        self.wait(r);
    }

    /// Blocking receive (`MPI_Recv`): irecv + immediate wait.
    pub fn recv(&mut self, src: usize, tag: u32, bytes: u64) {
        let r = self.irecv(src, tag, bytes);
        self.wait(r);
    }

    /// `MPI_Sendrecv`: the send and receive proceed concurrently, but the
    /// call returns only when both are done.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u32,
        send_bytes: u64,
        src: usize,
        recv_tag: u32,
        recv_bytes: u64,
    ) {
        let r = self.irecv(src, recv_tag, recv_bytes);
        let s = self.isend(dst, send_tag, send_bytes);
        self.wait(r);
        self.wait(s);
    }

    // ---- collectives ----------------------------------------------------

    /// Barrier over `comm`.
    pub fn barrier(&mut self, comm: CommId) {
        self.ops.push(Op::Collective { comm, op: CollectiveOp::Barrier });
    }

    /// Broadcast `bytes` over `comm`.
    pub fn bcast(&mut self, comm: CommId, bytes: u64) {
        self.ops.push(Op::Collective { comm, op: CollectiveOp::Bcast { bytes } });
    }

    /// Allreduce a `bytes`-sized vector of `dtype` over `comm`.
    pub fn allreduce(&mut self, comm: CommId, bytes: u64, dtype: DType) {
        self.ops.push(Op::Collective { comm, op: CollectiveOp::Allreduce { bytes, dtype } });
    }

    /// Reduce to a root over `comm`.
    pub fn reduce(&mut self, comm: CommId, bytes: u64, dtype: DType) {
        self.ops.push(Op::Collective { comm, op: CollectiveOp::Reduce { bytes, dtype } });
    }

    /// Allgather with `bytes_per_rank` contribution over `comm`.
    pub fn allgather(&mut self, comm: CommId, bytes_per_rank: u64) {
        self.ops.push(Op::Collective { comm, op: CollectiveOp::Allgather { bytes_per_rank } });
    }

    /// Alltoall with `bytes_per_pair` per destination over `comm`.
    pub fn alltoall(&mut self, comm: CommId, bytes_per_pair: u64) {
        self.ops.push(Op::Collective { comm, op: CollectiveOp::Alltoall { bytes_per_pair } });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_program_order() {
        let mut mpi = Mpi::new(0, 2, 1);
        mpi.compute(Workload::StreamTriad { n: 10 });
        let r = mpi.isend(1, 7, 100);
        mpi.wait(r);
        let ops = mpi.into_ops();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], Op::Compute { .. }));
        assert!(matches!(ops[1], Op::Isend { dst: 1, tag: 7, bytes: 100, .. }));
        assert!(matches!(ops[2], Op::Wait { .. }));
    }

    #[test]
    fn requests_are_unique() {
        let mut mpi = Mpi::new(0, 4, 1);
        let a = mpi.isend(1, 0, 8);
        let b = mpi.irecv(2, 0, 8);
        let c = mpi.isend(3, 0, 8);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn sendrecv_posts_recv_first() {
        // Posting the receive before the send is the classic deadlock-free
        // ordering; the engine also rewards it (no unexpected-message copy).
        let mut mpi = Mpi::new(0, 2, 1);
        mpi.sendrecv(1, 1, 64, 1, 2, 128);
        let ops = mpi.into_ops();
        assert!(matches!(ops[0], Op::Irecv { .. }));
        assert!(matches!(ops[1], Op::Isend { .. }));
        assert_eq!(ops.len(), 4);
    }

    #[test]
    fn blocking_wrappers_expand() {
        let mut mpi = Mpi::new(1, 2, 1);
        mpi.send(0, 5, 32);
        mpi.recv(0, 6, 32);
        assert_eq!(mpi.op_count(), 4);
    }

    #[test]
    fn collectives_record_comm() {
        let mut mpi = Mpi::new(0, 8, 1);
        mpi.barrier(CommId::WORLD);
        mpi.allreduce(CommId(3), 1024, DType::F64);
        let ops = mpi.into_ops();
        assert!(matches!(ops[0], Op::Collective { comm: CommId(0), .. }));
        assert!(matches!(ops[1], Op::Collective { comm: CommId(3), .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_bounds_checked() {
        let _ = Mpi::new(5, 4, 1);
    }
}
