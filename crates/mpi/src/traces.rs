//! The compact recording of a whole program: every rank's ops in one
//! flat arena of 16-byte packed ops.
//!
//! A recording is what a sweep prices: it is replayed, DAG-compiled and
//! embedded in fuzz scenarios. So it is stored once, densely, and
//! decoded on read:
//!
//! * **one arena** of `Packed` ops (16 bytes each, a third of a
//!   decoded [`Op`]) with per-rank offsets, so a rank's ops are one
//!   contiguous slice and a world costs two allocations, not one per
//!   rank;
//! * **interned side tables** for the fat payloads — `(Workload,
//!   threads)` pairs, [`CollectiveOp`]s and byte counts of 2³² or more.
//!   Interning compares `f64` *bits*, not values, so `-0.0` and NaN
//!   payloads survive exactly and [`crate::write_traces`] emits the same
//!   text the ops were recorded from;
//! * **replay sizing** computed while recording: each rank's request
//!   slot count (as prefix offsets) and the replay's event bound, so
//!   readying the replay workspace reads no op;
//! * **the program's sub-communicators**, numbered from `CommId(1)`, so
//!   a recording is self-contained: whatever prices it reads the
//!   communicators from it.
//!
//! [`Op`] stays the decoded view of one op: [`Traces::rank_ops`]
//! produces it, [`TraceBuilder::push`] consumes it.

use crate::ops::{CommId, Op, Req};
use hpcsim_engine::SimTime;
use hpcsim_machine::Workload;
use hpcsim_net::CollectiveOp;
use std::collections::HashMap;
use std::ops::Range;

/// Peers (send destinations, receive sources) must be below this: the
/// packed op keeps a peer in 28 bits, beside the 3-bit kind and the
/// big-bytes flag.
pub const PEER_LIMIT: usize = 1 << 28;

const COMPUTE: u32 = 0;
const DELAY: u32 = 1;
pub(crate) const ISEND: u32 = 2;
pub(crate) const IRECV: u32 = 3;
const WAIT: u32 = 4;
const COLLECTIVE: u32 = 5;
const MARK: u32 = 6;
const KIND_SHIFT: u32 = 29;
/// Set when `c` indexes [`Traces::big_bytes`] instead of holding the
/// byte count itself.
const BIG: u32 = 1 << 28;

/// One packed op. `head` holds the kind (top 3 bits), the big-bytes
/// flag and the peer; the three payload words depend on the kind:
///
/// | kind       | `a`        | `b`          | `c`                      |
/// |------------|------------|--------------|--------------------------|
/// | compute    | work index | —            | —                        |
/// | delay      | —          | ps, low word | ps, high word            |
/// | isend/irecv| tag        | request      | bytes, or big-bytes index|
/// | wait       | —          | request      | —                        |
/// | collective | comm       | —            | collective index         |
/// | mark       | id         | —            | —                        |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed {
    head: u32,
    a: u32,
    b: u32,
    c: u32,
}

impl Packed {
    fn new(kind: u32) -> Packed {
        Packed { head: kind << KIND_SHIFT, a: 0, b: 0, c: 0 }
    }

    #[inline(always)]
    fn kind(self) -> u32 {
        self.head >> KIND_SHIFT
    }

    #[inline(always)]
    fn peer(self) -> usize {
        (self.head & (BIG - 1)) as usize
    }
}

/// A whole program's recording: see the module docs. Built by
/// [`crate::TraceSim::trace_program`], [`crate::parse_traces`] or a
/// [`TraceBuilder`]; read through [`Traces::rank_ops`] and friends.
#[derive(Debug, Clone)]
pub struct Traces {
    ops: Vec<Packed>,
    /// `ops[rank_ofs[r]..rank_ofs[r + 1]]` is rank `r`'s trace.
    rank_ofs: Vec<usize>,
    /// Rank `r`'s request `q` is flat slot `req_base[r] + q`; the last
    /// entry is the total slot count.
    req_base: Vec<usize>,
    works: Vec<(Workload, u32)>,
    colls: Vec<CollectiveOp>,
    big_bytes: Vec<u64>,
    sends: u64,
    collectives: u64,
    comms: Vec<Vec<usize>>,
}

impl Traces {
    /// World size.
    pub fn ranks(&self) -> usize {
        self.rank_ofs.len() - 1
    }

    /// Total op count across all ranks.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Arena positions of rank `r`'s ops.
    #[inline(always)]
    pub(crate) fn rank_range(&self, r: usize) -> Range<usize> {
        self.rank_ofs[r]..self.rank_ofs[r + 1]
    }

    /// Number of ops rank `r` recorded.
    pub fn rank_len(&self, r: usize) -> usize {
        self.rank_ofs[r + 1] - self.rank_ofs[r]
    }

    /// Decode the op at arena position `i` (see [`Traces::rank_range`]).
    #[inline(always)]
    pub(crate) fn op(&self, i: usize) -> Op {
        self.decode(self.ops[i])
    }

    #[inline(always)]
    fn decode(&self, p: Packed) -> Op {
        match p.kind() {
            COMPUTE => {
                let (work, threads) = self.works[p.a as usize];
                Op::Compute { work, threads }
            }
            DELAY => Op::Delay { time: SimTime(p.b as u64 | (p.c as u64) << 32) },
            ISEND => Op::Isend { dst: p.peer(), tag: p.a, bytes: self.bytes(p), req: Req(p.b) },
            IRECV => Op::Irecv { src: p.peer(), tag: p.a, bytes: self.bytes(p), req: Req(p.b) },
            WAIT => Op::Wait { req: Req(p.b) },
            COLLECTIVE => Op::Collective { comm: CommId(p.a), op: self.colls[p.c as usize] },
            _ => Op::Mark { id: p.a },
        }
    }

    #[inline(always)]
    fn bytes(&self, p: Packed) -> u64 {
        if p.head & BIG == 0 {
            p.c as u64
        } else {
            self.big_bytes[p.c as usize]
        }
    }

    /// Rank `r`'s ops, decoded in program order.
    pub fn rank_ops(&self, r: usize) -> impl ExactSizeIterator<Item = Op> + '_ {
        self.ops[self.rank_range(r)].iter().map(move |&p| self.decode(p))
    }

    /// Every rank's ops as its own vector: the per-rank view the
    /// benchmark harness reads. Benchmark-facing; retire with the next
    /// benchmark PR (ROADMAP: "One benchmark record that covers paper
    /// scale, and no dead code").
    pub fn to_rank_vecs(&self) -> Vec<Vec<Op>> {
        (0..self.ranks()).map(|r| self.rank_ops(r).collect()).collect()
    }

    /// Record a world-only program given as one op vector per rank: the
    /// inverse of [`Traces::to_rank_vecs`].
    pub fn from_rank_vecs(ranks: &[Vec<Op>]) -> Traces {
        let mut b = TraceBuilder::new();
        b.reserve(ranks.iter().map(Vec::len).sum());
        for ops in ranks {
            for &op in ops {
                b.push(op);
            }
            b.end_rank();
        }
        b.finish()
    }

    /// The program's sub-communicators, numbered from `CommId(1)`
    /// (`CommId::WORLD` is implicit).
    pub fn comms(&self) -> &[Vec<usize>] {
        &self.comms
    }

    /// Attach the program's sub-communicators (member lists of world
    /// ranks, numbered from `CommId(1)` in order).
    pub fn with_comms(mut self, comms: Vec<Vec<usize>>) -> Traces {
        let n = self.ranks();
        for members in &comms {
            assert!(!members.is_empty(), "empty communicator");
            assert!(members.iter().all(|&r| r < n), "communicator member outside world of {n}");
        }
        self.comms = comms;
        self
    }

    /// Members of communicator `comm` (world included).
    pub(crate) fn comm_size(&self, comm: usize) -> usize {
        if comm == 0 {
            self.ranks()
        } else {
            self.comms[comm - 1].len()
        }
    }

    /// The `k`-th member of communicator `comm` (world included).
    #[inline(always)]
    pub(crate) fn comm_member(&self, comm: usize, k: usize) -> usize {
        if comm == 0 {
            k
        } else {
            self.comms[comm - 1][k]
        }
    }

    /// Request slot offsets: rank `r`'s request `q` is slot
    /// `req_base()[r] + q`, and `req_base()[ranks()]` is the total,
    /// one slot per request id below each rank's highest.
    pub fn req_base(&self) -> &[usize] {
        &self.req_base
    }

    /// An upper bound on the events one replay processes: one initial
    /// resume per rank, two per send (arrival, match-time resume) and
    /// one per collective entry.
    pub fn event_bound(&self) -> u64 {
        self.ranks() as u64 + 2 * self.sends + self.collectives
    }

    /// Rebuild the recording with every rank's ops passed through
    /// `edit(rank, ops)` — the fuzzer's mutation and minimization step.
    /// Side tables are re-interned from scratch, so the result is what
    /// recording the edited ops would have produced; sub-communicators
    /// are kept.
    pub fn edit(&mut self, mut edit: impl FnMut(usize, &mut Vec<Op>)) {
        let mut b = TraceBuilder::new();
        let mut ops = Vec::new();
        for r in 0..self.ranks() {
            ops.clear();
            ops.extend(self.rank_ops(r));
            edit(r, &mut ops);
            for &op in &ops {
                b.push(op);
            }
            b.end_rank();
        }
        let comms = std::mem::take(&mut self.comms);
        *self = b.finish().with_comms(comms);
    }

    /// [`Traces::edit`] of rank `r` alone.
    pub fn edit_rank(&mut self, r: usize, edit: impl FnOnce(&mut Vec<Op>)) {
        let mut edit = Some(edit);
        self.edit(|q, ops| {
            if q == r {
                (edit.take().expect("one rank r"))(ops);
            }
        });
    }
}

/// Recordings are equal when they hold the same ops bit for bit and the
/// same sub-communicators. Tables are interned in first-use order, so
/// equal op sequences have equal arenas and tables.
impl PartialEq for Traces {
    fn eq(&self, other: &Traces) -> bool {
        self.rank_ofs == other.rank_ofs
            && self.ops == other.ops
            && self.colls == other.colls
            && self.big_bytes == other.big_bytes
            && self.comms == other.comms
            && self.works.len() == other.works.len()
            && self.works.iter().zip(&other.works).all(|(a, b)| work_key(a) == work_key(b))
    }
}

/// Bit-exact identity of an interned `(Workload, threads)` pair: the
/// variant, the thread count and every field's bits.
fn work_key(&(w, threads): &(Workload, u32)) -> [u64; 5] {
    let (variant, f): (u64, [u64; 4]) = match w {
        Workload::Dgemm { n } => (0, [n, 0, 0, 0]),
        Workload::LuUpdate { m, n, k } => (1, [m, n, k, 0]),
        Workload::StreamCopy { n } => (2, [n, 0, 0, 0]),
        Workload::StreamScale { n } => (3, [n, 0, 0, 0]),
        Workload::StreamAdd { n } => (4, [n, 0, 0, 0]),
        Workload::StreamTriad { n } => (5, [n, 0, 0, 0]),
        Workload::Fft1d { n } => (6, [n, 0, 0, 0]),
        Workload::RandomAccess { updates, table_bytes } => (7, [updates, table_bytes, 0, 0]),
        Workload::Stencil { points, flops_per_point, bytes_per_point } => {
            (8, [points, flops_per_point.to_bits(), bytes_per_point.to_bits(), 0])
        }
        Workload::Chemistry { points, flops_per_point } => {
            (9, [points, flops_per_point.to_bits(), 0, 0])
        }
        Workload::MdForce { pairs, flops_per_pair } => {
            (10, [pairs, flops_per_pair.to_bits(), 0, 0])
        }
        Workload::Custom { flops, dram_bytes, simd_eff, serial_frac } => {
            (11, [flops.to_bits(), dram_bytes.to_bits(), simd_eff.to_bits(), serial_frac.to_bits()])
        }
    };
    [variant << 32 | threads as u64, f[0], f[1], f[2], f[3]]
}

/// First-use index of each distinct key of one side table.
#[derive(Debug)]
struct Interner<K> {
    map: HashMap<K, u32>,
    /// The last key looked up: ranks repeat one compute block or one
    /// collective op after op (a solver loop), which this catches
    /// without hashing — 62% of compute and 74% of collective lookups
    /// across the quick-scale paper artifacts' recordings.
    last: Option<(K, u32)>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner { map: HashMap::default(), last: None }
    }
}

impl<K: std::hash::Hash + Eq + Copy> Interner<K> {
    /// Index of `key` in `table`, appending `value` on first use.
    #[inline]
    fn index<V>(&mut self, table: &mut Vec<V>, key: K, value: V) -> u32 {
        match self.last {
            Some((k, i)) if k == key => i,
            _ => {
                let i = *self.map.entry(key).or_insert_with(|| {
                    table.push(value);
                    (table.len() - 1) as u32
                });
                self.last = Some((key, i));
                i
            }
        }
    }
}

/// Records a [`Traces`] rank by rank: [`TraceBuilder::push`] ops of the
/// open rank, [`TraceBuilder::end_rank`] to close it, then
/// [`TraceBuilder::finish`].
#[derive(Debug)]
pub struct TraceBuilder {
    t: Traces,
    works: Interner<[u64; 5]>,
    colls: Interner<CollectiveOp>,
    big: Interner<u64>,
    /// Request slots the open rank needs so far.
    open_reqs: usize,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// An empty recording with rank 0 open.
    pub fn new() -> TraceBuilder {
        TraceBuilder {
            t: Traces {
                ops: Vec::new(),
                rank_ofs: vec![0],
                req_base: vec![0],
                works: Vec::new(),
                colls: Vec::new(),
                big_bytes: Vec::new(),
                sends: 0,
                collectives: 0,
                comms: Vec::new(),
            },
            works: Interner::default(),
            colls: Interner::default(),
            big: Interner::default(),
            open_reqs: 0,
        }
    }

    /// Reserve arena room for `ops` more ops.
    pub(crate) fn reserve(&mut self, ops: usize) {
        self.t.ops.reserve_exact(ops);
    }

    /// Ops recorded so far, all ranks.
    pub(crate) fn len(&self) -> usize {
        self.t.ops.len()
    }

    /// Ops the open rank has recorded.
    pub(crate) fn open_len(&self) -> usize {
        self.t.ops.len() - self.t.rank_ofs[self.t.rank_ofs.len() - 1]
    }

    /// Append `op` to the open rank. Panics on a peer at or past
    /// [`PEER_LIMIT`].
    #[inline]
    pub fn push(&mut self, op: Op) {
        let t = &mut self.t;
        let p = match op {
            Op::Compute { work, threads } => {
                let key = work_key(&(work, threads));
                let a = self.works.index(&mut t.works, key, (work, threads));
                Packed { a, ..Packed::new(COMPUTE) }
            }
            Op::Delay { time } => {
                Packed { b: time.0 as u32, c: (time.0 >> 32) as u32, ..Packed::new(DELAY) }
            }
            Op::Isend { dst, tag, bytes, req } => {
                return self.push_message(ISEND, dst, tag, bytes, req)
            }
            Op::Irecv { src, tag, bytes, req } => {
                return self.push_message(IRECV, src, tag, bytes, req)
            }
            Op::Wait { req } => return self.push_wait(req),
            Op::Collective { comm, op } => {
                t.collectives += 1;
                let c = self.colls.index(&mut t.colls, op, op);
                Packed { a: comm.0, c, ..Packed::new(COLLECTIVE) }
            }
            Op::Mark { id } => Packed { a: id, ..Packed::new(MARK) },
        };
        t.ops.push(p);
    }

    /// [`TraceBuilder::push`] of an `Isend` or `Irecv`, for the
    /// recorder's hot path.
    #[inline]
    pub(crate) fn push_message(&mut self, kind: u32, peer: usize, tag: u32, bytes: u64, req: Req) {
        assert!(peer < PEER_LIMIT, "peer {peer} at or past the packed-op limit {PEER_LIMIT}");
        let t = &mut self.t;
        let (flag, c) = match u32::try_from(bytes) {
            Ok(small) => (0, small),
            Err(_) => (BIG, self.big.index(&mut t.big_bytes, bytes, bytes)),
        };
        t.sends += (kind == ISEND) as u64;
        self.open_reqs = self.open_reqs.max(req.0 as usize + 1);
        t.ops.push(Packed { head: kind << KIND_SHIFT | flag | peer as u32, a: tag, b: req.0, c });
    }

    /// [`TraceBuilder::push`] of a `Wait`, for the recorder's hot path.
    #[inline]
    pub(crate) fn push_wait(&mut self, req: Req) {
        self.open_reqs = self.open_reqs.max(req.0 as usize + 1);
        self.t.ops.push(Packed { b: req.0, ..Packed::new(WAIT) });
    }

    /// Close the open rank and open the next.
    pub fn end_rank(&mut self) {
        let t = &mut self.t;
        t.rank_ofs.push(t.ops.len());
        t.req_base.push(t.req_base[t.req_base.len() - 1] + self.open_reqs);
        self.open_reqs = 0;
    }

    /// The recording of every closed rank, right-sized.
    pub fn finish(self) -> Traces {
        assert_eq!(self.open_len(), 0, "finish with ops in an unclosed rank");
        let mut t = self.t;
        t.ops.shrink_to_fit();
        t.rank_ofs.shrink_to_fit();
        t.req_base.shrink_to_fit();
        t.works.shrink_to_fit();
        t.colls.shrink_to_fit();
        t.big_bytes.shrink_to_fit();
        t
    }
}
