//! Trace → dependency-DAG compilation for fast parameter sweeps.
//!
//! The paper's headline figures are parameter scans: Fig 2(c,d) replays
//! one HALO trace under 8 mappings × 2 core counts, and every
//! machine-comparison panel re-simulates an identical communication
//! structure with only the edge costs changed. A recorded trace's
//! happens-before graph is invariant across those points, so a sweep
//! point does not need the event queue at all: compile the trace once
//! into a flat task DAG ([`TraceDag::compile`]), then evaluate each
//! (machine, mapping, mode) point with a single linear pass that
//! re-costs edges from `MachineSpec` + `RankLayout` and takes
//! max-over-predecessors ([`TraceDag::evaluate`]).
//!
//! Node kinds mirror the trace ops one-to-one; the cross-rank edges are
//!
//! * **message edges** — the k-th send from `src` to `(dst, tag)` pairs
//!   with the k-th receive posted at `dst` for `(src, tag)`, exactly the
//!   replay engine's FIFO matching (arrivals on one channel cannot
//!   overtake: equal payloads ride the same costs and injection times
//!   strictly increase). Sends sharing (src rank, dst rank, bytes) are
//!   deduplicated into *channels*, so a sweep point prices each distinct
//!   route/payload combination once, not once per round — and the
//!   payload sizes are themselves deduplicated into *byte classes*, so
//!   the byte-dependent cost terms (serialization, rendezvous copy) are
//!   priced once per distinct size, not once per route;
//! * **collective super-nodes** — one instance per (comm, occurrence);
//!   every member contributes an in-edge carrying its arrival clock and
//!   receives an out-edge at `latest + duration`.
//!
//! Compilation ends by fixing one machine-independent topological order
//! (the happens-before relation carries no costs), stored as a
//! contiguous node stream plus (rank, length) runs. Evaluating a point
//! is then a straight streaming pass — no worklist, no suspends, no
//! hash lookups — which is where the order-of-magnitude sweep speedup
//! comes from.
//!
//! ## When this is exact, and when replay remains the oracle
//!
//! Evaluation prices every message with the *contention-free* wire time.
//! On a machine whose `route_diversity` is infinite (see
//! [`MachineSpec::with_flat_contention`]) the replay's contended wire
//! time collapses to exactly that value, and [`TraceDag::evaluate`]
//! reproduces `TraceSim::replay` bit-for-bit — per-rank finish
//! and busy clocks, marks, byte/message counts (the property tests in
//! `tests/prop_dag.rs` pin this). On a contended machine the DAG result
//! is a lower-bound approximation, so [`sweep_points`] — the function
//! every sweep entry point delegates to — automatically falls back to
//! replay there: [`SweepEngine::Dag`] means "DAG where provably
//! exact, replay otherwise", which keeps repro output byte-identical
//! under either engine selection.
//!
//! One replay subtlety is worth naming: whether a message is
//! *unexpected* (arrived before its receive was posted, paying a copy)
//! depends on event order, not clock order — the arrival must pop
//! before the receive's run *starts*. The evaluator therefore tracks
//! each rank's run-start time (updated at blocking waits and collective
//! exits) alongside its clock, and defers the unexpected-vs-posted
//! decision to the consuming wait, where the paired arrival time is
//! known. Suspending the receive itself would be wrong (cross-posted
//! exchanges would self-deadlock); suspending only the wait reproduces
//! the replay's happens-before relation, so every trace set the replay
//! can finish, the evaluator finishes too.
//!
//! ## Batched and perturbed evaluation
//!
//! Per-point costs are priced into structure-of-arrays tables split by
//! the machine parameter group that owns them — route latency
//! ([`ParamGroups::HOP_LAT`]), per-byte serialization
//! ([`ParamGroups::LINK_BW`]), compute/delay durations
//! ([`ParamGroups::COMPUTE`]) and collective durations
//! ([`ParamGroups::COLLECTIVE`]). [`TraceDag::evaluate_many`] batches
//! up to 32 structurally identical points into one wide streaming pass,
//! and [`TraceDag::evaluate_perturbed`] evaluates Monte-Carlo samples
//! around one point by *delta re-pricing*: a sample re-prices only the
//! cost arrays its [`Perturbation::groups`] bitmask touches and reuses
//! the cached base tables (bit-for-bit) for the rest, so an identity
//! sample reproduces the unperturbed engine exactly.

use crate::ops::Op;
use crate::result::{SimError, SimResult};
use crate::sim::{SimConfig, TraceSim};
use crate::traces::Traces;
use hpcsim_engine::SimTime;
use hpcsim_faults::FaultPlan;
use hpcsim_machine::{MachineSpec, NodeModel, ParamGroups, Perturbation, Workload};
use hpcsim_net::{CollectiveModel, CollectiveOp, P2pModel};
use hpcsim_obs as obs;
use hpcsim_probe::NoopTracer;
use hpcsim_topo::{Coord, Torus3D};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::LazyLock;

/// Obs counters for the sweep engine. All volatile: how points were
/// evaluated (DAG lanes vs scalar vs replay fallback) depends on the
/// engine selection and per-machine exactness, which is exactly what
/// these exist to report.
struct ObsMetrics {
    compiles: &'static obs::Counter,
    nodes: &'static obs::Counter,
    edges: &'static obs::Counter,
    points: &'static obs::Counter,
    lane_batches: &'static obs::Counter,
    lane_points: &'static obs::Counter,
    scalar_points: &'static obs::Counter,
    fallback_contention: &'static obs::Counter,
    fallback_faults: &'static obs::Counter,
    sens_samples: &'static obs::Counter,
    sens_group_arrays: &'static obs::Counter,
    sens_repriced: &'static obs::Counter,
    sens_lane_slots: &'static obs::Counter,
}

fn metrics() -> &'static ObsMetrics {
    use obs::Class::Volatile;
    static M: LazyLock<ObsMetrics> = LazyLock::new(|| ObsMetrics {
        compiles: obs::counter(
            "hpcsim_dag_compiles_total",
            "Trace sets compiled to task DAGs",
            Volatile,
        ),
        nodes: obs::counter("hpcsim_dag_nodes_total", "Task nodes compiled", Volatile),
        edges: obs::counter("hpcsim_dag_edges_total", "Dependency edges compiled", Volatile),
        points: obs::counter(
            "hpcsim_dag_points_total",
            "Sweep points evaluated by the DAG engine",
            Volatile,
        ),
        lane_batches: obs::counter(
            "hpcsim_dag_lane_batches_total",
            "Full-width batched passes in evaluate_many",
            Volatile,
        ),
        lane_points: obs::counter(
            "hpcsim_dag_lane_points_total",
            "Sweep points evaluated inside full-width lane batches",
            Volatile,
        ),
        scalar_points: obs::counter(
            "hpcsim_dag_scalar_points_total",
            "Sweep points evaluated one at a time",
            Volatile,
        ),
        fallback_contention: obs::counter(
            "hpcsim_sweep_fallback_contention_total",
            "Points sent to replay because the machine's contention model makes DAG inexact",
            Volatile,
        ),
        fallback_faults: obs::counter(
            "hpcsim_sweep_fallback_faults_total",
            "Points sent to replay because a fault plan was active",
            Volatile,
        ),
        sens_samples: obs::counter(
            "hpcsim_sens_samples_total",
            "Monte-Carlo perturbation samples evaluated",
            Volatile,
        ),
        sens_group_arrays: obs::counter(
            "hpcsim_sens_group_arrays_total",
            "Parameter-group cost arrays a full re-price would rebuild (4 per sample)",
            Volatile,
        ),
        sens_repriced: obs::counter(
            "hpcsim_sens_repriced_arrays_total",
            "Parameter-group cost arrays actually re-priced by delta re-pricing",
            Volatile,
        ),
        sens_lane_slots: obs::counter(
            "hpcsim_sens_lane_slots_total",
            "Lane slots across perturbed batches (occupancy = samples / slots)",
            Volatile,
        ),
    });
    &M
}

/// Which engine a parameter sweep uses per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepEngine {
    /// Event-queue replay for every point (the oracle).
    #[default]
    Replay,
    /// DAG evaluation where it is provably exact (contention-flat
    /// machines, no faults); automatic fallback to replay elsewhere.
    Dag,
}

impl SweepEngine {
    /// Parse a CLI value (`replay` | `dag`).
    pub fn parse(s: &str) -> Option<SweepEngine> {
        match s {
            "replay" => Some(SweepEngine::Replay),
            "dag" => Some(SweepEngine::Dag),
            _ => None,
        }
    }

    /// Display label (the CLI spelling).
    pub fn label(self) -> &'static str {
        match self {
            SweepEngine::Replay => "replay",
            SweepEngine::Dag => "dag",
        }
    }
}

/// Process-global engine selection, like the runner's jobs knob: the
/// `repro` binary sets it from `--sweep-engine` once, and
/// [`sweep_points`] reads it whenever a caller names no engine. Default
/// is [`SweepEngine::Replay`].
static SWEEP_ENGINE: AtomicU8 = AtomicU8::new(0);

/// Select the engine used by sweep entry points that don't take one
/// explicitly.
pub fn set_sweep_engine(engine: SweepEngine) {
    SWEEP_ENGINE.store(engine as u8, Ordering::Relaxed);
}

/// The currently selected sweep engine.
pub fn sweep_engine() -> SweepEngine {
    match SWEEP_ENGINE.load(Ordering::Relaxed) {
        0 => SweepEngine::Replay,
        _ => SweepEngine::Dag,
    }
}

/// Price `points` (configurations of one recorded trace set) on
/// `engine`, or on the process-global selection when `None`. Every
/// proxy prices through here: this is the one place the engine is
/// chosen and the one place a fallback is counted.
///
/// The recording carries its sub-communicators ([`Traces::comms`]);
/// both engines read them from it. Under [`SweepEngine::Dag`] with no
/// `faults`, points whose
/// machine passes [`TraceDag::exact_for`] are evaluated on the DAG that
/// `dag` yields (`traces` compiled; called only if needed) or on one
/// compiled here. Every other point replays `traces` with `faults`
/// armed, and under `Dag` counts as a contention or fault fallback.
/// Results come back in point order, bit-identical under either engine;
/// the first replay error is returned as is.
pub fn sweep_points<'d>(
    engine: Option<SweepEngine>,
    points: &[SimConfig],
    traces: &Traces,
    dag: Option<&dyn Fn() -> &'d TraceDag>,
    faults: Option<&FaultPlan>,
) -> Result<Vec<SimResult>, SimError> {
    let exact = |cfg: &SimConfig| TraceDag::exact_for(&cfg.machine);
    let mut on_dag = 0;
    if engine.unwrap_or_else(sweep_engine) == SweepEngine::Dag {
        let m = metrics();
        if faults.is_some() {
            m.fallback_faults.add(points.len() as u64);
        } else {
            on_dag = points.iter().filter(|cfg| exact(cfg)).count();
            m.fallback_contention.add((points.len() - on_dag) as u64);
        }
    }
    let compiled;
    let dag = match dag {
        _ if on_dag == 0 => None,
        Some(get) => Some(get()),
        None => {
            compiled = TraceDag::compile(traces);
            Some(&compiled)
        }
    };
    match dag {
        Some(d) if on_dag == points.len() && on_dag > 1 => Ok(d.evaluate_many(points)),
        _ => points
            .iter()
            .map(|cfg| match dag {
                Some(d) if exact(cfg) => Ok(d.evaluate(cfg)),
                _ => {
                    let mut sim = TraceSim::new(cfg.clone());
                    if let Some(plan) = faults {
                        sim.set_faults(plan);
                    }
                    sim.try_replay(traces, &mut NoopTracer)
                }
            })
            .collect(),
    }
}

/// A world of rank traces that compilation reads in place: a recording
/// ([`TraceDag::compile`]), or a per-rank view of a world-only program
/// ([`TraceDag::compile_world`]; benchmark-facing, retire it with the
/// next benchmark PR, ROADMAP item 7). Compile reads every op once,
/// counting each rank's request slots and compressing repeated compute
/// blocks in that same pass, so a view compiles without first being
/// converted into a recording.
pub(crate) trait OpSource {
    /// World size.
    fn ranks(&self) -> usize;
    /// Sub-communicators, numbered from `CommId(1)`.
    fn comms(&self) -> &[Vec<usize>];
    /// Rank `r`'s ops in program order.
    fn rank_ops(&self, r: usize) -> impl ExactSizeIterator<Item = Op> + '_;
}

impl OpSource for Traces {
    fn ranks(&self) -> usize {
        Traces::ranks(self)
    }

    fn comms(&self) -> &[Vec<usize>] {
        Traces::comms(self)
    }

    fn rank_ops(&self, r: usize) -> impl ExactSizeIterator<Item = Op> + '_ {
        Traces::rank_ops(self, r)
    }
}

impl OpSource for [Vec<Op>] {
    fn ranks(&self) -> usize {
        self.len()
    }

    fn comms(&self) -> &[Vec<usize>] {
        &[]
    }

    fn rank_ops(&self, r: usize) -> impl ExactSizeIterator<Item = Op> + '_ {
        self[r].iter().copied()
    }
}

const NONE: u32 = u32::MAX;

/// Widest lane batch: saturates the node decode amortization on big
/// batteries while keeping the per-request lane stripe within a few
/// cache lines.
const WIDE: usize = 32;

/// Narrow lane batch: the Fig 2 mapping-set size, and one cache line of
/// `SimTime`s per request.
const NARROW: usize = 8;

/// How [`TraceDag::evaluate_perturbed`] packs `n` samples into lane
/// batches: full 32-wide batches, then 8-wide batches (the last one
/// padded by repeating its final sample), then a 1-wide tail. Yields
/// `(lanes, samples)` per batch, in sample order.
pub fn perturbed_batches(mut n: usize) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        let batch = match n {
            0 => return None,
            1 => (1, 1),
            _ if n >= WIDE => (WIDE, WIDE),
            _ => (NARROW, n.min(NARROW)),
        };
        n -= batch.1;
        Some(batch)
    })
}

/// One compiled task node; mirrors [`Op`] with matching resolved to
/// integer message/channel/instance ids. 16 bytes (pinned by a unit
/// test) — evaluation streams every node once per sweep point, so the
/// fat payloads (workloads, byte sizes) live in side tables. `req`
/// indexes one flat request arena; `msg` numbers messages in pairing
/// order, renumbered into slots in emission order by the schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    /// `cost` indexes the compiled `(Workload, threads)` side table.
    Compute {
        cost: u32,
    },
    Delay {
        time: SimTime,
    },
    Send {
        chan: u32,
        msg: u32,
        req: u32,
    },
    /// `chan`/`msg` are the *paired send's*; [`NONE`] when no send
    /// matches (a wait on such a receive never completes, as in replay).
    Recv {
        chan: u32,
        msg: u32,
        req: u32,
    },
    /// A wait on a request that is complete when it runs: a send's, or
    /// a receive's that an earlier wait completed. Compile emits every
    /// wait in this form; the schedule lowers first waits on receives.
    Wait {
        req: u32,
    },
    /// The first wait on a receive, lowered by the schedule: completes
    /// message `msg` (on channel `chan`) and stores the completion time
    /// in request `req` for any later wait.
    WaitRecv {
        chan: u32,
        msg: u32,
        req: u32,
    },
    Coll {
        inst: u32,
    },
    Mark {
        id: u32,
    },
}

/// A distinct (source rank, destination rank, payload) combination.
/// Edge costs depend on nothing else, so evaluation prices each channel
/// once per point and every message on it reuses the result; `class`
/// indexes the deduplicated payload-size table, so byte-dependent terms
/// are priced once per distinct size.
#[derive(Debug, Clone, Copy)]
struct Channel {
    src: u32,
    dst: u32,
    class: u32,
}

/// One collective occurrence (super-node).
#[derive(Debug, Clone, Copy)]
struct CollSpec {
    comm: u32,
    /// Index into the deduplicated (comm, op) cost table.
    cost: u32,
}

/// Per-point cost of one payload class: the byte-dependent terms of
/// the wire model, priced once per distinct size and shared by every
/// channel carrying it.
struct ClassCost {
    serial: SimTime,
    shm_serial: SimTime,
    copy: SimTime,
    eager: bool,
}

/// Machine-level cost tables: everything a sweep point needs that does
/// not depend on the rank layout. Mappings only move ranks, so a
/// mapping sweep builds these once and re-prices routes per point.
struct MachCosts {
    machine: MachineSpec,
    ambient: f64,
    /// The `class_bytes` the costs were priced for — the cache is
    /// shared across DAGs (thread-local), so the byte-class table is
    /// part of the key, not just the machine.
    classes: Vec<u64>,
    node_model: NodeModel,
    class_costs: Vec<ClassCost>,
    /// Rendezvous handshake round trip (zero-byte wire time plus both
    /// overheads), route-independent part, off-node / same-node.
    hs_off: SimTime,
    hs_shm: SimTime,
}

/// The priced cost tables of `L` sweep points sharing one machine,
/// filled by [`TraceDag::price`] alone and read by every evaluation:
/// single points and perturbed samples read its one-lane instance,
/// mapping batches the `L`-lane one. Per-lane arrays interleave lanes
/// innermost (`[entry * L + lane]`), so one entry's lanes share a cache
/// line. The arrays are split by the machine parameter group that
/// prices them, which is what Monte-Carlo delta re-pricing works
/// against: a perturbed lane scales only the arrays its
/// [`Perturbation::groups`] bitmask touches and reuses the rest
/// bit-for-bit.
#[derive(Default)]
struct CostTables {
    /// `(wire, rdv_extra)` per channel × lane: the contention-free wire
    /// time and the rendezvous handshake ahead of it (zero when eager).
    wire: Vec<(SimTime, SimTime)>,
    /// [`ParamGroups::HOP_LAT`]: off-node route latency per channel ×
    /// lane (zero on-node). An off-node wire is this plus the channel's
    /// [`ParamGroups::LINK_BW`] serialization, so a perturbed lane
    /// recovers that term as `wire - hop`.
    hop: Vec<SimTime>,
    /// Same-node channel, per channel × lane: the shared-memory path,
    /// which link-bandwidth and hop-latency perturbations never touch.
    on_node: Vec<bool>,
    /// Unexpected-receive copy cost per channel.
    copy: Vec<SimTime>,
    /// Eager payload, per channel.
    eager: Vec<bool>,
    /// [`ParamGroups::COMPUTE`]: duration per compute entry. Compute
    /// cost does not depend on the rank layout, so one column serves
    /// every lane.
    compute: Vec<SimTime>,
    /// [`ParamGroups::COLLECTIVE`]: duration per (comm, op) entry × lane.
    coll: Vec<SimTime>,
    /// Route-independent rendezvous handshake part (overheads), shared
    /// by every off-node channel.
    hs_off: SimTime,
}

/// The one-lane tables of one fully specified sweep point, cached per
/// thread while the point is unchanged — on a sensitivity battery that
/// is every batch after the first.
struct PointCosts {
    /// The DAG identity (channel/compute/collective ids are per-DAG).
    uid: u64,
    /// The point the tables were priced for.
    cfg: SimConfig,
    costs: CostTables,
}

/// Lane-kernel cost scaling with exact pass-through at 1.0 (so
/// untouched factors keep base bits): scales directly in the picosecond
/// domain — one multiply, a round, and a saturating cast, all
/// branch-free and if-convertible, so the per-lane loops stay SIMD.
/// (`SimTime::scale` round-trips through seconds, which costs a divide
/// and NaN/overflow branches per lane — that serialized the kernels.)
/// Cost-table values sit far below 2^53 ps, where the f64 round-trip is
/// lossless, and the `MAX` sentinel saturates back to itself.
#[inline(always)]
#[allow(clippy::manual_clamp)] // .clamp() passes NaN through; .max(0.0) maps it to 0.0
fn scale_ps(t: SimTime, factor: f64) -> SimTime {
    // Round-to-nearest via +0.5 and a truncating conversion:
    // `f64::round` (half-away-from-zero) has no single x86 instruction,
    // and the saturating `as u64` cast gets scalarized by the
    // vectorizer — so clamp explicitly (two vector min/max ops; NaN
    // lands on 0.0 through max) and convert with the raw instruction.
    // The clamp ceiling only bites past 2^63 ps ≈ 107 simulated days
    // for a single cost entry, far beyond any priced cost.
    let x = (t.as_ps() as f64 * factor + 0.5).max(0.0).min(9.2e18);
    // SAFETY: x is clamped to [0, 9.2e18], inside u64's exact range.
    let scaled = SimTime::from_ps(unsafe { x.to_int_unchecked::<u64>() });
    if factor == 1.0 {
        t
    } else {
        scaled
    }
}

/// Fixed-width view of one node's lane block. Converting the slice to
/// an array reference hoists the bounds check out of the per-lane
/// loops, which is what lets them autovectorize.
#[inline(always)]
fn lanes<const L: usize, T>(s: &[T], at: usize) -> &[T; L] {
    (&s[at..at + L]).try_into().unwrap()
}

/// Mutable fixed-width view of one node's lane block.
#[inline(always)]
fn lanes_mut<const L: usize, T>(s: &mut [T], at: usize) -> &mut [T; L] {
    (&mut s[at..at + L]).try_into().unwrap()
}

/// Reusable evaluation state: the cost-table builder's caches, the
/// priced tables, and the streaming pass's scratch arrays. Every
/// evaluation runs on the one per-thread instance in [`CTX`], so points
/// after the first allocate nothing but their results.
#[derive(Default)]
struct EvalCtx {
    mach: Option<MachCosts>,
    torus: Option<Torus3D>,
    coords: Vec<Coord>,
    /// What the last [`TraceDag::price`] call of a single point or a
    /// mapping batch filled.
    costs: CostTables,
    /// The base point of the last perturbed batch.
    point: Option<PointCosts>,
    // collective membership counts, identical across lanes; the
    // schedule resolved every other structural question into the nodes
    inst_arrived: Vec<u32>,
    // per-lane factors and timing state, L lanes interleaved
    /// Per-lane factor on inline `Delay` durations (delays model OS
    /// noise/imbalance, so the COMPUTE perturbation group scales them)
    /// and on `Compute` nodes (same parameter group); perturbed batches
    /// only — mapping batches pass both through unscaled.
    lane_delay: Vec<f64>,
    // Perturbed batches don't materialize lane cost arrays at all: a
    // perturbed lane's cost is `base ⊗ factor`, so the stream computes
    // it in registers from the base SoA tables plus these per-lane
    // factors (`scale_ps` passes base bits through at exactly 1.0).
    lane_inv_bw: Vec<f64>,
    lane_hop_scale: Vec<f64>,
    lane_coll_scale: Vec<f64>,
    /// Per request: its completion time.
    lane_req_val: Vec<SimTime>,
    /// One record per message slot, `[arrive; L] [post_rs; L]
    /// [post_clk; L]`: the send's arrival time and the receive's run
    /// start and clock when it was posted. Slots are numbered in stream
    /// order, so the records fill front to back.
    lane_msgs: Vec<SimTime>,
    lane_run_start: Vec<SimTime>,
    lane_inst_latest: Vec<SimTime>,
}

// The scratch is thread-local so back-to-back evaluations (one call per
// point, per halo config, per perturbed batch) reuse warmed allocations
// instead of page-faulting megabytes of fresh arrays per batch. Reuse
// across different DAGs is safe: every slot a pass reads is written
// earlier in the same pass, the machine-table cache keys on the
// byte-class table as well as the machine, and the point-table cache
// keys on the DAG's unique id. An evaluation that panics (a deadlocked
// DAG, a layout of the wrong size) does so in `price`'s checks, before
// it writes any table or scratch array, and unwinding releases the
// borrow.
thread_local! {
    static CTX: std::cell::RefCell<EvalCtx> = std::cell::RefCell::new(EvalCtx::default());
}

/// Monotonic id per compiled DAG: the thread-local point-cost cache
/// stores per-DAG arrays (indexed by channel/compute/collective ids),
/// so the DAG identity is part of its key. Clones share the id — they
/// are structurally identical, so shared tables stay valid.
static DAG_UID: AtomicU64 = AtomicU64::new(0);

/// A fixed topological order: the contiguous node stream, the
/// (rank, length) runs tiling it, and any structural deadlock as
/// (stuck-rank count, example rank, its op index).
type Schedule = (Vec<Node>, Vec<(u32, u32)>, Option<(usize, usize, usize)>);

/// Structure counts of a compiled DAG (for benches and reports).
#[derive(Debug, Clone, Copy)]
pub struct DagStats {
    /// Task nodes (one per trace op).
    pub nodes: u64,
    /// Dependency edges: intra-rank program order + message pairs +
    /// collective membership (in and out).
    pub edges: u64,
    /// Distinct (src, dst, bytes) channels.
    pub channels: u64,
    /// Matched point-to-point messages.
    pub messages: u64,
    /// Collective super-nodes.
    pub collectives: u64,
}

/// A trace set compiled to a flat task DAG. Arena-style storage: every
/// cross-reference is an integer id into a `Vec`, nothing is allocated
/// per node at evaluation time beyond the per-point scratch arrays.
#[derive(Debug, Clone)]
pub struct TraceDag {
    /// See [`DAG_UID`].
    uid: u64,
    ranks: usize,
    n_nodes: u64,
    /// Task nodes in one fixed machine-independent topological order;
    /// the happens-before relation is cost-free, so every evaluation is
    /// a single linear sweep over this stream.
    stream: Vec<Node>,
    /// `(rank, length)` runs tiling `stream`: each run is a maximal
    /// stretch one rank executes without blocking on another.
    runs: Vec<(u32, u32)>,
    /// Requests, all ranks' in one flat arena (`Node` ids index it).
    n_reqs: u32,
    channels: Vec<Channel>,
    /// Sorted distinct payload sizes; `Channel::class` indexes this.
    class_bytes: Vec<u64>,
    /// Side table for [`Node::Compute`] (adjacent-duplicate compressed:
    /// a rank repeating one workload shares a single entry).
    compute_costs: Vec<(Workload, u32)>,
    n_msgs: u32,
    insts: Vec<CollSpec>,
    /// Deduplicated (comm, op) pairs; evaluation prices each once.
    coll_costs: Vec<(u32, CollectiveOp)>,
    comms: Vec<Vec<usize>>,
    /// Structural deadlock, detected once at compile time:
    /// `(unfinished rank count, example rank, example op index)`.
    deadlock: Option<(usize, usize, usize)>,
    total_bytes: u64,
    total_msgs: u64,
    seq_edges: u64,
    msg_edges: u64,
    coll_edges: u64,
}

impl TraceDag {
    /// True when DAG evaluation is exact on `machine`: the wire model's
    /// contended path collapses to the contention-free one (infinite
    /// route diversity), so a topological pass reproduces the replay
    /// bit-for-bit. Sweep entry points use this to fall back to replay.
    pub fn exact_for(machine: &MachineSpec) -> bool {
        machine.contention_flat()
    }

    /// [`TraceDag::compile`] of a per-rank view of a world-only
    /// program, read in place. Benchmark-facing; retire with the next
    /// benchmark PR (ROADMAP item 7).
    pub fn compile_world(traces: &[Vec<Op>]) -> TraceDag {
        Self::compile_from(traces)
    }

    /// Compile a recording into a task DAG, with the world and its
    /// sub-communicators. Compilation is independent of machine, mapping
    /// and mode — the same DAG serves every sweep point.
    pub fn compile(traces: &Traces) -> TraceDag {
        Self::compile_from(traces)
    }

    fn compile_from<T: OpSource + ?Sized>(traces: &T) -> TraceDag {
        let n = traces.ranks();
        let mut comms: Vec<Vec<usize>> = Vec::with_capacity(1 + traces.comms().len());
        comms.push((0..n).collect());
        comms.extend_from_slice(traces.comms());
        let total_ops: usize = (0..n).map(|r| traces.rank_ops(r).len()).sum();
        assert!(total_ops < NONE as usize, "trace too large for u32 node ids");

        let mut nodes: Vec<Node> = Vec::with_capacity(total_ops);
        let mut rank_ofs: Vec<u32> = Vec::with_capacity(n + 1);
        // flat request ids: rank r's `Req(k)` is k past earlier ranks'
        let mut n_reqs = 0u32;
        // Matching is sort-based on packed integer keys: hashing every
        // endpoint through a general-purpose map costs more than the
        // rest of compilation combined, and fat tuple keys sort several
        // times slower than u128s. Each send/receive contributes
        // src·2⁹⁶ | dst·2⁶⁴ | tag·2³² | node — the node id in the low
        // bits makes an unstable sort order-preserving per key, and
        // per-key node order IS the replay's FIFO posting order,
        // because one rank owns each side of a key.
        let mut send_keys: Vec<(u128, u64)> = Vec::with_capacity(total_ops / 4);
        let mut recv_keys: Vec<u128> = Vec::with_capacity(total_ops / 4);
        let mut compute_costs: Vec<(Workload, u32)> = Vec::new();
        let mut coll_seq: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut inst_ids: Vec<Vec<u32>> = vec![Vec::new(); comms.len()];
        let mut insts: Vec<CollSpec> = Vec::new();
        let mut inst_ops: Vec<CollectiveOp> = Vec::new();
        let mut total_bytes = 0u64;
        let mut total_msgs = 0u64;
        let mut seq_edges = 0u64;
        let mut coll_edges = 0u64;

        // per rank: its (comm, next seq) collective counters
        for (r, counters) in coll_seq.iter_mut().enumerate() {
            rank_ofs.push(nodes.len() as u32);
            let ops = traces.rank_ops(r);
            seq_edges += ops.len().saturating_sub(1) as u64;
            let (base, reqs) = (n_reqs, &mut n_reqs);
            let mut note_req = |req: crate::ops::Req| {
                *reqs = (*reqs).max(base + req.0 + 1);
                base + req.0
            };
            for op in ops {
                let idx = nodes.len() as u32;
                match op {
                    Op::Compute { work, threads } => {
                        let cost = match compute_costs.last() {
                            Some(&(w, t)) if w == work && t == threads => compute_costs.len() - 1,
                            _ => {
                                compute_costs.push((work, threads));
                                compute_costs.len() - 1
                            }
                        };
                        nodes.push(Node::Compute { cost: cost as u32 });
                    }
                    Op::Delay { time } => nodes.push(Node::Delay { time }),
                    Op::Isend { dst, tag, bytes, req } => {
                        assert!(dst < n, "rank {r}: isend to out-of-range rank {dst}");
                        let (src, dst) = (r as u128, dst as u128);
                        send_keys.push((
                            (src << 96) | (dst << 64) | ((tag as u128) << 32) | idx as u128,
                            bytes,
                        ));
                        nodes.push(Node::Send { chan: NONE, msg: NONE, req: note_req(req) });
                        total_bytes += bytes;
                        total_msgs += 1;
                    }
                    Op::Irecv { src, tag, bytes: _, req } => {
                        assert!(src < n, "rank {r}: irecv from out-of-range rank {src}");
                        recv_keys.push(
                            ((src as u128) << 96)
                                | ((r as u128) << 64)
                                | ((tag as u128) << 32)
                                | idx as u128,
                        );
                        nodes.push(Node::Recv { chan: NONE, msg: NONE, req: note_req(req) });
                    }
                    Op::Wait { req } => nodes.push(Node::Wait { req: note_req(req) }),
                    Op::Collective { comm, op } => {
                        let cid = comm.0 as usize;
                        assert!(
                            cid < comms.len(),
                            "rank {r}: collective on unregistered comm {cid}"
                        );
                        let pos = match counters.iter().position(|(c, _)| *c == comm.0) {
                            Some(p) => p,
                            None => {
                                counters.push((comm.0, 0));
                                counters.len() - 1
                            }
                        };
                        let seq = counters[pos].1 as usize;
                        counters[pos].1 += 1;
                        let table = &mut inst_ids[cid];
                        if table.len() <= seq {
                            table.resize(seq + 1, NONE);
                        }
                        if table[seq] == NONE {
                            table[seq] = insts.len() as u32;
                            insts.push(CollSpec { comm: comm.0, cost: NONE });
                            inst_ops.push(op);
                        } else {
                            assert_eq!(
                                inst_ops[table[seq] as usize], op,
                                "rank {r}: collective mismatch on comm {}",
                                comm.0
                            );
                        }
                        coll_edges += 2; // arrival in-edge + completion out-edge
                        nodes.push(Node::Coll { inst: table[seq] });
                    }
                    Op::Mark { id } => nodes.push(Node::Mark { id }),
                }
            }
        }
        rank_ofs.push(nodes.len() as u32);

        // One walk resolves both channel identity and FIFO pairing.
        // Sorting groups sends by (src, dst) and orders them by tag
        // then posting order; receives sort the same way, so the k-th
        // send on each (src, dst, tag) key meets the k-th posted
        // receive in a two-pointer walk — the replay's FIFO matching.
        // Leftovers on either side stay unmatched, as in replay (an
        // unconsumed send arrives into the void; a wait on an unpaired
        // receive blocks). Channels are discovered along the way: one
        // per distinct payload inside each (src, dst) group, tracked in
        // a group-local table (groups are contiguous after the sort).
        // Neither side needs a global sort. The scan appends rank-major,
        // so send keys are already grouped by their leading src field —
        // each rank's small block sorts independently. Receive keys are
        // grouped by receiver (the key's *dst* field), so one stable
        // counting scatter regroups them by src first; the in-bucket
        // sort then yields the same global (src, dst, tag, posting)
        // order the old full sorts produced, at a fraction of the cost.
        {
            let mut i = 0;
            while i < send_keys.len() {
                let src = send_keys[i].0 >> 96;
                let mut j = i + 1;
                while j < send_keys.len() && send_keys[j].0 >> 96 == src {
                    j += 1;
                }
                send_keys[i..j].sort_unstable();
                i = j;
            }
        }
        {
            let mut start = vec![0u32; n + 1];
            for &k in &recv_keys {
                start[(k >> 96) as usize + 1] += 1;
            }
            for s in 0..n {
                start[s + 1] += start[s];
            }
            let mut scattered = vec![0u128; recv_keys.len()];
            let mut cursor = start;
            for &k in &recv_keys {
                let s = (k >> 96) as usize;
                scattered[cursor[s] as usize] = k;
                cursor[s] += 1;
            }
            recv_keys = scattered;
            let mut i = 0;
            while i < recv_keys.len() {
                let src = recv_keys[i] >> 96;
                let mut j = i + 1;
                while j < recv_keys.len() && recv_keys[j] >> 96 == src {
                    j += 1;
                }
                recv_keys[i..j].sort_unstable();
                i = j;
            }
        }
        let mut channels: Vec<Channel> = Vec::new();
        let mut chan_bytes: Vec<u64> = Vec::new();
        let mut n_msgs = 0u32;
        let mut msg_edges = 0u64;
        let mut j = 0usize;
        let mut cur_pair = u64::MAX;
        let mut local: Vec<(u64, u32)> = Vec::new();
        for &(skey, bytes) in &send_keys {
            let pair = (skey >> 64) as u64; // src·2³² | dst
            if pair != cur_pair {
                cur_pair = pair;
                local.clear();
            }
            let chan = match local.iter().find(|&&(b, _)| b == bytes) {
                Some(&(_, c)) => c,
                None => {
                    let c = channels.len() as u32;
                    channels.push(Channel {
                        src: (pair >> 32) as u32,
                        dst: pair as u32,
                        class: NONE,
                    });
                    chan_bytes.push(bytes);
                    local.push((bytes, c));
                    c
                }
            };
            let key = skey >> 32; // src | dst | tag
            while j < recv_keys.len() && (recv_keys[j] >> 32) < key {
                j += 1;
            }
            let mut msg = NONE;
            if j < recv_keys.len() && (recv_keys[j] >> 32) == key {
                let r_node = recv_keys[j] as u32;
                j += 1;
                msg = n_msgs;
                n_msgs += 1;
                msg_edges += 1;
                if let Node::Recv { chan: rc, msg: rm, .. } = &mut nodes[r_node as usize] {
                    *rc = chan;
                    *rm = msg;
                }
            }
            if let Node::Send { chan: c, msg: m, .. } = &mut nodes[skey as u32 as usize] {
                *c = chan;
                *m = msg;
            }
        }
        // Collapse payload sizes into sorted byte classes.
        let mut class_bytes = chan_bytes.clone();
        class_bytes.sort_unstable();
        class_bytes.dedup();
        for (c, &b) in channels.iter_mut().zip(&chan_bytes) {
            c.class = class_bytes.binary_search(&b).expect("class table covers channels") as u32;
        }

        // Deduplicate (comm, op) collective costs.
        let mut coll_costs: Vec<(u32, CollectiveOp)> = Vec::new();
        for (i, spec) in insts.iter_mut().enumerate() {
            let op = inst_ops[i];
            let pos = match coll_costs.iter().position(|&(c, o)| c == spec.comm && o == op) {
                Some(p) => p,
                None => {
                    coll_costs.push((spec.comm, op));
                    coll_costs.len() - 1
                }
            };
            spec.cost = pos as u32;
        }

        let (stream, runs, deadlock) =
            Self::schedule(n, &nodes, &rank_ofs, n_reqs, n_msgs, &insts, &comms);

        let m = metrics();
        m.compiles.inc();
        m.nodes.add(total_ops as u64);
        m.edges.add(seq_edges + msg_edges + coll_edges);

        TraceDag {
            uid: DAG_UID.fetch_add(1, Ordering::Relaxed),
            ranks: n,
            n_nodes: total_ops as u64,
            stream,
            runs,
            n_reqs,
            channels,
            class_bytes,
            compute_costs,
            n_msgs,
            insts,
            coll_costs,
            comms,
            total_bytes,
            total_msgs,
            seq_edges,
            msg_edges,
            coll_edges,
            deadlock,
        }
    }

    /// Fix a topological evaluation order once, at compile time. The
    /// happens-before relation (program order, message pairs,
    /// collective membership) carries no costs, so one structural
    /// worklist pass here buys every future evaluation a straight
    /// linear sweep; the same pass detects structural deadlock (the
    /// schedule simply never reaches the stuck ops). Emission does the
    /// kernel's structural bookkeeping too: it lowers each first wait
    /// on a receive to [`Node::WaitRecv`], and renumbers messages into
    /// slots in the order their first node is emitted, so the kernel's
    /// message records fill front to back. Returns the ordered node
    /// stream, the (rank, length) runs tiling it, and any deadlock.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        n: usize,
        nodes: &[Node],
        rank_ofs: &[u32],
        n_reqs: u32,
        n_msgs: u32,
        insts: &[CollSpec],
        comms: &[Vec<usize>],
    ) -> Schedule {
        /// A request already satisfiable when waited on (a send's, a
        /// consumed receive's); a message's waiter once it is sent.
        const DONE: u32 = u32::MAX - 1;
        let mut stream: Vec<Node> = Vec::with_capacity(nodes.len());
        let mut runs: Vec<(u32, u32)> = Vec::new();
        // per message, in pairing order: (slot, waiter). The slot is
        // numbered when the message's first node, send or receive, is
        // emitted; the waiter is the rank suspended on it, or DONE.
        let mut msgs: Vec<(u32, u32)> = vec![(NONE, NONE); n_msgs as usize];
        let mut n_slots = 0u32;
        let mut emit = |mut node: Node, r: usize, msgs: &mut [(u32, u32)]| {
            if let Node::Send { msg, .. } | Node::Recv { msg, .. } = &mut node {
                if *msg != NONE {
                    let slot = &mut msgs[*msg as usize].0;
                    if *slot == NONE {
                        (*slot, n_slots) = (n_slots, n_slots + 1);
                    }
                    *msg = *slot;
                }
            }
            stream.push(node);
            match runs.last_mut() {
                Some((rank, len)) if *rank == r as u32 => *len += 1,
                _ => runs.push((r as u32, 1)),
            }
        };
        let mut pc: Vec<usize> = (0..n).map(|r| rank_ofs[r] as usize).collect();
        // per request: DONE, NONE (nothing to complete), or the node
        // index of the pending receive
        let mut req_state: Vec<u32> = vec![NONE; n_reqs as usize];
        let mut inst_arrived = vec![0u32; insts.len()];
        #[derive(Clone, Copy, PartialEq)]
        enum St {
            Ready,
            Susp,
            Stuck,
            Done,
        }
        let mut state = vec![St::Ready; n];
        let mut stack: Vec<usize> = (0..n).rev().collect();
        let mut done_count = 0usize;

        while let Some(r) = stack.pop() {
            if state[r] != St::Ready {
                continue;
            }
            'advance: loop {
                if pc[r] == rank_ofs[r + 1] as usize {
                    state[r] = St::Done;
                    done_count += 1;
                    break 'advance;
                }
                let node = nodes[pc[r]];
                match node {
                    Node::Send { msg, req, .. } => {
                        if msg != NONE {
                            let w = std::mem::replace(&mut msgs[msg as usize].1, DONE);
                            if w != NONE {
                                state[w as usize] = St::Ready;
                                stack.push(w as usize);
                            }
                        }
                        emit(node, r, &mut msgs);
                        req_state[req as usize] = DONE;
                        pc[r] += 1;
                    }
                    Node::Recv { msg, req, .. } => {
                        // no paired send: a later wait sticks
                        req_state[req as usize] = if msg == NONE { NONE } else { pc[r] as u32 };
                        emit(node, r, &mut msgs);
                        pc[r] += 1;
                    }
                    Node::Wait { req } => {
                        match req_state[req as usize] {
                            DONE => {
                                emit(node, r, &mut msgs);
                                pc[r] += 1;
                            }
                            NONE => {
                                // a receive nothing sends to, or a
                                // request never created: blocks forever
                                state[r] = St::Stuck;
                                break 'advance;
                            }
                            recv => {
                                let Node::Recv { chan, msg, .. } = nodes[recv as usize] else {
                                    unreachable!("pending requests name their receive")
                                };
                                let (slot, waiter) = &mut msgs[msg as usize];
                                if *waiter != DONE {
                                    // paired send not scheduled yet —
                                    // suspend; the send wakes us
                                    *waiter = r as u32;
                                    state[r] = St::Susp;
                                    break 'advance;
                                }
                                req_state[req as usize] = DONE;
                                emit(Node::WaitRecv { chan, msg: *slot, req }, r, &mut msgs);
                                pc[r] += 1;
                            }
                        }
                    }
                    Node::Coll { inst } => {
                        let i = inst as usize;
                        emit(node, r, &mut msgs);
                        inst_arrived[i] += 1;
                        let members = &comms[insts[i].comm as usize];
                        if (inst_arrived[i] as usize) < members.len() {
                            state[r] = St::Susp;
                            break 'advance;
                        }
                        // last member in: everyone else is parked on
                        // exactly this node — step them all past it
                        for &m in members {
                            if m != r {
                                pc[m] += 1;
                                state[m] = St::Ready;
                                stack.push(m);
                            }
                        }
                        pc[r] += 1;
                    }
                    _ => {
                        emit(node, r, &mut msgs);
                        pc[r] += 1;
                    }
                }
            }
        }

        let deadlock = if done_count < n {
            let stuck: Vec<usize> = (0..n).filter(|&r| state[r] != St::Done).collect();
            Some((stuck.len(), stuck[0], pc[stuck[0]] - rank_ofs[stuck[0]] as usize))
        } else {
            None
        };
        (stream, runs, deadlock)
    }

    /// Number of ranks compiled.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Structural deadlock detected at compile time, as `(unfinished
    /// rank count, example rank, example op index)` — `None` when the
    /// traces can finish. The fuzzer's differential oracle cross-checks
    /// this against the replay engine's own deadlock diagnosis.
    pub fn deadlock(&self) -> Option<(usize, usize, usize)> {
        self.deadlock
    }

    /// Structure counts, for benches and the sweep report.
    pub fn stats(&self) -> DagStats {
        DagStats {
            nodes: self.n_nodes,
            edges: self.seq_edges + self.msg_edges + self.coll_edges,
            channels: self.channels.len() as u64,
            messages: self.msg_edges,
            collectives: self.insts.len() as u64,
        }
    }

    /// Evaluate one (machine, mapping, mode) point: the one-lane
    /// instance of the batch kernel, one streaming pass over the
    /// precompiled schedule re-costing edges from `cfg` — no event
    /// queue, no message matching, no worklist. Exact against replay
    /// when [`TraceDag::exact_for`] holds for `cfg.machine`; a
    /// contention-free lower bound otherwise.
    ///
    /// DAG arithmetic saturates: a clock that would pass
    /// [`SimTime::MAX`] stays there, where replay's checked additions
    /// panic with "SimTime overflow".
    ///
    /// Panics with the replay engine's deadlock diagnostic when the
    /// compiled traces cannot finish (the defect is structural, so it
    /// was already detected at compile time).
    pub fn evaluate(&self, cfg: &SimConfig) -> SimResult {
        let m = metrics();
        m.points.inc();
        m.scalar_points.inc();
        let mut out = Vec::with_capacity(1);
        CTX.with(|ctx| {
            self.evaluate_lanes::<1>(std::slice::from_ref(cfg), &mut ctx.borrow_mut(), &mut out)
        });
        out.pop().expect("one point, one result")
    }

    /// Evaluate a whole batch of points, identical to calling
    /// [`TraceDag::evaluate`] on each. Runs of points that share a
    /// machine are packed into [`WIDE`]- and then
    /// [`NARROW`]-lane batches that price and stream together; the rest
    /// go one at a time. On a mapping sweep everything but the route
    /// pricing and the streaming pass itself is shared, so points after
    /// the first allocate nothing.
    pub fn evaluate_many(&self, cfgs: &[SimConfig]) -> Vec<SimResult> {
        // Lanes share every machine-derived table, so a batch must
        // agree on everything except the rank layout.
        fn same_machine(a: &SimConfig, b: &SimConfig) -> bool {
            a.machine == b.machine
                && a.mode == b.mode
                && a.threads == b.threads
                && a.layout.torus == b.layout.torus
                && a.layout.ambient_flows == b.layout.ambient_flows
        }
        let m = metrics();
        m.points.add(cfgs.len() as u64);
        CTX.with(|ctx| {
            let ctx = &mut ctx.borrow_mut();
            let mut out = Vec::with_capacity(cfgs.len());
            let mut i = 0;
            while i < cfgs.len() {
                let width = [WIDE, NARROW]
                    .into_iter()
                    .find(|&w| {
                        cfgs.len() - i >= w
                            && cfgs[i + 1..i + w].iter().all(|c| same_machine(&cfgs[i], c))
                    })
                    .unwrap_or(1);
                let batch = &cfgs[i..i + width];
                if width == 1 {
                    m.scalar_points.inc();
                } else {
                    m.lane_batches.inc();
                    m.lane_points.add(width as u64);
                }
                match width {
                    WIDE => self.evaluate_lanes::<WIDE>(batch, ctx, &mut out),
                    NARROW => self.evaluate_lanes::<NARROW>(batch, ctx, &mut out),
                    _ => self.evaluate_lanes::<1>(batch, ctx, &mut out),
                }
                i += width;
            }
            out
        })
    }

    /// Evaluate Monte-Carlo perturbation `samples` around one sweep
    /// point: the base cost tables for `cfg` are priced once (and
    /// cached per thread across calls), then each sample *delta
    /// re-prices* only the structure-of-arrays cost tables its
    /// [`Perturbation::groups`] bitmask touches — untouched groups
    /// reuse the base arrays bit-for-bit, so an identity sample is
    /// bit-identical to [`TraceDag::evaluate`]. Samples are packed into
    /// lane batches as [`perturbed_batches`] splits them; results come
    /// back in sample order, one per sample, independent of the batch
    /// decomposition.
    pub fn evaluate_perturbed(&self, cfg: &SimConfig, samples: &[Perturbation]) -> Vec<SimResult> {
        CTX.with(|ctx| {
            let ctx = &mut ctx.borrow_mut();
            let point = match ctx.point.take() {
                Some(p) if p.uid == self.uid && p.cfg == *cfg => p,
                old => {
                    self.price::<1>(std::slice::from_ref(cfg), ctx);
                    let spare = old.map(|p| p.costs).unwrap_or_default();
                    let costs = std::mem::replace(&mut ctx.costs, spare);
                    PointCosts { uid: self.uid, cfg: cfg.clone(), costs }
                }
            };
            ctx.point = Some(point);
            let m = metrics();
            m.points.add(samples.len() as u64);
            m.sens_samples.add(samples.len() as u64);
            m.sens_group_arrays.add(samples.len() as u64 * ParamGroups::COUNT as u64);
            m.sens_repriced.add(samples.iter().map(|s| s.groups().count() as u64).sum());
            let (o_send, o_recv) = (cfg.machine.nic.o_send, cfg.machine.nic.o_recv);
            let mut out = Vec::with_capacity(samples.len());
            for (width, take) in perturbed_batches(samples.len()) {
                m.sens_lane_slots.add(width as u64);
                let batch = &samples[out.len()..out.len() + take];
                match width {
                    WIDE => {
                        Self::price_perturbed::<WIDE>(batch, ctx);
                        self.stream_lanes::<WIDE, true>(o_send, o_recv, ctx, &mut out);
                    }
                    NARROW => {
                        Self::price_perturbed::<NARROW>(batch, ctx);
                        self.stream_lanes::<NARROW, true>(o_send, o_recv, ctx, &mut out);
                    }
                    _ => {
                        Self::price_perturbed::<1>(batch, ctx);
                        self.stream_lanes::<1, true>(o_send, o_recv, ctx, &mut out);
                    }
                }
                // drop the padding lanes of a partial batch
                out.truncate(out.len() - (width - take));
            }
            out
        })
    }

    /// Ensure `mach` caches the machine-level tables for `cfg`
    /// (byte-class costs, handshake constants, the node model) —
    /// rebuilt only when the machine or ambient load actually changed,
    /// which on a mapping sweep is never after the first point.
    fn mach_costs<'a>(
        &self,
        cfg: &SimConfig,
        p2p: &P2pModel,
        mach: &'a mut Option<MachCosts>,
    ) -> &'a MachCosts {
        let ambient = cfg.layout.ambient_flows;
        if mach.as_ref().is_none_or(|m| {
            m.ambient != ambient || m.classes != self.class_bytes || m.machine != cfg.machine
        }) {
            let eager_threshold = cfg.machine.nic.eager_threshold;
            let copy_bw = cfg.machine.mem.bw_bytes / 4.0;
            let o_send = cfg.machine.nic.o_send;
            let o_recv = cfg.machine.nic.o_recv;
            *mach = Some(MachCosts {
                machine: cfg.machine.clone(),
                ambient,
                classes: self.class_bytes.clone(),
                node_model: NodeModel::new(cfg.machine.clone()),
                class_costs: self
                    .class_bytes
                    .iter()
                    .map(|&b| ClassCost {
                        serial: p2p.serial_cost(b),
                        shm_serial: p2p.shm_serial_cost(b),
                        copy: SimTime::from_secs(b as f64 / copy_bw),
                        eager: b <= eager_threshold,
                    })
                    .collect(),
                // rendezvous handshake round trip: a zero-byte wire
                // time plus both overheads (route-independent part)
                hs_off: p2p.serial_cost(0) + o_send + o_recv,
                hs_shm: p2p.shm_base() + p2p.shm_serial_cost(0) + o_send + o_recv,
            });
        }
        mach.as_ref().expect("machine tables just ensured")
    }

    /// The one cost-table builder: price the `L` points `cfgs` (sharing
    /// one machine, mode and torus; they may differ in rank layout)
    /// into `ctx.costs`, lanes innermost. Byte-dependent terms come from
    /// the machine tables (float work once per payload class), routes
    /// from integer hop geometry computed once per (src, dst) rank pair
    /// (compile emits a pair's classes consecutively), so the pricing
    /// loop stays free of floating point and `SimTime`'s integer
    /// addition keeps every sum bit-identical to `P2pModel::wire_time`.
    ///
    /// Panics, as replay would fail, when a layout does not place
    /// exactly the compiled ranks or the DAG is structurally
    /// deadlocked.
    fn price<const L: usize>(&self, cfgs: &[SimConfig], ctx: &mut EvalCtx) {
        // a fixed-length view lets the per-lane loops unroll
        let cfgs: &[SimConfig; L] = cfgs.try_into().expect("one point per lane");
        for cfg in cfgs {
            assert_eq!(cfg.ranks(), self.ranks, "layout must place exactly the compiled ranks");
        }
        if let Some((count, rank, op)) = self.deadlock {
            panic!("deadlock: {count} ranks did not finish, e.g. rank {rank} at op {op}");
        }
        let cfg0 = &cfgs[0];
        let p2p =
            P2pModel::new(&cfg0.machine, cfg0.layout.torus).with_ambient(cfg0.layout.ambient_flows);
        let EvalCtx { mach, torus: cached_torus, coords, costs: t, .. } = ctx;
        let mc = self.mach_costs(cfg0, &p2p, mach);
        let torus = p2p.torus();
        if *cached_torus != Some(*torus) {
            *cached_torus = Some(*torus);
            coords.clear();
            coords.extend((0..torus.nodes()).map(|i| torus.coord(i)));
        }
        let nchan = self.channels.len();
        t.wire.clear();
        t.wire.resize(nchan * L, (SimTime::ZERO, SimTime::ZERO));
        t.hop.clear();
        t.hop.resize(nchan * L, SimTime::ZERO);
        t.on_node.clear();
        t.on_node.resize(nchan * L, false);
        t.copy.clear();
        t.copy.resize(nchan, SimTime::ZERO);
        t.eager.clear();
        t.eager.resize(nchan, false);
        let shm_base = p2p.shm_base();
        let mut prev_pair = (u32::MAX, u32::MAX);
        let mut hop = [SimTime::ZERO; L];
        let mut on_node = [false; L];
        for (ci, c) in self.channels.iter().enumerate() {
            if (c.src, c.dst) != prev_pair {
                prev_pair = (c.src, c.dst);
                for (l, cfg) in cfgs.iter().enumerate() {
                    let src_node = cfg.layout.node_of_rank[c.src as usize];
                    let dst_node = cfg.layout.node_of_rank[c.dst as usize];
                    on_node[l] = src_node == dst_node;
                    hop[l] = if on_node[l] {
                        SimTime::ZERO
                    } else {
                        p2p.hop_cost(torus.hops(coords[src_node], coords[dst_node]))
                    };
                }
            }
            let cl = &mc.class_costs[c.class as usize];
            t.copy[ci] = cl.copy;
            t.eager[ci] = cl.eager;
            let rdv = |hs: SimTime| if cl.eager { SimTime::ZERO } else { hs };
            // one contiguous write per channel and table, lanes innermost
            *lanes_mut::<L, _>(&mut t.wire, ci * L) = std::array::from_fn(|l| {
                if on_node[l] {
                    // on-node: shared-memory path, no hops
                    (shm_base + cl.shm_serial, rdv(mc.hs_shm))
                } else {
                    (hop[l] + cl.serial, rdv(hop[l] + mc.hs_off))
                }
            });
            *lanes_mut::<L, _>(&mut t.hop, ci * L) = hop;
            *lanes_mut::<L, _>(&mut t.on_node, ci * L) = on_node;
        }
        t.compute.clear();
        t.compute.extend(
            self.compute_costs
                .iter()
                .map(|&(work, threads)| mc.node_model.time(&work, cfg0.mode, threads)),
        );
        t.coll.clear();
        t.coll.resize(self.coll_costs.len() * L, SimTime::ZERO);
        if !self.coll_costs.is_empty() {
            for (l, cfg) in cfgs.iter().enumerate() {
                let lay = &cfg.layout;
                let models: Vec<CollectiveModel> = self
                    .comms
                    .iter()
                    .map(|m| {
                        CollectiveModel::with_hop_scale(
                            &cfg.machine,
                            m.len(),
                            lay.tasks_per_node,
                            lay.hop_scale,
                        )
                    })
                    .collect();
                for (k, &(comm, op)) in self.coll_costs.iter().enumerate() {
                    t.coll[k * L + l] = models[comm as usize].time(op);
                }
            }
        }
        t.hs_off = mc.hs_off;
    }

    /// Price up to `L` perturbation samples (lane `l ≥ samples.len()`
    /// repeats the last sample — padding for a partial final batch).
    /// Delta re-pricing taken to its limit: nothing is materialized per
    /// (cost, lane) at all. A perturbed lane's cost is always
    /// `base ⊗ factor`, so pricing stores only the four per-lane scale
    /// factors and the streaming pass applies them in registers against
    /// the base point's one-lane tables — an untouched group's factor is
    /// exactly 1.0 and `scale_ps` passes the base bits through
    /// unchanged, so identity lanes stay bit-identical.
    fn price_perturbed<const L: usize>(samples: &[Perturbation], ctx: &mut EvalCtx) {
        debug_assert!(!samples.is_empty() && samples.len() <= L);
        let EvalCtx { lane_delay, lane_inv_bw, lane_hop_scale, lane_coll_scale, .. } = &mut *ctx;
        for v in [&mut *lane_delay, &mut *lane_inv_bw, &mut *lane_hop_scale, &mut *lane_coll_scale]
        {
            v.clear();
            v.resize(L, 1.0);
        }
        let last = samples.len() - 1;
        for l in 0..L {
            let p = &samples[l.min(last)];
            lane_delay[l] = p.compute_scale;
            // bandwidth multiplies; serialization time divides (1/1.0
            // is exactly 1.0, so an untouched link keeps base bits)
            lane_inv_bw[l] = 1.0 / p.bw_scale;
            lane_hop_scale[l] = p.hop_scale;
            lane_coll_scale[l] = p.coll_scale;
        }
    }

    /// `L` points sharing one machine (differing only in rank layout),
    /// priced together and evaluated in one walk of the schedule: a
    /// mapping batch, or a single point at `L = 1`.
    fn evaluate_lanes<const L: usize>(
        &self,
        cfgs: &[SimConfig],
        ctx: &mut EvalCtx,
        out: &mut Vec<SimResult>,
    ) {
        self.price::<L>(cfgs, ctx);
        let nic = &cfgs[0].machine.nic;
        self.stream_lanes::<L, false>(nic.o_send, nic.o_recv, ctx, out);
    }

    /// The one streaming pass, shared by single points and mapping
    /// batches ([`TraceDag::evaluate_lanes`]) and by perturbed batches
    /// ([`TraceDag::evaluate_perturbed`]): evaluate `L` lanes whose
    /// costs are already priced in ONE walk of the schedule. A point or
    /// mapping batch reads the `L`-lane tables in `ctx.costs`; a perturbed
    /// (`FACTORED`) batch reads the base point's one-lane tables and
    /// scales them per lane. The schedule fixes all control flow and
    /// resolved each wait's kind and message slot into its node, so
    /// the only structural state left here is the collective membership
    /// counts (identical across lanes, scalar); timing state (clocks,
    /// route costs, arrival times) widens to `L` interleaved lanes, so
    /// one request's lanes share a cache line and the node decode +
    /// dispatch cost is paid once for all `L` points.
    fn stream_lanes<const L: usize, const FACTORED: bool>(
        &self,
        o_send: SimTime,
        o_recv: SimTime,
        ctx: &mut EvalCtx,
        out: &mut Vec<SimResult>,
    ) {
        // The lane loops are pure u64 add/max/select chains — exactly
        // what 4- and 8-wide integer SIMD eats — but the portable
        // baseline build can't use those instructions. Compile the
        // kernel three times and pick the widest ISA the CPU reports;
        // every path runs the same integer arithmetic, so results stay
        // bit-identical across the dispatch.
        #[cfg(target_arch = "x86_64")]
        {
            static ISA: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
            let isa = *ISA.get_or_init(|| {
                if std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512dq")
                    && std::is_x86_feature_detected!("avx512bw")
                    && std::is_x86_feature_detected!("avx512vl")
                {
                    2
                } else if std::is_x86_feature_detected!("avx2") {
                    1
                } else {
                    0
                }
            });
            if isa == 2 {
                // SAFETY: the matching CPU features were detected above.
                return unsafe {
                    self.stream_lanes_avx512::<L, FACTORED>(o_send, o_recv, ctx, out)
                };
            }
            if isa == 1 {
                // SAFETY: the matching CPU features were detected above.
                return unsafe { self.stream_lanes_avx2::<L, FACTORED>(o_send, o_recv, ctx, out) };
            }
        }
        self.stream_lanes_impl::<L, FACTORED>(o_send, o_recv, ctx, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    unsafe fn stream_lanes_avx512<const L: usize, const FACTORED: bool>(
        &self,
        o_send: SimTime,
        o_recv: SimTime,
        ctx: &mut EvalCtx,
        out: &mut Vec<SimResult>,
    ) {
        self.stream_lanes_impl::<L, FACTORED>(o_send, o_recv, ctx, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn stream_lanes_avx2<const L: usize, const FACTORED: bool>(
        &self,
        o_send: SimTime,
        o_recv: SimTime,
        ctx: &mut EvalCtx,
        out: &mut Vec<SimResult>,
    ) {
        self.stream_lanes_impl::<L, FACTORED>(o_send, o_recv, ctx, out)
    }

    #[inline(always)]
    fn stream_lanes_impl<const L: usize, const FACTORED: bool>(
        &self,
        o_send: SimTime,
        o_recv: SimTime,
        ctx: &mut EvalCtx,
        out: &mut Vec<SimResult>,
    ) {
        let n = self.ranks;
        let EvalCtx {
            costs,
            point,
            inst_arrived,
            lane_delay,
            lane_inv_bw,
            lane_hop_scale,
            lane_coll_scale,
            lane_req_val,
            lane_msgs,
            lane_run_start,
            lane_inst_latest,
            ..
        } = &mut *ctx;
        let t: &CostTables = if FACTORED {
            &point.as_ref().expect("perturbed batches price their base point").costs
        } else {
            costs
        };
        // Per-lane factors as fixed arrays: indexing the ctx `Vec`s
        // directly would re-prove bounds per lane inside the hot loops,
        // which blocks their vectorization.
        let (f_delay, f_inv_bw, f_hop, f_coll): ([f64; L], [f64; L], [f64; L], [f64; L]) =
            if FACTORED {
                (
                    *lanes(lane_delay, 0),
                    *lanes(lane_inv_bw, 0),
                    *lanes(lane_hop_scale, 0),
                    *lanes(lane_coll_scale, 0),
                )
            } else {
                ([1.0; L], [1.0; L], [1.0; L], [1.0; L])
            };
        // Batch-level delta re-pricing: a sensitivity battery feeds
        // whole chunks from one parameter group, so the other groups'
        // factors are 1.0 across every lane — those arms then skip the
        // per-lane float scaling entirely and broadcast base bits.
        let id_link = f_inv_bw == [1.0; L] && f_hop == [1.0; L];
        let id_comp = f_delay == [1.0; L];
        let id_coll = f_coll == [1.0; L];

        // Per-batch state. The per-rank clocks and marks move into the
        // returned results, so they are fresh allocations; the big
        // request/message scratch is reused across batches WITHOUT a
        // reset — safe because every slot the pass reads was written
        // earlier in the same pass: a `Wait` follows its request's send
        // or lowered `WaitRecv` in program order, a `WaitRecv` follows
        // its receive and (by the schedule) the paired send, and stuck
        // ranks never make it into the stream.
        let mut clock = vec![SimTime::ZERO; n * L];
        let mut busy = vec![SimTime::ZERO; n * L];
        // allocated lazily: most DAGs carry no marks, and the n·L
        // scratch plus its per-lane de-interleave is pure overhead then
        let mut marks: Vec<Vec<(u32, SimTime)>> = Vec::new();
        lane_run_start.clear();
        lane_run_start.resize(n * L, SimTime::ZERO);
        if lane_req_val.len() < self.n_reqs as usize * L {
            lane_req_val.resize(self.n_reqs as usize * L, SimTime::ZERO);
        }
        let rec = 3 * L; // one message record: arrive, post_rs, post_clk
        if lane_msgs.len() < self.n_msgs as usize * rec {
            lane_msgs.resize(self.n_msgs as usize * rec, SimTime::ZERO);
        }
        inst_arrived.clear();
        inst_arrived.resize(self.insts.len(), 0);
        lane_inst_latest.clear();
        lane_inst_latest.resize(self.insts.len() * L, SimTime::ZERO);

        let mut si = 0usize;
        for &(rank, len) in &self.runs {
            let r = rank as usize;
            let mut clk = [SimTime::ZERO; L];
            let mut rs = [SimTime::ZERO; L];
            let mut bz = [SimTime::ZERO; L];
            clk.copy_from_slice(&clock[r * L..r * L + L]);
            rs.copy_from_slice(&lane_run_start[r * L..r * L + L]);
            bz.copy_from_slice(&busy[r * L..r * L + L]);
            for node in &self.stream[si..si + len as usize] {
                match *node {
                    Node::Compute { cost } => {
                        // compute cost is layout-independent: one priced
                        // value for every lane, scaled per lane in
                        // registers by a perturbed batch
                        let c = t.compute[cost as usize];
                        if id_comp {
                            for l in 0..L {
                                clk[l] = clk[l].saturating_add(c);
                                bz[l] = bz[l].saturating_add(c);
                            }
                        } else {
                            for l in 0..L {
                                let c = scale_ps(c, f_delay[l]);
                                clk[l] = clk[l].saturating_add(c);
                                bz[l] = bz[l].saturating_add(c);
                            }
                        }
                    }
                    Node::Delay { time } => {
                        if id_comp {
                            for l in 0..L {
                                clk[l] = clk[l].saturating_add(time);
                                bz[l] = bz[l].saturating_add(time);
                            }
                        } else {
                            for l in 0..L {
                                let t = scale_ps(time, f_delay[l]);
                                clk[l] = clk[l].saturating_add(t);
                                bz[l] = bz[l].saturating_add(t);
                            }
                        }
                    }
                    Node::Send { chan, msg, req } => {
                        let ci = chan as usize;
                        let eager = t.eager[ci];
                        let rv = lanes_mut::<L, _>(lane_req_val, req as usize * L);
                        let mut arrive = [SimTime::ZERO; L];
                        if FACTORED {
                            if t.on_node[ci] || id_link {
                                // shared-memory path (link parameters
                                // don't price it) or a batch that
                                // leaves the link untouched: base bits
                                let (wire, rdv) = t.wire[ci];
                                for l in 0..L {
                                    clk[l] = clk[l].saturating_add(o_send);
                                    arrive[l] = clk[l].saturating_add(rdv).saturating_add(wire);
                                    rv[l] = if eager { clk[l] } else { arrive[l] };
                                }
                            } else {
                                let hop = t.hop[ci];
                                let serial = t.wire[ci].0 - hop;
                                let hs_off = t.hs_off;
                                for l in 0..L {
                                    clk[l] = clk[l].saturating_add(o_send);
                                    let h = scale_ps(hop, f_hop[l]);
                                    let wire = h.saturating_add(scale_ps(serial, f_inv_bw[l]));
                                    let rdv = if eager {
                                        SimTime::ZERO
                                    } else {
                                        h.saturating_add(hs_off)
                                    };
                                    arrive[l] = clk[l].saturating_add(rdv).saturating_add(wire);
                                    rv[l] = if eager { clk[l] } else { arrive[l] };
                                }
                            }
                        } else {
                            let ch = lanes::<L, _>(&t.wire, ci * L);
                            for l in 0..L {
                                clk[l] = clk[l].saturating_add(o_send);
                                let (wire, rdv) = ch[l];
                                arrive[l] = clk[l].saturating_add(rdv).saturating_add(wire);
                                rv[l] = if eager { clk[l] } else { arrive[l] };
                            }
                        }
                        if msg != NONE {
                            lanes_mut::<L, _>(lane_msgs, msg as usize * rec)
                                .copy_from_slice(&arrive);
                        }
                    }
                    Node::Recv { msg, .. } => {
                        for c in &mut clk {
                            *c = c.saturating_add(o_recv);
                        }
                        if msg != NONE {
                            let m = msg as usize * rec;
                            lanes_mut::<L, _>(lane_msgs, m + L).copy_from_slice(&rs);
                            lanes_mut::<L, _>(lane_msgs, m + 2 * L).copy_from_slice(&clk);
                        }
                    }
                    Node::Wait { req } => {
                        let rv = lanes::<L, _>(lane_req_val, req as usize * L);
                        // unconditional blended stores, not masked
                        // stores: a masked store to `clk` defeats
                        // store-to-load forwarding and the very next
                        // node reloads `clk` from the stack
                        for l in 0..L {
                            clk[l] = clk[l].max(rv[l]);
                        }
                    }
                    Node::WaitRecv { chan, msg, req } => {
                        let m = msg as usize * rec;
                        let copy = t.copy[chan as usize];
                        let ma = lanes::<L, _>(lane_msgs, m);
                        let mp_rs = lanes::<L, _>(lane_msgs, m + L);
                        let mp_clk = lanes::<L, _>(lane_msgs, m + 2 * L);
                        let rv = lanes_mut::<L, _>(lane_req_val, req as usize * L);
                        // branchless per lane, all stores unconditional:
                        // conditional (masked) stores to `rs`/`clk` stall
                        // the reload in the next node
                        for l in 0..L {
                            let a = ma[l];
                            // unexpected iff the arrival popped before
                            // the receive's run began (per lane)
                            let unexpected = a < mp_rs[l];
                            let copied = mp_clk[l].saturating_add(copy);
                            let done = if unexpected { copied } else { a };
                            rs[l] = if unexpected { rs[l] } else { rs[l].max(a) };
                            rv[l] = done;
                            clk[l] = clk[l].max(done);
                        }
                    }
                    Node::Coll { inst } => {
                        let i = inst as usize;
                        inst_arrived[i] += 1;
                        let il = i * L;
                        {
                            let latest = lanes_mut::<L, _>(lane_inst_latest, il);
                            for l in 0..L {
                                latest[l] = latest[l].max(clk[l]);
                            }
                        }
                        let spec = self.insts[i];
                        let members = &self.comms[spec.comm as usize];
                        if (inst_arrived[i] as usize) < members.len() {
                            continue; // suspend: this ends the run
                        }
                        let cb = spec.cost as usize * L;
                        clock[r * L..r * L + L].copy_from_slice(&clk);
                        let latest = lanes::<L, _>(lane_inst_latest, il);
                        let mut done = [SimTime::ZERO; L];
                        if FACTORED {
                            let c = t.coll[spec.cost as usize];
                            if id_coll {
                                for l in 0..L {
                                    done[l] = latest[l].saturating_add(c);
                                }
                            } else {
                                for l in 0..L {
                                    done[l] = latest[l].saturating_add(scale_ps(c, f_coll[l]));
                                }
                            }
                        } else {
                            let cost = lanes::<L, _>(&t.coll, cb);
                            for l in 0..L {
                                done[l] = latest[l].saturating_add(cost[l]);
                            }
                        }
                        for &mr in members {
                            let cl = lanes_mut::<L, _>(&mut clock, mr * L);
                            let st = lanes_mut::<L, _>(lane_run_start, mr * L);
                            for l in 0..L {
                                cl[l] = cl[l].max(done[l]);
                                st[l] = done[l];
                            }
                        }
                        clk.copy_from_slice(&clock[r * L..r * L + L]);
                        rs.copy_from_slice(&lane_run_start[r * L..r * L + L]);
                    }
                    Node::Mark { id } => {
                        if marks.is_empty() {
                            marks.resize(n * L, Vec::new());
                        }
                        for l in 0..L {
                            marks[r * L + l].push((id, clk[l]));
                        }
                    }
                }
            }
            si += len as usize;
            clock[r * L..r * L + L].copy_from_slice(&clk);
            lane_run_start[r * L..r * L + L].copy_from_slice(&rs);
            busy[r * L..r * L + L].copy_from_slice(&bz);
        }

        // de-interleave one SimResult per lane; one lane already is the
        // per-rank layout, so its arrays move into the result whole
        for l in 0..L {
            let lane = |v: &mut Vec<SimTime>| {
                if L == 1 {
                    std::mem::take(v)
                } else {
                    (0..n).map(|r| v[r * L + l]).collect()
                }
            };
            out.push(SimResult {
                finish: lane(&mut clock),
                busy: lane(&mut busy),
                bytes_sent: self.total_bytes,
                messages: self.total_msgs,
                marks: if marks.is_empty() {
                    vec![Vec::new(); n]
                } else if L == 1 {
                    std::mem::take(&mut marks)
                } else {
                    (0..n).map(|r| std::mem::take(&mut marks[r * L + l])).collect()
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FnProgram, Mpi, Program};
    use crate::sim::TraceSim;
    use hpcsim_engine::SimTime;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};
    use hpcsim_machine::ExecMode;
    use hpcsim_net::DType;
    use hpcsim_topo::Mapping;

    /// Replay and DAG-evaluate the same traces on a contention-flat
    /// machine; every observable must agree exactly.
    fn check<P: Program>(prog: &P, machine: MachineSpec, ranks: usize, mode: ExecMode) {
        let cfg = SimConfig::new(machine.with_flat_contention(), ranks, mode);
        let traces = TraceSim::trace_program(prog, ranks, cfg.threads);
        let replay = TraceSim::new(cfg.clone()).replay(&traces);
        let dag = TraceDag::compile(&traces).evaluate(&cfg);
        assert_eq!(replay.finish, dag.finish);
        assert_eq!(replay.busy, dag.busy);
        assert_eq!(replay.bytes_sent, dag.bytes_sent);
        assert_eq!(replay.messages, dag.messages);
        assert_eq!(replay.marks, dag.marks);
    }

    #[test]
    fn ping_pong_matches_replay() {
        let prog = FnProgram(|mpi: &mut Mpi| match mpi.rank() {
            0 => {
                mpi.send(1, 0, 8);
                mpi.recv(1, 1, 8);
            }
            _ => {
                mpi.recv(0, 0, 8);
                mpi.send(0, 1, 8);
            }
        });
        check(&prog, bluegene_p(), 2, ExecMode::Smp);
        check(&prog, xt4_qc(), 2, ExecMode::Smp);
    }

    #[test]
    fn same_tag_fifo_matches_replay() {
        check(
            &FnProgram(|mpi: &mut Mpi| {
                if mpi.rank() == 0 {
                    mpi.send(1, 9, 64);
                    mpi.send(1, 9, 64);
                } else {
                    mpi.recv(0, 9, 64);
                    mpi.recv(0, 9, 64);
                }
            }),
            bluegene_p(),
            2,
            ExecMode::Smp,
        );
    }

    #[test]
    fn unexpected_message_copy_matches_replay() {
        for delay_us in [0u64, 1, 100, 10_000] {
            check(
                &FnProgram(move |mpi: &mut Mpi| {
                    if mpi.rank() == 0 {
                        mpi.send(1, 0, 1024);
                    } else {
                        mpi.delay(SimTime::from_us(delay_us));
                        mpi.recv(0, 0, 1024);
                    }
                }),
                bluegene_p(),
                2,
                ExecMode::Smp,
            );
        }
    }

    #[test]
    fn rendezvous_matches_replay() {
        let big = bluegene_p().nic.eager_threshold * 100;
        check(
            &FnProgram(move |mpi: &mut Mpi| {
                if mpi.rank() == 0 {
                    mpi.send(1, 0, big);
                } else {
                    mpi.recv(0, 0, big);
                }
            }),
            bluegene_p(),
            2,
            ExecMode::Smp,
        );
    }

    #[test]
    fn ring_exchange_matches_replay_across_mappings() {
        let prog = FnProgram(|mpi: &mut Mpi| {
            let next = (mpi.rank() + 1) % mpi.size();
            let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
            mpi.sendrecv(next, 0, 65_536, prev, 0, 65_536);
            mpi.allreduce(crate::ops::CommId::WORLD, 8, DType::F64);
        });
        let machine = bluegene_p().with_flat_contention();
        let traces = TraceSim::trace_program(&prog, 64, 1);
        let dag = TraceDag::compile(&traces);
        for (_, mapping) in Mapping::fig2_set() {
            let layout = crate::layout::RankLayout::bluegene(&machine, 64, ExecMode::Vn, mapping);
            let cfg =
                SimConfig { machine: machine.clone(), mode: ExecMode::Vn, threads: 1, layout };
            let replay = TraceSim::new(cfg.clone()).replay(&traces);
            let fast = dag.evaluate(&cfg);
            assert_eq!(replay.finish, fast.finish, "mapping {mapping:?}");
            assert_eq!(replay.busy, fast.busy);
        }
    }

    #[test]
    fn collective_straggler_matches_replay() {
        check(
            &FnProgram(|mpi: &mut Mpi| {
                if mpi.rank() == 3 {
                    mpi.delay(SimTime::from_us(500));
                }
                mpi.barrier(crate::ops::CommId::WORLD);
                mpi.mark(7);
                mpi.allreduce(crate::ops::CommId::WORLD, 32 * 1024, DType::F32);
            }),
            bluegene_p(),
            8,
            ExecMode::Vn,
        );
    }

    #[test]
    fn subcommunicator_matches_replay() {
        let machine = bluegene_p().with_flat_contention();
        let cfg = SimConfig::new(machine, 8, ExecMode::Vn);
        let mut sim = TraceSim::new(cfg.clone());
        let prog = FnProgram(move |mpi: &mut Mpi| {
            if mpi.rank().is_multiple_of(2) {
                mpi.allreduce(crate::ops::CommId(1), 1024, DType::F64);
            }
        });
        let evens: Vec<usize> = (0..8).step_by(2).collect();
        let traces = TraceSim::trace_program(&prog, 8, 1).with_comms(vec![evens]);
        let replay = sim.replay(&traces);
        let dag = TraceDag::compile(&traces).evaluate(&cfg);
        assert_eq!(replay.finish, dag.finish);
        assert_eq!(replay.busy, dag.busy);
    }

    #[test]
    fn unmatched_send_and_unwaited_recv_match_replay() {
        // rank 0 sends a message nobody receives; rank 1 posts a receive
        // it never waits on — both finish in either engine
        check(
            &FnProgram(|mpi: &mut Mpi| {
                if mpi.rank() == 0 {
                    let s = mpi.isend(1, 5, 256);
                    mpi.wait(s);
                } else {
                    let _never = mpi.irecv(0, 6, 256);
                    mpi.delay(SimTime::from_us(3));
                }
            }),
            bluegene_p(),
            2,
            ExecMode::Smp,
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let prog = FnProgram(|mpi: &mut Mpi| {
            let peer = 1 - mpi.rank();
            mpi.recv(peer, 0, 8);
        });
        let cfg = SimConfig::new(bluegene_p().with_flat_contention(), 2, ExecMode::Smp);
        let traces = TraceSim::trace_program(&prog, 2, 1);
        let _ = TraceDag::compile(&traces).evaluate(&cfg);
    }

    #[test]
    fn stats_count_structure() {
        let prog = FnProgram(|mpi: &mut Mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 0, 64);
            } else {
                mpi.recv(0, 0, 64);
            }
            mpi.barrier(crate::ops::CommId::WORLD);
        });
        let traces = TraceSim::trace_program(&prog, 2, 1);
        let s = TraceDag::compile(&traces).stats();
        // rank 0: isend+wait+coll, rank 1: irecv+wait+coll
        assert_eq!(s.nodes, 6);
        assert_eq!(s.messages, 1);
        assert_eq!(s.channels, 1);
        assert_eq!(s.collectives, 1);
        assert_eq!(s.edges, 4 + 1 + 4); // program order + message + coll in/out
    }

    /// A ring exchange with a collective and marks — touches every
    /// cost group — compiled once for the perturbation tests.
    fn perturb_fixture() -> (TraceDag, SimConfig) {
        let prog = FnProgram(|mpi: &mut Mpi| {
            let next = (mpi.rank() + 1) % mpi.size();
            let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
            mpi.delay(SimTime::from_us(3));
            mpi.sendrecv(next, 0, 65_536, prev, 0, 65_536);
            mpi.mark(1);
            mpi.allreduce(crate::ops::CommId::WORLD, 8, DType::F64);
        });
        let machine = bluegene_p().with_flat_contention();
        let traces = TraceSim::trace_program(&prog, 64, 1);
        let dag = TraceDag::compile(&traces);
        let cfg = SimConfig::new(machine, 64, ExecMode::Vn);
        (dag, cfg)
    }

    #[test]
    fn identity_perturbation_is_bit_identical() {
        let (dag, cfg) = perturb_fixture();
        let base = dag.evaluate(&cfg);
        // every dispatch shape: scalar, padded narrow, full narrow,
        // wide + remainder
        for k in [1usize, 3, 8, 33, 40] {
            let res = dag.evaluate_perturbed(&cfg, &vec![Perturbation::IDENTITY; k]);
            assert_eq!(res.len(), k);
            for r in &res {
                assert_eq!(r.finish, base.finish, "batch of {k}");
                assert_eq!(r.busy, base.busy);
                assert_eq!(r.marks, base.marks);
            }
        }
    }

    #[test]
    fn perturbed_results_are_batch_invariant() {
        use hpcsim_machine::{PerturbSpec, PerturbationSampler};
        let (dag, cfg) = perturb_fixture();
        let sampler = PerturbationSampler::new(11, PerturbSpec::default());
        let mut samples: Vec<Perturbation> = (0..45).map(|i| sampler.sample(i)).collect();
        samples[7] = Perturbation::IDENTITY; // mix an identity lane in
        let batched = dag.evaluate_perturbed(&cfg, &samples);
        for (i, s) in samples.iter().enumerate() {
            let single = dag.evaluate_perturbed(&cfg, std::slice::from_ref(s));
            assert_eq!(batched[i].finish, single[0].finish, "sample {i}");
            assert_eq!(batched[i].busy, single[0].busy, "sample {i}");
        }
    }

    #[test]
    fn perturbations_move_costs_the_right_way() {
        let (dag, cfg) = perturb_fixture();
        let base = dag.evaluate(&cfg).makespan();
        let slower = [
            Perturbation { bw_scale: 0.5, ..Perturbation::IDENTITY },
            Perturbation { hop_scale: 2.0, ..Perturbation::IDENTITY },
            Perturbation { compute_scale: 2.0, ..Perturbation::IDENTITY },
            Perturbation { coll_scale: 2.0, ..Perturbation::IDENTITY },
        ];
        for (i, r) in dag.evaluate_perturbed(&cfg, &slower).iter().enumerate() {
            assert!(r.makespan() > base, "slowdown sample {i} must cost more");
        }
        let faster = Perturbation { bw_scale: 2.0, hop_scale: 0.5, ..Perturbation::IDENTITY };
        let r = &dag.evaluate_perturbed(&cfg, &[faster])[0];
        assert!(r.makespan() < base, "a faster network must cost less");
    }

    #[test]
    fn engine_selector_round_trips() {
        assert_eq!(SweepEngine::parse("replay"), Some(SweepEngine::Replay));
        assert_eq!(SweepEngine::parse("dag"), Some(SweepEngine::Dag));
        assert_eq!(SweepEngine::parse("fast"), None);
        assert_eq!(SweepEngine::Dag.label(), "dag");
        let before = sweep_engine();
        set_sweep_engine(SweepEngine::Dag);
        assert_eq!(sweep_engine(), SweepEngine::Dag);
        set_sweep_engine(before);
    }
}
