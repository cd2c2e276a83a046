//! Event-driven trace replay.
//!
//! Every rank's trace is replayed against the machine, layout and network
//! models. Ranks advance greedily until they block (on an unmatched
//! receive or a collective); message arrivals and collective completions
//! are events that unblock them. The event queue's deterministic FIFO
//! tie-break makes whole runs bit-reproducible.
//!
//! Protocol semantics implemented here (and the observable effects they
//! produce):
//!
//! * **eager** sends (≤ threshold) complete locally at injection; if the
//!   message lands before its receive is posted, matching pays an
//!   unexpected-message copy — so receive-first code beats send-first
//!   code for mid-sized halos (Fig 2a/b).
//! * **rendezvous** sends add a handshake round trip and complete only
//!   when the payload has drained — so `MPI_Sendrecv`'s serialization of
//!   exchange directions costs real time at large sizes.
//! * **collectives** complete `model_duration` after the *last* member
//!   arrives; early arrivals wait — load imbalance becomes collective
//!   time, exactly the effect the paper dissects with POP's timing
//!   barrier (Fig 4b).

use crate::layout::RankLayout;
use crate::ops::{Op, Req};
use crate::program::{Mpi, Program};
use crate::result::{SimError, SimResult};
use crate::traces::Traces;
use hpcsim_engine::{EventQueue, SimTime};
use hpcsim_faults::{FaultPlan, LinkFaults, LossModel, NoiseModel};
use hpcsim_machine::{ExecMode, MachineSpec, NodeModel, Workload};
use hpcsim_net::{
    CollectiveModel, CollectiveOp, FlowHandle, FlowTracker, P2pModel, RetransmitPolicy,
};
use hpcsim_obs as obs;
use hpcsim_probe::{GaugeId, NoopTracer, SpanEvent, SpanKind, Tracer};
use std::sync::LazyLock;

/// Obs counters for the replay engine and its fault diagnoses. All
/// volatile: replays only happen for points the DAG engine and the
/// scenario cache did not absorb.
struct ObsMetrics {
    replay_runs: &'static obs::Counter,
    fault_retransmits: &'static obs::Counter,
    fault_detour_legs: &'static obs::Counter,
    fault_stalls: &'static obs::Counter,
}

fn metrics() -> &'static ObsMetrics {
    use obs::Class::Volatile;
    static M: LazyLock<ObsMetrics> = LazyLock::new(|| ObsMetrics {
        replay_runs: obs::counter(
            "hpcsim_replay_runs_total",
            "Event-queue trace replays executed",
            Volatile,
        ),
        fault_retransmits: obs::counter(
            "hpcsim_fault_retransmits_total",
            "Lost messages re-sent under a fault plan",
            Volatile,
        ),
        fault_detour_legs: obs::counter(
            "hpcsim_fault_detour_legs_total",
            "Messages routed around dead links via a dog-leg detour",
            Volatile,
        ),
        fault_stalls: obs::counter(
            "hpcsim_fault_stalls_total",
            "Replays stopped by a fault-induced stall or unreachable peer",
            Volatile,
        ),
    });
    &M
}

/// Simulation configuration: machine + mode + layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The machine to simulate.
    pub machine: MachineSpec,
    /// Execution mode (drives resource sharing and layout density).
    pub mode: ExecMode,
    /// Default OpenMP threads per task for `compute` blocks.
    pub threads: u32,
    /// Rank placement.
    pub layout: RankLayout,
}

impl SimConfig {
    /// Default configuration: `ranks` tasks on `machine` in `mode`, with
    /// the family's default mapping and compact placement.
    pub fn new(machine: MachineSpec, ranks: usize, mode: ExecMode) -> Self {
        let layout = RankLayout::default_for(&machine, ranks, mode);
        SimConfig { machine, mode, threads: 1, layout }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.layout.ranks()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Blocked {
    None,
    OnReq(Req),
    OnCollective,
}

/// An in-flight message. `FlowHandle` is a fixed-size `Copy` value, so
/// the network registration rides inline instead of through a side
/// ledger. Slots are recycled through a free-list once the message has
/// been matched, so the ledger's footprint is bounded by the number of
/// messages simultaneously in flight, not the total sent.
#[derive(Debug)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u32,
    bytes: u64,
    flow: Option<FlowHandle>,
    /// Second route leg when fault detours dog-leg around an outage
    /// (`None` on the pristine path and for direct detours).
    flow2: Option<FlowHandle>,
}

/// Active fault injection, derived from a [`FaultPlan`] at
/// [`TraceSim::set_faults`] time. All draws at replay time are stateless
/// hashes, so the schedule is identical at any `--jobs` count.
#[derive(Debug, Clone)]
struct FaultContext {
    link_faults: Option<LinkFaults>,
    noise: Option<NoiseModel>,
    loss: Option<LossModel>,
    retransmit: RetransmitPolicy,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Resume(usize),
    Arrive {
        msg: usize,
    },
    /// A completed collective: one queue batch that resumes every member
    /// of communicator `comm`, in member order — the exact `(time, seq)`
    /// order of one `Resume` per member.
    Complete {
        comm: u32,
    },
}

/// Livelock watchdog: counts the events processed without the clock
/// advancing. A well-formed replay processes at most
/// `n + 2*sends + colls` events in total, so that many at a single
/// timestamp is already impossible — exceeding it means the queue is
/// cycling without clock progress. The derived budget is that bound
/// plus 1024 slack, counted while the program was recorded
/// ([`Traces::event_bound`]).
struct Watchdog {
    last_progress: SimTime,
    stuck: u64,
    budget: u64,
}

impl Watchdog {
    fn new(budget: u64) -> Self {
        Watchdog { last_progress: SimTime::ZERO, stuck: 0, budget }
    }

    /// Count one event at `now`; `Some(steps)` once the budget is
    /// exceeded.
    #[inline]
    fn tick(&mut self, now: SimTime) -> Option<u64> {
        if now > self.last_progress {
            self.last_progress = now;
            self.stuck = 0;
            return None;
        }
        self.stuck += 1;
        (self.stuck > self.budget).then_some(self.stuck)
    }
}

/// Per-replay memo of [`NodeModel::time`] keyed by `(workload,
/// threads)`: a pure function of those (the model and mode are fixed
/// for the replay), so a hit returns the bit-identical price. Ranks
/// repeat the same few compute blocks (a solver loop, a per-step
/// sweep), so a handful of slots with round-robin replacement catch
/// them. Keys compare with `PartialEq`: a NaN field never hits (it is
/// recomputed), and `-0.0 == 0.0` prices identically.
#[derive(Default)]
struct ComputeMemo {
    slots: Vec<(Workload, u32, SimTime)>,
    next: usize,
}

impl ComputeMemo {
    const SLOTS: usize = 8;

    fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
    }

    fn time(
        &mut self,
        model: &NodeModel,
        mode: ExecMode,
        work: &Workload,
        threads: u32,
    ) -> SimTime {
        if let Some(&(_, _, t)) = self.slots.iter().find(|(w, th, _)| *th == threads && w == work) {
            return t;
        }
        let t = model.time(work, mode, threads);
        if self.slots.len() < Self::SLOTS {
            self.slots.push((*work, threads, t));
        } else {
            self.slots[self.next] = (*work, threads, t);
            self.next = (self.next + 1) % Self::SLOTS;
        }
        t
    }
}

#[derive(Debug, Default)]
struct CollInstance {
    arrived: usize,
    latest: SimTime,
    op: Option<CollectiveOp>,
    done: Option<SimTime>,
}

/// Per-rank message-matching table: one flat append-only vec of
/// `(key, slot)` pairs scanned from a moving head. A pop takes the
/// first live entry with the key (FIFO per key, since pushes append in
/// order) and leaves a tombstone; the head skips leading tombstones so
/// a fully-drained table stays O(1). In-flight counts per rank are
/// small (a few neighbours × a few tags), so the scan is short — and
/// unlike a per-key queue-map there is one buffer per rank, not one per
/// (src, tag) pair, which the replay workspace keeps across replays.
#[derive(Debug)]
struct MatchQueues<T> {
    slots: Vec<(u64, Option<T>)>,
    head: usize,
    live: usize,
}

impl<T> Default for MatchQueues<T> {
    fn default() -> Self {
        MatchQueues { slots: Vec::new(), head: 0, live: 0 }
    }
}

impl<T> MatchQueues<T> {
    fn key(src: usize, tag: u32) -> u64 {
        ((src as u64) << 32) | tag as u64
    }

    /// Pop the FIFO-oldest live entry for (src, tag), if any.
    fn pop(&mut self, src: usize, tag: u32) -> Option<T> {
        let key = Self::key(src, tag);
        while self.head < self.slots.len() && self.slots[self.head].1.is_none() {
            self.head += 1;
        }
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
            return None;
        }
        for (k, slot) in &mut self.slots[self.head..] {
            if *k == key && slot.is_some() {
                self.live -= 1;
                return slot.take();
            }
        }
        None
    }

    /// Drop every entry, keeping the buffer.
    fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.live = 0;
    }

    /// Append an entry for (src, tag).
    fn push(&mut self, src: usize, tag: u32, item: T) {
        self.live += 1;
        self.slots.push((Self::key(src, tag), Some(item)));
    }

    /// Number of live (non-tombstone) entries — the table's occupancy.
    fn live(&self) -> usize {
        self.live
    }
}

/// Marks a request slot in [`ReplayWorkspace::req_done`] as not yet
/// complete. `SimTime::MAX` is the engine's absorbing "never": a request
/// could only complete there on a rank whose clock had already run to
/// the end of time.
const PENDING: SimTime = SimTime::MAX;

/// Every table one replay needs, kept per thread ([`WORKSPACE`]) so
/// back-to-back replays — a sweep's points, a pass's scenarios — reuse
/// their allocations instead of rebuilding a dozen rank-sized tables
/// and an event queue per call. [`ReplayWorkspace::reset`] readies it
/// for a trace set and keeps every capacity. The results a caller keeps
/// (`finish`, `busy`, `marks`) are allocated per replay instead.
#[derive(Default)]
struct ReplayWorkspace {
    clock: Vec<SimTime>,
    pc: Vec<usize>,
    blocked: Vec<Blocked>,
    finished: Vec<bool>,
    /// The `(comm, seq)` collective instance each rank is inside, if any.
    coll_current: Vec<Option<(u32, u64)>>,
    /// Completion time of every request, flat: rank `r`'s request `q`
    /// is slot [`Traces::req_base`]`[r] + q`, and reads [`PENDING`]
    /// until done.
    req_done: Vec<SimTime>,
    /// Per-destination-rank matching tables (dst is the index, not a
    /// key). These and `coll_seq` may run longer than the current rank
    /// count: the surplus keeps its buffers for a larger replay.
    arrived: Vec<MatchQueues<usize>>,
    posted: Vec<MatchQueues<(usize, Req)>>,
    /// Per-rank `(comm, next seq)` counters; a rank touches few comms.
    coll_seq: Vec<Vec<(u32, u64)>>,
    /// Collective instances indexed `[comm][seq]`; seqs are dense per
    /// comm.
    coll_state: Vec<Vec<CollInstance>>,
    /// The in-flight message ledger and its free-list.
    msgs: Vec<Msg>,
    msg_free: Vec<usize>,
    events: EventQueue<Ev>,
    compute_memo: ComputeMemo,
    /// Per-rank fault draw counters; empty unless noise / loss is armed.
    compute_step: Vec<u64>,
    send_seq: Vec<u64>,
}

// One workspace per thread, taken for the length of a replay and put
// back after it: a replay nested inside a tracer hook gets a fresh one,
// and a replay that panics just drops its workspace.
thread_local! {
    static WORKSPACE: std::cell::Cell<ReplayWorkspace> =
        std::cell::Cell::new(ReplayWorkspace::default());
}

impl ReplayWorkspace {
    /// Ready the workspace to replay `traces` in time linear in its
    /// ranks, request slots and communicators, keeping every
    /// allocation. The recording carries its own sizing — the request
    /// slot offsets and the replay's event bound — so nothing here reads
    /// an op. Returns the watchdog's derived budget (the bound plus 1024
    /// slack).
    fn reset(&mut self, traces: &Traces, noise: bool, loss: bool) -> u64 {
        fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
            v.clear();
            v.resize(len, value);
        }
        /// Grow `v` to at least `len` entries and clear its first `len`.
        fn reuse<T: Default>(v: &mut Vec<T>, len: usize, clear: impl Fn(&mut T)) {
            if v.len() < len {
                v.resize_with(len, T::default);
            }
            v[..len].iter_mut().for_each(clear);
        }
        let n = traces.ranks();
        refill(&mut self.clock, n, SimTime::ZERO);
        refill(&mut self.pc, n, 0);
        refill(&mut self.blocked, n, Blocked::None);
        refill(&mut self.finished, n, false);
        refill(&mut self.coll_current, n, None);
        refill(&mut self.compute_step, if noise { n } else { 0 }, 0);
        refill(&mut self.send_seq, if loss { n } else { 0 }, 0);
        reuse(&mut self.arrived, n, MatchQueues::clear);
        reuse(&mut self.posted, n, MatchQueues::clear);
        reuse(&mut self.coll_seq, n, Vec::clear);
        reuse(&mut self.coll_state, 1 + traces.comms().len(), Vec::clear);
        self.msgs.clear();
        self.msg_free.clear();
        self.events.reset();
        self.compute_memo.clear();
        refill(&mut self.req_done, traces.req_base()[n], PENDING);
        traces.event_bound() + 1024
    }
}

/// The replay engine. Construct, then [`TraceSim::run`] a program or
/// [`TraceSim::try_replay`] a recording.
pub struct TraceSim {
    cfg: SimConfig,
    node_model: NodeModel,
    p2p: P2pModel,
    tracker: FlowTracker,
    /// Collective models of the world and, during a replay, of the
    /// recording's sub-communicators.
    coll_models: Vec<CollectiveModel>,
    faults: Option<FaultContext>,
    step_budget: Option<u64>,
}

impl TraceSim {
    /// Build an engine for `cfg`. `CommId::WORLD` is pre-registered.
    pub fn new(cfg: SimConfig) -> Self {
        let node_model = NodeModel::new(cfg.machine.clone());
        let p2p =
            P2pModel::new(&cfg.machine, cfg.layout.torus).with_ambient(cfg.layout.ambient_flows);
        let tracker = FlowTracker::new(&cfg.layout.torus);
        let world_model = Self::coll_model(&cfg, cfg.ranks());
        TraceSim {
            cfg,
            node_model,
            p2p,
            tracker,
            coll_models: vec![world_model],
            faults: None,
            step_budget: None,
        }
    }

    /// Override the livelock watchdog's step budget: the maximum number
    /// of events the replay may process without the clock advancing
    /// before it gives up with [`SimError::Livelock`]. The default
    /// budget is derived from the trace's own event bound (one initial
    /// resume per rank, two events per send, one per collective entry),
    /// which a well-formed replay cannot exceed even if every event
    /// lands at the same timestamp — so the watchdog never misfires on
    /// legitimate programs. Fuzzing sets a tighter budget to bound
    /// adversarial scenarios in wall-clock time.
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.step_budget = budget;
    }

    /// Arm fault injection from a seeded plan. Link faults are drawn for
    /// this engine's torus; the noise amplitude follows the machine's
    /// BG/P-vs-XT4 asymmetry; retransmits use the default policy. With
    /// no call the replay path is byte-identical to the pristine engine.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        let links = self.cfg.layout.torus.links();
        self.faults = Some(FaultContext {
            link_faults: plan.link_faults(links),
            noise: plan.noise(self.cfg.machine.id.is_bluegene()),
            loss: plan.loss(),
            retransmit: RetransmitPolicy::default(),
        });
    }

    /// The collective model of a `members`-rank communicator under `cfg`.
    fn coll_model(cfg: &SimConfig, members: usize) -> CollectiveModel {
        CollectiveModel::with_hop_scale(
            &cfg.machine,
            members,
            cfg.layout.tasks_per_node,
            cfg.layout.hop_scale,
        )
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Record `prog` on every rank without replaying it. A recording
    /// depends only on (program, ranks, threads) — not on the machine,
    /// mode, or layout — so one recording can be replayed across many
    /// configurations (see [`TraceSim::try_replay`]). Each rank's ops go
    /// straight into the compact arena; attach sub-communicators with
    /// [`Traces::with_comms`].
    pub fn trace_program<P: Program + ?Sized>(prog: &P, ranks: usize, threads: u32) -> Traces {
        Mpi::record(prog, ranks, threads)
    }

    /// Record `prog` and replay it.
    pub fn run<P: Program + ?Sized>(&mut self, prog: &P) -> SimResult {
        let traces = Self::trace_program(prog, self.cfg.ranks(), self.cfg.threads);
        self.replay(&traces)
    }

    /// Replay a recording, panicking with the [`SimError`] diagnostic
    /// where [`TraceSim::try_replay`] would return it. Borrowing lets a
    /// parameter sweep (e.g. Fig 2's mapping comparison) record once and
    /// replay under every configuration.
    pub fn replay(&mut self, traces: &Traces) -> SimResult {
        self.try_replay(traces, &mut NoopTracer).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TraceSim::replay`] of a per-rank view of a world-only program,
    /// recorded into a [`Traces`] first. Benchmark-facing; retire with
    /// the next benchmark PR (ROADMAP: "One benchmark record that covers
    /// paper scale, and no dead code").
    pub fn replay_traces(&mut self, traces: &[Vec<Op>]) -> SimResult {
        self.replay(&Traces::from_rank_vecs(traces))
    }

    /// Replay a recording with an observability sink
    /// — the one replay core every other entry wraps. A fault-induced
    /// stall, cut-off destination, structural deadlock, collective
    /// mismatch, or watchdog-detected livelock comes back as a diagnosed
    /// [`SimError`] naming the stuck rank and message, instead of a
    /// panic or a wedged event queue.
    ///
    /// Every tracer hook is guarded by `if T::ENABLED`, so the
    /// [`NoopTracer`] instantiation compiles to the uninstrumented
    /// replay loop. Span semantics (the per-rank *cpu* spans — Compute,
    /// Delay, Send/RecvOverhead, Wait, CollectiveWait — tile
    /// `[0, finish]` exactly; net spans may overlap):
    ///
    /// * `MsgWire` is attributed to the *sender's* net track and carries
    ///   the contention-free wire time in `aux`, so `dur - aux` is pure
    ///   contention stretch;
    /// * `Rendezvous` covers the handshake round trip before the payload
    ///   drains;
    /// * `UnexpectedCopy` sits on the receiver's net track at the late
    ///   `Irecv` (the copy cost surfaces on the cpu track as `Wait`).
    pub fn try_replay<T: Tracer>(
        &mut self,
        traces: &Traces,
        tracer: &mut T,
    ) -> Result<SimResult, SimError> {
        assert_eq!(traces.ranks(), self.cfg.ranks(), "one trace per rank required");
        self.coll_models.truncate(1);
        for members in traces.comms() {
            let model = Self::coll_model(&self.cfg, members.len());
            self.coll_models.push(model);
        }
        let mut ws = WORKSPACE.take();
        let out = self.replay_in(&mut ws, traces, tracer);
        WORKSPACE.set(ws);
        out
    }

    /// The body of [`TraceSim::try_replay`], on a borrowed workspace.
    fn replay_in<T: Tracer>(
        &mut self,
        ws: &mut ReplayWorkspace,
        traces: &Traces,
        tracer: &mut T,
    ) -> Result<SimResult, SimError> {
        let torus = *self.p2p.torus();
        let n = traces.ranks();
        let eager_threshold = self.cfg.machine.nic.eager_threshold;
        let o_send = self.cfg.machine.nic.o_send;
        let o_recv = self.cfg.machine.nic.o_recv;
        // unexpected-message copy rate: payload memcpy through memory
        let copy_bw = self.cfg.machine.mem.bw_bytes / 4.0;

        // Fault-injection hooks. All `None` on the pristine path, where
        // every guarded branch below folds away to the legacy replay.
        let link_faults = self.faults.as_ref().and_then(|f| f.link_faults.as_ref());
        let fault_noise = self.faults.as_ref().and_then(|f| f.noise);
        let fault_loss = self.faults.as_ref().and_then(|f| f.loss);
        let retransmit =
            self.faults.as_ref().map_or_else(RetransmitPolicy::default, |f| f.retransmit);
        let mut total_retransmits = 0u64;
        let mut total_detour_legs = 0u64;
        let mut stalled: Option<SimError> = None;

        let derived_budget = ws.reset(traces, fault_noise.is_some(), fault_loss.is_some());
        let mut watchdog = Watchdog::new(self.step_budget.unwrap_or(derived_budget));
        let ReplayWorkspace {
            clock,
            pc,
            blocked,
            finished,
            coll_current,
            req_done,
            arrived,
            posted,
            coll_seq,
            coll_state,
            msgs,
            msg_free,
            events,
            compute_memo,
            compute_step,
            send_seq,
        } = ws;
        let mut busy = vec![SimTime::ZERO; n];
        let mut finish = vec![SimTime::ZERO; n];
        let mut marks: Vec<Vec<(u32, SimTime)>> = vec![Vec::new(); n];
        let mut total_bytes = 0u64;
        let mut total_msgs = 0u64;
        let req_base = traces.req_base();

        // the initial resumes land in the queue's same-time lane; the
        // heap holds arrivals and collective completions
        for r in 0..n {
            events.push(SimTime::ZERO, Ev::Resume(r));
        }

        'events: while let Some(ev) = events.pop() {
            let now = ev.time;
            // the ranks this event resumes: one, or a whole communicator
            let (comm, wakes) = match ev.payload {
                Ev::Resume(r) => (None, r..r + 1),
                Ev::Complete { comm } => (Some(comm as usize), 0..traces.comm_size(comm as usize)),
                Ev::Arrive { msg } => {
                    if let Some(steps) = watchdog.tick(now) {
                        stalled = Some(SimError::Livelock { rank: msgs[msg].dst, steps });
                        break;
                    }
                    let (dst, src, tag, flow, flow2) = {
                        let m = &mut msgs[msg];
                        (m.dst, m.src, m.tag, m.flow.take(), m.flow2.take())
                    };
                    for h in flow.into_iter().chain(flow2) {
                        if T::ENABLED {
                            for l in h.segs().links(&torus) {
                                tracer.link_delta(l.0 as u32, now, -1);
                            }
                        }
                        self.tracker.release(h);
                    }
                    match posted[dst].pop(src, tag) {
                        Some((rank, req)) => {
                            // matched on arrival: the slot is dead
                            msg_free.push(msg);
                            req_done[req_base[rank] + req.0 as usize] = now;
                            if blocked[rank] == Blocked::OnReq(req) {
                                blocked[rank] = Blocked::None;
                                events.push(now, Ev::Resume(rank));
                            }
                        }
                        None => {
                            arrived[dst].push(src, tag, msg);
                            if T::ENABLED {
                                tracer
                                    .gauge(GaugeId::ArrivedMatchDepth, arrived[dst].live() as u64);
                            }
                        }
                    }
                    continue;
                }
            };
            for k in wakes {
                let r = match comm {
                    Some(c) => {
                        if k > 0 {
                            events.retire_batched();
                        }
                        traces.comm_member(c, k)
                    }
                    None => k,
                };
                if let Some(steps) = watchdog.tick(now) {
                    stalled = Some(SimError::Livelock { rank: r, steps });
                    break 'events;
                }
                if finished[r] {
                    continue;
                }
                if clock[r] < now {
                    if T::ENABLED {
                        // the gap between blocking and this resume is
                        // time the rank spent blocked
                        let kind = if blocked[r] == Blocked::OnCollective {
                            SpanKind::CollectiveWait
                        } else {
                            SpanKind::Wait
                        };
                        tracer.span(SpanEvent::new(r as u32, kind, clock[r], now));
                    }
                    clock[r] = now;
                }
                let ops = traces.rank_range(r);
                'advance: loop {
                    if pc[r] >= ops.len() {
                        finished[r] = true;
                        finish[r] = clock[r];
                        break 'advance;
                    }
                    let op = traces.op(ops.start + pc[r]);
                    match op {
                        Op::Compute { work, threads } => {
                            let mut t =
                                compute_memo.time(&self.node_model, self.cfg.mode, &work, threads);
                            if let Some(nm) = fault_noise {
                                // OS-noise jitter: a stateless draw per
                                // (rank, compute step), so the schedule
                                // is identical at any worker count
                                let step = compute_step[r];
                                compute_step[r] = step + 1;
                                t = t.scale(nm.factor(r, step));
                            }
                            if T::ENABLED && t > SimTime::ZERO {
                                tracer.span(SpanEvent::new(
                                    r as u32,
                                    SpanKind::Compute,
                                    clock[r],
                                    clock[r] + t,
                                ));
                            }
                            clock[r] += t;
                            busy[r] += t;
                            pc[r] += 1;
                        }
                        Op::Delay { time } => {
                            if T::ENABLED && time > SimTime::ZERO {
                                tracer.span(SpanEvent::new(
                                    r as u32,
                                    SpanKind::Delay,
                                    clock[r],
                                    clock[r] + time,
                                ));
                            }
                            clock[r] += time;
                            busy[r] += time;
                            pc[r] += 1;
                        }
                        Op::Isend { dst, tag, bytes, req } => {
                            if T::ENABLED && o_send > SimTime::ZERO {
                                tracer.span(SpanEvent::new(
                                    r as u32,
                                    SpanKind::SendOverhead,
                                    clock[r],
                                    clock[r] + o_send,
                                ));
                            }
                            clock[r] += o_send;
                            let mut inject = clock[r];
                            if let Some(lm) = fault_loss {
                                let seq = send_seq[r];
                                send_seq[r] = seq + 1;
                                let lost = lm.lost_attempts(r, seq);
                                if lost > 0 {
                                    match retransmit.penalty(lost) {
                                        Some(pen) => {
                                            total_retransmits += lost as u64;
                                            if T::ENABLED && pen > SimTime::ZERO {
                                                tracer.span(
                                                    SpanEvent::new(
                                                        r as u32,
                                                        SpanKind::Retransmit,
                                                        inject,
                                                        inject + pen,
                                                    )
                                                    .with_msg(dst as u32, tag, bytes),
                                                );
                                            }
                                            // the NIC re-sends in the
                                            // background: injection slips,
                                            // the cpu track does not
                                            inject += pen;
                                        }
                                        None => {
                                            stalled = Some(SimError::Stalled {
                                                rank: r,
                                                peer: dst,
                                                tag,
                                                bytes,
                                                lost,
                                                op: pc[r],
                                            });
                                            break 'advance;
                                        }
                                    }
                                }
                            }
                            let src_node = self.cfg.layout.node_of_rank[r];
                            let dst_node = self.cfg.layout.node_of_rank[dst];
                            let (wire, handle, handle2) = match link_faults {
                                None => {
                                    let (w, h) = self.p2p.wire_time_contended(
                                        &mut self.tracker,
                                        src_node,
                                        dst_node,
                                        bytes,
                                    );
                                    (w, h, None)
                                }
                                Some(lf) => match self.p2p.wire_time_contended_avoiding(
                                    &mut self.tracker,
                                    lf,
                                    src_node,
                                    dst_node,
                                    bytes,
                                ) {
                                    Some(v) => {
                                        if v.2.is_some() {
                                            total_detour_legs += 1;
                                        }
                                        v
                                    }
                                    None => {
                                        stalled = Some(SimError::Unreachable {
                                            rank: r,
                                            peer: dst,
                                            tag,
                                            bytes,
                                        });
                                        break 'advance;
                                    }
                                },
                            };
                            let eager = bytes <= eager_threshold;
                            let rdv_extra = if eager {
                                SimTime::ZERO
                            } else {
                                let mut hs = self.p2p.handshake_time(handle.as_ref());
                                if let Some(h2) = handle2.as_ref() {
                                    // dog-leg detours pay the handshake
                                    // across both legs
                                    hs += self.p2p.handshake_time(Some(h2));
                                }
                                hs + o_send + o_recv
                            };
                            let arrive_t = inject + rdv_extra + wire;
                            if T::ENABLED {
                                for h in handle.iter().chain(handle2.iter()) {
                                    for l in h.segs().links(&torus) {
                                        tracer.link_delta(l.0 as u32, inject, 1);
                                    }
                                }
                                if !eager {
                                    tracer.span(
                                        SpanEvent::new(
                                            r as u32,
                                            SpanKind::Rendezvous,
                                            inject,
                                            inject + rdv_extra,
                                        )
                                        .with_msg(dst as u32, tag, bytes),
                                    );
                                }
                                let base = self.p2p.wire_time(src_node, dst_node, bytes);
                                tracer.span(
                                    SpanEvent::new(
                                        r as u32,
                                        SpanKind::MsgWire,
                                        inject + rdv_extra,
                                        arrive_t,
                                    )
                                    .with_msg(dst as u32, tag, bytes)
                                    .with_aux(base),
                                );
                            }
                            let m = Msg { src: r, dst, tag, bytes, flow: handle, flow2: handle2 };
                            let midx = match msg_free.pop() {
                                Some(slot) => {
                                    msgs[slot] = m;
                                    slot
                                }
                                None => {
                                    msgs.push(m);
                                    msgs.len() - 1
                                }
                            };
                            events.push(arrive_t, Ev::Arrive { msg: midx });
                            req_done[req_base[r] + req.0 as usize] =
                                if eager { inject } else { arrive_t };
                            total_bytes += bytes;
                            total_msgs += 1;
                            pc[r] += 1;
                        }
                        Op::Irecv { src, tag, bytes, req } => {
                            if T::ENABLED && o_recv > SimTime::ZERO {
                                tracer.span(SpanEvent::new(
                                    r as u32,
                                    SpanKind::RecvOverhead,
                                    clock[r],
                                    clock[r] + o_recv,
                                ));
                            }
                            clock[r] += o_recv;
                            match arrived[r].pop(src, tag) {
                                Some(midx) => {
                                    // unexpected message: pay the copy,
                                    // priced by what actually arrived
                                    // (a mismatched receive size does
                                    // not change what was sent)
                                    let _ = bytes;
                                    let copy =
                                        SimTime::from_secs(msgs[midx].bytes as f64 / copy_bw);
                                    if T::ENABLED {
                                        // always recorded, even zero-length:
                                        // the recorder's unexpected-message
                                        // counter rides on this span
                                        tracer.span(
                                            SpanEvent::new(
                                                r as u32,
                                                SpanKind::UnexpectedCopy,
                                                clock[r],
                                                clock[r] + copy,
                                            )
                                            .with_msg(src as u32, tag, bytes),
                                        );
                                    }
                                    msg_free.push(midx);
                                    req_done[req_base[r] + req.0 as usize] = clock[r] + copy;
                                }
                                None => {
                                    posted[r].push(src, tag, (r, req));
                                    if T::ENABLED {
                                        tracer.gauge(
                                            GaugeId::PostedMatchDepth,
                                            posted[r].live() as u64,
                                        );
                                    }
                                }
                            }
                            pc[r] += 1;
                        }
                        Op::Wait { req } => match req_done[req_base[r] + req.0 as usize] {
                            PENDING => {
                                blocked[r] = Blocked::OnReq(req);
                                break 'advance;
                            }
                            done => {
                                if done > clock[r] {
                                    if T::ENABLED {
                                        tracer.span(SpanEvent::new(
                                            r as u32,
                                            SpanKind::Wait,
                                            clock[r],
                                            done,
                                        ));
                                    }
                                    clock[r] = done;
                                }
                                pc[r] += 1;
                            }
                        },
                        Op::Collective { comm, op } => {
                            let cid = comm.0;
                            if let Some((kc, ks)) = coll_current[r] {
                                // re-execution after completion
                                let inst = &coll_state[kc as usize][ks as usize];
                                let done = inst.done.expect("resumed before completion");
                                coll_current[r] = None;
                                blocked[r] = Blocked::None;
                                if done > clock[r] {
                                    if T::ENABLED {
                                        tracer.span(SpanEvent::new(
                                            r as u32,
                                            SpanKind::CollectiveWait,
                                            clock[r],
                                            done,
                                        ));
                                    }
                                    clock[r] = done;
                                }
                                pc[r] += 1;
                            } else {
                                let counters = &mut coll_seq[r];
                                let pos = match counters.iter().position(|(c, _)| *c == cid) {
                                    Some(p) => p,
                                    None => {
                                        counters.push((cid, 0));
                                        counters.len() - 1
                                    }
                                };
                                let my_seq = counters[pos].1;
                                counters[pos].1 += 1;
                                let key = (cid, my_seq);
                                let members = traces.comm_size(cid as usize);
                                let instances = &mut coll_state[cid as usize];
                                if instances.len() <= my_seq as usize {
                                    instances
                                        .resize_with(my_seq as usize + 1, CollInstance::default);
                                }
                                let inst = &mut instances[my_seq as usize];
                                if let Some(prev) = inst.op {
                                    if prev != op {
                                        stalled = Some(SimError::CollectiveMismatch {
                                            rank: r,
                                            comm: cid,
                                            op: pc[r],
                                        });
                                        break 'advance;
                                    }
                                } else {
                                    inst.op = Some(op);
                                }
                                inst.arrived += 1;
                                if clock[r] > inst.latest {
                                    inst.latest = clock[r];
                                }
                                coll_current[r] = Some(key);
                                if inst.arrived == members {
                                    let dur = self.coll_models[cid as usize].time(op);
                                    let done = inst.latest + dur;
                                    inst.done = Some(done);
                                    events.push_batch(done, Ev::Complete { comm: cid }, members);
                                }
                                blocked[r] = Blocked::OnCollective;
                                break 'advance;
                            }
                        }
                        Op::Mark { id } => {
                            marks[r].push((id, clock[r]));
                            pc[r] += 1;
                        }
                    }
                }
                if stalled.is_some() {
                    break 'events;
                }
            }
        }

        if T::ENABLED {
            tracer.gauge(GaugeId::EventQueueDepth, events.high_water() as u64);
            if let Some(lf) = link_faults {
                tracer.gauge(GaugeId::LinkOutages, lf.n_dead() as u64);
            }
            if total_retransmits > 0 {
                tracer.gauge(GaugeId::Retransmits, total_retransmits);
            }
            let underflows = self.tracker.underflows();
            if underflows > 0 {
                tracer.gauge(GaugeId::FlowUnderflows, underflows);
            }
        }

        // one obs flush per replay — the per-message hot path above
        // never touches the registry
        let m = metrics();
        m.replay_runs.inc();
        m.fault_retransmits.add(total_retransmits);
        m.fault_detour_legs.add(total_detour_legs);
        if matches!(stalled, Some(SimError::Stalled { .. } | SimError::Unreachable { .. })) {
            m.fault_stalls.inc();
        }

        if let Some(e) = stalled {
            return Err(e);
        }

        if let Some(rank) = finished.iter().position(|&f| !f) {
            return Err(SimError::Deadlock {
                unfinished: finished.iter().filter(|&&f| !f).count(),
                rank,
                op: pc[rank],
            });
        }

        Ok(SimResult { finish, busy, bytes_sent: total_bytes, messages: total_msgs, marks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CommId;
    use crate::program::FnProgram;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};
    use hpcsim_net::DType;
    use hpcsim_probe::SpanEvent;

    fn sim(machine: MachineSpec, ranks: usize, mode: ExecMode) -> TraceSim {
        TraceSim::new(SimConfig::new(machine, ranks, mode))
    }

    /// Record `prog`'s traces for `s` and replay them fallibly.
    fn try_run(s: &mut TraceSim, prog: &impl Program) -> Result<SimResult, SimError> {
        let cfg = s.config();
        let traces = TraceSim::trace_program(prog, cfg.ranks(), cfg.threads);
        s.try_replay(&traces, &mut NoopTracer)
    }

    #[test]
    fn empty_program_finishes_at_zero() {
        let mut s = sim(bluegene_p(), 16, ExecMode::Vn);
        let res = s.run(&FnProgram(|_mpi: &mut Mpi| {}));
        assert_eq!(res.makespan(), SimTime::ZERO);
    }

    #[test]
    fn compute_only_is_busy_time() {
        let mut s = sim(bluegene_p(), 4, ExecMode::Vn);
        let res = s.run(&FnProgram(|mpi: &mut Mpi| {
            mpi.compute(Workload::Custom {
                flops: 3.06e9, // exactly 1 s at 90% of 3.4 GF/s
                dram_bytes: 0.0,
                simd_eff: 0.9,
                serial_frac: 0.0,
            });
        }));
        let t = res.makespan().as_secs();
        assert!((t - 1.0).abs() < 1e-9, "expected 1 s, got {t}");
        assert_eq!(res.busy[0], res.finish[0]);
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let res = s.run(&FnProgram(|mpi: &mut Mpi| match mpi.rank() {
            0 => {
                mpi.send(1, 0, 8);
                mpi.recv(1, 1, 8);
            }
            _ => {
                mpi.recv(0, 0, 8);
                mpi.send(0, 1, 8);
            }
        }));
        let rtt = res.makespan().as_secs();
        // two messages, each ~ o_send + o_recv + 1 hop
        assert!(rtt > 2e-6 && rtt < 20e-6, "rtt {rtt}");
    }

    #[test]
    fn message_ordering_matches_fifo() {
        // two same-tag messages must match in posting order
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let res = s.run(&FnProgram(|mpi: &mut Mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 9, 64);
                mpi.send(1, 9, 64);
            } else {
                mpi.recv(0, 9, 64);
                mpi.recv(0, 9, 64);
            }
        }));
        assert_eq!(res.messages, 2);
        assert!(res.makespan() > SimTime::ZERO);
    }

    #[test]
    fn collective_waits_for_slowest() {
        let mut s = sim(bluegene_p(), 8, ExecMode::Vn);
        let res = s.run(&FnProgram(|mpi: &mut Mpi| {
            if mpi.rank() == 3 {
                mpi.delay(SimTime::from_us(500)); // straggler
            }
            mpi.barrier(CommId::WORLD);
        }));
        // everyone leaves the barrier after the straggler
        let min_finish = res.finish.iter().min().unwrap();
        assert!(*min_finish >= SimTime::from_us(500));
    }

    #[test]
    fn allreduce_dp_faster_than_sp_on_bgp() {
        let time_for = |dtype| {
            let mut s = sim(bluegene_p(), 256, ExecMode::Vn);
            let res = s.run(&FnProgram(move |mpi: &mut Mpi| {
                mpi.allreduce(CommId::WORLD, 32 * 1024, dtype);
            }));
            res.makespan()
        };
        assert!(time_for(DType::F64) < time_for(DType::F32));
    }

    #[test]
    fn subcommunicator_collectives() {
        let mut s = sim(bluegene_p(), 8, ExecMode::Vn);
        let evens = CommId(1);
        let prog = FnProgram(move |mpi: &mut Mpi| {
            if mpi.rank().is_multiple_of(2) {
                mpi.allreduce(evens, 1024, DType::F64);
            }
        });
        let traces =
            TraceSim::trace_program(&prog, 8, 1).with_comms(vec![(0..8).step_by(2).collect()]);
        let res = s.replay(&traces);
        // odd ranks finish immediately; evens take the collective time
        assert_eq!(res.finish[1], SimTime::ZERO);
        assert!(res.finish[0] > SimTime::ZERO);
    }

    #[test]
    fn unexpected_message_costs_a_copy() {
        // Receiver posts late for a big eager-ish message: the late-post
        // path must not be faster than the early-post path.
        let run = |recv_delay_us: u64| {
            let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
            s.run(&FnProgram(move |mpi: &mut Mpi| {
                if mpi.rank() == 0 {
                    mpi.send(1, 0, 1024);
                } else {
                    mpi.delay(SimTime::from_us(recv_delay_us));
                    mpi.recv(0, 0, 1024);
                }
            }))
            .finish[1]
        };
        let early = run(0);
        let late = run(100);
        assert!(late > early);
        // the late receiver's extra cost exceeds its own delay
        assert!(late > SimTime::from_us(100));
    }

    #[test]
    fn rendezvous_send_blocks_until_drained() {
        let machine = bluegene_p();
        let thr = machine.nic.eager_threshold;
        let mut s = sim(machine, 2, ExecMode::Smp);
        let big = (thr * 100) as u64;
        let res = s.run(&FnProgram(move |mpi: &mut Mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 0, big);
            } else {
                mpi.recv(0, 0, big);
            }
        }));
        // sender cannot finish (wait returns) before the wire time of the
        // payload at 425 MB/s
        let wire_floor = big as f64 / 425e6;
        assert!(res.finish[0].as_secs() > wire_floor, "{} <= {wire_floor}", res.finish[0]);
    }

    #[test]
    fn eager_send_returns_immediately() {
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let res = s.run(&FnProgram(|mpi: &mut Mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 0, 8); // far below eager threshold
            } else {
                mpi.delay(SimTime::from_ms(10));
                mpi.recv(0, 0, 8);
            }
        }));
        // sender is done in microseconds even though receiver is slow
        assert!(res.finish[0] < SimTime::from_us(50));
        assert!(res.finish[1] > SimTime::from_ms(10));
    }

    #[test]
    fn marks_record_phase_times() {
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let res = s.run(&FnProgram(|mpi: &mut Mpi| {
            mpi.mark(1);
            mpi.delay(SimTime::from_us(10));
            mpi.mark(2);
        }));
        let m = &res.marks[0];
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], (1, SimTime::ZERO));
        assert_eq!(m[1], (2, SimTime::from_us(10)));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let _ = s.run(&FnProgram(|mpi: &mut Mpi| {
            // both ranks receive a message nobody sends
            let peer = 1 - mpi.rank();
            mpi.recv(peer, 0, 8);
        }));
    }

    #[test]
    fn deadlock_is_a_diagnosed_error_on_the_fallible_path() {
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let err = try_run(
            &mut s,
            &FnProgram(|mpi: &mut Mpi| {
                let peer = 1 - mpi.rank();
                mpi.recv(peer, 0, 8);
            }),
        )
        .expect_err("unmatched receives must deadlock");
        match err {
            SimError::Deadlock { unfinished, rank, op } => {
                assert_eq!(unfinished, 2);
                assert_eq!(rank, 0);
                // recv = [Irecv, Wait]; the rank is stuck on the Wait
                assert_eq!(op, 1);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn collective_mismatch_is_diagnosed() {
        let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
        let err = try_run(
            &mut s,
            &FnProgram(|mpi: &mut Mpi| {
                if mpi.rank() == 0 {
                    mpi.barrier(CommId::WORLD);
                } else {
                    mpi.allreduce(CommId::WORLD, 64, DType::F64);
                }
            }),
        )
        .expect_err("disagreeing collectives must be diagnosed");
        match err {
            SimError::CollectiveMismatch { rank, comm, op } => {
                assert_eq!((rank, comm, op), (1, 0, 0));
            }
            other => panic!("expected collective mismatch, got {other}"),
        }
    }

    #[test]
    fn tight_step_budget_diagnoses_livelock() {
        let mut s = sim(bluegene_p(), 8, ExecMode::Vn);
        s.set_step_budget(Some(2));
        let err = try_run(
            &mut s,
            &FnProgram(|mpi: &mut Mpi| {
                mpi.barrier(CommId::WORLD);
            }),
        )
        .expect_err("8 same-time resumes must exceed a 2-step budget");
        match err {
            SimError::Livelock { rank, steps } => {
                assert_eq!(steps, 3);
                assert_eq!(rank, 2);
            }
            other => panic!("expected livelock, got {other}"),
        }
        assert!(err.to_string().contains("watchdog"));
    }

    #[test]
    fn default_step_budget_never_misfires() {
        // every event of this run lands at t=0 (zero-cost barrier chain
        // would; marks certainly do) — the derived budget must absorb it
        let mut s = sim(bluegene_p(), 64, ExecMode::Vn);
        let res = try_run(
            &mut s,
            &FnProgram(|mpi: &mut Mpi| {
                for i in 0..16 {
                    mpi.mark(i);
                }
            }),
        )
        .expect("pristine zero-time program must finish");
        assert_eq!(res.makespan(), SimTime::ZERO);
    }

    /// Keeps only gauges: the event-queue high-water is what the fuzzer's
    /// coverage map and the trace report read.
    #[derive(Default)]
    struct Gauges([u64; 8]);

    impl Tracer for Gauges {
        const ENABLED: bool = true;
        fn span(&mut self, _ev: SpanEvent) {}
        fn link_delta(&mut self, _link: u32, _t: SimTime, _delta: i8) {}
        fn gauge(&mut self, id: GaugeId, value: u64) {
            let g = &mut self.0[id as usize];
            *g = (*g).max(value);
        }
    }

    /// An HPL-shaped program on a 4×4 grid: a row broadcast and a column
    /// allreduce per step over registered row/column communicators (so
    /// several collectives complete at one instant), then a neighbour
    /// exchange. Steps after the first keep eager halo sends in flight
    /// across both collectives, so completions pile onto a deep queue.
    fn hpl_like() -> (TraceSim, Traces) {
        let (p, q) = (4usize, 4usize);
        let s = sim(bluegene_p(), p * q, ExecMode::Vn);
        let row_members = (0..p).map(|i| (0..q).map(|j| i * q + j).collect());
        let col_members = (0..q).map(|j| (0..p).map(|i| i * q + j).collect());
        let comms: Vec<Vec<usize>> = row_members.chain(col_members).collect();
        let rows: Vec<CommId> = (0..p).map(|i| CommId(1 + i as u32)).collect();
        let cols: Vec<CommId> = (0..q).map(|j| CommId(1 + (p + j) as u32)).collect();
        let prog = FnProgram(move |mpi: &mut Mpi| {
            let r = mpi.rank();
            let (i, j) = (r / q, r % q);
            for k in 0..3 {
                if j == k % q {
                    mpi.compute(Workload::LuUpdate { m: 64, n: 64, k: 16 });
                }
                let right = i * q + (j + 1) % q;
                let left = i * q + (j + q - 1) % q;
                let down = ((i + 1) % p) * q + j;
                let up = ((i + p - 1) % p) * q + j;
                let tag = k as u32;
                if k == 0 {
                    mpi.bcast(rows[i], 64 * 64 * 8);
                    mpi.allreduce(cols[j], 64, DType::F64);
                    mpi.sendrecv(right, tag, 4096, left, tag, 4096);
                } else {
                    let mut reqs: Vec<Req> =
                        [right, left, down, up].iter().map(|&d| mpi.isend(d, tag, 512)).collect();
                    mpi.bcast(rows[i], 64 * 64 * 8);
                    mpi.allreduce(cols[j], 64, DType::F64);
                    for src in [left, right, up, down] {
                        reqs.push(mpi.irecv(src, tag, 512));
                    }
                    mpi.waitall(&reqs);
                }
                mpi.compute(Workload::LuUpdate { m: 64, n: 64, k: 64 });
            }
            mpi.barrier(CommId::WORLD);
        });
        let traces = TraceSim::trace_program(&prog, p * q, 1).with_comms(comms);
        (s, traces)
    }

    #[test]
    fn hpl_like_queue_depth_is_pinned() {
        // values captured from the one-heap-entry-per-member engine: a
        // completion batch must count as its members in the high-water
        let (mut s, traces) = hpl_like();
        let mut g = Gauges::default();
        let res = s.try_replay(&traces, &mut g).expect("well-formed program");
        assert_eq!(g.0[GaugeId::EventQueueDepth as usize], 80);
        assert_eq!(res.makespan(), SimTime(774_347_608));
    }

    #[test]
    fn hpl_like_tight_budget_livelock_is_pinned() {
        // 16 initial resumes at t = 0, then row and column completions
        // landing at one instant: budgets 16..=30 trip inside the column
        // batches, naming the member in member order
        for (budget, want) in [
            (15, Some((15, 16))),
            (16, Some((5, 17))),
            (20, Some((6, 21))),
            (27, Some((0, 28))),
            (30, Some((12, 31))),
            (31, None),
        ] {
            let (mut s, traces) = hpl_like();
            s.set_step_budget(Some(budget));
            let got = match s.try_replay(&traces, &mut NoopTracer) {
                Ok(_) => None,
                Err(SimError::Livelock { rank, steps }) => Some((rank, steps)),
                Err(e) => panic!("budget {budget}: unexpected {e}"),
            };
            assert_eq!(got, want, "budget {budget}");
        }
    }

    #[test]
    fn derived_step_budget_covers_runs_past_its_floor() {
        // every rank messages itself: all 1100 arrivals, then the 1100
        // match-time resumes, land at one instant — a 2200-event run
        // that only a budget counting the traces' sends (n + 2·sends +
        // 1024) absorbs; the n + 1024 rank term alone fires
        let n = 1100;
        let prog = FnProgram(|mpi: &mut Mpi| {
            let me = mpi.rank();
            let r = mpi.irecv(me, 0, 8);
            let s = mpi.isend(me, 0, 8);
            mpi.waitall(&[r, s]);
        });
        let mut s = sim(bluegene_p(), n, ExecMode::Vn);
        try_run(&mut s, &prog).expect("the derived budget absorbs the same-time run");
        let mut floor_only = sim(bluegene_p(), n, ExecMode::Vn);
        floor_only.set_step_budget(Some(n as u64 + 1024));
        let err = try_run(&mut floor_only, &prog).expect_err("the floor alone is too tight");
        assert!(matches!(err, SimError::Livelock { .. }), "{err}");
    }

    #[test]
    fn xt_faster_for_bandwidth_bound_exchange() {
        let run = |machine: MachineSpec| {
            let mut s = sim(machine, 2, ExecMode::Smp);
            s.run(&FnProgram(|mpi: &mut Mpi| {
                let peer = 1 - mpi.rank();
                mpi.sendrecv(peer, 0, 1 << 20, peer, 0, 1 << 20);
            }))
            .makespan()
        };
        let bgp = run(bluegene_p());
        let xt = run(xt4_qc());
        assert!(xt < bgp, "XT {xt} should beat BG/P {bgp} at 1 MiB");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut s = sim(bluegene_p(), 32, ExecMode::Vn);
            s.run(&FnProgram(|mpi: &mut Mpi| {
                let next = (mpi.rank() + 1) % mpi.size();
                let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
                mpi.sendrecv(next, 0, 4096, prev, 0, 4096);
                mpi.allreduce(CommId::WORLD, 8, DType::F64);
            }))
        };
        let a = run();
        let b = run();
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.bytes_sent, b.bytes_sent);
    }

    mod faults {
        use super::*;
        use hpcsim_faults::FaultProfile;

        fn ring_exchange(bytes: u64) -> FnProgram<impl Fn(&mut Mpi) + Copy> {
            FnProgram(move |mpi: &mut Mpi| {
                let next = (mpi.rank() + 1) % mpi.size();
                let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
                mpi.sendrecv(next, 0, bytes, prev, 0, bytes);
            })
        }

        #[test]
        fn noise_slows_compute_deterministically() {
            let run = |seed: Option<u64>| {
                let mut s = sim(bluegene_p(), 8, ExecMode::Vn);
                if let Some(sd) = seed {
                    s.set_faults(&FaultPlan::new(sd, FaultProfile::Noise));
                }
                s.run(&FnProgram(|mpi: &mut Mpi| {
                    for _ in 0..50 {
                        mpi.compute(Workload::Custom {
                            flops: 3.06e7,
                            dram_bytes: 0.0,
                            simd_eff: 0.9,
                            serial_frac: 0.0,
                        });
                    }
                    mpi.barrier(CommId::WORLD);
                }))
            };
            let pristine = run(None);
            let noisy = run(Some(3));
            let again = run(Some(3));
            assert_eq!(noisy.finish, again.finish);
            // jitter only ever adds time
            assert!(noisy.makespan() > pristine.makespan());
        }

        #[test]
        fn link_faults_detour_and_complete() {
            let prog = ring_exchange(256 * 1024);
            let mut a = sim(bluegene_p(), 64, ExecMode::Vn);
            let pristine = a.run(&prog);
            let mut b = sim(bluegene_p(), 64, ExecMode::Vn);
            b.set_faults(&FaultPlan::new(11, FaultProfile::Link));
            let faulty = try_run(&mut b, &prog).expect("detours should keep the job alive");
            assert!(faulty.makespan() >= pristine.makespan());
            assert_eq!(faulty.bytes_sent, pristine.bytes_sent);
        }

        #[test]
        fn exhausted_retransmits_stall_with_diagnosis() {
            let mut s = sim(bluegene_p(), 2, ExecMode::Smp);
            // force every attempt to drop: budget must run out
            s.faults = Some(FaultContext {
                link_faults: None,
                noise: None,
                loss: Some(LossModel::with_rates(1, 1.0, 8)),
                retransmit: RetransmitPolicy::default(),
            });
            let err = try_run(
                &mut s,
                &FnProgram(|mpi: &mut Mpi| {
                    if mpi.rank() == 0 {
                        mpi.send(1, 7, 4096);
                    } else {
                        mpi.recv(0, 7, 4096);
                    }
                }),
            )
            .expect_err("total loss must stall");
            match err {
                SimError::Stalled { rank, peer, tag, bytes, lost, op } => {
                    assert_eq!((rank, peer, tag, bytes), (0, 1, 7, 4096));
                    assert!(lost > RetransmitPolicy::default().max_retries);
                    // mpi.send() expands to [Isend, Wait]; the Isend is op 0
                    assert_eq!(op, 0);
                }
                other => panic!("expected a stall, got {other}"),
            }
            assert!(err.to_string().contains("retransmit budget exhausted"));
            assert!(err.to_string().contains("at op 0"));
        }

        #[test]
        fn fault_runs_are_reproducible() {
            let run = || {
                let mut s = sim(bluegene_p(), 32, ExecMode::Vn);
                s.set_faults(&FaultPlan::new(42, FaultProfile::Mixed));
                try_run(
                    &mut s,
                    &FnProgram(|mpi: &mut Mpi| {
                        let next = (mpi.rank() + 1) % mpi.size();
                        let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
                        mpi.sendrecv(next, 0, 4096, prev, 0, 4096);
                        mpi.allreduce(CommId::WORLD, 8, DType::F64);
                    }),
                )
            };
            match (run(), run()) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.finish, y.finish);
                    assert_eq!(x.bytes_sent, y.bytes_sent);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("fault runs diverged between executions"),
            }
        }
    }
}
