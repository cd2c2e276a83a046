//! Gate discipline and span-accounting invariants of the probe hooks.
//!
//! Two properties keep observability honest:
//!
//! 1. **Gate discipline** — every hook site tests `T::ENABLED` before
//!    calling a tracer method. A `PanickingTracer` (disabled constant,
//!    panicking methods) replayed over a scenario that reaches every
//!    hook path proves no call slips through, deterministically and
//!    independent of optimizer behaviour.
//! 2. **Clock tiling** — with recording on, each rank's cpu spans sum
//!    to exactly its finish time (integer picoseconds, no rounding),
//!    and the traced result is identical to the untraced one.

use hpcsim_engine::SimTime;
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, Workload};
use hpcsim_mpi::{CommId, FnProgram, Mpi, SimConfig, SimResult, TraceSim};
use hpcsim_net::DType;
use hpcsim_probe::{GaugeId, RingRecorder, SpanEvent, Tracer};

/// Disabled tracer whose methods all panic: if any hook site forgets its
/// `T::ENABLED` guard, the replay below explodes.
struct PanickingTracer;

impl Tracer for PanickingTracer {
    const ENABLED: bool = false;

    fn span(&mut self, ev: SpanEvent) {
        panic!("span hook reached with tracing disabled: {ev:?}");
    }

    fn link_delta(&mut self, link: u32, t: SimTime, delta: i8) {
        panic!("link_delta hook reached with tracing disabled: link {link} at {t} ({delta:+})");
    }

    fn gauge(&mut self, id: GaugeId, value: u64) {
        panic!("gauge hook reached with tracing disabled: {id:?} = {value}");
    }
}

/// A scenario that reaches every hook path: compute, delay, eager send,
/// rendezvous send, late-posted receive (unexpected copy), explicit
/// waits, and a collective with a straggler.
fn busy_program(mpi: &mut Mpi) {
    let size = mpi.size();
    let rank = mpi.rank();
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    mpi.compute(Workload::Custom {
        flops: 1e6 * (1 + rank % 3) as f64,
        dram_bytes: 0.0,
        simd_eff: 0.9,
        serial_frac: 0.0,
    });
    // unexpected-message pattern: the odd rank blocks on the late "gate"
    // message (tag 2) while the early tag-1 message lands unmatched, so
    // the tag-1 receive pays the unexpected copy
    if rank.is_multiple_of(2) {
        mpi.send(next, 1, 512);
        mpi.delay(SimTime::from_us(30));
        mpi.send(next, 2, 512);
    } else {
        mpi.recv(prev, 2, 512);
        mpi.recv(prev, 1, 512);
    }
    // rendezvous-sized exchange (well above the BG/P eager threshold)
    mpi.sendrecv(next, 2, 1 << 20, prev, 2, 1 << 20);
    if rank == 0 {
        mpi.delay(SimTime::from_us(100)); // collective straggler
    }
    mpi.allreduce(CommId::WORLD, 4096, DType::F64);
}

fn run_with<T: Tracer>(tracer: &mut T) -> SimResult {
    let traces = TraceSim::trace_program(&FnProgram(busy_program), 16, 1);
    let mut sim = TraceSim::new(SimConfig::new(bluegene_p(), 16, ExecMode::Vn));
    sim.try_replay(&traces, tracer).unwrap()
}

#[test]
fn disabled_tracer_hooks_are_unreachable() {
    let res = run_with(&mut PanickingTracer);
    assert!(res.makespan() > SimTime::ZERO);
}

#[test]
fn traced_run_equals_untraced_run() {
    let mut rec = RingRecorder::new();
    let traced = run_with(&mut rec);
    let mut sim = TraceSim::new(SimConfig::new(bluegene_p(), 16, ExecMode::Vn));
    let plain = sim.run(&FnProgram(busy_program));
    assert_eq!(traced.finish, plain.finish);
    assert_eq!(traced.busy, plain.busy);
    assert_eq!(traced.bytes_sent, plain.bytes_sent);
    assert_eq!(traced.messages, plain.messages);
}

#[test]
fn cpu_spans_tile_each_rank_clock_exactly() {
    let mut rec = RingRecorder::new();
    let res = run_with(&mut rec);
    assert_eq!(rec.dropped(), 0, "scenario must fit the default ring");
    let sums = rec.cpu_sums();
    assert_eq!(sums.len(), res.finish.len());
    for (r, (&sum, &fin)) in sums.iter().zip(&res.finish).enumerate() {
        assert_eq!(sum, fin, "rank {r}: cpu spans must sum to the finish time");
    }
}

#[test]
fn recorder_observes_protocol_events() {
    let mut rec = RingRecorder::new();
    let res = run_with(&mut rec);
    assert!(rec.unexpected() > 0, "odd ranks post late, copies must be seen");
    let kinds: Vec<&str> = rec.spans().iter().map(|s| s.kind.label()).collect();
    for want in [
        "compute",
        "delay",
        "send_overhead",
        "recv_overhead",
        "msg_wire",
        "rendezvous",
        "collective_wait",
    ] {
        assert!(kinds.contains(&want), "missing span kind {want}");
    }
    assert!(rec.gauge_value(GaugeId::EventQueueDepth) > 0);
    assert!(rec.gauge_value(GaugeId::PostedMatchDepth) > 0);
    assert!(rec.gauge_value(GaugeId::ArrivedMatchDepth) > 0);
    // every +1 link delta is matched by a -1 (all flows released)
    let balance: i64 = rec.link_deltas().iter().map(|&(_, _, d)| d as i64).sum();
    assert_eq!(balance, 0);
    let usage = rec.link_usage(res.makespan());
    assert!(usage.iter().any(|u| u.peak > 0), "some link must carry a flow");
}
