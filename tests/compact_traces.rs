//! The compact recording (`mpi::Traces`) holds exactly the ops it was
//! given, bit for bit, and the replay sizing it computes while
//! recording equals a scan of those ops.
//!
//! * per-rank view → `Traces` → per-rank view is the identity on every
//!   field's bits, including the values that take the packed form's
//!   escape paths: byte counts of 2³² and more, peers just under the
//!   packing limit, delays near `SimTime::MAX`, every collective,
//!   `Custom` workloads whose floats are `-0.0` or NaN payloads, and
//!   empty ranks anywhere in the world;
//! * `write_traces` → `parse_traces` round-trips the recording and its
//!   text exactly;
//! * each rank's request slots and the replay event bound equal the
//!   scan the replay workspace used to make over every op, on every
//!   proxy's recording and on generated fuzz programs.

use bgp_eval::apps::{cam_traces, md_traces, pop_traces, CamConfig, MdConfig, PopConfig};
use bgp_eval::engine::SimTime;
use bgp_eval::fuzz::{canary_scenario, generate, mutate};
use bgp_eval::hpcc::{halo_recording, hpl_traces, HaloConfig, HaloProtocol, HplConfig};
use bgp_eval::machine::Workload;
use bgp_eval::mpi::{
    parse_traces, write_traces, CommId, Op, Req, TraceBuilder, Traces, PEER_LIMIT,
};
use bgp_eval::net::{CollectiveOp, DType};
use bgp_eval::topo::Grid2D;
use std::panic::catch_unwind;

/// `op` spelled exactly: floats as their bits, everything else through
/// `Debug` (exact for integers; `Op`'s own `PartialEq` compares floats
/// by value, so it would miss a lost NaN payload or sign of zero).
fn exact(op: &Op) -> String {
    let Op::Compute { work, threads } = *op else { return format!("{op:?}") };
    let b = |x: f64| format!("{:#x}", x.to_bits());
    let work = match work {
        Workload::Stencil { points, flops_per_point: f, bytes_per_point: m } => {
            format!("stencil {points} {} {}", b(f), b(m))
        }
        Workload::Chemistry { points, flops_per_point: f } => format!("chem {points} {}", b(f)),
        Workload::MdForce { pairs, flops_per_pair: f } => format!("mdforce {pairs} {}", b(f)),
        Workload::Custom { flops, dram_bytes, simd_eff, serial_frac } => {
            format!("custom {} {} {} {}", b(flops), b(dram_bytes), b(simd_eff), b(serial_frac))
        }
        other => format!("{other:?}"),
    };
    format!("compute {work} {threads}")
}

fn world_bits(ranks: &[Vec<Op>]) -> Vec<Vec<String>> {
    ranks.iter().map(|ops| ops.iter().map(exact).collect()).collect()
}

fn custom(bits: [u64; 4]) -> Op {
    let [flops, dram_bytes, simd_eff, serial_frac] = bits.map(f64::from_bits);
    Op::Compute { work: Workload::Custom { flops, dram_bytes, simd_eff, serial_frac }, threads: 3 }
}

/// A 5-rank world (ranks 0, 2 and 4 empty) that takes every escape
/// path, with in-world peers so its text parses back.
fn edge_world() -> Vec<Vec<Op>> {
    let collectives = [
        CollectiveOp::Barrier,
        CollectiveOp::Bcast { bytes: u64::MAX },
        CollectiveOp::Reduce { bytes: 1 << 40, dtype: DType::Int },
        CollectiveOp::Allreduce { bytes: 8, dtype: DType::F32 },
        CollectiveOp::Allreduce { bytes: 8, dtype: DType::F64 },
        CollectiveOp::Allgather { bytes_per_rank: 0 },
        CollectiveOp::Alltoall { bytes_per_pair: u32::MAX as u64 },
    ];
    let neg_zero = (-0.0f64).to_bits();
    let quiet_nan = 0x7ff8_0000_0000_0001;
    let signalling_nan = 0xfff0_0000_0000_0001;
    let mut rank0 = vec![
        custom([neg_zero, 0, neg_zero, 0]),
        custom([0, neg_zero, 0, neg_zero]),
        custom([quiet_nan, signalling_nan, f64::NAN.to_bits(), 1.0f64.to_bits()]),
        custom([quiet_nan, signalling_nan, f64::NAN.to_bits(), 1.0f64.to_bits()]),
        Op::Delay { time: SimTime::MAX },
        Op::Delay { time: SimTime(u64::MAX - 1) },
        Op::Delay { time: SimTime(1 << 32) },
        Op::Delay { time: SimTime(u32::MAX as u64) },
        Op::Delay { time: SimTime::ZERO },
    ];
    for (i, bytes) in [0, u32::MAX as u64 - 1, u32::MAX as u64, 1 << 32, u64::MAX, 1 << 32]
        .into_iter()
        .enumerate()
    {
        rank0.push(Op::Isend { dst: 3, tag: u32::MAX - i as u32, bytes, req: Req(i as u32) });
    }
    rank0.push(Op::Wait { req: Req(u32::MAX - 1) });
    rank0.extend(collectives.map(|op| Op::Collective { comm: CommId::WORLD, op }));
    rank0.push(Op::Mark { id: u32::MAX });
    let mut rank3: Vec<Op> = [0, u32::MAX as u64 - 1, u32::MAX as u64, 1 << 32, u64::MAX]
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| Op::Irecv {
            src: 0,
            tag: u32::MAX - i as u32,
            bytes,
            req: Req(7 * i as u32),
        })
        .collect();
    rank3.extend(collectives.map(|op| Op::Collective { comm: CommId(2), op }));
    vec![Vec::new(), rank0, Vec::new(), rank3, Vec::new()]
}

#[test]
fn rank_vecs_round_trip_bit_exactly() {
    let mut worlds = vec![edge_world(), Vec::new(), vec![Vec::new(); 3]];
    // peers just under the packing limit are representable (replay
    // would reject them as outside this world; the recording does not)
    worlds.push(vec![vec![
        Op::Isend { dst: PEER_LIMIT - 1, tag: 0, bytes: 1 << 33, req: Req(0) },
        Op::Irecv { src: PEER_LIMIT - 1, tag: 1, bytes: 8, req: Req(1) },
    ]]);
    for world in worlds {
        let traces = Traces::from_rank_vecs(&world);
        assert_eq!(traces.ranks(), world.len());
        assert_eq!(traces.op_count(), world.iter().map(Vec::len).sum::<usize>());
        let back = traces.to_rank_vecs();
        assert_eq!(world_bits(&back), world_bits(&world));
        assert_eq!(Traces::from_rank_vecs(&back), traces, "re-recording is canonical");
        let mut edited = traces.clone();
        edited.edit(|_, _| {});
        assert_eq!(edited, traces, "an identity edit keeps the recording");
    }
}

#[test]
fn peers_at_the_packing_limit_are_refused() {
    for op in [
        Op::Isend { dst: PEER_LIMIT, tag: 0, bytes: 8, req: Req(0) },
        Op::Irecv { src: usize::MAX, tag: 0, bytes: 8, req: Req(0) },
    ] {
        let pushed = catch_unwind(|| TraceBuilder::new().push(op));
        assert!(pushed.is_err(), "{op:?} must not pack");
    }
}

#[test]
fn wire_text_round_trips_exactly() {
    let traces = Traces::from_rank_vecs(&edge_world());
    let text = write_traces(&traces);
    let parsed = parse_traces(&text).expect("the edge world parses");
    assert_eq!(parsed, traces);
    assert_eq!(write_traces(&parsed), text);
    assert_eq!(world_bits(&parsed.to_rank_vecs()), world_bits(&edge_world()));
    // NaN payloads and -0.0 are written as their hex bits
    assert!(text.contains("0x7ff8000000000001 0xfff0000000000001"), "{text}");
    assert!(text.contains("custom 0x8000000000000000 0x0000000000000000"), "{text}");
    let empty = Traces::from_rank_vecs(&Vec::new());
    assert_eq!(parse_traces(&write_traces(&empty)).unwrap(), empty);
}

/// The sizing scan the replay workspace made over every op before the
/// recording carried it: per-rank request slots (one past the highest
/// request id a send, receive or wait names) and the event bound (one
/// resume per rank, two events per send, one per collective entry).
fn scanned_sizing(traces: &Traces) -> (Vec<usize>, u64) {
    let mut base = vec![0];
    let mut bound = traces.ranks() as u64;
    for r in 0..traces.ranks() {
        let mut reqs = 0;
        for op in traces.rank_ops(r) {
            let req = match op {
                Op::Isend { req, .. } => {
                    bound += 2;
                    req
                }
                Op::Irecv { req, .. } | Op::Wait { req } => req,
                Op::Collective { .. } => {
                    bound += 1;
                    continue;
                }
                _ => continue,
            };
            reqs = reqs.max(req.0 as usize + 1);
        }
        base.push(base[r] + reqs);
    }
    (base, bound)
}

#[test]
fn recorded_sizing_equals_the_op_scan() {
    let halo = |protocol| HaloConfig { grid: Grid2D::new(8, 8), words: 64, protocol, reps: 2 };
    let mut recordings = vec![
        Traces::from_rank_vecs(&edge_world()),
        halo_recording(&halo(HaloProtocol::IrecvIsend)),
        halo_recording(&halo(HaloProtocol::Sendrecv)),
        hpl_traces(&HplConfig { n: 4096, nb: 128, grid: Grid2D::new(4, 4), samples: 2 }),
        pop_traces(16, 1, &PopConfig::default()),
        md_traces(16, &MdConfig::pmemd_rub()),
        cam_traces(8, 4, &CamConfig::fv_2deg()),
        canary_scenario(3).traces,
    ];
    for it in 0..24 {
        let base = generate(11, it);
        recordings.push(mutate(&base, 11, it, 3).traces);
        recordings.push(base.traces);
    }
    for (i, traces) in recordings.iter().enumerate() {
        let (base, bound) = scanned_sizing(traces);
        assert_eq!(traces.req_base(), &base[..], "recording {i}: request slots");
        assert_eq!(traces.event_bound(), bound, "recording {i}: event bound");
        // a parsed recording carries the same sizing
        let parsed = parse_traces(&write_traces(traces)).unwrap();
        assert_eq!(parsed.req_base(), &base[..], "recording {i}: parsed request slots");
        assert_eq!(parsed.event_bound(), bound, "recording {i}: parsed event bound");
    }
}
