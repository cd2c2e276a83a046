//! Standalone seeded regressions: each test is a planted canary (or a
//! minimized real finding) constructed in code, named after the
//! coverage bucket it exercises. Unlike `corpus_replay.rs` these do
//! not read files — they pin the engine behavior the fuzzer's coverage
//! map keys on, one bucket per test.

use bgp_eval::fuzz::{canary_scenario, minimize, run_scenario, FuzzScenario, OutcomeKind};
use bgp_eval::machine::registry::bluegene_p;
use bgp_eval::machine::ExecMode;
use bgp_eval::mpi::{CommId, Op, Req, Traces};
use bgp_eval::net::CollectiveOp;
use bgp_eval::topo::Mapping;

fn flat_bgp(traces: Vec<Vec<Op>>) -> FuzzScenario {
    FuzzScenario {
        machine: bluegene_p().with_flat_contention(),
        mode: ExecMode::Vn,
        mapping: Mapping::txyz(),
        faults: None,
        traces: Traces::from_rank_vecs(&traces),
    }
}

// Coverage bucket: outcome:deadlock — a barrier one rank never joins.
#[test]
fn regression_missing_barrier_member_deadlocks() {
    let bar = Op::Collective { comm: CommId::WORLD, op: CollectiveOp::Barrier };
    let sc = flat_bgp(vec![vec![bar], vec![bar], vec![bar], vec![]]);
    let rep = run_scenario(&sc);
    assert_eq!(rep.outcome, OutcomeKind::Deadlock, "{}", rep.detail);
}

// Coverage bucket: outcome:deadlock — a wait on a request that was
// never posted (the smallest deadlock the fuzzer auto-minimized to).
#[test]
fn regression_wait_on_unposted_request_deadlocks() {
    let sc = flat_bgp(vec![vec![Op::Wait { req: Req(2) }], vec![]]);
    let rep = run_scenario(&sc);
    assert_eq!(rep.outcome, OutcomeKind::Deadlock, "{}", rep.detail);
}

// Coverage bucket: outcome:collective-mismatch — two members record
// different collectives at sequence slot 0 on WORLD.
#[test]
fn regression_skewed_collective_slot_is_diagnosed() {
    let sc = flat_bgp(vec![
        vec![Op::Collective {
            comm: CommId::WORLD,
            op: CollectiveOp::Alltoall { bytes_per_pair: 8 },
        }],
        vec![],
        vec![Op::Collective {
            comm: CommId::WORLD,
            op: CollectiveOp::Allgather { bytes_per_rank: 64 },
        }],
    ]);
    let rep = run_scenario(&sc);
    assert_eq!(rep.outcome, OutcomeKind::CollectiveMismatch, "{}", rep.detail);
}

// Coverage bucket: arrived-match-depth — an unexpected-message flood
// (sends land while the receiver is still blocked on a gate message,
// so nothing is posted yet) must drive the unexpected-arrival
// high-water mark, not deadlock or diverge.
#[test]
fn regression_unexpected_flood_raises_arrived_high_water() {
    const N: u32 = 24;
    // Sender: flood first, then (after a long delay) the gate message
    // the receiver is blocked on.
    let mut sender: Vec<Op> =
        (0..N).map(|i| Op::Isend { dst: 1, tag: 0, bytes: 64, req: Req(i) }).collect();
    sender.push(Op::Delay { time: bgp_eval::engine::SimTime::from_ms(5) });
    sender.push(Op::Isend { dst: 1, tag: 9, bytes: 8, req: Req(N) });
    sender.extend((0..=N).map(|i| Op::Wait { req: Req(i) }));
    // Receiver: block on the gate, then post the flood's receives.
    let mut receiver: Vec<Op> =
        vec![Op::Irecv { src: 0, tag: 9, bytes: 8, req: Req(N) }, Op::Wait { req: Req(N) }];
    receiver.extend((0..N).map(|i| Op::Irecv { src: 0, tag: 0, bytes: 64, req: Req(i) }));
    receiver.extend((0..N).map(|i| Op::Wait { req: Req(i) }));
    let sc = flat_bgp(vec![sender, receiver]);
    let rep = run_scenario(&sc);
    assert_eq!(rep.outcome, OutcomeKind::Ok, "{}", rep.detail);
    assert!(
        rep.signals.arrived_hw >= N as u64 / 2,
        "arrived high-water {} too low for a {N}-message flood",
        rep.signals.arrived_hw
    );
}

// Coverage bucket: rendezvous straddle (makespan + outcome:ok) — the
// same exchange at threshold−1 (eager) and threshold+1 (rendezvous)
// must both complete and pass the differential oracle; rendezvous must
// not be cheaper than eager.
#[test]
fn regression_rendezvous_straddle_passes_oracle_both_sides() {
    let thr = bluegene_p().nic.eager_threshold;
    let mut spans = Vec::new();
    for bytes in [thr - 1, thr + 1] {
        let sc = flat_bgp(vec![
            vec![
                Op::Irecv { src: 1, tag: 1, bytes, req: Req(0) },
                Op::Isend { dst: 1, tag: 0, bytes, req: Req(1) },
                Op::Wait { req: Req(0) },
                Op::Wait { req: Req(1) },
            ],
            vec![
                Op::Irecv { src: 0, tag: 0, bytes, req: Req(0) },
                Op::Isend { dst: 0, tag: 1, bytes, req: Req(1) },
                Op::Wait { req: Req(0) },
                Op::Wait { req: Req(1) },
            ],
        ]);
        let rep = run_scenario(&sc);
        assert_eq!(rep.outcome, OutcomeKind::Ok, "bytes {bytes}: {}", rep.detail);
        spans.push(rep.signals.makespan_us);
    }
    assert!(spans[1] >= spans[0], "rendezvous cheaper than eager: {spans:?}");
}

// Coverage bucket: outcome:deadlock + minimization contract — the
// planted campaign canary must shrink to ≤ 8 ops, the CI budget.
#[test]
fn regression_campaign_canary_minimizes_within_budget() {
    let sc = canary_scenario(42);
    let rep = run_scenario(&sc);
    assert_eq!(rep.outcome, OutcomeKind::Deadlock, "{}", rep.detail);
    let min = minimize(&sc, OutcomeKind::Deadlock, 2_000);
    assert!(min.converged);
    assert!(min.scenario.total_ops() <= 8, "{} ops", min.scenario.total_ops());
    assert_eq!(run_scenario(&min.scenario).outcome, OutcomeKind::Deadlock);
}
