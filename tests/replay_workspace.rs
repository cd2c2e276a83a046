//! Replay keeps one workspace per thread — its rank tables, match
//! queues, collective instances, message ledger and event queue — and
//! reuses it across calls. A sequence that grows and shrinks that
//! workspace, and leaves it mid-run with errors, must give exactly what
//! each replay gives first on a fresh thread: finish, busy, marks,
//! bytes, messages, the error value and the recorder's contents. The
//! cases that leave the workspace mid-run assert the error they stop
//! with, so a change that lets them finish cannot pass vacuously.

use bgp_eval::apps::{pop_sim_config, pop_traces, PopConfig};
use bgp_eval::faults::{FaultPlan, FaultProfile};
use bgp_eval::hpcc::{halo_traces, halo_try_run, hpl_traces, HaloConfig, HaloProtocol, HplConfig};
use bgp_eval::machine::registry::{bluegene_p, xt4_qc};
use bgp_eval::machine::{ExecMode, MachineSpec};
use bgp_eval::mpi::{SimConfig, SimError, TraceSim};
use bgp_eval::probe::{GaugeId, NoopTracer, RingRecorder};
use bgp_eval::topo::{Grid2D, Mapping};

/// A named replay whose whole outcome is rendered as text.
type Case = (&'static str, fn() -> String);

fn halo(side: usize, protocol: HaloProtocol) -> HaloConfig {
    HaloConfig { grid: Grid2D::new(side, side), words: 2048, protocol, reps: 3 }
}

/// A 512-rank HPL on a 16 × 32 grid, with its row and column
/// communicators registered.
fn hpl_512() -> String {
    let cfg = HplConfig { n: 8192, nb: 128, grid: Grid2D::new(16, 32), samples: 2 };
    let (traces, comms) = hpl_traces(&cfg);
    let mut sim = TraceSim::new(SimConfig::new(bluegene_p(), 512, ExecMode::Vn));
    for members in comms {
        sim.register_comm(members);
    }
    format!("{:?}", sim.try_replay(&traces, &mut NoopTracer).expect("HPL replays"))
}

/// A 16-rank HALO: the workspace shrinks after the 512-rank HPL.
fn halo_16() -> String {
    let cfg = halo(4, HaloProtocol::IrecvIsend);
    let mut sim = TraceSim::new(cfg.sim_config(&bluegene_p(), ExecMode::Vn, Mapping::txyz()));
    format!("{:?}", sim.try_replay(&halo_traces(&cfg), &mut NoopTracer).expect("HALO replays"))
}

/// A fault-armed 64-rank HALO that a tight step budget stops mid-run:
/// 40 ranks have posted receives and put messages on the wire when the
/// watchdog trips on the 41st same-time event.
fn halo_livelocked() -> String {
    let cfg = halo(8, HaloProtocol::Sendrecv);
    let mut sim = TraceSim::new(cfg.sim_config(&bluegene_p(), ExecMode::Vn, Mapping::txyz()));
    sim.set_faults(&FaultPlan::new(7, FaultProfile::Mixed));
    sim.set_step_budget(Some(40));
    let res = sim.try_replay(&halo_traces(&cfg), &mut NoopTracer);
    assert!(matches!(res, Err(SimError::Livelock { rank: 40, steps: 41 })), "{res:?}");
    format!("{res:?}")
}

/// A fault-armed 64-rank HALO whose rank 5 stops recording halfway: its
/// neighbours' messages sit unmatched in its arrival table, their own
/// receives stay posted, and the replay ends in a deadlock.
fn halo_deadlocked() -> String {
    let cfg = halo(8, HaloProtocol::IrecvIsend);
    let mut traces = halo_traces(&cfg);
    let half = traces[5].len() / 2;
    traces[5].truncate(half);
    let mut sim = TraceSim::new(cfg.sim_config(&bluegene_p(), ExecMode::Vn, Mapping::txyz()));
    sim.set_faults(&FaultPlan::new(7, FaultProfile::Mixed));
    let res = sim.try_replay(&traces, &mut NoopTracer);
    assert!(matches!(res, Err(SimError::Deadlock { .. })), "{res:?}");
    format!("{res:?}")
}

/// A 64-rank POP step on `machine`: phase marks on every rank, and
/// compute blocks priced by that machine's node model.
fn pop(machine: MachineSpec) -> String {
    let traces = pop_traces(64, 1, &PopConfig::default());
    let mut sim = TraceSim::new(pop_sim_config(&machine, ExecMode::Vn, 64, 1));
    let res = sim.try_replay(&traces, &mut NoopTracer).expect("POP replays");
    assert!(res.marks.iter().all(|m| !m.is_empty()), "POP records phase marks");
    format!("{res:?}")
}

/// The BG/P POP step with rank 5's recording cut short: the other ranks
/// deadlock inside a collective and on its missing messages.
fn pop_deadlocked() -> String {
    let mut traces = pop_traces(64, 1, &PopConfig::default());
    let half = traces[5].len() / 2;
    traces[5].truncate(half);
    let mut sim = TraceSim::new(pop_sim_config(&bluegene_p(), ExecMode::Vn, 64, 1));
    let res = sim.try_replay(&traces, &mut NoopTracer);
    assert!(matches!(res, Err(SimError::Deadlock { .. })), "{res:?}");
    format!("{res:?}")
}

/// A 64-rank HALO traced by a `RingRecorder`: its spans, link deltas
/// and gauges (event-queue high-water included) join the outcome.
fn halo_recorded() -> String {
    let mut rec = RingRecorder::new();
    let cfg = halo(8, HaloProtocol::IsendIrecv);
    let res = halo_try_run(
        &bluegene_p(),
        ExecMode::Vn,
        Mapping::parse("XYZT").unwrap(),
        &cfg,
        None,
        &mut rec,
    );
    let gauges: Vec<u64> = GaugeId::all().iter().map(|&g| rec.gauge_value(g)).collect();
    format!(
        "{res:?} {:?} {:?} {gauges:?} {} {} {}",
        rec.spans(),
        rec.link_deltas(),
        rec.unexpected(),
        rec.total_spans(),
        rec.dropped()
    )
}

#[test]
fn workspace_reuse_leaks_no_state() {
    let cases: [Case; 8] = [
        ("hpl-512", hpl_512),
        ("halo-16", halo_16),
        ("halo-livelocked", halo_livelocked),
        ("halo-deadlocked", halo_deadlocked),
        ("pop-deadlocked", pop_deadlocked),
        ("pop-bgp", || pop(bluegene_p())),
        ("pop-xt4", || pop(xt4_qc())),
        ("halo-recorded", halo_recorded),
    ];
    let fresh: Vec<String> =
        cases.iter().map(|&(_, case)| std::thread::spawn(case).join().unwrap()).collect();
    // one thread runs the sequence twice, so the larger replays also
    // follow the error and the smaller ones
    let reused = std::thread::spawn(move || {
        let mut out: Vec<String> = cases.iter().map(|&(_, case)| case()).collect();
        out.extend(cases.iter().map(|&(_, case)| case()));
        out
    })
    .join()
    .unwrap();
    for (i, got) in reused.iter().enumerate() {
        let k = i % cases.len();
        assert_eq!(
            got,
            &fresh[k],
            "{} (run {}) differs on a reused workspace",
            cases[k].0,
            i / cases.len() + 1
        );
    }
}
