//! The two sweep engines give bit-identical results inside the DAG
//! engine's exactness contract (contention-flat machines). Every case
//! prices the same points through `mpi::sweep_points` twice, under an
//! explicit `SweepEngine::Replay` and an explicit `SweepEngine::Dag` —
//! never through the process-global selection, so tests running in
//! parallel cannot race on it. The cases reach every consumer of the
//! DAG's cost tables: single-point evaluation, the mixed-machine
//! one-at-a-time batch, the 8- and 32-wide mapping lanes, and an
//! identity perturbed sample. All of them share one per-thread scratch
//! context, which the last case checks leaks nothing between DAGs.

use bgp_eval::apps::{md_sim_config, md_traces, pop_traces, MdConfig, MdResult, PopConfig};
use bgp_eval::hpcc::{halo_traces, hpl_traces, HaloConfig, HaloProtocol, HplConfig};
use bgp_eval::machine::registry::{bluegene_p, xt4_dc};
use bgp_eval::machine::{ExecMode, PerturbSpec, Perturbation, PerturbationSampler};
use bgp_eval::mpi::{
    sweep_points, FnProgram, Mpi, Op, RankLayout, SimConfig, SimResult, SweepEngine, TraceDag,
    TraceSim,
};
use bgp_eval::topo::{Grid2D, Mapping};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Demand that two results of one point agree bit for bit.
fn assert_same(r: &SimResult, d: &SimResult, what: &str) {
    assert_eq!(r.finish, d.finish, "{what}: per-rank finish");
    assert_eq!(r.busy, d.busy, "{what}: per-rank busy");
    assert_eq!(r.marks, d.marks, "{what}: marks");
    assert_eq!((r.bytes_sent, r.messages), (d.bytes_sent, d.messages), "{what}: traffic");
}

/// Price `points` under both engines and demand identical results; the
/// first point's identity perturbed sample must match them too.
/// `comms` are the program's sub-communicators (empty for world-only
/// programs).
fn assert_engines_agree(
    points: &[SimConfig],
    traces: &[Vec<Op>],
    comms: &[Vec<usize>],
    what: &str,
) -> Vec<SimResult> {
    let run = |engine| sweep_points(Some(engine), points, traces, comms, None, None).unwrap();
    let (replay, dag) = (run(SweepEngine::Replay), run(SweepEngine::Dag));
    assert_eq!(replay.len(), points.len());
    assert_eq!(dag.len(), points.len());
    let mut all: Vec<Vec<usize>> = vec![(0..traces.len()).collect()];
    all.extend_from_slice(comms);
    let perturbed =
        TraceDag::compile(traces, &all).evaluate_perturbed(&points[0], &[Perturbation::IDENTITY]);
    let pairs = replay.iter().zip(&dag).chain(std::iter::once((&replay[0], &perturbed[0])));
    for (i, (r, d)) in pairs.enumerate() {
        let point = if i < points.len() { format!("point {i}") } else { "identity sample".into() };
        assert_same(r, d, &format!("{what}, {point}"));
    }
    replay
}

/// The eight Fig 2 mappings of `ranks` ranks on contention-flat BG/P in
/// VN mode.
fn fig2_points(ranks: usize) -> Vec<SimConfig> {
    let flat = bluegene_p().with_flat_contention();
    Mapping::fig2_set()
        .iter()
        .map(|(_, mapping)| SimConfig {
            machine: flat.clone(),
            mode: ExecMode::Vn,
            threads: 1,
            layout: RankLayout::bluegene(&flat, ranks, ExecMode::Vn, *mapping),
        })
        .collect()
}

/// Fig 2(c,d): the eight predefined mappings of one HALO trace on
/// contention-flat BG/P, for a latency-bound and a bandwidth-bound
/// halo and for both the overlapping and the serializing protocol.
#[test]
fn fig2_mapping_sweep_is_engine_invariant() {
    let flat = bluegene_p().with_flat_contention();
    for protocol in [HaloProtocol::IrecvIsend, HaloProtocol::Sendrecv] {
        for words in [8u64, 32_768] {
            let cfg = HaloConfig { grid: Grid2D::new(16, 8), words, protocol, reps: 2 };
            let points: Vec<SimConfig> = Mapping::fig2_set()
                .iter()
                .map(|(_, mapping)| cfg.sim_config(&flat, ExecMode::Vn, *mapping))
                .collect();
            let what = format!("halo {} {words}w", protocol.label());
            let res = assert_engines_agree(&points, &halo_traces(&cfg), &[], &what);
            assert!(res.iter().all(|r| cfg.per_exchange(r) > 0.0), "{what}");
        }
    }
}

/// The eight Fig 2 mappings repeated four times: 32 same-machine points
/// fill one 32-wide lane batch.
#[test]
fn wide_mapping_batch_is_engine_invariant() {
    let cfg = HaloConfig {
        grid: Grid2D::new(16, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let points: Vec<SimConfig> = fig2_points(cfg.grid.size()).into_iter().cycle().take(32).collect();
    assert_eq!(points.len(), 32);
    assert_engines_agree(&points, &halo_traces(&cfg), &[], "halo 32-lane batch");
}

/// HPL's row and column communicators priced as an 8-mapping batch:
/// per-lane collective pricing on sub-communicators, plus the priced
/// compute column every lane shares.
#[test]
fn hpl_mapping_batch_is_engine_invariant() {
    let cfg = HplConfig { n: 4096, nb: 64, grid: Grid2D::new(8, 8), samples: 3 };
    let (traces, comms) = hpl_traces(&cfg);
    let points = fig2_points(cfg.grid.size());
    assert_engines_agree(&points, &traces, &comms, "hpl 8x8 mappings");
}

/// Fig 8: one MD point (PMEMD's alltoall transposes, reductions and
/// rendezvous ghost exchanges) on two contention-flat machines priced
/// together, so the DAG serves a mixed-machine batch, and the BG/P
/// point alone through single-point evaluation.
#[test]
fn md_point_is_engine_invariant() {
    let cfg = MdConfig::pmemd_rub();
    let points: Vec<SimConfig> = [bluegene_p(), xt4_dc()]
        .into_iter()
        .map(|m| md_sim_config(&m.with_flat_contention(), 64))
        .collect();
    let traces = md_traces(64, &cfg);
    let res = assert_engines_agree(&points, &traces, &[], "md pmemd 64r");
    assert!(res.iter().all(|r| MdResult::of(r, &cfg).ns_per_day > 0.0));
    assert_engines_agree(&points[..1], &traces, &[], "md pmemd 64r bgp alone");
}

/// Every evaluation on a thread runs on one shared scratch context. A
/// small POP point (a 360×240 grid on 16 ranks: messages, collectives,
/// marks) evaluated after a larger DAG's single point, 8-wide mapping
/// batch and 32-wide perturbed batch (the 0.1° POP on 64 ranks) must be
/// bit-identical to the same point on a fresh thread and to replay; so
/// must the next point after an evaluation that panicked on a
/// structurally deadlocked DAG, as the fuzzer's differential oracle
/// catches it. The larger DAG's clocks run far past the small one's,
/// so a stale scratch slot would show.
#[test]
fn shared_scratch_leaks_no_state() {
    let tiny = PopConfig { nx: 360, ny: 240, ..PopConfig::default() };
    let traces = pop_traces(16, 1, &tiny);
    let small = TraceDag::compile_world(&traces);
    let small_cfg = fig2_points(16).swap_remove(3);
    let fresh = {
        let (dag, cfg) = (small.clone(), small_cfg.clone());
        std::thread::spawn(move || dag.evaluate(&cfg)).join().unwrap()
    };
    let replay = sweep_points(
        Some(SweepEngine::Replay),
        std::slice::from_ref(&small_cfg),
        &traces,
        &[],
        None,
        None,
    )
    .unwrap();
    assert_same(&replay[0], &fresh, "small pop on a fresh thread");
    assert!(fresh.marks.iter().all(|m| !m.is_empty()), "pop marks every rank");

    let big = TraceDag::compile_world(&pop_traces(64, 1, &PopConfig::default()));
    let points = fig2_points(64);
    let sampler = PerturbationSampler::new(7, PerturbSpec::default());
    let samples: Vec<Perturbation> = (0..32).map(|i| sampler.sample(i)).collect();
    assert!(big.evaluate(&points[0]).makespan() > fresh.makespan() * 10);
    assert_eq!(big.evaluate_many(&points).len(), 8);
    assert_eq!(big.evaluate_perturbed(&points[0], &samples).len(), 32);
    assert_same(&fresh, &small.evaluate(&small_cfg), "small pop after the larger dag");

    let stuck = FnProgram(|mpi: &mut Mpi| {
        let peer = 1 - mpi.rank();
        mpi.recv(peer, 0, 8);
    });
    let deadlocked = TraceDag::compile_world(&TraceSim::trace_program(&stuck, 2, 1));
    let pair = SimConfig::new(bluegene_p().with_flat_contention(), 2, ExecMode::Smp);
    assert!(catch_unwind(AssertUnwindSafe(|| deadlocked.evaluate(&pair))).is_err());
    assert_same(&fresh, &small.evaluate(&small_cfg), "small pop after a caught panic");
}
