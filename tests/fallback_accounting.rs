//! Fallback accounting of `mpi::sweep_points`, the one function that
//! chooses between the DAG engine and replay: under `SweepEngine::Dag`
//! every replayed point counts once, as a contention fallback (machine
//! outside the DAG's exactness contract) or a fault fallback (fault
//! plan armed); under `SweepEngine::Replay` nothing counts. The obs
//! counters are process-wide, so this is a test binary of its own with
//! one test, and nothing else moves them between readings.

use bgp_eval::faults::{FaultPlan, FaultProfile};
use bgp_eval::hpcc::{halo_eval_traces, halo_traces, HaloConfig, HaloProtocol};
use bgp_eval::machine::registry::bluegene_p;
use bgp_eval::machine::ExecMode::Vn;
use bgp_eval::mpi::{sweep_points, SimConfig, SweepEngine, TraceDag};
use bgp_eval::obs;
use bgp_eval::topo::{Grid2D, Mapping};

/// How far `f` moves the (contention fallback, fault fallback, DAG
/// point) counters.
fn delta(f: impl FnOnce()) -> [u64; 3] {
    let read = || {
        let snap = obs::snapshot();
        ["sweep_fallback_contention", "sweep_fallback_faults", "dag_points"].map(|name| {
            let name = format!("hpcsim_{name}_total");
            snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
        })
    };
    let before = read();
    f();
    let after = read();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn every_replayed_point_under_dag_counts_once() {
    obs::set_enabled(true);
    let cfg = HaloConfig {
        grid: Grid2D::new(8, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let traces = halo_traces(&cfg);
    let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|(_, m)| *m).collect();
    let n = mappings.len() as u64;
    let (contended, flat) = (bluegene_p(), bluegene_p().with_flat_contention());
    let sweep = |machine, engine| {
        let points: Vec<SimConfig> =
            mappings.iter().map(|&m| cfg.sim_config(machine, Vn, m)).collect();
        let _ = sweep_points(Some(engine), &points, &traces, &[], None, None);
    };
    let plan = FaultPlan::new(5, FaultProfile::Mixed);
    let faulty = |engine| {
        let point = cfg.sim_config(&flat, Vn, Mapping::txyz());
        let _ = sweep_points(Some(engine), &[point], &traces, &[], None, Some(&plan));
    };
    let dag = TraceDag::compile_world(&traces);
    let txyz = Mapping::txyz();

    assert_eq!(delta(|| sweep(&contended, SweepEngine::Dag)), [n, 0, 0]);
    assert_eq!(delta(|| sweep(&flat, SweepEngine::Dag)), [0, 0, n]);
    // an armed plan sends even a contention-flat point to replay
    assert_eq!(delta(|| faulty(SweepEngine::Dag)), [0, 1, 0]);
    // a pre-compiled DAG offered on a contended machine falls back
    let offered = || {
        halo_eval_traces(&contended, Vn, txyz, &cfg, &traces, Some(&dag));
    };
    assert_eq!(delta(offered), [1, 0, 0]);

    let replay = delta(|| {
        sweep(&contended, SweepEngine::Replay);
        sweep(&flat, SweepEngine::Replay);
        faulty(SweepEngine::Replay);
        halo_eval_traces(&flat, Vn, txyz, &cfg, &traces, None);
    });
    assert_eq!(replay, [0, 0, 0], "nothing counts under Replay");
}
