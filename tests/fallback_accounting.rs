//! Engine selection and fallback accounting of `mpi::sweep_points`, the
//! one function that chooses between the DAG engine and replay. With
//! nothing selected, every point whose machine is contention-flat goes
//! to the DAG, and every replayed point counts once, as a contention
//! fallback (machine outside the DAG's exactness contract) or a fault
//! fallback (fault plan armed). `halo_eval_traces` with no DAG in hand
//! replays directly, so the benchmark's re-pricing check stays a real
//! replay. The obs counters are process-wide, so this is a test binary
//! of its own with one test, and nothing else moves them between
//! readings.

use bgp_eval::cache::{evaluate_in, CacheConfig, ScenarioCache, ScenarioSpec};
use bgp_eval::faults::{FaultPlan, FaultProfile};
use bgp_eval::hpcc::{halo_eval_traces, halo_recording, HaloConfig, HaloProtocol};
use bgp_eval::machine::registry::bluegene_p;
use bgp_eval::machine::ExecMode::Vn;
use bgp_eval::mpi::{sweep_points, SimConfig, TraceDag};
use bgp_eval::obs;
use bgp_eval::topo::{Grid2D, Mapping};

/// How far `f` moves the (contention fallback, fault fallback, DAG
/// point, replay run) counters.
fn delta(f: impl FnOnce()) -> [u64; 4] {
    let read = || {
        let snap = obs::snapshot();
        ["sweep_fallback_contention", "sweep_fallback_faults", "dag_points", "replay_runs"].map(
            |name| {
                let name = format!("hpcsim_{name}_total");
                snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
            },
        )
    };
    let before = read();
    f();
    let after = read();
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[test]
fn engine_selection_counts_every_point_once() {
    obs::set_enabled(true);
    let cfg = HaloConfig {
        grid: Grid2D::new(8, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let traces = halo_recording(&cfg);
    let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|(_, m)| *m).collect();
    let n = mappings.len() as u64;
    let (contended, flat) = (bluegene_p(), bluegene_p().with_flat_contention());
    let sweep = |machine| {
        let points: Vec<SimConfig> =
            mappings.iter().map(|&m| cfg.sim_config(machine, Vn, m)).collect();
        let _ = sweep_points(&points, &|| &traces, None, None);
    };
    let (dag, view) = (TraceDag::compile(&traces), traces.to_rank_vecs());
    let txyz = Mapping::txyz();

    assert_eq!(delta(|| sweep(&contended)), [n, 0, 0, n]);
    assert_eq!(delta(|| sweep(&flat)), [0, 0, n, 0]);
    // an armed plan sends even a contention-flat point to replay
    let faulty = || {
        let plan = FaultPlan::new(5, FaultProfile::Mixed);
        let point = cfg.sim_config(&flat, Vn, txyz);
        let _ = sweep_points(&[point], &|| &traces, None, Some(&plan));
    };
    assert_eq!(delta(faulty), [0, 1, 0, 1]);
    // a pre-compiled DAG offered on a contended machine falls back
    let offered = || {
        halo_eval_traces(&contended, Vn, txyz, &cfg, &view, Some(&dag));
    };
    assert_eq!(delta(offered), [1, 0, 0, 1]);
    // the scenario cache prices a contention-flat spec on the DAG
    let cached = || {
        let spec = ScenarioSpec::halo(&flat, Vn, txyz, cfg.clone());
        evaluate_in(&ScenarioCache::new(CacheConfig::default()), &spec).unwrap();
    };
    assert_eq!(delta(cached), [0, 0, 1, 0]);
    // with no DAG in hand, the benchmark's re-pricing check replays
    let repriced = || {
        halo_eval_traces(&flat, Vn, txyz, &cfg, &view, None);
    };
    assert_eq!(delta(repriced), [0, 0, 0, 1]);
}
