//! Timed comparison of the sweep engines on the Fig 2(c,d) mapping
//! scan — the measurement behind the `fig2_mapping_sweep` entry in
//! `BENCH_repro.json` (schema v3) and the release-gated speedup guard.
//!
//! The scan runs on a contention-flat BG/P variant
//! ([`MachineSpec::with_flat_contention`]) so the DAG path is live (on
//! the real, contended BG/P the Dag engine falls back to replay and the
//! comparison would be vacuous). Agreement is checked point by point:
//! both engines must produce bit-identical seconds-per-exchange.

use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{sweep_points, SimConfig, SweepEngine, TraceDag};
use hpcsim_topo::{Grid2D, Mapping};

use crate::experiment::Scale;

/// Outcome of racing the two engines over the 32-point mapping sweep.
#[derive(Debug, Clone, Copy)]
pub struct MappingSweepStats {
    /// Sweep points evaluated per engine (panels × mappings × sizes).
    pub points: u64,
    /// Wall seconds for the per-point replay engine (min of 3 timed
    /// rounds after a warmup round).
    pub replay_seconds: f64,
    /// Wall seconds for compile-once-evaluate-per-point DAG engine
    /// (compilation included; min of 3 timed rounds after a warmup).
    pub dag_seconds: f64,
    /// Task nodes in the largest compiled DAG.
    pub dag_nodes: u64,
    /// Dependency edges in the largest compiled DAG.
    pub dag_edges: u64,
    /// Whether every point agreed bit-for-bit across engines.
    pub engines_agree: bool,
}

impl MappingSweepStats {
    /// Replay-over-DAG wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.replay_seconds / self.dag_seconds.max(1e-12)
    }
}

/// The Fig 2(c,d) sweep shape: both panel rank counts × the eight
/// predefined mappings × two representative halo sizes (one eager, one
/// rendezvous) = 32 points, evaluated under both engines and timed.
pub fn fig2_mapping_sweep(scale: Scale) -> MappingSweepStats {
    let machine: MachineSpec = bluegene_p().with_flat_contention();
    let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|&(_, m)| m).collect();
    let words = [2048u64, 32_768];
    let grids = [
        Grid2D::near_square(scale.ranks(4096)),
        Grid2D::near_square(scale.ranks(8192)),
    ];
    let cfgs: Vec<hpcc::HaloConfig> = grids
        .iter()
        .flat_map(|&grid| {
            words.iter().map(move |&w| hpcc::HaloConfig {
                grid,
                words: w,
                protocol: hpcc::HaloProtocol::IrecvIsend,
                reps: 2,
            })
        })
        .collect();
    let points = (cfgs.len() * mappings.len()) as u64;

    // Record each config's trace ONCE, outside both timed regions: the
    // trace is identical input to both engines (it depends only on
    // grid/words/protocol), so neither engine should be billed for it.
    // The replay region is then 32 × (layout + event-queue replay); the
    // DAG region is 4 × compile + 32 critical-path evaluations —
    // compilation is the DAG engine's real cost and stays inside.
    let traced: Vec<(hpcc::HaloConfig, Vec<Vec<hpcsim_mpi::Op>>)> = cfgs
        .into_iter()
        .map(|cfg| {
            let traces = hpcc::halo_traces(&cfg);
            (cfg, traces)
        })
        .collect();

    let run = |engine: SweepEngine| -> (f64, Vec<Vec<f64>>) {
        let t0 = std::time::Instant::now();
        let results = traced
            .iter()
            .map(|(cfg, traces)| {
                let points: Vec<SimConfig> =
                    mappings.iter().map(|&m| cfg.sim_config(&machine, ExecMode::Vn, m)).collect();
                let res = sweep_points(Some(engine), &points, traces, &[], None, None)
                    .expect("pristine HALO points replay");
                res.iter().map(|r| cfg.per_exchange(r)).collect()
            })
            .collect();
        (t0.elapsed().as_secs_f64(), results)
    };
    // One untimed round first: the entry tracks steady-state engine
    // cost, and a cold first call bills page faults for the compile
    // arenas and lane scratch against whichever engine runs first.
    // Then min-of-3 timed rounds per engine: the CI wall-clock smoke
    // compares this entry against the committed report, and a single
    // timed round is at the mercy of scheduler noise on shared
    // runners; the minimum is the stable steady-state estimator.
    let (_, warm_replay) = run(SweepEngine::Replay);
    let (_, warm_dag) = run(SweepEngine::Dag);
    let mut replay_seconds = f64::INFINITY;
    let mut dag_seconds = f64::INFINITY;
    let mut engines_agree = true;
    for _ in 0..3 {
        let (rs, replay_results) = run(SweepEngine::Replay);
        let (ds, dag_results) = run(SweepEngine::Dag);
        replay_seconds = replay_seconds.min(rs);
        dag_seconds = dag_seconds.min(ds);
        engines_agree = engines_agree
            && replay_results == dag_results
            && warm_replay == replay_results
            && warm_dag == dag_results;
    }

    let (mut dag_nodes, mut dag_edges) = (0u64, 0u64);
    for (_, traces) in &traced {
        let stats = TraceDag::compile_world(traces).stats();
        if stats.nodes > dag_nodes {
            dag_nodes = stats.nodes;
            dag_edges = stats.edges;
        }
    }

    MappingSweepStats {
        points,
        replay_seconds,
        dag_seconds,
        dag_nodes,
        dag_edges,
        engines_agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_engines_agree_at_quick_scale() {
        let s = fig2_mapping_sweep(Scale::Quick);
        assert!(s.engines_agree, "DAG and replay diverged on a flat machine");
        assert_eq!(s.points, 32);
        assert!(s.dag_nodes > 0 && s.dag_edges > s.dag_nodes / 2);
        assert!(s.replay_seconds > 0.0 && s.dag_seconds > 0.0);
    }
}
