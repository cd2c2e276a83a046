//! Spec-driven evaluation: what a tier-1 miss actually runs.
//!
//! One entry point, [`evaluate_in`], turns a [`ScenarioSpec`] into its
//! result vector through the cache:
//!
//! 1. tier-1 lookup on the spec hash — a hit returns immediately;
//! 2. for trace-replayable programs (HALO, MD), tier-2 lookup on the
//!    program sub-hash — a hit shares the recorded trace (and its DAG,
//!    compiled on first demand), a miss records it once for everyone.
//!    HPL, IMB and POP record afresh on every miss: keeping their
//!    recordings for a whole pass costs more memory than it saves
//!    (DESIGN §14);
//! 3. the point is priced by [`hpcsim_mpi::sweep_points`] — the same
//!    function every proxy's direct entry point (`hpcc::halo_run`,
//!    `apps::pop_run`, …) prices through, on the same process-global
//!    engine — so cached and uncached runs are bit-identical and count
//!    the same DAG fallbacks.
//!
//! The result-vector layout per program is part of the store format:
//!
//! | program        | values                                              |
//! |----------------|-----------------------------------------------------|
//! | halo           | `[seconds_per_exchange]`                            |
//! | md             | `[seconds_per_step, ns_per_day]`                    |
//! | hpl            | `[seconds, gflops, efficiency]`                     |
//! | imb-allreduce  | `[usec]`                                            |
//! | pop            | `[syd, baroclinic_s, barrier_s, barotropic_s]`      |

use crate::spec::{ProgramSpec, ScenarioSpec};
use crate::store::ScenarioCache;
use hpcsim_apps as apps;
use hpcsim_faults::FaultPlan;
use hpcsim_hpcc as hpcc;
use hpcsim_mpi::{sweep_points, SimConfig, SimResult, Traces};
use std::sync::Arc;

/// Why a scenario could not be evaluated (today: a fault-induced stall;
/// the diagnostic is the replay engine's, verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable diagnosis.
    pub message: String,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EvalError {}

/// Evaluate `spec` through `cache` (both tiers + in-flight dedupe).
/// Returns the program's result vector (layout in the module docs).
pub fn evaluate_in(cache: &ScenarioCache, spec: &ScenarioSpec) -> Result<Arc<Vec<f64>>, EvalError> {
    let spec = spec.clone().canonicalized();
    cache
        .result(spec.hash(), || cold_evaluate(cache, &spec))
        .map_err(|message| EvalError { message })
}

/// The tier-1 miss path, one shape for every program: record (through
/// tier 2 for HALO and MD), price with [`sweep_points`], reduce. A
/// fault-induced stall comes back as the replay diagnostic, verbatim.
fn cold_evaluate(cache: &ScenarioCache, spec: &ScenarioSpec) -> Result<Vec<f64>, String> {
    let program = &spec.program;
    let point = [sim_config(spec)];
    let plan = spec.faults.map(|f| FaultPlan::new(f.seed, f.profile));
    let res = if program.trace_replayable() {
        let entry = cache.traces(spec.program_hash(), || record(program));
        let dag = || entry.dag();
        sweep_points(None, &point, &entry.traces, Some(&dag), plan.as_ref())
    } else {
        sweep_points(None, &point, &record(program), None, plan.as_ref())
    };
    Ok(reduce(spec, &res.map_err(|e| e.to_string())?[0]))
}

/// The program's machine-free recording.
fn record(program: &ProgramSpec) -> Traces {
    match program {
        ProgramSpec::Hpl(cfg) => hpcc::hpl_traces(cfg),
        ProgramSpec::Halo(cfg) => hpcc::halo_recording(cfg),
        ProgramSpec::Md { ranks, cfg } => apps::md_traces(*ranks, cfg),
        ProgramSpec::ImbAllreduce { ranks, bytes, dtype } => {
            hpcc::imb_allreduce_traces(*ranks, *bytes, *dtype)
        }
        ProgramSpec::Pop { ranks, threads, cfg } => apps::pop_traces(*ranks, *threads, cfg),
    }
}

/// The simulator configuration of the spec's point.
fn sim_config(spec: &ScenarioSpec) -> SimConfig {
    let (machine, mode) = (&spec.machine, spec.mode);
    match &spec.program {
        ProgramSpec::Halo(cfg) => cfg.sim_config(machine, mode, spec.mapping),
        ProgramSpec::Pop { ranks, threads, .. } => {
            apps::pop_sim_config(machine, mode, *ranks, *threads)
        }
        program => SimConfig::new(machine.clone(), program.ranks(), mode),
    }
}

/// The program's result vector (layout in the module docs).
fn reduce(spec: &ScenarioSpec, res: &SimResult) -> Vec<f64> {
    match &spec.program {
        ProgramSpec::Halo(cfg) => vec![cfg.per_exchange(res)],
        ProgramSpec::Md { cfg, .. } => {
            let r = apps::MdResult::of(res, cfg);
            vec![r.seconds_per_step, r.ns_per_day]
        }
        ProgramSpec::Hpl(cfg) => {
            let r = hpcc::HplResult::of(res, &spec.machine, cfg);
            vec![r.seconds, r.gflops, r.efficiency]
        }
        ProgramSpec::ImbAllreduce { ranks, bytes, .. } => {
            vec![hpcc::ImbPoint::of(res, *ranks, *bytes).usec]
        }
        ProgramSpec::Pop { cfg, .. } => {
            let r = apps::PopResult::of(res, cfg);
            vec![r.syd, r.baroclinic_s, r.barrier_s, r.barotropic_s]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CacheConfig;
    use hpcsim_faults::FaultProfile;
    use hpcsim_hpcc::{HaloConfig, HaloProtocol};
    use hpcsim_machine::registry::{bluegene_p, xt4_dc};
    use hpcsim_machine::ExecMode;
    use hpcsim_topo::{Grid2D, Mapping};

    fn cache() -> ScenarioCache {
        ScenarioCache::new(CacheConfig::default())
    }

    fn halo_cfg() -> HaloConfig {
        HaloConfig {
            grid: Grid2D::new(8, 8),
            words: 2048,
            protocol: HaloProtocol::IrecvIsend,
            reps: 2,
        }
    }

    #[test]
    fn halo_matches_direct_entry_point_bitwise() {
        let m = bluegene_p();
        let c = cache();
        for mapping in [Mapping::txyz(), Mapping::xyzt()] {
            let spec = ScenarioSpec::halo(&m, ExecMode::Vn, mapping, halo_cfg());
            let cached = evaluate_in(&c, &spec).unwrap();
            let direct = hpcc::halo_run(&m, ExecMode::Vn, mapping, &halo_cfg());
            assert_eq!(cached[0].to_bits(), direct.to_bits());
        }
        let s = c.stats();
        assert_eq!(s.result_misses, 2);
        assert_eq!(s.trace_hits, 1, "second mapping shares the tier-2 trace");
    }

    #[test]
    fn md_matches_direct_entry_point_bitwise() {
        let m = xt4_dc();
        let c = cache();
        let spec = ScenarioSpec::md(&m, 64, apps::MdConfig::lammps_rub());
        let cached = evaluate_in(&c, &spec).unwrap();
        let direct = apps::md_run(&m, 64, &apps::MdConfig::lammps_rub());
        assert_eq!(cached[0].to_bits(), direct.seconds_per_step.to_bits());
        assert_eq!(cached[1].to_bits(), direct.ns_per_day.to_bits());
        // warm lookup: no new evaluation
        let warm = evaluate_in(&c, &spec).unwrap();
        assert_eq!(warm[0].to_bits(), cached[0].to_bits());
        assert_eq!(c.stats().result_hits, 1);
    }

    #[test]
    fn faulty_halo_round_trips_and_errors_stay_uncached() {
        let m = bluegene_p();
        let c = cache();
        let spec = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::txyz(), halo_cfg())
            .with_faults(5, FaultProfile::Mixed);
        let cached = evaluate_in(&c, &spec).unwrap();
        let plan = FaultPlan::new(5, FaultProfile::Mixed);
        let point = halo_cfg().sim_config(&m, ExecMode::Vn, Mapping::txyz());
        let traces = hpcc::halo_recording(&halo_cfg());
        let res = sweep_points(None, &[point], &traces, None, Some(&plan)).unwrap();
        let direct = halo_cfg().per_exchange(&res[0]);
        assert_eq!(cached[0].to_bits(), direct.to_bits());
        // faulty and pristine specs are distinct tier-1 entries sharing tier 2
        let pristine = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::txyz(), halo_cfg());
        let p = evaluate_in(&c, &pristine).unwrap();
        assert!(p[0] <= cached[0], "faults never speed a halo up");
        assert_eq!(c.stats().trace_hits, 1);
    }

    #[test]
    fn dag_engine_selection_does_not_change_cached_values() {
        use hpcsim_mpi::{set_sweep_engine, SweepEngine};
        let flat = bluegene_p().with_flat_contention();
        let spec = ScenarioSpec::halo(&flat, ExecMode::Vn, Mapping::xyzt(), halo_cfg());
        let c_replay = cache();
        set_sweep_engine(SweepEngine::Replay);
        let replay = evaluate_in(&c_replay, &spec).unwrap();
        let c_dag = cache();
        set_sweep_engine(SweepEngine::Dag);
        let dag = evaluate_in(&c_dag, &spec).unwrap();
        set_sweep_engine(SweepEngine::Replay);
        assert_eq!(replay[0].to_bits(), dag[0].to_bits());
    }

    #[test]
    fn hpl_imb_pop_cache_through_tier1() {
        let m = bluegene_p();
        let c = cache();
        let specs = [
            ScenarioSpec::hpl(
                &m,
                ExecMode::Vn,
                hpcc::HplConfig { n: 4096, nb: 128, grid: Grid2D::new(4, 4), samples: 2 },
            ),
            ScenarioSpec::imb_allreduce(&m, ExecMode::Vn, 32, 1024, hpcsim_net::DType::F64),
            ScenarioSpec::pop(&m, ExecMode::Vn, 16, 1, apps::PopConfig::default()),
        ];
        for spec in &specs {
            let first = evaluate_in(&c, spec).unwrap();
            let second = evaluate_in(&c, spec).unwrap();
            assert_eq!(
                first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                second.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert!(first.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        let s = c.stats();
        assert_eq!((s.result_misses, s.result_hits), (3, 3));
        // none of these are trace-replayable: tier 2 untouched
        assert_eq!((s.trace_misses, s.trace_hits), (0, 0));
    }
}
