//! Spec-driven evaluation: what a tier-1 miss actually runs.
//!
//! One entry point, [`evaluate_on_in`], prices a [`ProgramSpec`] on a
//! list of [`Setup`]s through the cache:
//!
//! 1. one tier-1 lookup per setup, on the canonical spec's hash — a hit
//!    returns immediately;
//! 2. each miss is priced by [`hpcsim_mpi::sweep_points`] (the DAG
//!    where it is exact, replay elsewhere) and reduced by
//!    [`ProgramSpec::reduce`], so cached and uncached runs are
//!    bit-identical and count the same DAG fallbacks;
//! 3. `sweep_points` asks for the recording and the DAG through
//!    getters, each answered at most once per call. The DAG comes from
//!    tier 2, keyed by the program sub-hash, so a DAG-priced miss in a
//!    later call neither records nor compiles. The recording lives for
//!    the call only, whatever the program: keeping recordings for a
//!    whole pass costs more memory than it saves (DESIGN §14).
//!
//! [`evaluate_in`] is its one-setup case. The result-vector layout per
//! program is part of the store format:
//!
//! | program        | values                                              |
//! |----------------|-----------------------------------------------------|
//! | halo           | `[seconds_per_exchange]`                            |
//! | md             | `[seconds_per_step, ns_per_day]`                    |
//! | hpl            | `[seconds, gflops, efficiency]`                     |
//! | imb-allreduce  | `[usec]`                                            |
//! | pop            | `[syd, baroclinic_s, barrier_s, barotropic_s]`      |
//! | s3d            | `[core_hours_per_point_step, seconds_per_step]`     |
//! | gyro           | `[seconds_per_step]`                                |
//! | cam            | `[years_per_day, cores]`                            |
//! | fft            | `[n, seconds, gflops]`                              |
//! | ptrans         | `[n, seconds, gbps]`                                |
//! | ra             | `[updates, seconds, gups]`                          |
//! | imb-bcast      | `[usec]`                                            |
//! | pingpong       | `[makespan_seconds]`                                |
//! | random-ring    | `[makespan_seconds]`                                |

use crate::spec::{ProgramSpec, ScenarioSpec, Setup};
use crate::store::ScenarioCache;
use hpcsim_faults::FaultPlan;
use hpcsim_mpi::{sweep_points, TraceDag, Traces};
use std::cell::OnceCell;
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

/// A result vector (layout in the module docs), or why it has none.
pub type Evaluation = Result<Arc<Vec<f64>>, EvalError>;

/// Price `program` on every setup through `cache` (both tiers +
/// in-flight dedupe), recording it and asking tier 2 for its DAG at
/// most once. Results come back in setup order.
pub fn evaluate_on_in(
    cache: &ScenarioCache,
    program: &ProgramSpec,
    setups: &[Setup],
) -> Vec<Evaluation> {
    // canonicalization folds only axes the recording ignores, so every
    // setup's canonical program records the same trace
    let recording: OnceCell<Traces> = OnceCell::new();
    let compiled: OnceCell<Arc<TraceDag>> = OnceCell::new();
    let priced = |spec: &ScenarioSpec| {
        let traces = || recording.get_or_init(|| spec.program.record());
        let dag = || {
            let compile = || TraceDag::compile(traces());
            &**compiled.get_or_init(|| cache.dag(spec.program_hash(), compile))
        };
        let point = [spec.program.sim_config(&spec.setup)];
        let plan = spec.setup.faults.map(|f| FaultPlan::new(f.seed, f.profile));
        let res = sweep_points(&point, &traces, Some(&dag), plan.as_ref());
        Ok(spec.program.reduce(&point[0], &res.map_err(|e| e.to_string())?[0]))
    };
    setups
        .iter()
        .map(|setup| {
            let spec = ScenarioSpec::new(program.clone(), setup.clone());
            cache.result(spec.hash(), || priced(&spec)).map_err(|message| EvalError { message })
        })
        .collect()
}

/// Evaluate one spec through `cache`: [`evaluate_on_in`] on its one
/// setup.
pub fn evaluate_in(cache: &ScenarioCache, spec: &ScenarioSpec) -> Evaluation {
    let setups = std::slice::from_ref(&spec.setup);
    evaluate_on_in(cache, &spec.program, setups).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;
    use crate::store::CacheConfig;
    use hpcsim_apps as apps;
    use hpcsim_faults::FaultProfile;
    use hpcsim_hpcc::{self as hpcc, HaloConfig, HaloProtocol};
    use hpcsim_machine::registry::{bluegene_p, xt3, xt4_dc};
    use hpcsim_machine::ExecMode;
    use hpcsim_mpi::{SimConfig, TraceSim};
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

    /// Tier-2 lookups (hits + misses) `c` has made.
    fn dag_lookups(c: &ScenarioCache) -> u64 {
        let s = c.stats();
        s.trace_hits + s.trace_misses
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
        assert_eq!(dag_lookups(&c), 0, "contended points replay: tier 2 untouched");
    }

    #[test]
    fn md_matches_direct_pricing_bitwise() {
        let m = xt4_dc();
        let c = cache();
        let cfg = apps::MdConfig::lammps_rub();
        let spec = ScenarioSpec::new(
            ProgramSpec::Md { ranks: 64, cfg: cfg.clone() },
            Setup::new(&m, ExecMode::Vn),
        );
        let cached = evaluate_in(&c, &spec).unwrap();
        let point = [SimConfig::new(m.clone(), 64, ExecMode::Vn)];
        let traces = apps::md_traces(64, &cfg);
        let res = sweep_points(&point, &|| &traces, None, None).unwrap();
        let direct = apps::MdResult::of(&res[0], &cfg);
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
        let res = sweep_points(&[point], &|| &traces, None, Some(&plan)).unwrap();
        let direct = halo_cfg().per_exchange(&res[0]);
        assert_eq!(cached[0].to_bits(), direct.to_bits());
        // faulty and pristine specs are distinct tier-1 entries
        let pristine = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::txyz(), halo_cfg());
        let p = evaluate_in(&c, &pristine).unwrap();
        assert!(p[0] <= cached[0], "faults never speed a halo up");
        assert_eq!(c.stats().result_misses, 2);
        assert_eq!(dag_lookups(&c), 0, "both replay: tier 2 untouched");
    }

    /// A contention-flat point is priced on the DAG; direct replay is
    /// the oracle it must match.
    #[test]
    fn dag_priced_value_matches_replay() {
        let flat = bluegene_p().with_flat_contention();
        let spec = ScenarioSpec::halo(&flat, ExecMode::Vn, Mapping::xyzt(), halo_cfg());
        let dag = evaluate_in(&cache(), &spec).unwrap();
        let point = halo_cfg().sim_config(&flat, ExecMode::Vn, Mapping::xyzt());
        let replay = TraceSim::new(point).replay(&hpcc::halo_recording(&halo_cfg()));
        assert_eq!(dag[0].to_bits(), halo_cfg().per_exchange(&replay).to_bits());
    }

    /// Two mappings of one flat HALO program in two calls: the first
    /// compiles the program into tier 2, the second prices that same
    /// DAG without recording it.
    #[test]
    fn flat_halo_mappings_share_one_compiled_dag() {
        let flat = bluegene_p().with_flat_contention();
        let c = cache();
        for mapping in [Mapping::txyz(), Mapping::xyzt()] {
            evaluate_in(&c, &ScenarioSpec::halo(&flat, ExecMode::Vn, mapping, halo_cfg())).unwrap();
        }
        let s = c.stats();
        assert_eq!((s.result_misses, s.trace_misses, s.trace_hits), (2, 1, 1), "{s:?}");
        let h = ScenarioSpec::halo(&flat, ExecMode::Vn, Mapping::txyz(), halo_cfg()).program_hash();
        let (a, b) = (c.dag(h, || panic!("compiled")), c.dag(h, || panic!("compiled")));
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Points that replay never ask tier 2: a contended machine, or a
    /// flat one with faults armed.
    #[test]
    fn replayed_points_make_no_dag_lookups() {
        let flat = bluegene_p().with_flat_contention();
        let c = cache();
        for (m, faults) in [(bluegene_p(), None), (flat.clone(), Some(5)), (bluegene_p(), Some(5))]
        {
            let mut spec = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::xyzt(), halo_cfg());
            if let Some(seed) = faults {
                spec = spec.with_faults(seed, FaultProfile::Mixed);
            }
            evaluate_in(&c, &spec).unwrap();
        }
        assert_eq!((c.stats().result_misses, dag_lookups(&c)), (3, 0));
    }

    /// Every program but HALO, one small point each.
    fn programs() -> Vec<ProgramSpec> {
        vec![
            ProgramSpec::Md { ranks: 16, cfg: apps::MdConfig::lammps_rub() },
            ProgramSpec::Hpl(hpcc::HplConfig {
                n: 4096,
                nb: 128,
                grid: Grid2D::new(4, 4),
                samples: 2,
            }),
            ProgramSpec::ImbAllreduce { ranks: 32, bytes: 1024, dtype: hpcsim_net::DType::F64 },
            ProgramSpec::Pop { ranks: 16, threads: 1, cfg: apps::PopConfig::default() },
            ProgramSpec::S3d { ranks: 8, cfg: apps::S3dConfig::default() },
            ProgramSpec::Gyro { ranks: 16, cfg: apps::GyroConfig::b1_std() },
            ProgramSpec::Cam { ranks: 16, threads: 1, cfg: apps::CamConfig::t42() },
            ProgramSpec::Fft { ranks: 16, n: 1 << 16 },
            ProgramSpec::Ptrans {
                ranks: 16,
                n: 4096,
                placement: hpcsim_topo::Placement::Fragmented { spread: 1.5, seed: 3 },
            },
            ProgramSpec::RandomAccess { ranks: 16, table_bytes: 1 << 20, updates: 1 << 10 },
            ProgramSpec::ImbBcast { ranks: 32, bytes: 1024 },
            ProgramSpec::Pingpong { bytes: 8, reps: 8 },
            ProgramSpec::RandomRing { ranks: 16, bytes: 8, seed: 1 },
        ]
    }

    #[test]
    fn every_program_caches_through_tier1() {
        let m = bluegene_p();
        let c = cache();
        let specs: Vec<ScenarioSpec> = programs()
            .into_iter()
            .map(|p| ScenarioSpec::new(p, Setup::new(&m, ExecMode::Vn)))
            .collect();
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
        let n = specs.len() as u64;
        assert_eq!((s.result_misses, s.result_hits), (n, n));
        // contended BG/P replays every point: tier 2 untouched
        assert_eq!((s.trace_misses, s.trace_hits), (0, 0));
    }

    /// One call prices every setup like its own one-setup evaluation,
    /// looks each setup up once, hits on a setup it already priced, and
    /// asks tier 2 once if some setup is priced on the DAG.
    #[test]
    fn evaluate_on_equals_one_setup_evaluations() {
        let flat = bluegene_p().with_flat_contention();
        let setups: Vec<Setup> = [bluegene_p(), xt3(), xt4_dc(), bluegene_p(), flat.clone()]
            .iter()
            .map(|m| Setup::new(m, ExecMode::Vn))
            .collect();
        let faulty = Setup {
            faults: Some(FaultSpec { seed: 5, profile: FaultProfile::Mixed }),
            ..Setup::new(&flat, ExecMode::Vn)
        };
        let halo = (ProgramSpec::Halo(halo_cfg()), [&setups[..], &[faulty]].concat());
        let cases = programs().into_iter().map(|p| (p, setups.clone())).chain([halo]);
        for (program, setups) in cases {
            let (together, alone) = (cache(), cache());
            let all = evaluate_on_in(&together, &program, &setups);
            for (setup, v) in setups.iter().zip(&all) {
                let spec = ScenarioSpec::new(program.clone(), setup.clone());
                let one = evaluate_in(&alone, &spec).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(v.as_ref().unwrap()), bits(&one), "{}", spec.to_canon());
            }
            let s = together.stats();
            let n = setups.len() as u64;
            assert_eq!((s.result_misses, s.result_hits), (n - 1, 1), "{program:?}");
            // one flat, fault-free setup: tier 2 is asked once, and misses
            assert_eq!((s.trace_misses, s.trace_hits), (1, 0), "{program:?}");
        }
    }
}
