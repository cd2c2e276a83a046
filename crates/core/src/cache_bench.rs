//! Timed cold-vs-warm comparison of the scenario cache on a repeated
//! Fig 2(c,d)-style query mix — the measurement behind the
//! `scenario_cache` entry in `BENCH_repro.json` (schema v4) and the
//! release-gated warm-speedup guard.
//!
//! The mix is the 32-point mapping scan (two panel rank counts × eight
//! mappings × two representative halo sizes) on the *real* BG/P, with
//! every point issued twice per pass — production what-if traffic
//! repeats itself, and the duplicate issues exercise the in-flight
//! dedupe under the worker pool. The cold pass records and replays
//! each distinct point (BG/P is contended, so no point is priced on a
//! compiled DAG and tier 2 stays empty); the warm pass is pure tier-1
//! lookups. Agreement is
//! checked bit-for-bit: a cache hit must return exactly the bytes the
//! cold evaluation produced.

use hpcsim_cache::{evaluate_in, CacheConfig, ScenarioCache, ScenarioSpec};
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_topo::{Grid2D, Mapping};

use crate::experiment::Scale;
use crate::runner::parmap;

/// Outcome of running the repeated query mix cold and then warm.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCacheStats {
    /// Distinct scenario specs in the mix (panels × mappings × sizes).
    pub points: u64,
    /// Queries issued per pass (every spec twice).
    pub queries: u64,
    /// Wall seconds for the cold pass (cache empty).
    pub cold_seconds: f64,
    /// Wall seconds for the warm pass (same queries again).
    pub warm_seconds: f64,
    /// Tier-1 result hits across both passes.
    pub result_hits: u64,
    /// Tier-1 result misses (= evaluations actually run).
    pub result_misses: u64,
    /// Queries that coalesced onto an identical in-flight evaluation.
    pub coalesced: u64,
    /// Tier-2 compiled-DAG hits (0 here: contended points replay).
    pub trace_hits: u64,
    /// Tier-2 compiled-DAG misses (0 here: contended points replay).
    pub trace_misses: u64,
    /// Whether the warm pass returned bit-identical values.
    pub bitwise_identical: bool,
}

impl ScenarioCacheStats {
    /// Cold-over-warm wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.cold_seconds / self.warm_seconds.max(1e-12)
    }
}

/// Run the Fig 2(c,d)-style query mix against a fresh in-memory cache:
/// one cold pass, one warm pass, both fanned out over the worker pool.
pub fn scenario_cache_battery(scale: Scale) -> ScenarioCacheStats {
    let machine = bluegene_p();
    let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|&(_, m)| m).collect();
    let words = [2048u64, 32_768];
    let grids = [Grid2D::near_square(scale.ranks(4096)), Grid2D::near_square(scale.ranks(8192))];
    let specs: Vec<ScenarioSpec> = grids
        .iter()
        .flat_map(|&grid| {
            let machine = &machine;
            let mappings = &mappings;
            words.iter().flat_map(move |&w| {
                mappings.iter().map(move |&mapping| {
                    let cfg = hpcc::HaloConfig {
                        grid,
                        words: w,
                        protocol: hpcc::HaloProtocol::IrecvIsend,
                        reps: 2,
                    };
                    ScenarioSpec::halo(machine, ExecMode::Vn, mapping, cfg)
                })
            })
        })
        .collect();
    // every spec issued twice per pass, interleaved so the duplicate of
    // a point lands on a different worker while the first may still be
    // in flight
    let queries: Vec<usize> = (0..specs.len()).chain(0..specs.len()).collect();

    let cache = ScenarioCache::new(CacheConfig::default());
    let run = || -> (f64, Vec<u64>) {
        let t0 = std::time::Instant::now();
        let bits = parmap(&queries, |&i| {
            evaluate_in(&cache, &specs[i]).expect("pristine halo scenarios evaluate")[0].to_bits()
        });
        (t0.elapsed().as_secs_f64(), bits)
    };
    let (cold_seconds, cold_bits) = run();
    let (warm_seconds, warm_bits) = run();

    let s = cache.stats();
    ScenarioCacheStats {
        points: specs.len() as u64,
        queries: queries.len() as u64,
        cold_seconds,
        warm_seconds,
        result_hits: s.result_hits,
        result_misses: s.result_misses,
        coalesced: s.coalesced,
        trace_hits: s.trace_hits,
        trace_misses: s.trace_misses,
        bitwise_identical: cold_bits == warm_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_shape_and_identity_at_quick_scale() {
        let s = scenario_cache_battery(Scale::Quick);
        assert_eq!(s.points, 32);
        assert_eq!(s.queries, 64);
        assert!(s.bitwise_identical, "warm lookups must return cold bits");
        // the cold pass evaluates each distinct point exactly once
        // (dupes hit or coalesce); the warm pass is pure hits
        assert!(s.result_misses <= s.points, "no point may evaluate twice");
        assert!(s.result_hits >= s.queries, "the warm pass must be pure hits");
        // contended BG/P: every cold evaluation replays, so none asks
        // tier 2 for a compiled DAG
        assert_eq!((s.trace_misses, s.trace_hits), (0, 0), "{s:?}");
        assert!(s.cold_seconds > 0.0 && s.warm_seconds > 0.0);
    }
}
