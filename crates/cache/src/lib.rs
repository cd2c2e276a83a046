//! # hpcsim-cache
//!
//! Content-addressed memoization of what-if scenario queries.
//!
//! Production what-if traffic is dominated by repeated and
//! near-repeated queries: sensitivity sweeps orbit a design point,
//! dashboards re-ask the same questions, and concurrent users collide
//! on popular scenarios. This crate makes those queries cheap,
//! end-to-end:
//!
//! * [`ScenarioSpec`] — the canonical, hashable identity of one query
//!   (program × machine × mapping × mode × fault seed/profile), with a
//!   stable text serialization and a 128-bit FNV-1a content hash
//!   ([`spec`] module docs cover the canonicalization rules);
//! * [`ScenarioCache`] — a two-tier store: tier 1 memoizes full results
//!   by spec hash (optionally backed by a directory), tier 2 keeps
//!   recorded traces in memory by the program-only sub-hash so a *new*
//!   machine/mapping query replays a cached trace instead of
//!   re-recording it ([`store`] module docs);
//! * [`evaluate_on`] / [`evaluate`] — the evaluation front door: one
//!   program priced on a list of setups (recorded at most once per
//!   call), or one spec. Every figure, table and ablation of the paper,
//!   the `repro` CLI and the examples price through it.
//!
//! Correctness invariant: with the cache enabled, disabled, cold, warm,
//! in-memory or disk-backed, every query returns bit-identical values —
//! the cache may only change *when* a simulation runs, never what it
//! produces. The repro CLI's byte-identity tests pin this.
//!
//! ## The process-global cache
//!
//! Library entry points share one [`global`] cache (enabled, in-memory,
//! bounded) so independent call sites coalesce. `repro` reconfigures it
//! at startup from `--cache-dir`/`--no-cache` via [`configure`].

pub mod eval;
pub mod spec;
pub mod store;

pub use eval::{evaluate_in, evaluate_on_in, EvalError, Evaluation};
pub use spec::{
    fnv1a_128, parse_setup, write_setup, FaultSpec, ProgramSpec, ScenarioSpec, Setup, SpecHash,
    SETUP_LINES,
};
pub use store::{CacheConfig, CacheStats, ScenarioCache, TraceEntry};

use std::sync::{Arc, Mutex, OnceLock};

fn global_slot() -> &'static Mutex<Arc<ScenarioCache>> {
    static SLOT: OnceLock<Mutex<Arc<ScenarioCache>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Arc::new(ScenarioCache::new(CacheConfig::default()))))
}

/// The process-global scenario cache.
pub fn global() -> Arc<ScenarioCache> {
    Arc::clone(&global_slot().lock().unwrap())
}

/// Replace the process-global cache (e.g. from `repro`'s
/// `--cache-dir`/`--no-cache` flags). Call before issuing queries —
/// in-flight evaluations against the old cache finish there.
pub fn configure(cfg: CacheConfig) {
    *global_slot().lock().unwrap() = Arc::new(ScenarioCache::new(cfg));
}

/// Price `program` on every setup through the process-global cache,
/// recording it at most once; results in setup order. See [`eval`]
/// module docs for the result-vector layout per program.
pub fn evaluate_on(program: &ProgramSpec, setups: &[Setup]) -> Vec<Evaluation> {
    evaluate_on_in(&global(), program, setups)
}

/// Evaluate one spec through the process-global cache.
pub fn evaluate(spec: &ScenarioSpec) -> Evaluation {
    evaluate_in(&global(), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_hpcc::{HaloConfig, HaloProtocol};
    use hpcsim_machine::registry::bluegene_p;
    use hpcsim_machine::ExecMode;
    use hpcsim_topo::{Grid2D, Mapping};

    #[test]
    fn global_cache_memoizes_across_call_sites() {
        let spec = ScenarioSpec::halo(
            &bluegene_p(),
            ExecMode::Vn,
            Mapping::txyz(),
            HaloConfig {
                grid: Grid2D::new(4, 4),
                words: 64,
                protocol: HaloProtocol::Sendrecv,
                reps: 1,
            },
        );
        let a = evaluate(&spec).unwrap();
        let before = global().stats();
        let b = evaluate(&spec).unwrap();
        let after = global().stats();
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert!(after.result_hits > before.result_hits);
    }
}
