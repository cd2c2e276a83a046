//! The <2% obs-overhead guard (release builds only — debug timings
//! measure the optimizer's absence, not the design).
//!
//! The true "disabled overhead" — instrumented binary with the registry
//! off versus a hypothetical un-instrumented binary — cannot be timed
//! in one process, so this guard pins something strictly stronger: a
//! cache-and-runner-heavy battery with the registry fully *enabled*
//! must stay within 2% of the same battery with it disabled. The
//! disabled cost (one relaxed atomic load per site, no `Instant`
//! calls) is a strict subset of the enabled cost, so it is bounded by
//! the same margin. Min-of-N, interleaved so thermal drift hits both
//! paths alike — the same discipline as `probe_overhead.rs`.

#![cfg(not(debug_assertions))]

use hpcsim_cache::{evaluate_in, CacheConfig, ScenarioCache, ScenarioSpec};
use hpcsim_core::{parmap, set_jobs};
use hpcsim_hpcc::{HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_obs as obs;
use hpcsim_topo::{Grid2D, Mapping};
use std::hint::black_box;
use std::time::Instant;

/// A battery crossing every instrumented layer: runner (`parmap`),
/// scenario cache, and the replay engine underneath. A fresh cache
/// per timing keeps every rep cold, so reps do equal work.
fn specs() -> Vec<ScenarioSpec> {
    let m = bluegene_p();
    let mut v = Vec::new();
    for mapping in [Mapping::txyz(), Mapping::xyzt()] {
        for words in [512u64, 1024, 2048, 4096] {
            let cfg = HaloConfig {
                grid: Grid2D::new(16, 16),
                words,
                protocol: HaloProtocol::IrecvIsend,
                reps: 2,
            };
            v.push(ScenarioSpec::halo(&m, ExecMode::Vn, mapping, cfg));
        }
    }
    v
}

fn time_battery(specs: &[ScenarioSpec]) -> f64 {
    let c = ScenarioCache::new(CacheConfig::default());
    let t = Instant::now();
    let out = parmap(specs, |s| evaluate_in(&c, s).expect("pristine halo never stalls")[0]);
    black_box(out);
    t.elapsed().as_secs_f64()
}

/// Min-of-N ratio of the enabled-registry battery over the disabled one.
fn obs_overhead_ratio(reps: usize) -> f64 {
    let specs = specs();
    // warmup both paths
    obs::set_enabled(false);
    time_battery(&specs);
    obs::set_enabled(true);
    time_battery(&specs);
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..reps {
        obs::set_enabled(false);
        best_off = best_off.min(time_battery(&specs));
        obs::set_enabled(true);
        best_on = best_on.min(time_battery(&specs));
    }
    obs::set_enabled(false);
    best_on / best_off
}

#[test]
fn obs_registry_overhead_is_within_two_percent() {
    set_jobs(1); // timing, not throughput: keep the pool out of the noise
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(obs_overhead_ratio(7));
        if best < 1.02 {
            break;
        }
    }
    set_jobs(0);
    assert!(best < 1.02, "obs overhead ratio {best:.4} >= 1.02");
}
