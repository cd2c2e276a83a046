//! A paper pass prices each distinct POP and HALO scenario once: Fig 4's
//! panels repeat its series, Table 3's core-count search and the
//! ablation baselines revisit Fig 2/Fig 4 points, and all of them go
//! through the process-global scenario cache. With the cache on or off
//! the rendered artifacts must be byte-identical; with it on, repeats
//! hit and the pass replays fewer traces. The cache and the obs
//! counters are process-wide, so this is a test binary of its own with
//! one test.

use bgp_eval::cache::{self, CacheConfig};
use bgp_eval::core::{ablation_table, run_experiment, ExperimentId, Scale};
use bgp_eval::obs;

/// Text plus every CSV of `id` at quick scale.
fn render(id: ExperimentId) -> String {
    let a = run_experiment(id, Scale::Quick);
    let mut out = a.render();
    for t in &a.tables {
        out.push_str(&t.to_csv());
    }
    for f in &a.figures {
        out.push_str(&f.to_csv());
    }
    out
}

/// Fig 2, Fig 4, Table 3 and the 512-task ablation table, rendered.
fn pass() -> String {
    let mut out = String::new();
    for id in [ExperimentId::Fig2, ExperimentId::Fig4, ExperimentId::Table3] {
        out.push_str(&render(id));
    }
    let t = ablation_table(512);
    out + &t.render() + &t.to_csv()
}

fn replay_runs() -> u64 {
    let snap = obs::snapshot();
    snap.counters.iter().find(|c| c.name == "hpcsim_replay_runs_total").map_or(0, |c| c.value)
}

#[test]
fn paper_pass_prices_each_distinct_scenario_once() {
    obs::set_enabled(true);

    // Fig 4 alone: panels (b) and (c) repeat series (a)'s six BG/P VN
    // ChronGear runs, so twelve lookups are answered without simulating
    // (a hit, or a coalesce onto a concurrent identical evaluation)
    cache::configure(CacheConfig::default());
    render(ExperimentId::Fig4);
    let s = cache::global().stats();
    assert_eq!(s.result_hits + s.coalesced, 12, "{s:?}");

    cache::configure(CacheConfig::default());
    let before = replay_runs();
    let cached = pass();
    let cached_replays = replay_runs() - before;
    let s = cache::global().stats();
    assert!(s.result_hits > 0, "{s:?}");

    cache::configure(CacheConfig { enabled: false, ..CacheConfig::default() });
    let before = replay_runs();
    let direct = pass();
    let direct_replays = replay_runs() - before;

    assert!(cached == direct, "cached and uncached passes render differently");
    assert!(
        cached_replays < direct_replays,
        "cache must save replays: {cached_replays} vs {direct_replays}"
    );
}
