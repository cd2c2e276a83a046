//! Release-gated guard on the scenario cache's warm speedup: the
//! repeated Fig 2(c,d)-style query mix must run at least 20x faster
//! warm than cold, with bit-identical answers. Debug builds skip the
//! timing claim (unoptimized replay would make it meaningless), which
//! is why the whole file is compiled out without `--release`.
#![cfg(not(debug_assertions))]

use hpcsim_core::{scenario_cache_battery, Scale};

#[test]
fn warm_cache_is_at_least_20x_faster_than_cold() {
    // best of three: wall-clock guards on shared CI hardware are noisy
    // in one direction only (a loaded machine slows a pass down), so
    // the best observed ratio is the honest one
    let mut best = 0.0f64;
    let mut identical = true;
    for _ in 0..3 {
        let s = scenario_cache_battery(Scale::Quick);
        assert_eq!(s.points, 32);
        assert_eq!(s.queries, 64);
        identical &= s.bitwise_identical;
        best = best.max(s.speedup());
        if best >= 20.0 {
            break;
        }
    }
    assert!(identical, "warm lookups must return the cold pass's exact bits");
    assert!(best >= 20.0, "warm cache must be >= 20x faster than cold, best observed {best:.1}x");
}
