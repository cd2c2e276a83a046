//! The batched-throughput guard for the Monte-Carlo sensitivity
//! battery (release builds only — debug timings measure the
//! optimizer's absence, not the design).
//!
//! The battery prices 1,000 seeded perturbation samples of the Fig 2
//! stencil DAG twice: once through the wide-lane batched evaluator
//! (32-sample chunks fanned out over the worker pool) and once as a
//! sequential one-sample-at-a-time loop — what a Monte-Carlo driver
//! without batching would do. The batched gain is the product of two
//! terms: the SIMD-lane term (delta re-pricing plus lane sharing
//! inside one worker) and the fan-out term (chunks spread over the
//! pool, while the baseline is sequential by construction). The
//! acceptance floor is `min(1.3 × workers, 4.0)`: 1.3× per worker, the
//! lane term a single worker owes (measured 1.9–2.2× even on a
//! virtualized Xeon whose 512-bit units deliver no real speedup over
//! scalar issue), capped at 4× from four workers up. At 2 workers the
//! floor is 2.6×.
//!
//! Correctness is asserted on every round, not just timing: a
//! zero-perturbation sample that drifts off the deterministic
//! engine's bits fails here before it can skew a sensitivity table.

#![cfg(not(debug_assertions))]

use hpcsim_core::{jobs, sensitivity_battery, Scale};

#[test]
fn batched_sensitivity_beats_looped_by_the_floor() {
    let workers = jobs() as f64;
    let floor = (1.3 * workers).min(4.0);
    // best-of-N: a noisy CI core can smear one round, and the looped
    // half dominates the wall time so noise inflates, not deflates, the
    // measured speedup's variance
    let mut best = 0.0f64;
    for round in 0..3 {
        let s = sensitivity_battery(Scale::Quick, 42);
        assert!(
            s.zero_identical,
            "round {round}: identity perturbation diverged from the deterministic engine"
        );
        assert_eq!(s.samples, 1000);
        assert!(s.rows.iter().all(|r| r.stddev_us > 0.0), "round {round}: flat row");
        eprintln!(
            "round {round}: batched {:.1} us/sample, looped {:.1} us/sample ({:.2}x)",
            s.batched_seconds * 1e6 / s.samples as f64,
            s.looped_seconds * 1e6 / s.samples as f64,
            s.speedup()
        );
        best = best.max(s.speedup());
        if best >= floor {
            break;
        }
    }
    assert!(
        best >= floor,
        "1000-sample batched sensitivity speedup {best:.1}x < {floor:.1}x floor ({workers} workers)"
    );
}
