//! The <2% disabled-overhead guard (release builds only — debug
//! timings measure the optimizer's absence, not the design).
//!
//! The untraced public entry (`halo_run`) *is* the disabled-tracer path
//! post-refactor: it forwards to the generic replay monomorphized with
//! `NoopTracer`, whose `T::ENABLED == false` guards compile every hook
//! away. Timing both entries over the same scenario and comparing
//! min-of-N (interleaved, so thermal drift hits both alike) checks that
//! the generic instrumentation really is free when disabled. One call
//! takes a few ms, where host noise alone moves a sample by more than
//! the 2% bound, so each sample times enough back-to-back calls to
//! last ~50 ms. The
//! structural half of the guarantee — no tracer call is even reachable
//! when disabled — is pinned deterministically by the `PanickingTracer`
//! test in `hpcsim-mpi`.

#![cfg(not(debug_assertions))]

use hpcsim_hpcc::{halo_run, halo_try_run, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_probe::{NoopTracer, RingRecorder};
use hpcsim_topo::{Grid2D, Mapping};
use std::hint::black_box;
use std::time::Instant;

fn cfg() -> HaloConfig {
    HaloConfig {
        grid: Grid2D::new(32, 16),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    }
}

/// Shortest timed sample: long enough that scheduler and cache noise
/// fall well under the 2% bound.
const SAMPLE_SECS: f64 = 0.05;

/// Seconds for `calls` back-to-back untraced runs.
fn time_untraced(m: &MachineSpec, calls: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(halo_run(m, ExecMode::Vn, Mapping::txyz(), &cfg()));
    }
    t.elapsed().as_secs_f64()
}

/// Seconds for `calls` back-to-back disabled-tracer runs.
fn time_noop(m: &MachineSpec, calls: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(halo_try_run(m, ExecMode::Vn, Mapping::txyz(), &cfg(), None, &mut NoopTracer))
            .unwrap();
    }
    t.elapsed().as_secs_f64()
}

/// Min-of-N ratio of the disabled-tracer path over the untraced entry,
/// each sample `calls` runs long.
fn disabled_overhead_ratio(m: &MachineSpec, calls: usize, reps: usize) -> f64 {
    let mut best_untraced = f64::INFINITY;
    let mut best_noop = f64::INFINITY;
    for _ in 0..reps {
        best_untraced = best_untraced.min(time_untraced(m, calls));
        best_noop = best_noop.min(time_noop(m, calls));
    }
    best_noop / best_untraced
}

#[test]
fn disabled_tracer_replay_is_within_two_percent() {
    let m = bluegene_p();
    // warm both paths, then size a sample from one warm call
    time_noop(&m, 1);
    let one = time_untraced(&m, 1);
    let calls = ((SAMPLE_SECS / one).ceil() as usize).clamp(1, 64);
    // min-of-N is tight, but a noisy CI core can still smear a single
    // round; take the best ratio across a few rounds before judging
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(disabled_overhead_ratio(&m, calls, 7));
        if best < 1.02 {
            break;
        }
    }
    assert!(best < 1.02, "disabled-tracer overhead ratio {best:.4} >= 1.02");
}

#[test]
fn enabled_recorder_observes_the_same_replay() {
    let m = bluegene_p();
    let mut rec = RingRecorder::new();
    let (s_traced, _) =
        halo_try_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(), None, &mut rec).unwrap();
    assert!(rec.total_spans() > 0, "enabled recorder must capture spans");
    assert_eq!(rec.dropped(), 0);
    let s_untraced = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg());
    assert_eq!(s_traced.to_bits(), s_untraced.to_bits(), "tracing must not perturb results");
}
