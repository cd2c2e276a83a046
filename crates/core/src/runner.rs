//! Deterministic parallel scenario execution.
//!
//! Every experiment in the battery is a pile of independent simulation
//! points — (machine, mode, ranks, size, …) tuples, each replayed in its
//! own `TraceSim`. The experiment functions collect those points into a
//! declarative list and hand it to [`parmap`], which fans the points out
//! over a worker pool and returns results **in input order**. Because
//! each point is a pure function of its inputs and assembly order never
//! depends on completion order, rendered artifacts are byte-identical at
//! any worker count — the `parallel_determinism` integration test pins
//! this for all twelve experiments.
//!
//! The pool size is a process-global knob ([`set_jobs`]) so the `repro`
//! binary's `--jobs N` reaches every experiment without threading a
//! parameter through the whole call tree.

use hpcsim_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::LazyLock;

/// Obs metrics for the runner. Scenario and panic counts are
/// deterministic: the battery executes the same scenarios (and the same
/// ones panic) at any worker count, under either sweep engine, and at
/// any cache temperature — panicking evaluations are never cached.
struct ObsMetrics {
    scenarios: &'static obs::Counter,
    panics: &'static obs::Counter,
    wall: &'static obs::Histogram,
}

fn metrics() -> &'static ObsMetrics {
    use obs::Class::Deterministic;
    static M: LazyLock<ObsMetrics> = LazyLock::new(|| ObsMetrics {
        scenarios: obs::counter(
            "hpcsim_scenarios_total",
            "Scenario evaluations executed by the runner",
            Deterministic,
        ),
        panics: obs::counter(
            "hpcsim_scenario_panics_total",
            "Scenario evaluations isolated after panicking",
            Deterministic,
        ),
        wall: obs::histogram("hpcsim_scenario_wall_ns", "Host wall-clock per scenario evaluation"),
    });
    &M
}

/// 0 means "auto": one worker per available core.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker-pool size for subsequent [`parmap`] calls. `0` restores
/// the default (one worker per available core).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective worker count: the last [`set_jobs`] value, or the number
/// of available cores when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// A captured scenario panic: which input index blew up, and the panic
/// payload rendered to a string. Produced by [`try_parmap`]; turned into
/// a structured battery-failure row by the resilience harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPanic {
    /// Index of the failing scenario in the input slice.
    pub index: usize,
    /// The panic payload (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for ScenarioPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {} panicked: {}", self.index, self.message)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluate `f` over every scenario in `items` on up to [`jobs`] worker
/// threads; results come back in input order regardless of which worker
/// finished first. Workers pull scenarios from a shared atomic cursor, so
/// an expensive point at the front doesn't serialize the tail.
///
/// A panic in `f` aborts the whole battery with a message naming the
/// failing scenario index; use [`try_parmap`] to isolate failures
/// per-scenario instead.
pub fn parmap<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    try_parmap(items, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

/// [`parmap`] with per-scenario panic isolation: each scenario runs under
/// `catch_unwind`, so one poisoned point comes back as a
/// [`ScenarioPanic`] in its slot while every other scenario still
/// completes and returns `Ok` — a worker thread never dies with other
/// scenarios' results in its lap.
pub fn try_parmap<I, O, F>(items: &[I], f: F) -> Vec<Result<O, ScenarioPanic>>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = items.len();
    let m = metrics();
    let run_one = |i: usize| -> Result<O, ScenarioPanic> {
        m.scenarios.inc();
        // skip the Instant syscalls entirely while obs is off
        let start = obs::enabled().then(std::time::Instant::now);
        let out = catch_unwind(AssertUnwindSafe(|| f(&items[i])))
            .map_err(|p| ScenarioPanic { index: i, message: panic_message(p.as_ref()) });
        if let Some(t) = start {
            m.wall.record_duration(t.elapsed());
        }
        if out.is_err() {
            m.panics.inc();
        }
        out
    };
    let workers = jobs().min(n);
    if workers <= 1 {
        return (0..n).map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<O, ScenarioPanic>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, run_one(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            // scenario panics are caught inside run_one, so a worker can
            // only die on a panic escaping the catch (e.g. abort-on-panic
            // payload drops) — fold even that into a per-slot error
            if let Ok(batch) = h.join() {
                for (i, v) in batch {
                    slots[i] = Some(v);
                }
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.unwrap_or_else(|| {
                Err(ScenarioPanic {
                    index: i,
                    message: "scenario result lost to a worker crash".to_string(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        // make early items the slowest so out-of-order completion is likely
        let items: Vec<usize> = (0..64).collect();
        let out = parmap(&items, |&i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(parmap(&none, |&x| x).is_empty());
        assert_eq!(parmap(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn poisoned_scenario_is_isolated() {
        let items: Vec<usize> = (0..16).collect();
        let out = try_parmap(&items, |&i| {
            if i == 5 {
                panic!("boom at {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let p = r.as_ref().expect_err("scenario 5 must fail");
                assert_eq!(p.index, 5);
                assert!(p.message.contains("boom at 5"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().expect("healthy scenario"), i * 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "scenario 3 panicked")]
    fn parmap_names_the_failing_scenario() {
        let items: Vec<usize> = (0..8).collect();
        let _ = parmap(&items, |&i| {
            if i == 3 {
                panic!("bad point");
            }
            i
        });
    }

    #[test]
    fn jobs_knob_round_trips() {
        let before = jobs();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(if before == 0 { 0 } else { before });
    }
}
