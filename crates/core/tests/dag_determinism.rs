//! DAG-engine determinism regression: with `SweepEngine::Dag` selected,
//! the sweep-bearing experiments (Fig 2's mapping scan, Fig 8's machine
//! scan) must render byte-identically at `--jobs 1` and `--jobs 4`, and
//! identically to the replay engine (Dag falls back to replay wherever
//! it is not provably exact, so default repro output cannot change).
//!
//! Deliberately a separate integration-test binary: both `set_jobs` and
//! `set_sweep_engine` are process-wide knobs, so this test cannot share
//! a process with tests that assume the defaults.

use hpcsim_core::{run_experiment, set_jobs, set_sweep_engine, ExperimentId, Scale, SweepEngine};

#[test]
fn dag_engine_is_jobs_invariant_and_matches_replay() {
    for id in [ExperimentId::Fig2, ExperimentId::Fig8] {
        set_sweep_engine(SweepEngine::Replay);
        set_jobs(1);
        let replay = run_experiment(id, Scale::Quick).render();

        set_sweep_engine(SweepEngine::Dag);
        set_jobs(1);
        let dag_seq = run_experiment(id, Scale::Quick).render();
        set_jobs(4);
        let dag_par = run_experiment(id, Scale::Quick).render();

        set_jobs(0);
        set_sweep_engine(SweepEngine::Replay);

        assert!(
            dag_seq == dag_par,
            "{}: DAG engine differs between --jobs 1 and --jobs 4",
            id.slug()
        );
        assert!(replay == dag_seq, "{}: DAG engine output differs from replay engine", id.slug());
    }
}
