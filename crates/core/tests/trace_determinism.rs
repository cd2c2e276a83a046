//! The traced battery must be as worker-count-blind as the untraced
//! one: `trace_experiment` fans scenarios out through `parmap` and
//! reassembles them in input order, so the exported Chrome trace,
//! span CSV, and metrics report are byte-identical at any `--jobs`.
//!
//! Deliberately the only test in this file: `set_jobs` is a
//! process-wide knob and the harness runs tests within one binary
//! concurrently.

use hpcsim_core::{
    chrome_json, metrics_json, set_jobs, spans_csv, trace_experiment, ExperimentId, Scale,
};
use hpcsim_probe::validate_trace;

#[test]
fn traced_battery_is_identical_at_any_worker_count() {
    set_jobs(1);
    let seq = trace_experiment(ExperimentId::Fig2, Scale::Quick, None).unwrap();
    set_jobs(4);
    let par = trace_experiment(ExperimentId::Fig2, Scale::Quick, None).unwrap();
    set_jobs(0);

    let seq = std::slice::from_ref(&seq);
    let par = std::slice::from_ref(&par);
    let (trace_seq, trace_par) = (chrome_json(seq), chrome_json(par));
    assert_eq!(trace_seq, trace_par, "trace differs between --jobs 1 and --jobs 4");
    assert_eq!(spans_csv(seq), spans_csv(par), "span CSV differs across worker counts");
    assert_eq!(metrics_json(seq), metrics_json(par), "metrics differ across worker counts");
    validate_trace(&trace_seq).expect("deterministic trace must also validate");
}
