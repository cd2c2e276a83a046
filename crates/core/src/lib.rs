//! # hpcsim-core
//!
//! The evaluation framework tying the substrates together: experiment
//! identifiers for **every table and figure in the paper**, a runner that
//! regenerates them at two scales, and report types (tables and figure
//! data series) that render to aligned text and CSV.
//!
//! ```no_run
//! use hpcsim_core::{run_experiment, ExperimentId, Scale};
//! let artifact = run_experiment(ExperimentId::Fig3, Scale::Quick);
//! println!("{}", artifact.render());
//! ```
//!
//! [`Scale::Quick`] uses reduced rank counts so the full battery runs in
//! minutes on a laptop; [`Scale::Paper`] uses the paper's own process
//! counts (up to 40,000 for POP). Shapes are preserved at both scales —
//! the integration tests pin them at `Quick`, the `repro` binary records
//! them at `Paper`.

pub mod ablations;
pub mod cache_bench;
pub mod experiment;
pub mod paper;
pub mod probe;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod sensitivity;
pub mod sweep;

pub use ablations::{ablation_table, run_ablations, Ablation};
pub use cache_bench::{scenario_cache_battery, ScenarioCacheStats};
pub use experiment::{run_experiment, Artifact, ExperimentId, Scale};
pub use probe::{
    breakdown_table, chrome_json, metrics_json, scenario_metrics, spans_csv, trace_experiment,
    traceable, TraceReport, TracedScenario,
};
pub use report::{Figure, Series, Table};
pub use resilience::{resilience_battery, ResilienceReport, ScenarioError};
pub use runner::{jobs, parmap, set_jobs, try_parmap, ScenarioPanic};
pub use sensitivity::{
    sensitivity_battery, sensitivity_battery_with, SensitivityRow, SensitivityStats,
};
pub use sweep::{fig2_mapping_sweep, MappingSweepStats};
// The leveled logger and the metrics registry live in the leaf
// `hpcsim-obs` crate (so even crates *below* core can feed them);
// re-export here so harness code reaches both through core.
pub use hpcsim_obs as obs;
pub use hpcsim_obs::{
    log_debug, log_error, log_info, log_level, log_warn, log_warn_once, set_log_level, LogLevel,
};
