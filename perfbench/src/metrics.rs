//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload from an untraced run:
/// `(name, unit)`. What each means per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics, reported by every workload from a traced run:
/// `(name, unit)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.exp_table1_ms", "ms"),
    ("core.exp_table2_ms", "ms"),
    ("core.exp_fig1_ms", "ms"),
    ("core.exp_fig2_ms", "ms"),
    ("core.exp_fig3_ms", "ms"),
    ("core.exp_top500_ms", "ms"),
    ("core.exp_fig4_ms", "ms"),
    ("core.exp_fig5_ms", "ms"),
    ("core.exp_fig6_ms", "ms"),
    ("core.exp_fig7_ms", "ms"),
    ("core.exp_fig8_ms", "ms"),
    ("core.exp_table3_ms", "ms"),
    ("core.exp_ablations_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.scenarios", "count"),
    ("core.scenario_wall_ms_mean", "ms"),
    ("cache.result_lookups", "count"),
    ("cache.result_hits", "count"),
    ("cache.result_misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.trace_hits", "count"),
    ("cache.trace_misses", "count"),
    ("cache.hit_us_p50", "us"),
    ("cache.miss_ms_p50", "ms"),
    ("cache.overhead_us_p50", "us"),
    ("hpcc.trace_ms", "ms"),
    ("hpcc.trace_ops", "count"),
    ("hpcc.trace_ns_per_op", "ns"),
    ("hpcc.layout_us_p50", "us"),
    ("dag.compile_ms", "ms"),
    ("dag.compile_ns_per_op", "ns"),
    ("dag.nodes", "count"),
    ("dag.edges", "count"),
    ("dag.eval_ns_per_node", "ns"),
    ("dag.points", "count"),
    ("dag.fallbacks", "count"),
    ("dag.perturbed_ns_per_node_sample", "ns"),
    ("dag.lane_occupancy", "ratio"),
    ("dag.repriced_fraction", "ratio"),
    ("replay.runs", "count"),
    ("replay.ns_per_msg", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items timed.
    pub attempted: u64,
    /// Items that errored or failed their check.
    pub failed: u64,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced). An end-to-end metric that is missing,
    /// not finite or not positive is an error, never a printed 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut metrics = String::new();
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = if traced {
                self.layers.get(name).copied().unwrap_or(0.0)
            } else {
                let v = *self.e2e.get(name).ok_or(format!("metric {name} was not measured"))?;
                if v <= 0.0 {
                    return Err(format!("metric {name} = {v} is not positive"));
                }
                v
            };
            if !value.is_finite() {
                return Err(format!("metric {name} = {value} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `[A-Za-z0-9_/%.-]{1,16}`.
    pub fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "metric {name} has bad unit {unit:?}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
        assert!(!valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "metric count differs");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_and_refuses_gaps() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        assert!(o.result_line(false).is_err(), "missing end-to-end metrics");
        for &(name, _) in END_TO_END {
            o.e2e.insert(name, 1.25);
        }
        let line = o.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        o.e2e.insert("p50_ms", 0.0);
        assert!(o.result_line(false).is_err(), "a zero end-to-end metric is refused");
        let traced = o.result_line(true).unwrap();
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        o.failed = 1;
        assert!(o.result_line(true).unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
