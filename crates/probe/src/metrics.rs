//! Typed metrics registry and JSON report.
//!
//! A [`MetricsRegistry`] is a flat, ordered list of named metric values
//! for one traced scenario, built from the recorder plus the engine's
//! statistics accumulators (`OnlineStats`, `Histogram`). The report
//! writer emits deterministic, hand-rolled JSON (the workspace serde is
//! a marker-trait shim with no runtime serialization), so the output is
//! byte-identical across runs and worker counts.

use hpcsim_engine::stats::{Histogram, OnlineStats};
use std::fmt::Write as _;

/// Format an `f64` deterministically, mapping non-finite values (e.g.
/// the ±inf min/max of an empty `OnlineStats`) to `0`.
fn fnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.000000".to_string()
    }
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous or derived scalar.
    Gauge(f64),
    /// Distribution summary from [`OnlineStats`].
    Stats {
        /// Observation count.
        count: u64,
        /// Arithmetic mean.
        mean: f64,
        /// Population standard deviation.
        stddev: f64,
        /// Smallest observation (0 when empty).
        min: f64,
        /// Largest observation (0 when empty).
        max: f64,
    },
    /// Quantile summary from a [`Histogram`].
    Quantiles {
        /// Observation count.
        count: u64,
        /// Median (bin lower edge).
        p50: f64,
        /// 90th percentile.
        p90: f64,
        /// 99th percentile.
        p99: f64,
    },
}

impl MetricValue {
    fn render(&self, out: &mut String) {
        match self {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge(v) => out.push_str(&fnum(*v)),
            MetricValue::Stats { count, mean, stddev, min, max } => {
                let _ = write!(
                    out,
                    "{{\"count\":{count},\"mean\":{},\"stddev\":{},\"min\":{},\"max\":{}}}",
                    fnum(*mean),
                    fnum(*stddev),
                    fnum(*min),
                    fnum(*max),
                );
            }
            MetricValue::Quantiles { count, p50, p90, p99 } => {
                let _ = write!(
                    out,
                    "{{\"count\":{count},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    fnum(*p50),
                    fnum(*p90),
                    fnum(*p99),
                );
            }
        }
    }
}

/// Ordered metric set for one scenario. Insertion order is preserved in
/// the JSON output, so build it the same way every run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    label: String,
    entries: Vec<(String, MetricValue)>,
}

impl MetricsRegistry {
    /// A registry for the scenario named `label`.
    pub fn new(label: impl Into<String>) -> Self {
        MetricsRegistry { label: label.into(), entries: Vec::new() }
    }

    /// Scenario label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Add a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.entries.push((name.into(), MetricValue::Counter(value)));
        self
    }

    /// Add a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.entries.push((name.into(), MetricValue::Gauge(value)));
        self
    }

    /// Add a distribution summary from an [`OnlineStats`] accumulator.
    pub fn stats(&mut self, name: impl Into<String>, s: &OnlineStats) -> &mut Self {
        let empty = s.count() == 0;
        self.entries.push((
            name.into(),
            MetricValue::Stats {
                count: s.count(),
                mean: s.mean(),
                stddev: s.stddev(),
                min: if empty { 0.0 } else { s.min() },
                max: if empty { 0.0 } else { s.max() },
            },
        ));
        self
    }

    /// Add a quantile summary from a [`Histogram`].
    pub fn quantiles(&mut self, name: impl Into<String>, h: &Histogram) -> &mut Self {
        let q = |p: f64| h.quantile(p).unwrap_or(0.0);
        self.entries.push((
            name.into(),
            MetricValue::Quantiles { count: h.count(), p50: q(0.5), p90: q(0.9), p99: q(0.99) },
        ));
        self
    }

    fn render(&self, out: &mut String) {
        let _ = write!(out, "{{\"label\":\"{}\",\"metrics\":{{", escape(&self.label));
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(name));
            value.render(out);
        }
        out.push_str("}}");
    }
}

/// A JSON string body: quotes and backslashes escaped, control
/// characters as `\u00XX`. Shared by every JSON exporter in the crate.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the full metrics report: per experiment id, the scenario
/// registries in battery order. Deliberately timestamp-free so traced
/// runs stay byte-identical (timestamps live in `BENCH_repro.json`).
pub fn metrics_report_json(experiments: &[(String, Vec<MetricsRegistry>)]) -> String {
    let mut out = String::from("{\"schema\":\"hpcsim-probe-metrics/1\",\"experiments\":[");
    for (i, (id, scenarios)) in experiments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":\"{}\",\"scenarios\":[", escape(id));
        for (j, reg) in scenarios.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            reg.render(&mut out);
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::validate_trace;

    #[test]
    fn registry_preserves_order_and_types() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(3.0);
        let mut h = Histogram::latency();
        h.record(1e-6);
        h.record(2e-6);
        let mut reg = MetricsRegistry::new("halo");
        reg.counter("messages", 42).gauge("makespan_us", 12.5).stats("link_load", &s);
        reg.quantiles("wire_latency_s", &h);
        let names: Vec<&str> = reg.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["messages", "makespan_us", "link_load", "wire_latency_s"]);
        match &reg.entries()[2].1 {
            MetricValue::Stats { count, mean, .. } => {
                assert_eq!(*count, 2);
                assert!((mean - 2.0).abs() < 1e-12);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn empty_stats_serialize_finite() {
        let mut reg = MetricsRegistry::new("empty");
        reg.stats("nothing", &OnlineStats::new());
        reg.quantiles("nohist", &Histogram::latency());
        let json = metrics_report_json(&[("fig2".to_string(), vec![reg])]);
        assert!(!json.contains("inf"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        assert!(json.contains("\"count\":0"));
    }

    #[test]
    fn report_is_wellformed_json() {
        let mut reg = MetricsRegistry::new("scen \"a\"");
        reg.counter("n", 1);
        let json = metrics_report_json(&[("fig2".to_string(), vec![reg])]);
        // reuse the trace validator's JSON parser by wrapping the report
        let wrapped = format!("{{\"traceEvents\":[],\"report\":{json}}}");
        assert!(validate_trace(&wrapped).is_ok(), "{json}");
    }

    #[test]
    fn report_is_deterministic() {
        let mut reg = MetricsRegistry::new("s");
        reg.counter("a", 1).gauge("b", 2.0);
        let exps = vec![("fig8".to_string(), vec![reg])];
        assert_eq!(metrics_report_json(&exps), metrics_report_json(&exps));
    }
}
