//! Exporters: everything renders from one [`Snapshot`], so the three
//! output formats (Prometheus text exposition, `run_report.json`, the
//! stderr summary table) can never disagree about what happened.
//!
//! `run_report.json` is hand-rolled like every other JSON emitter in
//! this workspace (the vendored serde shim is marker-only) and keeps a
//! fixed 2-space indentation so CI can slice the deterministic block
//! out with `sed -n '/"deterministic": {/,/^  },$/p'` and byte-diff it
//! across `--jobs` counts.

use crate::registry::{Class, HistSnap, Snapshot};
use std::fmt::Write as _;

/// Report schema identifier, bumped on any layout change.
pub const RUN_REPORT_SCHEMA: &str = "hpcsim-obs-run-report/1";

/// Render a snapshot as Prometheus text exposition (text format 0.0.4):
/// `# HELP` / `# TYPE` preambles, cumulative histogram buckets with a
/// final `+Inf` edge, and `_sum` / `_count` series.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let _ = writeln!(out, "# HELP {} {}", c.name, c.help);
        let _ = writeln!(out, "# TYPE {} counter", c.name);
        let _ = writeln!(out, "{} {}", c.name, c.value);
    }
    for g in &snap.gauges {
        let _ = writeln!(out, "# HELP {} {}", g.name, g.help);
        let _ = writeln!(out, "# TYPE {} gauge", g.name);
        let _ = writeln!(out, "{} {}", g.name, g.value);
    }
    for h in &snap.hists {
        let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
        let _ = writeln!(out, "# TYPE {} histogram", h.name);
        let mut cum = 0u64;
        let mut saw_inf = false;
        for &(le, n) in &h.buckets {
            cum += n;
            if le == u64::MAX {
                saw_inf = true;
                let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cum}", h.name);
            } else {
                let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cum}", h.name);
            }
        }
        if !saw_inf {
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
        }
        let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
        let _ = writeln!(out, "{}_count {}", h.name, h.count);
    }
    out
}

/// Counters and gauges of `class` as sorted `"name": value` JSON lines
/// at `indent` spaces. Counters and gauges share one namespace in the
/// report, interleaved in name order.
fn scalar_lines(snap: &Snapshot, class: Class, indent: usize) -> Vec<String> {
    let pad = " ".repeat(indent);
    let mut rows: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|c| c.class == class)
        .map(|c| (c.name, c.value))
        .chain(snap.gauges.iter().filter(|g| g.class == class).map(|g| (g.name, g.value)))
        .collect();
    rows.sort_by_key(|&(name, _)| name);
    rows.iter().map(|(name, v)| format!("{pad}\"{name}\": {v}")).collect()
}

/// The `"deterministic"` block of the run report, byte-for-byte as it
/// appears inside [`run_report_json`] — the unit CI and tests diff
/// across `--jobs` counts, sweep engines, and cache temperatures.
/// Starts with `  "deterministic": {` and ends with `  },\n`.
pub fn deterministic_json(snap: &Snapshot) -> String {
    let mut out = String::from("  \"deterministic\": {\n");
    out.push_str(&scalar_lines(snap, Class::Deterministic, 4).join(",\n"));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("  },\n");
    out
}

fn hist_json(h: &HistSnap) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    \"{}\": {{", h.name);
    let _ = writeln!(out, "      \"count\": {},", h.count);
    let _ = writeln!(out, "      \"sum\": {},", h.sum);
    let _ = writeln!(out, "      \"p50_le\": {},", h.quantile_le(0.50));
    let _ = writeln!(out, "      \"p99_le\": {},", h.quantile_le(0.99));
    let buckets: Vec<String> = h.buckets.iter().map(|&(le, n)| format!("[{le}, {n}]")).collect();
    let _ = writeln!(out, "      \"buckets\": [{}]", buckets.join(", "));
    out.push_str("    }");
    out
}

/// Render the full structured run report. Section order is fixed:
/// `deterministic` (CI byte-diffs it), `observed` (real telemetry that
/// legitimately varies with cache state and engine choice), `timing`
/// (host wall-clock histograms, quarantined like `generated_at`).
pub fn run_report_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{RUN_REPORT_SCHEMA}\",");
    out.push_str(&deterministic_json(snap));
    out.push_str("  \"observed\": {\n");
    out.push_str(&scalar_lines(snap, Class::Volatile, 4).join(",\n"));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("  },\n");
    out.push_str("  \"timing\": {\n");
    let hists: Vec<String> = snap.hists.iter().map(hist_json).collect();
    out.push_str(&hists.join(",\n"));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("  }\n}\n");
    out
}

/// Human-format a value whose metric name marks it as nanoseconds.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render the per-run stderr summary: nonzero counters and gauges
/// grouped by section, then each histogram's count / p50 / p99 (edges
/// of the log2 bucket containing the quantile). Returns an empty
/// string when nothing was recorded.
pub fn summary_table(snap: &Snapshot) -> String {
    let det = scalar_rows(snap, Class::Deterministic);
    let obs = scalar_rows(snap, Class::Volatile);
    let hists: Vec<&HistSnap> = snap.hists.iter().filter(|h| h.count > 0).collect();
    if det.is_empty() && obs.is_empty() && hists.is_empty() {
        return String::new();
    }
    let width = det
        .iter()
        .chain(&obs)
        .map(|(n, _)| n.len())
        .chain(hists.iter().map(|h| h.name.len()))
        .max()
        .unwrap_or(0);
    let mut out = String::from("# run metrics\n");
    for (title, rows) in [("deterministic", &det), ("observed", &obs)] {
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "#   {title}:");
        for (name, v) in rows {
            let _ = writeln!(out, "#     {name:<width$}  {v}");
        }
    }
    if !hists.is_empty() {
        let _ = writeln!(out, "#   timing:");
        for h in hists {
            let (p50, p99) = (h.quantile_le(0.50), h.quantile_le(0.99));
            let (p50, p99) = if h.name.ends_with("_ns") {
                (fmt_ns(p50), fmt_ns(p99))
            } else {
                (p50.to_string(), p99.to_string())
            };
            let _ = writeln!(
                out,
                "#     {:<width$}  count {}  p50 <= {p50}  p99 <= {p99}",
                h.name, h.count
            );
        }
    }
    out
}

fn scalar_rows(snap: &Snapshot, class: Class) -> Vec<(&'static str, u64)> {
    let mut rows: Vec<(&'static str, u64)> = snap
        .counters
        .iter()
        .filter(|c| c.class == class && c.value > 0)
        .map(|c| (c.name, c.value))
        .chain(
            snap.gauges
                .iter()
                .filter(|g| g.class == class && g.value > 0)
                .map(|g| (g.name, g.value)),
        )
        .collect();
    rows.sort_by_key(|&(name, _)| name);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CounterSnap, GaugeSnap};

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                CounterSnap {
                    name: "hpcsim_a_total",
                    help: "det ctr",
                    class: Class::Deterministic,
                    value: 7,
                },
                CounterSnap {
                    name: "hpcsim_b_total",
                    help: "vol ctr",
                    class: Class::Volatile,
                    value: 3,
                },
            ],
            gauges: vec![GaugeSnap {
                name: "hpcsim_a_gauge",
                help: "det gauge",
                class: Class::Deterministic,
                value: 11,
            }],
            hists: vec![HistSnap {
                name: "hpcsim_wall_ns",
                help: "wall",
                count: 3,
                sum: 12,
                buckets: vec![(1, 1), (7, 2)],
            }],
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# HELP hpcsim_a_total det ctr\n"));
        assert!(text.contains("# TYPE hpcsim_a_total counter\n"));
        assert!(text.contains("hpcsim_a_total 7\n"));
        assert!(text.contains("# TYPE hpcsim_a_gauge gauge\n"));
        assert!(text.contains("# TYPE hpcsim_wall_ns histogram\n"));
        // buckets are cumulative and close with +Inf == count
        assert!(text.contains("hpcsim_wall_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("hpcsim_wall_ns_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("hpcsim_wall_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("hpcsim_wall_ns_sum 12\n"));
        assert!(text.contains("hpcsim_wall_ns_count 3\n"));
    }

    #[test]
    fn prometheus_renders_max_edge_as_inf_once() {
        let snap = Snapshot {
            counters: vec![],
            gauges: vec![],
            hists: vec![HistSnap {
                name: "h",
                help: "t",
                count: 2,
                sum: 0,
                buckets: vec![(3, 1), (u64::MAX, 1)],
            }],
        };
        let text = prometheus_text(&snap);
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1);
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn run_report_sections_and_extractable_block() {
        let report = run_report_json(&sample());
        assert!(report.starts_with("{\n  \"schema\": \"hpcsim-obs-run-report/1\",\n"));
        // the deterministic block embeds byte-for-byte
        let det = deterministic_json(&sample());
        assert!(report.contains(&det));
        assert!(det.starts_with("  \"deterministic\": {\n"));
        assert!(det.ends_with("  },\n"));
        // deterministic holds only Deterministic-class scalars
        assert!(det.contains("\"hpcsim_a_total\": 7"));
        assert!(det.contains("\"hpcsim_a_gauge\": 11"));
        assert!(!det.contains("hpcsim_b_total"));
        // observed holds the volatile ones, timing the histograms
        assert!(report.contains("  \"observed\": {\n    \"hpcsim_b_total\": 3\n  },\n"));
        assert!(report.contains("\"hpcsim_wall_ns\": {"));
        assert!(report.contains("\"count\": 3,"));
        assert!(report.contains("\"buckets\": [[1, 1], [7, 2]]"));
        // rendering is a pure function of the snapshot
        assert_eq!(report, run_report_json(&sample()));
    }

    #[test]
    fn empty_sections_stay_valid() {
        let empty = Snapshot::default();
        let report = run_report_json(&empty);
        assert!(report.contains("  \"deterministic\": {\n  },\n"));
        assert!(report.contains("  \"observed\": {\n  },\n"));
        assert!(report.ends_with("  \"timing\": {\n  }\n}\n"));
        assert_eq!(summary_table(&empty), "");
    }

    #[test]
    fn summary_table_lists_nonzero_and_quantiles() {
        let table = summary_table(&sample());
        assert!(table.starts_with("# run metrics\n"));
        assert!(table.contains("deterministic:"));
        assert!(table.contains("hpcsim_a_total"));
        assert!(table.contains("observed:"));
        assert!(table.contains("count 3"));
        assert!(table.contains("p50 <= 7ns"));
        // every line is stderr-comment prefixed
        assert!(table.lines().all(|l| l.starts_with('#')));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(512), "512ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
