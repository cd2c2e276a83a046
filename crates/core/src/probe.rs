//! Traced scenario batteries: run representative scenarios of a figure
//! with the [`hpcsim_probe`] recorder attached, then render breakdown
//! tables, Chrome traces, and a metrics report.
//!
//! Tracing a full `run_experiment` battery would record millions of
//! spans per figure; instead each experiment that prices an MPI program
//! names a handful of representative scenarios as data
//! ([`ExperimentId::traced`]: labelled [`ScenarioSpec`]s, the paper's
//! interesting corners) that reproduce its communication structure
//! faithfully. One path replays them all: each spec's program records
//! its trace and runs on the spec's simulator configuration, exactly
//! as the scenario cache prices it. Scenarios fan out through
//! [`parmap`] and are collected in input order, so the exported trace
//! and metrics are byte-identical regardless of `--jobs`.

use crate::experiment::{ExperimentId, Scale};
use crate::report::Table;
use crate::runner::parmap;
use hpcsim_cache::ScenarioSpec;
use hpcsim_engine::stats::{Histogram, OnlineStats};
use hpcsim_engine::SimTime;
use hpcsim_faults::FaultPlan;
use hpcsim_mpi::TraceSim;
use hpcsim_probe::{
    chrome_trace, metrics_report_json, trace_csv, GaugeId, MetricsRegistry, RingRecorder, SpanKind,
};

/// One traced scenario: the recorder plus the replay facts needed to
/// cross-check it.
#[derive(Debug, Clone)]
pub struct TracedScenario {
    /// Human-readable scenario label (also the trace process name).
    pub label: String,
    /// Ranks that participated.
    pub ranks: usize,
    /// Job wall-clock.
    pub makespan: SimTime,
    /// Per-rank finish times (the cpu track tiles `[0, finish[r]]`).
    pub finish: Vec<SimTime>,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Point-to-point payload bytes sent.
    pub bytes: u64,
    /// The attached recorder.
    pub recorder: RingRecorder,
}

/// All traced scenarios of one figure.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Which figure the scenarios belong to.
    pub id: ExperimentId,
    /// Scenarios in battery order.
    pub scenarios: Vec<TracedScenario>,
}

/// Replay one labelled scenario with a fresh recorder attached, and
/// `faults` armed if the spec's canonicalization keeps them (HALO only).
fn replay(label: &str, spec: &ScenarioSpec, faults: Option<&FaultPlan>) -> TracedScenario {
    let mut sim = TraceSim::new(spec.program.sim_config(&spec.setup));
    let kept =
        |p: &&FaultPlan| spec.clone().with_faults(p.seed(), p.profile()).setup.faults.is_some();
    if let Some(plan) = faults.filter(kept) {
        sim.set_faults(plan);
    }
    let mut rec = RingRecorder::new();
    let res = sim.try_replay(&spec.program.record(), &mut rec).unwrap_or_else(|e| panic!("{e}"));
    TracedScenario {
        label: label.to_string(),
        ranks: res.finish.len(),
        makespan: res.makespan(),
        finish: res.finish.clone(),
        messages: res.messages,
        bytes: res.bytes_sent,
        recorder: rec,
    }
}

/// The experiments with a traced battery: every one that prices an MPI
/// program, which is all but Table 1.
pub fn traceable() -> Vec<ExperimentId> {
    ExperimentId::all().into_iter().filter(|id| !id.traced(Scale::Quick).is_empty()).collect()
}

/// Run the traced battery of one experiment, with `faults` armed on the
/// scenarios that keep them; `None` if the experiment has no traced
/// battery. Scenarios run through [`parmap`] and are merged in input
/// order, so output is identical at any `--jobs`.
pub fn trace_experiment(
    id: ExperimentId,
    scale: Scale,
    faults: Option<&FaultPlan>,
) -> Option<TraceReport> {
    let scenarios = id.traced(scale);
    if scenarios.is_empty() {
        return None;
    }
    let scenarios = parmap(&scenarios, |(label, spec)| replay(label, spec, faults));
    Some(TraceReport { id, scenarios })
}

/// Per-scenario time breakdown of a traced figure: where simulated time
/// goes, split by the probe's span categories. The four cpu columns sum
/// to the mean rank finish time; the four network columns overlap them
/// (a blocked rank's `wait` *is* wire + contention + handshake seen
/// from the other side).
pub fn breakdown_table(report: &TraceReport) -> Table {
    let mut headers = vec!["Scenario", "Ranks", "Makespan (us)", "CPU mean (us)"];
    headers.extend(hpcsim_probe::TimeBreakdown::ZERO.fields().map(|(n, _)| n));
    let title = format!("{}: traced time breakdown (per-rank mean, us)", report.id.slug());
    let mut t = Table::new(&title, &headers);
    for s in &report.scenarios {
        let b = s.recorder.breakdown();
        let ranks = s.ranks.max(1) as f64;
        let mut row = vec![
            s.label.clone(),
            s.ranks.to_string(),
            format!("{:.3}", s.makespan.as_us()),
            format!("{:.3}", b.cpu_total().as_us() / ranks),
        ];
        row.extend(b.fields().iter().map(|(_, v)| format!("{:.3}", v.as_us() / ranks)));
        t.push_row(row);
    }
    t
}

/// Metrics registry for one traced scenario: replay facts, recorder
/// counters, queue-depth gauges, link-utilization summary, wire-latency
/// quantiles, and the time breakdown.
pub fn scenario_metrics(s: &TracedScenario) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new(&s.label);
    reg.counter("ranks", s.ranks as u64)
        .counter("messages", s.messages)
        .counter("bytes_sent", s.bytes)
        .gauge("makespan_us", s.makespan.as_us())
        .counter("spans_recorded", s.recorder.total_spans())
        .counter("spans_dropped", s.recorder.dropped())
        .counter("unexpected_messages", s.recorder.unexpected());
    for g in GaugeId::all() {
        let v = s.recorder.gauge_value(g);
        // fault-era gauges only appear once fault injection fired, so a
        // pristine run's metrics report keeps its pre-fault schema
        let fault_gauge =
            matches!(g, GaugeId::LinkOutages | GaugeId::Retransmits | GaugeId::FlowUnderflows);
        if !fault_gauge || v != 0 {
            reg.counter(g.label(), v);
        }
    }

    // contention heatmap summary: peak and time-mean load per used link
    let usage = s.recorder.link_usage(s.makespan);
    let mut peak = OnlineStats::new();
    let mut mean = OnlineStats::new();
    for u in &usage {
        peak.push(u.peak as f64);
        mean.push(u.mean);
    }
    reg.counter("links_used", usage.len() as u64)
        .stats("link_peak_flows", &peak)
        .stats("link_mean_load", &mean);

    // wire latency distribution over retained message spans
    let mut h = Histogram::latency();
    for ev in s.recorder.spans() {
        if ev.kind == SpanKind::MsgWire {
            h.record(ev.dur().as_secs());
        }
    }
    reg.quantiles("msg_wire_seconds", &h);

    for (name, v) in s.recorder.breakdown().fields() {
        reg.gauge(format!("{name}_total_us"), v.as_us());
    }
    reg
}

/// JSON metrics report over a set of traced figures
/// (`hpcsim-probe-metrics/1` schema).
pub fn metrics_json(reports: &[TraceReport]) -> String {
    let experiments: Vec<(String, Vec<MetricsRegistry>)> = reports
        .iter()
        .map(|r| (r.id.slug().to_string(), r.scenarios.iter().map(scenario_metrics).collect()))
        .collect();
    metrics_report_json(&experiments)
}

fn named_recorders(reports: &[TraceReport]) -> Vec<(String, &RingRecorder)> {
    reports
        .iter()
        .flat_map(|r| {
            r.scenarios.iter().map(move |s| (format!("{}/{}", r.id.slug(), s.label), &s.recorder))
        })
        .collect()
}

/// Chrome `trace_event` JSON over a set of traced figures — one trace
/// process per scenario, loadable in Perfetto / `chrome://tracing`.
pub fn chrome_json(reports: &[TraceReport]) -> String {
    chrome_trace(&named_recorders(reports))
}

/// Flat CSV of every retained span over a set of traced figures.
pub fn spans_csv(reports: &[TraceReport]) -> String {
    trace_csv(&named_recorders(reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_probe::validate_trace;

    fn small_fig2() -> TraceReport {
        trace_experiment(ExperimentId::Fig2, Scale::Quick, None).unwrap()
    }

    #[test]
    fn every_pricing_experiment_is_traceable() {
        assert!(trace_experiment(ExperimentId::Table1, Scale::Quick, None).is_none());
        let all = ExperimentId::all();
        assert_eq!(traceable(), all[1..], "all but Table 1");
        for id in traceable() {
            for scale in [Scale::Quick, Scale::Paper] {
                let traced = id.traced(scale);
                assert!(!traced.is_empty(), "{}", id.slug());
                // labels name the trace processes: unique per battery
                let mut labels: Vec<&str> = traced.iter().map(|(l, _)| l.as_str()).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), traced.len(), "{}", id.slug());
            }
        }
    }

    /// Every battery replays, tiles each rank's clock exactly with cpu
    /// spans, and exports a Chrome trace that validates.
    #[test]
    fn every_battery_traces_and_validates() {
        for id in traceable() {
            let report = trace_experiment(id, Scale::Quick, None).unwrap();
            for s in &report.scenarios {
                assert_eq!(s.recorder.dropped(), 0, "{}", s.label);
                assert_eq!(s.recorder.cpu_sums(), s.finish, "{}", s.label);
            }
            let json = chrome_json(std::slice::from_ref(&report));
            validate_trace(&json).unwrap_or_else(|e| panic!("{}: {e}", id.slug()));
        }
    }

    #[test]
    fn fig2_battery_traces_and_validates() {
        let report = small_fig2();
        assert_eq!(report.scenarios.len(), 3);
        for s in &report.scenarios {
            assert!(s.makespan > SimTime::ZERO, "{}", s.label);
            assert_eq!(s.recorder.dropped(), 0, "{}", s.label);
            // cpu spans tile each rank's clock exactly
            let sums = s.recorder.cpu_sums();
            assert_eq!(sums.len(), s.finish.len(), "{}", s.label);
            for (r, (&sum, &fin)) in sums.iter().zip(&s.finish).enumerate() {
                assert_eq!(sum, fin, "{}: rank {r}", s.label);
            }
        }
        let json = chrome_json(std::slice::from_ref(&report));
        let stats = validate_trace(&json).expect("fig2 trace must validate");
        assert!(stats.spans > 0);

        let table = breakdown_table(&report);
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn fig2_metrics_are_populated() {
        let report = small_fig2();
        let json = metrics_json(std::slice::from_ref(&report));
        assert!(json.contains("\"hpcsim-probe-metrics/1\""));
        assert!(json.contains("\"fig2\""));
        for s in &report.scenarios {
            let reg = scenario_metrics(s);
            let get = |k: &str| {
                reg.entries()
                    .iter()
                    .find(|(n, _)| n == k)
                    .unwrap_or_else(|| panic!("{}: missing metric {k}", s.label))
                    .1
                    .clone()
            };
            match get("links_used") {
                hpcsim_probe::MetricValue::Counter(n) => assert!(n > 0, "{}", s.label),
                v => panic!("links_used not a counter: {v:?}"),
            }
            match get("messages") {
                hpcsim_probe::MetricValue::Counter(n) => {
                    assert_eq!(n, s.messages, "{}", s.label)
                }
                v => panic!("messages not a counter: {v:?}"),
            }
        }
    }
}
