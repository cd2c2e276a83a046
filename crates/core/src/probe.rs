//! Traced scenario batteries: run representative scenarios of a figure
//! with the [`hpcsim_probe`] recorder attached, then render breakdown
//! tables, Chrome traces, and a metrics report.
//!
//! Tracing a full `run_experiment` battery would record millions of
//! spans per figure; instead each traceable figure nominates a handful
//! of representative scenarios (the paper's interesting corners) that
//! reproduce its communication structure faithfully. Scenarios fan out
//! through [`parmap`] and are collected in input order, so the exported
//! trace and metrics are byte-identical regardless of `--jobs`.

use crate::experiment::{ExperimentId, Scale};
use crate::report::Table;
use crate::runner::parmap;
use hpcsim_apps::{md_traces, MdConfig};
use hpcsim_engine::stats::{Histogram, OnlineStats};
use hpcsim_engine::SimTime;
use hpcsim_hpcc::{self as hpcc, HaloProtocol::*};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_mpi::{Op, SimConfig, TraceSim};
use hpcsim_net::DType;
use hpcsim_probe::{
    chrome_trace, metrics_report_json, trace_csv, GaugeId, MetricsRegistry, RingRecorder,
    SpanKind,
};
use hpcsim_topo::{Grid2D, Mapping};

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

/// One traced scenario before it runs: its label, the point it replays
/// on, and the program's machine-free recording.
type Scenario = (String, SimConfig, Vec<Vec<Op>>);

/// Replay one scenario with a fresh recorder attached (and `faults`
/// armed, if any).
fn replay(
    (label, point, traces): &Scenario,
    faults: Option<&hpcsim_faults::FaultPlan>,
) -> TracedScenario {
    let mut sim = TraceSim::new(point.clone());
    if let Some(plan) = faults {
        sim.set_faults(plan);
    }
    let mut rec = RingRecorder::new();
    let res = sim.try_replay(traces, &mut rec).unwrap_or_else(|e| panic!("{e}"));
    TracedScenario {
        label: label.clone(),
        ranks: res.finish.len(),
        makespan: res.makespan(),
        finish: res.finish.clone(),
        messages: res.messages,
        bytes: res.bytes_sent,
        recorder: rec,
    }
}

/// The figures with a traced battery.
pub fn traceable() -> [ExperimentId; 3] {
    [ExperimentId::Fig2, ExperimentId::Fig3, ExperimentId::Fig8]
}

/// Run the traced battery for one figure; `None` if the figure has no
/// traced battery. Scenarios run through [`parmap`] and are merged in
/// input order, so output is identical at any `--jobs`.
pub fn trace_experiment(id: ExperimentId, scale: Scale) -> Option<TraceReport> {
    trace_experiment_with(id, scale, None)
}

/// [`trace_experiment`] with an optional armed fault plan. The plan
/// arms the Fig 2 HALO scenarios, where detours, retransmit spans and
/// outage gauges show up in the trace; the collective and app batteries
/// are replayed pristine for now. With `faults` of `None` this is
/// byte-for-byte [`trace_experiment`].
pub fn trace_experiment_with(
    id: ExperimentId,
    scale: Scale,
    faults: Option<&hpcsim_faults::FaultPlan>,
) -> Option<TraceReport> {
    let machine = bluegene_p();
    let vn = |ranks| SimConfig::new(machine.clone(), ranks, ExecMode::Vn);
    let scenarios: Vec<Scenario> = match id {
        ExperimentId::Fig2 => {
            // nearest-neighbour halo: both extremes of the word sweep
            // plus the protocol that serializes the four directions
            let grid = Grid2D::near_square(scale.ranks(8192));
            let (rows, cols) = (grid.rows, grid.cols);
            [(IrecvIsend, 2048), (Sendrecv, 2048), (IrecvIsend, 32768)]
                .map(|(protocol, words)| {
                    let cfg = hpcc::HaloConfig { grid, words, protocol, reps: 2 };
                    let label = format!("halo {rows}x{cols} {} {words}w", protocol.label());
                    let point = cfg.sim_config(&machine, ExecMode::Vn, Mapping::txyz());
                    (label, point, hpcc::halo_traces(&cfg))
                })
                .into()
        }
        ExperimentId::Fig3 => {
            // collectives at the fixed 32 KiB point: the tree-eligible
            // double-precision Allreduce, its single-precision twin
            // (no tree), and Bcast
            let ranks = scale.ranks(8192);
            let bytes = 32 * 1024;
            let allreduce = |dtype| {
                let label = format!("allreduce {bytes}B {dtype:?} {ranks}r");
                (label, vn(ranks), hpcc::imb_allreduce_traces(ranks, bytes, dtype))
            };
            let label = format!("bcast {bytes}B {ranks}r");
            let bcast = (label, vn(ranks), hpcc::imb_bcast_traces(ranks, bytes));
            vec![allreduce(DType::F64), allreduce(DType::F32), bcast]
        }
        ExperimentId::Fig8 => {
            let ranks = scale.ranks(2048);
            [("lammps", MdConfig::lammps_rub()), ("pmemd", MdConfig::pmemd_rub())]
                .map(|(name, cfg)| (format!("{name} {ranks}r"), vn(ranks), md_traces(ranks, &cfg)))
                .into()
        }
        _ => return None,
    };
    let faults = faults.filter(|_| id == ExperimentId::Fig2);
    let scenarios = parmap(&scenarios, |s| replay(s, faults));
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
        let fault_gauge = matches!(
            g,
            GaugeId::LinkOutages | GaugeId::Retransmits | GaugeId::FlowUnderflows
        );
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
            r.scenarios
                .iter()
                .map(move |s| (format!("{}/{}", r.id.slug(), s.label), &s.recorder))
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
        trace_experiment(ExperimentId::Fig2, Scale::Quick).unwrap()
    }

    #[test]
    fn untraceable_figures_return_none() {
        assert!(trace_experiment(ExperimentId::Table1, Scale::Quick).is_none());
        for id in traceable() {
            // cheap existence check: the dispatcher recognises the id
            // without running it (Fig2 is exercised below)
            assert!(ExperimentId::from_slug(id.slug()).is_some());
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
