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
use hpcsim_apps::{md_run_probe, MdConfig};
use hpcsim_engine::stats::{Histogram, OnlineStats};
use hpcsim_engine::SimTime;
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
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

/// Specification of one traced scenario — `Send + Sync` so the battery
/// can fan out through [`parmap`].
enum Spec {
    Halo { protocol: hpcc::HaloProtocol, words: u64, grid: Grid2D },
    Allreduce { ranks: usize, bytes: u64, dtype: DType },
    Bcast { ranks: usize, bytes: u64 },
    Md { name: &'static str, ranks: usize, cfg: MdConfig },
}

impl Spec {
    fn run(&self, faults: Option<&hpcsim_faults::FaultPlan>) -> TracedScenario {
        let machine = bluegene_p();
        let mut rec = RingRecorder::new();
        let (label, res) = match self {
            Spec::Halo { protocol, words, grid } => {
                let cfg = hpcc::HaloConfig {
                    grid: *grid,
                    words: *words,
                    protocol: *protocol,
                    reps: 2,
                };
                let (_, res) = hpcc::halo_try_run(
                    &machine,
                    ExecMode::Vn,
                    Mapping::txyz(),
                    &cfg,
                    faults,
                    &mut rec,
                )
                .unwrap_or_else(|e| panic!("{e}"));
                let label = format!(
                    "halo {}x{} {} {}w",
                    grid.rows,
                    grid.cols,
                    protocol.label(),
                    words
                );
                (label, res)
            }
            Spec::Allreduce { ranks, bytes, dtype } => {
                let (_, res) = hpcc::imb_allreduce_probe(
                    &machine,
                    ExecMode::Vn,
                    *ranks,
                    *bytes,
                    *dtype,
                    &mut rec,
                );
                (format!("allreduce {bytes}B {dtype:?} {ranks}r"), res)
            }
            Spec::Bcast { ranks, bytes } => {
                let (_, res) =
                    hpcc::imb_bcast_probe(&machine, ExecMode::Vn, *ranks, *bytes, &mut rec);
                (format!("bcast {bytes}B {ranks}r"), res)
            }
            Spec::Md { name, ranks, cfg } => {
                let (_, res) = md_run_probe(&machine, *ranks, cfg, &mut rec);
                (format!("{name} {ranks}r"), res)
            }
        };
        TracedScenario {
            label,
            ranks: res.finish.len(),
            makespan: res.makespan(),
            finish: res.finish.clone(),
            messages: res.messages,
            bytes: res.bytes_sent,
            recorder: rec,
        }
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
/// reaches the point-to-point replay path (the HALO scenarios, where
/// detours, retransmit spans and outage gauges show up in the trace);
/// collective- and app-level scenarios are replayed pristine for now.
/// With `faults` of `None` this is byte-for-byte [`trace_experiment`].
pub fn trace_experiment_with(
    id: ExperimentId,
    scale: Scale,
    faults: Option<&hpcsim_faults::FaultPlan>,
) -> Option<TraceReport> {
    let specs: Vec<Spec> = match id {
        ExperimentId::Fig2 => {
            // nearest-neighbour halo: both extremes of the word sweep
            // plus the protocol that serializes the four directions
            let grid = Grid2D::near_square(scale.ranks(8192));
            vec![
                Spec::Halo { protocol: hpcc::HaloProtocol::IrecvIsend, words: 2048, grid },
                Spec::Halo { protocol: hpcc::HaloProtocol::Sendrecv, words: 2048, grid },
                Spec::Halo { protocol: hpcc::HaloProtocol::IrecvIsend, words: 32768, grid },
            ]
        }
        ExperimentId::Fig3 => {
            // collectives at the fixed 32 KiB point: the tree-eligible
            // double-precision Allreduce, its single-precision twin
            // (no tree), and Bcast
            let ranks = scale.ranks(8192);
            let bytes = 32 * 1024;
            vec![
                Spec::Allreduce { ranks, bytes, dtype: DType::F64 },
                Spec::Allreduce { ranks, bytes, dtype: DType::F32 },
                Spec::Bcast { ranks, bytes },
            ]
        }
        ExperimentId::Fig8 => {
            let ranks = scale.ranks(2048);
            vec![
                Spec::Md { name: "lammps", ranks, cfg: MdConfig::lammps_rub() },
                Spec::Md { name: "pmemd", ranks, cfg: MdConfig::pmemd_rub() },
            ]
        }
        _ => return None,
    };
    let scenarios = parmap(&specs, |s| s.run(faults));
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
