//! # perfbench
//!
//! The repository's benchmark: three workloads that stand for what
//! people do with this reproduction of the BG/P paper, each run in its
//! own process, each item checked against references captured from the
//! seed code. Untraced runs give the end-to-end metrics; a separate
//! traced run records spans around every call into a layer and reads
//! the `hpcsim-obs` counters to build the per-layer ledger. See
//! `README.md` next to this crate for the workloads, metrics and
//! sizing.

mod check;
mod design_sweep;
mod mc_sensitivity;
mod metrics;
mod paper_quick;
mod spans;
mod stats;

use metrics::Outcome;
pub use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["paper-quick", "design-sweep", "mc-sensitivity"];

/// What one invocation was asked to do.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed: picks order, revisits and samples, never sizes.
    pub seed: u64,
    /// Measured seconds to aim for.
    pub seconds: f64,
    /// Span recorder (on for the traced run).
    pub rec: Recorder,
    /// When `main` started: set-up is timed from here.
    pub start: Instant,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.rec.on()
    }
}

/// Run one workload to its outcome.
pub fn run(ctx: &mut Ctx) -> Outcome {
    // Every workload runs like `repro`'s default: one worker, metrics
    // registry on.
    hpcsim_core::set_jobs(1);
    hpcsim_obs::set_enabled(true);
    match ctx.workload {
        "paper-quick" => paper_quick::run(ctx),
        "design-sweep" => design_sweep::run(ctx),
        "mc-sensitivity" => mc_sensitivity::run(ctx),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// Reference file contents for `workload`, computed from the code as
/// it is (see [`check`]).
pub fn capture(workload: &str) -> String {
    hpcsim_core::set_jobs(1);
    match workload {
        "paper-quick" => paper_quick::capture(),
        "design-sweep" => design_sweep::capture(),
        "mc-sensitivity" => mc_sensitivity::capture(),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// The measured part of a run: disjoint windows of item work, with the
/// set-up between them left out. The `hpcsim-obs` counters and
/// histograms are accumulated over the windows only.
#[derive(Debug, Default)]
pub(crate) struct Windows {
    /// Total measured wall, seconds.
    pub secs: f64,
    /// Recorder marks `(from, to)` of each window (traced run only).
    pub marks: Vec<(u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, (u64, u64)>,
    open: Option<(Instant, u64, hpcsim_obs::Snapshot)>,
}

impl Windows {
    /// Start a measured window.
    pub fn open(&mut self, rec: &Recorder) {
        assert!(self.open.is_none(), "window already open");
        let snap = hpcsim_obs::snapshot();
        self.open = Some((Instant::now(), rec.mark(), snap));
    }

    /// End the current window.
    pub fn close(&mut self, rec: &Recorder) {
        let (t, m, before) = self.open.take().expect("window open");
        self.secs += t.elapsed().as_secs_f64();
        self.marks.push((m, rec.mark()));
        let after = hpcsim_obs::snapshot();
        for c in &after.counters {
            let was = before.counters.iter().find(|b| b.name == c.name).map_or(0, |b| b.value);
            *self.counters.entry(c.name).or_default() += c.value - was;
        }
        for h in &after.hists {
            let was =
                before.hists.iter().find(|b| b.name == h.name).map_or((0, 0), |b| (b.count, b.sum));
            let e = self.hists.entry(h.name).or_default();
            e.0 += h.count - was.0;
            e.1 += h.sum - was.1;
        }
    }

    /// Measured seconds so far, the open window included.
    pub fn elapsed(&self) -> f64 {
        self.secs + self.open.as_ref().map_or(0.0, |(t, _, _)| t.elapsed().as_secs_f64())
    }

    /// Increase of the obs counter `name` inside the windows.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Fill the per-layer metrics read from obs: counters divided by
    /// `per` (passes on `paper-quick`, 1 elsewhere).
    pub fn obs_layers(&self, per: f64, out: &mut Outcome) {
        let c = |name: &str| self.counter(name) / per;
        out.layer("core.scenarios", c("hpcsim_scenarios_total"));
        let (n, sum) = self.hists.get("hpcsim_scenario_wall_ns").copied().unwrap_or((0, 0));
        out.layer("core.scenario_wall_ms_mean", sum as f64 / 1e6 / (n as f64).max(1.0));
        let lookups = c("hpcsim_cache_result_lookups_total");
        let hits = c("hpcsim_cache_result_hits_total");
        out.layer("cache.result_lookups", lookups);
        out.layer("cache.result_hits", hits);
        out.layer("cache.result_misses", c("hpcsim_cache_result_misses_total"));
        out.layer("cache.hit_ratio", hits / lookups.max(1.0));
        out.layer("cache.trace_hits", c("hpcsim_cache_trace_hits_total"));
        out.layer("cache.trace_misses", c("hpcsim_cache_trace_misses_total"));
        out.layer("dag.points", c("hpcsim_dag_points_total"));
        out.layer(
            "dag.fallbacks",
            c("hpcsim_sweep_fallback_contention_total") + c("hpcsim_sweep_fallback_faults_total"),
        );
        out.layer("replay.runs", c("hpcsim_replay_runs_total"));
    }
}

/// Fill `trace.overhead_pct` and `trace.unattributed_pct`, and write
/// the spans and the ledger under `.bench_out/` in the working
/// directory.
pub(crate) fn finish_trace(ctx: &Ctx, windows: &Windows, out: &mut Outcome) {
    let rec = &ctx.rec;
    let wall: u64 = windows.marks.iter().map(|&(a, b)| b - a).sum();
    let covered: u64 = windows.marks.iter().map(|&(a, b)| rec.top_level_ns(a, b)).sum();
    let spans: usize = windows.marks.iter().map(|&(a, b)| rec.count_in(a, b)).sum();
    let wall_f = (wall as f64).max(1.0);
    out.layer("trace.overhead_pct", 100.0 * spans as f64 * spans::span_cost_ns() / wall_f);
    out.layer("trace.unattributed_pct", 100.0 * wall.saturating_sub(covered) as f64 / wall_f);

    let dir = std::path::Path::new(".bench_out");
    let stem = format!("{}-seed{}", ctx.workload, ctx.seed);
    let ledger = ledger_json(ctx, windows, out);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.csv")), rec.to_csv()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.ledger.json")), ledger));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the trace under {}: {e}", dir.display());
    }
}

/// The ledger: per-layer metrics plus per-span-name count, total and
/// self time, split into the measured windows and everything else
/// (set-up, checks outside timing, probes).
fn ledger_json(ctx: &Ctx, windows: &Windows, out: &Outcome) -> String {
    let rec = &ctx.rec;
    let inside = |start: u64| windows.marks.iter().any(|&(a, b)| start >= a && start < b);
    let own = rec.self_times();
    let mut measured = BTreeMap::<&str, (u64, u64, u64)>::new();
    let mut other = BTreeMap::<&str, (u64, u64, u64)>::new();
    for (s, o) in rec.spans().iter().zip(own) {
        let t = if inside(s.start) { &mut measured } else { &mut other };
        let e = t.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += o;
    }
    let wall_ns: u64 = windows.marks.iter().map(|&(a, b)| b - a).sum();
    let table = |t: &BTreeMap<&str, (u64, u64, u64)>, share: bool| {
        let mut s = String::new();
        for (i, (name, (n, total, own))) in t.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    \"{name}\": {{\"count\": {n}, \"total_ms\": {:.3}, \"self_ms\": {:.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
            if share {
                let pct = 100.0 * *own as f64 / (wall_ns as f64).max(1.0);
                let _ = write!(s, ", \"self_pct_of_wall\": {pct:.2}");
            }
            s.push('}');
        }
        s
    };
    let mut layers = String::new();
    for (i, &(name, unit)) in metrics::PER_LAYER.iter().enumerate() {
        let v = out.layers.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(layers, "{sep}\n    \"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"measured_wall_ms\": {:.3},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"per_layer\": {{{layers}\n  }},\n  \
         \"measured_spans\": {{{}\n  }},\n  \"other_spans\": {{{}\n  }}\n}}\n",
        ctx.workload,
        ctx.seed,
        wall_ns as f64 / 1e6,
        out.attempted,
        out.failed,
        table(&measured, true),
        table(&other, false),
    )
}

/// Bit-for-bit equality of two simulation results.
pub(crate) fn same_result(a: &hpcsim_mpi::SimResult, b: &hpcsim_mpi::SimResult) -> bool {
    a.finish == b.finish
        && a.busy == b.busy
        && a.bytes_sent == b.bytes_sent
        && a.messages == b.messages
        && a.marks == b.marks
}

/// Order-sensitive digest of every rank's finish time.
pub(crate) fn finish_digest(r: &hpcsim_mpi::SimResult) -> u64 {
    r.finish.iter().fold(0, |d, t| check::fold(d, t.0))
}

/// A duration in nanoseconds, as f64.
pub(crate) fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}
