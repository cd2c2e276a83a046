//! `paper-quick`: regenerate every paper artifact at quick scale.
//!
//! Before each pass a fresh in-memory scenario cache is installed, outside
//! the timing; the pass then runs all twelve experiments plus the 512-rank
//! ablation table in a seeded order, rendering each to text and CSV in
//! memory. One item is one artifact; the timed unit is the pass. Each artifact's rendering is
//! checked against the digest captured from the seed code. Set-up is the
//! time from process start to the first pass.

use crate::check::{Expected, Tally};
use crate::metrics::{self, Outcome};
use crate::spans::Recorder;
use crate::stats::{self, Rng};
use crate::{Ctx, Windows};
use hpcsim_cache::{fnv1a_128, CacheConfig};
use hpcsim_core::{ablation_table, run_experiment, ExperimentId, Scale};
use hpcsim_hpcc::{halo_traces, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_mpi::{RankLayout, SimConfig, TraceSim};
use hpcsim_topo::{Grid2D, Mapping};
use std::time::Instant;

/// Artifacts per pass: the twelve experiments, then the ablations.
const ITEMS: usize = 13;
/// Ranks of the ablation table, as `repro all` runs it at quick scale.
const ABLATION_RANKS: usize = 512;
/// Span per artifact's generation call.
const EXP_SPANS: [&str; ITEMS] = [
    "core.exp_table1",
    "core.exp_table2",
    "core.exp_fig1",
    "core.exp_fig2",
    "core.exp_fig3",
    "core.exp_top500",
    "core.exp_fig4",
    "core.exp_fig5",
    "core.exp_fig6",
    "core.exp_fig7",
    "core.exp_fig8",
    "core.exp_table3",
    "core.exp_ablations",
];
/// Per-layer metric for each span in [`EXP_SPANS`].
const EXP_METRICS: [&str; ITEMS] = [
    "core.exp_table1_ms",
    "core.exp_table2_ms",
    "core.exp_fig1_ms",
    "core.exp_fig2_ms",
    "core.exp_fig3_ms",
    "core.exp_top500_ms",
    "core.exp_fig4_ms",
    "core.exp_fig5_ms",
    "core.exp_fig6_ms",
    "core.exp_fig7_ms",
    "core.exp_fig8_ms",
    "core.exp_table3_ms",
    "core.exp_ablations_ms",
];

fn slug(item: usize) -> &'static str {
    ExperimentId::all().get(item).map_or("ablations", |id| id.slug())
}

/// Generate artifact `item` and render it (text, then every CSV) into
/// one string, with a span around each layer call.
fn artifact(rec: &mut Recorder, item: usize, id: u64) -> String {
    if let Some(&exp) = ExperimentId::all().get(item) {
        let a = rec.span(EXP_SPANS[item], id, || run_experiment(exp, Scale::Quick));
        rec.span("core.render", id, || {
            let mut out = a.render();
            for t in &a.tables {
                out.push_str(&t.to_csv());
            }
            for f in &a.figures {
                out.push_str(&f.to_csv());
            }
            out
        })
    } else {
        let t = rec.span(EXP_SPANS[item], id, || ablation_table(ABLATION_RANKS));
        rec.span("core.render", id, || t.render() + &t.to_csv())
    }
}

/// Install a fresh in-memory scenario cache (dropping the last pass's).
fn fresh_cache() {
    hpcsim_cache::configure(CacheConfig::default());
}

/// One full regeneration in `order` against the installed cache; returns
/// the rendered artifacts in item order.
fn pass(rec: &mut Recorder, pass_no: u64, order: &[usize]) -> Vec<String> {
    let mut out = vec![String::new(); ITEMS];
    for &item in order {
        let id = pass_no * 16 + item as u64;
        let s = rec.begin("artifact", id);
        out[item] = artifact(rec, item, id);
        rec.end(s);
    }
    out
}

fn digest(text: &str) -> u128 {
    fnv1a_128(text.as_bytes()).0
}

/// Reference digests, one per artifact.
pub fn capture() -> String {
    let order: Vec<usize> = (0..ITEMS).collect();
    fresh_cache();
    let texts = pass(&mut Recorder::new(false), 0, &order);
    let entries: Vec<(String, u128)> =
        texts.iter().enumerate().map(|(i, t)| (slug(i).to_string(), digest(t))).collect();
    Expected::render("paper-quick: FNV-1a-128 of each artifact's text + CSV rendering", &entries)
}

/// Passes needed before the median pass time may be reported.
fn min_passes() -> usize {
    stats::min_samples(50)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let expected = Expected::parse(include_str!("../expected/paper-quick.txt"))
        .expect("expected/paper-quick.txt parses");
    let mut rng = Rng::new(ctx.seed, 1);
    let mut tally = Tally::default();
    // Set-up is everything from process start to the first measured pass,
    // one sample per run: nothing else in a pass is prepared ahead.
    let mut setup_s = None;
    let mut windows = Windows::default();
    let mut pass_ms = Vec::new();
    let mut order: Vec<usize> = (0..ITEMS).collect();
    while windows.elapsed() < ctx.seconds || pass_ms.len() < min_passes() {
        rng.shuffle(&mut order);
        ctx.rec.span("cache.configure", 0, fresh_cache);
        setup_s.get_or_insert_with(|| ctx.start.elapsed().as_secs_f64());
        let t = Instant::now();
        windows.open(&ctx.rec);
        let texts = pass(&mut ctx.rec, pass_ms.len() as u64, &order);
        windows.close(&ctx.rec);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (item, text) in texts.iter().enumerate() {
            tally.item(expected.matches(slug(item), digest(text)));
        }
    }

    let passes = pass_ms.len() as f64;
    let regen_ms = stats::median(&pass_ms).expect("enough passes for a median");
    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.e2e.insert("setup_s", setup_s.expect("at least one pass"));
    out.e2e.insert("peak_rss_mb", metrics::peak_rss_mb());
    out.e2e.insert("items_per_s", tally.attempted as f64 / windows.secs);
    out.e2e.insert("p50_ms", regen_ms);
    // About twenty passes support no percentile above the median.
    out.e2e.insert("tail_ms", regen_ms);

    if ctx.traced() {
        layers(ctx, &windows, passes, &mut out);
        crate::finish_trace(ctx, &windows, &mut out);
    }
    out
}

/// Per-layer metrics: span medians over passes, obs counters per pass,
/// and the replay cost probe.
fn layers(ctx: &Ctx, windows: &Windows, passes: f64, out: &mut Outcome) {
    let rec = &ctx.rec;
    let ms = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|n| n as f64 / 1e6).collect() };
    for (span, metric) in EXP_SPANS.iter().zip(EXP_METRICS) {
        out.layer(metric, stats::median(&ms(rec.durations(span))).unwrap_or(0.0));
    }
    // render time per pass: the ITEMS render spans of each pass summed
    let render: Vec<f64> =
        ms(rec.durations("core.render")).chunks(ITEMS).map(|c| c.iter().sum()).collect();
    out.layer("core.render_ms", stats::median(&render).unwrap_or(0.0));
    windows.obs_layers(passes, out);
    out.layer("replay.ns_per_msg", replay_ns_per_msg());
}

/// Replay cost per message on the contended BG/P HALO point Fig 2(e)
/// prices at quick scale (512 ranks, VN, TXYZ, 2048 words): median of
/// repeated `TraceSim::replay_traces` calls over the message count.
fn replay_ns_per_msg() -> f64 {
    let machine = bluegene_p();
    let grid = Grid2D::near_square(Scale::Quick.ranks(8192));
    let cfg = HaloConfig { grid, words: 2048, protocol: HaloProtocol::IrecvIsend, reps: 2 };
    let traces = halo_traces(&cfg);
    let layout = RankLayout::bluegene(&machine, grid.size(), ExecMode::Vn, Mapping::txyz());
    let sim_cfg = SimConfig { machine, mode: ExecMode::Vn, threads: 1, layout };
    let mut per_msg = Vec::new();
    for _ in 0..stats::min_samples(50) + 1 {
        let mut sim = TraceSim::new(sim_cfg.clone());
        let t = Instant::now();
        let r = std::hint::black_box(sim.replay_traces(&traces));
        per_msg.push(crate::ns(t.elapsed()) / r.messages.max(1) as f64);
    }
    stats::median(&per_msg).expect("enough replays")
}
