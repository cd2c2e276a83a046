//! `mc-sensitivity`: put error bars on a Fig 2 answer.
//!
//! Records and compiles one 1024-rank HALO trace on contention-flat
//! BG/P, then prices Monte-Carlo perturbation samples in fixed 32-sample
//! chunks through `TraceDag::evaluate_perturbed`. Chunks rotate through
//! the five group masks the sensitivity battery uses. One item is one
//! sample; the timed unit is the chunk.
//!
//! Samples come from a fixed pool per mask (a `PerturbationSampler`
//! with a constant seed), and the workload seed picks which pool
//! samples fill each chunk, so every sample has a reference answer
//! whatever the workload seed.

use crate::check::{Expected, Tally};
use crate::metrics::{self, Outcome};
use crate::stats::{self, Rng};
use crate::{finish_digest, same_result, Ctx, Windows};
use hpcsim_hpcc::{halo_traces, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, ParamGroups, PerturbSpec, Perturbation, PerturbationSampler};
use hpcsim_mpi::{SimConfig, SimResult, TraceDag};
use hpcsim_topo::Grid2D;
use std::time::Instant;

const RANKS: usize = 1024;
/// Samples per `evaluate_perturbed` call: the engine's widest lane batch.
const CHUNK: usize = 32;
/// The sensitivity battery's group masks, in rotation order.
const MASKS: [ParamGroups; 5] = [
    ParamGroups::LINK_BW,
    ParamGroups::HOP_LAT,
    ParamGroups::COMPUTE,
    ParamGroups::COLLECTIVE,
    ParamGroups::ALL,
];
const MASK_KEYS: [&str; 5] = ["link_bw", "hop_lat", "compute", "collective", "all"];
/// Samples in each mask's pool.
const POOL: usize = 256;
/// Sampler seed of the pools (a constant: the references depend on it).
const POOL_SEED: u64 = 0x5EED_2008;
/// One chunk in this many is kept and re-priced in a different chunking,
/// up to [`RECHUNK_MAX`] chunks (kept results hold memory).
const RECHUNK_ONE_IN: u64 = 32;
const RECHUNK_MAX: usize = 8;

/// What set-up builds: the compiled trace, its configuration, the pools.
struct Model {
    dag: TraceDag,
    cfg: SimConfig,
    ops: u64,
}

fn pools() -> Vec<Vec<Perturbation>> {
    MASKS
        .iter()
        .enumerate()
        .map(|(g, &mask)| {
            let s =
                PerturbationSampler::new(POOL_SEED + g as u64, PerturbSpec::default()).only(mask);
            (0..POOL as u64).map(|i| s.sample(i)).collect()
        })
        .collect()
}

/// Record, compile, and check that an identity sample reproduces
/// `TraceDag::evaluate` bit for bit. Returns the model and whether the
/// identity check held, plus (trace ns, compile ns, evaluate ns).
fn setup(ctx: &mut Ctx) -> (Model, bool, [f64; 3]) {
    let s = ctx.rec.begin("setup", 0);
    let halo = HaloConfig {
        grid: Grid2D::near_square(RANKS),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let t = Instant::now();
    let traces = ctx.rec.span("hpcc.trace", 0, || halo_traces(&halo));
    let trace_ns = crate::ns(t.elapsed());
    let t = Instant::now();
    let dag = ctx.rec.span("dag.compile", 0, || TraceDag::compile_world(&traces));
    let compile_ns = crate::ns(t.elapsed());
    let cfg = SimConfig::new(bluegene_p().with_flat_contention(), RANKS, ExecMode::Vn);
    let t = Instant::now();
    let base = ctx.rec.span("dag.evaluate", 0, || dag.evaluate(&cfg));
    let eval_ns = crate::ns(t.elapsed());
    let identity = ctx.rec.span("dag.evaluate_perturbed", 0, || {
        dag.evaluate_perturbed(&cfg, &[Perturbation::IDENTITY])
    });
    let ok = identity.len() == 1 && same_result(&base, &identity[0]);
    let ops = traces.iter().map(|r| r.len() as u64).sum();
    ctx.rec.end(s);
    (Model { dag, cfg, ops }, ok, [trace_ns, compile_ns, eval_ns])
}

fn key(g: usize, i: usize) -> String {
    format!("{}.{i}", MASK_KEYS[g])
}

fn expected() -> Expected {
    Expected::parse(include_str!("../expected/mc-sensitivity.txt"))
        .expect("expected/mc-sensitivity.txt parses")
}

/// Reference finish-time digests for every pool sample, priced in pool
/// order in 32-sample chunks.
pub fn capture() -> String {
    let mut ctx = Ctx {
        workload: "mc-sensitivity",
        seed: 0,
        seconds: 0.0,
        rec: crate::spans::Recorder::new(false),
        start: Instant::now(),
    };
    let (model, identity_ok, _) = setup(&mut ctx);
    assert!(identity_ok, "identity sample differs from TraceDag::evaluate");
    let mut entries = Vec::new();
    for (g, pool) in pools().iter().enumerate() {
        for (c, chunk) in pool.chunks(CHUNK).enumerate() {
            let res = model.dag.evaluate_perturbed(&model.cfg, chunk);
            for (k, r) in res.iter().enumerate() {
                entries.push((key(g, c * CHUNK + k), u128::from(finish_digest(r))));
            }
        }
    }
    Expected::render(
        "mc-sensitivity: FNV-1a-64 of every rank's finish time, per pool sample",
        &entries,
    )
}

/// A timed chunk kept for the re-chunking check.
struct Kept {
    samples: Vec<Perturbation>,
    results: Vec<SimResult>,
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let expected = expected();
    let pools = pools();
    let mut rng = Rng::new(ctx.seed, 6);
    let mut keep = Rng::new(ctx.seed, 7);
    let mut tally = Tally::default();

    // Set-up is repeated through the run, between measured windows, so
    // its median sees the same machine as the items do rather than the
    // first few milliseconds of the process. The first is timed from
    // process start; each later one replaces the model.
    let min_setups = stats::min_samples(50);
    let setup_every = ctx.seconds / min_setups as f64;
    let (mut model, mut identity_ok, ns) = setup(ctx);
    let mut setup_s = vec![ctx.start.elapsed().as_secs_f64()];
    let mut setup_ns = vec![ns];
    let nodes = model.dag.stats().nodes as f64;

    let min_batches = stats::min_samples(90);
    let mut windows = Windows::default();
    let mut batch_ms = Vec::new();
    let mut kept = Vec::new();
    let mut digest = 0u64;
    let mut samples = Vec::with_capacity(CHUNK);
    let mut idx = Vec::with_capacity(CHUNK);
    windows.open(&ctx.rec);
    while windows.elapsed() < ctx.seconds
        || batch_ms.len() < min_batches
        || setup_s.len() < min_setups
    {
        if windows.elapsed() >= setup_every * setup_s.len() as f64 {
            windows.close(&ctx.rec);
            let t = Instant::now();
            let (m, ok, ns) = setup(ctx);
            setup_s.push(t.elapsed().as_secs_f64());
            setup_ns.push(ns);
            identity_ok &= ok;
            model = m;
            windows.open(&ctx.rec);
        }
        let g = batch_ms.len() % MASKS.len();
        idx.clear();
        idx.extend((0..CHUNK).map(|_| rng.below(POOL)));
        samples.clear();
        samples.extend(idx.iter().map(|&i| pools[g][i]));
        let id = batch_ms.len() as u64 + 1;
        let b = ctx.rec.begin("batch", id);
        let t = Instant::now();
        let res = ctx.rec.span("dag.evaluate_perturbed", id, || {
            model.dag.evaluate_perturbed(&model.cfg, &samples)
        });
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let keep_this = kept.len() < RECHUNK_MAX && keep.chance(1, RECHUNK_ONE_IN);
        ctx.rec.span("bench.check", id, || {
            for (k, &i) in idx.iter().enumerate() {
                let d = res.get(k).map(finish_digest);
                digest = crate::check::fold(digest, d.unwrap_or(0));
                tally.item(d.is_some_and(|d| expected.matches(&key(g, i), u128::from(d))));
            }
            // freeing the results is the item's work too
            if keep_this {
                kept.push(Kept { samples: samples.clone(), results: res });
            }
        });
        ctx.rec.end(b);
    }
    windows.close(&ctx.rec);

    // Re-chunking must not change a bit: split each kept chunk at a
    // seeded point and price the halves separately (outside timing).
    for k in &kept {
        let cut = 1 + keep.below(CHUNK - 1);
        let again = ctx.rec.span("check.rechunk", 0, || {
            let mut r = model.dag.evaluate_perturbed(&model.cfg, &k.samples[..cut]);
            r.extend(model.dag.evaluate_perturbed(&model.cfg, &k.samples[cut..]));
            r
        });
        let bad = k.results.iter().zip(&again).filter(|(a, b)| !same_result(a, b)).count();
        tally.fail(bad as u64);
    }
    if !identity_ok {
        tally.fail(tally.attempted);
    }
    eprintln!(
        "perfbench: mc-sensitivity priced {} samples in {} chunks, {} re-chunked, digest {digest:016x}",
        tally.attempted,
        batch_ms.len(),
        kept.len()
    );

    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.e2e.insert("setup_s", stats::median(&setup_s).expect("enough set-ups"));
    out.e2e.insert("peak_rss_mb", metrics::peak_rss_mb());
    out.e2e.insert("items_per_s", tally.attempted as f64 / windows.secs);
    out.e2e.insert("p50_ms", stats::median(&batch_ms).expect("enough batches"));
    out.e2e.insert("tail_ms", stats::percentile(&batch_ms, 90).expect("enough batches"));

    if ctx.traced() {
        windows.obs_layers(1.0, &mut out);
        let mean = |k: usize| setup_ns.iter().map(|s| s[k]).sum::<f64>() / setup_ns.len() as f64;
        let ops = model.ops as f64;
        out.layer("hpcc.trace_ms", mean(0) / 1e6);
        out.layer("hpcc.trace_ops", ops);
        out.layer("hpcc.trace_ns_per_op", mean(0) / ops);
        out.layer("dag.compile_ms", mean(1) / 1e6);
        out.layer("dag.compile_ns_per_op", mean(1) / ops);
        out.layer("dag.nodes", nodes);
        out.layer("dag.edges", model.dag.stats().edges as f64);
        out.layer("dag.eval_ns_per_node", mean(2) / nodes);
        let p50 = stats::median(&batch_ms).expect("enough batches");
        out.layer("dag.perturbed_ns_per_node_sample", p50 * 1e6 / (nodes * CHUNK as f64));
        let slots = windows.counter("hpcsim_sens_lane_slots_total");
        out.layer(
            "dag.lane_occupancy",
            windows.counter("hpcsim_sens_samples_total") / slots.max(1.0),
        );
        let arrays = windows.counter("hpcsim_sens_group_arrays_total");
        out.layer(
            "dag.repriced_fraction",
            windows.counter("hpcsim_sens_repriced_arrays_total") / arrays.max(1.0),
        );
        crate::finish_trace(ctx, &windows, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_every_pool_sample() {
        let e = expected();
        assert_eq!(e.len(), MASKS.len() * POOL);
    }

    #[test]
    fn pools_are_fixed_and_restricted_to_their_mask() {
        let a = pools();
        assert_eq!(a, pools());
        for (g, pool) in a.iter().enumerate() {
            assert!(pool.iter().all(|p| MASKS[g].contains(p.groups())));
        }
    }
}
