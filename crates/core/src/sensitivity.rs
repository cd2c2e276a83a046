//! Monte-Carlo sensitivity battery over the Fig 2 halo DAG — the
//! measurement behind the `sensitivity` entry in `BENCH_repro.json`
//! (schema v6) and the release-gated batched-throughput guard.
//!
//! The battery compiles a 4096-rank (quick: 256) stencil iteration
//! once — a per-rank stencil-update delay, the Fig 2 halo exchange,
//! and a convergence-norm allreduce per sweep, so every parameter
//! group owns real work in the DAG — then prices seeded multiplicative
//! perturbations of each machine parameter group (link bandwidth, hop
//! latency, compute noise, collectives, and all four together) through
//! the DAG engine's batched [`TraceDag::evaluate_perturbed`] path.
//! Per-group makespan statistics come from the engine's Welford
//! kernels ([`OnlineStats`]); the same sample set is re-run one sample
//! at a time to measure the batched-over-looped throughput gain.
//!
//! Everything that lands in the [`Table`] / CSV artifact is
//! deterministic: sample i of group g is a pure function of
//! `(seed, g, i)` via the splittable RNG, the batch chunking is fixed
//! (32 samples) regardless of the worker count, and [`parmap`]
//! preserves input order — so the rendered output is byte-identical
//! across `--jobs` settings. Wall-clock timings live only in the
//! stats struct (and hence the BENCH entry), never in the table.

use hpcsim_engine::{split_seed, splitmix64, OnlineStats, SimTime};
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{
    ExecMode, MachineSpec, ParamGroups, PerturbSpec, Perturbation, PerturbationSampler,
};
use hpcsim_mpi::{
    perturbed_batches, CommId, FnProgram, Mpi, SimConfig, SimResult, TraceDag, TraceSim,
};
use hpcsim_net::DType;
use hpcsim_topo::Grid2D;

use crate::experiment::Scale;
use crate::report::Table;
use crate::runner::parmap;

/// Fixed batch width handed to [`TraceDag::evaluate_perturbed`] per
/// [`parmap`] work item. Matches the engine's widest lane count so
/// full chunks run at 100% occupancy, and keeps the chunk decomposition
/// independent of the worker count (determinism across `--jobs`).
const CHUNK: usize = 32;

/// The perturbed parameter groups swept by the battery, in row order.
const GROUP_ROWS: [ParamGroups; 5] = [
    ParamGroups::LINK_BW,
    ParamGroups::HOP_LAT,
    ParamGroups::COMPUTE,
    ParamGroups::COLLECTIVE,
    ParamGroups::ALL,
];

/// One per-parameter-group row of the sensitivity table.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Perturbed parameter group(s).
    pub groups: ParamGroups,
    /// Samples drawn for this row.
    pub samples: u64,
    /// Mean perturbed makespan, microseconds.
    pub mean_us: f64,
    /// Sample standard deviation of the makespan, microseconds.
    pub stddev_us: f64,
    /// Half-width of the normal-approximation 95% confidence interval
    /// on the mean (`1.96 · σ/√n`), microseconds.
    pub ci95_us: f64,
    /// Smallest perturbed makespan, microseconds.
    pub min_us: f64,
    /// Largest perturbed makespan, microseconds.
    pub max_us: f64,
    /// Mean shift relative to the unperturbed makespan, percent.
    pub delta_pct: f64,
}

/// Outcome of the Monte-Carlo sensitivity battery.
#[derive(Debug, Clone)]
pub struct SensitivityStats {
    /// Per-group sensitivity rows, in the battery's fixed group order.
    pub rows: Vec<SensitivityRow>,
    /// Total perturbation samples across all rows.
    pub samples: u64,
    /// Unperturbed (baseline) makespan, microseconds.
    pub baseline_us: f64,
    /// Wall seconds for the batched pass (fixed 32-sample chunks fanned
    /// out over [`parmap`]).
    pub batched_seconds: f64,
    /// Wall seconds re-running the same samples one at a time,
    /// sequentially — the per-sample-loop baseline the batched path is
    /// judged against.
    pub looped_seconds: f64,
    /// Whether an identity perturbation reproduced the baseline
    /// [`TraceDag::evaluate_many`] result bit-for-bit.
    pub zero_identical: bool,
    /// Fraction of parameter-group cost arrays actually re-priced
    /// (touched groups / 4 per sample); the rest were copied from the
    /// cached base tables.
    pub repriced_fraction: f64,
    /// Mean lane occupancy of the batched pass: samples evaluated per
    /// SIMD-style lane slot allocated (1.0 = every lane carried a real
    /// sample, < 1.0 = padding on narrow tails).
    pub batch_occupancy: f64,
}

impl SensitivityStats {
    /// Looped-over-batched wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.looped_seconds / self.batched_seconds.max(1e-12)
    }

    /// Render the per-group rows as an aligned report table. Contains
    /// only deterministic statistics — no wall-clock timings.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Monte-Carlo sensitivity: stencil iteration makespan by perturbed parameter group",
            &[
                "group",
                "samples",
                "mean_us",
                "ci95_us",
                "stddev_us",
                "min_us",
                "max_us",
                "delta_pct",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.groups.label(),
                r.samples.to_string(),
                format!("{:.3}", r.mean_us),
                format!("{:.3}", r.ci95_us),
                format!("{:.3}", r.stddev_us),
                format!("{:.3}", r.min_us),
                format!("{:.3}", r.max_us),
                format!("{:+.3}", r.delta_pct),
            ]);
        }
        t
    }
}

/// Lane slots the engine allocates for a batch of `n` samples, as
/// [`perturbed_batches`] splits it.
fn lane_slots(n: usize) -> u64 {
    perturbed_batches(n).map(|(lanes, _)| lanes as u64).sum()
}

/// Trace the stencil iteration the battery prices: each sweep is a
/// per-rank stencil-update delay (compute group), the Fig 2 halo
/// exchange (link-bandwidth and hop-latency groups), and a
/// convergence-norm allreduce (collective group) — so every perturbed
/// parameter group owns real work in the compiled DAG. The compute
/// delay carries a deterministic per-rank jitter: stragglers are what
/// make compute noise visible in the makespan at all.
fn stencil_traces(grid: Grid2D, words: u64, reps: u32) -> hpcsim_mpi::Traces {
    TraceSim::trace_program(
        &FnProgram(move |mpi: &mut Mpi| {
            let me = mpi.rank();
            for round in 0..reps {
                let jitter = splitmix64(((me as u64) << 32) | round as u64) % 10;
                mpi.delay(SimTime::from_us(20 + jitter));
                hpcc::halo_record_exchange(mpi, grid, words, hpcc::HaloProtocol::IrecvIsend, round);
                mpi.allreduce(CommId::WORLD, 8, DType::F64);
            }
        }),
        grid.size(),
        1,
    )
}

fn exact_match(a: &SimResult, b: &SimResult) -> bool {
    a.finish == b.finish
        && a.busy == b.busy
        && a.bytes_sent == b.bytes_sent
        && a.messages == b.messages
        && a.marks == b.marks
}

/// Run the sensitivity battery at the scale's default sample count
/// (200 per group at quick scale — the 1,000-sample acceptance run —
/// and 400 per group at paper scale).
pub fn sensitivity_battery(scale: Scale, seed: u64) -> SensitivityStats {
    let per_group = match scale {
        Scale::Quick => 200,
        Scale::Paper => 400,
    };
    sensitivity_battery_with(scale, seed, per_group)
}

/// [`sensitivity_battery`] with an explicit per-group sample count
/// (tests use small counts to keep debug builds fast).
pub fn sensitivity_battery_with(
    scale: Scale,
    seed: u64,
    samples_per_group: usize,
) -> SensitivityStats {
    let machine: MachineSpec = bluegene_p().with_flat_contention();
    let grid = Grid2D::near_square(scale.ranks(4096));
    let traces = stencil_traces(grid, 2048, 2);
    let ranks = traces.ranks();
    let dag = TraceDag::compile(&traces);
    let cfg = SimConfig::new(machine, ranks, ExecMode::Vn);

    let base = dag.evaluate_many(std::slice::from_ref(&cfg)).remove(0);
    let baseline_us = base.makespan().as_secs() * 1e6;
    let zero =
        dag.evaluate_perturbed(&cfg, std::slice::from_ref(&Perturbation::IDENTITY)).remove(0);
    let zero_identical = exact_match(&base, &zero);

    // Sample i of group g depends only on (seed, g, i): the sampler is
    // seeded from the split stream, so neither chunking nor worker
    // count can change what gets priced.
    let spec = PerturbSpec::default();
    let group_samples: Vec<Vec<Perturbation>> = GROUP_ROWS
        .iter()
        .enumerate()
        .map(|(g, &mask)| {
            let sampler = PerturbationSampler::new(split_seed(seed, g as u64), spec).only(mask);
            (0..samples_per_group as u64).map(|i| sampler.sample(i)).collect()
        })
        .collect();

    // Batched pass: fixed-width chunks across every group, fanned out
    // over the worker pool. parmap preserves input order, so results
    // regroup deterministically.
    let chunks: Vec<&[Perturbation]> = group_samples.iter().flat_map(|s| s.chunks(CHUNK)).collect();
    let t0 = std::time::Instant::now();
    let chunk_results: Vec<Vec<SimResult>> = parmap(&chunks, |ch| dag.evaluate_perturbed(&cfg, ch));
    let batched_seconds = t0.elapsed().as_secs_f64();
    let mut results = chunk_results.into_iter().flatten();

    // Looped baseline: same samples, one at a time, each materialised
    // into a perturbed MachineSpec and evaluated as its own point.
    // This is what a Monte-Carlo driver without the batched
    // perturbation path does: every sample's machine differs, so the
    // evaluator re-derives its cached cost tables from scratch on each
    // call — exactly the rebuild that delta re-pricing avoids.
    let t1 = std::time::Instant::now();
    for samples in &group_samples {
        for s in samples {
            let mut c = cfg.clone();
            c.machine = s.apply_to(&cfg.machine);
            std::hint::black_box(dag.evaluate(&c));
        }
    }
    let looped_seconds = t1.elapsed().as_secs_f64();

    let mut rows = Vec::with_capacity(GROUP_ROWS.len());
    let mut repriced = 0u64;
    for (g, samples) in group_samples.iter().enumerate() {
        let mut stats = OnlineStats::new();
        for _ in samples {
            let r = results.next().expect("one result per sample");
            stats.push(r.makespan().as_secs() * 1e6);
        }
        repriced += samples.iter().map(|p| p.groups().count() as u64).sum::<u64>();
        let n = stats.count() as f64;
        let stddev = stats.stddev();
        rows.push(SensitivityRow {
            groups: GROUP_ROWS[g],
            samples: stats.count(),
            mean_us: stats.mean(),
            stddev_us: stddev,
            ci95_us: 1.96 * stddev / n.max(1.0).sqrt(),
            min_us: stats.min(),
            max_us: stats.max(),
            delta_pct: 100.0 * (stats.mean() - baseline_us) / baseline_us.max(1e-12),
        });
    }

    let samples = (GROUP_ROWS.len() * samples_per_group) as u64;
    let slots: u64 = chunks.iter().map(|c| lane_slots(c.len())).sum();
    SensitivityStats {
        rows,
        samples,
        baseline_us,
        batched_seconds,
        looped_seconds,
        zero_identical,
        repriced_fraction: repriced as f64 / (samples as f64 * ParamGroups::COUNT as f64).max(1.0),
        batch_occupancy: samples as f64 / (slots as f64).max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_shape_at_quick_scale() {
        let s = sensitivity_battery_with(Scale::Quick, 7, 12);
        assert_eq!(s.samples, 60);
        assert_eq!(s.rows.len(), 5);
        assert!(s.zero_identical, "identity sample diverged from evaluate_many");
        assert!(s.baseline_us > 0.0);
        for r in &s.rows {
            assert_eq!(r.samples, 12);
            assert!(r.mean_us > 0.0 && r.min_us <= r.mean_us && r.mean_us <= r.max_us);
            assert!(r.ci95_us >= 0.0 && r.stddev_us >= 0.0);
        }
        // Single-group rows re-price 1 of 4 arrays; the `all` row 4 of 4
        // (up to samples that happen to draw an exact-1.0 factor).
        assert!(s.repriced_fraction > 0.25 && s.repriced_fraction <= 0.4 + 0.2);
        assert!(s.batch_occupancy > 0.0 && s.batch_occupancy <= 1.0);
        assert!(s.batched_seconds > 0.0 && s.looped_seconds > 0.0);
    }

    #[test]
    fn perturbed_rows_move_off_baseline() {
        let s = sensitivity_battery_with(Scale::Quick, 11, 16);
        // Every parameter group owns real work in the stencil DAG, so
        // every row must actually move the makespan: a flat row means
        // that group's costs are not being priced.
        for r in &s.rows {
            assert!(
                r.stddev_us > 0.0,
                "row {} shows no spread — its perturbations are not being priced",
                r.groups.label()
            );
        }
        let compute = &s.rows[2];
        assert!(
            compute.min_us >= s.baseline_us,
            "compute noise is one-sided slowdown; min {} fell below baseline {}",
            compute.min_us,
            s.baseline_us
        );
        assert!(compute.max_us > s.baseline_us);
    }

    #[test]
    fn lane_slot_model_matches_dispatch() {
        assert_eq!(lane_slots(0), 0);
        assert_eq!(lane_slots(1), 1);
        assert_eq!(lane_slots(2), 8);
        assert_eq!(lane_slots(8), 8);
        assert_eq!(lane_slots(9), 9);
        assert_eq!(lane_slots(10), 16);
        assert_eq!(lane_slots(32), 32);
        assert_eq!(lane_slots(33), 33);
        assert_eq!(lane_slots(40), 40);
        assert_eq!(lane_slots(47), 32 + 8 + 8);
    }
}
