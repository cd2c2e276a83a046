//! Criterion benchmarks of the DAG sweep engine: compile throughput
//! (nodes/edges per second) and per-point evaluation vs event-queue
//! replay on the Fig 2 halo trace. The compile-once/evaluate-many split
//! is the whole point — a 32-point mapping sweep pays compilation once
//! and then each point is one critical-path pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hpcsim_hpcc::{halo_recording, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, PerturbSpec, Perturbation, PerturbationSampler};
use hpcsim_mpi::{RankLayout, SimConfig, TraceDag, TraceSim};
use hpcsim_topo::{Grid2D, Mapping};

fn fig2_trace(ranks: usize) -> hpcsim_mpi::Traces {
    halo_recording(&HaloConfig {
        grid: Grid2D::near_square(ranks),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    })
}

fn point_cfg(ranks: usize, mapping: Mapping) -> SimConfig {
    let machine = bluegene_p().with_flat_contention();
    let layout = RankLayout::bluegene(&machine, ranks, ExecMode::Vn, mapping);
    SimConfig { machine, mode: ExecMode::Vn, threads: 1, layout }
}

/// Trace → DAG compilation rate, reported as nodes/second (edge counts
/// are printed once so the throughput number has context).
fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_compile");
    for &ranks in &[256usize, 1024] {
        let traces = fig2_trace(ranks);
        let stats = TraceDag::compile(&traces).stats();
        println!(
            "# dag_compile/ranks{ranks}: {} nodes, {} edges, {} messages",
            stats.nodes, stats.edges, stats.messages
        );
        g.throughput(Throughput::Elements(stats.nodes));
        g.bench_function(format!("ranks{ranks}"), |b| {
            b.iter(|| black_box(TraceDag::compile(black_box(&traces))))
        });
    }
    g.finish();
}

/// One sweep point: a single DAG evaluation vs a full event-queue
/// replay of the same trace at the same (machine, mapping, mode).
fn bench_evaluate_vs_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_point");
    g.sample_size(20);
    for &ranks in &[256usize, 1024] {
        let traces = fig2_trace(ranks);
        let dag = TraceDag::compile(&traces);
        let cfg = point_cfg(ranks, Mapping::txyz());
        g.bench_function(format!("evaluate_ranks{ranks}"), |b| {
            b.iter(|| black_box(dag.evaluate(black_box(&cfg))))
        });
        g.bench_function(format!("replay_ranks{ranks}"), |b| {
            b.iter(|| black_box(TraceSim::new(cfg.clone()).replay(black_box(&traces))))
        });
    }
    g.finish();
}

/// The full Fig 2(c,d)-shaped 8-mapping sweep from one trace: compile
/// once + 8 evaluations vs 8 replays.
fn bench_mapping_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_mapping_sweep");
    g.sample_size(10);
    let ranks = 512;
    let traces = fig2_trace(ranks);
    let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|&(_, m)| m).collect();
    g.bench_function("dag8", |b| {
        b.iter(|| {
            let dag = TraceDag::compile(&traces);
            for &m in &mappings {
                black_box(dag.evaluate(&point_cfg(ranks, m)));
            }
        })
    });
    g.bench_function("replay8", |b| {
        b.iter(|| {
            for &m in &mappings {
                black_box(TraceSim::new(point_cfg(ranks, m)).replay(&traces));
            }
        })
    });
    g.finish();
}

/// Monte-Carlo throughput: 128 seeded perturbation samples priced
/// through the wide-lane batched evaluator (32-sample chunks) vs the
/// same samples looped one at a time, each materialised into its own
/// perturbed `MachineSpec`. The ratio is the single-worker lane term
/// of the sensitivity battery's speedup (the guard in
/// `tests/sensitivity_speedup.rs` adds the worker fan-out on top).
fn bench_perturbed(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_perturbed");
    g.sample_size(20);
    let ranks = 256;
    let traces = fig2_trace(ranks);
    let dag = TraceDag::compile(&traces);
    let cfg = point_cfg(ranks, Mapping::txyz());
    let sampler = PerturbationSampler::new(42, PerturbSpec::default());
    let samples: Vec<Perturbation> = (0..128u64).map(|i| sampler.sample(i)).collect();
    g.throughput(Throughput::Elements(samples.len() as u64));
    g.bench_function("batched32", |b| {
        b.iter(|| {
            for chunk in samples.chunks(32) {
                black_box(dag.evaluate_perturbed(black_box(&cfg), chunk));
            }
        })
    });
    g.bench_function("looped", |b| {
        b.iter(|| {
            for s in &samples {
                let mut c = cfg.clone();
                c.machine = s.apply_to(&cfg.machine);
                black_box(dag.evaluate(black_box(&c)));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_evaluate_vs_replay,
    bench_mapping_sweep,
    bench_perturbed
);
criterion_main!(benches);
