//! Criterion benchmarks of the network hot path: route production and
//! iteration, flow acquire/release churn, and sequential phase loading —
//! the per-message costs that dominate the event-fidelity experiments
//! (HALO Fig 2, IMB Fig 3, MD Fig 8), plus a halo-replay breakdown that
//! separates trace recording, layout construction, and replay.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hpcsim_hpcc::{HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_mpi::{RankLayout, SimConfig, TraceSim};
use hpcsim_net::{FlowHandle, FlowTracker};
use hpcsim_topo::{Grid2D, Mapping, Torus3D};

/// A deterministic scatter of node pairs exercising all dimensions and
/// ring wraps.
fn pair_set(t: &Torus3D, n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|i| (i * 37 % t.nodes(), (i * 101 + 13) % t.nodes()))
        .filter(|(a, b)| a != b)
        .collect()
}

fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("route");
    let t = Torus3D::new([8, 8, 16]);
    let pairs = pair_set(&t, 1024);
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("materialize_vec", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for &(a, bn) in &pairs {
                hops += t.route(t.coord(a), t.coord(bn)).len();
            }
            black_box(hops)
        })
    });
    g.bench_function("segs_iterate", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for &(a, bn) in &pairs {
                hops += t.route_segs(t.coord(a), t.coord(bn)).links(&t).count();
            }
            black_box(hops)
        })
    });
    g.finish();
}

fn bench_acquire_release(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_tracker");
    let t = Torus3D::new([8, 8, 16]);
    let pairs = pair_set(&t, 1024);
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("acquire_release", |b| {
        let mut tracker = FlowTracker::new(&t);
        b.iter(|| {
            let mut worst = 0u32;
            for &(a, bn) in &pairs {
                let segs = t.route_segs(t.coord(a), t.coord(bn));
                let (h, load) = tracker.acquire(segs, a, bn);
                worst = worst.max(load);
                tracker.release(h);
            }
            black_box(worst)
        })
    });
    g.finish();
}

fn bench_phase_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase_load");
    let t = Torus3D::new([8, 8, 16]);
    let flows: Vec<(usize, usize)> = pair_set(&t, 4096);
    let handles: Vec<FlowHandle> = flows
        .iter()
        .map(|&(a, b)| FlowHandle::new(t.route_segs(t.coord(a), t.coord(b)), a, b))
        .collect();
    g.throughput(Throughput::Elements(handles.len() as u64));
    g.bench_function("sequential_acquire", |b| {
        let mut tracker = FlowTracker::new(&t);
        b.iter(|| {
            let mut worst = 0u32;
            for h in &handles {
                let (h2, load) = tracker.acquire(h.segs(), 0, 1);
                worst = worst.max(load);
                black_box(h2);
            }
            for h in &handles {
                tracker.release(FlowHandle::new(h.segs(), 0, 1));
            }
            black_box(worst)
        })
    });
    g.finish();
}

fn bench_halo_breakdown(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_breakdown");
    g.sample_size(10);
    let m = bluegene_p();
    let ranks = 512usize;
    let cfg = HaloConfig {
        grid: Grid2D::near_square(ranks),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let record = |cfg: &HaloConfig| {
        let grid = cfg.grid;
        let (words, protocol, reps) = (cfg.words, cfg.protocol, cfg.reps);
        TraceSim::trace_program(
            &hpcsim_mpi::FnProgram(move |mpi: &mut hpcsim_mpi::Mpi| {
                for round in 0..reps {
                    hpcsim_hpcc::halo_record_exchange(mpi, grid, words, protocol, round);
                }
            }),
            grid.size(),
            1,
        )
    };
    g.bench_function("trace_record", |b| b.iter(|| black_box(record(&cfg))));
    g.bench_function("layout_build", |b| {
        b.iter(|| black_box(RankLayout::bluegene(&m, ranks, ExecMode::Vn, Mapping::txyz())))
    });
    let traces = record(&cfg);
    let layout = RankLayout::bluegene(&m, ranks, ExecMode::Vn, Mapping::txyz());
    g.bench_function("sim_build", |b| {
        b.iter(|| {
            black_box(TraceSim::new(SimConfig {
                machine: m.clone(),
                mode: ExecMode::Vn,
                threads: 1,
                layout: layout.clone(),
            }))
        })
    });
    g.bench_function("replay", |b| {
        b.iter(|| {
            let mut sim = TraceSim::new(SimConfig {
                machine: m.clone(),
                mode: ExecMode::Vn,
                threads: 1,
                layout: layout.clone(),
            });
            black_box(sim.replay_traces(&traces))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_route,
    bench_acquire_release,
    bench_phase_load,
    bench_halo_breakdown
);
criterion_main!(benches);
