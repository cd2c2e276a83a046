//! Observability overhead: the same halo replay untraced, with the
//! disabled `NoopTracer` (must monomorphize to the untraced code), and
//! with the enabled `RingRecorder` (the real cost of recording).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hpcsim_hpcc::{halo_run, halo_try_run, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_probe::{NoopTracer, RingRecorder};
use hpcsim_topo::{Grid2D, Mapping};

fn cfg() -> HaloConfig {
    HaloConfig {
        grid: Grid2D::new(16, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    }
}

fn bench_probe_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_overhead");
    g.sample_size(20);
    let (m, txyz) = (bluegene_p(), Mapping::txyz());
    g.bench_function("replay_untraced", |b| {
        b.iter(|| black_box(halo_run(&m, ExecMode::Vn, txyz, &cfg())))
    });
    g.bench_function("replay_noop_tracer", |b| {
        b.iter(|| black_box(halo_try_run(&m, ExecMode::Vn, txyz, &cfg(), None, &mut NoopTracer)))
    });
    g.bench_function("replay_ring_recorder", |b| {
        b.iter(|| {
            let mut rec = RingRecorder::new();
            black_box(halo_try_run(&m, ExecMode::Vn, txyz, &cfg(), None, &mut rec)).unwrap();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_probe_overhead);
criterion_main!(benches);
