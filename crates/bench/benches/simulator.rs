//! Criterion benchmarks of the simulator itself — the substrate's own
//! performance (events/second, whole-benchmark replay times). These are
//! the "how fast is the instrument" numbers, complementing the
//! paper-shaped outputs of the `repro` binary.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hpcsim_apps::PopConfig;
use hpcsim_cache::{evaluate_in, CacheConfig, ProgramSpec, ScenarioCache, ScenarioSpec, Setup};
use hpcsim_engine::{EventQueue, SimTime};
use hpcsim_hpcc::{halo_run, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(2 * n));
    g.bench_function("push_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(n as usize);
            for i in 0..n {
                // pseudo-random times, deterministic
                q.push(SimTime::from_ns(i.wrapping_mul(2654435761) % 1_000_000), i);
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                debug_assert!(e.time >= last);
                last = e.time;
            }
            black_box(last);
        })
    });
    g.finish();
}

fn bench_halo_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_halo");
    g.sample_size(10);
    let m = bluegene_p();
    for &ranks in &[256usize, 1024] {
        g.bench_function(format!("ranks{ranks}"), |b| {
            b.iter(|| {
                let cfg = HaloConfig {
                    grid: Grid2D::near_square(ranks),
                    words: 2048,
                    protocol: HaloProtocol::IrecvIsend,
                    reps: 2,
                };
                black_box(halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg));
            })
        });
    }
    g.finish();
}

/// Record and price `program` on BG/P in VN mode, every call (the cache
/// is off, so nothing is memoized between iterations).
fn record_and_price(program: ProgramSpec) -> f64 {
    let off = ScenarioCache::new(CacheConfig { enabled: false, ..CacheConfig::default() });
    let spec = ScenarioSpec::new(program, Setup::new(&bluegene_p(), ExecMode::Vn));
    evaluate_in(&off, &spec).expect("evaluates")[0]
}

fn bench_collective_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_allreduce");
    g.sample_size(10);
    let program = ProgramSpec::ImbAllreduce { ranks: 4096, bytes: 32 * 1024, dtype: DType::F64 };
    g.bench_function("ranks4096", |b| {
        b.iter(|| black_box(record_and_price(program.clone())));
    });
    g.finish();
}

fn bench_pop_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_pop_step");
    g.sample_size(10);
    let program = ProgramSpec::Pop { ranks: 1024, threads: 1, cfg: PopConfig::default() };
    g.bench_function("ranks1024", |b| {
        b.iter(|| black_box(record_and_price(program.clone())));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_halo_replay,
    bench_collective_replay,
    bench_pop_step
);
criterion_main!(benches);
