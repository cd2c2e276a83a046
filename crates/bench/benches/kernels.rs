//! Criterion benchmarks of the real numeric kernels.
//!
//! These time the actual Rust implementations on the host — the ground
//! truth behind the simulator's workload descriptors. One bench group per
//! HPCC kernel family that appears in Table 2 / Figure 1.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hpcsim_kernels::{
    dgemm, fft_forward, gups_run, lu_factor, lu_solve, stream_triad, transpose, Complex,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_dgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("dgemm");
    for &n in &[128usize, 256] {
        let a = random_vec(n * n, 1);
        let b = random_vec(n * n, 2);
        let mut out = vec![0.0; n * n];
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        g.bench_function(format!("n{n}"), |bch| {
            bch.iter(|| {
                dgemm(1.0, black_box(&a), black_box(&b), 0.0, &mut out, n, n, n);
                black_box(&out);
            })
        });
    }
    g.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_triad");
    for &n in &[1usize << 16, 1 << 20] {
        let b = random_vec(n, 3);
        let cvec = random_vec(n, 4);
        let mut a = vec![0.0; n];
        g.throughput(Throughput::Bytes(24 * n as u64));
        g.bench_function(format!("n{n}"), |bch| {
            bch.iter(|| {
                stream_triad(3.0, black_box(&b), black_box(&cvec), &mut a);
                black_box(&a);
            })
        });
    }
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for &n in &[1usize << 12, 1 << 16] {
        let sig: Vec<Complex> = random_vec(n, 5)
            .iter()
            .zip(random_vec(n, 6).iter())
            .map(|(&re, &im)| Complex::new(re, im))
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("n{n}"), |bch| {
            bch.iter(|| {
                let mut work = sig.clone();
                fft_forward(&mut work);
                black_box(&work);
            })
        });
    }
    g.finish();
}

fn bench_lu(c: &mut Criterion) {
    let mut g = c.benchmark_group("lu_hpl");
    for &n in &[96usize, 192] {
        let a = random_vec(n * n, 7);
        let b = random_vec(n, 8);
        g.throughput(Throughput::Elements((2 * n * n * n / 3) as u64));
        g.bench_function(format!("n{n}"), |bch| {
            bch.iter(|| {
                let f = lu_factor(a.clone(), n).expect("nonsingular");
                black_box(lu_solve(&f, &b));
            })
        });
    }
    g.finish();
}

fn bench_ptrans(c: &mut Criterion) {
    let mut g = c.benchmark_group("ptrans_local");
    for &n in &[256usize, 512] {
        let a = random_vec(n * n, 9);
        let mut out = vec![0.0; n * n];
        g.throughput(Throughput::Bytes((16 * n * n) as u64));
        g.bench_function(format!("n{n}"), |bch| {
            bch.iter(|| {
                transpose(black_box(&a), n, n, &mut out);
                black_box(&out);
            })
        });
    }
    g.finish();
}

fn bench_gups(c: &mut Criterion) {
    let mut g = c.benchmark_group("randomaccess");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("log2size16_100k", |bch| {
        bch.iter(|| black_box(gups_run(16, 100_000)));
    });
    g.finish();
}

criterion_group!(benches, bench_dgemm, bench_stream, bench_fft, bench_lu, bench_ptrans, bench_gups);
criterion_main!(benches);
