//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! The container has no crates.io access, so the benches run on a small
//! wall-clock harness instead: each `bench_function` does a warm-up pass,
//! then times `sample_size` batches and reports the per-iteration median
//! (plus derived throughput when one was declared). No statistical
//! regression analysis, no HTML reports — just honest timings on stderr,
//! which is what the repo's benches are read for.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value passthrough.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declared work per iteration, used to derive rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Per-iteration timing driver handed to bench closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over this sample's iteration batch.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level harness state.
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        eprintln!("group {}", name.into());
        BenchmarkGroup { _c: self, sample_size: 20, throughput: None }
    }
}

/// A named group; carries group-wide sample size and throughput.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set samples per benchmark (criterion default is 100; ours is 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declare per-iteration work for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark: warm up, pick a batch size targeting ~10ms per
    /// sample, time `sample_size` samples, report the median.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        // warm-up + calibration: one iteration, timed
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        let per_iter = b.elapsed.max(Duration::from_nanos(1));
        let iters =
            (Duration::from_millis(10).as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut samples: Vec<f64> = (0..self.sample_size)
            .map(|_| {
                let mut b = Bencher { iters, elapsed: Duration::ZERO };
                f(&mut b);
                b.elapsed.as_secs_f64() / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];

        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => format!("  {:.3} Melem/s", n as f64 / median / 1e6),
            Some(Throughput::Bytes(n)) => {
                format!("  {:.3} MiB/s", n as f64 / median / (1024.0 * 1024.0))
            }
            None => String::new(),
        };
        eprintln!("  {id:<24} {:>12}/iter{rate}", format_time(median));
        self
    }

    /// End the group (criterion API parity; nothing to flush here).
    pub fn finish(&mut self) {}
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Collect bench functions under one entry point, as upstream does.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags like --bench; ignore them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_smoke");
        g.sample_size(3);
        g.throughput(Throughput::Elements(64));
        let mut ran = false;
        g.bench_function("sum", |b| {
            ran = true;
            b.iter(|| (0u64..64).sum::<u64>())
        });
        g.finish();
        assert!(ran);
    }
}
