//! Symbolic workload descriptors and their resolution to concrete costs.
//!
//! A [`Workload`] names *what* a task computes (a DGEMM of order n, a
//! STREAM triad over n elements, a stencil sweep, a chemistry evaluation…)
//! without fixing *how expensive* it is — that depends on the machine's
//! cache share and the kernel's achievable SIMD efficiency. Resolution to
//! a [`CostDesc`] (flops + DRAM traffic + efficiency factors) happens in
//! [`Workload::cost`], given the cache capacity available to the task.
//! The node model then applies the roofline.
//!
//! The traffic formulas are the standard I/O-complexity results: a blocked
//! DGEMM moves `O(n³/√C)` words, an out-of-cache FFT makes
//! `⌈log(n·16/C)⌉`-ish passes, STREAM moves a fixed number of bytes per
//! element including the write-allocate, etc. They are deliberately simple
//! — the paper's observations hinge on *which side of the roofline* each
//! kernel sits on, not on cycle-accurate traffic.

use serde::{Deserialize, Serialize};

/// Resolved cost of one task-local piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostDesc {
    /// Useful double-precision floating-point operations.
    pub flops: f64,
    /// Bytes that must move between DRAM and the chip.
    pub dram_bytes: f64,
    /// Fraction of peak per-cycle flops the kernel's instruction mix can
    /// issue (vectorization/FMA-pairing quality of the kernel+compiler).
    pub simd_eff: f64,
    /// Amdahl serial fraction when the task is threaded (OpenMP).
    pub serial_frac: f64,
    /// Whether the kernel is irregular application code (subject to the
    /// machine's `irregular_eff` in-order penalty) rather than a tuned
    /// library kernel.
    pub irregular: bool,
}

impl CostDesc {
    /// A pure-compute cost (no memory traffic).
    pub fn compute(flops: f64, simd_eff: f64) -> Self {
        CostDesc { flops, dram_bytes: 0.0, simd_eff, serial_frac: 0.0, irregular: false }
    }

    /// Sum of two costs executed back to back.
    pub fn then(self, other: CostDesc) -> CostDesc {
        let f = self.flops + other.flops;
        // Weighted efficiency so that total flop-time is preserved.
        let t_self = if self.simd_eff > 0.0 { self.flops / self.simd_eff } else { 0.0 };
        let t_other = if other.simd_eff > 0.0 { other.flops / other.simd_eff } else { 0.0 };
        let eff = if t_self + t_other > 0.0 { f / (t_self + t_other) } else { 1.0 };
        CostDesc {
            flops: f,
            dram_bytes: self.dram_bytes + other.dram_bytes,
            simd_eff: eff.clamp(0.0, 1.0),
            serial_frac: self.serial_frac.max(other.serial_frac),
            irregular: self.irregular || other.irregular,
        }
    }

    /// Scale the whole cost by a positive factor (e.g. "per timestep" ×
    /// steps).
    pub fn scaled(self, k: f64) -> CostDesc {
        CostDesc { flops: self.flops * k, dram_bytes: self.dram_bytes * k, ..self }
    }
}

/// What one MPI task computes locally. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Dense matrix multiply, C ← C + A·B with square order `n`
    /// (vendor BLAS: ESSL on BlueGene, ACML on the XT).
    Dgemm { n: u64 },
    /// LU trailing-matrix update of an `m×n` block with inner dimension
    /// `k` (the flop carrier of HPL).
    LuUpdate { m: u64, n: u64, k: u64 },
    /// STREAM copy: `a[i] = b[i]`.
    StreamCopy { n: u64 },
    /// STREAM scale: `a[i] = q*b[i]`.
    StreamScale { n: u64 },
    /// STREAM add: `a[i] = b[i] + c[i]`.
    StreamAdd { n: u64 },
    /// STREAM triad: `a[i] = b[i] + q*c[i]`.
    StreamTriad { n: u64 },
    /// Complex-to-complex 1-D FFT of `n` points (stock HPCC kernel, not
    /// the vendor library — per the paper's methodology).
    Fft1d { n: u64 },
    /// RandomAccess: `updates` read-modify-writes at random addresses in a
    /// `table_bytes` table.
    RandomAccess { updates: u64, table_bytes: u64 },
    /// Regular grid sweep: `points` points at `flops_per_point` flops and
    /// `bytes_per_point` DRAM bytes each (covers POP baroclinic, S3D
    /// derivatives, CAM dynamics, CG sparse ops).
    Stencil { points: u64, flops_per_point: f64, bytes_per_point: f64 },
    /// Pointwise chemistry / physics column work: compute-dominated,
    /// poorly vectorizable (S3D reaction rates, CAM physics).
    Chemistry { points: u64, flops_per_point: f64 },
    /// Short-range MD force evaluation over `pairs` interactions.
    MdForce { pairs: u64, flops_per_pair: f64 },
    /// Fully explicit cost, for calibration and tests.
    Custom { flops: f64, dram_bytes: f64, simd_eff: f64, serial_frac: f64 },
}

impl Workload {
    /// Resolve to a concrete cost given the task's available cache in
    /// bytes (private + its share of the node's last-level cache).
    pub fn cost(&self, cache_bytes: f64) -> CostDesc {
        let cache = cache_bytes.max(4.0 * 1024.0); // defensive floor: 4 KiB
        match *self {
            Workload::Dgemm { n } => {
                let n = n as f64;
                let flops = 2.0 * n * n * n;
                // Blocked matmul: block edge b = sqrt(C/(3*8)); each of the
                // n/b panel passes streams the n×n operand once.
                let b = (cache / 24.0).sqrt().max(8.0);
                let passes = (n / b).max(1.0);
                let dram = 8.0 * n * n * (2.0 * passes + 2.0);
                CostDesc {
                    flops,
                    dram_bytes: dram,
                    simd_eff: 0.90,
                    serial_frac: 0.02,
                    irregular: false,
                }
            }
            Workload::LuUpdate { m, n, k } => {
                let (m, n, k) = (m as f64, n as f64, k as f64);
                let flops = 2.0 * m * n * k;
                let b = (cache / 24.0).sqrt().max(8.0);
                let passes = (k / b).max(1.0);
                let dram = 8.0 * (m * n) * (passes + 2.0) + 8.0 * (m * k + k * n);
                // Slightly below straight DGEMM: pivoting and triangular solves.
                CostDesc {
                    flops,
                    dram_bytes: dram,
                    simd_eff: 0.85,
                    serial_frac: 0.04,
                    irregular: false,
                }
            }
            Workload::StreamCopy { n } | Workload::StreamScale { n } => {
                // read 8 + write 8 + write-allocate 8 per element
                let flops =
                    if matches!(self, Workload::StreamScale { .. }) { n as f64 } else { 0.0 };
                CostDesc {
                    flops,
                    dram_bytes: 24.0 * n as f64,
                    simd_eff: 1.0,
                    serial_frac: 0.0,
                    irregular: false,
                }
            }
            Workload::StreamAdd { n } => CostDesc {
                flops: n as f64,
                dram_bytes: 32.0 * n as f64,
                simd_eff: 1.0,
                serial_frac: 0.0,
                irregular: false,
            },
            Workload::StreamTriad { n } => CostDesc {
                flops: 2.0 * n as f64,
                dram_bytes: 32.0 * n as f64,
                simd_eff: 1.0,
                serial_frac: 0.0,
                irregular: false,
            },
            Workload::Fft1d { n } => {
                let nf = n as f64;
                let flops = 5.0 * nf * nf.log2().max(1.0);
                let footprint = 16.0 * nf; // complex f64
                let passes = if footprint <= cache {
                    1.0
                } else {
                    // multi-pass out-of-cache FFT: each pass streams the
                    // dataset in and out
                    (footprint / cache).log2().ceil().max(1.0) + 1.0
                };
                let dram = 2.0 * footprint * passes;
                // stock (non-vendor) FFT: modest vectorization
                CostDesc {
                    flops,
                    dram_bytes: dram,
                    simd_eff: 0.33,
                    serial_frac: 0.05,
                    irregular: false,
                }
            }
            Workload::RandomAccess { updates, table_bytes } => {
                // Each update touches a random cache line; when the table
                // dwarfs the cache every update is a DRAM line round trip.
                let line = 64.0;
                let miss_frac = (1.0 - cache / table_bytes as f64).clamp(0.0, 1.0);
                let dram = updates as f64 * miss_frac * 2.0 * line;
                CostDesc {
                    flops: 0.0,
                    dram_bytes: dram,
                    simd_eff: 1.0,
                    serial_frac: 0.0,
                    irregular: false,
                }
            }
            Workload::Stencil { points, flops_per_point, bytes_per_point } => CostDesc {
                flops: points as f64 * flops_per_point,
                dram_bytes: points as f64 * bytes_per_point,
                simd_eff: 0.16,
                serial_frac: 0.03,
                irregular: true,
            },
            Workload::Chemistry { points, flops_per_point } => CostDesc {
                flops: points as f64 * flops_per_point,
                dram_bytes: points as f64 * 64.0, // state vector in/out
                simd_eff: 0.24,
                serial_frac: 0.02,
                irregular: true,
            },
            Workload::MdForce { pairs, flops_per_pair } => CostDesc {
                flops: pairs as f64 * flops_per_pair,
                dram_bytes: pairs as f64 * 24.0, // neighbor-list traffic
                simd_eff: 0.35,
                serial_frac: 0.03,
                irregular: true,
            },
            Workload::Custom { flops, dram_bytes, simd_eff, serial_frac } => {
                CostDesc { flops, dram_bytes, simd_eff, serial_frac, irregular: false }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = (1u64 << 20) as f64;

    #[test]
    fn dgemm_is_compute_dominated_with_cache() {
        let c = Workload::Dgemm { n: 1000 }.cost(8.0 * MIB);
        // arithmetic intensity well above typical machine balance (~1 F/B)
        assert!(c.flops / c.dram_bytes > 10.0, "AI = {}", c.flops / c.dram_bytes);
        assert_eq!(c.flops, 2e9);
    }

    #[test]
    fn dgemm_traffic_grows_when_cache_shrinks() {
        let big = Workload::Dgemm { n: 2000 }.cost(8.0 * MIB);
        let small = Workload::Dgemm { n: 2000 }.cost(0.5 * MIB);
        assert!(small.dram_bytes > big.dram_bytes);
        assert_eq!(small.flops, big.flops);
    }

    #[test]
    fn stream_triad_bytes_per_element() {
        let c = Workload::StreamTriad { n: 1_000_000 }.cost(8.0 * MIB);
        assert_eq!(c.dram_bytes, 32e6);
        assert_eq!(c.flops, 2e6);
    }

    #[test]
    fn stream_variants_ordering() {
        let n = 1_000_000;
        let copy = Workload::StreamCopy { n }.cost(MIB);
        let add = Workload::StreamAdd { n }.cost(MIB);
        assert!(add.dram_bytes > copy.dram_bytes);
        assert_eq!(copy.flops, 0.0);
    }

    #[test]
    fn fft_goes_multipass_out_of_cache() {
        let incache = Workload::Fft1d { n: 1 << 14 }.cost(8.0 * MIB); // 256 KiB data
        let outcache = Workload::Fft1d { n: 1 << 24 }.cost(8.0 * MIB); // 256 MiB data
        let bytes_per_point_in = incache.dram_bytes / (1u64 << 14) as f64;
        let bytes_per_point_out = outcache.dram_bytes / (1u64 << 24) as f64;
        assert!(bytes_per_point_out > bytes_per_point_in * 2.0);
    }

    #[test]
    fn random_access_miss_fraction() {
        let big_table =
            Workload::RandomAccess { updates: 1000, table_bytes: 1 << 30 }.cost(8.0 * MIB);
        let tiny_table =
            Workload::RandomAccess { updates: 1000, table_bytes: 1 << 20 }.cost(8.0 * MIB);
        assert!(big_table.dram_bytes > 0.9 * 1000.0 * 128.0);
        assert_eq!(tiny_table.dram_bytes, 0.0); // fits in cache entirely
    }

    #[test]
    fn then_accumulates_and_preserves_flop_time() {
        let a = CostDesc::compute(1e9, 0.5);
        let b = CostDesc::compute(1e9, 1.0);
        let c = a.then(b);
        assert_eq!(c.flops, 2e9);
        // time at eff: 1e9/0.5 + 1e9/1.0 = 3e9 "effective units"
        assert!((c.flops / c.simd_eff - 3e9).abs() < 1.0);
    }

    #[test]
    fn scaled_multiplies_work() {
        let c = Workload::StreamTriad { n: 100 }.cost(MIB).scaled(10.0);
        assert_eq!(c.dram_bytes, 32_000.0);
        assert_eq!(c.flops, 2000.0);
    }

    #[test]
    fn chemistry_is_low_simd_compute() {
        let c = Workload::Chemistry { points: 1 << 20, flops_per_point: 5000.0 }.cost(8.0 * MIB);
        assert!(c.simd_eff < 0.5);
        assert!(c.flops / c.dram_bytes > 10.0);
    }

    #[test]
    fn defensive_cache_floor() {
        // A zero cache share must not divide by zero or go negative.
        let c = Workload::Dgemm { n: 64 }.cost(0.0);
        assert!(c.dram_bytes.is_finite() && c.dram_bytes > 0.0);
    }
}
