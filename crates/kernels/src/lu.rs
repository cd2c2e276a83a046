//! Blocked LU factorization with partial pivoting and the HPL residual.
//!
//! This is the mathematics under both the HPCC HPL test (Fig 1a) and the
//! TOP500 run of §II.C: factor a dense system, solve, and accept the
//! answer when the scaled residual
//! `‖Ax − b‖∞ / (ε · (‖A‖∞‖x‖∞ + ‖b‖∞) · n)` is O(1).
//!
//! Right-looking blocked algorithm: factor a panel (unblocked, partial
//! pivoting), apply its row swaps to the rest, triangular-solve the block
//! row, then rank-k update the trailing matrix via [`crate::dgemm()`] —
//! which is where >90% of the flops go, exactly as on the real machines.

use crate::dgemm::dgemm;

/// Panel width for the blocked factorization.
const NB: usize = 64;

/// The result of [`lu_factor`]: `A = P·L·U` packed in place.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// n×n row-major storage holding L (unit lower, below diagonal) and U
    /// (upper, on/above diagonal).
    pub lu: Vec<f64>,
    /// Pivot row chosen at each elimination step (`ipiv[k]` ≥ `k`).
    pub ipiv: Vec<usize>,
    /// Matrix order.
    pub n: usize,
}

/// Factor the row-major n×n matrix `a` as `P·L·U`. Returns `None` when a
/// zero pivot makes the matrix numerically singular.
pub fn lu_factor(mut a: Vec<f64>, n: usize) -> Option<LuFactors> {
    assert_eq!(a.len(), n * n);
    let mut ipiv = vec![0usize; n];

    let mut k0 = 0usize;
    while k0 < n {
        let kb = NB.min(n - k0);
        // --- unblocked panel factorization over columns k0..k0+kb
        for k in k0..k0 + kb {
            // pivot search in column k, rows k..n
            let mut piv = k;
            let mut best = a[k * n + k].abs();
            for r in (k + 1)..n {
                let v = a[r * n + k].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best == 0.0 {
                return None;
            }
            ipiv[k] = piv;
            if piv != k {
                for c in 0..n {
                    a.swap(k * n + c, piv * n + c);
                }
            }
            let pivot = a[k * n + k];
            // scale multipliers and update the rest of the PANEL only
            // (columns k+1 .. k0+kb); trailing columns are updated in the
            // blocked step below.
            for r in (k + 1)..n {
                let m = a[r * n + k] / pivot;
                a[r * n + k] = m;
                for c in (k + 1)..(k0 + kb) {
                    a[r * n + c] -= m * a[k * n + c];
                }
            }
        }
        let trail = k0 + kb;
        if trail < n {
            // --- U12 = L11⁻¹ · A12  (unit lower triangular solve)
            for k in k0..trail {
                for r in (k + 1)..trail {
                    let m = a[r * n + k];
                    if m != 0.0 {
                        for c in trail..n {
                            a[r * n + c] -= m * a[k * n + c];
                        }
                    }
                }
            }
            // --- A22 -= L21 · U12  (the DGEMM flop carrier)
            let m_rows = n - trail;
            let cols = n - trail;
            let mut l21 = vec![0.0; m_rows * kb];
            let mut u12 = vec![0.0; kb * cols];
            for r in 0..m_rows {
                for c in 0..kb {
                    l21[r * kb + c] = a[(trail + r) * n + (k0 + c)];
                }
            }
            for r in 0..kb {
                for c in 0..cols {
                    u12[r * cols + c] = a[(k0 + r) * n + (trail + c)];
                }
            }
            let mut a22 = vec![0.0; m_rows * cols];
            for r in 0..m_rows {
                for c in 0..cols {
                    a22[r * cols + c] = a[(trail + r) * n + (trail + c)];
                }
            }
            dgemm(-1.0, &l21, &u12, 1.0, &mut a22, m_rows, cols, kb);
            for r in 0..m_rows {
                for c in 0..cols {
                    a[(trail + r) * n + (trail + c)] = a22[r * cols + c];
                }
            }
        }
        k0 += kb;
    }
    Some(LuFactors { lu: a, ipiv, n })
}

/// Solve `A·x = b` given the factorization.
pub fn lu_solve(f: &LuFactors, b: &[f64]) -> Vec<f64> {
    let n = f.n;
    assert_eq!(b.len(), n);
    let mut x = b.to_vec();
    // apply pivots
    for k in 0..n {
        let p = f.ipiv[k];
        if p != k {
            x.swap(k, p);
        }
    }
    // forward: L·y = P·b (unit diagonal)
    for i in 0..n {
        let mut acc = x[i];
        for (xj, lij) in x[..i].iter().zip(&f.lu[i * n..i * n + i]) {
            acc -= lij * xj;
        }
        x[i] = acc;
    }
    // backward: U·x = y
    for i in (0..n).rev() {
        let mut acc = x[i];
        for (xj, uij) in x[i + 1..n].iter().zip(&f.lu[i * n + i + 1..i * n + n]) {
            acc -= uij * xj;
        }
        x[i] = acc / f.lu[i * n + i];
    }
    x
}

/// The HPL scaled residual: `‖Ax − b‖∞ / (ε·(‖A‖∞·‖x‖∞ + ‖b‖∞)·n)`.
/// HPL accepts a run when this is below ~16.
pub fn residual_check(a: &[f64], x: &[f64], b: &[f64], n: usize) -> f64 {
    assert_eq!(a.len(), n * n);
    let mut r_inf = 0.0f64;
    for i in 0..n {
        let mut ax = 0.0;
        for j in 0..n {
            ax += a[i * n + j] * x[j];
        }
        r_inf = r_inf.max((ax - b[i]).abs());
    }
    let a_inf = (0..n)
        .map(|i| a[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    let x_inf = x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let b_inf = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let denom = f64::EPSILON * (a_inf * x_inf + b_inf) * n as f64;
    if denom == 0.0 {
        return 0.0;
    }
    r_inf / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (a, b)
    }

    #[test]
    fn solves_small_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let a = vec![2.0, 1.0, 1.0, 3.0];
        let f = lu_factor(a.clone(), 2).unwrap();
        let x = lu_solve(&f, &[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn hpl_residual_passes_at_various_sizes() {
        for (n, seed) in [(10usize, 1u64), (64, 2), (100, 3), (200, 4), (301, 5)] {
            let (a, b) = random_system(n, seed);
            let f = lu_factor(a.clone(), n).expect("nonsingular");
            let x = lu_solve(&f, &b);
            let r = residual_check(&a, &x, &b, n);
            assert!(r < 16.0, "n={n}: scaled residual {r}");
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // A[0][0] = 0 forces an immediate row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let f = lu_factor(a.clone(), 2).unwrap();
        let x = lu_solve(&f, &[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = vec![1.0, 2.0, 2.0, 4.0]; // rank 1
        assert!(lu_factor(a, 2).is_none());
    }

    #[test]
    fn identity_factors_to_itself() {
        let n = 50;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let f = lu_factor(a, n).unwrap();
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = lu_solve(&f, &b);
        for (i, xi) in x.iter().enumerate() {
            assert!((xi - i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonally_dominant_is_stable() {
        let n = 128;
        let mut rng = StdRng::seed_from_u64(7);
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for i in 0..n {
            a[i * n + i] += n as f64; // strong diagonal
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let f = lu_factor(a.clone(), n).unwrap();
        let x = lu_solve(&f, &b);
        assert!(residual_check(&a, &x, &b, n) < 1.0);
    }

    #[test]
    fn blocked_crosses_panel_boundaries() {
        // n chosen to exercise panels of NB and a ragged final panel
        let n = super::NB + 17;
        let (a, b) = random_system(n, 11);
        let f = lu_factor(a.clone(), n).unwrap();
        let x = lu_solve(&f, &b);
        assert!(residual_check(&a, &x, &b, n) < 16.0);
    }
}
