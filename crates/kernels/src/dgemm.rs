//! Dense matrix multiply.
//!
//! `C ← α·A·B + β·C` for row-major `f64` matrices, blocked for cache and
//! parallelized over row panels with Rayon. This is the flop carrier of
//! HPL's trailing update and the DGEMM entry of HPCC Table 2.

use rayon::prelude::*;

/// Cache block edge. 64×64 f64 panels (32 KiB) fit comfortably in L1/L2
/// on everything we run on.
const BLOCK: usize = 64;

/// Naive triple loop — the oracle for tests. `a` is m×k, `b` is k×n,
/// `c` is m×n, all row-major.
#[allow(clippy::too_many_arguments)] // the BLAS dgemm signature
pub fn dgemm_naive(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Blocked, parallel `C ← α·A·B + β·C`. Dimensions as in
/// [`dgemm_naive`].
#[allow(clippy::too_many_arguments)] // the BLAS dgemm signature
pub fn dgemm(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if m == 0 || n == 0 {
        return;
    }
    // β-scale first so the k-blocked accumulation can use fused updates.
    if beta != 1.0 {
        c.iter_mut().for_each(|x| *x *= beta);
    }
    if k == 0 {
        return;
    }
    // Parallelize over row panels of C: each worker owns disjoint rows.
    c.par_chunks_mut(BLOCK * n).enumerate().for_each(|(bi, c_panel)| {
        let i0 = bi * BLOCK;
        let rows = c_panel.len() / n;
        let mut btile = [0.0f64; BLOCK * BLOCK];
        for l0 in (0..k).step_by(BLOCK) {
            let lb = BLOCK.min(k - l0);
            for j0 in (0..n).step_by(BLOCK) {
                let jb = BLOCK.min(n - j0);
                // pack the B tile once per (l0, j0); reused for all rows
                for l in 0..lb {
                    let src = &b[(l0 + l) * n + j0..(l0 + l) * n + j0 + jb];
                    btile[l * jb..(l + 1) * jb].copy_from_slice(src);
                }
                for i in 0..rows {
                    let arow = &a[(i0 + i) * k + l0..(i0 + i) * k + l0 + lb];
                    let crow = &mut c_panel[i * n + j0..i * n + j0 + jb];
                    for (l, &aval) in arow.iter().enumerate() {
                        let aval = alpha * aval;
                        let brow = &btile[l * jb..(l + 1) * jb];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += aval * bv;
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_square() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 97; // deliberately not a multiple of BLOCK
        let a = random_matrix(&mut rng, n * n);
        let b = random_matrix(&mut rng, n * n);
        let c0 = random_matrix(&mut rng, n * n);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        dgemm(1.5, &a, &b, 0.5, &mut c_fast, n, n, n);
        dgemm_naive(1.5, &a, &b, 0.5, &mut c_ref, n, n, n);
        assert_close(&c_fast, &c_ref, 1e-10);
    }

    #[test]
    fn matches_naive_rectangular() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, n, k) = (130, 65, 33);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut c_fast = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        dgemm(1.0, &a, &b, 0.0, &mut c_fast, m, n, k);
        dgemm_naive(1.0, &a, &b, 0.0, &mut c_ref, m, n, k);
        assert_close(&c_fast, &c_ref, 1e-10);
    }

    #[test]
    fn identity_is_neutral() {
        let n = 64;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, n * n);
        let mut c = vec![0.0; n * n];
        dgemm(1.0, &a, &eye, 0.0, &mut c, n, n, n);
        assert_close(&c, &a, 1e-12);
    }

    #[test]
    fn beta_scaling_only() {
        // k = 0: C ← β·C with empty product
        let mut c = vec![2.0; 12];
        dgemm(1.0, &[], &[], 0.5, &mut c, 3, 4, 0);
        assert!(c.iter().all(|&x| (x - 1.0).abs() < 1e-15));
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut c: Vec<f64> = vec![];
        dgemm(1.0, &[], &[], 0.0, &mut c, 0, 0, 0);
        dgemm(1.0, &[], &[], 0.0, &mut c, 0, 5, 0);
    }

    #[test]
    fn accumulates_with_beta_one() {
        let n = 16;
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(&mut rng, n * n);
        let b = random_matrix(&mut rng, n * n);
        let mut c = vec![1.0; n * n];
        let mut expect = vec![1.0; n * n];
        dgemm(2.0, &a, &b, 1.0, &mut c, n, n, n);
        dgemm_naive(2.0, &a, &b, 1.0, &mut expect, n, n, n);
        assert_close(&c, &expect, 1e-10);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0; 4];
        dgemm(1.0, &[1.0; 3], &[1.0; 4], 0.0, &mut c, 2, 2, 2);
    }
}
