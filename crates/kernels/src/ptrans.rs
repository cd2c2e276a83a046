//! Parallel matrix transpose — PTRANS's local kernel.
//!
//! HPCC PTRANS computes `A ← Aᵀ + C` over a distributed matrix, stressing
//! bisection bandwidth; the node-local work is a blocked transpose, which
//! is what lives here (the distributed exchange is simulated in
//! `hpcsim-hpcc`).

use rayon::prelude::*;

/// Cache-blocking edge for the transpose.
const BLOCK: usize = 32;

/// Out-of-place transpose: `out[j][i] = a[i][j]` for an m×n row-major
/// input (out is n×m).
pub fn transpose(a: &[f64], m: usize, n: usize, out: &mut [f64]) {
    assert_eq!(a.len(), m * n);
    assert_eq!(out.len(), m * n);
    // Parallelize over column blocks of the output (row blocks of input).
    out.par_chunks_mut(BLOCK * m).enumerate().for_each(|(bj, out_panel)| {
        let j0 = bj * BLOCK;
        let jb = (n - j0).min(BLOCK);
        for i0 in (0..m).step_by(BLOCK) {
            let ib = (m - i0).min(BLOCK);
            for j in 0..jb {
                for i in 0..ib {
                    out_panel[j * m + (i0 + i)] = a[(i0 + i) * n + (j0 + j)];
                }
            }
        }
    });
}

/// `a ← aᵀ + c` for square n×n matrices (the PTRANS update).
pub fn transpose_add(a: &mut [f64], c: &[f64], n: usize) {
    assert_eq!(a.len(), n * n);
    assert_eq!(c.len(), n * n);
    let mut t = vec![0.0; n * n];
    transpose(a, n, n, &mut t);
    a.par_iter_mut().zip(t.par_iter().zip(c.par_iter())).for_each(|(ai, (&ti, &ci))| *ai = ti + ci);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect()
    }

    #[test]
    fn transpose_square() {
        let n = 70; // crosses block boundaries
        let a = random(n * n, 1);
        let mut t = vec![0.0; n * n];
        transpose(&a, n, n, &mut t);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(t[j * n + i], a[i * n + j]);
            }
        }
    }

    #[test]
    fn transpose_rectangular() {
        let (m, n) = (45, 90);
        let a = random(m * n, 2);
        let mut t = vec![0.0; m * n];
        transpose(&a, m, n, &mut t);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(t[j * m + i], a[i * n + j]);
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let (m, n) = (33, 65);
        let a = random(m * n, 3);
        let mut t = vec![0.0; m * n];
        let mut back = vec![0.0; m * n];
        transpose(&a, m, n, &mut t);
        transpose(&t, n, m, &mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn transpose_add_matches_definition() {
        let n = 50;
        let a0 = random(n * n, 4);
        let c = random(n * n, 5);
        let mut a = a0.clone();
        transpose_add(&mut a, &c, n);
        for i in 0..n {
            for j in 0..n {
                let expect = a0[j * n + i] + c[i * n + j];
                assert!((a[i * n + j] - expect).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn symmetric_matrix_fixed_by_transpose() {
        let n = 20;
        let r = random(n * n, 6);
        // build a symmetric matrix
        let mut s = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                s[i * n + j] = r[i.min(j) * n + i.max(j)];
            }
        }
        let mut t = vec![0.0; n * n];
        transpose(&s, n, n, &mut t);
        assert_eq!(t, s);
    }

    #[test]
    fn single_row_and_column() {
        let a = vec![1.0, 2.0, 3.0];
        let mut t = vec![0.0; 3];
        transpose(&a, 1, 3, &mut t);
        assert_eq!(t, a); // a 1×n transposes to n×1 with same layout
        let mut back = vec![0.0; 3];
        transpose(&t, 3, 1, &mut back);
        assert_eq!(back, a);
    }
}
