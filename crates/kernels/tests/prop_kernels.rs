//! Property tests of the real kernels' mathematical invariants.

use hpcsim_kernels::{
    dgemm, dgemm_naive, fft_forward, fft_inverse, lu_factor, lu_solve, residual_check, transpose,
    transpose_add, Complex,
};
use proptest::prelude::*;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked DGEMM equals the naive oracle for arbitrary shapes and
    /// coefficients.
    #[test]
    fn dgemm_matches_oracle(
        m in 1usize..40, n in 1usize..40, k in 0usize..40,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        seed: u64
    ) {
        let gen = |len: usize, s: u64| -> Vec<f64> {
            let mut state = s;
            (0..len).map(|_| {
                state = hpcsim_engine_splitmix(state);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }).collect()
        };
        let a = gen(m * k, seed);
        let b = gen(k * n, seed.wrapping_add(1));
        let c0 = gen(m * n, seed.wrapping_add(2));
        let mut fast = c0.clone();
        let mut slow = c0;
        dgemm(alpha, &a, &b, beta, &mut fast, m, n, k);
        dgemm_naive(alpha, &a, &b, beta, &mut slow, m, n, k);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f - s).abs() < 1e-9, "{f} vs {s}");
        }
    }

    /// FFT round-trips for every power-of-two length.
    #[test]
    fn fft_roundtrip(log_n in 1u32..12, sig in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4096)) {
        let n = 1usize << log_n;
        let orig: Vec<Complex> = sig[..n].iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let mut work = orig.clone();
        fft_forward(&mut work);
        fft_inverse(&mut work);
        for (w, o) in work.iter().zip(&orig) {
            prop_assert!(w.sub(*o).norm_sq().sqrt() < 1e-9);
        }
    }

    /// Parseval holds for arbitrary signals.
    #[test]
    fn fft_parseval(log_n in 1u32..11, sig in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 2048)) {
        let n = 1usize << log_n;
        let time: Vec<Complex> = sig[..n].iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let e_time: f64 = time.iter().map(|x| x.norm_sq()).sum();
        let mut spec = time;
        fft_forward(&mut spec);
        let e_freq: f64 = spec.iter().map(|x| x.norm_sq()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() <= 1e-8 * (1.0 + e_time));
    }

    /// LU solve satisfies the HPL residual bound for random
    /// well-conditioned systems.
    #[test]
    fn lu_residual_bounded(n in 2usize..80, a in vec_strategy(80 * 80), b in vec_strategy(80)) {
        let mut mat = a[..n * n].to_vec();
        // diagonal boost for conditioning
        for i in 0..n {
            mat[i * n + i] += 25.0;
        }
        let rhs = &b[..n];
        let f = lu_factor(mat.clone(), n).expect("diagonally dominant");
        let x = lu_solve(&f, rhs);
        prop_assert!(residual_check(&mat, &x, rhs, n) < 16.0);
    }

    /// Transpose is an involution for any shape.
    #[test]
    fn transpose_involution(m in 1usize..50, n in 1usize..50, data in vec_strategy(2500)) {
        let a = &data[..m * n];
        let mut t = vec![0.0; m * n];
        let mut back = vec![0.0; m * n];
        transpose(a, m, n, &mut t);
        transpose(&t, n, m, &mut back);
        prop_assert_eq!(&back[..], a);
    }

    /// transpose_add with C = 0 equals plain transpose; with A = 0 it
    /// equals C.
    #[test]
    fn transpose_add_identities(n in 1usize..40, data in vec_strategy(1600)) {
        let a = data[..n * n].to_vec();
        let zeros = vec![0.0; n * n];
        let mut t = vec![0.0; n * n];
        transpose(&a, n, n, &mut t);
        let mut via_add = a.clone();
        transpose_add(&mut via_add, &zeros, n);
        prop_assert_eq!(via_add, t);
        let mut from_zero = zeros.clone();
        transpose_add(&mut from_zero, &a, n);
        prop_assert_eq!(from_zero, a);
    }
}

/// Local copy of splitmix64 to keep this test free of the engine dep.
fn hpcsim_engine_splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
