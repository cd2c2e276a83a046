//! The STREAM kernels.
//!
//! McCalpin's four memory-bandwidth probes, exactly as HPCC runs them.
//! Each returns the bytes moved (per the STREAM counting convention, which
//! excludes write-allocate traffic) so callers can compute MB/s.

use rayon::prelude::*;

/// `c[i] = a[i]`. Returns bytes moved (16 per element).
pub fn stream_copy(a: &[f64], c: &mut [f64]) -> u64 {
    assert_eq!(a.len(), c.len());
    c.par_iter_mut().zip(a.par_iter()).for_each(|(ci, &ai)| *ci = ai);
    16 * a.len() as u64
}

/// `b[i] = q·c[i]`. Returns bytes moved (16 per element).
pub fn stream_scale(q: f64, c: &[f64], b: &mut [f64]) -> u64 {
    assert_eq!(c.len(), b.len());
    b.par_iter_mut().zip(c.par_iter()).for_each(|(bi, &ci)| *bi = q * ci);
    16 * c.len() as u64
}

/// `c[i] = a[i] + b[i]`. Returns bytes moved (24 per element).
pub fn stream_add(a: &[f64], b: &[f64], c: &mut [f64]) -> u64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    c.par_iter_mut().zip(a.par_iter().zip(b.par_iter())).for_each(|(ci, (&ai, &bi))| *ci = ai + bi);
    24 * a.len() as u64
}

/// `a[i] = b[i] + q·c[i]`. Returns bytes moved (24 per element).
pub fn stream_triad(q: f64, b: &[f64], c: &[f64], a: &mut [f64]) -> u64 {
    assert_eq!(b.len(), c.len());
    assert_eq!(b.len(), a.len());
    a.par_iter_mut()
        .zip(b.par_iter().zip(c.par_iter()))
        .for_each(|(ai, (&bi, &ci))| *ai = bi + q * ci);
    24 * b.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_copies() {
        let a: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut c = vec![0.0; 1000];
        let bytes = stream_copy(&a, &mut c);
        assert_eq!(c, a);
        assert_eq!(bytes, 16_000);
    }

    #[test]
    fn scale_scales() {
        let c: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut b = vec![0.0; 100];
        stream_scale(3.0, &c, &mut b);
        assert!(b.iter().enumerate().all(|(i, &x)| x == 3.0 * i as f64));
    }

    #[test]
    fn add_adds() {
        let a = vec![1.0; 64];
        let b = vec![2.0; 64];
        let mut c = vec![0.0; 64];
        let bytes = stream_add(&a, &b, &mut c);
        assert!(c.iter().all(|&x| x == 3.0));
        assert_eq!(bytes, 24 * 64);
    }

    #[test]
    fn triad_fuses() {
        let b = vec![1.0; 64];
        let c = vec![2.0; 64];
        let mut a = vec![0.0; 64];
        stream_triad(0.5, &b, &c, &mut a);
        assert!(a.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn empty_vectors_are_fine() {
        let mut out: Vec<f64> = vec![];
        assert_eq!(stream_copy(&[], &mut out), 0);
        assert_eq!(stream_triad(2.0, &[], &[], &mut out), 0);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut c = vec![0.0; 3];
        stream_copy(&[1.0; 4], &mut c);
    }
}
