//! HPCC RandomAccess (GUPS).
//!
//! The benchmark's pseudo-random stream is the 64-bit LFSR with
//! polynomial `x⁶³ + x² + x + 1` (`POLY = 7`); each value XOR-updates the
//! table slot addressed by its low bits. Because XOR is an involution,
//! applying the same update stream twice restores the table — which is
//! exactly how the official benchmark verifies itself, and how we do.

/// The HPCC LFSR feedback polynomial.
pub const POLY: u64 = 7;

/// Advance the LFSR by one step.
#[inline]
pub fn lfsr_step(x: u64) -> u64 {
    (x << 1) ^ (if (x as i64) < 0 { POLY } else { 0 })
}

/// The HPCC `HPCC_starts(n)`: the n-th element of the LFSR stream
/// starting from 1, computed in O(log n) by GF(2) transition squaring —
/// a direct port of the reference implementation.
pub fn starts(n: u64) -> u64 {
    if n == 0 {
        return 1;
    }
    // m2[i] = the state reached from basis bit i after 2 steps of the
    // previous power — i.e. the squared transition matrix's columns.
    let mut m2 = [0u64; 64];
    let mut temp = 1u64;
    for m in m2.iter_mut() {
        *m = temp;
        temp = lfsr_step(lfsr_step(temp));
    }
    let mut i: i64 = 62;
    while i >= 0 && (n >> i) & 1 == 0 {
        i -= 1;
    }
    let mut ran = 2u64;
    while i > 0 {
        temp = 0;
        for (j, &m) in m2.iter().enumerate() {
            if (ran >> j) & 1 == 1 {
                temp ^= m;
            }
        }
        ran = temp;
        i -= 1;
        if (n >> i) & 1 == 1 {
            ran = lfsr_step(ran);
        }
    }
    ran
}

/// Result of a GUPS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomAccessResult {
    /// Number of updates applied.
    pub updates: u64,
    /// Table slots that differ from the pristine table after
    /// re-application (0 for a correct sequential run).
    pub errors: u64,
}

/// Run `updates` table updates against a table of `2^log2_size` entries,
/// then verify by re-applying the same stream and counting mismatches
/// against the pristine table.
pub fn gups_run(log2_size: u32, updates: u64) -> RandomAccessResult {
    let size = 1usize << log2_size;
    let mask = (size - 1) as u64;
    let mut table: Vec<u64> = (0..size as u64).collect();

    let mut ran = starts(0).max(1);
    for _ in 0..updates {
        ran = lfsr_step(ran);
        table[(ran & mask) as usize] ^= ran;
    }
    // verification pass: XOR is self-inverse
    let mut ran = starts(0).max(1);
    for _ in 0..updates {
        ran = lfsr_step(ran);
        table[(ran & mask) as usize] ^= ran;
    }
    let errors = table.iter().enumerate().filter(|&(i, &v)| v != i as u64).count() as u64;
    RandomAccessResult { updates, errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_has_long_period_prefix() {
        // no repeats within a modest window (full period is 2^64 - 1)
        let mut seen = std::collections::HashSet::new();
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = lfsr_step(x);
            assert!(seen.insert(x), "premature cycle at {x}");
        }
    }

    #[test]
    fn starts_zero_and_one() {
        assert_eq!(starts(0), 1);
        assert_eq!(starts(1), lfsr_step(1));
    }

    #[test]
    fn starts_matches_sequential_stream() {
        let mut x = 1u64;
        for n in 1..200u64 {
            x = lfsr_step(x);
            assert_eq!(starts(n), x, "starts({n})");
        }
    }

    #[test]
    fn starts_is_consistent_at_large_offsets() {
        // starts(n+1) must equal one step from starts(n), even far out
        for n in [1u64 << 20, 1 << 33, (1 << 40) + 12345] {
            assert_eq!(starts(n + 1), lfsr_step(starts(n)));
        }
    }

    #[test]
    fn gups_verifies_clean() {
        let r = gups_run(12, 40_000);
        assert_eq!(r.errors, 0);
        assert_eq!(r.updates, 40_000);
    }

    #[test]
    fn gups_updates_touch_most_of_a_small_table() {
        // sanity: the address stream is well spread
        let size = 1usize << 8;
        let mask = (size - 1) as u64;
        let mut hit = vec![false; size];
        let mut x = 1u64;
        for _ in 0..20_000 {
            x = lfsr_step(x);
            hit[(x & mask) as usize] = true;
        }
        let coverage = hit.iter().filter(|&&h| h).count();
        assert!(coverage > size * 95 / 100, "coverage {coverage}/{size}");
    }
}
