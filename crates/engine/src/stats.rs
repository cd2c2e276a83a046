//! Online statistics, histograms and time-weighted integrals.
//!
//! All accumulators here are single-pass and allocation-free after
//! construction, so they can sit inside simulation hot loops. The power
//! model uses [`TimeWeighted`] to integrate watts over virtual time; the
//! benchmark harness uses [`OnlineStats`] (Welford) for run summaries and
//! [`Histogram`] for latency distributions.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-bin logarithmic histogram over `(0, +inf)`.
///
/// Bin `i` covers `[base^i, base^(i+1)) * scale`. Used for message-latency
/// distributions where values span six orders of magnitude.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower bound of bin 0.
    scale: f64,
    /// Geometric bin width.
    base: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `nbins` geometric bins starting at `scale`, each
    /// `base` times wider than the last. Panics if `base <= 1` or
    /// `scale <= 0`.
    pub fn new(scale: f64, base: f64, nbins: usize) -> Self {
        assert!(scale > 0.0 && base > 1.0 && nbins > 0);
        Histogram { scale, base, bins: vec![0; nbins], underflow: 0, overflow: 0 }
    }

    /// Standard latency histogram: 1 ns to ~18 min in 64 half-decade bins.
    pub fn latency() -> Self {
        Histogram::new(1e-9, 10f64.powf(0.5), 64)
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN counts as underflow
        if !(x >= self.scale) {
            self.underflow += 1;
            return;
        }
        let idx = (x / self.scale).log(self.base).floor() as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Total number of recorded observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Approximate quantile (`q` in `[0,1]`) using bin lower edges.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target && target > 0 {
            return Some(0.0);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.scale * self.base.powi(i as i32));
            }
        }
        Some(f64::INFINITY)
    }

    /// Raw bin counts (for report rendering).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }
}

/// Time-weighted integral of a piecewise-constant signal, e.g. power draw.
///
/// `set(t, v)` declares that the signal takes value `v` from time `t`
/// onward; `integral_to(t)` is `∫ signal dt` up to `t` in (value × seconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    /// Max instantaneous value seen.
    peak: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Empty integral starting at time zero with value zero.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            integral: 0.0,
            peak: 0.0,
            started: false,
        }
    }

    /// Declare the signal value from `t` onward. `t` must be non-decreasing
    /// across calls; out-of-order updates panic (they indicate a simulator
    /// bug, not a data problem).
    pub fn set(&mut self, t: SimTime, value: f64) {
        assert!(
            !self.started || t >= self.last_time,
            "TimeWeighted updates must be time-ordered: {} < {}",
            t,
            self.last_time
        );
        if self.started {
            self.integral += self.last_value * (t - self.last_time).as_secs();
        }
        self.last_time = t;
        self.last_value = value;
        self.peak = self.peak.max(value);
        self.started = true;
    }

    /// Integral of the signal from the first `set` to `t`
    /// (value × seconds). `t` must be at or after the last update.
    pub fn integral_to(&self, t: SimTime) -> f64 {
        assert!(t >= self.last_time, "integral queried before last update");
        self.integral + self.last_value * (t - self.last_time).as_secs()
    }

    /// Time-average of the signal over `[first set, t]`; zero-length
    /// intervals return the current value.
    pub fn mean_to(&self, t: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let dur = t.as_secs();
        if dur <= 0.0 {
            return self.last_value;
        }
        self.integral_to(t) / dur
    }

    /// Largest instantaneous value declared so far.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Current (most recently declared) value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(1.0, 2.0, 10);
        for x in [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        // bins: [1,2): 2 entries; [2,4): 2; [4,8): 1; [8,16): 1; [64,128): 1
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[1], 2);
        let median = h.quantile(0.5).unwrap();
        assert!((1.0..=4.0).contains(&median), "median bin edge {median}");
    }

    #[test]
    fn histogram_under_over_flow() {
        let mut h = Histogram::new(1.0, 2.0, 2); // covers [1,4)
        h.record(0.5);
        h.record(1e9);
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn time_weighted_integrates_rectangles() {
        let mut p = TimeWeighted::new();
        p.set(SimTime::ZERO, 100.0);
        p.set(SimTime::SEC * 2, 50.0);
        // 2 s at 100 + 3 s at 50 = 350 (value-seconds)
        let j = p.integral_to(SimTime::SEC * 5);
        assert!((j - 350.0).abs() < 1e-9);
        assert!((p.mean_to(SimTime::SEC * 5) - 70.0).abs() < 1e-9);
        assert_eq!(p.peak(), 100.0);
        assert_eq!(p.current(), 50.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_weighted_rejects_out_of_order() {
        let mut p = TimeWeighted::new();
        p.set(SimTime::SEC, 1.0);
        p.set(SimTime::ZERO, 2.0);
    }
}
