//! The process-wide metrics registry: registration, the lock-free hot
//! path, and deterministic snapshots. See the crate docs for the design
//! rationale (striped shards, log2 buckets, the determinism split).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shards per counter. A power of two so the thread-to-shard map is a
/// mask; 8 shards × 64 B padding keeps a counter to one page-friendly
/// 512 B while covering more threads than the battery ever runs hot.
const STRIPES: usize = 8;

/// Log2 histogram buckets: index 0 holds exact zeros, index `i` (1..=64)
/// holds values in `[2^(i-1), 2^i - 1]`; the last bucket therefore ends
/// at `u64::MAX` and renders as `+Inf` in Prometheus exposition.
pub const HIST_BUCKETS: usize = 65;

/// Determinism class of a counter or gauge — which `run_report.json`
/// section it lands in. Histograms are always quarantined under
/// `timing` and carry no class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Invariant across `--jobs`, sweep engine, and cache temperature;
    /// byte-diffed by CI across worker counts.
    Deterministic,
    /// Legitimately depends on cache state or engine selection (hits,
    /// evictions, DAG-vs-replay splits, disk bytes).
    Volatile,
}

impl Class {
    /// Report-section label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Deterministic => "deterministic",
            Class::Volatile => "observed",
        }
    }
}

/// Process-wide enable switch. Off by default; `repro` turns it on at
/// startup. Every hot-path record checks this first, so a disabled
/// registry costs one relaxed load per site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the registry is recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// One cache line per shard so two threads bumping the same counter
/// never write-share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Round-robin shard assignment: each thread picks a stripe on first
/// use and keeps it for life, so the battery's fixed worker pool maps
/// one worker per stripe until the pool outgrows [`STRIPES`].
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    STRIPE.with(|s| *s)
}

/// Monotonic event counter. Obtain a `&'static` handle once via
/// [`counter`] and bump it from any thread.
#[derive(Default)]
pub struct Counter {
    cells: [PaddedCell; STRIPES],
}

impl Counter {
    /// Add `n` events (no-op while the registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Deterministic merge: the sum over all shards.
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Last-written / running-max scalar. Single cell: gauges are set at
/// battery boundaries, not in hot loops.
#[derive(Default)]
pub struct Gauge {
    cell: AtomicU64,
}

impl Gauge {
    /// Overwrite the gauge (no-op while disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if larger — deterministic whenever the
    /// *set* of observed values is, regardless of arrival order.
    #[inline]
    pub fn set_max(&self, v: u64) {
        if enabled() {
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Fixed-log2-bucket histogram (see [`HIST_BUCKETS`] for the layout).
/// Values are whatever unit the call site chooses — the battery records
/// host wall-clock nanoseconds.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Saturating sum of recorded values (a `u64::MAX` observation must
    /// not wrap the total).
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS], sum: AtomicU64::new(0) }
    }
}

/// Bucket index for a value: 0 for zero, else `64 - leading_zeros`
/// (the bit length), so each bucket spans one power of two.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `i`: 0, then `2^i - 1`; the last
/// bucket's edge is `u64::MAX` (rendered `+Inf`).
#[inline]
pub fn bucket_le(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation (no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // saturating add: fetch_update loops only under a concurrent
        // store to the same cell, which the coarse call sites never
        // sustain
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(v)));
    }

    /// Record a host-time duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    fn snap(&self) -> ([u64; HIST_BUCKETS], u64) {
        let mut b = [0u64; HIST_BUCKETS];
        for (dst, src) in b.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        (b, self.sum.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

struct Entry<M: 'static> {
    name: &'static str,
    help: &'static str,
    class: Class,
    metric: &'static M,
}

#[derive(Default)]
struct Inner {
    counters: Vec<Entry<Counter>>,
    gauges: Vec<Entry<Gauge>>,
    hists: Vec<Entry<Histogram>>,
}

fn registry() -> &'static Mutex<Inner> {
    static REG: Mutex<Inner> =
        Mutex::new(Inner { counters: Vec::new(), gauges: Vec::new(), hists: Vec::new() });
    &REG
}

fn register<M: Default>(
    list: impl FnOnce(&mut Inner) -> &mut Vec<Entry<M>>,
    name: &'static str,
    help: &'static str,
    class: Class,
) -> &'static M {
    let mut inner = registry().lock().unwrap();
    let list = list(&mut inner);
    if let Some(e) = list.iter().find(|e| e.name == name) {
        assert_eq!(e.class, class, "metric {name} re-registered under a different class");
        return e.metric;
    }
    let metric: &'static M = Box::leak(Box::default());
    list.push(Entry { name, help, class, metric });
    metric
}

/// Register (or fetch) the counter named `name`. Idempotent: every call
/// site naming the same metric shares one instance. Call once per site
/// (e.g. through `LazyLock`) and keep the `&'static` handle.
pub fn counter(name: &'static str, help: &'static str, class: Class) -> &'static Counter {
    register(|i| &mut i.counters, name, help, class)
}

/// Register (or fetch) the gauge named `name`.
pub fn gauge(name: &'static str, help: &'static str, class: Class) -> &'static Gauge {
    register(|i| &mut i.gauges, name, help, class)
}

/// Register (or fetch) the histogram named `name`. Histograms always
/// land in the report's `timing` section; the class argument is fixed
/// internally.
pub fn histogram(name: &'static str, help: &'static str) -> &'static Histogram {
    register(|i| &mut i.hists, name, help, Class::Volatile)
}

/// Zero every registered metric (registration survives). Test and
/// battery-boundary helper — not safe to race against concurrent
/// recording if you then compare snapshots.
pub fn reset() {
    let inner = registry().lock().unwrap();
    for e in &inner.counters {
        e.metric.reset();
    }
    for e in &inner.gauges {
        e.metric.reset();
    }
    for e in &inner.hists {
        e.metric.reset();
    }
}

/// One counter's merged snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name (Prometheus-safe, `hpcsim_` prefixed).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Report section.
    pub class: Class,
    /// Shard-merged total.
    pub value: u64,
}

/// One gauge's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Report section.
    pub class: Class,
    /// Current value.
    pub value: u64,
}

/// One histogram's snapshot (non-cumulative per-bucket counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnap {
    /// Metric name.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// `(inclusive upper edge, count)` per bucket, zero buckets elided.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnap {
    /// Inclusive upper edge of the bucket containing quantile `q` in
    /// [0, 1]; 0 when empty. Log2 buckets make this a coarse but
    /// deterministic summary.
    pub fn quantile_le(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return le;
            }
        }
        self.buckets.last().map_or(0, |&(le, _)| le)
    }
}

/// A full registry snapshot, every section sorted by metric name — the
/// deterministic-merge point all exporters render from.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnap>,
    /// All gauges, name-sorted.
    pub gauges: Vec<GaugeSnap>,
    /// All histograms, name-sorted.
    pub hists: Vec<HistSnap>,
}

/// Snapshot every registered metric.
pub fn snapshot() -> Snapshot {
    let inner = registry().lock().unwrap();
    let mut counters: Vec<CounterSnap> = inner
        .counters
        .iter()
        .map(|e| CounterSnap {
            name: e.name,
            help: e.help,
            class: e.class,
            value: e.metric.total(),
        })
        .collect();
    let mut gauges: Vec<GaugeSnap> = inner
        .gauges
        .iter()
        .map(|e| GaugeSnap { name: e.name, help: e.help, class: e.class, value: e.metric.value() })
        .collect();
    let mut hists: Vec<HistSnap> = inner
        .hists
        .iter()
        .map(|e| {
            let (b, sum) = e.metric.snap();
            let count = b.iter().sum();
            let buckets = b
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_le(i), n))
                .collect();
            HistSnap { name: e.name, help: e.help, count, sum, buckets }
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    gauges.sort_by_key(|g| g.name);
    hists.sort_by_key(|h| h.name);
    Snapshot { counters, gauges, hists }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the process-wide switch / reset the
    /// registry.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = lock();
        set_enabled(false);
        let c = counter("test_disabled_ctr", "t", Class::Volatile);
        let h = histogram("test_disabled_hist", "t");
        c.add(5);
        h.record(9);
        assert_eq!(c.total(), 0);
        assert_eq!(h.snap().0.iter().sum::<u64>(), 0);
    }

    #[test]
    fn counter_merges_across_threads_deterministically() {
        let _g = lock();
        set_enabled(true);
        let c = counter("test_merge_ctr", "t", Class::Deterministic);
        c.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.total(), 4000);
        set_enabled(false);
    }

    #[test]
    fn registration_is_idempotent_and_class_checked() {
        let _g = lock();
        let a = counter("test_idem_ctr", "t", Class::Volatile);
        let b = counter("test_idem_ctr", "t", Class::Volatile);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn bucket_boundaries_cover_powers_of_two() {
        // zero gets its own bucket
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_le(0), 0);
        // exact powers of two open a new bucket; one less closes the old
        for i in 1..=63usize {
            let edge = 1u64 << i;
            assert_eq!(bucket_index(edge), i + 1, "2^{i} must open bucket {}", i + 1);
            assert_eq!(bucket_index(edge - 1), i, "2^{i}-1 must stay in bucket {i}");
            assert_eq!(bucket_le(i), edge - 1);
        }
        // 1 is the first nonzero bucket
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_le(1), 1);
        // the top bucket holds everything from 2^63 to u64::MAX
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(64), u64::MAX);
        // every value lands in the bucket whose edge bounds it
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "{v} exceeds its bucket edge");
            if i > 0 {
                assert!(v > bucket_le(i - 1), "{v} belongs in an earlier bucket");
            }
        }
    }

    #[test]
    fn histogram_records_extremes_without_wrapping() {
        let _g = lock();
        set_enabled(true);
        let h = histogram("test_extremes_hist", "t");
        h.reset();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates instead of wrapping
        let (b, sum) = h.snap();
        assert_eq!(b[0], 1);
        assert_eq!(b[64], 2);
        assert_eq!(sum, u64::MAX);
        set_enabled(false);
    }

    #[test]
    fn snapshot_sorts_by_name_and_elides_empty_buckets() {
        let _g = lock();
        set_enabled(true);
        counter("test_zz_ctr", "t", Class::Volatile).inc();
        counter("test_aa_ctr", "t", Class::Volatile).inc();
        let h = histogram("test_snap_hist", "t");
        h.reset();
        h.record(5);
        let snap = snapshot();
        let names: Vec<_> = snap.counters.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let hs = snap.hists.iter().find(|h| h.name == "test_snap_hist").unwrap();
        assert_eq!(hs.count, 1);
        assert_eq!(hs.sum, 5);
        assert_eq!(hs.buckets, vec![(bucket_le(bucket_index(5)), 1)]);
        set_enabled(false);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let snap = HistSnap {
            name: "q",
            help: "t",
            count: 100,
            sum: 0,
            buckets: vec![(1, 50), (3, 40), (7, 10)],
        };
        assert_eq!(snap.quantile_le(0.5), 1);
        assert_eq!(snap.quantile_le(0.9), 3);
        assert_eq!(snap.quantile_le(0.99), 7);
        assert_eq!(
            HistSnap { name: "e", help: "t", count: 0, sum: 0, buckets: vec![] }.quantile_le(0.5),
            0
        );
    }
}
