//! The two-tier content-addressed store.
//!
//! * **Tier 1 — results**: spec hash → the full result vector of the
//!   evaluated scenario, stored as exact f64 bit patterns. A hit skips
//!   *all* simulation.
//! * **Tier 2 — traces**: program sub-hash → the recorded per-rank op
//!   traces (plus a lazily compiled [`TraceDag`]). A tier-1 miss whose
//!   program was seen before replays the shared trace instead of
//!   re-recording it — the record-once/replay-per-point split, made
//!   persistent.
//!
//! Both tiers are sharded `Mutex<HashMap>`s with:
//!
//! * **in-flight dedupe** — concurrent identical requests (e.g. the same
//!   spec issued from several `parmap` workers) coalesce onto one
//!   evaluation; followers block on a condvar and receive the leader's
//!   value;
//! * **FIFO eviction** — each tier is bounded; inserting past the cap
//!   evicts the oldest entry (the access pattern this serves — sweeps
//!   around a design point — has little recency skew, so FIFO ≈ LRU at
//!   far lower bookkeeping cost);
//! * an optional **on-disk layer** — misses consult
//!   `<dir>/results/<hash>` / `<dir>/traces/<hash>` and successful
//!   evaluations write through (temp file + rename, so concurrent
//!   processes never observe a torn entry).
//!
//! Failed evaluations (fault-induced stalls) are *not* cached: they are
//! deterministic, so recomputing reproduces the same diagnostic, and
//! keeping error states out of the store keeps its invariant simple —
//! every stored value is a completed simulation.

use crate::spec::SpecHash;
use hpcsim_mpi::{Op, TraceDag};
use hpcsim_obs::{self as obs, log_warn_once};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, OnceLock};

const SHARDS: usize = 16;

/// Process-global obs metrics the cache feeds alongside the
/// per-instance [`CacheStats`] cells. Lookups *issued* are
/// [`Deterministic`](obs::Class::Deterministic): the battery issues the
/// same set of lookups regardless of worker count or cache temperature.
/// How a lookup was satisfied (memory hit vs flight coalesce vs disk
/// hit vs compute) genuinely depends on both, so those counters are
/// [`Volatile`](obs::Class::Volatile).
struct ObsMetrics {
    result_lookups: &'static obs::Counter,
    trace_lookups: &'static obs::Counter,
    result_hits: &'static obs::Counter,
    result_misses: &'static obs::Counter,
    coalesced: &'static obs::Counter,
    disk_result_hits: &'static obs::Counter,
    trace_hits: &'static obs::Counter,
    trace_misses: &'static obs::Counter,
    disk_trace_hits: &'static obs::Counter,
    evictions: &'static obs::Counter,
    disk_read_bytes: &'static obs::Counter,
    disk_write_bytes: &'static obs::Counter,
    disk_errors: &'static obs::Counter,
    compute_wall: &'static obs::Histogram,
}

fn metrics() -> &'static ObsMetrics {
    use obs::Class::{Deterministic, Volatile};
    static M: LazyLock<ObsMetrics> = LazyLock::new(|| ObsMetrics {
        result_lookups: obs::counter(
            "hpcsim_cache_result_lookups_total",
            "Tier-1 lookups issued",
            Deterministic,
        ),
        trace_lookups: obs::counter(
            "hpcsim_cache_trace_lookups_total",
            "Tier-2 lookups issued (only on tier-1 misses, so temperature-dependent)",
            Volatile,
        ),
        result_hits: obs::counter(
            "hpcsim_cache_result_hits_total",
            "Tier-1 lookups served from memory or disk",
            Volatile,
        ),
        result_misses: obs::counter(
            "hpcsim_cache_result_misses_total",
            "Tier-1 lookups that evaluated",
            Volatile,
        ),
        coalesced: obs::counter(
            "hpcsim_cache_coalesced_total",
            "Lookups coalesced onto a concurrent identical evaluation",
            Volatile,
        ),
        disk_result_hits: obs::counter(
            "hpcsim_cache_disk_result_hits_total",
            "Tier-1 hits satisfied by the on-disk layer",
            Volatile,
        ),
        trace_hits: obs::counter(
            "hpcsim_cache_trace_hits_total",
            "Tier-2 lookups served from memory or disk",
            Volatile,
        ),
        trace_misses: obs::counter(
            "hpcsim_cache_trace_misses_total",
            "Tier-2 lookups that recorded a trace",
            Volatile,
        ),
        disk_trace_hits: obs::counter(
            "hpcsim_cache_disk_trace_hits_total",
            "Tier-2 hits satisfied by the on-disk layer",
            Volatile,
        ),
        evictions: obs::counter(
            "hpcsim_cache_evictions_total",
            "Entries dropped by the FIFO bound (both tiers)",
            Volatile,
        ),
        disk_read_bytes: obs::counter(
            "hpcsim_cache_disk_read_bytes_total",
            "Bytes read from the on-disk layer",
            Volatile,
        ),
        disk_write_bytes: obs::counter(
            "hpcsim_cache_disk_write_bytes_total",
            "Bytes written through to the on-disk layer",
            Volatile,
        ),
        disk_errors: obs::counter(
            "hpcsim_cache_disk_errors_total",
            "Disk-layer read/write/parse failures absorbed (results recomputed)",
            Volatile,
        ),
        compute_wall: obs::histogram(
            "hpcsim_cache_compute_wall_ns",
            "Host wall-clock per tier-1 leader evaluation",
        ),
    });
    &M
}

/// Construction-time options for a [`ScenarioCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// When false, every lookup computes directly (no memoization, no
    /// stats) — the `--no-cache` escape hatch.
    pub enabled: bool,
    /// Optional on-disk layer root. Created on first use.
    pub dir: Option<PathBuf>,
    /// Tier-1 capacity in results.
    pub result_cap: usize,
    /// Tier-2 capacity in trace worlds (each can be large: cap is small).
    pub trace_cap: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { enabled: true, dir: None, result_cap: 65_536, trace_cap: 64 }
    }
}

/// Monotonic hit/miss counters. Snapshot with [`ScenarioCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tier-1 lookups served from memory or disk.
    pub result_hits: u64,
    /// Tier-1 lookups that had to evaluate.
    pub result_misses: u64,
    /// Lookups that coalesced onto a concurrent identical evaluation.
    pub coalesced: u64,
    /// Tier-1 hits satisfied by the on-disk layer.
    pub disk_result_hits: u64,
    /// Tier-2 lookups served from memory or disk.
    pub trace_hits: u64,
    /// Tier-2 lookups that had to record a trace.
    pub trace_misses: u64,
    /// Tier-2 hits satisfied by the on-disk layer.
    pub disk_trace_hits: u64,
    /// Entries dropped by the FIFO bound (both tiers).
    pub evictions: u64,
}

/// One per-instance counter cell tied to its process-global obs twin:
/// a bump feeds both the `ScenarioCache::stats` snapshot (this cache)
/// and the run-wide registry (all caches in the process).
struct Stat {
    cell: AtomicU64,
    obs: &'static obs::Counter,
}

impl Stat {
    fn new(obs: &'static obs::Counter) -> Self {
        Stat { cell: AtomicU64::new(0), obs }
    }

    fn bump(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
        self.obs.inc();
    }

    fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct StatCells {
    result_hits: Stat,
    result_misses: Stat,
    coalesced: Stat,
    disk_result_hits: Stat,
    trace_hits: Stat,
    trace_misses: Stat,
    disk_trace_hits: Stat,
    evictions: Stat,
}

impl StatCells {
    fn new() -> Self {
        let m = metrics();
        StatCells {
            result_hits: Stat::new(m.result_hits),
            result_misses: Stat::new(m.result_misses),
            coalesced: Stat::new(m.coalesced),
            disk_result_hits: Stat::new(m.disk_result_hits),
            trace_hits: Stat::new(m.trace_hits),
            trace_misses: Stat::new(m.trace_misses),
            disk_trace_hits: Stat::new(m.disk_trace_hits),
            evictions: Stat::new(m.evictions),
        }
    }
}

/// A recorded trace world plus its lazily compiled DAG. Shared by every
/// query replaying the same program.
pub struct TraceEntry {
    /// Per-rank op traces, exactly as recorded.
    pub traces: Vec<Vec<Op>>,
    dag: OnceLock<TraceDag>,
}

impl TraceEntry {
    /// Wrap freshly recorded (or loaded) traces.
    pub fn new(traces: Vec<Vec<Op>>) -> Self {
        TraceEntry { traces, dag: OnceLock::new() }
    }

    /// The compiled DAG, built on first demand and reused by every
    /// subsequent DAG-engine evaluation of this program.
    pub fn dag(&self) -> &TraceDag {
        self.dag.get_or_init(|| TraceDag::compile_world(&self.traces))
    }
}

/// What a follower thread receives from an in-flight leader.
type FlightOutcome<V> = Result<V, String>;

struct Flight<V> {
    done: Mutex<Option<FlightOutcome<V>>>,
    cv: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Flight { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn publish(&self, outcome: FlightOutcome<V>) {
        *self.done.lock().unwrap() = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> FlightOutcome<V> {
        let mut guard = self.done.lock().unwrap();
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self.cv.wait(guard).unwrap();
        }
    }
}

enum Slot<V> {
    Ready(V),
    InFlight(Arc<Flight<V>>),
}

struct Shard<V> {
    map: HashMap<u128, Slot<V>>,
    fifo: VecDeque<u128>,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard { map: HashMap::new(), fifo: VecDeque::new() }
    }
}

struct Tier<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard FIFO capacity (total cap split across shards).
    shard_cap: usize,
}

impl<V: Clone> Tier<V> {
    fn new(cap: usize) -> Self {
        Tier {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: cap.div_ceil(SHARDS).max(1),
        }
    }

    fn shard(&self, hash: SpecHash) -> &Mutex<Shard<V>> {
        // low bits of FNV are well mixed
        &self.shards[(hash.0 as usize) % SHARDS]
    }

    /// The dedupe engine shared by both tiers. Exactly one caller per
    /// hash evaluates; everyone else gets its value (memory hit, flight
    /// coalesce, or disk hit).
    #[allow(clippy::too_many_arguments)]
    fn get_or_compute(
        &self,
        hash: SpecHash,
        hits: &Stat,
        misses: &Stat,
        coalesced: &Stat,
        disk_hits: &Stat,
        evictions: &Stat,
        disk_load: impl FnOnce() -> Option<V>,
        disk_store: impl FnOnce(&V),
        compute: impl FnOnce() -> Result<V, String>,
    ) -> Result<V, String> {
        let flight: Arc<Flight<V>>;
        {
            let mut shard = self.shard(hash).lock().unwrap();
            match shard.map.get(&hash.0) {
                Some(Slot::Ready(v)) => {
                    hits.bump();
                    return Ok(v.clone());
                }
                Some(Slot::InFlight(f)) => {
                    let f = Arc::clone(f);
                    drop(shard);
                    coalesced.bump();
                    return f.wait().map_err(|e| format!("coalesced onto failed evaluation: {e}"));
                }
                None => {
                    flight = Arc::new(Flight::new());
                    shard.map.insert(hash.0, Slot::InFlight(Arc::clone(&flight)));
                }
            }
        }

        // We are the leader. Never hold the shard lock while loading,
        // computing or touching disk.
        let outcome: Result<(V, bool), String> = match disk_load() {
            Some(v) => Ok((v, true)),
            None => {
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute));
                match computed {
                    Ok(Ok(v)) => Ok((v, false)),
                    Ok(Err(e)) => Err(e),
                    Err(panic) => {
                        // release followers, forget the slot, re-raise
                        // (&*: coerce to the payload, not the Box-as-Any)
                        let msg = panic_message(&*panic);
                        flight.publish(Err(msg));
                        self.shard(hash).lock().unwrap().map.remove(&hash.0);
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        };

        match outcome {
            Ok((v, from_disk)) => {
                if from_disk {
                    hits.bump();
                    disk_hits.bump();
                } else {
                    misses.bump();
                    disk_store(&v);
                }
                flight.publish(Ok(v.clone()));
                let mut shard = self.shard(hash).lock().unwrap();
                shard.map.insert(hash.0, Slot::Ready(v.clone()));
                shard.fifo.push_back(hash.0);
                while shard.fifo.len() > self.shard_cap {
                    if let Some(old) = shard.fifo.pop_front() {
                        if matches!(shard.map.get(&old), Some(Slot::Ready(_))) {
                            shard.map.remove(&old);
                            evictions.bump();
                        }
                    }
                }
                Ok(v)
            }
            Err(e) => {
                misses.bump();
                flight.publish(Err(e.clone()));
                self.shard(hash).lock().unwrap().map.remove(&hash.0);
                Err(e)
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// The two-tier scenario store. Cheap to share (`Arc`); all methods take
/// `&self` and are safe under any `parmap` worker count.
pub struct ScenarioCache {
    cfg: CacheConfig,
    results: Tier<Arc<Vec<f64>>>,
    traces: Tier<Arc<TraceEntry>>,
    stats: StatCells,
}

impl ScenarioCache {
    /// An empty cache with the given bounds/backing.
    pub fn new(cfg: CacheConfig) -> Self {
        ScenarioCache {
            results: Tier::new(cfg.result_cap),
            traces: Tier::new(cfg.trace_cap),
            cfg,
            stats: StatCells::new(),
        }
    }

    /// Whether lookups memoize at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The on-disk layer root, if configured.
    pub fn dir(&self) -> Option<&Path> {
        self.cfg.dir.as_deref()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let s = &self.stats;
        CacheStats {
            result_hits: s.result_hits.get(),
            result_misses: s.result_misses.get(),
            coalesced: s.coalesced.get(),
            disk_result_hits: s.disk_result_hits.get(),
            trace_hits: s.trace_hits.get(),
            trace_misses: s.trace_misses.get(),
            disk_trace_hits: s.disk_trace_hits.get(),
            evictions: s.evictions.get(),
        }
    }

    /// Tier-1 lookup: the memoized result vector for `hash`, computing
    /// (and storing) it on a miss. `compute` may fail; failures are
    /// returned to every coalesced waiter and never cached.
    pub fn result(
        &self,
        hash: SpecHash,
        compute: impl FnOnce() -> Result<Vec<f64>, String>,
    ) -> Result<Arc<Vec<f64>>, String> {
        let m = metrics();
        m.result_lookups.inc();
        // leader-side wall clock; the Instant is skipped entirely while
        // the registry is disabled
        let timed = || {
            let start = obs::enabled().then(std::time::Instant::now);
            let r = compute().map(Arc::new);
            if let Some(t) = start {
                m.compute_wall.record_duration(t.elapsed());
            }
            r
        };
        if !self.cfg.enabled {
            return timed();
        }
        let s = &self.stats;
        self.results.get_or_compute(
            hash,
            &s.result_hits,
            &s.result_misses,
            &s.coalesced,
            &s.disk_result_hits,
            &s.evictions,
            || self.load_result(hash),
            |v| self.store_result(hash, v),
            timed,
        )
    }

    /// Tier-2 lookup: the shared trace world for a program sub-hash,
    /// recording it on a miss. Recording is infallible (trace capture
    /// involves no machine model), so this never errors.
    pub fn traces(
        &self,
        program_hash: SpecHash,
        record: impl FnOnce() -> Vec<Vec<Op>>,
    ) -> Arc<TraceEntry> {
        metrics().trace_lookups.inc();
        if !self.cfg.enabled {
            return Arc::new(TraceEntry::new(record()));
        }
        let s = &self.stats;
        self.traces
            .get_or_compute(
                program_hash,
                &s.trace_hits,
                &s.trace_misses,
                &s.coalesced,
                &s.disk_trace_hits,
                &s.evictions,
                || self.load_traces(program_hash),
                |v| self.store_traces(program_hash, v),
                || Ok(Arc::new(TraceEntry::new(record()))),
            )
            .expect("trace recording is infallible")
    }

    // ----- on-disk layer -------------------------------------------------

    fn result_path(&self, hash: SpecHash) -> Option<PathBuf> {
        self.cfg.dir.as_ref().map(|d| d.join("results").join(hash.to_string()))
    }

    fn trace_path(&self, hash: SpecHash) -> Option<PathBuf> {
        self.cfg.dir.as_ref().map(|d| d.join("traces").join(hash.to_string()))
    }

    fn load_result(&self, hash: SpecHash) -> Option<Arc<Vec<f64>>> {
        let path = self.result_path(hash)?;
        let text = read_entry(&path)?;
        let parsed = parse_result_file(&text, hash);
        if parsed.is_none() {
            metrics().disk_errors.inc();
            log_warn_once!(
                "cache: corrupt result entry {} ignored; recomputing",
                path.display()
            );
        }
        parsed.map(Arc::new)
    }

    fn store_result(&self, hash: SpecHash, v: &Arc<Vec<f64>>) {
        if let Some(path) = self.result_path(hash) {
            let mut text = format!("{RESULT_MAGIC} {hash} {}\n", v.len());
            for x in v.iter() {
                text.push_str(&format!("0x{:016x}\n", x.to_bits()));
            }
            write_entry(&path, &text);
        }
    }

    fn load_traces(&self, hash: SpecHash) -> Option<Arc<TraceEntry>> {
        let path = self.trace_path(hash)?;
        let text = read_entry(&path)?;
        match hpcsim_mpi::parse_traces(&text) {
            Ok(traces) => Some(Arc::new(TraceEntry::new(traces))),
            Err(e) => {
                metrics().disk_errors.inc();
                log_warn_once!(
                    "cache: corrupt trace entry {} ignored ({e}); re-recording",
                    path.display()
                );
                None
            }
        }
    }

    fn store_traces(&self, hash: SpecHash, v: &Arc<TraceEntry>) {
        if let Some(path) = self.trace_path(hash) {
            write_entry(&path, &hpcsim_mpi::write_traces(&v.traces));
        }
    }
}

/// Read one disk-layer entry. A missing file is the normal miss path; a
/// *failed* read (permissions, I/O error) is absorbed — the entry is
/// recomputed — but counted and diagnosed once.
fn read_entry(path: &Path) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            metrics().disk_read_bytes.add(text.len() as u64);
            Some(text)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            metrics().disk_errors.inc();
            log_warn_once!("cache: disk read of {} failed ({e}); recomputing", path.display());
            None
        }
    }
}

/// Write-through one disk-layer entry. Failures leave the cache
/// memory-only for that entry (results are unaffected) but are counted
/// and diagnosed once.
fn write_entry(path: &Path, text: &str) {
    match write_atomic(path, text) {
        Ok(()) => metrics().disk_write_bytes.add(text.len() as u64),
        Err(e) => {
            metrics().disk_errors.inc();
            log_warn_once!(
                "cache: disk write of {} failed ({e}); entry stays memory-only",
                path.display()
            );
        }
    }
}

/// First token of a result entry: `hpcsim-result/2 <spec-hash> <len>`,
/// then `len` lines of `0x`-prefixed f64 bit patterns.
const RESULT_MAGIC: &str = "hpcsim-result/2";

/// Parse a result entry stored under `hash`. The entry must name that
/// hash and hold exactly `len` values and nothing after them, so a
/// misnamed entry (another spec's result, possibly of another length),
/// a truncated one, or one from an older format is rejected — the
/// caller recomputes — instead of trusted by its filename.
fn parse_result_file(text: &str, hash: SpecHash) -> Option<Vec<f64>> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next()?.split_ascii_whitespace().collect();
    let [magic, named, len] = header[..] else { return None };
    if magic != RESULT_MAGIC || named != hash.to_string() {
        return None;
    }
    let len: usize = len.parse().ok()?;
    let out = lines
        .map(|l| Some(f64::from_bits(u64::from_str_radix(l.strip_prefix("0x")?, 16).ok()?)))
        .collect::<Option<Vec<f64>>>()?;
    (out.len() == len).then_some(out)
}

/// Write `text` to `path` via a same-directory temp file + rename, so a
/// concurrent reader sees either nothing or the complete entry. Disk-
/// layer writes are best-effort — the caller ([`write_entry`]) counts
/// and reports failures; results never depend on them.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let Some(parent) = path.parent() else { return Ok(()) };
    std::fs::create_dir_all(parent)?;
    let tmp = parent.join(format!(
        ".tmp.{}.{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
    ));
    std::fs::write(&tmp, text)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn hash(n: u128) -> SpecHash {
        SpecHash(n)
    }

    fn mem_cache() -> ScenarioCache {
        ScenarioCache::new(CacheConfig::default())
    }

    #[test]
    fn result_memoizes_and_counts() {
        let cache = mem_cache();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = cache
                .result(hash(7), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![1.5, 2.5])
                })
                .unwrap();
            assert_eq!(*v, vec![1.5, 2.5]);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.result_hits, s.result_misses), (2, 1));
    }

    #[test]
    fn errors_are_returned_but_never_cached() {
        let cache = mem_cache();
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            let e = cache
                .result(hash(9), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err("stalled".to_string())
                })
                .unwrap_err();
            assert!(e.contains("stalled"));
        }
        // both lookups computed: the failure was not memoized
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(cache.result(hash(9), || Ok(vec![4.0])).is_ok());
    }

    #[test]
    fn disabled_cache_computes_every_time() {
        let cache = ScenarioCache::new(CacheConfig { enabled: false, ..CacheConfig::default() });
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            cache
                .result(hash(1), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![0.0])
                })
                .unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn fifo_eviction_bounds_each_shard() {
        let cache = ScenarioCache::new(CacheConfig {
            result_cap: SHARDS, // one entry per shard
            ..CacheConfig::default()
        });
        // land many entries in the same shard: hashes ≡ 3 (mod SHARDS)
        for i in 0..4u128 {
            cache.result(hash(3 + i * SHARDS as u128), || Ok(vec![i as f64])).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 3, "{s:?}");
        // oldest evicted: recomputes
        let calls = AtomicUsize::new(0);
        cache
            .result(hash(3), || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(vec![9.0])
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let cache = Arc::new(mem_cache());
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || {
                cache
                    .result(hash(42), || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // widen the in-flight window
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok(vec![3.25])
                    })
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(*h.join().unwrap(), vec![3.25]);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "leader evaluated once");
        let s = cache.stats();
        assert_eq!(s.result_misses, 1);
        assert_eq!(s.result_hits + s.coalesced, 7, "{s:?}");
    }

    #[test]
    fn leader_panic_releases_followers_and_clears_slot() {
        let cache = Arc::new(mem_cache());
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.result(hash(13), || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("scenario exploded")
                    })
                }));
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        // this either coalesces onto the failing flight (gets an Err) or
        // arrives after cleanup and computes fresh — both must terminate
        let second = cache.result(hash(13), || Ok(vec![1.0]));
        leader.join().unwrap();
        match second {
            Ok(v) => assert_eq!(*v, vec![1.0]),
            Err(e) => assert!(e.contains("scenario exploded"), "{e}"),
        }
        // slot is clean afterwards
        assert_eq!(*cache.result(hash(13), || Ok(vec![2.0])).unwrap(), vec![2.0]);
    }

    #[test]
    fn disk_layer_round_trips_results_and_traces() {
        let dir = std::env::temp_dir().join(format!("hpcsim-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig { dir: Some(dir.clone()), ..CacheConfig::default() };

        let a = ScenarioCache::new(cfg.clone());
        let v = a.result(hash(77), || Ok(vec![0.1, f64::INFINITY, -0.0])).unwrap();
        let traces = vec![vec![Op::Mark { id: 1 }], vec![Op::Mark { id: 2 }]];
        let t = a.traces(hash(78), || traces.clone());
        assert_eq!(t.traces, traces);

        // a fresh cache over the same dir serves both without computing
        let b = ScenarioCache::new(cfg);
        let v2 = b
            .result(hash(77), || panic!("must come from disk"))
            .unwrap();
        assert_eq!(v2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                   v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let t2 = b.traces(hash(78), || panic!("must come from disk"));
        assert_eq!(t2.traces, traces);
        let s = b.stats();
        assert_eq!(s.disk_result_hits, 1);
        assert_eq!(s.disk_trace_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_file_is_counted_and_re_recorded() {
        let dir = std::env::temp_dir().join(format!("hpcsim-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig { dir: Some(dir.clone()), ..CacheConfig::default() };
        let traces = vec![vec![Op::Mark { id: 1 }], vec![Op::Mark { id: 2 }]];
        ScenarioCache::new(cfg.clone()).traces(hash(79), || traces.clone());
        let path = dir.join("traces").join(hash(79).to_string());
        assert!(path.exists());

        obs::set_enabled(true);
        // an out-of-world peer (replay would index past the world) and
        // an op count no text backs (would reserve terabytes)
        for corrupt in [
            "hpcsim-trace/1 2\nrank 0 1\ns 7 0 8 0\nrank 1 0\n",
            "hpcsim-trace/1 1\nrank 0 100000000000\n",
        ] {
            std::fs::write(&path, corrupt).unwrap();
            let errors = metrics().disk_errors.total();
            let recorded = AtomicUsize::new(0);
            let t = ScenarioCache::new(cfg.clone()).traces(hash(79), || {
                recorded.fetch_add(1, Ordering::SeqCst);
                traces.clone()
            });
            assert_eq!(t.traces, traces);
            assert_eq!(recorded.load(Ordering::SeqCst), 1, "re-recorded after {corrupt:?}");
            assert!(metrics().disk_errors.total() > errors, "counted: {corrupt:?}");
        }
        // the re-recorded trace was written back whole
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(hpcsim_mpi::parse_traces(&healed).unwrap(), traces);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misnamed_or_truncated_result_file_is_rejected_and_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("hpcsim-cache-misnamed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig { dir: Some(dir.clone()), ..CacheConfig::default() };
        // a one-value (HALO-shaped) entry and a four-value (POP-shaped) one
        let halo = ScenarioCache::new(cfg.clone());
        halo.result(hash(80), || Ok(vec![1.5e-6])).unwrap();
        let pop = vec![2.0, 30.0, 4.0, 5.0];
        ScenarioCache::new(cfg.clone()).result(hash(81), || Ok(pop.clone())).unwrap();
        let results = dir.join("results");
        let halo_text = std::fs::read_to_string(results.join(hash(80).to_string())).unwrap();
        let pop_path = results.join(hash(81).to_string());
        let pop_text = std::fs::read_to_string(&pop_path).unwrap();
        assert!(pop_text.starts_with(&format!("hpcsim-result/2 {} 4\n", hash(81))), "{pop_text}");

        obs::set_enabled(true);
        let truncated: String = pop_text.lines().take(3).map(|l| format!("{l}\n")).collect();
        for planted in [
            halo_text.clone(),                         // another spec's entry, misnamed
            truncated,                                 // header promises 4, body has 2
            format!("{pop_text}0x0000000000000000\n"), // a trailing line
            pop_text.replacen("hpcsim-result/2", "hpcsim-result/1", 1), // old format
        ] {
            std::fs::write(&pop_path, &planted).unwrap();
            let errors = metrics().disk_errors.total();
            let computed = AtomicUsize::new(0);
            let v = ScenarioCache::new(cfg.clone())
                .result(hash(81), || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok(pop.clone())
                })
                .unwrap();
            assert_eq!(*v, pop, "planted {planted:?}");
            assert_eq!(computed.load(Ordering::SeqCst), 1, "recomputed after {planted:?}");
            assert!(metrics().disk_errors.total() > errors, "counted: {planted:?}");
        }
        // the recomputed entry was written back whole and now loads
        assert_eq!(std::fs::read_to_string(&pop_path).unwrap(), pop_text);
        let warm = ScenarioCache::new(cfg).result(hash(81), || panic!("must come from disk"));
        assert_eq!(*warm.unwrap(), pop);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_entry_compiles_dag_once() {
        let traces = vec![vec![Op::Mark { id: 1 }]];
        let entry = TraceEntry::new(traces);
        assert!(std::ptr::eq(entry.dag(), entry.dag()));
    }
}
