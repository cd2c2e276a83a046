//! The two-tier content-addressed store.
//!
//! * **Tier 1 — results**: spec hash → the full result vector of the
//!   evaluated scenario, stored as exact f64 bit patterns. A hit skips
//!   *all* simulation.
//! * **Tier 2 — compiled DAGs**: program sub-hash → the program's
//!   [`TraceDag`]. It is asked only when a point is priced on the DAG
//!   (fault-free, on a machine [`TraceDag::exact_for`] accepts), so a
//!   tier-1 miss whose program was compiled before in this process
//!   neither records nor compiles it — record once, price many.
//!   Recordings are never kept: each lives for the one
//!   [`evaluate_on_in`](crate::evaluate_on_in) call that needs it.
//!
//! Each tier is one `Mutex` over one map and one FIFO, with:
//!
//! * **in-flight dedupe** — concurrent identical requests (e.g. the same
//!   spec issued from several `parmap` workers) coalesce onto one
//!   evaluation; followers block on a condvar and receive the leader's
//!   value;
//! * **FIFO eviction** — tier 1 holds [`RESULT_CAP`] results, tier 2
//!   [`DAG_CAP`] DAGs; inserting past the cap evicts the oldest
//!   entry (the access pattern this serves — sweeps around a design
//!   point — has little recency skew, so FIFO ≈ LRU at far lower
//!   bookkeeping cost). No computation runs under a tier's lock.
//!
//! Tier 1 alone has an optional **on-disk layer**: misses consult
//! `<dir>/results/<hash>` and successful evaluations write through
//! (temp file + rename, so concurrent processes never observe a torn
//! entry).
//!
//! Failed evaluations (fault-induced stalls) are *not* cached: they are
//! deterministic, so recomputing reproduces the same diagnostic, and
//! keeping error states out of the store keeps its invariant simple —
//! every stored value is a completed simulation.

use crate::spec::SpecHash;
use hpcsim_mpi::wire::{Bits, Lines, ParseError};
use hpcsim_mpi::TraceDag;
use hpcsim_obs::{self as obs, log_warn_once};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};

/// Tier-1 capacity in result vectors.
pub const RESULT_CAP: usize = 65_536;

/// Tier-2 capacity in compiled DAGs: more than the distinct programs a
/// what-if sweep around one design point compiles (DESIGN §14).
pub const DAG_CAP: usize = 64;

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
            "Tier-2 compiled-DAG lookups issued (only on tier-1 misses, so temperature-dependent)",
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
            "Tier-2 compiled-DAG lookups served from memory",
            Volatile,
        ),
        trace_misses: obs::counter(
            "hpcsim_cache_trace_misses_total",
            "Tier-2 compiled-DAG lookups that recorded and compiled the program",
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
    /// Optional root of tier 1's on-disk layer. Created on first use.
    pub dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { enabled: true, dir: None }
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
    /// Tier-2 (compiled-DAG) lookups served from memory.
    pub trace_hits: u64,
    /// Tier-2 (compiled-DAG) lookups that recorded and compiled the
    /// program.
    pub trace_misses: u64,
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

/// How a leader filled its slot. A value loaded from tier 1's disk
/// layer counts as a hit, a computed one as a miss.
enum Fill<V> {
    Loaded(V),
    Computed(V),
}

/// A tier's ready and in-flight slots, and its ready hashes oldest
/// first.
struct Slots<V> {
    map: HashMap<u128, Slot<V>>,
    fifo: VecDeque<u128>,
}

/// One tier: one lock over its slots, its capacity and its counters.
struct Tier<V> {
    cap: usize,
    slots: Mutex<Slots<V>>,
    hits: Stat,
    misses: Stat,
    coalesced: Stat,
    evictions: Stat,
}

impl<V: Clone> Tier<V> {
    fn new(cap: usize, hits: &'static obs::Counter, misses: &'static obs::Counter) -> Self {
        let m = metrics();
        Tier {
            cap,
            slots: Mutex::new(Slots { map: HashMap::new(), fifo: VecDeque::new() }),
            hits: Stat::new(hits),
            misses: Stat::new(misses),
            coalesced: Stat::new(m.coalesced),
            evictions: Stat::new(m.evictions),
        }
    }

    /// The dedupe engine of both tiers. Exactly one caller per hash
    /// fills the slot; everyone else gets its value (memory hit or
    /// flight coalesce).
    fn get_or_fill(
        &self,
        hash: SpecHash,
        fill: impl FnOnce() -> Result<Fill<V>, String>,
    ) -> Result<V, String> {
        let flight: Arc<Flight<V>>;
        {
            let mut slots = self.slots.lock().unwrap();
            match slots.map.get(&hash.0) {
                Some(Slot::Ready(v)) => {
                    self.hits.bump();
                    return Ok(v.clone());
                }
                Some(Slot::InFlight(f)) => {
                    let f = Arc::clone(f);
                    drop(slots);
                    self.coalesced.bump();
                    return f.wait().map_err(|e| format!("coalesced onto failed evaluation: {e}"));
                }
                None => {
                    flight = Arc::new(Flight::new());
                    slots.map.insert(hash.0, Slot::InFlight(Arc::clone(&flight)));
                }
            }
        }

        // We are the leader. Never hold the lock while filling.
        let filled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fill));
        let v = match filled {
            Ok(Ok(Fill::Loaded(v))) => {
                self.hits.bump();
                v
            }
            Ok(Ok(Fill::Computed(v))) => {
                self.misses.bump();
                v
            }
            Ok(Err(e)) => {
                self.misses.bump();
                flight.publish(Err(e.clone()));
                self.slots.lock().unwrap().map.remove(&hash.0);
                return Err(e);
            }
            Err(panic) => {
                // release followers, forget the slot, re-raise
                // (&*: coerce to the payload, not the Box-as-Any)
                flight.publish(Err(panic_message(&*panic)));
                self.slots.lock().unwrap().map.remove(&hash.0);
                std::panic::resume_unwind(panic);
            }
        };
        flight.publish(Ok(v.clone()));
        let mut slots = self.slots.lock().unwrap();
        slots.map.insert(hash.0, Slot::Ready(v.clone()));
        slots.fifo.push_back(hash.0);
        while slots.fifo.len() > self.cap {
            if let Some(old) = slots.fifo.pop_front() {
                if matches!(slots.map.get(&old), Some(Slot::Ready(_))) {
                    slots.map.remove(&old);
                    self.evictions.bump();
                }
            }
        }
        Ok(v)
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
    disk_result_hits: Stat,
    dags: Tier<Arc<TraceDag>>,
}

impl ScenarioCache {
    /// An empty cache with the given backing.
    pub fn new(cfg: CacheConfig) -> Self {
        let m = metrics();
        ScenarioCache {
            cfg,
            results: Tier::new(RESULT_CAP, m.result_hits, m.result_misses),
            disk_result_hits: Stat::new(m.disk_result_hits),
            dags: Tier::new(DAG_CAP, m.trace_hits, m.trace_misses),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let (r, t) = (&self.results, &self.dags);
        CacheStats {
            result_hits: r.hits.get(),
            result_misses: r.misses.get(),
            coalesced: r.coalesced.get() + t.coalesced.get(),
            disk_result_hits: self.disk_result_hits.get(),
            trace_hits: t.hits.get(),
            trace_misses: t.misses.get(),
            evictions: r.evictions.get() + t.evictions.get(),
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
        self.results.get_or_fill(hash, || {
            if let Some(v) = self.load_result(hash) {
                self.disk_result_hits.bump();
                return Ok(Fill::Loaded(v));
            }
            let v = timed()?;
            self.store_result(hash, &v);
            Ok(Fill::Computed(v))
        })
    }

    /// Tier-2 lookup: the shared compiled DAG for a program sub-hash,
    /// compiling it on a miss. Recording and compiling involve no
    /// machine model, so this never errors.
    pub fn dag(&self, program_hash: SpecHash, compile: impl FnOnce() -> TraceDag) -> Arc<TraceDag> {
        metrics().trace_lookups.inc();
        let compile = || Arc::new(compile());
        if !self.cfg.enabled {
            return compile();
        }
        self.dags
            .get_or_fill(program_hash, || Ok(Fill::Computed(compile())))
            .expect("compiling a recording is infallible")
    }

    // ----- tier 1's on-disk layer ----------------------------------------

    fn result_path(&self, hash: SpecHash) -> Option<PathBuf> {
        self.cfg.dir.as_ref().map(|d| d.join("results").join(hash.to_string()))
    }

    /// Read `<dir>/results/<hash>`. A missing file is the normal miss
    /// path; a failed read (permissions, I/O error) or a corrupt entry
    /// is absorbed — the entry is recomputed — but counted and
    /// diagnosed once.
    fn load_result(&self, hash: SpecHash) -> Option<Arc<Vec<f64>>> {
        let path = self.result_path(hash)?;
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                metrics().disk_errors.inc();
                log_warn_once!("cache: disk read of {} failed ({e}); recomputing", path.display());
                return None;
            }
        };
        metrics().disk_read_bytes.add(text.len() as u64);
        match parse_result_file(&text, hash) {
            Ok(v) => Some(Arc::new(v)),
            Err(e) => {
                metrics().disk_errors.inc();
                log_warn_once!(
                    "cache: corrupt result entry {} ignored ({e}); recomputing",
                    path.display()
                );
                None
            }
        }
    }

    /// Write a result through to disk. Failures leave the entry
    /// memory-only (results are unaffected) but are counted and
    /// diagnosed once.
    fn store_result(&self, hash: SpecHash, v: &[f64]) {
        let Some(path) = self.result_path(hash) else { return };
        let mut text = format!("{RESULT_MAGIC} {hash} {}\n", v.len());
        for &x in v {
            let _ = writeln!(text, "{}", Bits(x));
        }
        match write_atomic(&path, &text) {
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
}

/// First token of a result entry: `hpcsim-result/2 <spec-hash> <len>`,
/// then `len` lines of `0x`-prefixed f64 bit patterns.
const RESULT_MAGIC: &str = "hpcsim-result/2";

/// Parse a result entry stored under `hash`. The entry must name that
/// hash and hold exactly `len` values and nothing after them, so a
/// misnamed entry (another spec's result, possibly of another length),
/// a truncated one, or one from an older format is rejected — the
/// caller recomputes — instead of trusted by its filename.
fn parse_result_file(text: &str, hash: SpecHash) -> Result<Vec<f64>, ParseError> {
    let mut lines = Lines::new(text);
    let len: usize = lines.keyed(RESULT_MAGIC, |c| {
        let named = c.tok("hash")?;
        if named != hash.to_string() {
            return c.err(format!("entry of {named} stored under {hash}"));
        }
        c.num("length")
    })?;
    let mut out = Vec::new();
    for i in 0..len {
        let mut c = lines.expect(format_args!("value {i} of {len}"))?;
        out.push(c.bits("value")?);
        c.finish()?;
    }
    lines.finish()?;
    Ok(out)
}

/// Write `text` to `path` via a same-directory temp file + rename, so a
/// concurrent reader sees either nothing or the complete entry. Disk-
/// layer writes are best-effort — the caller ([`ScenarioCache::store_result`])
/// counts and reports failures; results never depend on them.
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
    use hpcsim_mpi::{Op, Traces};
    use std::sync::atomic::AtomicUsize;

    fn hash(n: u128) -> SpecHash {
        SpecHash(n)
    }

    fn mem_cache() -> ScenarioCache {
        ScenarioCache::new(CacheConfig::default())
    }

    fn mark_dag(ranks: u32) -> TraceDag {
        let world: Vec<Vec<Op>> = (0..ranks).map(|id| vec![Op::Mark { id }]).collect();
        TraceDag::compile(&Traces::from_rank_vecs(&world))
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
    fn fifo_eviction_drops_the_oldest_entry() {
        let m = metrics();
        let tier: Tier<u32> = Tier::new(1, m.result_hits, m.result_misses);
        for i in 0..4 {
            tier.get_or_fill(hash(i as u128), || Ok(Fill::Computed(i))).unwrap();
        }
        assert_eq!(tier.evictions.get(), 3);
        // the newest entry is kept, the oldest was evicted and refills
        assert_eq!(tier.get_or_fill(hash(3), || panic!("memory hit")), Ok(3));
        assert_eq!(tier.get_or_fill(hash(0), || Ok(Fill::Computed(9))), Ok(9));
        assert_eq!((tier.hits.get(), tier.misses.get()), (1, 5));
    }

    #[test]
    fn dags_sharing_low_hash_bits_all_stay() {
        let cache = mem_cache();
        // hashes ≡ 3 (mod 16): a store split by the low 4 bits would
        // keep only a few of them
        let h = |i: u128| hash(3 + 16 * i);
        let kept: Vec<Arc<TraceDag>> =
            (0..DAG_CAP as u128).map(|i| cache.dag(h(i), || mark_dag(1))).collect();
        for (i, dag) in kept.iter().enumerate() {
            let again = cache.dag(h(i as u128), || panic!("DAG {i} was evicted"));
            assert!(Arc::ptr_eq(dag, &again));
        }
        let s = cache.stats();
        assert_eq!((s.trace_hits, s.trace_misses, s.evictions), (64, 64, 0), "{s:?}");
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
    fn disk_layer_round_trips_results_but_not_dags() {
        let dir = std::env::temp_dir().join(format!("hpcsim-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig { dir: Some(dir.clone()), ..CacheConfig::default() };

        let a = ScenarioCache::new(cfg.clone());
        let v = a.result(hash(77), || Ok(vec![0.1, f64::INFINITY, -0.0])).unwrap();
        assert_eq!(a.dag(hash(78), || mark_dag(2)).ranks(), 2);

        // a fresh cache over the same dir serves the result without
        // computing, and compiles the DAG again
        let b = ScenarioCache::new(cfg);
        let v2 = b.result(hash(77), || panic!("must come from disk")).unwrap();
        assert_eq!(
            v2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let compiled = AtomicUsize::new(0);
        let d2 = b.dag(hash(78), || {
            compiled.fetch_add(1, Ordering::SeqCst);
            mark_dag(2)
        });
        assert_eq!(d2.ranks(), 2);
        assert_eq!(compiled.load(Ordering::SeqCst), 1);
        let s = b.stats();
        assert_eq!((s.disk_result_hits, s.trace_misses), (1, 1), "{s:?}");
        assert!(!dir.join("traces").exists(), "tier 2 stays in memory");
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

    /// A result entry's disk text, frozen: a change to it would turn
    /// every entry of an existing `--cache-dir` into a miss.
    const FROZEN_ENTRY: &str = "hpcsim-result/2 0123456789abcdef0123456789abcdef 4\n\
                                0x7ff8000000000001\n\
                                0x8000000000000000\n\
                                0x0000000000000001\n\
                                0x3ff8000000000000\n";

    #[test]
    fn result_entry_text_is_frozen() {
        let dir = std::env::temp_dir().join(format!("hpcsim-cache-frozen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = hash(0x0123456789abcdef0123456789abcdef);
        // a NaN with a payload, negative zero, the smallest subnormal
        let values = vec![f64::from_bits(0x7ff8_0000_0000_0001), -0.0, f64::from_bits(1), 1.5];
        let cfg = CacheConfig { dir: Some(dir.clone()), ..CacheConfig::default() };
        ScenarioCache::new(cfg).result(h, || Ok(values.clone())).unwrap();
        let path = dir.join("results").join(h.to_string());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), FROZEN_ENTRY);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&parse_result_file(FROZEN_ENTRY, h).unwrap()), bits(&values));
        for bad in [
            FROZEN_ENTRY.replacen("0x8000000000000000\n", "0x8000000000000000 0x0\n", 1),
            FROZEN_ENTRY.replacen(" 4\n", " 4 0x0\n", 1),
            FROZEN_ENTRY.replacen("0x0000000000000001\n", "", 1),
        ] {
            assert_ne!(bad, FROZEN_ENTRY);
            assert!(parse_result_file(&bad, h).is_err(), "accepted {bad:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
