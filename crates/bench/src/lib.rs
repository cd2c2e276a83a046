//! # hpcsim-bench
//!
//! Benchmark harness for the reproduction:
//!
//! * the `repro` binary (`cargo run -p hpcsim-bench --bin repro -- all`)
//!   regenerates every table and figure of the paper and writes text +
//!   CSV artifacts;
//! * Criterion benches (`cargo bench`) time the *real* kernels
//!   (`benches/kernels.rs`) and the simulator itself
//!   (`benches/simulator.rs`).
//!
//! The library part hosts small helpers shared by both.

use std::path::PathBuf;

/// Default artifact directory for `repro` output.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("target/repro")
}

/// Default path for the `--bench-json` wall-clock report.
pub fn default_bench_json() -> PathBuf {
    PathBuf::from("BENCH_repro.json")
}

/// Everything the `repro` CLI accepts.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// `--paper` (overridden back by a later `--quick`).
    pub paper: bool,
    /// `--out DIR` artifact directory.
    pub out: PathBuf,
    /// `--jobs N` worker count; `None` = auto (one per available core).
    pub jobs: Option<usize>,
    /// `--bench-json`: where to write the wall-clock report, if asked.
    pub bench_json: Option<PathBuf>,
    /// `--trace`: run the traced battery of each selected figure.
    pub trace: bool,
    /// `--trace-out FILE`: Chrome trace path (default `OUT/trace.json`).
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out FILE`: metrics report path (default
    /// `OUT/metrics.json`).
    pub metrics_out: Option<PathBuf>,
    /// `--bench-timestamp TS`: ISO-8601 stamp recorded in the
    /// `--bench-json` report. Passed in by the harness — the binary
    /// never reads the clock itself, so untimestamped reports stay
    /// byte-reproducible.
    pub bench_timestamp: Option<String>,
    /// `--faults SEED`: arm fault injection from this seed. `None` keeps
    /// the run pristine (byte-identical to the pre-fault binary).
    pub fault_seed: Option<u64>,
    /// `--fault-profile NAME`: which fault ingredients the armed plan
    /// enables (default `mixed`). Must be one of [`FAULT_PROFILES`].
    pub fault_profile: Option<String>,
    /// `--cache-dir DIR`: back the scenario cache with an on-disk
    /// store, so a second run starts warm. Output is byte-identical
    /// cold or warm. Conflicts with `--no-cache`.
    pub cache_dir: Option<PathBuf>,
    /// `--no-cache`: disable scenario memoization entirely (every
    /// query computes directly). Output is byte-identical either way.
    pub no_cache: bool,
    /// `--obs-out FILE`: write Prometheus text exposition to FILE and
    /// the structured `run_report.json` next to the artifacts; also
    /// renders the stderr summary table. Conflicts with `--no-obs`.
    pub obs_out: Option<PathBuf>,
    /// `--no-obs`: leave the harness metrics registry disabled (the
    /// default state is enabled-but-unexported). Output is
    /// byte-identical either way.
    pub no_obs: bool,
    /// `--log-level LEVEL`: stderr verbosity (default `info`). Must be
    /// one of [`LOG_LEVELS`].
    pub log_level: Option<String>,
    /// `--sensitivity SEED`: run the Monte-Carlo sensitivity battery
    /// from this seed after the selected experiments, printing the
    /// per-parameter table and writing `OUT/sensitivity.csv`. `None`
    /// skips the battery (the `--bench-json` report still runs it with
    /// seed 42 for the schema-v6 `sensitivity` entry).
    pub sensitivity: Option<u64>,
    /// `--fuzz`: run the coverage-guided adversarial fuzz battery after
    /// the selected experiments (which may be empty — `repro --fuzz`
    /// alone is valid). Corpus and findings land under
    /// `OUT/fuzz_corpus/` and `OUT/fuzz_findings/`.
    pub fuzz: bool,
    /// `--fuzz-seed SEED`: campaign root seed (default 42). Requires
    /// `--fuzz`.
    pub fuzz_seed: Option<u64>,
    /// `--fuzz-iters N`: candidate budget (default 256). Requires
    /// `--fuzz`.
    pub fuzz_iters: Option<u64>,
    /// `--fuzz-promote DIR`: additionally write each minimized finding
    /// into DIR as a regression `.fuzz` file plus a `MANIFEST.txt`
    /// entry (used to seed `tests/corpus/`). Requires `--fuzz`.
    pub fuzz_promote: Option<PathBuf>,
    /// Remaining positional args (experiment slugs).
    pub positional: Vec<String>,
}

/// Log levels the CLI accepts.
pub const LOG_LEVELS: [&str; 3] = ["quiet", "info", "debug"];

/// Fault profiles the CLI accepts. `selftest-panic` is the battery
/// harness's self-test: it arms a `mixed` plan and additionally injects
/// a deliberately-panicking scenario into the resilience battery.
pub const FAULT_PROFILES: [&str; 5] = ["link", "noise", "loss", "mixed", "selftest-panic"];

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag}: missing value"))
}

impl RunFlags {
    /// Parse and validate raw CLI args. Malformed input comes back as a
    /// one-line diagnostic for the caller to print before exiting 2:
    /// missing flag values, non-numeric `--jobs`/`--faults`, an unknown
    /// `--fault-profile`, or an unrecognized `--flag`.
    pub fn parse(args: &[String]) -> Result<RunFlags, String> {
        let mut flags = RunFlags {
            paper: false,
            out: default_out_dir(),
            jobs: None,
            bench_json: None,
            trace: false,
            trace_out: None,
            metrics_out: None,
            bench_timestamp: None,
            fault_seed: None,
            fault_profile: None,
            cache_dir: None,
            no_cache: false,
            obs_out: None,
            no_obs: false,
            log_level: None,
            sensitivity: None,
            fuzz: false,
            fuzz_seed: None,
            fuzz_iters: None,
            fuzz_promote: None,
            positional: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--paper" => flags.paper = true,
                "--quick" => flags.paper = false,
                "--out" => flags.out = PathBuf::from(take_value(args, &mut i, "--out")?),
                "--jobs" => {
                    let v = take_value(args, &mut i, "--jobs")?;
                    flags.jobs = Some(v.parse::<usize>().map_err(|_| {
                        format!("--jobs: expected a non-negative worker count, got {v:?}")
                    })?);
                }
                "--bench-json" => flags.bench_json = Some(default_bench_json()),
                "--trace" => flags.trace = true,
                "--trace-out" => {
                    flags.trace = true;
                    flags.trace_out = Some(PathBuf::from(take_value(args, &mut i, "--trace-out")?));
                }
                "--metrics-out" => {
                    flags.trace = true;
                    flags.metrics_out =
                        Some(PathBuf::from(take_value(args, &mut i, "--metrics-out")?));
                }
                "--bench-timestamp" => {
                    flags.bench_timestamp = Some(take_value(args, &mut i, "--bench-timestamp")?);
                }
                "--faults" => {
                    let v = take_value(args, &mut i, "--faults")?;
                    flags.fault_seed = Some(v.parse::<u64>().map_err(|_| {
                        format!("--faults: expected an unsigned integer seed, got {v:?}")
                    })?);
                }
                "--fault-profile" => {
                    let v = take_value(args, &mut i, "--fault-profile")?;
                    if !FAULT_PROFILES.contains(&v.as_str()) {
                        return Err(format!(
                            "--fault-profile: unknown profile {v:?} (expected one of {})",
                            FAULT_PROFILES.join("|")
                        ));
                    }
                    flags.fault_profile = Some(v);
                }
                "--cache-dir" => {
                    flags.cache_dir = Some(PathBuf::from(take_value(args, &mut i, "--cache-dir")?));
                }
                "--no-cache" => flags.no_cache = true,
                "--obs-out" => {
                    flags.obs_out = Some(PathBuf::from(take_value(args, &mut i, "--obs-out")?));
                }
                "--no-obs" => flags.no_obs = true,
                "--sensitivity" => {
                    let v = take_value(args, &mut i, "--sensitivity")?;
                    flags.sensitivity = Some(v.parse::<u64>().map_err(|_| {
                        format!("--sensitivity: expected an unsigned integer seed, got {v:?}")
                    })?);
                }
                "--fuzz" => flags.fuzz = true,
                "--fuzz-seed" => {
                    let v = take_value(args, &mut i, "--fuzz-seed")?;
                    flags.fuzz_seed = Some(v.parse::<u64>().map_err(|_| {
                        format!("--fuzz-seed: expected an unsigned integer seed, got {v:?}")
                    })?);
                }
                "--fuzz-iters" => {
                    let v = take_value(args, &mut i, "--fuzz-iters")?;
                    let n = v.parse::<u64>().map_err(|_| {
                        format!("--fuzz-iters: expected a positive iteration count, got {v:?}")
                    })?;
                    if n == 0 {
                        return Err("--fuzz-iters: iteration count must be positive".to_string());
                    }
                    flags.fuzz_iters = Some(n);
                }
                "--fuzz-promote" => {
                    flags.fuzz_promote =
                        Some(PathBuf::from(take_value(args, &mut i, "--fuzz-promote")?));
                }
                "--log-level" => {
                    let v = take_value(args, &mut i, "--log-level")?;
                    if !LOG_LEVELS.contains(&v.as_str()) {
                        return Err(format!(
                            "--log-level: unknown level {v:?} (expected one of {})",
                            LOG_LEVELS.join("|")
                        ));
                    }
                    flags.log_level = Some(v);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag {other:?}"));
                }
                other => flags.positional.push(other.to_string()),
            }
            i += 1;
        }
        if flags.fault_profile.is_some() && flags.fault_seed.is_none() {
            return Err("--fault-profile requires --faults SEED".to_string());
        }
        if flags.cache_dir.is_some() && flags.no_cache {
            return Err("--cache-dir conflicts with --no-cache".to_string());
        }
        if flags.obs_out.is_some() && flags.no_obs {
            return Err("--obs-out conflicts with --no-obs".to_string());
        }
        if !flags.fuzz {
            if flags.fuzz_seed.is_some() {
                return Err("--fuzz-seed requires --fuzz".to_string());
            }
            if flags.fuzz_iters.is_some() {
                return Err("--fuzz-iters requires --fuzz".to_string());
            }
            if flags.fuzz_promote.is_some() {
                return Err("--fuzz-promote requires --fuzz".to_string());
            }
        }
        Ok(flags)
    }

    /// Where the Chrome trace goes: explicit `--trace-out` or
    /// `OUT/trace.json`.
    pub fn trace_path(&self) -> PathBuf {
        self.trace_out.clone().unwrap_or_else(|| self.out.join("trace.json"))
    }

    /// Where the metrics report goes: explicit `--metrics-out` or
    /// `OUT/metrics.json`.
    pub fn metrics_path(&self) -> PathBuf {
        self.metrics_out.clone().unwrap_or_else(|| self.out.join("metrics.json"))
    }

    /// Where the structured run report goes when `--obs-out` is given:
    /// `OUT/run_report.json`. Written only alongside an explicit
    /// Prometheus export, so default artifact directories stay
    /// byte-identical across runs (the cache CLI tests diff them).
    pub fn run_report_path(&self) -> PathBuf {
        self.out.join("run_report.json")
    }
}

/// One timed phase of a repro run.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Experiment slug (or "ablations").
    pub name: String,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The `fig2_mapping_sweep` entry of the schema-v3 report: both engines
/// raced over the 32-point Fig 2(c,d) mapping scan on a contention-flat
/// BG/P (where the DAG path is live).
#[derive(Debug, Clone, Copy)]
pub struct SweepReport {
    /// Sweep points per engine.
    pub points: u64,
    /// Per-point replay wall seconds.
    pub replay_seconds: f64,
    /// Compile-once DAG wall seconds (compilation included).
    pub dag_seconds: f64,
    /// Task nodes in the largest compiled DAG.
    pub dag_nodes: u64,
    /// Dependency edges in the largest compiled DAG.
    pub dag_edges: u64,
    /// Whether every point agreed bit-for-bit across engines.
    pub engines_agree: bool,
}

impl SweepReport {
    /// Replay-over-DAG wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.replay_seconds / self.dag_seconds.max(1e-12)
    }
}

/// The `scenario_cache` entry of the schema-v4 report: the repeated
/// Fig 2(c,d)-style query mix run cold then warm against a fresh
/// scenario cache, with bit-identity checked on every warm lookup.
#[derive(Debug, Clone, Copy)]
pub struct CacheReport {
    /// Distinct scenario specs in the mix.
    pub points: u64,
    /// Queries issued per pass (every spec twice).
    pub queries: u64,
    /// Cold-pass wall seconds (cache empty).
    pub cold_seconds: f64,
    /// Warm-pass wall seconds (same queries again).
    pub warm_seconds: f64,
    /// Tier-1 result hits across both passes.
    pub result_hits: u64,
    /// Tier-1 result misses (= evaluations actually run).
    pub result_misses: u64,
    /// Queries coalesced onto an identical in-flight evaluation.
    pub coalesced: u64,
    /// Tier-2 compiled-DAG hits (0 on the contended BG/P the battery
    /// prices).
    pub trace_hits: u64,
    /// Whether every warm lookup returned the cold pass's exact bits.
    pub bitwise_identical: bool,
}

impl CacheReport {
    /// Cold-over-warm wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.cold_seconds / self.warm_seconds.max(1e-12)
    }
}

/// The `sensitivity` entry of the schema-v6 report: the Monte-Carlo
/// perturbation battery over the Fig 2 halo DAG, racing the wide-lane
/// batched evaluator against a one-sample-at-a-time loop over the same
/// seeded samples.
#[derive(Debug, Clone, Copy)]
pub struct SensitivityReport {
    /// Perturbation samples across all parameter-group rows.
    pub samples: u64,
    /// Unperturbed makespan, microseconds.
    pub baseline_us: f64,
    /// Wall seconds for the batched (32-wide chunked, parallel) pass.
    pub batched_seconds: f64,
    /// Wall seconds re-running the same samples one at a time.
    pub looped_seconds: f64,
    /// Whether an identity sample reproduced the baseline bit-for-bit.
    pub zero_identical: bool,
    /// Fraction of parameter-group cost arrays actually re-priced.
    pub repriced_fraction: f64,
    /// Samples evaluated per lane slot allocated (1.0 = no padding).
    pub batch_occupancy: f64,
}

impl SensitivityReport {
    /// Looped-over-batched wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.looped_seconds / self.batched_seconds.max(1e-12)
    }
}

/// The `obs` entry of the schema-v5 report: harness-level counters
/// lifted from the `hpcsim-obs` registry at the end of the run, so
/// future PRs can regress on cache hit rate and engine fallback counts,
/// not just wall-clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsReport {
    /// Scenario evaluations executed by the runner.
    pub scenarios: u64,
    /// Scenario evaluations isolated after panicking.
    pub scenario_panics: u64,
    /// Tier-1 cache lookups issued.
    pub cache_result_lookups: u64,
    /// Tier-1 lookups served from memory or disk.
    pub cache_result_hits: u64,
    /// Tier-1 lookups that evaluated.
    pub cache_result_misses: u64,
    /// Lookups coalesced onto an in-flight identical evaluation.
    pub cache_coalesced: u64,
    /// Disk-layer failures absorbed (reads, writes, corrupt entries).
    pub cache_disk_errors: u64,
    /// Sweep points evaluated by the DAG engine.
    pub dag_points: u64,
    /// Event-queue replays executed.
    pub replay_runs: u64,
    /// DAG-selected points sent to replay over contention exactness.
    pub fallback_contention: u64,
    /// DAG-selected points sent to replay over an armed fault plan.
    pub fallback_faults: u64,
    /// Perturbation samples priced through the batched evaluator.
    pub sens_samples: u64,
    /// Parameter-group cost arrays considered (4 per sample).
    pub sens_group_arrays: u64,
    /// Parameter-group cost arrays actually re-priced (rest copied).
    pub sens_repriced_arrays: u64,
    /// Lane slots allocated across perturbed batches (occupancy
    /// denominator).
    pub sens_lane_slots: u64,
}

impl ObsReport {
    /// Lift the counters from a registry snapshot.
    pub fn from_snapshot(snap: &hpcsim_obs::Snapshot) -> ObsReport {
        let get = |name: &str| snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
        ObsReport {
            scenarios: get("hpcsim_scenarios_total"),
            scenario_panics: get("hpcsim_scenario_panics_total"),
            cache_result_lookups: get("hpcsim_cache_result_lookups_total"),
            cache_result_hits: get("hpcsim_cache_result_hits_total"),
            cache_result_misses: get("hpcsim_cache_result_misses_total"),
            cache_coalesced: get("hpcsim_cache_coalesced_total"),
            cache_disk_errors: get("hpcsim_cache_disk_errors_total"),
            dag_points: get("hpcsim_dag_points_total"),
            replay_runs: get("hpcsim_replay_runs_total"),
            fallback_contention: get("hpcsim_sweep_fallback_contention_total"),
            fallback_faults: get("hpcsim_sweep_fallback_faults_total"),
            sens_samples: get("hpcsim_sens_samples_total"),
            sens_group_arrays: get("hpcsim_sens_group_arrays_total"),
            sens_repriced_arrays: get("hpcsim_sens_repriced_arrays_total"),
            sens_lane_slots: get("hpcsim_sens_lane_slots_total"),
        }
    }
}

/// Render the `--bench-json` report. Hand-rolled so the harness stays
/// dependency-free; the schema is flat enough that escaping never
/// matters (names are slugs, numbers are finite).
#[allow(clippy::too_many_arguments)]
pub fn bench_json_report(
    scale: &str,
    jobs: usize,
    phases: &[PhaseTiming],
    total_seconds: f64,
    generated_at: Option<&str>,
    sweep: Option<&SweepReport>,
    cache: Option<&CacheReport>,
    sensitivity: Option<&SensitivityReport>,
    obs: Option<&ObsReport>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"hpcsim-bench-repro/6\",\n");
    s.push_str("  \"schema_version\": 6,\n");
    match generated_at {
        // the stamp is injected by the harness (`--bench-timestamp`);
        // without one the report stays byte-reproducible
        Some(ts) => s.push_str(&format!("  \"generated_at\": \"{}\",\n", ts.replace('"', ""))),
        None => s.push_str("  \"generated_at\": null,\n"),
    }
    s.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}}}{comma}\n",
            p.name, p.seconds
        ));
    }
    s.push_str("  ],\n");
    match sweep {
        Some(w) => {
            s.push_str("  \"fig2_mapping_sweep\": {\n");
            s.push_str(&format!("    \"points\": {},\n", w.points));
            s.push_str(&format!("    \"replay_seconds\": {:.4},\n", w.replay_seconds));
            s.push_str(&format!("    \"dag_seconds\": {:.4},\n", w.dag_seconds));
            s.push_str(&format!("    \"speedup\": {:.2},\n", w.speedup()));
            s.push_str(&format!("    \"dag_nodes\": {},\n", w.dag_nodes));
            s.push_str(&format!("    \"dag_edges\": {},\n", w.dag_edges));
            s.push_str(&format!("    \"engines_agree\": {}\n", w.engines_agree));
            s.push_str("  },\n");
        }
        None => s.push_str("  \"fig2_mapping_sweep\": null,\n"),
    }
    match cache {
        Some(c) => {
            s.push_str("  \"scenario_cache\": {\n");
            s.push_str(&format!("    \"points\": {},\n", c.points));
            s.push_str(&format!("    \"queries\": {},\n", c.queries));
            s.push_str(&format!("    \"cold_seconds\": {:.4},\n", c.cold_seconds));
            s.push_str(&format!("    \"warm_seconds\": {:.4},\n", c.warm_seconds));
            s.push_str(&format!("    \"speedup\": {:.2},\n", c.speedup()));
            s.push_str(&format!("    \"result_hits\": {},\n", c.result_hits));
            s.push_str(&format!("    \"result_misses\": {},\n", c.result_misses));
            s.push_str(&format!("    \"coalesced\": {},\n", c.coalesced));
            s.push_str(&format!("    \"trace_hits\": {},\n", c.trace_hits));
            s.push_str(&format!("    \"bitwise_identical\": {}\n", c.bitwise_identical));
            s.push_str("  },\n");
        }
        None => s.push_str("  \"scenario_cache\": null,\n"),
    }
    match sensitivity {
        Some(x) => {
            s.push_str("  \"sensitivity\": {\n");
            s.push_str(&format!("    \"samples\": {},\n", x.samples));
            s.push_str(&format!("    \"baseline_us\": {:.3},\n", x.baseline_us));
            s.push_str(&format!("    \"batched_seconds\": {:.4},\n", x.batched_seconds));
            s.push_str(&format!("    \"looped_seconds\": {:.4},\n", x.looped_seconds));
            s.push_str(&format!("    \"speedup\": {:.2},\n", x.speedup()));
            s.push_str(&format!("    \"zero_identical\": {},\n", x.zero_identical));
            s.push_str(&format!("    \"repriced_fraction\": {:.4},\n", x.repriced_fraction));
            s.push_str(&format!("    \"batch_occupancy\": {:.4}\n", x.batch_occupancy));
            s.push_str("  },\n");
        }
        None => s.push_str("  \"sensitivity\": null,\n"),
    }
    match obs {
        Some(o) => {
            s.push_str("  \"obs\": {\n");
            s.push_str(&format!("    \"scenarios\": {},\n", o.scenarios));
            s.push_str(&format!("    \"scenario_panics\": {},\n", o.scenario_panics));
            s.push_str(&format!("    \"cache_result_lookups\": {},\n", o.cache_result_lookups));
            s.push_str(&format!("    \"cache_result_hits\": {},\n", o.cache_result_hits));
            s.push_str(&format!("    \"cache_result_misses\": {},\n", o.cache_result_misses));
            s.push_str(&format!("    \"cache_coalesced\": {},\n", o.cache_coalesced));
            s.push_str(&format!("    \"cache_disk_errors\": {},\n", o.cache_disk_errors));
            s.push_str(&format!("    \"dag_points\": {},\n", o.dag_points));
            s.push_str(&format!("    \"replay_runs\": {},\n", o.replay_runs));
            s.push_str(&format!("    \"fallback_contention\": {},\n", o.fallback_contention));
            s.push_str(&format!("    \"fallback_faults\": {},\n", o.fallback_faults));
            s.push_str(&format!("    \"sens_samples\": {},\n", o.sens_samples));
            s.push_str(&format!("    \"sens_group_arrays\": {},\n", o.sens_group_arrays));
            s.push_str(&format!("    \"sens_repriced_arrays\": {},\n", o.sens_repriced_arrays));
            s.push_str(&format!("    \"sens_lane_slots\": {}\n", o.sens_lane_slots));
            s.push_str("  },\n");
        }
        None => s.push_str("  \"obs\": null,\n"),
    }
    s.push_str(&format!("  \"total_seconds\": {total_seconds:.3}\n"));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_positionals() {
        let args: Vec<String> = ["fig3", "--paper", "--out", "/tmp/x", "table1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = RunFlags::parse(&args).expect("valid flags");
        assert!(f.paper);
        assert_eq!(f.out, PathBuf::from("/tmp/x"));
        assert_eq!(f.positional, vec!["fig3".to_string(), "table1".to_string()]);
    }

    #[test]
    fn defaults_are_quick() {
        let f = RunFlags::parse(&[]).expect("valid flags");
        assert!(!f.paper);
        assert_eq!(f.out, default_out_dir());
        assert!(f.positional.is_empty());
    }

    #[test]
    fn quick_flag_overrides() {
        let args: Vec<String> = ["--paper", "--quick"].iter().map(|s| s.to_string()).collect();
        assert!(!RunFlags::parse(&args).expect("valid flags").paper);
    }

    #[test]
    fn jobs_and_bench_json_flags() {
        let args: Vec<String> =
            ["--jobs", "4", "--bench-json", "all"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid flags");
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.bench_json, Some(default_bench_json()));
        assert_eq!(f.positional, vec!["all".to_string()]);
        // a malformed count is a diagnostic, not a silent fallback
        let args: Vec<String> = ["--jobs", "lots"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("bad count must be rejected");
        assert!(err.contains("--jobs"), "{err}");
        // so is a negative one
        let args: Vec<String> = ["--jobs", "-2"].iter().map(|s| s.to_string()).collect();
        assert!(RunFlags::parse(&args).is_err());
    }

    #[test]
    fn missing_values_and_unknown_flags_are_diagnosed() {
        for bad in [vec!["--out"], vec!["--jobs"], vec!["--trace-out"], vec!["--faults"]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = RunFlags::parse(&args).expect_err("dangling flag must be rejected");
            assert!(err.contains("missing value"), "{bad:?}: {err}");
            assert!(!err.contains('\n'), "diagnostic must be one line: {err}");
        }
        let args: Vec<String> = ["--frobnicate", "all"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("unknown flag must be rejected");
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let args: Vec<String> = ["--faults", "42", "--fault-profile", "link", "fig2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = RunFlags::parse(&args).expect("valid fault flags");
        assert_eq!(f.fault_seed, Some(42));
        assert_eq!(f.fault_profile.as_deref(), Some("link"));

        // --faults alone defaults the profile downstream; still valid here
        let args: Vec<String> = ["--faults", "7"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("seed without profile");
        assert_eq!(f.fault_seed, Some(7));
        assert_eq!(f.fault_profile, None);

        // a profile with no seed is a contradiction
        let args: Vec<String> =
            ["--fault-profile", "mixed"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("profile without seed");
        assert!(err.contains("--faults"), "{err}");

        // unknown profile and malformed seed
        let args: Vec<String> =
            ["--faults", "1", "--fault-profile", "meteor"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("unknown profile");
        assert!(err.contains("meteor") && err.contains("mixed"), "{err}");
        let args: Vec<String> = ["--faults", "-1"].iter().map(|s| s.to_string()).collect();
        assert!(RunFlags::parse(&args).is_err());
    }

    #[test]
    fn bench_json_is_parseable_shape() {
        let phases = vec![
            PhaseTiming { name: "table2".into(), seconds: 0.51 },
            PhaseTiming { name: "fig3".into(), seconds: 1.25 },
        ];
        let s = bench_json_report("quick", 8, &phases, 1.76, None, None, None, None, None);
        assert!(s.starts_with("{\n"));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("\"schema\": \"hpcsim-bench-repro/6\""));
        assert!(s.contains("\"schema_version\": 6"));
        assert!(s.contains("\"generated_at\": null"));
        assert!(s.contains("\"fig2_mapping_sweep\": null"));
        assert!(s.contains("\"scenario_cache\": null"));
        assert!(s.contains("\"sensitivity\": null"));
        assert!(s.contains("\"obs\": null"));
        assert!(s.contains("\"id\": \"table2\", \"seconds\": 0.510"));
        assert!(s.contains("\"total_seconds\": 1.760"));
        // one comma between the two experiment entries, none after the last
        assert_eq!(s.matches("},\n    {").count(), 1);
        assert!(s.contains("1.250}\n  ],"));
    }

    #[test]
    fn bench_json_records_harness_timestamp() {
        let s = bench_json_report(
            "quick",
            1,
            &[],
            0.0,
            Some("2026-08-05T00:00:00Z"),
            None,
            None,
            None,
            None,
        );
        assert!(s.contains("\"generated_at\": \"2026-08-05T00:00:00Z\""));
    }

    #[test]
    fn bench_json_records_sweep_entry() {
        let sweep = SweepReport {
            points: 32,
            replay_seconds: 0.48,
            dag_seconds: 0.012,
            dag_nodes: 12_288,
            dag_edges: 30_000,
            engines_agree: true,
        };
        assert!(sweep.speedup() > 39.0 && sweep.speedup() < 41.0);
        let s = bench_json_report("quick", 1, &[], 0.5, None, Some(&sweep), None, None, None);
        assert!(s.contains("\"fig2_mapping_sweep\": {"));
        assert!(s.contains("\"points\": 32"));
        assert!(s.contains("\"replay_seconds\": 0.4800"));
        assert!(s.contains("\"dag_seconds\": 0.0120"));
        assert!(s.contains("\"speedup\": 40.00"));
        assert!(s.contains("\"dag_nodes\": 12288"));
        assert!(s.contains("\"engines_agree\": true"));
    }

    #[test]
    fn bench_json_records_scenario_cache_entry() {
        let cache = CacheReport {
            points: 32,
            queries: 64,
            cold_seconds: 0.6,
            warm_seconds: 0.012,
            result_hits: 96,
            result_misses: 32,
            coalesced: 0,
            trace_hits: 28,
            bitwise_identical: true,
        };
        assert!(cache.speedup() > 49.0 && cache.speedup() < 51.0);
        let s = bench_json_report("quick", 1, &[], 0.7, None, None, Some(&cache), None, None);
        assert!(s.contains("\"scenario_cache\": {"));
        assert!(s.contains("\"queries\": 64"));
        assert!(s.contains("\"cold_seconds\": 0.6000"));
        assert!(s.contains("\"warm_seconds\": 0.0120"));
        assert!(s.contains("\"speedup\": 50.00"));
        assert!(s.contains("\"result_hits\": 96"));
        assert!(s.contains("\"trace_hits\": 28"));
        assert!(s.contains("\"bitwise_identical\": true"));
    }

    #[test]
    fn bench_json_records_obs_entry() {
        let obs = ObsReport {
            scenarios: 120,
            scenario_panics: 2,
            cache_result_lookups: 96,
            cache_result_hits: 64,
            cache_result_misses: 32,
            cache_coalesced: 4,
            cache_disk_errors: 0,
            dag_points: 48,
            replay_runs: 30,
            fallback_contention: 6,
            fallback_faults: 1,
            sens_samples: 1000,
            sens_group_arrays: 4000,
            sens_repriced_arrays: 1600,
            sens_lane_slots: 1024,
        };
        let s = bench_json_report("quick", 1, &[], 0.3, None, None, None, None, Some(&obs));
        assert!(s.contains("\"obs\": {"));
        assert!(s.contains("\"scenarios\": 120"));
        assert!(s.contains("\"scenario_panics\": 2"));
        assert!(s.contains("\"cache_result_lookups\": 96"));
        assert!(s.contains("\"cache_coalesced\": 4"));
        assert!(s.contains("\"dag_points\": 48"));
        assert!(s.contains("\"fallback_faults\": 1,\n"));
        assert!(s.contains("\"sens_samples\": 1000"));
        assert!(s.contains("\"sens_repriced_arrays\": 1600"));
        assert!(s.contains("\"sens_lane_slots\": 1024\n"));
    }

    #[test]
    fn bench_json_records_sensitivity_entry() {
        let sens = SensitivityReport {
            samples: 1000,
            baseline_us: 812.5,
            batched_seconds: 0.05,
            looped_seconds: 0.4,
            zero_identical: true,
            repriced_fraction: 0.4,
            batch_occupancy: 0.97,
        };
        assert!(sens.speedup() > 7.9 && sens.speedup() < 8.1);
        let s = bench_json_report("quick", 1, &[], 0.5, None, None, None, Some(&sens), None);
        assert!(s.contains("\"sensitivity\": {"));
        assert!(s.contains("\"samples\": 1000"));
        assert!(s.contains("\"baseline_us\": 812.500"));
        assert!(s.contains("\"batched_seconds\": 0.0500"));
        assert!(s.contains("\"looped_seconds\": 0.4000"));
        assert!(s.contains("\"speedup\": 8.00"));
        assert!(s.contains("\"zero_identical\": true"));
        assert!(s.contains("\"repriced_fraction\": 0.4000"));
        assert!(s.contains("\"batch_occupancy\": 0.9700"));
    }

    #[test]
    fn sensitivity_flag_parses_and_validates() {
        let args: Vec<String> =
            ["--sensitivity", "42", "fig2"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid sensitivity flag");
        assert_eq!(f.sensitivity, Some(42));
        assert_eq!(f.positional, vec!["fig2".to_string()]);
        // malformed and dangling seeds are one-line diagnostics
        let args: Vec<String> = ["--sensitivity", "lots"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("bad seed must be rejected");
        assert!(err.contains("--sensitivity"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err}");
        let args: Vec<String> = ["--sensitivity"].iter().map(|s| s.to_string()).collect();
        assert!(RunFlags::parse(&args).unwrap_err().contains("missing value"));
    }

    #[test]
    fn obs_report_lifts_counters_from_snapshot() {
        // from_snapshot keys on metric names; absent names read as zero
        let snap = hpcsim_obs::Snapshot {
            counters: vec![
                hpcsim_obs::CounterSnap {
                    name: "hpcsim_scenarios_total",
                    help: "",
                    class: hpcsim_obs::Class::Deterministic,
                    value: 17,
                },
                hpcsim_obs::CounterSnap {
                    name: "hpcsim_replay_runs_total",
                    help: "",
                    class: hpcsim_obs::Class::Volatile,
                    value: 5,
                },
            ],
            gauges: vec![],
            hists: vec![],
        };
        let o = ObsReport::from_snapshot(&snap);
        assert_eq!(o.scenarios, 17);
        assert_eq!(o.replay_runs, 5);
        assert_eq!(o.cache_result_lookups, 0, "missing counters default to zero");
    }

    #[test]
    fn obs_flags_parse_and_validate() {
        let args: Vec<String> =
            ["--obs-out", "/tmp/m.prom", "fig2"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid obs flags");
        assert_eq!(f.obs_out, Some(PathBuf::from("/tmp/m.prom")));
        assert!(!f.no_obs);
        assert_eq!(f.positional, vec!["fig2".to_string()]);

        let args: Vec<String> = ["--no-obs"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid no-obs flag");
        assert!(f.no_obs);
        assert_eq!(f.obs_out, None);

        // asking for an export while disabling collection is a contradiction
        let args: Vec<String> =
            ["--obs-out", "/tmp/m.prom", "--no-obs"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("conflicting obs flags");
        assert!(err.contains("--obs-out") && err.contains("--no-obs"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err}");

        // dangling value is diagnosed like every other flag
        let args: Vec<String> = ["--obs-out"].iter().map(|s| s.to_string()).collect();
        assert!(RunFlags::parse(&args).unwrap_err().contains("missing value"));
    }

    #[test]
    fn log_level_flag_parses_and_validates() {
        for level in LOG_LEVELS {
            let args: Vec<String> = ["--log-level", level].iter().map(|s| s.to_string()).collect();
            let f = RunFlags::parse(&args).expect("valid log level");
            assert_eq!(f.log_level.as_deref(), Some(level));
        }
        let args: Vec<String> = ["--log-level", "chatty"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("unknown level");
        assert!(err.contains("chatty") && err.contains("quiet|info|debug"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err}");
        let args: Vec<String> = ["--log-level"].iter().map(|s| s.to_string()).collect();
        assert!(RunFlags::parse(&args).unwrap_err().contains("missing value"));
    }

    #[test]
    fn cache_flags_parse_and_validate() {
        let args: Vec<String> =
            ["--cache-dir", "/tmp/c", "fig2"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid cache flags");
        assert_eq!(f.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert!(!f.no_cache);
        assert_eq!(f.positional, vec!["fig2".to_string()]);

        let args: Vec<String> = ["--no-cache", "fig2"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid no-cache flag");
        assert!(f.no_cache);
        assert_eq!(f.cache_dir, None);

        // the two are a contradiction, diagnosed on one line
        let args: Vec<String> =
            ["--cache-dir", "/tmp/c", "--no-cache"].iter().map(|s| s.to_string()).collect();
        let err = RunFlags::parse(&args).expect_err("conflicting cache flags");
        assert!(err.contains("--cache-dir") && err.contains("--no-cache"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err}");

        // dangling value is diagnosed like every other flag
        let args: Vec<String> = ["--cache-dir"].iter().map(|s| s.to_string()).collect();
        assert!(RunFlags::parse(&args).unwrap_err().contains("missing value"));
    }

    #[test]
    fn trace_flags_parse_and_default_paths() {
        let args: Vec<String> =
            ["--trace", "--out", "/tmp/r", "fig2"].iter().map(|s| s.to_string()).collect();
        let f = RunFlags::parse(&args).expect("valid trace flags");
        assert!(f.trace);
        assert_eq!(f.trace_path(), PathBuf::from("/tmp/r/trace.json"));
        assert_eq!(f.metrics_path(), PathBuf::from("/tmp/r/metrics.json"));

        let args: Vec<String> = [
            "--trace-out",
            "/tmp/t.json",
            "--metrics-out",
            "/tmp/m.json",
            "--bench-timestamp",
            "2026-01-01T00:00:00Z",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = RunFlags::parse(&args).expect("valid trace flags");
        // an explicit output path implies tracing
        assert!(f.trace);
        assert_eq!(f.trace_path(), PathBuf::from("/tmp/t.json"));
        assert_eq!(f.metrics_path(), PathBuf::from("/tmp/m.json"));
        assert_eq!(f.bench_timestamp.as_deref(), Some("2026-01-01T00:00:00Z"));
    }
}
