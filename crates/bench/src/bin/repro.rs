//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # everything, quick scale
//! repro fig3 table3         # selected experiments
//! repro all --paper         # the paper's process counts (slow)
//! repro all --out results/  # artifact directory (default target/repro)
//! repro all --jobs 1        # sequential (output is identical at any N)
//! repro all --bench-json    # write BENCH_repro.json wall-clock report
//! repro fig2 --trace        # also run the traced battery: Chrome
//!                           # trace + span CSV + metrics + breakdowns
//! repro fig2 --trace-out t.json --metrics-out m.json
//! repro fig2 --faults 42    # fault injection (mixed profile) + the
//!                           # resilience battery and resilience.csv
//! repro fig2 --faults 42 --fault-profile link
//! repro fig2 --cache-dir .cache  # disk-backed scenario cache: a second
//!                           # run starts warm (same output, less time)
//! repro fig2 --no-cache     # disable scenario memoization entirely
//! repro fig2 --obs-out m.prom    # harness metrics: Prometheus text to
//!                           # m.prom, run_report.json next to the CSVs,
//!                           # summary table on stderr
//! repro fig2 --no-obs       # keep the metrics registry disabled
//! repro fig2 --log-level quiet   # errors only (also: info, debug)
//! repro fig2 --sensitivity 42    # Monte-Carlo sensitivity battery:
//!                           # per-parameter table + sensitivity.csv
//! ```
//!
//! Each experiment prints its rendered tables/figure data to stdout and
//! writes CSV files to the artifact directory. Experiments fan their
//! simulation points out over `--jobs` workers (default: one per
//! available core); results are assembled in a fixed order, so the
//! artifacts are byte-identical regardless of the worker count. Every
//! point is priced on the trace DAG where that is exact (a
//! contention-flat machine, no fault plan) and replayed elsewhere;
//! there is no engine flag.

use hpcsim_bench::{
    bench_json_report, CacheReport, ObsReport, PhaseTiming, RunFlags, SensitivityReport,
    SweepReport,
};
use hpcsim_core::{
    log_error, log_warn, run_experiment, set_jobs, set_log_level, ExperimentId, LogLevel, Scale,
};
use hpcsim_faults::{FaultPlan, FaultProfile};
use hpcsim_obs as obs;
use std::time::Instant;

fn usage() -> ! {
    log_error!(
        "usage: repro [--paper] [--out DIR] [--jobs N] [--bench-json] [--bench-timestamp TS] \
         [--cache-dir DIR | --no-cache] \
         [--trace] [--trace-out FILE] [--metrics-out FILE] \
         [--faults SEED] [--fault-profile link|noise|loss|mixed] \
         [--obs-out FILE | --no-obs] [--log-level quiet|info|debug] [--sensitivity SEED] \
         [--fuzz] [--fuzz-seed SEED] [--fuzz-iters N] [--fuzz-promote DIR] \
         all|table1|table2|fig1|fig2|fig3|top500|fig4|fig5|fig6|fig7|fig8|table3|ablations ..."
    );
    std::process::exit(2);
}

/// Fail early (exit 2) when an output file can't be created, instead of
/// discovering it after minutes of simulation.
fn ensure_writable(path: &std::path::Path) {
    let attempt = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path).map(|_| ())
    };
    if let Err(e) = attempt() {
        log_error!("repro: {}: not writable: {e}", path.display());
        std::process::exit(2);
    }
}

/// Fail early (exit 2) when the scenario-cache directory can't take
/// writes — same convention as the trace/metrics paths: discover the
/// problem before the simulation, not after it.
fn ensure_cache_dir(dir: &std::path::Path) {
    let attempt = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let probe = dir.join(".write-probe");
        std::fs::write(&probe, b"")?;
        std::fs::remove_file(&probe)
    };
    if let Err(e) = attempt() {
        log_error!("repro: {}: not writable: {e}", dir.display());
        std::process::exit(2);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let flags = match RunFlags::parse(&raw) {
        Ok(f) => f,
        Err(e) => {
            log_error!("repro: {e}");
            usage();
        }
    };
    if let Some(level) = &flags.log_level {
        set_log_level(LogLevel::parse(level).expect("RunFlags::parse validated the level"));
    }
    // The registry is on by default: ~one relaxed atomic load per
    // counter site, bounded by the <2% guard in obs_overhead.rs.
    if !flags.no_obs {
        obs::set_enabled(true);
    }
    // `repro --fuzz` with no experiment slugs is a valid run: the fuzz
    // battery is self-contained.
    if flags.positional.is_empty() && !flags.fuzz {
        usage();
    }
    if let Some(n) = flags.jobs {
        set_jobs(n);
    }
    let scale = if flags.paper { Scale::Paper } else { Scale::Quick };
    let out_dir = &flags.out;
    if flags.trace {
        ensure_writable(&flags.trace_path());
        ensure_writable(&flags.metrics_path());
    }
    if let Some(path) = &flags.obs_out {
        ensure_writable(path);
        ensure_writable(&flags.run_report_path());
    }
    let mut cache_cfg = hpcsim_cache::CacheConfig::default();
    if flags.no_cache {
        cache_cfg.enabled = false;
    }
    if let Some(dir) = &flags.cache_dir {
        ensure_cache_dir(dir);
        cache_cfg.dir = Some(dir.clone());
    }
    hpcsim_cache::configure(cache_cfg);

    let want_ablations = flags.positional.iter().any(|p| p == "ablations" || p == "all");
    let ids: Vec<ExperimentId> = if flags.positional.iter().any(|p| p == "all") {
        ExperimentId::all().to_vec()
    } else {
        flags
            .positional
            .iter()
            .filter(|p| p.as_str() != "ablations")
            .map(|p| {
                ExperimentId::from_slug(p).unwrap_or_else(|| {
                    log_error!("repro: unknown experiment {p:?}");
                    usage()
                })
            })
            .collect()
    };

    println!("# Early Evaluation of IBM BlueGene/P (SC08) — reproduction run");
    println!("# scale: {scale:?}; jobs: {}; artifacts: {}", hpcsim_core::jobs(), out_dir.display());
    let battery_start = Instant::now();
    let mut timings: Vec<PhaseTiming> = Vec::new();
    for id in ids {
        let start = Instant::now();
        let artifact = run_experiment(id, scale);
        print!("{}", artifact.render());
        let seconds = start.elapsed().as_secs_f64();
        match artifact.write_csv(out_dir) {
            Ok(paths) => {
                println!("# {}: {} artifact file(s) in {seconds:.1}s\n", id.slug(), paths.len());
            }
            Err(e) => log_warn!("# {}: CSV write failed: {e}", id.slug()),
        }
        timings.push(PhaseTiming { name: id.slug().to_string(), seconds });
    }
    if want_ablations {
        let start = Instant::now();
        let ranks = if flags.paper { 2048 } else { 512 };
        let table = hpcsim_core::ablation_table(ranks);
        print!("{}", table.render());
        let _ = std::fs::create_dir_all(out_dir);
        let _ = std::fs::write(out_dir.join("ablations.csv"), table.to_csv());
        let seconds = start.elapsed().as_secs_f64();
        println!("# ablations: done in {seconds:.1}s\n");
        timings.push(PhaseTiming { name: "ablations".to_string(), seconds });
    }

    if flags.trace {
        let start = Instant::now();
        run_traced_battery(&flags, scale);
        timings.push(PhaseTiming {
            name: "trace".to_string(),
            seconds: start.elapsed().as_secs_f64(),
        });
    }

    let mut battery_ok = true;
    if flags.fault_seed.is_some() {
        let start = Instant::now();
        battery_ok = run_resilience(&flags, scale);
        timings.push(PhaseTiming {
            name: "resilience".to_string(),
            seconds: start.elapsed().as_secs_f64(),
        });
    }

    if flags.fuzz {
        let start = Instant::now();
        battery_ok &= run_fuzz_battery(&flags);
        timings
            .push(PhaseTiming { name: "fuzz".to_string(), seconds: start.elapsed().as_secs_f64() });
    }

    let mut sens_stats: Option<hpcsim_core::SensitivityStats> = None;
    if let Some(seed) = flags.sensitivity {
        let start = Instant::now();
        sens_stats = Some(run_sensitivity(&flags, scale, seed));
        timings.push(PhaseTiming {
            name: "sensitivity".to_string(),
            seconds: start.elapsed().as_secs_f64(),
        });
    }

    let total = battery_start.elapsed().as_secs_f64();
    println!(
        "# total: {} experiment(s) in {total:.1}s (jobs={})",
        timings.len(),
        hpcsim_core::jobs()
    );
    // One greppable line per run so the CI smoke can assert the warm
    // run actually hit (`# `-prefixed: stripped output stays identical
    // cold, warm, or with the cache off).
    if flags.no_cache {
        println!("# scenario cache: disabled (--no-cache)");
    } else {
        let s = hpcsim_cache::global().stats();
        println!(
            "# scenario cache: {} result hits ({} disk), {} misses, {} coalesced; \
             traces: {} hits, {} misses",
            s.result_hits,
            s.disk_result_hits,
            s.result_misses,
            s.coalesced,
            s.trace_hits,
            s.trace_misses
        );
    }
    if let Some(path) = &flags.bench_json {
        let scale_name = if flags.paper { "paper" } else { "quick" };
        // Race both sweep engines over the Fig 2(c,d) mapping scan on a
        // contention-flat BG/P so the DAG speedup (and exactness) is
        // tracked with every recorded report.
        let s = hpcsim_core::fig2_mapping_sweep(scale);
        let sweep = SweepReport {
            points: s.points,
            replay_seconds: s.replay_seconds,
            dag_seconds: s.dag_seconds,
            dag_nodes: s.dag_nodes,
            dag_edges: s.dag_edges,
            engines_agree: s.engines_agree,
        };
        println!(
            "# fig2 mapping sweep: {} points; replay {:.3}s, dag {:.3}s ({:.1}x); engines agree: {}",
            sweep.points,
            sweep.replay_seconds,
            sweep.dag_seconds,
            sweep.speedup(),
            sweep.engines_agree
        );
        // Run the repeated query mix cold then warm against a fresh
        // cache so the memoization speedup (and bit-identity) is
        // tracked with every recorded report.
        let c = hpcsim_core::scenario_cache_battery(scale);
        let cache = CacheReport {
            points: c.points,
            queries: c.queries,
            cold_seconds: c.cold_seconds,
            warm_seconds: c.warm_seconds,
            result_hits: c.result_hits,
            result_misses: c.result_misses,
            coalesced: c.coalesced,
            trace_hits: c.trace_hits,
            bitwise_identical: c.bitwise_identical,
        };
        println!(
            "# scenario cache battery: {} points x2; cold {:.3}s, warm {:.3}s ({:.0}x); \
             bit-identical: {}",
            cache.points,
            cache.cold_seconds,
            cache.warm_seconds,
            cache.speedup(),
            cache.bitwise_identical
        );
        // Track the batched-over-looped Monte-Carlo throughput with
        // every recorded report. An explicit `--sensitivity` run is
        // reused; otherwise the battery runs here from the default
        // seed.
        let x = sens_stats.take().unwrap_or_else(|| hpcsim_core::sensitivity_battery(scale, 42));
        let sens = SensitivityReport {
            samples: x.samples,
            baseline_us: x.baseline_us,
            batched_seconds: x.batched_seconds,
            looped_seconds: x.looped_seconds,
            zero_identical: x.zero_identical,
            repriced_fraction: x.repriced_fraction,
            batch_occupancy: x.batch_occupancy,
        };
        println!(
            "# sensitivity battery: {} samples; batched {:.3}s, looped {:.3}s ({:.1}x); \
             zero-identical: {}; repriced {:.0}% of arrays, occupancy {:.0}%",
            sens.samples,
            sens.batched_seconds,
            sens.looped_seconds,
            sens.speedup(),
            sens.zero_identical,
            100.0 * sens.repriced_fraction,
            100.0 * sens.batch_occupancy
        );
        let obs_report = (!flags.no_obs).then(|| ObsReport::from_snapshot(&obs::snapshot()));
        let report = bench_json_report(
            scale_name,
            hpcsim_core::jobs(),
            &timings,
            total,
            flags.bench_timestamp.as_deref(),
            Some(&sweep),
            Some(&cache),
            Some(&sens),
            obs_report.as_ref(),
        );
        match std::fs::write(path, report) {
            Ok(()) => println!("# wall-clock report: {}", path.display()),
            Err(e) => log_warn!("# bench-json write failed: {e}"),
        }
    }
    if let Some(prom_path) = &flags.obs_out {
        // Snapshot last so the export covers everything the process did,
        // including the bench batteries above.
        let snap = obs::snapshot();
        match std::fs::write(prom_path, obs::prometheus_text(&snap)) {
            Ok(()) => println!("# obs: Prometheus metrics: {}", prom_path.display()),
            Err(e) => log_warn!("# obs: Prometheus write failed: {e}"),
        }
        let report_path = flags.run_report_path();
        let _ = std::fs::create_dir_all(&flags.out);
        match std::fs::write(&report_path, obs::run_report_json(&snap)) {
            Ok(()) => println!("# obs: run report: {}", report_path.display()),
            Err(e) => log_warn!("# obs: run report write failed: {e}"),
        }
        eprint!("{}", obs::summary_table(&snap));
    }
    if !battery_ok {
        std::process::exit(1);
    }
}

/// The armed fault plan, when `--faults` was given. `selftest-panic`
/// arms a mixed plan (the panic injection lives in the battery, not the
/// plan).
fn fault_plan(flags: &RunFlags) -> Option<FaultPlan> {
    let seed = flags.fault_seed?;
    let profile = match flags.fault_profile.as_deref() {
        Some("link") => FaultProfile::Link,
        Some("noise") => FaultProfile::Noise,
        Some("loss") => FaultProfile::Loss,
        _ => FaultProfile::Mixed,
    };
    Some(FaultPlan::new(seed, profile))
}

/// Run the resilience battery: the Fig 2 halo sweep pristine and under
/// every fault profile, with per-scenario panic isolation. Prints the
/// slowdown table (`# `-prefixed), writes `resilience.csv`, and reports
/// any scenario failure on stderr. Returns false iff a scenario failed.
fn run_resilience(flags: &RunFlags, scale: Scale) -> bool {
    let seed = flags.fault_seed.expect("caller checked --faults");
    let inject_panic = flags.fault_profile.as_deref() == Some("selftest-panic");
    let report = hpcsim_core::resilience_battery(seed, scale, inject_panic);
    for line in report.table.render().lines() {
        println!("# {line}");
    }
    let _ = std::fs::create_dir_all(&flags.out);
    let path = flags.out.join("resilience.csv");
    match std::fs::write(&path, report.table.to_csv()) {
        Ok(()) => println!("# resilience: summary CSV: {}", path.display()),
        Err(e) => log_warn!("# resilience: CSV write failed: {e}"),
    }
    for e in &report.errors {
        log_error!("# resilience: scenario {} ({}) failed: {}", e.index, e.label, e.message);
    }
    report.all_ok()
}

/// Run the coverage-guided fuzz battery: a deterministic campaign from
/// `(--fuzz-seed, --fuzz-iters)`, corpus artifacts under
/// `OUT/fuzz_corpus/`, minimized findings under `OUT/fuzz_findings/`,
/// and optionally promoted regression files (`--fuzz-promote DIR`).
///
/// The campaign summary prints as *plain* stdout lines (not
/// `# `-prefixed): it is part of the deterministic output contract and
/// CI byte-diffs it across `--jobs 1` and `--jobs 4`. Returns false
/// iff the campaign is dirty — an unminimized finding or a missed
/// canary (see `FuzzReport::ok`).
fn run_fuzz_battery(flags: &RunFlags) -> bool {
    let cfg = hpcsim_fuzz::FuzzConfig {
        seed: flags.fuzz_seed.unwrap_or(42),
        iters: flags.fuzz_iters.unwrap_or(256),
        ..Default::default()
    };
    let report = hpcsim_fuzz::run_fuzz(&cfg);
    print!("{}", report.summary());

    let corpus_dir = flags.out.join("fuzz_corpus");
    let _ = std::fs::create_dir_all(&corpus_dir);
    let mut manifest = String::new();
    for (i, entry) in report.corpus.iter().enumerate() {
        let name = format!("{i:04}-{}.fuzz", entry.hash);
        if let Err(e) = std::fs::write(corpus_dir.join(&name), entry.scenario.to_canon()) {
            log_warn!("# fuzz: corpus write failed: {e}");
        }
        manifest.push_str(&format!(
            "{name} {} iter {} new-features {}\n",
            entry.outcome.label(),
            entry.iteration,
            entry.new_features
        ));
    }
    if let Err(e) = std::fs::write(corpus_dir.join("MANIFEST.txt"), &manifest) {
        log_warn!("# fuzz: corpus manifest write failed: {e}");
    }
    println!("# fuzz: {} corpus file(s) in {}", report.corpus.len(), corpus_dir.display());

    let findings_dir = flags.out.join("fuzz_findings");
    let _ = std::fs::create_dir_all(&findings_dir);
    let mut fmanifest = String::new();
    for f in &report.findings {
        let name = format!("{}{}.fuzz", f.kind.label(), if f.canary { "-canary" } else { "" });
        if let Err(e) = std::fs::write(findings_dir.join(&name), f.scenario.to_canon()) {
            log_warn!("# fuzz: finding write failed: {e}");
        }
        fmanifest.push_str(&format!("{name} {} ops {}\n", f.kind.label(), f.scenario.total_ops()));
    }
    if let Err(e) = std::fs::write(findings_dir.join("MANIFEST.txt"), &fmanifest) {
        log_warn!("# fuzz: findings manifest write failed: {e}");
    }
    println!("# fuzz: {} finding(s) in {}", report.findings.len(), findings_dir.display());

    if let Some(dir) = &flags.fuzz_promote {
        let _ = std::fs::create_dir_all(dir);
        let mut pmanifest = String::new();
        for f in &report.findings {
            let name = format!("{}{}.fuzz", f.kind.label(), if f.canary { "-canary" } else { "" });
            if let Err(e) = std::fs::write(dir.join(&name), f.scenario.to_canon()) {
                log_warn!("# fuzz: promote write failed: {e}");
            }
            pmanifest.push_str(&format!("{name} {}\n", f.kind.label()));
        }
        if let Err(e) = std::fs::write(dir.join("MANIFEST.txt"), &pmanifest) {
            log_warn!("# fuzz: promote manifest write failed: {e}");
        }
        println!("# fuzz: promoted {} regression(s) to {}", report.findings.len(), dir.display());
    }

    if !report.ok() {
        log_error!("# fuzz: campaign dirty (unminimized finding or missed canary)");
    }
    report.ok()
}

/// Run the Monte-Carlo sensitivity battery from the given seed: print
/// the per-parameter table (`# `-prefixed — stripped output stays
/// byte-identical with and without the flag) and write
/// `sensitivity.csv`. The CSV holds only deterministic statistics, so
/// it is byte-identical across `--jobs` counts; wall-clock lives in the
/// stderr line and the `--bench-json` entry.
fn run_sensitivity(flags: &RunFlags, scale: Scale, seed: u64) -> hpcsim_core::SensitivityStats {
    let stats = hpcsim_core::sensitivity_battery(scale, seed);
    let table = stats.table();
    for line in table.render().lines() {
        println!("# {line}");
    }
    println!(
        "# sensitivity: {} samples (seed {seed}); baseline {:.1}us; zero-identical: {}",
        stats.samples, stats.baseline_us, stats.zero_identical
    );
    let _ = std::fs::create_dir_all(&flags.out);
    let path = flags.out.join("sensitivity.csv");
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => println!("# sensitivity: summary CSV: {}", path.display()),
        Err(e) => log_warn!("# sensitivity: CSV write failed: {e}"),
    }
    stats
}

/// Run the traced battery of every selected figure that has one, write
/// the Chrome trace + span CSV + metrics report, and print the time
/// breakdowns. Everything tracing adds to stdout is `# `-prefixed so
/// the untraced output stays byte-identical after comment stripping.
fn run_traced_battery(flags: &RunFlags, scale: Scale) {
    let selected: Vec<ExperimentId> = hpcsim_core::traceable()
        .into_iter()
        .filter(|id| flags.positional.iter().any(|p| p == "all" || p == id.slug()))
        .collect();
    if selected.is_empty() {
        println!("# trace: none of the selected experiments has a traced battery");
        return;
    }
    let plan = fault_plan(flags);
    if let Some(p) = &plan {
        println!("# trace: faults armed (seed {}, profile {})", p.seed(), p.profile().label());
    }
    let reports: Vec<hpcsim_core::TraceReport> = selected
        .iter()
        .filter_map(|&id| hpcsim_core::trace_experiment(id, scale, plan.as_ref()))
        .collect();

    for report in &reports {
        let table = hpcsim_core::breakdown_table(report);
        for line in table.render().lines() {
            println!("# {line}");
        }
        let _ = std::fs::create_dir_all(&flags.out);
        let path = flags.out.join(format!("{}_breakdown.csv", report.id.slug()));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            log_warn!("# trace: breakdown CSV write failed: {e}");
        }
    }

    let trace_path = flags.trace_path();
    let metrics_path = flags.metrics_path();
    for path in [&trace_path, &metrics_path] {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
    }

    let trace = hpcsim_core::chrome_json(&reports);
    if let Err(e) = hpcsim_probe::validate_trace(&trace) {
        log_error!("# trace: generated Chrome trace failed validation: {e}");
        std::process::exit(1);
    }
    match std::fs::write(&trace_path, &trace) {
        Ok(()) => println!("# trace: Chrome trace (Perfetto-loadable): {}", trace_path.display()),
        Err(e) => log_warn!("# trace: write failed: {e}"),
    }
    let spans_path = flags.out.join("trace_spans.csv");
    let _ = std::fs::write(&spans_path, hpcsim_core::spans_csv(&reports));
    println!("# trace: span CSV: {}", spans_path.display());

    match std::fs::write(&metrics_path, hpcsim_core::metrics_json(&reports)) {
        Ok(()) => println!("# trace: metrics report: {}", metrics_path.display()),
        Err(e) => log_warn!("# trace: metrics write failed: {e}"),
    }
}
