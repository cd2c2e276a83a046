//! End-to-end `--obs-out` exports from the `repro` CLI: the
//! `"deterministic"` block of `run_report.json` must be byte-identical
//! across `--jobs` counts and cache temperatures; the
//! Prometheus file must be real text exposition; and without
//! `--obs-out` no report file may appear (the cache CLI tests diff
//! artifact directories recursively, so a default report would break
//! cold/warm identity).

use std::path::Path;
use std::process::Command;

fn run_repro_raw(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary must run")
}

fn run_repro(args: &[&str]) -> std::process::Output {
    let out = run_repro_raw(args);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Drop the `# `-prefixed comment lines (timings, obs pointers).
fn strip_comments(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.starts_with("# "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"deterministic"` block, bytes included, as CI slices it out
/// with `sed -n '/"deterministic": {/,/^  },$/p'`.
fn deterministic_block(report: &str) -> String {
    let start = report.find("  \"deterministic\": {").expect("report has a deterministic block");
    let end = report[start..].find("  },\n").expect("block terminator") + start + 5;
    report[start..end].to_string()
}

#[test]
fn deterministic_block_survives_jobs_and_cache_temperature() {
    let base = std::env::temp_dir().join(format!("repro_obs_{}", std::process::id()));
    let cache = base.join("cache");
    let cache_str = cache.to_str().unwrap();

    // four fig2 runs that may only differ in *observed* telemetry
    let variants: &[(&str, &[&str])] = &[
        ("j1", &["--jobs", "1"]),
        ("j4", &["--jobs", "4"]),
        ("cold", &["--jobs", "1", "--cache-dir", cache_str]),
        ("warm", &["--jobs", "1", "--cache-dir", cache_str]),
    ];
    let mut blocks = Vec::new();
    for (tag, extra) in variants {
        let dir = base.join(tag);
        let prom = base.join(format!("{tag}.prom"));
        let mut args =
            vec!["fig2", "--out", dir.to_str().unwrap(), "--obs-out", prom.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = run_repro(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("# obs: run report:"), "{tag}: no report pointer\n{stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("# run metrics"), "{tag}: no stderr summary\n{stderr}");

        let report = read(&dir.join("run_report.json"));
        assert!(report.contains("\"schema\": \"hpcsim-obs-run-report/1\""), "{tag}");
        assert!(report.contains("\"observed\": {"), "{tag}");
        assert!(report.contains("\"timing\": {"), "{tag}");
        blocks.push((*tag, deterministic_block(&report)));

        let text = read(&prom);
        assert!(text.contains("# TYPE hpcsim_scenarios_total counter"), "{tag}:\n{text}");
        assert!(text.contains("# TYPE hpcsim_scenario_wall_ns histogram"), "{tag}");
        assert!(text.contains("hpcsim_scenario_wall_ns_bucket{le=\"+Inf\"}"), "{tag}");
        assert!(text.contains("# TYPE hpcsim_cache_result_lookups_total counter"), "{tag}");
    }

    let (tag0, want) = &blocks[0];
    assert!(want.contains("hpcsim_scenarios_total"), "block is empty:\n{want}");
    for (tag, block) in &blocks[1..] {
        assert_eq!(want, block, "deterministic block differs: {tag0} vs {tag}");
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn no_report_without_obs_out_and_no_obs_output_matches() {
    let base = std::env::temp_dir().join(format!("repro_noobs_{}", std::process::id()));
    let plain_dir = base.join("plain");
    let noobs_dir = base.join("noobs");

    let plain = run_repro(&["fig2", "--jobs", "1", "--out", plain_dir.to_str().unwrap()]);
    let noobs =
        run_repro(&["fig2", "--jobs", "1", "--no-obs", "--out", noobs_dir.to_str().unwrap()]);

    // no --obs-out: the artifact directory holds only experiment CSVs
    assert!(!plain_dir.join("run_report.json").exists(), "unrequested run_report.json");
    assert!(!noobs_dir.join("run_report.json").exists());

    // collection on (default) vs off may not change a byte of output
    assert_eq!(
        strip_comments(&plain.stdout),
        strip_comments(&noobs.stdout),
        "--no-obs changed experiment stdout"
    );
    for entry in std::fs::read_dir(&plain_dir).expect("plain artifact dir") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert_eq!(
            read(&plain_dir.join(&name)),
            read(&noobs_dir.join(&name)),
            "{name} differs under --no-obs"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn obs_flag_misuse_is_diagnosed_before_any_simulation() {
    // an export from a disabled registry is a contradiction: exit 2
    let out = run_repro_raw(&["fig2", "--obs-out", "/tmp/x.prom", "--no-obs"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--obs-out") && stderr.contains("--no-obs"), "{stderr}");

    // unknown log level: the parser's one-line diagnostic
    let out = run_repro_raw(&["fig2", "--log-level", "chatty"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("chatty") && stderr.contains("quiet|info|debug"), "{stderr}");

    // an unwritable --obs-out path fails early, like --trace-out
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/m.prom");
    let out = run_repro_raw(&["table1", "--obs-out", bad]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not writable"));
}
