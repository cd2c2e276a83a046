//! End-to-end determinism of the `repro` CLI under the scenario cache:
//! a cold run (empty `--cache-dir`), a warm run (same dir, second
//! time), and a `--no-cache` run must all produce byte-identical
//! stdout (after `# ` comment stripping — cache statistics ride on
//! comment lines) and byte-identical CSV artifacts, at any `--jobs`
//! count. The warm run must actually hit.

use std::path::Path;
use std::process::Command;

fn run_repro_raw(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary must run")
}

fn run_repro(args: &[&str]) -> String {
    let out = run_repro_raw(args);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro output is UTF-8")
}

/// Drop the `# `-prefixed comment lines (timings, cache statistics).
fn strip_comments(stdout: &str) -> String {
    stdout.lines().filter(|l| !l.starts_with("# ")).collect::<Vec<_>>().join("\n")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("missing artifact {name}: {e}"))
}

/// The tier-1 hit count from the run's `# scenario cache:` line.
fn result_hits(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("# scenario cache:"))
        .expect("run must print a scenario-cache line");
    line.strip_prefix("# scenario cache: ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable cache line: {line}"))
}

#[test]
fn warm_and_cold_runs_are_byte_identical_across_jobs() {
    let base = std::env::temp_dir().join(format!("repro_cache_{}", std::process::id()));
    let cache = base.join("cache");
    let cold_dir = base.join("cold");
    let warm_dir = base.join("warm");
    let warm4_dir = base.join("warm4");
    let plain_dir = base.join("plain");
    let cache_str = cache.to_str().unwrap();

    // fig2: every mapping is its own tier-1 entry
    let cold = run_repro(&[
        "fig2",
        "--jobs",
        "1",
        "--cache-dir",
        cache_str,
        "--out",
        cold_dir.to_str().unwrap(),
    ]);
    // recordings stay in memory: the store holds results only
    assert!(!cache.join("traces").exists(), "cold run must write no recordings");
    let warm = run_repro(&[
        "fig2",
        "--jobs",
        "1",
        "--cache-dir",
        cache_str,
        "--out",
        warm_dir.to_str().unwrap(),
    ]);
    let warm4 = run_repro(&[
        "fig2",
        "--jobs",
        "4",
        "--cache-dir",
        cache_str,
        "--out",
        warm4_dir.to_str().unwrap(),
    ]);
    let plain = run_repro(&["fig2", "--no-cache", "--out", plain_dir.to_str().unwrap()]);

    // memoization may only change *when* simulations run, never output:
    // cold, warm, any worker count, or no cache at all
    assert_eq!(strip_comments(&cold), strip_comments(&warm), "cold vs warm stdout");
    assert_eq!(strip_comments(&warm), strip_comments(&warm4), "jobs 1 vs 4 stdout");
    assert_eq!(strip_comments(&cold), strip_comments(&plain), "cached vs --no-cache stdout");

    let mut compared = 0;
    for entry in std::fs::read_dir(&cold_dir).expect("cold artifact dir") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let want = read(&cold_dir, &name);
        assert_eq!(want, read(&warm_dir, &name), "{name} differs warm");
        assert_eq!(want, read(&warm4_dir, &name), "{name} differs at --jobs 4");
        assert_eq!(want, read(&plain_dir, &name), "{name} differs with --no-cache");
        compared += 1;
    }
    assert!(compared > 0, "fig2 must write artifacts");

    // the disk store persisted results and the warm runs actually hit
    assert!(cache.join("results").is_dir(), "disk store must materialize");
    assert!(result_hits(&warm) > 0, "second run must hit the disk-backed cache:\n{warm}");
    assert!(result_hits(&warm4) > 0, "jobs-4 run must hit too");
    assert!(plain.contains("# scenario cache: disabled (--no-cache)"), "{plain}");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn cache_flag_misuse_is_diagnosed_before_any_simulation() {
    // conflicting flags exit 2 with the parser's one-line diagnostic
    let out = run_repro_raw(&["fig2", "--cache-dir", "/tmp/x", "--no-cache"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-dir") && stderr.contains("--no-cache"), "{stderr}");

    // an unwritable cache dir (a path "under" a regular file) exits 2
    // early, matching the --trace-out convention
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/cache");
    let out = run_repro_raw(&["table1", "--cache-dir", bad]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not writable"), "{stderr}");
}
