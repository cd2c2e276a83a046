//! Corpus replay: every checked-in regression under `tests/corpus/`
//! re-runs through the fuzzer's executor and must reproduce the
//! outcome its `MANIFEST.txt` line records.
//!
//! These files are auto-minimized findings from real fuzz campaigns
//! (`repro --fuzz --fuzz-promote`), serialized in the canonical
//! `hpcsim-fuzz-scenario/2` text form:
//!
//! ```text
//! hpcsim-fuzz-scenario/2
//! <6 machine lines>          (machine, core, mem, nic, pack, power)
//! mode vn
//! mapping TXYZ
//! faults none
//! hpcsim-trace/1 <ranks>     (the scenario cache's trace wire form)
//! rank 0 <op-count>
//! <op lines>
//! ```
//!
//! If an engine change flips one
//! of these outcomes, that is a *behavioral* change to diagnosed
//! semantics — update the manifest only if the new behavior is the
//! intended one (e.g. a divergence regression turning `ok` because the
//! DAG gap was fixed).

use bgp_eval::fuzz::{run_scenario, FuzzScenario, OutcomeKind};
use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn manifest_lists_at_least_three_regressions() {
    let manifest = std::fs::read_to_string(corpus_dir().join("MANIFEST.txt")).unwrap();
    assert!(manifest.lines().filter(|l| !l.trim().is_empty()).count() >= 3);
}

#[test]
fn every_corpus_entry_reproduces_its_recorded_outcome() {
    let dir = corpus_dir();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let file = parts.next().expect("manifest line: <file> <outcome>");
        let expected = parts
            .next()
            .and_then(OutcomeKind::parse)
            .unwrap_or_else(|| panic!("bad outcome label in manifest line {line:?}"));
        let text = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let sc = FuzzScenario::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        // The canonical form is self-identical: parse → serialize is
        // byte-exact, so the checked-in file IS the scenario identity.
        assert_eq!(sc.to_canon(), text, "{file}: non-canonical corpus file");
        let rep = run_scenario(&sc);
        assert_eq!(
            rep.outcome, expected,
            "{file}: expected {}, got {} ({})",
            expected.label(),
            rep.outcome.label(),
            rep.detail
        );
    }
}
