//! The fuzz campaign: candidate scheduling, coverage-guided corpus
//! growth, finding collection and auto-minimization.
//!
//! ## Determinism contract
//!
//! The whole campaign is a pure function of `(seed, iters)`:
//!
//! * candidates are derived from `(seed, iteration)` alone — fresh ones
//!   via [`generate`], mutants via [`mutate`] on a parent chosen by a
//!   scheduler whose state evolves in iteration order;
//! * candidates are *evaluated* in parallel ([`try_parmap`], honoring
//!   `--jobs`) but *folded* strictly in iteration order, so the corpus,
//!   the coverage map and the findings list never depend on worker
//!   interleaving;
//! * batches are a fixed size, and the scheduler only advances when a
//!   batch is built — never mid-evaluation.
//!
//! `repro --fuzz --fuzz-seed S --fuzz-iters N` therefore produces
//! byte-identical reports under `--jobs 1` and `--jobs 4`; CI diffs
//! exactly that.
//!
//! ## Corpus scheduling
//!
//! LibAFLstar-style minimal power schedule: pick the least-recently
//! exploited entry (pick count, then insertion order), give it energy
//! proportional to how much *new* coverage it contributed when it was
//! admitted, and decay that energy each time it is re-picked.

use crate::coverage::{CoverageMap, OutcomeKind};
use crate::exec::{run_scenario, RunReport};
use crate::generate::{generate, mutate};
use crate::minimize::minimize;
use crate::scenario::FuzzScenario;
use hpcsim_cache::SpecHash;
use hpcsim_core::try_parmap;
use hpcsim_engine::{split_seed, DetRng, SimTime};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, Workload};
use hpcsim_mpi::{CommId, Op, TraceBuilder};
use hpcsim_net::CollectiveOp;
use hpcsim_obs as obs;
use hpcsim_topo::Mapping;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::LazyLock;

struct FuzzObs {
    iterations: &'static obs::Counter,
    corpus_entries: &'static obs::Counter,
    coverage_features: &'static obs::Counter,
    findings: &'static obs::Counter,
    minimize_trials: &'static obs::Counter,
}

static FUZZ_OBS: LazyLock<FuzzObs> = LazyLock::new(|| FuzzObs {
    iterations: obs::counter(
        "hpcsim_fuzz_iterations_total",
        "Fuzz candidates executed",
        obs::Class::Deterministic,
    ),
    corpus_entries: obs::counter(
        "hpcsim_fuzz_corpus_entries_total",
        "Candidates admitted to the fuzz corpus",
        obs::Class::Deterministic,
    ),
    coverage_features: obs::counter(
        "hpcsim_fuzz_coverage_features_total",
        "Distinct coverage features discovered",
        obs::Class::Deterministic,
    ),
    findings: obs::counter(
        "hpcsim_fuzz_findings_total",
        "Distinct finding classes recorded",
        obs::Class::Deterministic,
    ),
    minimize_trials: obs::counter(
        "hpcsim_fuzz_minimize_trials_total",
        "Replay trials spent minimizing findings",
        obs::Class::Deterministic,
    ),
});

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; the whole campaign is a function of `(seed, iters)`.
    pub seed: u64,
    /// Candidate budget.
    pub iters: u64,
    /// Whether to inject the planted canary (CI keeps this on; unit
    /// tests that pin corpus content may turn it off).
    pub plant_canary: bool,
    /// Replay-trial budget per finding minimization.
    pub minimize_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 42, iters: 256, plant_canary: true, minimize_budget: 2_000 }
    }
}

impl FuzzConfig {
    /// The iteration at which the canary is injected.
    pub fn canary_iteration(&self) -> u64 {
        (self.iters / 2).min(100)
    }
}

/// Candidates evaluated per scheduling round. Fixed: part of the
/// determinism contract (the scheduler state is frozen per batch).
const BATCH: u64 = 16;

/// One admitted corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The scenario.
    pub scenario: FuzzScenario,
    /// Content hash of the canonical text.
    pub hash: SpecHash,
    /// Iteration that produced it.
    pub iteration: u64,
    /// How many new coverage features it contributed on admission.
    pub new_features: usize,
    /// Outcome class it exhibited.
    pub outcome: OutcomeKind,
    /// Times the scheduler has exploited it.
    picked: u32,
}

impl CorpusEntry {
    fn energy(&self) -> u32 {
        let base = (1 + self.new_features as u32).min(8);
        (base >> self.picked.min(3)).max(1)
    }
}

/// One recorded finding (auto-minimized).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Outcome class.
    pub kind: OutcomeKind,
    /// Iteration that first hit it.
    pub iteration: u64,
    /// Diagnostic detail from the *original* reproducer.
    pub detail: String,
    /// The minimized scenario.
    pub scenario: FuzzScenario,
    /// Op count before minimization.
    pub original_ops: usize,
    /// Replay trials the minimizer spent.
    pub minimize_trials: u64,
    /// Whether minimization reached a fixpoint within budget.
    pub minimized: bool,
    /// Whether this is the planted canary.
    pub canary: bool,
}

/// Campaign result.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The config that produced this report.
    pub config: FuzzConfig,
    /// Candidates executed (== config.iters).
    pub executed: u64,
    /// The corpus, in admission order.
    pub corpus: Vec<CorpusEntry>,
    /// The coverage map.
    pub coverage: CoverageMap,
    /// Minimized findings, one per (kind, canary) class, in ordinal
    /// order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// The canary finding, if the campaign planted and caught one.
    pub fn canary(&self) -> Option<&Finding> {
        self.findings.iter().find(|f| f.canary)
    }

    /// Whether the campaign is clean for CI purposes: every finding
    /// minimized to a fixpoint, and the canary (when planted) was
    /// caught and shrunk to ≤ 8 ops.
    pub fn ok(&self) -> bool {
        let minimized = self.findings.iter().all(|f| f.minimized);
        let canary_ok =
            !self.config.plant_canary || self.canary().is_some_and(|f| f.scenario.total_ops() <= 8);
        minimized && canary_ok
    }

    /// Deterministic plain-text summary (one datum per line; no
    /// timing, no paths — CI byte-diffs this across `--jobs`).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fuzz seed {} iters {}", self.config.seed, self.config.iters);
        let _ = writeln!(
            out,
            "fuzz executed {} corpus {} features {} digest {:016x}",
            self.executed,
            self.corpus.len(),
            self.coverage.len(),
            self.coverage.digest()
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "fuzz finding {} iter {} ops {} -> {} trials {} minimized {} canary {}",
                f.kind.label(),
                f.iteration,
                f.original_ops,
                f.scenario.total_ops(),
                f.minimize_trials,
                if f.minimized { "yes" } else { "no" },
                if f.canary { "yes" } else { "no" },
            );
        }
        match self.canary() {
            Some(f) => {
                let _ = writeln!(out, "fuzz canary caught ops {}", f.scenario.total_ops());
            }
            None if self.config.plant_canary => {
                let _ = writeln!(out, "fuzz canary MISSED");
            }
            None => {}
        }
        let _ = writeln!(out, "fuzz status {}", if self.ok() { "ok" } else { "FAIL" });
        out
    }
}

/// The planted canary: a barrier that one rank skips, padded with
/// unrelated local work so the minimizer has something to earn. Runs
/// through the normal execute/minimize pipeline like any candidate.
pub fn canary_scenario(seed: u64) -> FuzzScenario {
    let mut rng = DetRng::new(split_seed(seed, 0xCA), 0);
    let ranks = 4;
    let mut traces = TraceBuilder::new();
    for r in 0..ranks {
        let mut t = vec![
            Op::Compute {
                work: Workload::Custom {
                    flops: (1 + rng.next_below(100)) as f64 * 1e5,
                    dram_bytes: 0.0,
                    simd_eff: 1.0,
                    serial_frac: 0.0,
                },
                threads: 1,
            },
            Op::Delay { time: SimTime::from_us(1 + rng.next_below(20)) },
            Op::Mark { id: r as u32 },
        ];
        if r != ranks - 1 {
            t.push(Op::Collective { comm: CommId::WORLD, op: CollectiveOp::Barrier });
        }
        t.push(Op::Delay { time: SimTime::from_us(1) });
        t.into_iter().for_each(|op| traces.push(op));
        traces.end_rank();
    }
    FuzzScenario {
        machine: bluegene_p().with_flat_contention(),
        mode: ExecMode::Vn,
        mapping: Mapping::txyz(),
        faults: None,
        traces: traces.finish(),
    }
}

fn pick_parent(corpus: &mut [CorpusEntry]) -> Option<(usize, u32)> {
    let idx = corpus.iter().enumerate().min_by_key(|(i, e)| (e.picked, *i)).map(|(i, _)| i)?;
    let energy = corpus[idx].energy();
    corpus[idx].picked += 1;
    Some((idx, energy))
}

/// Run a fuzz campaign. Deterministic in `(config.seed, config.iters)`;
/// parallelism (`hpcsim_core::set_jobs`) changes wall-clock only.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut coverage = CoverageMap::default();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut seen: std::collections::BTreeSet<SpecHash> = Default::default();
    let mut findings: BTreeMap<(u32, bool), (u64, FuzzScenario, RunReport)> = BTreeMap::new();
    let canary_iter = config.canary_iteration();

    let mut iter = 0u64;
    while iter < config.iters {
        let batch = BATCH.min(config.iters - iter);
        // Build the batch sequentially: scheduler state may only
        // advance here, in iteration order.
        let mut cands: Vec<(u64, bool, FuzzScenario)> = Vec::with_capacity(batch as usize);
        for i in 0..batch {
            let it = iter + i;
            if config.plant_canary && it == canary_iter {
                cands.push((it, true, canary_scenario(config.seed)));
            } else if corpus.is_empty() || it.is_multiple_of(3) {
                cands.push((it, false, generate(config.seed, it)));
            } else {
                let (idx, energy) = pick_parent(&mut corpus).expect("corpus nonempty");
                cands.push((it, false, mutate(&corpus[idx].scenario, config.seed, it, energy)));
            }
        }

        // Evaluate in parallel, fold strictly in iteration order.
        let reports = try_parmap(&cands, |(_, _, sc)| run_scenario(sc));
        for ((it, is_canary, sc), rep) in cands.into_iter().zip(reports) {
            let rep = match rep {
                Ok(rep) => rep,
                // run_scenario catches engine panics itself; this arm
                // only fires if the harness around it blew up.
                Err(p) => RunReport {
                    outcome: OutcomeKind::Panic,
                    detail: format!("harness panic: {}", p.message),
                    signals: Default::default(),
                },
            };
            FUZZ_OBS.iterations.inc();

            let feats = rep.features();
            let new = coverage.add_all(&feats);
            if new > 0 {
                let hash = sc.hash();
                if seen.insert(hash) {
                    FUZZ_OBS.corpus_entries.inc();
                    corpus.push(CorpusEntry {
                        scenario: sc.clone(),
                        hash,
                        iteration: it,
                        new_features: new,
                        outcome: rep.outcome,
                        picked: 0,
                    });
                }
            }

            if rep.outcome.is_finding(sc.faults.is_some()) || is_canary {
                findings.entry((rep.outcome.ordinal(), is_canary)).or_insert((it, sc, rep));
            }
        }
        iter += batch;
    }

    // Minimize each finding class once, after the campaign (keeps the
    // expensive part off the hot loop and independent of batch shape).
    let minimized: Vec<Finding> = findings
        .into_iter()
        .map(|((_, canary), (iteration, sc, rep))| {
            let original_ops = sc.total_ops();
            let min = minimize(&sc, rep.outcome, config.minimize_budget);
            FUZZ_OBS.minimize_trials.add(min.trials);
            FUZZ_OBS.findings.inc();
            Finding {
                kind: rep.outcome,
                iteration,
                detail: rep.detail,
                scenario: min.scenario,
                original_ops,
                minimize_trials: min.trials,
                minimized: min.converged,
                canary,
            }
        })
        .collect();

    let features_total = coverage.len() as u64;
    FUZZ_OBS.coverage_features.add(features_total);

    FuzzReport {
        config: config.clone(),
        executed: config.iters,
        corpus,
        coverage,
        findings: minimized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_deadlocks_and_minimizes_to_three_barriers() {
        let sc = canary_scenario(42);
        let rep = run_scenario(&sc);
        assert_eq!(rep.outcome, OutcomeKind::Deadlock, "{}", rep.detail);
        let min = minimize(&sc, OutcomeKind::Deadlock, 2_000);
        assert!(min.converged);
        assert!(min.scenario.total_ops() <= 8, "{} ops", min.scenario.total_ops());
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = FuzzConfig { seed: 7, iters: 48, ..Default::default() };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.corpus.len(), b.corpus.len());
        for (x, y) in a.corpus.iter().zip(&b.corpus) {
            assert_eq!(x.hash, y.hash);
        }
    }

    #[test]
    fn campaign_is_jobs_invariant() {
        let cfg = FuzzConfig { seed: 11, iters: 48, ..Default::default() };
        let prev = hpcsim_core::jobs();
        hpcsim_core::set_jobs(1);
        let serial = run_fuzz(&cfg);
        hpcsim_core::set_jobs(4);
        let parallel = run_fuzz(&cfg);
        hpcsim_core::set_jobs(prev);
        assert_eq!(serial.summary(), parallel.summary());
        assert_eq!(serial.coverage.digest(), parallel.coverage.digest());
        let sh: Vec<_> = serial.corpus.iter().map(|e| e.hash).collect();
        let ph: Vec<_> = parallel.corpus.iter().map(|e| e.hash).collect();
        assert_eq!(sh, ph);
    }

    #[test]
    fn campaign_catches_the_canary_within_budget() {
        let cfg = FuzzConfig { seed: 42, iters: 64, ..Default::default() };
        let report = run_fuzz(&cfg);
        let canary = report.canary().expect("canary finding recorded");
        assert_eq!(canary.kind, OutcomeKind::Deadlock);
        assert!(canary.scenario.total_ops() <= 8);
        assert!(report.ok(), "summary:\n{}", report.summary());
    }

    #[test]
    fn corpus_grows_and_covers() {
        let cfg = FuzzConfig { seed: 3, iters: 64, plant_canary: false, ..Default::default() };
        let report = run_fuzz(&cfg);
        assert!(!report.corpus.is_empty());
        assert!(report.coverage.len() >= 11, "at least one full feature row");
        // Every corpus entry round-trips through the canonical text.
        for e in &report.corpus {
            let back = FuzzScenario::parse(&e.scenario.to_canon()).unwrap();
            assert_eq!(back.hash(), e.hash);
        }
    }
}
