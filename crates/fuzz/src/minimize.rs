//! Greedy delta-debugging minimizer.
//!
//! Given a finding, shrink the scenario while preserving its outcome
//! *class* (not the exact detail string — a deadlock that moves to
//! another rank is still the same bug shape). The reduction passes run
//! to a fixpoint under a trial budget:
//!
//! 1. **Rank wipe** — try emptying each rank's whole trace;
//! 2. **Simplify** — try dropping the fault plan and resetting the
//!    mapping to the family default (fewer moving parts in the
//!    regression file);
//! 3. **ddmin chunks** — per rank, remove op chunks at halving
//!    granularity down to single ops.
//!
//! Every trial is a full bounded replay through the same executor the
//! campaign uses, so a minimized scenario reproduces by construction.

use crate::coverage::OutcomeKind;
use crate::exec::run_scenario;
use crate::scenario::FuzzScenario;
use hpcsim_topo::Mapping;

/// Outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct MinimizeResult {
    /// The smallest scenario found that still reproduces the outcome.
    pub scenario: FuzzScenario,
    /// Replay trials spent.
    pub trials: u64,
    /// Whether a reduction fixpoint was reached within budget.
    pub converged: bool,
}

struct Shrinker {
    expected: OutcomeKind,
    trials: u64,
    budget: u64,
}

impl Shrinker {
    /// Run a candidate; returns `Some(true)` if it still reproduces,
    /// `None` when the budget is exhausted.
    fn check(&mut self, cand: &FuzzScenario) -> Option<bool> {
        if self.trials >= self.budget {
            return None;
        }
        self.trials += 1;
        Some(run_scenario(cand).outcome == self.expected)
    }
}

/// Minimize `sc` while preserving `expected`, spending at most
/// `max_trials` replays.
pub fn minimize(sc: &FuzzScenario, expected: OutcomeKind, max_trials: u64) -> MinimizeResult {
    let mut best = sc.clone();
    let mut sh = Shrinker { expected, trials: 0, budget: max_trials };
    let mut converged = true;
    loop {
        let before = best.total_ops();
        let mut out_of_budget = false;

        // Pass 1: wipe whole ranks.
        for r in 0..best.ranks() {
            if best.traces.rank_len(r) == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand.traces.edit_rank(r, Vec::clear);
            match sh.check(&cand) {
                Some(true) => best = cand,
                Some(false) => {}
                None => {
                    out_of_budget = true;
                    break;
                }
            }
        }

        // Pass 2: simplify the environment.
        if !out_of_budget {
            if best.faults.is_some() {
                let mut cand = best.clone();
                cand.faults = None;
                match sh.check(&cand) {
                    Some(true) => best = cand,
                    Some(false) => {}
                    None => out_of_budget = true,
                }
            }
            if !out_of_budget && best.mapping != Mapping::txyz() {
                let mut cand = best.clone();
                cand.mapping = Mapping::txyz();
                match sh.check(&cand) {
                    Some(true) => best = cand,
                    Some(false) => {}
                    None => out_of_budget = true,
                }
            }
        }

        // Pass 3: ddmin chunk removal per rank.
        'ranks: for r in 0..best.ranks() {
            if out_of_budget {
                break;
            }
            let mut chunk = best.traces.rank_len(r).div_ceil(2).max(1);
            loop {
                let mut start = 0;
                while start < best.traces.rank_len(r) {
                    let end = (start + chunk).min(best.traces.rank_len(r));
                    let mut cand = best.clone();
                    cand.traces.edit_rank(r, |ops| {
                        ops.drain(start..end);
                    });
                    match sh.check(&cand) {
                        Some(true) => best = cand, // retry same window
                        Some(false) => start = end,
                        None => {
                            out_of_budget = true;
                            break 'ranks;
                        }
                    }
                }
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
        }

        if out_of_budget {
            converged = false;
            break;
        }
        if best.total_ops() == before {
            break; // fixpoint
        }
    }
    MinimizeResult { scenario: best, trials: sh.trials, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, mutate};
    use hpcsim_machine::registry::bluegene_p;
    use hpcsim_machine::ExecMode;
    use hpcsim_mpi::{CommId, Op, Req, Traces};
    use hpcsim_net::CollectiveOp;

    #[test]
    fn deadlock_with_padding_minimizes_small() {
        // A missing barrier member buried in unrelated generated
        // traffic: the minimizer should strip the padding and keep
        // only the skewed collective.
        let mut sc = generate(21, 0);
        sc.faults = None;
        let last = sc.ranks() - 1;
        sc.traces.edit(|r, trace| {
            trace.retain(|op| !matches!(op, Op::Collective { .. }));
            if r < last {
                trace.push(Op::Collective { comm: CommId::WORLD, op: CollectiveOp::Barrier });
            }
        });
        assert!(sc.total_ops() > 8, "padding too small to be interesting");
        assert_eq!(crate::exec::run_scenario(&sc).outcome, OutcomeKind::Deadlock);
        let min = minimize(&sc, OutcomeKind::Deadlock, 2_000);
        assert!(min.converged);
        assert!(min.scenario.total_ops() <= 8, "got {} ops", min.scenario.total_ops());
        assert_eq!(run_scenario(&min.scenario).outcome, OutcomeKind::Deadlock);
    }

    #[test]
    fn minimization_is_deterministic() {
        let base = mutate(&generate(42, 1), 42, 17, 3);
        let rep = run_scenario(&base);
        if rep.outcome == OutcomeKind::Ok {
            return; // this pinned mutant happens to be healthy — fine
        }
        let a = minimize(&base, rep.outcome, 500);
        let b = minimize(&base, rep.outcome, 500);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let sc = FuzzScenario {
            machine: bluegene_p().with_flat_contention(),
            mode: ExecMode::Vn,
            mapping: hpcsim_topo::Mapping::txyz(),
            faults: None,
            traces: Traces::from_rank_vecs(&[
                vec![Op::Irecv { src: 1, tag: 0, bytes: 8, req: Req(0) }, Op::Wait { req: Req(0) }],
                vec![],
            ]),
        };
        let min = minimize(&sc, OutcomeKind::Deadlock, 1);
        assert!(!min.converged);
        assert_eq!(min.trials, 1);
    }
}
