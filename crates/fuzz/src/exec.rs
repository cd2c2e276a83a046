//! Candidate execution: bounded replay, signal harvesting, and the
//! Dag-vs-Replay differential oracle.
//!
//! Every candidate runs through [`hpcsim_mpi::TraceSim`] with the
//! step-budget watchdog armed (the default derived budget — a strict
//! upper bound on legitimate event traffic — so a watchdog trip is
//! always a finding, never a false positive). Replays execute under
//! `catch_unwind` so an engine panic becomes a minimizable
//! [`OutcomeKind::Panic`] instead of killing the campaign.
//!
//! When a replay finishes on a contention-flat machine without faults,
//! the same traces are compiled by [`hpcsim_mpi::TraceDag`] and both
//! engines' per-rank finish times are compared bit-exactly — the
//! differential oracle the corpus contract requires. A deadlocked
//! replay is cross-checked against the DAG's own cycle detector.

use crate::coverage::{features, OutcomeKind, Signals};
use crate::scenario::FuzzScenario;
use hpcsim_engine::SimTime;
use hpcsim_mpi::{SimError, TraceDag, TraceSim};
use hpcsim_probe::{GaugeId, SpanEvent, SpanKind, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Signal-harvesting tracer: gauge maxima plus wait-span totals.
#[derive(Debug, Default)]
struct CoverageTracer {
    gauges: [u64; 6],
    wait: u64,
}

impl Tracer for CoverageTracer {
    const ENABLED: bool = true;

    fn span(&mut self, ev: SpanEvent) {
        if matches!(ev.kind, SpanKind::Wait | SpanKind::CollectiveWait) {
            self.wait += ev.t1.0.saturating_sub(ev.t0.0);
        }
    }

    fn link_delta(&mut self, _link: u32, _t: SimTime, _delta: i8) {}

    fn gauge(&mut self, id: GaugeId, value: u64) {
        let slot = &mut self.gauges[id as usize];
        *slot = (*slot).max(value);
    }
}

/// One executed candidate: its outcome class, a human-readable detail
/// line, and the coverage signals it produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Outcome class (coverage axis + finding trigger).
    pub outcome: OutcomeKind,
    /// Diagnostic detail (error display / divergence description).
    pub detail: String,
    /// Harvested coverage signals.
    pub signals: Signals,
}

impl RunReport {
    /// The candidate's feature set.
    pub fn features(&self) -> Vec<u32> {
        features(&self.signals, self.outcome)
    }
}

fn outcome_of(err: SimError) -> OutcomeKind {
    match err {
        SimError::Stalled { .. } => OutcomeKind::Stalled,
        SimError::Unreachable { .. } => OutcomeKind::Unreachable,
        SimError::Livelock { .. } => OutcomeKind::Livelock,
        SimError::Deadlock { .. } => OutcomeKind::Deadlock,
        SimError::CollectiveMismatch { .. } => OutcomeKind::CollectiveMismatch,
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one scenario end to end (replay + oracle). Deterministic:
/// the report depends only on the scenario's canonical content.
pub fn run_scenario(sc: &FuzzScenario) -> RunReport {
    let cfg = sc.sim_config();
    let mut tracer = CoverageTracer::default();
    let replay = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = TraceSim::new(cfg.clone());
        if let Some(plan) = sc.fault_plan() {
            sim.set_faults(&plan);
        }
        sim.try_replay(&sc.traces, &mut tracer)
    }));

    let mut signals = Signals {
        arrived_hw: tracer.gauges[GaugeId::ArrivedMatchDepth as usize],
        posted_hw: tracer.gauges[GaugeId::PostedMatchDepth as usize],
        eventq_hw: tracer.gauges[GaugeId::EventQueueDepth as usize],
        retransmits: tracer.gauges[GaugeId::Retransmits as usize],
        link_outages: tracer.gauges[GaugeId::LinkOutages as usize],
        flow_underflows: tracer.gauges[GaugeId::FlowUnderflows as usize],
        ranks: sc.ranks() as u64,
        dag_fallback: if sc.faults.is_some() {
            2
        } else if TraceDag::exact_for(&sc.machine) {
            0
        } else {
            1
        },
        ..Default::default()
    };

    let result = match replay {
        Err(payload) => {
            return RunReport {
                outcome: OutcomeKind::Panic,
                detail: format!("replay panicked: {}", panic_text(payload)),
                signals,
            };
        }
        Ok(Err(err)) => {
            // Cross-check the structural-deadlock diagnosis against the
            // DAG engine's independent cycle detector where applicable.
            if let SimError::Deadlock { .. } = err {
                if signals.dag_fallback == 0 {
                    // Ok(true): both engines agree it's a deadlock.
                    // Err: dag compile panicked on the same input —
                    // keep the replay diagnosis, it's the richer one.
                    if let Ok(false) = catch_unwind(AssertUnwindSafe(|| {
                        TraceDag::compile(&sc.traces).deadlock().is_some()
                    })) {
                        return RunReport {
                            outcome: OutcomeKind::Divergence,
                            detail: format!("replay deadlocked but dag compiles clean: {err}"),
                            signals,
                        };
                    }
                }
            }
            return RunReport { outcome: outcome_of(err), detail: err.to_string(), signals };
        }
        Ok(Ok(result)) => result,
    };

    let makespan = result.makespan();
    signals.makespan_us = makespan.0 / SimTime::from_us(1).0.max(1);
    let denom = (sc.ranks() as u64).saturating_mul(makespan.0);
    if let Some(share) = tracer.wait.saturating_mul(100).checked_div(denom) {
        signals.wait_share_pct = share.min(100);
    }

    // Differential oracle: fault-free + contention-flat ⇒ the DAG
    // engine is specified to be bit-exact against replay.
    if signals.dag_fallback == 0 {
        let oracle = catch_unwind(AssertUnwindSafe(|| {
            let dag = TraceDag::compile(&sc.traces);
            if let Some((unfinished, rank, op)) = dag.deadlock() {
                return Err(format!(
                    "replay finished but dag sees deadlock: {unfinished} ranks, \
                     e.g. rank {rank} at op {op}"
                ));
            }
            Ok(dag.evaluate(&cfg).finish)
        }));
        match oracle {
            Err(payload) => {
                return RunReport {
                    outcome: OutcomeKind::Panic,
                    detail: format!("dag oracle panicked: {}", panic_text(payload)),
                    signals,
                };
            }
            Ok(Err(detail)) => {
                return RunReport { outcome: OutcomeKind::Divergence, detail, signals };
            }
            Ok(Ok(dag_finish)) => {
                if dag_finish != result.finish {
                    let rank = result
                        .finish
                        .iter()
                        .zip(&dag_finish)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    return RunReport {
                        outcome: OutcomeKind::Divergence,
                        detail: format!(
                            "finish mismatch at rank {rank}: replay {} ps, dag {} ps",
                            result.finish[rank].0, dag_finish[rank].0
                        ),
                        signals,
                    };
                }
            }
        }
    }

    RunReport { outcome: OutcomeKind::Ok, detail: String::new(), signals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use hpcsim_cache::FaultSpec;
    use hpcsim_faults::FaultProfile;
    use hpcsim_machine::registry::bluegene_p;
    use hpcsim_machine::ExecMode;
    use hpcsim_mpi::{CommId, Op, Req, Traces};
    use hpcsim_net::CollectiveOp;
    use hpcsim_topo::Mapping;

    fn barrier() -> Op {
        Op::Collective { comm: CommId::WORLD, op: CollectiveOp::Barrier }
    }

    #[test]
    fn generated_scenarios_run_ok_without_faults() {
        for it in 0..20 {
            let mut sc = generate(11, it);
            sc.faults = None;
            let rep = run_scenario(&sc);
            assert_eq!(rep.outcome, OutcomeKind::Ok, "iter {it}: {}", rep.detail);
        }
    }

    #[test]
    fn missing_barrier_member_is_a_deadlock() {
        let sc = FuzzScenario {
            machine: bluegene_p().with_flat_contention(),
            mode: ExecMode::Vn,
            mapping: Mapping::txyz(),
            faults: None,
            traces: Traces::from_rank_vecs(&[
                vec![barrier()],
                vec![barrier()],
                vec![barrier()],
                vec![],
            ]),
        };
        let rep = run_scenario(&sc);
        assert_eq!(rep.outcome, OutcomeKind::Deadlock, "{}", rep.detail);
    }

    #[test]
    fn unmatched_receive_is_a_deadlock() {
        let sc = FuzzScenario {
            machine: bluegene_p().with_flat_contention(),
            mode: ExecMode::Vn,
            mapping: Mapping::txyz(),
            faults: None,
            traces: Traces::from_rank_vecs(&[
                vec![
                    Op::Irecv { src: 1, tag: 0, bytes: 64, req: Req(0) },
                    Op::Wait { req: Req(0) },
                ],
                vec![],
            ]),
        };
        let rep = run_scenario(&sc);
        assert_eq!(rep.outcome, OutcomeKind::Deadlock, "{}", rep.detail);
    }

    #[test]
    fn armed_fault_plan_skips_the_oracle_and_reports_signals() {
        let mut sc = generate(11, 2);
        sc.faults = Some(FaultSpec { seed: 99, profile: FaultProfile::Mixed });
        let rep = run_scenario(&sc);
        assert_eq!(rep.signals.dag_fallback, 2);
        // Mixed faults always kill some links on the plan.
        assert!(matches!(
            rep.outcome,
            OutcomeKind::Ok | OutcomeKind::Stalled | OutcomeKind::Unreachable
        ));
    }

    #[test]
    fn reports_are_deterministic() {
        let sc = generate(5, 3);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.detail, b.detail);
        assert_eq!(a.features(), b.features());
    }
}
