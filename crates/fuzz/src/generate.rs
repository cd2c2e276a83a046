//! Seeded scenario generation and structure-aware mutation.
//!
//! Both halves draw every decision from [`DetRng`] streams keyed by
//! `(seed, iteration)`, so a candidate is reproducible from those two
//! numbers alone — no global state, no wall clock, no thread identity.
//!
//! **Generation** builds phase-structured programs that terminate by
//! construction on a pristine machine: each phase posts every receive
//! and send before any wait in that phase blocks, and collectives are
//! recorded identically on all ranks. Induction over phases then gives
//! global progress (see DESIGN §17 for the argument).
//!
//! **Mutation** deliberately breaks that discipline. The operators
//! mirror the failure modes the replay engine diagnoses: op reordering
//! (deadlock), tag/peer perturbation (mismatched traffic), collective
//! insertion/removal on a strict subset of ranks (collective mismatch),
//! rendezvous-threshold-straddling resizes (protocol boundary), and
//! fault-plan escalation (stall/unreachable paths).

use crate::scenario::FuzzScenario;
use hpcsim_cache::FaultSpec;
use hpcsim_engine::{split_seed, DetRng, SimTime};
use hpcsim_faults::{FaultPlan, FaultProfile};
use hpcsim_machine::registry::{bluegene_p, xt4_qc};
use hpcsim_machine::{ExecMode, MachineSpec, Workload};
use hpcsim_mpi::{CommId, Op, Req, TraceBuilder, Traces};
use hpcsim_net::{CollectiveOp, DType};
use hpcsim_topo::Mapping;

/// Stream index for generation draws under the run seed.
const STREAM_GEN: u64 = 0xF0;
/// Stream index for mutation draws under the run seed.
const STREAM_MUT: u64 = 0xF1;

/// Generator world-size range (small worlds keep candidates fast while
/// still exercising trees, tori and multi-hop routes).
const MIN_RANKS: u64 = 2;
const MAX_GEN_RANKS: u64 = 8;

fn machine_pool() -> [MachineSpec; 4] {
    [bluegene_p(), bluegene_p().with_flat_contention(), xt4_qc(), xt4_qc().with_flat_contention()]
}

/// Message-size palette: small eager, the exact rendezvous threshold
/// and its one-byte neighbors, and two solidly-rendezvous sizes.
fn byte_palette(machine: &MachineSpec) -> [u64; 8] {
    let thr = machine.nic.eager_threshold;
    [8, 64, thr.saturating_sub(1), thr, thr + 1, 4 * thr, 65_536, 1]
}

fn pick_collective(rng: &mut DetRng, bytes: u64) -> CollectiveOp {
    match rng.next_below(6) {
        0 => CollectiveOp::Barrier,
        1 => CollectiveOp::Bcast { bytes },
        2 => CollectiveOp::Reduce { bytes, dtype: DType::F64 },
        3 => CollectiveOp::Allreduce { bytes, dtype: DType::F64 },
        4 => CollectiveOp::Allgather { bytes_per_rank: bytes },
        _ => CollectiveOp::Alltoall { bytes_per_pair: (bytes / 8).max(1) },
    }
}

/// Generate a fresh scenario from `(seed, iteration)`.
pub fn generate(seed: u64, iteration: u64) -> FuzzScenario {
    let mut rng = DetRng::new(split_seed(seed, STREAM_GEN), iteration);
    let ranks = (MIN_RANKS + rng.next_below(MAX_GEN_RANKS - MIN_RANKS + 1)) as usize;

    let machine = machine_pool()[rng.next_below(4) as usize].clone();
    let mode = [ExecMode::Smp, ExecMode::Dual, ExecMode::Vn][rng.next_below(3) as usize];
    let mappings = Mapping::predefined();
    let mapping = mappings[rng.next_below(mappings.len() as u64) as usize].1;

    // One message size per tag, fixed for the whole program, so send
    // and receive sizes agree wherever tags match.
    let palette = byte_palette(&machine);
    let tag_bytes: Vec<u64> =
        (0..4).map(|_| palette[rng.next_below(palette.len() as u64) as usize]).collect();

    let mut world = TraceBuilder::new();
    for _ in 0..ranks {
        world.end_rank();
    }
    let mut traces = world.finish();
    let mut next_req: Vec<u32> = vec![0; ranks];
    let phases = 1 + rng.next_below(5);
    for _ in 0..phases {
        match rng.next_below(4) {
            0 => phase_local(&mut rng, &mut traces),
            1 => phase_pairs(&mut rng, &mut traces, &mut next_req, &tag_bytes),
            2 => {
                let bytes = palette[rng.next_below(palette.len() as u64) as usize];
                let op = pick_collective(&mut rng, bytes);
                traces.edit(|_, ops| ops.push(Op::Collective { comm: CommId::WORLD, op }));
            }
            _ => phase_ring(&mut rng, &mut traces, &mut next_req, &tag_bytes),
        }
    }

    // Most candidates replay fault-free (keeps the differential oracle
    // applicable); one in four arms a derived plan.
    let faults = if rng.next_below(4) == 0 {
        let profile = FaultProfile::all()[rng.next_below(4) as usize];
        Some(FaultSpec { seed: rng.next_u64(), profile })
    } else {
        None
    };

    FuzzScenario { machine, mode, mapping, faults, traces }
}

/// Compute / delay / mark phase: purely local work, no blocking.
fn phase_local(rng: &mut DetRng, traces: &mut Traces) {
    traces.edit(|_, trace| match rng.next_below(3) {
        0 => trace.push(Op::Compute {
            work: Workload::Custom {
                flops: (1 + rng.next_below(1000)) as f64 * 1e4,
                dram_bytes: 0.0,
                simd_eff: 1.0,
                serial_frac: 0.0,
            },
            threads: 1,
        }),
        1 => trace.push(Op::Delay { time: SimTime::from_us(rng.next_below(50)) }),
        _ => trace.push(Op::Mark { id: rng.next_below(16) as u32 }),
    });
}

/// Random matched point-to-point pairs. Per phase, every rank posts all
/// its receives, then all its sends, then waits on everything — so no
/// wait can block before its counterpart is posted.
fn phase_pairs(rng: &mut DetRng, traces: &mut Traces, next_req: &mut [u32], tag_bytes: &[u64]) {
    let ranks = traces.ranks();
    let pairs = 1 + rng.next_below(2 * ranks as u64);
    // per pair: the receive posted at its dst, the send posted at its src
    let mut drawn: Vec<(usize, Op, usize, Op)> = Vec::new();
    for _ in 0..pairs {
        let src = rng.next_below(ranks as u64) as usize;
        let mut dst = rng.next_below(ranks as u64) as usize;
        if dst == src {
            dst = (dst + 1) % ranks;
        }
        let tag = rng.next_below(tag_bytes.len() as u64) as usize;
        let bytes = tag_bytes[tag];
        let rreq = Req(next_req[dst]);
        next_req[dst] += 1;
        let sreq = Req(next_req[src]);
        next_req[src] += 1;
        let recv = Op::Irecv { src, tag: tag as u32, bytes, req: rreq };
        drawn.push((dst, recv, src, Op::Isend { dst, tag: tag as u32, bytes, req: sreq }));
    }
    let req = |op: &Op| match *op {
        Op::Irecv { req, .. } | Op::Isend { req, .. } => req,
        _ => unreachable!("pairs are receives and sends"),
    };
    traces.edit(|r, trace| {
        trace.extend(drawn.iter().filter(|p| p.0 == r).map(|p| p.1));
        trace.extend(drawn.iter().filter(|p| p.2 == r).map(|p| p.3));
        for (dst, recv, src, send) in &drawn {
            if *dst == r {
                trace.push(Op::Wait { req: req(recv) });
            } else if *src == r {
                trace.push(Op::Wait { req: req(send) });
            }
        }
    });
}

/// Nearest-neighbor ring exchange, receive-posted-first.
fn phase_ring(rng: &mut DetRng, traces: &mut Traces, next_req: &mut [u32], tag_bytes: &[u64]) {
    let ranks = traces.ranks();
    let tag = rng.next_below(tag_bytes.len() as u64) as usize;
    let bytes = tag_bytes[tag];
    traces.edit(|r, trace| {
        let prev = (r + ranks - 1) % ranks;
        let next = (r + 1) % ranks;
        let rreq = Req(next_req[r]);
        let sreq = Req(next_req[r] + 1);
        next_req[r] += 2;
        trace.push(Op::Irecv { src: prev, tag: tag as u32, bytes, req: rreq });
        trace.push(Op::Isend { dst: next, tag: tag as u32, bytes, req: sreq });
        trace.push(Op::Wait { req: rreq });
        trace.push(Op::Wait { req: sreq });
    });
}

/// Apply `count` structure-aware mutations to `base`. Draws come from
/// the `(seed, iteration)` mutation stream, so a mutant is reproducible
/// without storing the mutation trail.
pub fn mutate(base: &FuzzScenario, seed: u64, iteration: u64, count: u32) -> FuzzScenario {
    let mut rng = DetRng::new(split_seed(seed, STREAM_MUT), iteration);
    let mut sc = base.clone();
    for _ in 0..count.max(1) {
        mutate_once(&mut rng, &mut sc);
    }
    sc
}

fn nonempty_rank(rng: &mut DetRng, sc: &FuzzScenario) -> Option<usize> {
    let candidates: Vec<usize> = (0..sc.ranks()).filter(|&r| sc.traces.rank_len(r) > 0).collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.next_below(candidates.len() as u64) as usize])
}

fn mutate_once(rng: &mut DetRng, sc: &mut FuzzScenario) {
    let ranks = sc.ranks();
    match rng.next_below(9) {
        // Reorder: swap two ops within one rank (breaks the
        // receive-before-wait discipline → deadlock candidates).
        0 => {
            if let Some(r) = nonempty_rank(rng, sc) {
                let len = sc.traces.rank_len(r) as u64;
                let a = rng.next_below(len) as usize;
                let b = rng.next_below(len) as usize;
                sc.traces.edit_rank(r, |ops| ops.swap(a, b));
            }
        }
        // Tag perturbation on one message op.
        1 => {
            if let Some(r) = nonempty_rank(rng, sc) {
                let i = rng.next_below(sc.traces.rank_len(r) as u64) as usize;
                sc.traces.edit_rank(r, |ops| match &mut ops[i] {
                    Op::Isend { tag, .. } | Op::Irecv { tag, .. } => *tag = (*tag + 1) % 5,
                    _ => {}
                });
            }
        }
        // Peer perturbation (self-sends allowed: adversarial on purpose).
        2 => {
            if let Some(r) = nonempty_rank(rng, sc) {
                let i = rng.next_below(sc.traces.rank_len(r) as u64) as usize;
                let peer = rng.next_below(ranks as u64) as usize;
                sc.traces.edit_rank(r, |ops| match &mut ops[i] {
                    Op::Isend { dst, .. } => *dst = peer,
                    Op::Irecv { src, .. } => *src = peer,
                    _ => {}
                });
            }
        }
        // Rendezvous straddle: retarget every message with one tag to
        // threshold−1 / threshold / threshold+1 (pairs stay matched).
        3 => {
            let thr = sc.machine.nic.eager_threshold;
            let new = [thr.saturating_sub(1), thr, thr + 1][rng.next_below(3) as usize];
            let tag = rng.next_below(5) as u32;
            sc.traces.edit(|_, trace| {
                for op in trace.iter_mut() {
                    match op {
                        Op::Isend { tag: t, bytes, .. } | Op::Irecv { tag: t, bytes, .. }
                            if *t == tag =>
                        {
                            *bytes = new;
                        }
                        _ => {}
                    }
                }
            });
        }
        // Collective insertion at an independent position per rank —
        // same op everywhere, but skewed placement relative to waits.
        4 => {
            let op = pick_collective(rng, 64);
            sc.traces.edit(|_, trace| {
                let at = rng.next_below(trace.len() as u64 + 1) as usize;
                trace.insert(at, Op::Collective { comm: CommId::WORLD, op });
            });
        }
        // Collective removal on ONE rank: the k-th collective vanishes
        // from a single member → mismatch or deadlock.
        5 => {
            let r = rng.next_below(ranks as u64) as usize;
            let colls: Vec<usize> = sc
                .traces
                .rank_ops(r)
                .enumerate()
                .filter(|(_, op)| matches!(op, Op::Collective { .. }))
                .map(|(i, _)| i)
                .collect();
            if !colls.is_empty() {
                let k = colls[rng.next_below(colls.len() as u64) as usize];
                sc.traces.edit_rank(r, |ops| {
                    ops.remove(k);
                });
            }
        }
        // Delete one op.
        6 => {
            if let Some(r) = nonempty_rank(rng, sc) {
                let i = rng.next_below(sc.traces.rank_len(r) as u64) as usize;
                sc.traces.edit_rank(r, |ops| {
                    ops.remove(i);
                });
            }
        }
        // Duplicate one op in place.
        7 => {
            if let Some(r) = nonempty_rank(rng, sc) {
                let i = rng.next_below(sc.traces.rank_len(r) as u64) as usize;
                sc.traces.edit_rank(r, |ops| ops.insert(i, ops[i]));
            }
        }
        // Fault-plan mutation: arm, escalate, reseed or disarm.
        _ => {
            sc.faults = match sc.faults {
                None => Some(FaultSpec {
                    seed: rng.next_u64(),
                    profile: FaultProfile::all()[rng.next_below(4) as usize],
                }),
                Some(f) => {
                    if rng.next_below(4) == 0 {
                        None
                    } else {
                        let plan = FaultPlan::new(f.seed, f.profile).mutated(rng.next_u64());
                        Some(FaultSpec { seed: plan.seed(), profile: plan.profile() })
                    }
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, 7);
        let b = generate(42, 7);
        assert_eq!(a, b);
        assert_eq!(a.to_canon(), b.to_canon());
    }

    #[test]
    fn different_iterations_differ() {
        // Not guaranteed per-pair in principle, but these seeds are
        // pinned — a collision here means the stream split regressed.
        assert_ne!(generate(42, 0).hash(), generate(42, 1).hash());
    }

    #[test]
    fn generated_worlds_are_bounded() {
        for it in 0..50 {
            let sc = generate(7, it);
            assert!((2..=8).contains(&sc.ranks()));
            assert!(sc.total_ops() > 0);
        }
    }

    #[test]
    fn mutation_is_deterministic_and_serializable() {
        let base = generate(42, 3);
        let a = mutate(&base, 42, 100, 4);
        let b = mutate(&base, 42, 100, 4);
        assert_eq!(a, b);
        let back = FuzzScenario::parse(&a.to_canon()).unwrap();
        assert_eq!(back.hash(), a.hash());
    }

    #[test]
    fn straddle_mutation_keeps_pairs_matched() {
        // Hunt for a mutant whose message sizes changed; sizes must
        // still be uniform per tag on both sides of every pair.
        let base = generate(42, 5);
        for it in 0..64 {
            let m = mutate(&base, 9, it, 1);
            let mut by_tag: std::collections::BTreeMap<u32, u64> = Default::default();
            let mut consistent = true;
            for trace in &m.traces.to_rank_vecs() {
                for op in trace {
                    if let Op::Isend { tag, bytes, .. } | Op::Irecv { tag, bytes, .. } = op {
                        consistent &= *by_tag.entry(*tag).or_insert(*bytes) == *bytes;
                    }
                }
            }
            // Straddle (kind 3) preserves per-tag uniformity; other
            // kinds may break it — we only require *some* mutant did a
            // straddle and stayed consistent.
            if m != base && consistent {
                return;
            }
        }
        panic!("no consistent mutant found in 64 tries");
    }
}
