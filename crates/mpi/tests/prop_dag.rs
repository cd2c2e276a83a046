//! Property tests pinning the DAG sweep engine to the replay oracle:
//! on contention-flat machines, `TraceDag::evaluate` must agree with
//! `TraceSim::replay` *exactly* — per-rank finish and busy
//! clocks, marks, byte and message counts — over randomized programs
//! (mixed eager/rendezvous payloads, send-first and receive-first wait
//! orders, stragglers, collectives) and randomized mappings.

use hpcsim_engine::SimTime;
use hpcsim_machine::registry::{bluegene_p, xt4_qc};
use hpcsim_machine::ExecMode;
use hpcsim_mpi::{CommId, FnProgram, Mpi, RankLayout, SimConfig, TraceDag, TraceSim};
use hpcsim_net::DType;
use hpcsim_topo::Mapping;
use proptest::prelude::*;
use std::sync::Arc;

fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = hpcsim_engine::splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// One communication round, precomputed so the rank closure is a pure
/// function of `(rank, spec)`.
struct Round {
    perm: Vec<usize>,
    bytes: u64,
    tag: u32,
    /// 0 = receive-first waits, 1 = send-first waits (provokes
    /// unexpected-message copies), 2 = blocking sendrecv.
    style: u8,
    /// Per-rank straggler delay in microseconds.
    delay_us: Vec<u64>,
    /// Collective appended after the exchange (none when `None`).
    coll: Option<u8>,
}

fn rounds(n: usize, n_rounds: usize, seed: u64) -> Vec<Round> {
    let mut state = seed;
    let mut next = move || {
        state = hpcsim_engine::splitmix64(state);
        state
    };
    (0..n_rounds)
        .map(|round| {
            let perm = permutation(n, next());
            // Mix payload regimes: tiny eager, mid eager, rendezvous.
            let bytes = match next() % 3 {
                0 => 1 + next() % 256,
                1 => 1 + next() % 8192,
                _ => 1 + next() % (1 << 20),
            };
            let style = (next() % 3) as u8;
            let delay_us = (0..n).map(|_| next() % 200).collect();
            let coll = match next() % 4 {
                0 => Some(0),
                1 => Some(1),
                _ => None,
            };
            Round { perm, bytes, tag: round as u32, style, delay_us, coll }
        })
        .collect()
}

fn round_program(spec: Arc<Vec<Round>>) -> impl Fn(&mut Mpi) + Sync {
    move |mpi: &mut Mpi| {
        let me = mpi.rank();
        for (i, round) in spec.iter().enumerate() {
            if round.delay_us[me] > 0 {
                mpi.delay(SimTime::from_us(round.delay_us[me]));
            }
            let dst = round.perm[me];
            let src = round.perm.iter().position(|&x| x == me).unwrap();
            if dst != me {
                match round.style {
                    0 => {
                        let r = mpi.irecv(src, round.tag, round.bytes);
                        let s = mpi.isend(dst, round.tag, round.bytes);
                        mpi.wait(r);
                        mpi.wait(s);
                    }
                    1 => {
                        let s = mpi.isend(dst, round.tag, round.bytes);
                        let r = mpi.irecv(src, round.tag, round.bytes);
                        mpi.wait(s);
                        mpi.wait(r);
                    }
                    _ => {
                        mpi.sendrecv(dst, round.tag, round.bytes, src, round.tag, round.bytes);
                    }
                }
            }
            match round.coll {
                Some(0) => mpi.barrier(CommId::WORLD),
                Some(_) => mpi.allreduce(CommId::WORLD, 64, DType::F64),
                None => {}
            }
            mpi.mark(i as u32);
        }
    }
}

fn assert_exact(replay: &hpcsim_mpi::SimResult, dag: &hpcsim_mpi::SimResult) {
    assert_eq!(replay.finish, dag.finish);
    assert_eq!(replay.busy, dag.busy);
    assert_eq!(replay.bytes_sent, dag.bytes_sent);
    assert_eq!(replay.messages, dag.messages);
    assert_eq!(replay.marks, dag.marks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DAG evaluation equals replay exactly on contention-flat machines,
    /// for random programs, both machine families, and both modes.
    #[test]
    fn dag_matches_replay_on_flat_machines(
        n in 2usize..32,
        n_rounds in 1usize..6,
        seed: u64,
    ) {
        let spec = Arc::new(rounds(n, n_rounds, seed));
        let prog = FnProgram(round_program(Arc::clone(&spec)));
        let traces = TraceSim::trace_program(&prog, n, 1);
        let dag = TraceDag::compile(&traces);
        for machine in [bluegene_p(), xt4_qc()] {
            for mode in [ExecMode::Vn, ExecMode::Smp] {
                let cfg = SimConfig::new(machine.clone().with_flat_contention(), n, mode);
                let replay = TraceSim::new(cfg.clone()).replay(&traces);
                let fast = dag.evaluate(&cfg);
                assert_exact(&replay, &fast);
            }
        }
    }

    /// One compiled DAG serves every mapping: agreement holds point by
    /// point across randomized BlueGene mappings (the Fig 2c/d sweep
    /// shape).
    #[test]
    fn dag_matches_replay_across_mappings(
        n in 2usize..48,
        n_rounds in 1usize..5,
        seed: u64,
        mapping_seed: u64,
    ) {
        let spec = Arc::new(rounds(n, n_rounds, seed));
        let prog = FnProgram(round_program(Arc::clone(&spec)));
        let traces = TraceSim::trace_program(&prog, n, 1);
        let dag = TraceDag::compile(&traces);
        let machine = bluegene_p().with_flat_contention();
        let predefined = Mapping::predefined();
        let (_, mapping) = &predefined[(mapping_seed % predefined.len() as u64) as usize];
        let layout = RankLayout::bluegene(&machine, n, ExecMode::Vn, *mapping);
        let cfg = SimConfig { machine, mode: ExecMode::Vn, threads: 1, layout };
        let replay = TraceSim::new(cfg.clone()).replay(&traces);
        assert_exact(&replay, &dag.evaluate(&cfg));
    }

    /// A zero-perturbation sample inside a batched Monte-Carlo pass is
    /// bit-identical to the single-point `evaluate_many` result, at
    /// every batch shape (scalar tail, padded narrow batch, wide
    /// batch), and perturbed lanes are batch-invariant: the batched
    /// result equals evaluating each sample on its own.
    #[test]
    fn zero_perturbation_is_bit_identical_in_batches(
        n in 2usize..24,
        n_rounds in 1usize..4,
        seed: u64,
        batch in 1usize..40,
    ) {
        use hpcsim_machine::{Perturbation, PerturbSpec, PerturbationSampler};
        let spec = Arc::new(rounds(n, n_rounds, seed));
        let prog = FnProgram(round_program(Arc::clone(&spec)));
        let traces = TraceSim::trace_program(&prog, n, 1);
        let dag = TraceDag::compile(&traces);
        let cfg = SimConfig::new(bluegene_p().with_flat_contention(), n, ExecMode::Vn);
        let base = &dag.evaluate_many(std::slice::from_ref(&cfg))[0];
        let sampler = PerturbationSampler::new(seed ^ 0x9e37_79b9, PerturbSpec::default());
        let mut samples: Vec<Perturbation> =
            (0..batch as u64).map(|i| sampler.sample(i)).collect();
        // pin a zero-perturbation lane somewhere inside the batch
        let zero_at = (seed % batch as u64) as usize;
        samples[zero_at] = Perturbation::IDENTITY;
        let batched = dag.evaluate_perturbed(&cfg, &samples);
        prop_assert_eq!(batched.len(), samples.len());
        assert_exact(base, &batched[zero_at]);
        for (i, s) in samples.iter().enumerate() {
            let single = &dag.evaluate_perturbed(&cfg, std::slice::from_ref(s))[0];
            assert_eq!(single.finish, batched[i].finish, "sample {i} batch-variant");
            assert_eq!(single.busy, batched[i].busy, "sample {i} batch-variant");
            assert_eq!(single.marks, batched[i].marks, "sample {i} batch-variant");
        }
    }

    /// Compilation and evaluation are deterministic: two compiles of the
    /// same trace produce identical results and identical stats.
    #[test]
    fn dag_is_deterministic(n in 2usize..24, seed: u64) {
        let spec = Arc::new(rounds(n, 3, seed));
        let prog = FnProgram(round_program(Arc::clone(&spec)));
        let traces = TraceSim::trace_program(&prog, n, 1);
        let cfg = SimConfig::new(bluegene_p().with_flat_contention(), n, ExecMode::Vn);
        let a = TraceDag::compile(&traces);
        let b = TraceDag::compile(&traces);
        assert_exact(&a.evaluate(&cfg), &b.evaluate(&cfg));
        prop_assert_eq!(a.stats().nodes, b.stats().nodes);
        prop_assert_eq!(a.stats().edges, b.stats().edges);
        prop_assert_eq!(a.stats().messages, b.stats().messages);
    }
}
