//! The two sweep engines give bit-identical results inside the DAG
//! engine's exactness contract (contention-flat machines). Every case
//! replays each point directly with `TraceSim`, the oracle, and
//! compares that with `mpi::sweep_points` on the same points and with a
//! single-point `TraceDag::evaluate` of each; no case compares
//! `sweep_points` with itself, because on a flat machine it is the DAG.
//! The cases reach every consumer of the DAG's cost tables:
//! single-point evaluation, the mixed-machine batch, the 8- and 32-wide
//! mapping lanes, an identity perturbed sample, and every program kind
//! priced through the scenario cache's compiled DAGs. All of them share
//! one per-thread scratch context, which the last cases check leaks
//! nothing between DAGs.

use bgp_eval::apps::{
    md_traces, pop_traces, CamConfig, GyroConfig, MdConfig, MdResult, PopConfig, S3dConfig,
};
use bgp_eval::cache::{evaluate_in, CacheConfig, ProgramSpec, ScenarioCache, ScenarioSpec, Setup};
use bgp_eval::engine::SimTime;
use bgp_eval::hpcc::{
    halo_eval_traces, halo_recording, halo_run, halo_traces, hpl_traces, HaloConfig, HaloProtocol,
    HplConfig,
};
use bgp_eval::machine::registry::{bluegene_p, xt4_dc};
use bgp_eval::machine::{ExecMode, PerturbSpec, Perturbation, PerturbationSampler};
use bgp_eval::mpi::{
    sweep_points, FnProgram, Mpi, RankLayout, SimConfig, SimResult, TraceDag, TraceSim, Traces,
};
use bgp_eval::net::DType;
use bgp_eval::topo::{Grid2D, Mapping, Placement};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Demand that two results of one point agree bit for bit.
fn assert_same(r: &SimResult, d: &SimResult, what: &str) {
    assert_eq!(r.finish, d.finish, "{what}: per-rank finish");
    assert_eq!(r.busy, d.busy, "{what}: per-rank busy");
    assert_eq!(r.marks, d.marks, "{what}: marks");
    assert_eq!((r.bytes_sent, r.messages), (d.bytes_sent, d.messages), "{what}: traffic");
}

/// Replay each of `points` directly and demand that `sweep_points`, a
/// single-point `TraceDag::evaluate` of each point and the first
/// point's identity perturbed sample match it; returns the replays.
fn assert_engines_agree(points: &[SimConfig], traces: &Traces, what: &str) -> Vec<SimResult> {
    let replay: Vec<SimResult> =
        points.iter().map(|p| TraceSim::new(p.clone()).replay(traces)).collect();
    let swept = sweep_points(points, &|| traces, None, None).unwrap();
    assert_eq!(swept.len(), points.len());
    let dag = TraceDag::compile(traces);
    for (i, (p, r)) in points.iter().zip(&replay).enumerate() {
        assert_same(r, &swept[i], &format!("{what}, point {i}, sweep_points"));
        assert_same(r, &dag.evaluate(p), &format!("{what}, point {i} alone"));
    }
    let perturbed = dag.evaluate_perturbed(&points[0], &[Perturbation::IDENTITY]);
    assert_same(&replay[0], &perturbed[0], &format!("{what}, identity sample"));
    replay
}

/// The eight Fig 2 mappings of `ranks` ranks on contention-flat BG/P in
/// VN mode.
fn fig2_points(ranks: usize) -> Vec<SimConfig> {
    mapping_points(ranks, ExecMode::Vn)
}

/// The eight Fig 2 mappings of `ranks` ranks on contention-flat BG/P in
/// `mode`.
fn mapping_points(ranks: usize, mode: ExecMode) -> Vec<SimConfig> {
    let flat = bluegene_p().with_flat_contention();
    Mapping::fig2_set()
        .iter()
        .map(|(_, mapping)| SimConfig {
            machine: flat.clone(),
            mode,
            threads: 1,
            layout: RankLayout::bluegene(&flat, ranks, mode, *mapping),
        })
        .collect()
}

/// Fig 2(c,d): the eight predefined mappings of one HALO trace on
/// contention-flat BG/P, for a latency-bound and a bandwidth-bound
/// halo and for both the overlapping and the serializing protocol.
#[test]
fn fig2_mapping_sweep_is_engine_invariant() {
    let flat = bluegene_p().with_flat_contention();
    for protocol in [HaloProtocol::IrecvIsend, HaloProtocol::Sendrecv] {
        for words in [8u64, 32_768] {
            let cfg = HaloConfig { grid: Grid2D::new(16, 8), words, protocol, reps: 2 };
            let points: Vec<SimConfig> = Mapping::fig2_set()
                .iter()
                .map(|(_, mapping)| cfg.sim_config(&flat, ExecMode::Vn, *mapping))
                .collect();
            let what = format!("halo {} {words}w", protocol.label());
            let res = assert_engines_agree(&points, &halo_recording(&cfg), &what);
            assert!(res.iter().all(|r| cfg.per_exchange(r) > 0.0), "{what}");
        }
    }
}

/// The benchmark harness's per-rank view of a HALO recording prices
/// exactly like a replay of the recording: compiled in place by
/// `TraceDag::compile_world`, replayed by `TraceSim::replay_traces`,
/// priced by `halo_run`, and evaluated by `halo_eval_traces` on its DAG
/// and replay paths.
#[test]
fn per_rank_view_prices_like_the_recording() {
    let cfg = HaloConfig {
        grid: Grid2D::new(16, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let (view, traces) = (halo_traces(&cfg), halo_recording(&cfg));
    assert_eq!(Traces::from_rank_vecs(&view), traces);
    let (world, dag) = (TraceDag::compile_world(&view), TraceDag::compile(&traces));
    assert_eq!(format!("{:?}", world.stats()), format!("{:?}", dag.stats()));
    let points = fig2_points(cfg.grid.size());
    for (i, (w, d)) in
        world.evaluate_many(&points).iter().zip(dag.evaluate_many(&points)).enumerate()
    {
        assert_same(w, &d, &format!("compile_world, point {i}"));
    }
    for (name, m) in [("flat", bluegene_p().with_flat_contention()), ("contended", bluegene_p())] {
        let point = cfg.sim_config(&m, ExecMode::Vn, Mapping::txyz());
        let want = TraceSim::new(point.clone()).replay(&traces);
        assert_same(&TraceSim::new(point).replay_traces(&view), &want, name);
        let per_exchange = cfg.per_exchange(&want).to_bits();
        let run = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg);
        assert_eq!(run.to_bits(), per_exchange, "halo_run, {name}");
        for (path, dag) in [("dag", Some(&world)), ("replay", None)] {
            let got = halo_eval_traces(&m, ExecMode::Vn, Mapping::txyz(), &cfg, &view, dag);
            assert_eq!(got.to_bits(), per_exchange, "halo_eval_traces {path} path, {name}");
        }
    }
}

/// The eight Fig 2 mappings repeated four times: 32 same-machine points
/// fill one 32-wide lane batch.
#[test]
fn wide_mapping_batch_is_engine_invariant() {
    let cfg = HaloConfig {
        grid: Grid2D::new(16, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let points: Vec<SimConfig> =
        fig2_points(cfg.grid.size()).into_iter().cycle().take(32).collect();
    assert_eq!(points.len(), 32);
    assert_engines_agree(&points, &halo_recording(&cfg), "halo 32-lane batch");
}

/// HPL's row and column communicators priced as an 8-mapping batch:
/// per-lane collective pricing on sub-communicators, plus the priced
/// compute column every lane shares.
#[test]
fn hpl_mapping_batch_is_engine_invariant() {
    let cfg = HplConfig { n: 4096, nb: 64, grid: Grid2D::new(8, 8), samples: 3 };
    let traces = hpl_traces(&cfg);
    let points = fig2_points(cfg.grid.size());
    assert_engines_agree(&points, &traces, "hpl 8x8 mappings");
}

/// Fig 8: one MD point (PMEMD's alltoall transposes, reductions and
/// rendezvous ghost exchanges) on two contention-flat machines priced
/// together, so the DAG serves a mixed-machine batch, and the BG/P
/// point alone through single-point evaluation.
#[test]
fn md_point_is_engine_invariant() {
    let cfg = MdConfig::pmemd_rub();
    let points: Vec<SimConfig> = [bluegene_p(), xt4_dc()]
        .into_iter()
        .map(|m| SimConfig::new(m.with_flat_contention(), 64, ExecMode::Vn))
        .collect();
    let traces = md_traces(64, &cfg);
    let res = assert_engines_agree(&points, &traces, "md pmemd 64r");
    assert!(res.iter().all(|r| MdResult::of(r, &cfg).ns_per_day > 0.0));
    assert_engines_agree(&points[..1], &traces, "md pmemd 64r bgp alone");
}

/// Every program kind of the scenario cache, plus CAM hybrid in SMP
/// mode, at one small point on contention-flat BG/P: the recording
/// replayed directly equals every DAG path, and the cached evaluation
/// (priced on tier 2's compiled DAG) equals the reduced replay.
#[test]
fn every_program_kind_is_engine_invariant_on_flat_bgp() {
    use ExecMode::{Smp, Vn};
    let flat = bluegene_p().with_flat_contention();
    let hpl = HplConfig { n: 4096, nb: 128, grid: Grid2D::new(4, 4), samples: 2 };
    let halo = HaloConfig {
        grid: Grid2D::new(4, 4),
        words: 64,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let placement = Placement::Fragmented { spread: 1.5, seed: 3 };
    let cases = [
        (ProgramSpec::Halo(halo), Vn),
        (ProgramSpec::Md { ranks: 16, cfg: MdConfig::pmemd_rub() }, Vn),
        (ProgramSpec::Hpl(hpl), Vn),
        (ProgramSpec::ImbAllreduce { ranks: 16, bytes: 1024, dtype: DType::F64 }, Vn),
        (ProgramSpec::Pop { ranks: 16, threads: 1, cfg: PopConfig::default() }, Vn),
        (ProgramSpec::S3d { ranks: 8, cfg: S3dConfig::default() }, Vn),
        (ProgramSpec::Gyro { ranks: 16, cfg: GyroConfig::b1_std() }, Vn),
        (ProgramSpec::Cam { ranks: 16, threads: 1, cfg: CamConfig::t42() }, Vn),
        (ProgramSpec::Cam { ranks: 8, threads: 4, cfg: CamConfig::fv_2deg() }, Smp),
        (ProgramSpec::Fft { ranks: 16, n: 1 << 16 }, Vn),
        (ProgramSpec::Ptrans { ranks: 16, n: 4096, placement }, Vn),
        (ProgramSpec::RandomAccess { ranks: 16, table_bytes: 1 << 20, updates: 1 << 10 }, Vn),
        (ProgramSpec::ImbBcast { ranks: 16, bytes: 1024 }, Vn),
        (ProgramSpec::Pingpong { bytes: 8, reps: 8 }, Smp),
        (ProgramSpec::RandomRing { ranks: 16, bytes: 8, seed: 1 }, Vn),
    ];
    let cache = ScenarioCache::new(CacheConfig::default());
    for (program, mode) in cases {
        let spec = ScenarioSpec::new(program, Setup::new(&flat, mode));
        let point = spec.program.sim_config(&spec.setup);
        let what = spec.to_canon().lines().nth(1).unwrap().to_string();
        let replay =
            assert_engines_agree(std::slice::from_ref(&point), &spec.program.record(), &what);
        let cached = evaluate_in(&cache, &spec).unwrap();
        let want = spec.program.reduce(&point, &replay[0]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cached), bits(&want), "{what}: cached evaluation");
    }
    let s = cache.stats();
    assert_eq!((s.trace_misses, s.trace_hits), (15, 0), "one compiled DAG per program");
}

/// Every evaluation on a thread runs on one shared scratch context. A
/// small POP point (a 360×240 grid on 16 ranks: messages, collectives,
/// marks) evaluated after a larger DAG's single point, 8-wide mapping
/// batch and 32-wide perturbed batch (the 0.1° POP on 64 ranks) must be
/// bit-identical to the same point on a fresh thread and to replay; so
/// must its point and 8-wide mapping batch alternated with an 8192-rank
/// HALO's, and the next point after an evaluation that panicked on a
/// structurally deadlocked DAG, as the fuzzer's differential oracle
/// catches it. The POP DAG's clocks run far past the small one's, and
/// the HALO's message and request slots far past its slot counts, so a
/// stale scratch slot would show.
#[test]
fn shared_scratch_leaks_no_state() {
    let tiny = PopConfig { nx: 360, ny: 240, ..PopConfig::default() };
    let traces = pop_traces(16, 1, &tiny);
    let small = TraceDag::compile(&traces);
    let small_cfg = fig2_points(16).swap_remove(3);
    let fresh = {
        let (dag, cfg) = (small.clone(), small_cfg.clone());
        std::thread::spawn(move || dag.evaluate(&cfg)).join().unwrap()
    };
    let replay = TraceSim::new(small_cfg.clone()).replay(&traces);
    assert_same(&replay, &fresh, "small pop on a fresh thread");
    assert!(fresh.marks.iter().all(|m| !m.is_empty()), "pop marks every rank");

    let big = TraceDag::compile(&pop_traces(64, 1, &PopConfig::default()));
    let points = fig2_points(64);
    let sampler = PerturbationSampler::new(7, PerturbSpec::default());
    let samples: Vec<Perturbation> = (0..32).map(|i| sampler.sample(i)).collect();
    assert!(big.evaluate(&points[0]).makespan() > fresh.makespan() * 10);
    assert_eq!(big.evaluate_many(&points).len(), 8);
    assert_eq!(big.evaluate_perturbed(&points[0], &samples).len(), 32);
    assert_same(&fresh, &small.evaluate(&small_cfg), "small pop after the larger dag");

    // alternate with a DAG of far more messages and requests (an
    // 8192-rank HALO) at one and at eight lanes
    let halo = HaloConfig {
        grid: Grid2D::near_square(8192),
        words: 512,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let huge = TraceDag::compile(&halo_recording(&halo));
    assert!(huge.stats().messages > small.stats().messages * 10);
    let (huge_points, small_points) = (fig2_points(8192), fig2_points(16));
    let fresh_many = {
        let (dag, points) = (small.clone(), small_points.clone());
        std::thread::spawn(move || dag.evaluate_many(&points)).join().unwrap()
    };
    for round in 0..2 {
        assert_eq!(huge.evaluate(&huge_points[round]).finish.len(), 8192);
        assert_same(&fresh, &small.evaluate(&small_cfg), &format!("small pop, round {round}"));
        assert_eq!(huge.evaluate_many(&huge_points).len(), 8);
        for (i, got) in small.evaluate_many(&small_points).iter().enumerate() {
            assert_same(&fresh_many[i], got, &format!("small pop lane {i}, round {round}"));
        }
    }

    let stuck = FnProgram(|mpi: &mut Mpi| {
        let peer = 1 - mpi.rank();
        mpi.recv(peer, 0, 8);
    });
    let deadlocked = TraceDag::compile(&TraceSim::trace_program(&stuck, 2, 1));
    let pair = SimConfig::new(bluegene_p().with_flat_contention(), 2, ExecMode::Smp);
    assert!(catch_unwind(AssertUnwindSafe(|| deadlocked.evaluate(&pair))).is_err());
    assert_same(&fresh, &small.evaluate(&small_cfg), "small pop after a caught panic");
}

/// Every shape the schedule lowers a wait into, priced against replay
/// one point at a time, as an 8- and a 32-wide mapping batch and as a
/// 32-wide identity perturbed batch:
/// - rank 0 waits on an eager send, on a rendezvous send and on a send
///   nobody receives;
/// - rank 1 first-waits on a receive whose send is scheduled later,
///   then on receives whose sends were scheduled earlier (the eager one
///   arrived before its receive's run began, so it pays the unexpected
///   copy), then on the eager one again;
/// - rank 2 first-waits on a receive whose send is scheduled later, and
///   posts one receive it never waits on.
///
/// Before each evaluation a DAG with more requests and messages and
/// clocks a second later fills the thread's scratch at the same width,
/// so a request value or message record the pass failed to write would
/// show.
#[test]
fn every_lowered_wait_shape_matches_replay() {
    let big = bluegene_p().nic.eager_threshold * 4;
    let prog = FnProgram(move |mpi: &mut Mpi| match mpi.rank() {
        0 => {
            for (dst, tag, bytes) in [(1, 0, 8), (1, 1, big), (2, 7, 64)] {
                let s = mpi.isend(dst, tag, bytes);
                mpi.wait(s);
            }
        }
        1 => {
            let first = mpi.irecv(3, 9, 8);
            mpi.wait(first);
            let eager = mpi.irecv(0, 0, 8);
            mpi.wait(eager);
            let rdv = mpi.irecv(0, 1, big);
            mpi.wait(rdv);
            mpi.wait(eager);
        }
        2 => {
            let later = mpi.irecv(3, 0, 256);
            let _never = mpi.irecv(3, 5, 16);
            mpi.wait(later);
        }
        _ => {
            mpi.delay(SimTime::from_us(50));
            for (dst, tag) in [(1, 9), (2, 0), (2, 5)] {
                let s = mpi.isend(dst, tag, 256);
                mpi.wait(s);
            }
        }
    });
    let filler = FnProgram(|mpi: &mut Mpi| {
        let (next, prev) = ((mpi.rank() + 1) % 4, (mpi.rank() + 3) % 4);
        mpi.delay(SimTime::from_secs(1.0));
        for tag in 0..8 {
            let r = mpi.irecv(prev, tag, 8);
            let s = mpi.isend(next, tag, 8);
            mpi.wait(s);
            mpi.wait(r);
        }
    });
    let traces = TraceSim::trace_program(&prog, 4, 1);
    let (dag, filler) =
        (TraceDag::compile(&traces), TraceDag::compile(&TraceSim::trace_program(&filler, 4, 1)));
    let points = mapping_points(4, ExecMode::Smp);
    let wide: Vec<SimConfig> = points.iter().cycle().take(32).cloned().collect();
    let identity = [Perturbation::IDENTITY; 32];

    filler.evaluate_many(&points);
    let replay = assert_engines_agree(&points, &traces, "wait shapes, 8 lanes");
    assert!(replay[0].finish[1] > SimTime::from_us(50), "rank 1 waits for rank 3");
    filler.evaluate_many(&wide);
    assert_engines_agree(&wide, &traces, "wait shapes, 32 lanes");
    for (i, p) in points.iter().enumerate() {
        filler.evaluate(p);
        assert_same(&replay[i], &dag.evaluate(p), &format!("wait shapes, point {i} alone"));
    }
    filler.evaluate_perturbed(&points[0], &identity);
    for (i, r) in dag.evaluate_perturbed(&points[0], &identity).iter().enumerate() {
        assert_same(&replay[0], r, &format!("wait shapes, identity lane {i}"));
    }
}

/// DAG clocks saturate: a send injected at `SimTime::MAX` completes its
/// send wait and its receive there, without a panic — one point, an
/// 8-wide mapping batch and a 32-wide identity perturbed batch, each
/// right after a larger DAG priced at the same width on this thread.
#[test]
fn saturated_send_evaluates_without_panic() {
    let prog = FnProgram(|mpi: &mut Mpi| {
        if mpi.rank() == 0 {
            mpi.delay(SimTime::MAX);
            let s = mpi.isend(1, 0, 8);
            mpi.wait(s);
        } else {
            let r = mpi.irecv(0, 0, 8);
            mpi.wait(r);
        }
    });
    let dag = TraceDag::compile(&TraceSim::trace_program(&prog, 2, 1));
    let pair = SimConfig::new(bluegene_p().with_flat_contention(), 2, ExecMode::Smp);
    let cfg = HaloConfig {
        grid: Grid2D::new(16, 8),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let larger = TraceDag::compile(&halo_recording(&cfg));
    let points = fig2_points(cfg.grid.size());
    let saturated = |r: &SimResult, what: &str| {
        assert_eq!(r.finish, vec![SimTime::MAX; 2], "{what}: finish clocks");
        assert_eq!(r.busy[0], SimTime::MAX, "{what}: rank 0 busy");
    };
    larger.evaluate(&points[0]);
    saturated(&dag.evaluate(&pair), "one point");
    larger.evaluate_many(&points);
    for r in dag.evaluate_many(&vec![pair.clone(); 8]) {
        saturated(&r, "8-wide mapping batch");
    }
    larger.evaluate_perturbed(&points[0], &[Perturbation::IDENTITY; 32]);
    for r in dag.evaluate_perturbed(&pair, &[Perturbation::IDENTITY; 32]) {
        saturated(&r, "32-wide perturbed batch");
    }
}
