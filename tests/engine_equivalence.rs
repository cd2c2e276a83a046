//! The two sweep engines give bit-identical results inside the DAG
//! engine's exactness contract (contention-flat machines). Every case
//! prices the same points through `mpi::sweep_points` twice, under an
//! explicit `SweepEngine::Replay` and an explicit `SweepEngine::Dag` —
//! never through the process-global selection, so tests running in
//! parallel cannot race on it.

use bgp_eval::apps::{md_sim_config, md_traces, MdConfig, MdResult};
use bgp_eval::hpcc::{halo_traces, HaloConfig, HaloProtocol};
use bgp_eval::machine::registry::{bluegene_p, xt4_dc};
use bgp_eval::machine::ExecMode;
use bgp_eval::mpi::{sweep_points, Op, SimConfig, SimResult, SweepEngine};
use bgp_eval::topo::{Grid2D, Mapping};

/// Price `points` under both engines and demand identical results.
fn assert_engines_agree(points: &[SimConfig], traces: &[Vec<Op>], what: &str) -> Vec<SimResult> {
    let run = |engine| sweep_points(Some(engine), points, traces, &[], None, None).unwrap();
    let (replay, dag) = (run(SweepEngine::Replay), run(SweepEngine::Dag));
    assert_eq!(replay.len(), points.len());
    assert_eq!(dag.len(), points.len());
    for (i, (r, d)) in replay.iter().zip(&dag).enumerate() {
        assert_eq!(r.finish, d.finish, "{what}, point {i}: per-rank finish");
        assert_eq!(r.busy, d.busy, "{what}, point {i}: per-rank busy");
        assert_eq!(r.marks, d.marks, "{what}, point {i}: marks");
        assert_eq!(
            (r.bytes_sent, r.messages),
            (d.bytes_sent, d.messages),
            "{what}, point {i}: traffic"
        );
    }
    replay
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
            let res = assert_engines_agree(&points, &halo_traces(&cfg), &what);
            assert!(res.iter().all(|r| cfg.per_exchange(r) > 0.0), "{what}");
        }
    }
}

/// Fig 8: one MD point (PMEMD's alltoall transposes, reductions and
/// rendezvous ghost exchanges) on two contention-flat machines priced
/// together, so the DAG serves a mixed-machine batch.
#[test]
fn md_point_is_engine_invariant() {
    let cfg = MdConfig::pmemd_rub();
    let points: Vec<SimConfig> = [bluegene_p(), xt4_dc()]
        .into_iter()
        .map(|m| md_sim_config(&m.with_flat_contention(), 64))
        .collect();
    let res = assert_engines_agree(&points, &md_traces(64, &cfg), "md pmemd 64r");
    assert!(res.iter().all(|r| MdResult::of(r, &cfg).ns_per_day > 0.0));
}
