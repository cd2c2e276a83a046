//! The Wallcraft HALO benchmark (Figure 2).
//!
//! Simulates the nearest-neighbour exchange of a 1–2 row/column halo from
//! a 2-D array on a virtual processor grid (§II.B.1): exchange N words
//! with the logical north and 2N with the south; once those arrive,
//! N words west and 2N east. The suite varies three axes, exactly as the
//! paper's Figure 2 does:
//!
//! * (a,b) **MPI-1 protocol**: irecv-first, isend-first, or
//!   `MPI_Sendrecv` — the engine's unexpected-copy and serialization
//!   semantics differentiate them;
//! * (c,d) **process→processor mapping**: the predefined BG/P orderings;
//! * (e,f) **virtual grid shape** at fixed core count.

use crate::price;
use hpcsim_engine::SimTime;
use hpcsim_faults::FaultPlan;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{
    sweep_points, FnProgram, Mpi, Op, RankLayout, SimConfig, SimError, SimResult, SweepEngine,
    TraceDag, TraceSim,
};
use hpcsim_probe::Tracer;
use hpcsim_topo::{Grid2D, Mapping};
use serde::{Deserialize, Serialize};

/// Which MPI-1 protocol variant performs the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HaloProtocol {
    /// Post both receives, then both sends, then wait (best overlap).
    IrecvIsend,
    /// Sends first, receives after (risks unexpected-message copies).
    IsendIrecv,
    /// Two `MPI_Sendrecv` calls per direction pair (serializes).
    Sendrecv,
}

impl HaloProtocol {
    /// All protocol variants, for sweeps.
    pub fn all() -> [HaloProtocol; 3] {
        [HaloProtocol::IrecvIsend, HaloProtocol::IsendIrecv, HaloProtocol::Sendrecv]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HaloProtocol::IrecvIsend => "MPI_IRECV/ISEND",
            HaloProtocol::IsendIrecv => "MPI_ISEND/IRECV",
            HaloProtocol::Sendrecv => "MPI_SENDRECV",
        }
    }
}

/// A HALO experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloConfig {
    /// Virtual process grid (e.g. 128×64 for 8192 cores).
    pub grid: Grid2D,
    /// Words (4 bytes each) per single-width halo row/column.
    pub words: u64,
    /// Protocol variant.
    pub protocol: HaloProtocol,
    /// Exchange repetitions (result is per-exchange).
    pub reps: u32,
}

/// Record one halo exchange round into `mpi` (two phases: north/south,
/// then west/east). Public so benches can rebuild the exact trace the
/// suite replays.
pub fn halo_record_exchange(
    mpi: &mut Mpi,
    grid: Grid2D,
    words: u64,
    protocol: HaloProtocol,
    round: u32,
) {
    let me = mpi.rank();
    let north = grid.north(me);
    let south = grid.south(me);
    let west = grid.west(me);
    let east = grid.east(me);
    let b1 = 4 * words; // N words north/west
    let b2 = 8 * words; // 2N words south/east
    let t = round * 8;
    match protocol {
        HaloProtocol::IrecvIsend => {
            // phase 1: north/south
            let r1 = mpi.irecv(south, t, b1);
            let r2 = mpi.irecv(north, t + 1, b2);
            let s1 = mpi.isend(north, t, b1);
            let s2 = mpi.isend(south, t + 1, b2);
            mpi.waitall(&[r1, r2, s1, s2]);
            // phase 2: west/east
            let r3 = mpi.irecv(east, t + 2, b1);
            let r4 = mpi.irecv(west, t + 3, b2);
            let s3 = mpi.isend(west, t + 2, b1);
            let s4 = mpi.isend(east, t + 3, b2);
            mpi.waitall(&[r3, r4, s3, s4]);
        }
        HaloProtocol::IsendIrecv => {
            let s1 = mpi.isend(north, t, b1);
            let s2 = mpi.isend(south, t + 1, b2);
            let r1 = mpi.irecv(south, t, b1);
            let r2 = mpi.irecv(north, t + 1, b2);
            mpi.waitall(&[s1, s2, r1, r2]);
            let s3 = mpi.isend(west, t + 2, b1);
            let s4 = mpi.isend(east, t + 3, b2);
            let r3 = mpi.irecv(east, t + 2, b1);
            let r4 = mpi.irecv(west, t + 3, b2);
            mpi.waitall(&[s3, s4, r3, r4]);
        }
        HaloProtocol::Sendrecv => {
            mpi.sendrecv(north, t, b1, south, t, b1);
            mpi.sendrecv(south, t + 1, b2, north, t + 1, b2);
            mpi.sendrecv(west, t + 2, b1, east, t + 2, b1);
            mpi.sendrecv(east, t + 3, b2, west, t + 3, b2);
        }
    }
}

/// Record the trace a HALO experiment replays: one rank program per
/// grid cell, `reps` exchange rounds. The trace depends only on the
/// virtual grid / words / protocol — not on machine, mapping or mode —
/// which is what makes mapping sweeps cheap and DAG compilation sound.
pub fn halo_traces(cfg: &HaloConfig) -> Vec<Vec<Op>> {
    let grid = cfg.grid;
    let (words, protocol, reps) = (cfg.words, cfg.protocol, cfg.reps);
    TraceSim::trace_program(
        &FnProgram(move |mpi: &mut Mpi| {
            for round in 0..reps {
                halo_record_exchange(mpi, grid, words, protocol, round);
            }
        }),
        cfg.grid.size(),
        1,
    )
}

fn halo_layout(machine: &MachineSpec, mode: ExecMode, mapping: Mapping, ranks: usize) -> RankLayout {
    if machine.id.is_bluegene() {
        RankLayout::bluegene(machine, ranks, mode, mapping)
    } else {
        RankLayout::default_for(machine, ranks, mode)
    }
}

impl HaloConfig {
    /// The simulator configuration of one (machine, mode, mapping)
    /// point: BlueGene machines place ranks by `mapping`, others by
    /// their family default.
    pub fn sim_config(&self, machine: &MachineSpec, mode: ExecMode, mapping: Mapping) -> SimConfig {
        let layout = halo_layout(machine, mode, mapping, self.grid.size());
        SimConfig { machine: machine.clone(), mode, threads: 1, layout }
    }

    /// Seconds per exchange of a replayed or DAG-evaluated run
    /// (makespan / reps).
    pub fn per_exchange(&self, res: &SimResult) -> f64 {
        res.makespan().as_secs() / self.reps as f64
    }
}

/// Run a HALO experiment on the process-global sweep engine; returns
/// seconds per exchange (makespan / reps).
pub fn halo_run(machine: &MachineSpec, mode: ExecMode, mapping: Mapping, cfg: &HaloConfig) -> f64 {
    let point = cfg.sim_config(machine, mode, mapping);
    cfg.per_exchange(&price(&[point], &halo_traces(cfg), &[])[0])
}

/// Evaluate a single (machine, mode, mapping) point from traces the
/// caller already holds (they must be `halo_traces(cfg)`): through the
/// pre-compiled `dag` where it is exact ([`TraceDag::exact_for`]),
/// otherwise by replay. Bit-identical to [`halo_run`] on the same point.
pub fn halo_eval_traces(
    machine: &MachineSpec,
    mode: ExecMode,
    mapping: Mapping,
    cfg: &HaloConfig,
    traces: &[Vec<Op>],
    dag: Option<&TraceDag>,
) -> f64 {
    let engine = if dag.is_some() { SweepEngine::Dag } else { SweepEngine::Replay };
    // hand the pre-compiled DAG over as sweep_points' lazy provider
    let get = dag.map(|d| move || d);
    let get = get.as_ref().map(|f| f as _);
    let point = [cfg.sim_config(machine, mode, mapping)];
    let res = sweep_points(Some(engine), &point, traces, &[], get, None);
    cfg.per_exchange(&res.unwrap_or_else(|e| panic!("{e}"))[0])
}

/// One HALO point by event-queue replay, fallibly, with an optional
/// armed fault plan and an observability sink: the seconds per exchange
/// (detours and retransmits included) plus the full [`SimResult`] the
/// tracer observed, or the diagnosed [`SimError`] when the plan cuts
/// every route to some destination or exhausts a retransmit budget.
pub fn halo_try_run<T: Tracer>(
    machine: &MachineSpec,
    mode: ExecMode,
    mapping: Mapping,
    cfg: &HaloConfig,
    plan: Option<&FaultPlan>,
    tracer: &mut T,
) -> Result<(f64, SimResult), SimError> {
    let mut sim = TraceSim::new(cfg.sim_config(machine, mode, mapping));
    if let Some(p) = plan {
        sim.set_faults(p);
    }
    let res = sim.try_replay(&halo_traces(cfg), tracer)?;
    Ok((cfg.per_exchange(&res), res))
}

/// Sanity floor used by tests: an exchange can't beat four message
/// latencies.
pub fn latency_floor(machine: &MachineSpec) -> SimTime {
    (machine.nic.o_send + machine.nic.o_recv) * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::bluegene_p;

    fn cfg(grid: Grid2D, words: u64, protocol: HaloProtocol) -> HaloConfig {
        HaloConfig { grid, words, protocol, reps: 2 }
    }

    /// Fig 2(a): performance is "relatively insensitive to the choice of
    /// protocol, though MPI_SENDRECV is slower ... for certain halo
    /// sizes".
    #[test]
    fn sendrecv_never_faster_and_sometimes_slower() {
        let grid = Grid2D::new(16, 8); // 128 ranks keeps the test quick
        let m = bluegene_p();
        let mut sendrecv_penalty = 0usize;
        for words in [16u64, 512, 8192, 65536] {
            let t_ii = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(grid, words, HaloProtocol::IrecvIsend));
            let t_sr = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(grid, words, HaloProtocol::Sendrecv));
            assert!(t_sr > t_ii * 0.95, "words={words}: sendrecv {t_sr} vs {t_ii}");
            if t_sr > t_ii * 1.07 {
                sendrecv_penalty += 1;
            }
        }
        assert!(sendrecv_penalty >= 2, "sendrecv should lag for some sizes");
    }

    /// Fig 2(c,d): mapping choice is unimportant for small halos,
    /// important for large ones.
    #[test]
    fn mapping_matters_only_when_bandwidth_bound() {
        let grid = Grid2D::new(32, 32); // 1024 ranks
        let m = bluegene_p();
        let spread = |words: u64| {
            let times: Vec<f64> = Mapping::fig2_set()
                .iter()
                .map(|(_, map)| {
                    halo_run(&m, ExecMode::Vn, *map, &cfg(grid, words, HaloProtocol::IrecvIsend))
                })
                .collect();
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = times.iter().cloned().fold(0.0, f64::max);
            max / min
        };
        let small = spread(8);
        let large = spread(32_768);
        assert!(small < 1.35, "small-halo mapping spread {small:.2}");
        assert!(large > small, "large {large:.2} should exceed small {small:.2}");
        assert!(large > 1.25, "large-halo mapping spread {large:.2}");
    }

    /// Fig 2(e,f): cost does not grow with the processor-grid size —
    /// "good scalability for the halo operator".
    #[test]
    fn grid_size_does_not_blow_up_cost() {
        let m = bluegene_p();
        let t_small = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(Grid2D::new(8, 8), 2048, HaloProtocol::IrecvIsend));
        let t_big = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(Grid2D::new(32, 16), 2048, HaloProtocol::IrecvIsend));
        assert!(
            t_big < t_small * 2.5,
            "64 -> 512 ranks grew cost {t_small:.2e} -> {t_big:.2e}"
        );
    }

    /// A survivable fault plan makes the exchange slower, never faster,
    /// and a run with no armed plan is unaffected by the feature.
    #[test]
    fn faulty_halo_is_no_faster_than_pristine() {
        use hpcsim_faults::FaultProfile;
        use hpcsim_probe::NoopTracer;
        let m = bluegene_p();
        let grid = Grid2D::new(16, 8);
        let c = cfg(grid, 8192, HaloProtocol::IrecvIsend);
        let pristine = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &c);
        let plan = FaultPlan::new(5, FaultProfile::Mixed);
        let faulty = || {
            halo_try_run(&m, ExecMode::Vn, Mapping::txyz(), &c, Some(&plan), &mut NoopTracer)
                .map(|(secs, _)| secs)
        };
        match faulty() {
            Ok(faulty) => assert!(
                faulty >= pristine * 0.999,
                "faults sped up the halo: {faulty:.3e} < {pristine:.3e}"
            ),
            Err(e) => panic!("mixed plan at this scale should survive: {e}"),
        }
        // reproducible
        assert_eq!(faulty().unwrap(), faulty().unwrap());
    }

    /// The DAG sweep engine agrees with replay bit-for-bit across the
    /// Fig 2 mapping set: exactly on a contention-flat machine (where
    /// the DAG path is live), and trivially on the real contended BG/P
    /// (where it falls back to replay).
    #[test]
    fn dag_engine_matches_replay_across_mappings() {
        let grid = Grid2D::new(16, 8);
        let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|(_, m)| *m).collect();
        for words in [8u64, 2048, 32_768] {
            let c = cfg(grid, words, HaloProtocol::IrecvIsend);
            let traces = halo_traces(&c);
            for m in [bluegene_p().with_flat_contention(), bluegene_p()] {
                let points: Vec<SimConfig> =
                    mappings.iter().map(|&mp| c.sim_config(&m, ExecMode::Vn, mp)).collect();
                let sweep = |engine| {
                    let res = sweep_points(Some(engine), &points, &traces, &[], None, None);
                    res.unwrap().iter().map(|r| c.per_exchange(r)).collect::<Vec<_>>()
                };
                let (replay, dag) = (sweep(SweepEngine::Replay), sweep(SweepEngine::Dag));
                assert_eq!(replay, dag, "words={words} flat={}", m.contention_flat());
            }
        }
    }

    /// The halo cost grows monotonically-ish with halo width.
    #[test]
    fn cost_grows_with_words() {
        let m = bluegene_p();
        let grid = Grid2D::new(8, 8);
        let t1 = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(grid, 8, HaloProtocol::IrecvIsend));
        let t2 = halo_run(&m, ExecMode::Vn, Mapping::txyz(), &cfg(grid, 32_768, HaloProtocol::IrecvIsend));
        assert!(t2 > t1 * 3.0, "{t1:.2e} -> {t2:.2e}");
        assert!(t1 * 1e6 > 1.0, "even tiny halos cost > 1 us: {:.2}", t1 * 1e6);
    }
}
