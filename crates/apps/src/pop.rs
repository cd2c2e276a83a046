//! The Parallel Ocean Program 0.1° proxy (Figure 4).
//!
//! POP's performance is "characterized by the performance of a baroclinic
//! phase and a barotropic phase" (§III.A). The baroclinic phase is a 3-D
//! nearest-neighbour stencil sweep that scales well; the barotropic phase
//! solves a 2-D implicit system with a preconditioned conjugate-gradient
//! iteration whose per-iteration global reduction makes it latency-bound
//! — the phase that eventually dominates on the XT but keeps improving on
//! BG/P thanks to the tree network (Fig 4d).
//!
//! The proxy reproduces the paper's measurement methodology exactly: a
//! timing barrier between the phases so that baroclinic load imbalance is
//! not misattributed to the barotropic solver (Fig 4b).

use hpcsim_engine::SimTime;
use hpcsim_machine::Workload;
use hpcsim_mpi::{CommId, FnProgram, Mpi, SimResult, TraceSim, Traces};
use hpcsim_net::DType;
use hpcsim_topo::Grid2D;
use serde::Serialize;

/// Phase-mark labels.
const MARK_STEP_START: u32 = 10;
const MARK_BAROCLINIC_END: u32 = 11;
const MARK_BARRIER_END: u32 = 12;
const MARK_BAROTROPIC_END: u32 = 13;

/// POP benchmark configuration (defaults: the 0.1° tenth-degree problem).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PopConfig {
    /// Horizontal grid.
    pub nx: u64,
    /// Horizontal grid.
    pub ny: u64,
    /// Vertical levels.
    pub nz: u64,
    /// Baroclinic steps per simulated model day.
    pub steps_per_day: f64,
    /// Conjugate-gradient iterations per baroclinic step.
    pub cg_iters: u64,
    /// Use the Chronopoulos–Gear single-reduction variant.
    pub chron_gear: bool,
    /// CG iterations actually simulated (time is scaled to `cg_iters`);
    /// keeps trace sizes bounded at 40,000 ranks.
    pub cg_sim: u64,
    /// Baroclinic flops per grid point (calibrated constant).
    pub flops_per_point: f64,
    /// Fractional land/ocean load imbalance across ranks.
    pub imbalance: f64,
}

impl Default for PopConfig {
    fn default() -> Self {
        PopConfig {
            nx: 3600,
            ny: 2400,
            nz: 40,
            steps_per_day: 200.0,
            cg_iters: 180,
            chron_gear: true,
            cg_sim: 24,
            flops_per_point: 1600.0,
            imbalance: 0.18,
        }
    }
}

/// Result of a POP proxy run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PopResult {
    /// Simulated years per wall-clock day — the paper's headline metric.
    pub syd: f64,
    /// Baroclinic phase, seconds per simulated day (process 0).
    pub baroclinic_s: f64,
    /// Timing-barrier (load imbalance), seconds per simulated day.
    pub barrier_s: f64,
    /// Barotropic phase, seconds per simulated day (process 0).
    pub barotropic_s: f64,
}

impl PopResult {
    /// The paper's metrics of a priced run of `cfg`: process 0's phase
    /// times per simulated day, the barotropic scaled to `cg_iters`.
    pub fn of(res: &SimResult, cfg: &PopConfig) -> PopResult {
        let steps = cfg.steps_per_day;
        let bc = res.mark_span(0, MARK_STEP_START, MARK_BAROCLINIC_END).unwrap().as_secs();
        let bar = res.mark_span(0, MARK_BAROCLINIC_END, MARK_BARRIER_END).unwrap().as_secs();
        let bt_sim = res.mark_span(0, MARK_BARRIER_END, MARK_BAROTROPIC_END).unwrap().as_secs();
        let bt = bt_sim * cfg.cg_iters as f64 / cfg.cg_sim as f64;
        // whole-step wall time: the slowest rank, with the barotropic scaled
        let step_wall = res.makespan().as_secs() + bt - bt_sim;
        let t_day = steps * step_wall;
        PopResult {
            syd: 86_400.0 / (t_day * 365.0),
            baroclinic_s: bc * steps,
            barrier_s: bar * steps,
            barotropic_s: bt * steps,
        }
    }
}

/// Record one POP step on `ranks` tasks × `threads` (machine-free).
pub fn pop_traces(ranks: usize, threads: u32, cfg: &PopConfig) -> Traces {
    let grid = Grid2D::near_square(ranks);
    let prog = cfg.clone();
    let record = FnProgram(move |mpi: &mut Mpi| record_step(mpi, &prog, grid));
    TraceSim::trace_program(&record, ranks, threads)
}

/// Record one baroclinic step + barotropic solve for this rank.
fn record_step(mpi: &mut Mpi, cfg: &PopConfig, grid: Grid2D) {
    let p = mpi.size() as u64;
    let me = mpi.rank();
    let pts3d = cfg.nx * cfg.ny * cfg.nz / p;
    let pts2d = (cfg.nx * cfg.ny / p).max(1);
    // local block edge (points) for halo sizing
    let bx = cfg.nx / grid.cols as u64;
    let by = cfg.ny / grid.rows as u64;

    mpi.mark(MARK_STEP_START);

    // --- baroclinic: 3-D stencil sweep + land/ocean imbalance ---------
    mpi.compute(Workload::Stencil {
        points: pts3d.max(1),
        flops_per_point: cfg.flops_per_point,
        bytes_per_point: 96.0,
    });
    // Land/ocean load imbalance is REGIONAL — continents are contiguous,
    // so a rank's neighbours carry similar loads and halo exchanges do
    // not absorb the skew; only the global barrier does (which is how
    // the paper could measure it, Fig 4b). A smooth bump centred in the
    // middle of the process grid, zero at rank 0, models this.
    let (row, col) = grid.pos(me);
    let tau = std::f64::consts::TAU;
    let rphase = row as f64 / grid.rows as f64;
    let cphase = col as f64 / grid.cols as f64;
    let jitter = 0.25 * (1.0 - (tau * rphase).cos()) * (1.0 - (tau * cphase).cos());
    let extra = cfg.imbalance * jitter;
    mpi.compute(Workload::Stencil {
        points: ((pts3d.max(1)) as f64 * extra) as u64,
        flops_per_point: cfg.flops_per_point,
        bytes_per_point: 96.0,
    });
    // 2-D halo of the 3-D blocks: 4 neighbours, ghost width 2
    let bytes_ns = 2 * bx.max(1) * cfg.nz * 8 * 3;
    let bytes_ew = 2 * by.max(1) * cfg.nz * 8 * 3;
    let (n, s, w, e) = (grid.north(me), grid.south(me), grid.west(me), grid.east(me));
    let r1 = mpi.irecv(s, 1, bytes_ns);
    let r2 = mpi.irecv(n, 2, bytes_ns);
    let s1 = mpi.isend(n, 1, bytes_ns);
    let s2 = mpi.isend(s, 2, bytes_ns);
    mpi.waitall(&[r1, r2, s1, s2]);
    let r3 = mpi.irecv(e, 3, bytes_ew);
    let r4 = mpi.irecv(w, 4, bytes_ew);
    let s3 = mpi.isend(w, 3, bytes_ew);
    let s4 = mpi.isend(e, 4, bytes_ew);
    mpi.waitall(&[r3, r4, s3, s4]);

    mpi.mark(MARK_BAROCLINIC_END);
    // --- the paper's timing barrier (absorbs the imbalance) ----------
    mpi.barrier(CommId::WORLD);
    mpi.mark(MARK_BARRIER_END);

    // --- barotropic: 2-D PCG, latency-bound ---------------------------
    // per iteration: 9-pt stencil update + halo + global reduction(s);
    // Chronopoulos–Gear fuses the two reductions into one at slightly
    // more local work.
    let (reductions, flop_scale) = if cfg.chron_gear { (1, 1.15) } else { (2, 1.0) };
    let halo_est = SimTime::from_us_f64(4.0 * 2.0); // four small neighbour msgs
    for _ in 0..cfg.cg_sim {
        mpi.compute(Workload::Stencil {
            points: pts2d,
            flops_per_point: 34.0 * flop_scale,
            bytes_per_point: 48.0,
        });
        mpi.delay(halo_est);
        for _ in 0..reductions {
            mpi.allreduce(CommId::WORLD, 8, DType::F64);
        }
    }
    mpi.mark(MARK_BAROTROPIC_END);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_dc};
    use hpcsim_machine::{ExecMode, MachineSpec};
    use hpcsim_mpi::{sweep_points, SimConfig};

    fn pop_run(
        machine: &MachineSpec,
        mode: ExecMode,
        ranks: usize,
        threads: u32,
        cfg: &PopConfig,
    ) -> PopResult {
        let point = SimConfig { threads, ..SimConfig::new(machine.clone(), ranks, mode) };
        let traces = pop_traces(ranks, threads, cfg);
        PopResult::of(&sweep_points(&[point], &|| &traces, None, None).unwrap()[0], cfg)
    }

    fn bgp(ranks: usize, mode: ExecMode) -> PopResult {
        pop_run(&bluegene_p(), mode, ranks, 1, &PopConfig::default())
    }
    fn xt(ranks: usize) -> PopResult {
        pop_run(&xt4_dc(), ExecMode::Vn, ranks, 1, &PopConfig::default())
    }

    /// Paper anchor: BG/P obtains ≈3.6 SYD at 8192 cores (Table 3 /
    /// Fig 4a). Accept ±35% — this is a proxy, the shape tests below are
    /// the strict ones.
    #[test]
    fn bgp_syd_anchor_8192() {
        let r = bgp(8192, ExecMode::Vn);
        assert!(r.syd > 2.3 && r.syd < 4.9, "BG/P SYD(8192) = {:.2}", r.syd);
    }

    /// Paper anchor: XT4 ≈ 3.6× BG/P at 8000 processes (Fig 4c).
    #[test]
    fn xt_ratio_at_8k() {
        let b = bgp(8192, ExecMode::Vn);
        let x = xt(8192);
        let ratio = x.syd / b.syd;
        assert!(ratio > 2.6 && ratio < 4.6, "XT4/BG-P SYD ratio {ratio:.2}");
    }

    /// Fig 4a: scaling is near-linear out to 8000 processes on BG/P.
    #[test]
    fn bgp_scales_to_8k() {
        let a = bgp(2048, ExecMode::Vn);
        let b = bgp(8192, ExecMode::Vn);
        let speedup = b.syd / a.syd;
        assert!(speedup > 3.0, "2048→8192 speedup {speedup:.2}");
    }

    /// Fig 4a: performance is relatively insensitive to execution mode.
    #[test]
    fn mode_insensitivity() {
        let vn = bgp(2048, ExecMode::Vn);
        let smp = bgp(2048, ExecMode::Smp);
        let ratio = vn.syd / smp.syd;
        assert!((0.75..1.35).contains(&ratio), "VN/SMP ratio {ratio:.2}");
    }

    /// Fig 4b: the baroclinic phase dominates at moderate scale, and the
    /// measured imbalance (barrier time) is comparable to the barotropic
    /// cost in the 8000–20000 range.
    #[test]
    fn phase_structure_at_8k() {
        let r = bgp(8192, ExecMode::Vn);
        assert!(r.baroclinic_s > r.barotropic_s, "{r:?}");
        let ratio = r.barrier_s / r.barotropic_s;
        assert!((0.3..4.0).contains(&ratio), "imbalance/barotropic {ratio:.2} ({r:?})");
    }

    /// Fig 4d: XT4 barotropic stops improving beyond ~8000 processes
    /// while BG/P's keeps improving.
    #[test]
    fn barotropic_scaling_divergence() {
        let x8 = xt(8192);
        let x16 = xt(16384);
        assert!(
            x16.barotropic_s > x8.barotropic_s * 0.85,
            "XT barotropic should plateau: {:.2}s -> {:.2}s",
            x8.barotropic_s,
            x16.barotropic_s
        );
        let b8 = bgp(8192, ExecMode::Vn);
        let b16 = bgp(16384, ExecMode::Vn);
        assert!(
            b16.barotropic_s < b8.barotropic_s * 0.95,
            "BG/P barotropic should improve: {:.2}s -> {:.2}s",
            b8.barotropic_s,
            b16.barotropic_s
        );
    }

    /// Fig 4a: the C-G and standard solvers perform within a few percent.
    #[test]
    fn solver_variant_minor() {
        let cg = pop_run(&bluegene_p(), ExecMode::Vn, 2048, 1, &PopConfig::default());
        let std = pop_run(
            &bluegene_p(),
            ExecMode::Vn,
            2048,
            1,
            &PopConfig { chron_gear: false, ..PopConfig::default() },
        );
        let ratio = cg.syd / std.syd;
        assert!((0.85..1.25).contains(&ratio), "CG/std ratio {ratio:.2}");
    }

    /// The C-G variant's advantage grows with scale (fewer reductions).
    #[test]
    fn chron_gear_helps_barotropic_at_scale() {
        let run = |chron| {
            pop_run(
                &xt4_dc(),
                ExecMode::Vn,
                8192,
                1,
                &PopConfig { chron_gear: chron, ..PopConfig::default() },
            )
        };
        assert!(run(true).barotropic_s < run(false).barotropic_s);
    }
}
