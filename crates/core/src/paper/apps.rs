//! Figures 4–8: the application studies (§III).

use super::{on_bgp, price, vn, Row, Traced};
use crate::experiment::Scale;
use crate::report::Figure;
use hpcsim_apps::{CamConfig, GyroConfig, GyroProblem, MdConfig, PopConfig, S3dConfig};
use hpcsim_cache::{ProgramSpec, Setup};
use hpcsim_machine::registry::{bluegene_l, bluegene_p, xt3, xt4_dc, xt4_qc};
use hpcsim_machine::ExecMode;
use std::sync::Arc;

/// Fig 4's process counts.
fn fig4_procs(scale: Scale) -> Vec<usize> {
    let mut procs: Vec<usize> =
        [2048usize, 4096, 8192, 16384, 22500, 40000].iter().map(|&p| scale.ranks(p)).collect();
    procs.dedup();
    procs
}

/// POP 0.1° on `ranks` tasks with the ChronGear or the standard CG solver.
fn pop(ranks: usize, chron_gear: bool) -> ProgramSpec {
    ProgramSpec::Pop { ranks, threads: 1, cfg: PopConfig { chron_gear, ..PopConfig::default() } }
}

/// Figure 4: POP tenth-degree — (a) total SYD by mode/solver, (b) phase
/// breakdown on BG/P, (c) BG/P vs XT4 total, (d) phase comparison.
pub fn fig4(scale: Scale) -> Vec<Figure> {
    let (bgp, xt) = (bluegene_p(), xt4_dc());
    let procs = fig4_procs(scale);

    // rows: every POP run of the four panels, in consumption order.
    // Panels (b) and (c) repeat series (a)'s VN ChronGear runs: the
    // scenario cache prices each distinct point once
    let series_a = [
        ("VN, ChronGear", ExecMode::Vn, true),
        ("VN, standard CG", ExecMode::Vn, false),
        ("DUAL, ChronGear", ExecMode::Dual, true),
        ("SMP, ChronGear", ExecMode::Smp, true),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for &(_, mode, chron) in &series_a {
        rows.extend(procs.iter().map(|&p| (pop(p, chron), vec![Setup::new(&bgp, mode)])));
    }
    for m in [&bgp, &bgp, &xt] {
        rows.extend(procs.iter().map(|&p| (pop(p, true), vec![vn(m)])));
    }
    // POP values: [syd, baroclinic_s, barrier_s, barotropic_s]
    let results = price(&rows);
    let mut it = results.iter().map(|r| &r[0]);

    let mut a = Figure::new("Fig 4(a): POP total performance on BG/P", "processes", "SYD");
    for (label, _, _) in series_a {
        let pts: Vec<(f64, f64)> =
            procs.iter().map(|&p| (p as f64, it.next().unwrap()[0])).collect();
        a.push_series(label, pts);
    }

    let mut b = Figure::new(
        "Fig 4(b): POP phase breakdown on BG/P (VN, ChronGear)",
        "processes",
        "seconds per simulated day",
    );
    let mut bc = Vec::new();
    let mut bt = Vec::new();
    let mut bar = Vec::new();
    for &p in &procs {
        let r = it.next().unwrap();
        bc.push((p as f64, r[1]));
        bt.push((p as f64, r[3]));
        bar.push((p as f64, r[2]));
    }
    b.push_series("Baroclinic", bc);
    b.push_series("Barotropic", bt);
    b.push_series("Timing barrier (imbalance)", bar);

    let mut c = Figure::new("Fig 4(c): POP total, BG/P vs XT4", "processes", "SYD");
    let mut d =
        Figure::new("Fig 4(d): POP phases, BG/P vs XT4", "processes", "seconds per simulated day");
    for label in ["BG/P", "XT4"] {
        let mut syd = Vec::new();
        let mut bc = Vec::new();
        let mut bt = Vec::new();
        for &p in &procs {
            let r = it.next().unwrap();
            syd.push((p as f64, r[0]));
            bc.push((p as f64, r[1]));
            bt.push((p as f64, r[3]));
        }
        c.push_series(label, syd);
        d.push_series(format!("{label} baroclinic"), bc);
        d.push_series(format!("{label} barotropic"), bt);
    }
    vec![a, b, c, d]
}

/// Fig 4's traced scenarios: both solvers at the smallest process count
/// on BG/P.
pub fn fig4_traced(scale: Scale) -> Vec<Traced> {
    let p = fig4_procs(scale)[0];
    [("chrongear", true), ("standard-cg", false)]
        .map(|(solver, chron)| on_bgp(format!("pop {solver} {p}r"), pop(p, chron), ExecMode::Vn))
        .into()
}

/// Fig 5's core counts.
fn fig5_cores(scale: Scale) -> Vec<usize> {
    let mut cores: Vec<usize> =
        [16usize, 32, 64, 128, 256, 512].iter().map(|&c| scale.ranks(c * 4).max(16)).collect();
    cores.dedup();
    cores
}

/// CAM `cfg` on `cores` cores: pure MPI in VN mode, or hybrid in SMP
/// mode with `threads` OpenMP threads per task.
fn cam(cfg: &CamConfig, cores: usize, threads: u32) -> (ProgramSpec, ExecMode) {
    let mode = if threads > 1 { ExecMode::Smp } else { ExecMode::Vn };
    let ranks = (cores / threads as usize).max(1);
    (ProgramSpec::Cam { ranks, threads, cfg: cfg.clone() }, mode)
}

/// Figure 5: CAM — (a) spectral dycore MPI vs hybrid on BG/P, (b) FV
/// dycore likewise, (c) spectral vs the XTs, (d) FV vs the XTs.
pub fn fig5(scale: Scale) -> Vec<Figure> {
    let core_counts = fig5_cores(scale);

    // rows: one sweep per (dycore config, MPI-vs-hybrid) and the
    // machines sharing its recording. BG/P's T85 and FV 1.9x2.5 hybrid
    // series in panels (a) and (b) are the BG/P column of the (c,d)
    // sweeps. XT3 (2 cores per node) runs 2 hybrid threads, not 4, so
    // it records apart.
    let machines = [bluegene_p(), xt3(), xt4_qc()];
    let cfgs = CamConfig::presets();
    let sweeps: [(&[usize], usize, bool); 9] = [
        (&[0], 0, false),
        (&[0], 0, true),
        (&[0], 1, false), // (a)
        (&[0], 3, true),
        (&[0], 2, false), // (b)
        (&[0, 2], 1, true),
        (&[0, 2], 2, true), // (a,b,c,d) BG/P, XT4
        (&[1], 1, true),
        (&[1], 2, true), // (c,d) XT3
    ];
    let mut rows: Vec<Row> = Vec::new();
    for &(ms, ci, hybrid) in &sweeps {
        let threads_of = |mi: usize| if hybrid { machines[mi].cores_per_node.min(4) } else { 1 };
        let threads = threads_of(ms[0]);
        debug_assert!(ms.iter().all(|&mi| threads_of(mi) == threads), "one recording per threads");
        for &cores in &core_counts {
            let (program, mode) = cam(&cfgs[ci], cores, threads);
            rows.push((program, ms.iter().map(|&mi| Setup::new(&machines[mi], mode)).collect()));
        }
    }
    // CAM values: [years_per_day, cores]
    let values = price(&rows);
    // the series of sweep `s` on its `k`-th machine
    let series = |s: usize, k: usize| -> Vec<(f64, f64)> {
        let chunk = &values[s * core_counts.len()..(s + 1) * core_counts.len()];
        core_counts.iter().zip(chunk).map(|(&c, v)| (c as f64, v[k][0])).collect()
    };

    let mut a = Figure::new("Fig 5(a): CAM spectral on BG/P", "cores", "simulated years/day");
    for (ci, mpi, hybrid) in [(0usize, 0, 1), (1, 2, 5)] {
        a.push_series(format!("{} MPI", cfgs[ci].name), series(mpi, 0));
        a.push_series(format!("{} hybrid", cfgs[ci].name), series(hybrid, 0));
    }

    let mut b = Figure::new("Fig 5(b): CAM finite-volume on BG/P", "cores", "simulated years/day");
    for (s, ci) in [(6, 2usize), (3, 3)] {
        b.push_series(format!("{} hybrid", cfgs[ci].name), series(s, 0));
    }
    b.push_series("FV 1.9x2.5 L26 MPI", series(4, 0));

    let mut c = Figure::new("Fig 5(c): CAM T85 across machines", "cores", "simulated years/day");
    let mut d =
        Figure::new("Fig 5(d): CAM FV 1.9x2.5 across machines", "cores", "simulated years/day");
    for (label, s, k) in [("BG/P", 5, 0), ("XT3", 7, 0), ("XT4", 5, 1)] {
        c.push_series(label, series(s, k));
        d.push_series(label, series(s + 1, k));
    }
    vec![a, b, c, d]
}

/// Fig 5's traced scenarios: T85 pure MPI and hybrid on BG/P at the
/// smallest core count.
pub fn fig5_traced(scale: Scale) -> Vec<Traced> {
    let cores = fig5_cores(scale)[0];
    [("MPI", 1), ("hybrid", 4)]
        .map(|(how, threads)| {
            let (program, mode) = cam(&CamConfig::t85(), cores, threads);
            on_bgp(format!("cam T85L26 {how} {cores}c"), program, mode)
        })
        .into()
}

/// Fig 6's process counts.
fn fig6_procs(scale: Scale) -> Vec<usize> {
    let mut procs: Vec<usize> =
        [64usize, 512, 1728, 4096, 12000].iter().map(|&p| scale.ranks(p)).collect();
    procs.dedup();
    procs
}

/// Figure 6: S3D weak scaling — cost per grid point per step across
/// machines.
pub fn fig6(scale: Scale) -> Vec<Figure> {
    let procs = fig6_procs(scale);
    let machines: Vec<Setup> = [bluegene_p(), xt3(), xt4_dc(), xt4_qc()].iter().map(vn).collect();
    // one recording per rank count, priced on all four machines
    let rows: Vec<Row> = procs
        .iter()
        .map(|&ranks| (ProgramSpec::S3d { ranks, cfg: S3dConfig::default() }, machines.clone()))
        .collect();
    // S3D values: [core_hours_per_point_step, seconds_per_step]
    let values = price(&rows);
    let mut f = Figure::new(
        "Fig 6: S3D weak scaling (50^3 points/rank)",
        "processes",
        "core-hours per grid point per step",
    );
    for (mi, label) in ["BG/P", "XT3", "XT4/DC", "XT4/QC"].into_iter().enumerate() {
        let pts = procs.iter().zip(&values).map(|(&p, v)| (p as f64, v[mi][0])).collect();
        f.push_series(label, pts);
    }
    vec![f]
}

/// Fig 6's traced scenario: S3D at the smallest process count on BG/P.
pub fn fig6_traced(scale: Scale) -> Vec<Traced> {
    let ranks = fig6_procs(scale)[0];
    let program = ProgramSpec::S3d { ranks, cfg: S3dConfig::default() };
    vec![on_bgp(format!("s3d {ranks}r"), program, ExecMode::Vn)]
}

/// Fig 7's B1-std strong-scaling process counts.
fn fig7_b1_procs(scale: Scale) -> Vec<usize> {
    let mut procs: Vec<usize> =
        [16usize, 64, 256, 1024, 2048].iter().map(|&p| scale.ranks(p).max(16) / 16 * 16).collect();
    procs.dedup();
    procs
}

/// Figure 7: GYRO — (a) B1-std strong scaling, (b) B3-gtc strong scaling,
/// (c) weak-scaled modified B3-gtc across machines.
pub fn fig7(scale: Scale) -> Vec<Figure> {
    let b1_procs = fig7_b1_procs(scale);
    let mut b3: Vec<usize> = b1_procs.iter().map(|&p| (p / 64 * 64).max(64)).collect();
    b3.dedup();
    let mut weak: Vec<usize> =
        [64usize, 128, 256, 512, 1024].iter().map(|&p| scale.ranks(p).max(64) / 64 * 64).collect();
    weak.dedup();

    // rows: one recording per (problem, rank count), priced on every
    // machine of its panel (each in the mode its memory allows)
    let machines = [bluegene_p(), xt4_qc(), bluegene_l(), xt4_dc()];
    let cfgs = [
        GyroConfig::b1_std(),
        GyroConfig::b3_gtc(),
        GyroConfig { problem: GyroProblem::B3GtcModified, steps: 4 },
    ];
    let strong: &[usize] = &[0, 1];
    let mut points: Vec<(&[usize], usize, usize)> = Vec::new();
    points.extend(b1_procs.iter().map(|&p| (strong, 0, p)));
    points.extend(b3.iter().map(|&p| (strong, 1, p)));
    points.extend(weak.iter().map(|&p| (&[0usize, 2, 3][..], 2, p)));
    let rows: Vec<Row> = points
        .iter()
        .map(|&(ms, ci, ranks)| {
            let program = ProgramSpec::Gyro { ranks, cfg: cfgs[ci].clone() };
            (program, ms.iter().map(|&mi| vn(&machines[mi])).collect())
        })
        .collect();
    // GYRO values: [seconds_per_step]
    let secs = price(&rows);
    let (b1_secs, rest) = secs.split_at(b1_procs.len());
    let (b3_secs, weak_secs) = rest.split_at(b3.len());
    let series = |procs: &[usize], secs: &[Vec<Arc<Vec<f64>>>], k: usize, f: fn(f64) -> f64| {
        procs.iter().zip(secs).map(|(&p, v)| (p as f64, f(v[k][0]))).collect::<Vec<_>>()
    };

    let mut a = Figure::new("Fig 7(a): GYRO B1-std strong scaling", "processes", "steps/second");
    let mut b = Figure::new("Fig 7(b): GYRO B3-gtc strong scaling", "processes", "steps/second");
    for (k, label) in ["BG/P", "XT4"].into_iter().enumerate() {
        a.push_series(label, series(&b1_procs, b1_secs, k, |s| 1.0 / s));
        b.push_series(label, series(&b3, b3_secs, k, |s| 1.0 / s));
    }

    let mut c =
        Figure::new("Fig 7(c): GYRO modified B3-gtc weak scaling", "processes", "seconds per step");
    for (k, label) in ["BG/P", "BG/L", "XT"].into_iter().enumerate() {
        c.push_series(label, series(&weak, weak_secs, k, |s| s));
    }
    vec![a, b, c]
}

/// Fig 7's traced scenarios: B1-std and B3-gtc on BG/P at B3's smallest
/// process count (B3-gtc in the DUAL mode its memory forces).
pub fn fig7_traced(scale: Scale) -> Vec<Traced> {
    let ranks = (fig7_b1_procs(scale)[0] / 64 * 64).max(64);
    [("b1-std", GyroConfig::b1_std()), ("b3-gtc", GyroConfig::b3_gtc())]
        .map(|(name, cfg)| {
            let program = ProgramSpec::Gyro { ranks, cfg };
            on_bgp(format!("gyro {name} {ranks}r"), program, ExecMode::Vn)
        })
        .into()
}

/// Fig 8's codes, with their trace labels.
fn fig8_codes() -> [(&'static str, MdConfig); 2] {
    [("lammps", MdConfig::lammps_rub()), ("pmemd", MdConfig::pmemd_rub())]
}

/// Figure 8: LAMMPS (a) and AMBER/PMEMD (b) on RuBisCO, BG/P vs XT3 and
/// XT4/DC.
pub fn fig8(scale: Scale) -> Vec<Figure> {
    let mut procs: Vec<usize> =
        [128usize, 256, 512, 1024, 2048, 4096].iter().map(|&p| scale.ranks(p)).collect();
    procs.dedup();

    // One row per (code, rank count) scans all three machines from one
    // recording — the trace is machine-agnostic.
    let machines: Vec<Setup> = [bluegene_p(), xt3(), xt4_dc()].iter().map(vn).collect();
    let rows: Vec<Row> = fig8_codes()
        .into_iter()
        .flat_map(|(_, cfg)| {
            procs.iter().map(move |&ranks| ProgramSpec::Md { ranks, cfg: cfg.clone() })
        })
        .map(|program| (program, machines.clone()))
        .collect();
    // MD values: [seconds_per_step, ns_per_day]
    let scans = price(&rows);

    let mut panels = Vec::new();
    for (ci, title) in
        ["Fig 8(a): LAMMPS, RuBisCO 290,220 atoms", "Fig 8(b): AMBER/PMEMD, RuBisCO 290,220 atoms"]
            .into_iter()
            .enumerate()
    {
        let mut f = Figure::new(title, "processes", "ns/day");
        for (mi, label) in ["BG/P", "XT3", "XT4/DC"].into_iter().enumerate() {
            let pts: Vec<(f64, f64)> = procs
                .iter()
                .enumerate()
                .map(|(pi, &p)| (p as f64, scans[ci * procs.len() + pi][mi][1]))
                .collect();
            f.push_series(label, pts);
        }
        panels.push(f);
    }
    panels
}

/// Fig 8's traced scenarios: both codes on BG/P.
pub fn fig8_traced(scale: Scale) -> Vec<Traced> {
    let ranks = scale.ranks(2048);
    fig8_codes()
        .map(|(name, cfg)| {
            let program = ProgramSpec::Md { ranks, cfg };
            on_bgp(format!("{name} {ranks}r"), program, ExecMode::Vn)
        })
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_has_four_panels_with_shapes() {
        let panels = fig4(Scale::Quick);
        assert_eq!(panels.len(), 4);
        // panel (c): XT above BG/P at every common x
        let c = &panels[2];
        let bgp = &c.series[0];
        let xt = &c.series[1];
        for (p_b, p_x) in bgp.points.iter().zip(&xt.points) {
            assert!(p_x.1 > p_b.1, "XT should lead at {} procs", p_b.0);
        }
    }

    #[test]
    fn fig6_quick_flat_series() {
        let panels = fig6(Scale::Quick);
        let f = &panels[0];
        for s in &f.series {
            let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
            let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = ys.iter().cloned().fold(0.0, f64::max);
            assert!(max / min < 1.25, "{} spread {:.2}", s.name, max / min);
        }
    }

    #[test]
    fn fig8_quick_lammps_beats_pmemd_at_scale() {
        let panels = fig8(Scale::Quick);
        let lammps = &panels[0];
        let pmemd = &panels[1];
        // on BG/P at the largest quick scale, LAMMPS achieves more ns/day
        let last_x = lammps.series[0].points.last().unwrap().0;
        let l = lammps.y_at("BG/P", last_x).unwrap();
        let p = pmemd.y_at("BG/P", last_x).unwrap();
        assert!(l > p, "LAMMPS {l:.2} vs PMEMD {p:.2} ns/day");
    }
}
