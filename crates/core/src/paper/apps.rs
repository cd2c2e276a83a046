//! Figures 4–8: the application studies (§III).

use super::pop_point;
use crate::experiment::Scale;
use crate::report::Figure;
use crate::runner::parmap;
use hpcsim_apps as apps;
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::{bluegene_l, bluegene_p, xt3, xt4_dc, xt4_qc};
use hpcsim_machine::ExecMode;
use hpcsim_mpi::SimConfig;

/// Figure 4: POP tenth-degree — (a) total SYD by mode/solver, (b) phase
/// breakdown on BG/P, (c) BG/P vs XT4 total, (d) phase comparison.
pub fn fig4(scale: Scale) -> Vec<Figure> {
    let bgp = bluegene_p();
    let xt = xt4_dc();
    let procs: Vec<usize> =
        [2048usize, 4096, 8192, 16384, 22500, 40000].iter().map(|&p| scale.ranks(p)).collect();
    let mut procs = procs;
    procs.dedup();
    let cfg = apps::PopConfig::default();

    // scenario set: every POP run in the four panels, in consumption
    // order; `chron: None` means "use the default config untouched"
    let machines = [&bgp, &xt];
    let series_a = [
        ("VN, ChronGear", ExecMode::Vn, true),
        ("VN, standard CG", ExecMode::Vn, false),
        ("DUAL, ChronGear", ExecMode::Dual, true),
        ("SMP, ChronGear", ExecMode::Smp, true),
    ];
    let mut points: Vec<(usize, ExecMode, Option<bool>, usize)> = Vec::new();
    for &(_, mode, chron) in &series_a {
        for &p in &procs {
            points.push((0, mode, Some(chron), p));
        }
    }
    for &p in &procs {
        points.push((0, ExecMode::Vn, None, p));
    }
    for mi in 0..machines.len() {
        for &p in &procs {
            points.push((mi, ExecMode::Vn, None, p));
        }
    }
    // panels (b) and (c) repeat series (a)'s VN ChronGear runs: the
    // scenario cache prices each distinct point once
    let results = parmap(&points, |&(mi, mode, chron, p)| match chron {
        Some(ch) => {
            pop_point(machines[mi], mode, p, 1, &apps::PopConfig { chron_gear: ch, ..cfg.clone() })
        }
        None => pop_point(machines[mi], mode, p, 1, &cfg),
    });
    let mut it = results.into_iter();

    let mut a = Figure::new("Fig 4(a): POP total performance on BG/P", "processes", "SYD");
    for (label, _, _) in series_a {
        let pts: Vec<(f64, f64)> =
            procs.iter().map(|&p| (p as f64, it.next().unwrap().syd)).collect();
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
        bc.push((p as f64, r.baroclinic_s));
        bt.push((p as f64, r.barotropic_s));
        bar.push((p as f64, r.barrier_s));
    }
    b.push_series("Baroclinic", bc);
    b.push_series("Barotropic", bt);
    b.push_series("Timing barrier (imbalance)", bar);

    let mut c = Figure::new("Fig 4(c): POP total, BG/P vs XT4", "processes", "SYD");
    let mut d = Figure::new(
        "Fig 4(d): POP phases, BG/P vs XT4",
        "processes",
        "seconds per simulated day",
    );
    for label in ["BG/P", "XT4"] {
        let mut syd = Vec::new();
        let mut bc = Vec::new();
        let mut bt = Vec::new();
        for &p in &procs {
            let r = it.next().unwrap();
            syd.push((p as f64, r.syd));
            bc.push((p as f64, r.baroclinic_s));
            bt.push((p as f64, r.barotropic_s));
        }
        c.push_series(label, syd);
        d.push_series(format!("{label} baroclinic"), bc);
        d.push_series(format!("{label} barotropic"), bt);
    }
    vec![a, b, c, d]
}

/// Figure 5: CAM — (a) spectral dycore MPI vs hybrid on BG/P, (b) FV
/// dycore likewise, (c) spectral vs the XTs, (d) FV vs the XTs.
pub fn fig5(scale: Scale) -> Vec<Figure> {
    let bgp = bluegene_p();
    let core_counts: Vec<usize> =
        [16usize, 32, 64, 128, 256, 512].iter().map(|&c| scale.ranks(c * 4).max(16)).collect();
    let mut core_counts = core_counts;
    core_counts.dedup();

    // scenario set: one sweep per (dycore config, MPI-vs-hybrid) and the
    // machines sharing its recording. BG/P's T85 and FV 1.9x2.5 hybrid
    // series in panels (a) and (b) are the BG/P column of the (c,d)
    // sweeps. XT3 (2 cores per node) runs 2 hybrid threads, not 4, so
    // it records apart.
    let machines = [bgp, xt3(), xt4_qc()];
    let cfgs = [
        apps::CamConfig::t42(),
        apps::CamConfig::t85(),
        apps::CamConfig::fv_2deg(),
        apps::CamConfig::fv_half_deg(),
    ];
    let sweeps: [(&[usize], usize, bool); 9] = [
        (&[0], 0, false), (&[0], 0, true), (&[0], 1, false),    // (a)
        (&[0], 3, true), (&[0], 2, false),                      // (b)
        (&[0, 2], 1, true), (&[0, 2], 2, true),                 // (a,b,c,d) BG/P, XT4
        (&[1], 1, true), (&[1], 2, true),                       // (c,d) XT3
    ];
    let points: Vec<(&[usize], usize, bool, usize)> = sweeps
        .iter()
        .flat_map(|&(ms, ci, hybrid)| core_counts.iter().map(move |&c| (ms, ci, hybrid, c)))
        .collect();
    let values = parmap(&points, |&(ms, ci, hybrid, cores)| {
        let threads_of = |mi: usize| if hybrid { machines[mi].cores_per_node.min(4) } else { 1 };
        let threads = threads_of(ms[0]);
        debug_assert!(ms.iter().all(|&mi| threads_of(mi) == threads), "one recording per threads");
        let mode = if hybrid { ExecMode::Smp } else { ExecMode::Vn };
        let ranks = (cores / threads as usize).max(1);
        let cfg = &cfgs[ci];
        let points: Vec<SimConfig> = ms
            .iter()
            .map(|&mi| apps::cam_sim_config(&machines[mi], mode, ranks, threads, cfg))
            .collect();
        let res = hpcc::price(&points, &apps::cam_traces(ranks, threads, cfg), &[]);
        res.iter().map(|r| apps::CamResult::of(r, threads, cfg).years_per_day).collect::<Vec<_>>()
    });
    // the series of sweep `s` on its `k`-th machine
    let series = |s: usize, k: usize| -> Vec<(f64, f64)> {
        let chunk = &values[s * core_counts.len()..(s + 1) * core_counts.len()];
        core_counts.iter().zip(chunk).map(|(&c, v)| (c as f64, v[k])).collect()
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

/// Figure 6: S3D weak scaling — cost per grid point per step across
/// machines.
pub fn fig6(scale: Scale) -> Vec<Figure> {
    let procs: Vec<usize> =
        [64usize, 512, 1728, 4096, 12000].iter().map(|&p| scale.ranks(p)).collect();
    let mut procs = procs;
    procs.dedup();
    let cfg = apps::S3dConfig::default();
    let machines = [bluegene_p(), xt3(), xt4_dc(), xt4_qc()];
    // one recording per rank count, priced on all four machines
    let values = parmap(&procs, |&p| {
        let points: Vec<SimConfig> =
            machines.iter().map(|m| SimConfig::new(m.clone(), p, ExecMode::Vn)).collect();
        let res = hpcc::price(&points, &apps::s3d_traces(p, &cfg), &[]);
        let cost = |r| apps::S3dResult::of(r, p, &cfg).core_hours_per_point_step;
        res.iter().map(cost).collect::<Vec<_>>()
    });
    let mut f = Figure::new(
        "Fig 6: S3D weak scaling (50^3 points/rank)",
        "processes",
        "core-hours per grid point per step",
    );
    for (mi, label) in ["BG/P", "XT3", "XT4/DC", "XT4/QC"].into_iter().enumerate() {
        let pts = procs.iter().zip(&values).map(|(&p, v)| (p as f64, v[mi])).collect();
        f.push_series(label, pts);
    }
    vec![f]
}

/// Figure 7: GYRO — (a) B1-std strong scaling, (b) B3-gtc strong scaling,
/// (c) weak-scaled modified B3-gtc across machines.
pub fn fig7(scale: Scale) -> Vec<Figure> {
    let b1_procs: Vec<usize> = [16usize, 64, 256, 1024, 2048]
        .iter()
        .map(|&p| scale.ranks(p).max(16) / 16 * 16)
        .collect();
    let mut b1_procs = b1_procs;
    b1_procs.dedup();

    let b3_procs: Vec<usize> = b1_procs.iter().map(|&p| (p / 64 * 64).max(64)).collect::<Vec<_>>();
    let mut b3 = b3_procs;
    b3.dedup();
    let weak_procs: Vec<usize> = [64usize, 128, 256, 512, 1024]
        .iter()
        .map(|&p| scale.ranks(p).max(64) / 64 * 64)
        .collect();
    let mut weak = weak_procs;
    weak.dedup();

    // scenario set: one recording per (problem, rank count), priced on
    // every machine of its panel, as raw seconds/step
    let machines = [bluegene_p(), xt4_qc(), bluegene_l(), xt4_dc()];
    let cfgs = [
        apps::GyroConfig::b1_std(),
        apps::GyroConfig::b3_gtc(),
        apps::GyroConfig { problem: apps::GyroProblem::B3GtcModified, steps: 4 },
    ];
    let strong: &[usize] = &[0, 1];
    let mut points: Vec<(&[usize], usize, usize)> = Vec::new();
    points.extend(b1_procs.iter().map(|&p| (strong, 0, p)));
    points.extend(b3.iter().map(|&p| (strong, 1, p)));
    points.extend(weak.iter().map(|&p| (&[0usize, 2, 3][..], 2, p)));
    let secs = parmap(&points, |&(ms, ci, p)| {
        let points: Vec<SimConfig> =
            ms.iter().map(|&mi| apps::gyro_sim_config(&machines[mi], p, &cfgs[ci])).collect();
        let res = hpcc::price(&points, &apps::gyro_traces(p, &cfgs[ci]), &[]);
        let secs = |(pt, r): (&SimConfig, _)| apps::GyroResult::of(r, &cfgs[ci], pt.mode);
        points.iter().zip(&res).map(|pr| secs(pr).seconds_per_step).collect::<Vec<_>>()
    });
    let (b1_secs, rest) = secs.split_at(b1_procs.len());
    let (b3_secs, weak_secs) = rest.split_at(b3.len());
    let series = |procs: &[usize], secs: &[Vec<f64>], k: usize, f: fn(f64) -> f64| {
        procs.iter().zip(secs).map(|(&p, v)| (p as f64, f(v[k]))).collect::<Vec<_>>()
    };

    let mut a = Figure::new("Fig 7(a): GYRO B1-std strong scaling", "processes", "steps/second");
    let mut b = Figure::new("Fig 7(b): GYRO B3-gtc strong scaling", "processes", "steps/second");
    for (k, label) in ["BG/P", "XT4"].into_iter().enumerate() {
        a.push_series(label, series(&b1_procs, b1_secs, k, |s| 1.0 / s));
        b.push_series(label, series(&b3, b3_secs, k, |s| 1.0 / s));
    }

    let mut c = Figure::new(
        "Fig 7(c): GYRO modified B3-gtc weak scaling",
        "processes",
        "seconds per step",
    );
    for (k, label) in ["BG/P", "BG/L", "XT"].into_iter().enumerate() {
        c.push_series(label, series(&weak, weak_secs, k, |s| s));
    }
    vec![a, b, c]
}

/// Figure 8: LAMMPS (a) and AMBER/PMEMD (b) on RuBisCO, BG/P vs XT3 and
/// XT4/DC.
pub fn fig8(scale: Scale) -> Vec<Figure> {
    let procs: Vec<usize> =
        [128usize, 256, 512, 1024, 2048, 4096].iter().map(|&p| scale.ranks(p)).collect();
    let mut procs = procs;
    procs.dedup();

    let cfgs = [apps::MdConfig::lammps_rub(), apps::MdConfig::pmemd_rub()];
    let machines = [bluegene_p(), xt3(), xt4_dc()];
    // One scenario per (code, rank count) fetches the trace from the
    // scenario cache's tier-2 store (keyed by the program-only
    // sub-hash, so any other battery or run asking about the same MD
    // program shares the recording) and scans all three machines from
    // it — the trace is machine-agnostic.
    let mut points: Vec<(usize, usize)> = Vec::new();
    for ci in 0..cfgs.len() {
        for &p in &procs {
            points.push((ci, p));
        }
    }
    let cache = hpcsim_cache::global();
    let scans = parmap(&points, |&(ci, p)| {
        let spec = hpcsim_cache::ScenarioSpec::md(&machines[0], p, cfgs[ci].clone());
        let entry = cache.traces(spec.program_hash(), || apps::md_traces(p, &cfgs[ci]));
        let points: Vec<SimConfig> = machines.iter().map(|m| apps::md_sim_config(m, p)).collect();
        let res = hpcc::price(&points, &entry.traces, &[]);
        res.iter().map(|r| apps::MdResult::of(r, &cfgs[ci])).collect::<Vec<_>>()
    });

    let mut panels = Vec::new();
    for (ci, title) in [
        "Fig 8(a): LAMMPS, RuBisCO 290,220 atoms",
        "Fig 8(b): AMBER/PMEMD, RuBisCO 290,220 atoms",
    ]
    .into_iter()
    .enumerate()
    {
        let mut f = Figure::new(title, "processes", "ns/day");
        for (mi, label) in ["BG/P", "XT3", "XT4/DC"].into_iter().enumerate() {
            let pts: Vec<(f64, f64)> = procs
                .iter()
                .enumerate()
                .map(|(pi, &p)| (p as f64, scans[ci * procs.len() + pi][mi].ns_per_day))
                .collect();
            f.push_series(label, pts);
        }
        panels.push(f);
    }
    panels
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
