//! Tables 1–2, Figures 1–3, and the TOP500 run (§I–II).

use super::halo_point;
use crate::experiment::Scale;
use crate::report::{Figure, Table};
use crate::runner::parmap;
use hpcsim_engine::units::{fmt_bytes_bin, fmt_flops};
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::{all_machines, bluegene_p, xt4_qc};
use hpcsim_machine::{ExecMode, L2Kind, MachineSpec};
use hpcsim_mpi::SimConfig;
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping, Placement};

/// Table 1: System Configuration Summary — the five machines' static
/// parameters, rows as features.
pub fn table1() -> Table {
    let machines = all_machines();
    let mut headers = vec!["Feature"];
    let labels: Vec<String> = machines.iter().map(|m| m.id.label().to_string()).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    let mut t = Table::new("Table 1: System Configuration Summary", &headers);

    let row = |name: &str, f: &dyn Fn(&MachineSpec) -> String| -> Vec<String> {
        let mut r = vec![name.to_string()];
        r.extend(machines.iter().map(f));
        r
    };
    t.push_row(row("Cores per node", &|m| m.cores_per_node.to_string()));
    t.push_row(row("Core clock (MHz)", &|m| format!("{:.0}", m.core.clock_hz / 1e6)));
    t.push_row(row("Cache coherence", &|m| format!("{:?}", m.coherence)));
    t.push_row(row("L1 data / core", &|m| fmt_bytes_bin(m.core.l1_data_kib * 1024)));
    t.push_row(row("L2 / core", &|m| match m.core.l2 {
        L2Kind::PrefetchEngine { streams } => format!("{streams}-stream prefetch"),
        L2Kind::Cache { kib } => fmt_bytes_bin(kib * 1024),
    }));
    t.push_row(row("L3 shared", &|m| {
        m.l3_shared_mib.map_or("n/a".into(), |mib| format!("{mib}MiB"))
    }));
    t.push_row(row("Memory per node (GB)", &|m| format!("{}", m.mem.capacity_gib)));
    t.push_row(row("Memory BW (GB/s)", &|m| format!("{:.1}", m.mem.bw_bytes / 1e9)));
    t.push_row(row("Peak perf per node", &|m| fmt_flops(m.node_peak_flops())));
    t.push_row(row("Torus injection (GB/s)", &|m| format!("{:.1}", m.nic.injection_bw / 1e9)));
    t.push_row(row("Tree BW (MB/s)", &|m| {
        m.nic.tree_bw.map_or("n/a".into(), |b| format!("{:.0}", b / 1e6))
    }));
    t.push_row(row("Cores per rack", &|m| m.cores_per_rack().to_string()));
    t
}

/// Table 2: HPCC single-process (SP), embarrassingly-parallel (EP) and
/// communication tests, BG/P vs XT4/QC.
pub fn table2(scale: Scale) -> Table {
    let ranks = scale.ranks(4096);
    let bgp = bluegene_p();
    let xt = xt4_qc();
    use hpcc::epkernels::{dgemm_rate, fft_rate, ra_rate, stream_triad_rate, EpMode};
    // Each probe fills one row, or two for the communication probes
    // (latency and bandwidth read from the same runs); every (probe,
    // machine) cell is an independent point fanned out over the pool.
    type Probe = Box<dyn Fn(&MachineSpec) -> Vec<f64> + Sync>;
    let probes: Vec<(&[&str], Probe)> = vec![
        (&["SP DGEMM (GF/s)"], Box::new(|m| vec![dgemm_rate(m, EpMode::Single, 2000)])),
        (&["EP DGEMM (GF/s)"], Box::new(|m| vec![dgemm_rate(m, EpMode::Parallel, 2000)])),
        (
            &["SP STREAM triad (GB/s)"],
            Box::new(|m| vec![stream_triad_rate(m, EpMode::Single, 4_000_000)]),
        ),
        (
            &["EP STREAM triad (GB/s)"],
            Box::new(|m| vec![stream_triad_rate(m, EpMode::Parallel, 4_000_000)]),
        ),
        (&["EP FFT (GF/s)"], Box::new(|m| vec![fft_rate(m, EpMode::Parallel, 1 << 20)])),
        (&["EP RandomAccess (GUP/s)"], Box::new(|m| vec![ra_rate(m, EpMode::Parallel, 1 << 28)])),
        (
            &["Ping-pong latency (us)", "Ping-pong bandwidth (GB/s)"],
            Box::new(|m| {
                let (latency, bandwidth) = hpcc::pingpong(m, 8, 1 << 21);
                vec![latency * 1e6, bandwidth / 1e9]
            }),
        ),
        (
            &["Random-ring latency (us)", "Random-ring BW (MB/s)"],
            Box::new(move |m| {
                let r = hpcc::random_ring(m, ExecMode::Vn, ranks, 8, 1 << 21, 1);
                vec![r.latency_s * 1e6, r.bandwidth / 1e6]
            }),
        ),
    ];
    let machines = [&bgp, &xt];
    let points: Vec<(usize, usize)> =
        (0..probes.len()).flat_map(|p| (0..machines.len()).map(move |m| (p, m))).collect();
    let values = parmap(&points, |&(p, m)| (probes[p].1)(machines[m]));

    let mut t = Table::new(
        format!("Table 2: HPCC SP/EP and communication tests ({ranks} processes, VN mode)"),
        &["Test", "BG/P", "XT4/QC"],
    );
    for (p, (names, _)) in probes.iter().enumerate() {
        for (i, name) in names.iter().enumerate() {
            t.push_row(vec![
                name.to_string(),
                format!("{:.2} ", values[p * 2][i]),
                format!("{:.2} ", values[p * 2 + 1][i]),
            ]);
        }
    }
    t
}

fn fig1_proc_counts(scale: Scale) -> Vec<usize> {
    let paper = [1024usize, 2048, 4096, 8192, 16384];
    let mut v: Vec<usize> = paper.iter().map(|&p| scale.ranks(p)).collect();
    v.dedup();
    v
}

/// Figure 1: HPCC parallel tests — (a) HPL, (b) FFT, (c) PTRANS,
/// (d) RandomAccess, BG/P vs XT4/QC in VN mode. XT problems are sized to
/// its 4× node memory, as in the paper.
pub fn fig1(scale: Scale) -> Vec<Figure> {
    let bgp = bluegene_p();
    let xt = xt4_qc();
    let procs = fig1_proc_counts(scale);

    let mut hpl_fig = Figure::new("Fig 1(a): HPL performance", "processes", "GFlop/s");
    let mut fft_fig = Figure::new("Fig 1(b): FFT performance", "processes", "GFlop/s");
    let mut ptr_fig = Figure::new("Fig 1(c): PTRANS performance", "processes", "GB/s");
    let mut ra_fig = Figure::new("Fig 1(d): RandomAccess performance", "processes", "GUP/s");

    // scenario set: (machine, procs, kernel) for the kernels sized from
    // each machine's memory; RandomAccess records once per process count
    let machines = [(&bgp, "BG/P"), (&xt, "XT4/QC")];
    let points: Vec<(usize, usize, usize)> = (0..machines.len())
        .flat_map(|mi| procs.iter().flat_map(move |&p| (0..3).map(move |k| (mi, p, k))))
        .collect();
    let sized = parmap(&points, |&(mi, p, k)| {
        let machine = machines[mi].0;
        match k {
            0 => {
                let n = hpcc::hpl_problem_size(machine, p, ExecMode::Vn, 0.8);
                let cfg = hpcc::HplConfig { n, nb: 144, grid: Grid2D::near_square(p), samples: 6 };
                hpcc::hpl_run(machine, ExecMode::Vn, &cfg).gflops
            }
            1 => {
                let nf = hpcc::fft::fft_problem_size(machine, p, ExecMode::Vn, 0.3);
                hpcc::fft_run(machine, ExecMode::Vn, p, nf).gflops
            }
            _ => {
                // PTRANS matrix ~ sqrt of HPL's footprint share
                let n = hpcc::hpl_problem_size(machine, p, ExecMode::Vn, 0.8);
                let placement = if machine.id.is_bluegene() {
                    Placement::Compact
                } else {
                    Placement::Fragmented { spread: 1.5, seed: p as u64 }
                };
                hpcc::ptrans_run(machine, ExecMode::Vn, p, n / 2, placement).gbps
            }
        }
    });
    let (table, updates) = (1 << 26, 1 << 16);
    let ra = parmap(&procs, |&p| {
        let points = machines.map(|(m, _)| SimConfig::new(m.clone(), p, ExecMode::Vn));
        let res = hpcc::price(&points, &hpcc::ra_traces(p, table, updates));
        res.iter().map(|r| hpcc::RaResult::of(r, p, updates).gups).collect::<Vec<_>>()
    });

    let mut it = sized.into_iter();
    for (mi, (_, label)) in machines.into_iter().enumerate() {
        let mut hpl_pts = Vec::new();
        let mut fft_pts = Vec::new();
        let mut ptr_pts = Vec::new();
        for &p in &procs {
            let x = p as f64;
            hpl_pts.push((x, it.next().unwrap()));
            fft_pts.push((x, it.next().unwrap()));
            ptr_pts.push((x, it.next().unwrap()));
        }
        hpl_fig.push_series(label, hpl_pts);
        fft_fig.push_series(label, fft_pts);
        ptr_fig.push_series(label, ptr_pts);
        let ra_pts = procs.iter().zip(&ra).map(|(&p, v)| (p as f64, v[mi])).collect();
        ra_fig.push_series(label, ra_pts);
    }
    vec![hpl_fig, fft_fig, ptr_fig, ra_fig]
}

/// Figure 2: HALO — (a,b) protocol comparison, (c,d) mapping comparison,
/// (e,f) virtual-grid shape scan, on BG/P.
pub fn fig2(scale: Scale) -> Vec<Figure> {
    let m = bluegene_p();
    let words: Vec<u64> = vec![2, 8, 32, 128, 512, 2048, 8192, 32768];
    let mut panels = Vec::new();

    // (a) protocols, VN mode, 8192 cores as 128x64; (b) SMP, 2048 as 64x32
    for (title, mode, paper_ranks) in [
        ("Fig 2(a): protocols, VN mode", ExecMode::Vn, 8192usize),
        ("Fig 2(b): protocols, SMP mode", ExecMode::Smp, 2048),
    ] {
        let ranks = scale.ranks(paper_ranks);
        let grid = Grid2D::near_square(ranks);
        let points: Vec<(hpcc::HaloProtocol, u64)> = hpcc::HaloProtocol::all()
            .into_iter()
            .flat_map(|proto| words.iter().map(move |&w| (proto, w)))
            .collect();
        let times = parmap(&points, |&(proto, w)| {
            let cfg = hpcc::HaloConfig { grid, words: w, protocol: proto, reps: 2 };
            halo_point(&m, mode, Mapping::txyz(), &cfg) * 1e6
        });
        let mut fig = Figure::new(title, "halo words", "usec per exchange");
        for (proto, chunk) in hpcc::HaloProtocol::all().into_iter().zip(times.chunks(words.len())) {
            let pts: Vec<(f64, f64)> =
                words.iter().zip(chunk).map(|(&w, &t)| (w as f64, t)).collect();
            fig.push_series(proto.label(), pts);
        }
        panels.push(fig);
    }

    // (c,d) mappings at 4096 and 8192 cores, VN. Every (grid, halo
    // size, mapping) point goes through the process-global scenario
    // cache: a (grid, halo-size) pair's trace depends on neither the
    // mapping nor the panel, so tier 2 records it once and all eight
    // mappings replay (or DAG-evaluate) the shared trace, while tier 1
    // memoizes the finished points — the panels coincide entirely when
    // `scale` clamps them to the same rank count, and re-running the
    // figure in-process (or against `--cache-dir`) is pure lookups.
    let panel_specs =
        [("Fig 2(c): mappings, 4096 cores", 4096usize), ("Fig 2(d): mappings, 8192 cores", 8192)];
    let mappings: Vec<Mapping> = Mapping::fig2_set().iter().map(|&(_, m2)| m2).collect();
    let panel_grids: Vec<Grid2D> =
        panel_specs.iter().map(|&(_, pr)| Grid2D::near_square(scale.ranks(pr))).collect();
    let mut keys: Vec<(Grid2D, u64)> = Vec::new();
    for &grid in &panel_grids {
        for &w in &words {
            if !keys.iter().any(|&(kg, kw)| kg == grid && kw == w) {
                keys.push((grid, w));
            }
        }
    }
    let points_cd: Vec<(Grid2D, u64, Mapping)> =
        keys.iter().flat_map(|&(grid, w)| mappings.iter().map(move |&mp| (grid, w, mp))).collect();
    let swept = parmap(&points_cd, |&(grid, w, mapping)| {
        let cfg =
            hpcc::HaloConfig { grid, words: w, protocol: hpcc::HaloProtocol::IrecvIsend, reps: 2 };
        halo_point(&m, ExecMode::Vn, mapping, &cfg)
    });
    for (&(title, _), &grid) in panel_specs.iter().zip(&panel_grids) {
        let mut fig = Figure::new(title, "halo words", "usec per exchange");
        for (i, (name, _)) in Mapping::fig2_set().iter().enumerate() {
            let pts: Vec<(f64, f64)> = words
                .iter()
                .map(|&w| {
                    let ki = keys
                        .iter()
                        .position(|&(kg, kw)| kg == grid && kw == w)
                        .expect("every (panel grid, word) pair was swept");
                    (w as f64, swept[ki * mappings.len() + i] * 1e6)
                })
                .collect();
            fig.push_series(name.clone(), pts);
        }
        panels.push(fig);
    }

    // (e,f) grid-size scan with the default mapping
    for (title, mode, grids) in [
        ("Fig 2(e): grid sizes, VN mode", ExecMode::Vn, vec![256usize, 1024, 4096, 8192]),
        ("Fig 2(f): grid sizes, SMP mode", ExecMode::Smp, vec![256, 1024, 2048]),
    ] {
        let mapping = if mode == ExecMode::Smp { Mapping::xyzt() } else { Mapping::txyz() };
        let grids2d: Vec<Grid2D> = grids
            .iter()
            .map(|&paper_ranks| Grid2D::near_square(scale.ranks(paper_ranks)))
            .collect();
        let points: Vec<(Grid2D, u64)> =
            grids2d.iter().flat_map(|&g| words.iter().map(move |&w| (g, w))).collect();
        let times = parmap(&points, |&(g, w)| {
            let cfg = hpcc::HaloConfig {
                grid: g,
                words: w,
                protocol: hpcc::HaloProtocol::IrecvIsend,
                reps: 2,
            };
            halo_point(&m, mode, mapping, &cfg) * 1e6
        });
        let mut fig = Figure::new(title, "halo words", "usec per exchange");
        for (grid, chunk) in grids2d.iter().zip(times.chunks(words.len())) {
            let pts: Vec<(f64, f64)> =
                words.iter().zip(chunk).map(|(&w, &t)| (w as f64, t)).collect();
            fig.push_series(format!("{}x{}", grid.rows, grid.cols), pts);
        }
        panels.push(fig);
    }
    panels
}

/// Figure 3: IMB collectives — Allreduce and Bcast, latency vs message
/// size at 8192 processes and vs process count at 32 KiB, BG/P (DP and
/// SP Allreduce) vs XT4/QC.
pub fn fig3(scale: Scale) -> Vec<Figure> {
    let bgp = bluegene_p();
    let xt = xt4_qc();
    let fixed_ranks = scale.ranks(8192);
    let sizes: Vec<u64> = vec![8, 64, 512, 4096, 32 * 1024, 256 * 1024, 2 << 20];
    let proc_counts: Vec<usize> =
        [256usize, 1024, 4096, 8192, 16384].iter().map(|&p| scale.ranks(p)).collect();
    let fixed_bytes = 32 * 1024;

    let mut a = Figure::new(
        format!("Fig 3(a): Allreduce latency vs message size ({fixed_ranks} procs)"),
        "message bytes",
        "usec",
    );
    let mut b =
        Figure::new("Fig 3(b): Allreduce latency vs process count (32KiB)", "processes", "usec");
    let mut c = Figure::new(
        format!("Fig 3(c): Bcast latency vs message size ({fixed_ranks} procs)"),
        "message bytes",
        "usec",
    );
    let mut d =
        Figure::new("Fig 3(d): Bcast latency vs process count (32KiB)", "processes", "usec");

    // scenario set: one recording per (collective, ranks, bytes), priced
    // on every machine that runs it (single precision: BG/P only)
    let machines = [&bgp, &xt];
    let colls: [(Option<DType>, &[usize]); 3] =
        [(Some(DType::F64), &[0, 1]), (Some(DType::F32), &[0]), (None, &[0, 1])];
    let by_size: Vec<(usize, u64)> = sizes.iter().map(|&s| (fixed_ranks, s)).collect();
    let by_procs: Vec<(usize, u64)> = proc_counts.iter().map(|&p| (p, fixed_bytes)).collect();
    let points: Vec<(usize, usize, u64)> = (0..colls.len())
        .flat_map(|c| by_size.iter().chain(&by_procs).map(move |&(r, b)| (c, r, b)))
        .collect();
    let values = parmap(&points, |&(c, ranks, bytes)| {
        let (dtype, ms) = colls[c];
        let traces = match dtype {
            Some(dtype) => hpcc::imb_allreduce_traces(ranks, bytes, dtype),
            None => hpcc::imb_bcast_traces(ranks, bytes),
        };
        let vn = |mi: usize| SimConfig::new(machines[mi].clone(), ranks, ExecMode::Vn);
        let points: Vec<SimConfig> = ms.iter().map(|&mi| vn(mi)).collect();
        let res = hpcc::price(&points, &traces);
        res.iter().map(|r| hpcc::ImbPoint::of(r, ranks, bytes).usec).collect::<Vec<_>>()
    });
    // collective `c` on its `k`-th machine, over the size (`procs`
    // false) or the process-count axis
    let axis = by_size.len() + by_procs.len();
    let series = |c: usize, procs: bool, k: usize| -> Vec<(f64, f64)> {
        let (xs, ofs) = if procs {
            (proc_counts.iter().map(|&p| p as f64).collect::<Vec<_>>(), by_size.len())
        } else {
            (sizes.iter().map(|&s| s as f64).collect(), 0)
        };
        let vals = &values[c * axis + ofs..];
        xs.into_iter().zip(vals).map(|(x, v)| (x, v[k])).collect()
    };
    for (procs, fig) in [(false, &mut a), (true, &mut b)] {
        fig.push_series("BG/P (double)", series(0, procs, 0));
        fig.push_series("BG/P (single)", series(1, procs, 0));
        fig.push_series("XT4/QC (double)", series(0, procs, 1));
    }
    for (k, label) in ["BG/P", "XT4/QC"].into_iter().enumerate() {
        c.push_series(label, series(2, false, k));
        d.push_series(label, series(2, true, k));
    }
    vec![a, b, c, d]
}

/// §II.C: the TOP500 HPL run on the ORNL BG/P with power metering,
/// alongside the paper's reported values.
pub fn top500_table() -> Table {
    let r = hpcc::top500_run(&bluegene_p());
    let mut t = Table::new(
        "TOP500 HPL on ORNL BG/P (N=614399, NB=96, 64x128 grid, 8192 cores)",
        &["Metric", "Simulated", "Paper"],
    );
    t.push_row(vec![
        "HPL performance (GFlop/s)".into(),
        format!("{:.0}", r.hpl.gflops),
        "21400".into(),
    ]);
    t.push_row(vec![
        "Efficiency of peak".into(),
        format!("{:.1}%", r.hpl.efficiency * 100.0),
        "76.7%".into(),
    ]);
    t.push_row(vec!["Power (kW)".into(), format!("{:.1}", r.power_kw), "~63".into()]);
    t.push_row(vec![
        "MFlops/W".into(),
        format!("{:.1}", r.mflops_per_watt),
        "310.93 (Green500 #5)".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_machines_and_features() {
        let t = table1();
        assert_eq!(t.headers.len(), 6); // feature + 5 machines
        assert_eq!(t.rows.len(), 12);
        let rendered = t.render();
        assert!(rendered.contains("BG/P"));
        assert!(rendered.contains("XT4/QC"));
        assert!(rendered.contains("13.60 GF/s"));
    }

    #[test]
    fn table2_quick_runs() {
        let t = table2(Scale::Quick);
        assert_eq!(t.rows.len(), 10);
        // every cell filled
        assert!(t.rows.iter().all(|r| r.iter().all(|c| !c.is_empty())));
    }

    #[test]
    fn fig3_quick_shapes() {
        let panels = fig3(Scale::Quick);
        assert_eq!(panels.len(), 4);
        let a = &panels[0];
        // DP beats SP on BG/P at 32KiB
        let dp = a.y_at("BG/P (double)", 32.0 * 1024.0).unwrap();
        let sp = a.y_at("BG/P (single)", 32.0 * 1024.0).unwrap();
        assert!(sp > 2.0 * dp, "SP {sp} vs DP {dp}");
        // Bcast: BG/P under XT at every size
        let c = &panels[2];
        for s in [8.0, 4096.0, 32.0 * 1024.0] {
            assert!(c.y_at("BG/P", s).unwrap() < c.y_at("XT4/QC", s).unwrap());
        }
    }

    #[test]
    fn top500_table_renders() {
        let t = top500_table();
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("MFlops/W"));
    }
}
