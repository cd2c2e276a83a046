//! Tables 1–2, Figures 1–3, and the TOP500 run (§I–II).

use super::{on_bgp, price, vn, Row, Traced};
use crate::experiment::Scale;
use crate::report::{Figure, Table};
use hpcsim_cache::{ProgramSpec, Setup};
use hpcsim_engine::units::{fmt_bytes_bin, fmt_flops};
use hpcsim_hpcc::{self as hpcc, HaloConfig, HaloProtocol, HplConfig, HplResult};
use hpcsim_machine::registry::{all_machines, bluegene_p, xt4_qc};
use hpcsim_machine::{ExecMode, L2Kind, MachineSpec};
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping, Placement};
use serde::Serialize;

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

/// Payload of Table 2's bandwidth runs.
const TABLE2_LARGE: u64 = 1 << 21;

/// Table 2's communication programs: ping-pong (SMP mode, two ranks)
/// and random-ring, each a small- then a large-payload run.
fn table2_programs(ranks: usize) -> [(ProgramSpec, ExecMode); 4] {
    let pingpong = |bytes, reps| (ProgramSpec::Pingpong { bytes, reps }, ExecMode::Smp);
    let ring = |bytes| (ProgramSpec::RandomRing { ranks, bytes, seed: 1 }, ExecMode::Vn);
    let reps = hpcc::PINGPONG_REPS;
    [pingpong(8, reps[0]), pingpong(TABLE2_LARGE, reps[1]), ring(8), ring(TABLE2_LARGE)]
}

/// Table 2: HPCC single-process (SP), embarrassingly-parallel (EP) and
/// communication tests, BG/P vs XT4/QC. The SP/EP rows are analytic;
/// the communication rows read latency and bandwidth from the priced
/// small- and large-payload runs.
pub fn table2(scale: Scale) -> Table {
    let ranks = scale.ranks(4096);
    let machines = [bluegene_p(), xt4_qc()];
    use hpcc::epkernels::{dgemm_rate, fft_rate, ra_rate, stream_triad_rate, EpMode};
    let rows: Vec<Row> = table2_programs(ranks)
        .into_iter()
        .map(|(program, mode)| (program, machines.iter().map(|m| Setup::new(m, mode)).collect()))
        .collect();
    let runs = price(&rows);
    let column = |mi: usize| {
        let m = &machines[mi];
        let secs = |run: usize| runs[run][mi][0];
        let (latency, bandwidth) = hpcc::pingpong_of(secs(0), secs(1), TABLE2_LARGE);
        let ring = hpcc::RingResult::of(secs(2), secs(3), TABLE2_LARGE);
        [
            ("SP DGEMM (GF/s)", dgemm_rate(m, EpMode::Single, 2000)),
            ("EP DGEMM (GF/s)", dgemm_rate(m, EpMode::Parallel, 2000)),
            ("SP STREAM triad (GB/s)", stream_triad_rate(m, EpMode::Single, 4_000_000)),
            ("EP STREAM triad (GB/s)", stream_triad_rate(m, EpMode::Parallel, 4_000_000)),
            ("EP FFT (GF/s)", fft_rate(m, EpMode::Parallel, 1 << 20)),
            ("EP RandomAccess (GUP/s)", ra_rate(m, EpMode::Parallel, 1 << 28)),
            ("Ping-pong latency (us)", latency * 1e6),
            ("Ping-pong bandwidth (GB/s)", bandwidth / 1e9),
            ("Random-ring latency (us)", ring.latency_s * 1e6),
            ("Random-ring BW (MB/s)", ring.bandwidth / 1e6),
        ]
    };

    let mut t = Table::new(
        format!("Table 2: HPCC SP/EP and communication tests ({ranks} processes, VN mode)"),
        &["Test", "BG/P", "XT4/QC"],
    );
    for ((name, b), (_, x)) in column(0).into_iter().zip(column(1)) {
        t.push_row(vec![name.to_string(), format!("{b:.2} "), format!("{x:.2} ")]);
    }
    t
}

/// Table 2's traced scenarios: the large-payload ping-pong and
/// random-ring runs on BG/P.
pub fn table2_traced(scale: Scale) -> Vec<Traced> {
    let ranks = scale.ranks(4096);
    let [_, (pingpong, smp), _, (ring, vn)] = table2_programs(ranks);
    vec![
        on_bgp(format!("pingpong {TABLE2_LARGE}B 2r"), pingpong, smp),
        on_bgp(format!("random-ring {TABLE2_LARGE}B {ranks}r"), ring, vn),
    ]
}

fn fig1_proc_counts(scale: Scale) -> Vec<usize> {
    let paper = [1024usize, 2048, 4096, 8192, 16384];
    let mut v: Vec<usize> = paper.iter().map(|&p| scale.ranks(p)).collect();
    v.dedup();
    v
}

/// Fig 1's HPL, FFT and PTRANS programs on `p` tasks of `machine`,
/// sized to its memory (the XT's 4× node memory gives it larger
/// problems, as in the paper).
fn fig1_sized(machine: &MachineSpec, p: usize) -> [ProgramSpec; 3] {
    let n = hpcc::hpl_problem_size(machine, p, ExecMode::Vn, 0.8);
    [
        ProgramSpec::Hpl(HplConfig { n, nb: 144, grid: Grid2D::near_square(p), samples: 6 }),
        ProgramSpec::Fft { ranks: p, n: hpcc::fft_problem_size(machine, p, ExecMode::Vn, 0.3) },
        // PTRANS matrix ~ sqrt of HPL's footprint share; the XT's
        // allocation is fragmented (a BlueGene places compactly)
        ProgramSpec::Ptrans {
            ranks: p,
            n: n / 2,
            placement: Placement::Fragmented { spread: 1.5, seed: p as u64 },
        },
    ]
}

/// Fig 1's RandomAccess program on `p` tasks, the same on every machine.
fn fig1_ra(p: usize) -> ProgramSpec {
    ProgramSpec::RandomAccess { ranks: p, table_bytes: 1 << 26, updates: 1 << 16 }
}

/// Figure 1: HPCC parallel tests — (a) HPL, (b) FFT, (c) PTRANS,
/// (d) RandomAccess, BG/P vs XT4/QC in VN mode.
pub fn fig1(scale: Scale) -> Vec<Figure> {
    let machines = [(bluegene_p(), "BG/P"), (xt4_qc(), "XT4/QC")];
    let procs = fig1_proc_counts(scale);

    // rows: the memory-sized kernels per (machine, procs), then one
    // RandomAccess recording per process count priced on both machines
    let mut rows: Vec<Row> = Vec::new();
    for (m, _) in &machines {
        for &p in &procs {
            rows.extend(fig1_sized(m, p).map(|program| (program, vec![vn(m)])));
        }
    }
    let both: Vec<Setup> = machines.iter().map(|(m, _)| vn(m)).collect();
    rows.extend(procs.iter().map(|&p| (fig1_ra(p), both.clone())));
    let values = price(&rows);

    let mut hpl_fig = Figure::new("Fig 1(a): HPL performance", "processes", "GFlop/s");
    let mut fft_fig = Figure::new("Fig 1(b): FFT performance", "processes", "GFlop/s");
    let mut ptr_fig = Figure::new("Fig 1(c): PTRANS performance", "processes", "GB/s");
    let mut ra_fig = Figure::new("Fig 1(d): RandomAccess performance", "processes", "GUP/s");
    // HPL [seconds, gflops, eff], FFT [n, seconds, gflops], PTRANS
    // [n, seconds, gbps], RandomAccess [updates, seconds, gups]
    let mut it = values.iter();
    let ra = &values[machines.len() * procs.len() * 3..];
    for (mi, (_, label)) in machines.iter().enumerate() {
        let mut hpl_pts = Vec::new();
        let mut fft_pts = Vec::new();
        let mut ptr_pts = Vec::new();
        for &p in &procs {
            let x = p as f64;
            hpl_pts.push((x, it.next().unwrap()[0][1]));
            fft_pts.push((x, it.next().unwrap()[0][2]));
            ptr_pts.push((x, it.next().unwrap()[0][2]));
        }
        hpl_fig.push_series(*label, hpl_pts);
        fft_fig.push_series(*label, fft_pts);
        ptr_fig.push_series(*label, ptr_pts);
        let ra_pts = procs.iter().zip(ra).map(|(&p, v)| (p as f64, v[mi][2])).collect();
        ra_fig.push_series(*label, ra_pts);
    }
    vec![hpl_fig, fft_fig, ptr_fig, ra_fig]
}

/// Fig 1's traced scenarios: every kernel at the smallest process count
/// on BG/P.
pub fn fig1_traced(scale: Scale) -> Vec<Traced> {
    let p = fig1_proc_counts(scale)[0];
    let [hpl, fft, ptrans] = fig1_sized(&bluegene_p(), p);
    [("hpl", hpl), ("fft", fft), ("ptrans", ptrans), ("ra", fig1_ra(p))]
        .map(|(what, program)| on_bgp(format!("{what} {p}r"), program, ExecMode::Vn))
        .into()
}

/// Fig 2's halo sizes, in words.
const FIG2_WORDS: [u64; 8] = [2, 8, 32, 128, 512, 2048, 8192, 32768];

/// Fig 2's HALO exchange of `words` on `grid` with `protocol`.
fn halo(grid: Grid2D, words: u64, protocol: HaloProtocol) -> ProgramSpec {
    ProgramSpec::Halo(HaloConfig { grid, words, protocol, reps: 2 })
}

/// A Fig 2 word-sweep panel on `setup`: one series per (label, grid,
/// protocol), microseconds per exchange over [`FIG2_WORDS`].
fn halo_panel(title: &str, series: Vec<(String, Grid2D, HaloProtocol)>, setup: Setup) -> Figure {
    let rows: Vec<Row> = series
        .iter()
        .flat_map(|&(_, grid, proto)| {
            FIG2_WORDS.map(|w| (halo(grid, w, proto), vec![setup.clone()]))
        })
        .collect();
    let times = price(&rows);
    let mut fig = Figure::new(title, "halo words", "usec per exchange");
    for ((label, ..), chunk) in series.into_iter().zip(times.chunks(FIG2_WORDS.len())) {
        let pts = FIG2_WORDS.iter().zip(chunk).map(|(&w, t)| (w as f64, t[0][0] * 1e6)).collect();
        fig.push_series(label, pts);
    }
    fig
}

/// Figure 2: HALO — (a,b) protocol comparison, (c,d) mapping comparison,
/// (e,f) virtual-grid shape scan, on BG/P.
pub fn fig2(scale: Scale) -> Vec<Figure> {
    let m = bluegene_p();
    let at = |mode, mapping| Setup { mapping, ..Setup::new(&m, mode) };
    let mut panels = Vec::new();

    // (a) protocols, VN mode, 8192 cores as 128x64; (b) SMP, 2048 as 64x32
    for (title, mode, paper_ranks) in [
        ("Fig 2(a): protocols, VN mode", ExecMode::Vn, 8192usize),
        ("Fig 2(b): protocols, SMP mode", ExecMode::Smp, 2048),
    ] {
        let grid = Grid2D::near_square(scale.ranks(paper_ranks));
        let series = HaloProtocol::all().map(|p| (p.label().to_string(), grid, p)).into();
        panels.push(halo_panel(title, series, at(mode, Mapping::txyz())));
    }

    // (c,d) mappings at 4096 and 8192 cores, VN. One row per halo size
    // prices all eight mappings from one recording (HALO's trace does
    // not depend on the mapping); re-running the figure in-process (or
    // against `--cache-dir`) is pure lookups.
    let mappings: Vec<Setup> =
        Mapping::fig2_set().iter().map(|&(_, mapping)| at(ExecMode::Vn, mapping)).collect();
    for (title, paper_ranks) in
        [("Fig 2(c): mappings, 4096 cores", 4096usize), ("Fig 2(d): mappings, 8192 cores", 8192)]
    {
        let grid = Grid2D::near_square(scale.ranks(paper_ranks));
        let rows: Vec<Row> =
            FIG2_WORDS.map(|w| (halo(grid, w, HaloProtocol::IrecvIsend), mappings.clone())).into();
        let swept = price(&rows);
        let mut fig = Figure::new(title, "halo words", "usec per exchange");
        for (i, (name, _)) in Mapping::fig2_set().iter().enumerate() {
            let pts = FIG2_WORDS.iter().zip(&swept).map(|(&w, v)| (w as f64, v[i][0] * 1e6));
            fig.push_series(name.clone(), pts.collect());
        }
        panels.push(fig);
    }

    // (e,f) grid-size scan with the default mapping
    for (title, mode, grids) in [
        ("Fig 2(e): grid sizes, VN mode", ExecMode::Vn, vec![256usize, 1024, 4096, 8192]),
        ("Fig 2(f): grid sizes, SMP mode", ExecMode::Smp, vec![256, 1024, 2048]),
    ] {
        let mapping = if mode == ExecMode::Smp { Mapping::xyzt() } else { Mapping::txyz() };
        let series = grids
            .iter()
            .map(|&paper_ranks| {
                let g = Grid2D::near_square(scale.ranks(paper_ranks));
                (format!("{}x{}", g.rows, g.cols), g, HaloProtocol::IrecvIsend)
            })
            .collect();
        panels.push(halo_panel(title, series, at(mode, mapping)));
    }
    panels
}

/// Fig 2's traced scenarios: the nearest-neighbour halo at both
/// extremes of the word sweep, plus the protocol that serializes the
/// four directions.
pub fn fig2_traced(scale: Scale) -> Vec<Traced> {
    let grid = Grid2D::near_square(scale.ranks(8192));
    [
        (HaloProtocol::IrecvIsend, 2048),
        (HaloProtocol::Sendrecv, 2048),
        (HaloProtocol::IrecvIsend, 32768),
    ]
    .map(|(protocol, words)| {
        let label = format!("halo {}x{} {} {words}w", grid.rows, grid.cols, protocol.label());
        on_bgp(label, halo(grid, words, protocol), ExecMode::Vn)
    })
    .into()
}

/// Fig 3's collective at `ranks` × `bytes`: the Allreduce of `dtype`,
/// or Bcast.
fn imb(dtype: Option<DType>, ranks: usize, bytes: u64) -> ProgramSpec {
    match dtype {
        Some(dtype) => ProgramSpec::ImbAllreduce { ranks, bytes, dtype },
        None => ProgramSpec::ImbBcast { ranks, bytes },
    }
}

/// Figure 3: IMB collectives — Allreduce and Bcast, latency vs message
/// size at 8192 processes and vs process count at 32 KiB, BG/P (DP and
/// SP Allreduce) vs XT4/QC.
pub fn fig3(scale: Scale) -> Vec<Figure> {
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

    // rows: one recording per (collective, ranks, bytes), priced on
    // every machine that runs it (single precision: BG/P only)
    let machines = [vn(&bluegene_p()), vn(&xt4_qc())];
    let colls: [(Option<DType>, &[Setup]); 3] =
        [(Some(DType::F64), &machines), (Some(DType::F32), &machines[..1]), (None, &machines)];
    let by_size: Vec<(usize, u64)> = sizes.iter().map(|&s| (fixed_ranks, s)).collect();
    let by_procs: Vec<(usize, u64)> = proc_counts.iter().map(|&p| (p, fixed_bytes)).collect();
    let rows: Vec<Row> = colls
        .iter()
        .flat_map(|&(dtype, setups)| {
            let points = by_size.iter().chain(&by_procs);
            points.map(move |&(r, b)| (imb(dtype, r, b), setups.to_vec()))
        })
        .collect();
    let values = price(&rows);
    // collective `c` on its `k`-th machine, over the size (`procs`
    // false) or the process-count axis; values are `[usec]`
    let axis = by_size.len() + by_procs.len();
    let series = |c: usize, procs: bool, k: usize| -> Vec<(f64, f64)> {
        let (xs, ofs) = if procs {
            (proc_counts.iter().map(|&p| p as f64).collect::<Vec<_>>(), by_size.len())
        } else {
            (sizes.iter().map(|&s| s as f64).collect(), 0)
        };
        let vals = &values[c * axis + ofs..];
        xs.into_iter().zip(vals).map(|(x, v)| (x, v[k][0])).collect()
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

/// Fig 3's traced scenarios: collectives at the fixed 32 KiB point —
/// the tree-eligible double-precision Allreduce, its single-precision
/// twin (no tree), and Bcast.
pub fn fig3_traced(scale: Scale) -> Vec<Traced> {
    let ranks = scale.ranks(8192);
    let bytes = 32 * 1024;
    let label = |dtype: Option<DType>| match dtype {
        Some(dtype) => format!("allreduce {bytes}B {dtype:?} {ranks}r"),
        None => format!("bcast {bytes}B {ranks}r"),
    };
    [Some(DType::F64), Some(DType::F32), None]
        .map(|dtype| on_bgp(label(dtype), imb(dtype, ranks, bytes), ExecMode::Vn))
        .into()
}

/// Result of the §II.C TOP500 run including power.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Top500Result {
    /// The HPL performance result.
    pub hpl: HplResult,
    /// Aggregate power during the run, kW.
    pub power_kw: f64,
    /// The Green500 metric.
    pub mflops_per_watt: f64,
}

/// The paper's TOP500 HPL: N = 614399, NB = 96 on `grid` (64×128 on the
/// ORNL BG/P's 8192 cores).
fn top500_program(grid: Grid2D) -> ProgramSpec {
    ProgramSpec::Hpl(HplConfig { n: 614_399, nb: 96, grid, samples: 12 })
}

/// The paper's TOP500 configuration on `machine` in VN mode, with power
/// metering.
pub fn top500_run(machine: &MachineSpec) -> Top500Result {
    let program = top500_program(Grid2D::new(64, 128));
    let cores = program.ranks() as u64;
    let v = &price(&[(program, vec![vn(machine)])])[0][0];
    let hpl = HplResult { seconds: v[0], gflops: v[1], efficiency: v[2] };
    let pm = hpcsim_power::PowerModel::new(machine.clone());
    let watts = pm.aggregate_w(cores, hpcsim_power::UTIL_HPL);
    Top500Result { hpl, power_kw: watts / 1e3, mflops_per_watt: hpl.gflops * 1e3 / watts }
}

/// §II.C: the TOP500 HPL run on the ORNL BG/P with power metering,
/// alongside the paper's reported values.
pub fn top500_table() -> Table {
    let r = top500_run(&bluegene_p());
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

/// The TOP500 run's traced scenario: its HPL on the grid of
/// `scale.ranks(8192)` processes (the run itself at paper scale).
pub fn top500_traced(scale: Scale) -> Vec<Traced> {
    let grid = Grid2D::near_square(scale.ranks(8192));
    let label = format!("top500 hpl {}x{}", grid.rows, grid.cols);
    vec![on_bgp(label, top500_program(grid), ExecMode::Vn)]
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
    fn top500_reproduces_section_iic() {
        let r = top500_run(&bluegene_p());
        // paper: 21.4 TF (we accept the band 17–26 TF)
        assert!(
            r.hpl.gflops > 17_000.0 && r.hpl.gflops < 26_000.0,
            "TOP500 GF = {:.0}",
            r.hpl.gflops
        );
        // paper: 310.93 MF/W (Green500 №5); Table 3 reports 347.6
        assert!(
            r.mflops_per_watt > 270.0 && r.mflops_per_watt < 420.0,
            "MF/W = {:.1}",
            r.mflops_per_watt
        );
        // ~63 kW aggregate
        assert!(r.power_kw > 55.0 && r.power_kw < 72.0, "power {:.1} kW", r.power_kw);
    }

    #[test]
    fn top500_table_renders() {
        let t = top500_table();
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("MFlops/W"));
    }
}
