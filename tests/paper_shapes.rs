//! Integration tests: the paper's headline findings, asserted end-to-end
//! through the public `bgp_eval` API. Each test names the claim in the
//! paper it pins.

use bgp_eval::apps::{MdConfig, PopConfig, S3dConfig};
use bgp_eval::cache::{evaluate, ProgramSpec, ScenarioSpec, Setup};
use bgp_eval::core::paper::micro::top500_run;
use bgp_eval::hpcc::{pingpong_of, PINGPONG_REPS};
use bgp_eval::machine::registry::{bluegene_p, xt4_dc, xt4_qc};
use bgp_eval::machine::{ExecMode, MachineSpec, NodeModel, Workload};
use bgp_eval::net::DType;
use bgp_eval::power::{PowerModel, UTIL_HPL};

/// `program` on `machine` in `mode` through the scenario cache: its
/// result vector (layout in `cache::eval`).
fn run(program: ProgramSpec, machine: &MachineSpec, mode: ExecMode) -> Vec<f64> {
    let spec = ScenarioSpec::new(program, Setup::new(machine, mode));
    evaluate(&spec).unwrap().to_vec()
}

/// SYD of POP 0.1° on `ranks` tasks in VN mode.
fn pop_syd(machine: &MachineSpec, ranks: usize) -> f64 {
    let program = ProgramSpec::Pop { ranks, threads: 1, cfg: PopConfig::default() };
    run(program, machine, ExecMode::Vn)[0]
}

/// Mean IMB latency in microseconds.
fn imb_usec(program: ProgramSpec, machine: &MachineSpec) -> f64 {
    run(program, machine, ExecMode::Vn)[0]
}

/// (one-way latency seconds, bandwidth bytes/s) of ping-pong runs with
/// `small` and `large` payloads.
fn pingpong(machine: &MachineSpec, small: u64, large: u64) -> (f64, f64) {
    let secs = |bytes, reps| run(ProgramSpec::Pingpong { bytes, reps }, machine, ExecMode::Smp)[0];
    pingpong_of(secs(small, PINGPONG_REPS[0]), secs(large, PINGPONG_REPS[1]), large)
}

/// Abstract: "BG/P has good scalability with an expected lower
/// performance per processor when compared to the Cray XT4's Opteron."
#[test]
fn abstract_lower_per_processor_performance() {
    let bgp = NodeModel::new(bluegene_p());
    let xt = NodeModel::new(xt4_qc());
    let w = Workload::Dgemm { n: 1500 };
    assert!(
        xt.sustained_flops(&w, ExecMode::Vn, 1) > 2.0 * bgp.sustained_flops(&w, ExecMode::Vn, 1)
    );
}

/// Abstract: "BG/P uses very low power per floating point operation for
/// certain kernels" — HPL MFlops/W ratio ≈ 2.7 (Table 3: 347.6 / 129.7).
#[test]
fn abstract_power_per_flop_advantage() {
    let r = top500_run(&bluegene_p());
    assert!(r.mflops_per_watt > 270.0, "BG/P {:.0} MF/W", r.mflops_per_watt);
    // XT per §IV: ~130 MF/W
    let xt_pm = PowerModel::new(xt4_qc());
    let xt_mfw = xt_pm.mflops_per_watt(205e12, 30_976, UTIL_HPL);
    let ratio = r.mflops_per_watt / xt_mfw;
    assert!((2.0..3.4).contains(&ratio), "MF/W ratio {ratio:.2} (paper: 2.68)");
}

/// §II.B: "the BG/P network's strength is low-latency communication
/// whereas the XT's strength is high-bandwidth communication."
#[test]
fn latency_vs_bandwidth_network_split() {
    let (lat_b, bw_b) = pingpong(&bluegene_p(), 8, 1 << 21);
    let (lat_x, bw_x) = pingpong(&xt4_qc(), 8, 1 << 21);
    assert!(lat_b < lat_x);
    assert!(bw_x > 3.0 * bw_b);
}

/// §II.B.2: "the BG/P dramatically outperforms the Cray XT for all
/// message sizes showing the benefit of the special-purpose tree network."
#[test]
fn bcast_tree_benefit_all_sizes() {
    for bytes in [8u64, 1024, 32 * 1024, 1 << 20] {
        let bcast = || ProgramSpec::ImbBcast { ranks: 1024, bytes };
        let (b, x) = (imb_usec(bcast(), &bluegene_p()), imb_usec(bcast(), &xt4_qc()));
        assert!(b < x, "bytes={bytes}");
    }
}

/// §II.B.2: "a substantial performance benefit to using double precision
/// over single precision on the BG/P but not the Cray XT."
#[test]
fn allreduce_precision_asymmetry() {
    let ranks = 512;
    let bytes = 32 * 1024;
    let gap = |machine: &MachineSpec| {
        let allreduce = |dtype| ProgramSpec::ImbAllreduce { ranks, bytes, dtype };
        let sp = imb_usec(allreduce(DType::F32), machine);
        let dp = imb_usec(allreduce(DType::F64), machine);
        sp / dp
    };
    assert!(gap(&bluegene_p()) > 2.0);
    let xt_gap = gap(&xt4_qc());
    assert!((0.8..1.3).contains(&xt_gap));
}

/// §III.A: "The XT4 performance is approximately 3.6 times that of the
/// BG/P for 8000 processes" — and the gap NARROWS at scale ("2.5 times
/// for 22500 processes") because communication starts to dominate on the
/// XT.
#[test]
fn pop_gap_narrows_with_scale() {
    let ratio_at = |p: usize| {
        let b = pop_syd(&bluegene_p(), p);
        let x = pop_syd(&xt4_dc(), p);
        x / b
    };
    let r8k = ratio_at(8192);
    let r22k = ratio_at(22500);
    assert!(r8k > 2.6 && r8k < 4.6, "ratio at 8k: {r8k:.2} (paper 3.6)");
    assert!(r22k < r8k, "gap should narrow: {r8k:.2} -> {r22k:.2}");
}

/// §III.A: POP "scaling is linear out to 8000 processes, and is still
/// scaling well out to 40,000" on BG/P.
#[test]
fn pop_scales_to_40000() {
    let s8 = pop_syd(&bluegene_p(), 8192);
    let s40 = pop_syd(&bluegene_p(), 40_000);
    let speedup = s40 / s8;
    assert!(speedup > 2.0, "8k->40k speedup {speedup:.2} (paper: 3.6/12 ≈ 3.3)");
    // Table 3: roughly 12 SYD at 40,000 cores
    assert!(s40 > 7.0 && s40 < 18.0, "SYD(40000) = {s40:.1} (paper ~12)");
}

/// §III.C: S3D "exhibits excellent parallel performance on several
/// architectures" — weak scaling cost flat on BOTH machines.
#[test]
fn s3d_flat_on_both_machines() {
    // S3D results: [core_hours_per_point_step, seconds_per_step]
    let cost = |machine: &MachineSpec, ranks| {
        run(ProgramSpec::S3d { ranks, cfg: S3dConfig::default() }, machine, ExecMode::Vn)[0]
    };
    for machine in [bluegene_p(), xt4_qc()] {
        let c64 = cost(&machine, 64);
        let c1728 = cost(&machine, 1728);
        let spread = (c1728 / c64).max(c64 / c1728);
        assert!(spread < 1.2, "{}: weak-scaling spread {spread:.2}", machine.id);
    }
}

/// §III.E: "subsequent generations of the systems … result in performance
/// improvements … particularly on large number of MPI tasks."
#[test]
fn md_generation_improvement() {
    // MD results: [seconds_per_step, ns_per_day]
    let ns_per_day = |machine: &MachineSpec| {
        run(ProgramSpec::Md { ranks: 1024, cfg: MdConfig::lammps_rub() }, machine, ExecMode::Vn)[1]
    };
    let bgl = ns_per_day(&bgp_eval::machine::registry::bluegene_l());
    let bgp = ns_per_day(&bluegene_p());
    assert!(bgp > bgl);
}

/// Conclusion: power advantage shrinks on science-driven metrics — the
/// iso-SYD aggregate power gap is far smaller than the per-core gap.
#[test]
fn science_metric_power_story() {
    let pm_b = PowerModel::new(bluegene_p());
    let pm_x = PowerModel::new(xt4_dc());
    // per-core gap at equal core count
    let per_core = pm_x.per_core_w(UTIL_HPL) / pm_b.per_core_w(UTIL_HPL);
    // iso-throughput: find cores for 3 SYD on each
    let cores_for = |machine: &MachineSpec, pm: &PowerModel| -> (usize, f64) {
        let mut lo = 1024;
        let mut hi = lo;
        while hi < 65536 && pop_syd(machine, hi) < 3.0 {
            lo = hi;
            hi *= 2;
        }
        // refine: three bisection steps so the iso point is within ~12%
        for _ in 0..3 {
            let mid = (lo + hi) / 2;
            if pop_syd(machine, mid) < 3.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (hi, pm.aggregate_w(hi as u64, bgp_eval::power::UTIL_SCIENCE))
    };
    let (pb, wb) = cores_for(&bluegene_p(), &pm_b);
    let (px, wx) = cores_for(&xt4_dc(), &pm_x);
    assert!(pb > px, "BG/P needs more cores ({pb} vs {px})");
    let agg_ratio = wx / wb;
    assert!(
        agg_ratio < per_core / 2.0,
        "aggregate gap {agg_ratio:.2} should be way below per-core {per_core:.2}"
    );
}
