//! Property tests of the node cost model: the roofline is monotone,
//! resource sharing never creates speedups from nothing, and workload
//! resolution is well-behaved across the whole parameter space.

use hpcsim_machine::registry::all_machines;
use hpcsim_machine::{ExecMode, MachineSpec, NodeModel, Workload};
use proptest::prelude::*;

fn machine_strategy() -> impl Strategy<Value = MachineSpec> {
    (0usize..5).prop_map(|i| all_machines().swap_remove(i))
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        (8u64..3000).prop_map(|n| Workload::Dgemm { n }),
        (1u64..10_000_000).prop_map(|n| Workload::StreamTriad { n }),
        (4u32..24).prop_map(|l| Workload::Fft1d { n: 1 << l }),
        (1u64..1_000_000, 1.0f64..10_000.0, 1.0f64..500.0).prop_map(|(p, f, b)| {
            Workload::Stencil { points: p, flops_per_point: f, bytes_per_point: b }
        }),
        (1u64..1_000_000, 10.0f64..50_000.0)
            .prop_map(|(p, f)| Workload::Chemistry { points: p, flops_per_point: f }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every workload takes positive, finite time on every machine in
    /// every mode.
    #[test]
    fn time_is_positive_finite(m in machine_strategy(), w in workload_strategy()) {
        let model = NodeModel::new(m);
        for mode in [ExecMode::Smp, ExecMode::Dual, ExecMode::Vn] {
            let t = model.time(&w, mode, 1);
            prop_assert!(t > hpcsim_engine::SimTime::ZERO, "{w:?} free in {mode:?}");
            prop_assert!(!t.is_never());
        }
    }

    /// Scaling a workload's size scales its time at least proportionally
    /// minus rounding (no sublinear magic).
    #[test]
    fn bigger_stencils_cost_more(
        m in machine_strategy(),
        points in 1000u64..1_000_000,
        fpp in 1.0f64..1000.0
    ) {
        let model = NodeModel::new(m);
        let small = Workload::Stencil { points, flops_per_point: fpp, bytes_per_point: 32.0 };
        let big = Workload::Stencil { points: points * 2, flops_per_point: fpp, bytes_per_point: 32.0 };
        let ts = model.time(&small, ExecMode::Vn, 1);
        let tb = model.time(&big, ExecMode::Vn, 1);
        prop_assert!(tb >= ts.scale(1.9), "{ts} -> {tb}");
    }

    /// Sustained flops never exceed the core's peak, anywhere in the
    /// workload space.
    #[test]
    fn never_beyond_peak(m in machine_strategy(), w in workload_strategy()) {
        let peak = m.core_peak_flops();
        let model = NodeModel::new(m);
        for mode in [ExecMode::Smp, ExecMode::Vn] {
            prop_assert!(model.sustained_flops(&w, mode, 1) <= peak * 1.0001);
        }
    }

    /// Sustained bandwidth never exceeds the node's memory bandwidth.
    #[test]
    fn never_beyond_memory(m in machine_strategy(), n in 1000u64..10_000_000) {
        let bw = m.mem.bw_bytes;
        let model = NodeModel::new(m);
        let w = Workload::StreamTriad { n };
        prop_assert!(model.sustained_bandwidth(&w, ExecMode::Vn, 1) <= bw);
        prop_assert!(model.sustained_bandwidth(&w, ExecMode::Smp, 4) <= bw);
    }

    /// More threads never slow a task down (Amdahl is monotone).
    #[test]
    fn threads_monotone(m in machine_strategy(), w in workload_strategy(), t1 in 1u32..4, t2 in 1u32..4) {
        let model = NodeModel::new(m);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(model.time(&w, ExecMode::Smp, hi) <= model.time(&w, ExecMode::Smp, lo));
    }

    /// Sharing a node (VN) is never faster per task than having it alone
    /// (SMP) for single-threaded work.
    #[test]
    fn vn_never_faster_than_smp(m in machine_strategy(), w in workload_strategy()) {
        let model = NodeModel::new(m);
        let smp = model.time(&w, ExecMode::Smp, 1);
        let vn = model.time(&w, ExecMode::Vn, 1);
        prop_assert!(vn >= smp, "VN {vn} beat SMP {smp} for {w:?}");
    }

    /// Cost resolution: flops and traffic are non-negative and finite for
    /// any cache size, including degenerate ones.
    #[test]
    fn cost_resolution_total(w in workload_strategy(), cache in 0.0f64..1e9) {
        let c = w.cost(cache);
        prop_assert!(c.flops >= 0.0 && c.flops.is_finite());
        prop_assert!(c.dram_bytes >= 0.0 && c.dram_bytes.is_finite());
        prop_assert!(c.simd_eff > 0.0 && c.simd_eff <= 1.0);
        prop_assert!((0.0..1.0).contains(&c.serial_frac));
    }

    /// Less cache never reduces DRAM traffic.
    #[test]
    fn traffic_monotone_in_cache(w in workload_strategy(), c1 in 1e4f64..1e8, c2 in 1e4f64..1e8) {
        let (small, large) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(w.cost(small).dram_bytes >= w.cost(large).dram_bytes * 0.999);
    }
}
