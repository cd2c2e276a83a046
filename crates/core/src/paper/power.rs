//! Table 3: the power comparison (§IV).
//!
//! The table derives every row from the models: aggregate draw under HPL
//! and under science codes, MFlops/W from the simulated HPL runs, POP
//! throughput (simulated-years-per-day) at 8192 cores, and the
//! iso-throughput comparison — how many cores and watts each machine
//! needs to reach 12 SYD.

use super::pop_point;
use crate::experiment::Scale;
use crate::report::Table;
use crate::runner::parmap;
use hpcsim_apps as apps;
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::{bluegene_p, xt4_dc, xt4_qc};
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_power::{PowerModel, UTIL_HPL, UTIL_SCIENCE};
use hpcsim_topo::Grid2D;

/// Find the POP SYD at a given core count (helper for the iso-SYD rows;
/// the bisection revisits rungs, and Fig 4 prices some of the same runs).
fn pop_syd(machine: &MachineSpec, cores: usize) -> f64 {
    pop_point(machine, ExecMode::Vn, cores, 1, &apps::PopConfig::default()).syd
}

/// Search the core count needed to reach `target` SYD (coarse bisection
/// over a doubling ladder, capped at 65536).
fn cores_for_syd(machine: &MachineSpec, target: f64, scale: Scale) -> usize {
    let cap = match scale {
        Scale::Paper => 65_536usize,
        Scale::Quick => 4096,
    };
    let mut lo = 256usize;
    let mut hi = lo;
    while hi < cap && pop_syd(machine, hi) < target {
        lo = hi;
        hi *= 2;
    }
    if hi >= cap {
        return cap;
    }
    // one refinement step between lo and hi
    let mid = (lo + hi) / 2;
    if pop_syd(machine, mid) >= target {
        mid
    } else {
        hi
    }
}

/// Table 3: Power Comparison, BG/P (8192 cores) vs XT/QC (30976 cores).
pub fn table3(scale: Scale) -> Table {
    let bgp = bluegene_p();
    let xt = xt4_qc();
    let pm_b = PowerModel::new(bgp.clone());
    let pm_x = PowerModel::new(xt.clone());

    let cores_b = match scale {
        Scale::Paper => 8192usize,
        Scale::Quick => 1024,
    };
    let cores_x = match scale {
        Scale::Paper => 30_976usize,
        Scale::Quick => 1024,
    };

    // Paper: iso-throughput at 12 SYD. Quick scale caps the search at
    // 4096 cores, where neither machine reaches 12 — use a target both
    // can reach so the iso-power comparison stays meaningful.
    let syd_target = match scale {
        Scale::Paper => 12.0,
        Scale::Quick => 1.5,
    };
    // The paper's Table 3 POP throughput rows come from the Fig 4c
    // study, which ran on the dual-core XT4 under Catamount; its power
    // rows come from the quad-core system. We mirror that: SYD from
    // XT4/DC, watts from XT/QC per-core draw.
    let xt_pop = xt4_dc();

    // HPL runs for sustained flops
    let hpl = |machine: &MachineSpec, cores: usize| {
        let n = hpcc::hpl_problem_size(machine, cores, ExecMode::Vn, 0.7);
        let cfg = hpcc::HplConfig { n, nb: 96, grid: Grid2D::near_square(cores), samples: 8 };
        hpcc::hpl_run(machine, ExecMode::Vn, &cfg)
    };

    // scenario set: the six expensive simulations behind the table,
    // each a self-contained unit so the pool can run them concurrently
    type Unit<'a> = Box<dyn Fn() -> f64 + Sync + 'a>;
    let units: Vec<Unit<'_>> = vec![
        Box::new(|| hpl(&bgp, cores_b).gflops),
        Box::new(|| hpl(&xt, cores_x).gflops),
        Box::new(|| pop_syd(&bgp, cores_b.max(512))),
        Box::new(|| pop_syd(&xt_pop, cores_b.max(512))),
        Box::new(|| cores_for_syd(&bgp, syd_target, scale) as f64),
        Box::new(|| cores_for_syd(&xt_pop, syd_target, scale) as f64),
    ];
    let vals = parmap(&units, |u| u());
    let (hpl_b_gflops, hpl_x_gflops) = (vals[0], vals[1]);
    let (pop_b, pop_x) = (vals[2], vals[3]);
    let (iso_cores_b, iso_cores_x) = (vals[4] as usize, vals[5] as usize);

    let mut t = Table::new(
        format!(
            "Table 3: Power Comparison (BG/P {cores_b} cores, XT/QC {cores_x} cores{})",
            if scale == Scale::Quick { ", QUICK scale" } else { "" }
        ),
        &["Metric", "BG/P", "XT/QC"],
    );
    let kw = |w: f64| format!("{:.1}", w / 1e3);
    t.push_row(vec![
        "Measured aggregate power, HPL (kW)".into(),
        kw(pm_b.aggregate_w(cores_b as u64, UTIL_HPL)),
        kw(pm_x.aggregate_w(cores_x as u64, UTIL_HPL)),
    ]);
    t.push_row(vec![
        "  per core (W)".into(),
        format!("{:.1}", pm_b.per_core_w(UTIL_HPL)),
        format!("{:.1}", pm_x.per_core_w(UTIL_HPL)),
    ]);
    t.push_row(vec![
        "Measured aggregate power, normal (kW)".into(),
        kw(pm_b.aggregate_w(cores_b as u64, UTIL_SCIENCE)),
        kw(pm_x.aggregate_w(cores_x as u64, UTIL_SCIENCE)),
    ]);
    t.push_row(vec![
        "  per core (W)".into(),
        format!("{:.1}", pm_b.per_core_w(UTIL_SCIENCE)),
        format!("{:.1}", pm_x.per_core_w(UTIL_SCIENCE)),
    ]);
    t.push_row(vec![
        "Peak (TFlop/s)".into(),
        format!("{:.1}", bgp.core_peak_flops() * cores_b as f64 / 1e12),
        format!("{:.1}", xt.core_peak_flops() * cores_x as f64 / 1e12),
    ]);
    t.push_row(vec![
        "HPL Rmax (TFlop/s)".into(),
        format!("{:.1}", hpl_b_gflops / 1e3),
        format!("{:.1}", hpl_x_gflops / 1e3),
    ]);
    t.push_row(vec![
        "HPL MFlops/W".into(),
        format!("{:.1}", pm_b.mflops_per_watt(hpl_b_gflops * 1e9, cores_b as u64, UTIL_HPL)),
        format!("{:.1}", pm_x.mflops_per_watt(hpl_x_gflops * 1e9, cores_x as u64, UTIL_HPL)),
    ]);
    t.push_row(vec![
        format!("POP SYD @ {} cores", cores_b.max(512)),
        format!("{:.1}", pop_b),
        format!("{:.1}", pop_x),
    ]);
    t.push_row(vec![
        "  aggregate power (kW)".into(),
        kw(pm_b.aggregate_w(cores_b.max(512) as u64, UTIL_SCIENCE)),
        kw(pm_x.aggregate_w(cores_b.max(512) as u64, UTIL_SCIENCE)),
    ]);
    t.push_row(vec![
        format!("Approx. cores for POP SYD of {syd_target:.1}"),
        iso_cores_b.to_string(),
        iso_cores_x.to_string(),
    ]);
    t.push_row(vec![
        "  aggregate power (kW)".into(),
        kw(pm_b.aggregate_w(iso_cores_b as u64, UTIL_SCIENCE)),
        kw(pm_x.aggregate_w(iso_cores_x as u64, UTIL_SCIENCE)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_quick_structure() {
        let t = table3(Scale::Quick);
        assert_eq!(t.rows.len(), 11);
        // per-core power columns reproduce the calibration anchors
        let hpl_per_core = &t.rows[1];
        let b: f64 = hpl_per_core[1].parse().unwrap();
        let x: f64 = hpl_per_core[2].parse().unwrap();
        assert!((b - 7.7).abs() < 0.6, "BG/P {b}");
        assert!((x - 51.0).abs() < 3.0, "XT {x}");
        // the famous ratio: ~6.6x per-core power
        let ratio = x / b;
        assert!((5.8..7.4).contains(&ratio), "ratio {ratio:.2}");
    }

    /// §IV's punchline: per-core the XT needs ~6.6× the power, but at
    /// iso-SYD the gap collapses (paper: 24% more aggregate power).
    #[test]
    fn iso_syd_narrows_the_gap() {
        let t = table3(Scale::Quick);
        let per_core_ratio: f64 = {
            let r = &t.rows[1];
            r[2].parse::<f64>().unwrap() / r[1].parse::<f64>().unwrap()
        };
        let iso_power_ratio: f64 = {
            let r = &t.rows[10];
            r[2].parse::<f64>().unwrap() / r[1].parse::<f64>().unwrap()
        };
        assert!(
            iso_power_ratio < per_core_ratio / 2.0,
            "iso-SYD ratio {iso_power_ratio:.2} should be far below per-core {per_core_ratio:.2}"
        );
    }
}
