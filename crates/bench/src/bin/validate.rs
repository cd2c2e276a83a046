//! Calibration validator: checks every model anchor against the paper's
//! published values and prints PASS/FAIL. Exit code 0 iff all pass.
//!
//! ```text
//! cargo run --release -p hpcsim-bench --bin validate
//! ```

use hpcsim_apps::PopConfig;
use hpcsim_cache::{evaluate, ProgramSpec, ScenarioSpec, Setup};
use hpcsim_core::paper::micro::top500_run;
use hpcsim_machine::registry::{bluegene_p, xt4_dc, xt4_qc};
use hpcsim_machine::ExecMode;
use hpcsim_power::{PowerModel, UTIL_HPL, UTIL_SCIENCE};

struct Check {
    name: &'static str,
    paper: f64,
    simulated: f64,
    tol_pct: f64,
}

impl Check {
    fn passes(&self) -> bool {
        (self.simulated - self.paper).abs() / self.paper.abs() * 100.0 <= self.tol_pct
    }
}

fn main() {
    let bgp = bluegene_p();
    let qc = xt4_qc();
    let pm_b = PowerModel::new(bgp.clone());
    let pm_x = PowerModel::new(qc.clone());
    let top = top500_run(&bgp);
    // POP results: [syd, baroclinic_s, barrier_s, barotropic_s]
    let pop_syd = |machine| {
        let program = ProgramSpec::Pop { ranks: 8192, threads: 1, cfg: PopConfig::default() };
        evaluate(&ScenarioSpec::new(program, Setup::new(machine, ExecMode::Vn))).expect("POP")[0]
    };
    let (pop_b, pop_x) = (pop_syd(&bgp), pop_syd(&xt4_dc()));

    let checks = [
        Check {
            name: "BG/P node peak (GF/s)",
            paper: 13.6,
            simulated: bgp.node_peak_flops() / 1e9,
            tol_pct: 0.1,
        },
        Check {
            name: "BG/P core peak (GF/s)",
            paper: 3.4,
            simulated: bgp.core_peak_flops() / 1e9,
            tol_pct: 0.1,
        },
        Check {
            name: "BG/P HPL power (W/core)",
            paper: 7.7,
            simulated: pm_b.per_core_w(UTIL_HPL),
            tol_pct: 5.0,
        },
        Check {
            name: "BG/P normal power (W/core)",
            paper: 7.3,
            simulated: pm_b.per_core_w(UTIL_SCIENCE),
            tol_pct: 5.0,
        },
        Check {
            name: "XT/QC HPL power (W/core)",
            paper: 51.0,
            simulated: pm_x.per_core_w(UTIL_HPL),
            tol_pct: 5.0,
        },
        Check {
            name: "XT/QC normal power (W/core)",
            paper: 48.4,
            simulated: pm_x.per_core_w(UTIL_SCIENCE),
            tol_pct: 5.0,
        },
        Check {
            name: "TOP500 HPL (TF/s)",
            paper: 21.4,
            simulated: top.hpl.gflops / 1e3,
            tol_pct: 15.0,
        },
        Check { name: "TOP500 power (kW)", paper: 63.0, simulated: top.power_kw, tol_pct: 8.0 },
        Check {
            name: "Green500 (MFlops/W, Table 3 says 347.6, text 310.9)",
            paper: 329.0,
            simulated: top.mflops_per_watt,
            tol_pct: 15.0,
        },
        Check { name: "POP SYD @ 8192, BG/P", paper: 3.6, simulated: pop_b, tol_pct: 35.0 },
        Check { name: "POP SYD @ 8192, XT4", paper: 12.5, simulated: pop_x, tol_pct: 45.0 },
        Check {
            name: "POP XT4/BG-P ratio @ 8192",
            paper: 3.6,
            simulated: pop_x / pop_b,
            tol_pct: 30.0,
        },
        Check {
            name: "per-core power ratio (XT/BG-P)",
            paper: 6.6,
            simulated: pm_x.per_core_w(UTIL_HPL) / pm_b.per_core_w(UTIL_HPL),
            tol_pct: 10.0,
        },
    ];

    println!("{:<52} {:>10} {:>10} {:>7} {:>6}", "anchor", "paper", "simulated", "err%", "status");
    let mut failures = 0;
    for c in &checks {
        let err = (c.simulated - c.paper) / c.paper.abs() * 100.0;
        let ok = c.passes();
        if !ok {
            failures += 1;
        }
        println!(
            "{:<52} {:>10.2} {:>10.2} {:>6.1}% {:>6}",
            c.name,
            c.paper,
            c.simulated,
            err,
            if ok { "PASS" } else { "FAIL" }
        );
    }
    println!("\n{} of {} anchors within tolerance", checks.len() - failures, checks.len());
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
