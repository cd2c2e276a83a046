//! POP tenth-degree scaling and the science-per-watt story.
//!
//! Runs the POP proxy on BG/P and the XT4 across scales, printing the
//! phase breakdown (Fig 4) and then the Table 3 economics: at equal core
//! counts the XT4 wins on time-to-solution and BG/P wins hugely on
//! power; at equal *throughput* the power gap nearly closes.
//!
//! ```text
//! cargo run --release --example pop_scaling
//! ```

use bgp_eval::apps::{pop_run, PopConfig};
use bgp_eval::machine::registry::{bluegene_p, xt4_dc};
use bgp_eval::machine::ExecMode;
use bgp_eval::power::{PowerModel, UTIL_SCIENCE};

fn main() {
    let cfg = PopConfig::default();
    println!("POP 0.1-degree proxy (VN mode, ChronGear solver)\n");
    println!(
        "{:>8} {:>8} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "machine", "procs", "SYD", "baroclinic", "barotropic", "imbalance", "kW"
    );
    for machine in [bluegene_p(), xt4_dc()] {
        let pm = PowerModel::new(machine.clone());
        for procs in [1024usize, 2048, 4096] {
            let r = pop_run(&machine, ExecMode::Vn, procs, 1, &cfg);
            println!(
                "{:>8} {:>8} {:>8.2} {:>10.1}s {:>10.1}s {:>10.1}s {:>10.1}",
                machine.id.label(),
                procs,
                r.syd,
                r.baroclinic_s,
                r.barotropic_s,
                r.barrier_s,
                pm.aggregate_w(procs as u64, UTIL_SCIENCE) / 1e3,
            );
        }
    }

    // the Table 3 argument at a fixed throughput target
    let target_syd = 1.5;
    println!("\nIso-throughput comparison (target {target_syd} simulated years/day):");
    for machine in [bluegene_p(), xt4_dc()] {
        let pm = PowerModel::new(machine.clone());
        let mut procs = 256;
        while procs <= 16384 && pop_run(&machine, ExecMode::Vn, procs, 1, &cfg).syd < target_syd {
            procs *= 2;
        }
        let kw = pm.aggregate_w(procs as u64, UTIL_SCIENCE) / 1e3;
        println!("  {:>7}: ~{procs} cores, {kw:.1} kW aggregate", machine.id.label());
    }
    println!(
        "\n-> per core BG/P draws ~1/6th the power, but it needs ~5x the cores \
         for the same science throughput; the aggregate-power gap shrinks to \
         tens of percent (paper, §IV)."
    );
}
