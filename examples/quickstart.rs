//! Quickstart: build a BlueGene/P, run simulated HPL across scales, and
//! read off performance, efficiency and power — the §II.C story in ~40
//! lines of user code.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bgp_eval::cache::{evaluate, ProgramSpec, ScenarioSpec, Setup};
use bgp_eval::hpcc::{hpl_problem_size, HplConfig};
use bgp_eval::machine::registry::{bluegene_p, xt4_qc};
use bgp_eval::machine::ExecMode;
use bgp_eval::power::{PowerModel, UTIL_HPL};
use bgp_eval::topo::Grid2D;

fn main() {
    println!("Simulated HPL, BG/P vs XT4/QC (VN mode, 80% of memory)\n");
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>8} {:>10}",
        "cores", "machine", "N", "GFlop/s", "eff", "MFlops/W"
    );
    for machine in [bluegene_p(), xt4_qc()] {
        let pm = PowerModel::new(machine.clone());
        for cores in [256usize, 1024, 4096] {
            let n = hpl_problem_size(&machine, cores, ExecMode::Vn, 0.8);
            let cfg = HplConfig { n, nb: 144, grid: Grid2D::near_square(cores), samples: 6 };
            let spec = ScenarioSpec::new(ProgramSpec::Hpl(cfg), Setup::new(&machine, ExecMode::Vn));
            // HPL results: [seconds, gflops, efficiency]
            let r = evaluate(&spec).expect("HPL evaluates");
            let mfw = pm.mflops_per_watt(r[1] * 1e9, cores as u64, UTIL_HPL);
            println!(
                "{:>8} {:>10} {:>12} {:>10.0} {:>7.1}% {:>10.1}",
                cores,
                machine.id.label(),
                n,
                r[1],
                r[2] * 100.0,
                mfw
            );
        }
    }
    println!(
        "\nThe shape to notice: the XT4 sustains ~2.5x the GFlop/s per core \
         (clock), while BG/P delivers ~2.7x the MFlops per watt — the \
         paper's headline trade-off."
    );
}
