//! Design-your-own-machine: the simulator as a design-space tool.
//!
//! The paper evaluates two fixed designs. With the models in hand we can
//! ask counterfactuals: what if BG/P had the XT's clock? What if the XT
//! had a collective tree? This example builds hypothetical machines and
//! runs them through HPL, the Allreduce sweep, and POP — each question
//! phrased as a [`ScenarioSpec`] and answered through the scenario
//! cache, so re-asking any of them (here or anywhere else in the
//! process) is a lookup, not a simulation.
//!
//! ```text
//! cargo run --release --example design_your_machine
//! ```

use bgp_eval::cache::{evaluate, ProgramSpec, ScenarioSpec, Setup};
use bgp_eval::hpcc::{hpl_problem_size, HplConfig};
use bgp_eval::machine::registry::{bluegene_p, xt4_qc};
use bgp_eval::machine::{ExecMode, MachineSpec};
use bgp_eval::net::DType;
use bgp_eval::power::{PowerModel, UTIL_SCIENCE};
use bgp_eval::topo::Grid2D;

/// BG/P with a 1.7 GHz core (double clock, ~double core power).
fn fast_bgp() -> MachineSpec {
    let mut m = bluegene_p();
    m.core.clock_hz *= 2.0;
    m.core.name = "PPC450 @ 1700 MHz (hypothetical)";
    m.power.core_dyn_w *= 2.2;
    m.power.core_idle_w *= 1.5;
    m
}

/// XT4/QC with a BlueGene-style collective tree bolted on.
fn xt_with_tree() -> MachineSpec {
    let mut m = xt4_qc();
    m.nic.tree_bw = Some(1700e6);
    m.nic.has_barrier_network = true;
    m
}

fn report(machine: &MachineSpec, tag: &str) {
    let cores = 1024usize;
    let n = hpl_problem_size(machine, cores, ExecMode::Vn, 0.8);
    // three what-if questions, each a content-addressed scenario
    let spec = |program| ScenarioSpec::new(program, Setup::new(machine, ExecMode::Vn));
    let grid = Grid2D::near_square(cores);
    let hpl_spec = spec(ProgramSpec::Hpl(HplConfig { n, nb: 144, grid, samples: 6 }));
    let ar_spec =
        spec(ProgramSpec::ImbAllreduce { ranks: cores, bytes: 32 * 1024, dtype: DType::F64 });
    let pop_spec = spec(ProgramSpec::Pop {
        ranks: cores,
        threads: 1,
        cfg: bgp_eval::apps::PopConfig::default(),
    });
    // result-vector layouts: hpl = [seconds, gflops, efficiency],
    // imb-allreduce = [usec], pop = [syd, ...]
    let hpl_gflops = evaluate(&hpl_spec).expect("hpl evaluates")[1];
    let ar_usec = evaluate(&ar_spec).expect("allreduce evaluates")[0];
    let pop_syd = evaluate(&pop_spec).expect("pop evaluates")[0];
    let pm = PowerModel::new(machine.clone());
    let kw = pm.aggregate_w(cores as u64, UTIL_SCIENCE) / 1e3;
    println!(
        "{tag:>24}  HPL {hpl_gflops:>7.0} GF  allreduce {ar_usec:>7.1} us  \
         POP {pop_syd:>5.2} SYD  {kw:>6.1} kW"
    );
}

fn main() {
    println!("Design-space exploration at 1024 cores, VN mode:\n");
    report(&bluegene_p(), "BG/P (baseline)");
    report(&fast_bgp(), "BG/P @ 1.7 GHz");
    report(&xt4_qc(), "XT4/QC (baseline)");
    report(&xt_with_tree(), "XT4/QC + tree network");
    let s = bgp_eval::cache::global().stats();
    println!(
        "\n-> doubling BG/P's clock buys HPL and POP throughput at a power \
         cost; giving the XT a tree collapses its Allreduce latency, which \
         is precisely what POP's barotropic solver wants at scale."
    );
    println!(
        "   (scenario cache: {} evaluations, {} hits — re-run any question \
         above and it becomes a lookup)",
        s.result_misses, s.result_hits
    );
}
