//! HALO mapping study: when does the rank-to-torus mapping matter?
//!
//! Reproduces the logic of the paper's Figure 2(c,d): run the Wallcraft
//! HALO exchange under all eight predefined mappings at a small and a
//! large halo size. The mapping is irrelevant while exchanges are
//! latency-dominated, and worth real money once they are bandwidth-bound.
//!
//! Every (mapping, size) point is a scenario priced through the
//! scenario cache, one [`evaluate_on`] call per halo size: each call
//! records its program once (the exchange pattern depends on the grid
//! and halo size, not the mapping) and replays that recording under all
//! eight mappings, and asking any point again is a tier-1 lookup. BG/P's
//! torus is contended, so no point is priced on a compiled DAG and tier
//! 2 stays empty.
//!
//! ```text
//! cargo run --release --example halo_mapping
//! ```

use bgp_eval::cache::{evaluate_on, ProgramSpec, Setup};
use bgp_eval::hpcc::{HaloConfig, HaloProtocol};
use bgp_eval::machine::registry::bluegene_p;
use bgp_eval::machine::ExecMode;
use bgp_eval::topo::{Grid2D, Mapping};

fn main() {
    let machine = bluegene_p();
    let ranks = 1024; // 32x32 virtual grid, VN mode -> 256 nodes
    let grid = Grid2D::near_square(ranks);
    println!(
        "HALO exchange on BG/P, {} ranks as {}x{} grid (VN mode)\n",
        ranks, grid.rows, grid.cols
    );
    println!("{:>8} {:>14} {:>14}", "mapping", "8 words (us)", "32768 words (us)");

    let mappings = Mapping::fig2_set();
    let setups: Vec<Setup> = mappings
        .iter()
        .map(|&(_, mapping)| Setup { mapping, ..Setup::new(&machine, ExecMode::Vn) })
        .collect();
    let run = |words: u64| -> Vec<f64> {
        let cfg = HaloConfig { grid, words, protocol: HaloProtocol::IrecvIsend, reps: 2 };
        let priced = evaluate_on(&ProgramSpec::Halo(cfg), &setups);
        priced.into_iter().map(|v| v.expect("pristine halo scenarios evaluate")[0] * 1e6).collect()
    };
    let (small, large) = (run(8), run(32_768));
    for ((name, _), (small, large)) in mappings.iter().zip(small.iter().zip(&large)) {
        println!("{name:>8} {small:>14.1} {large:>14.1}");
    }

    let spread = |us: &[f64]| {
        let min = us.iter().copied().fold(f64::INFINITY, f64::min);
        let max = us.iter().copied().fold(0.0f64, f64::max);
        max / min
    };
    println!(
        "\nworst/best ratio: {:.2}x at 8 words, {:.2}x at 32768 words",
        spread(&small),
        spread(&large)
    );
    let s = bgp_eval::cache::global().stats();
    println!(
        "scenario cache: {} evaluations in 2 calls, {} compiled-DAG lookups",
        s.result_misses,
        s.trace_hits + s.trace_misses
    );
    println!(
        "-> \"optimizing with respect to process/processor mapping is likely \
         unimportant when communication is latency dominated, but may be \
         important when communication is bandwidth limited.\" (paper, §II.B.1)"
    );
}
