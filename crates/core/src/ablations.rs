//! Ablation studies: how much does each BG/P design feature actually
//! buy? The paper measures two fixed designs; the simulator lets us
//! remove one feature at a time and re-run the workloads that stress it.
//!
//! Ablations provided (each returns the feature's speedup factor on the
//! workload that showcases it):
//!
//! * **collective tree** — remove the tree/barrier networks and rerun
//!   the IMB Allreduce/Bcast points and POP;
//! * **adaptive routing** — set route diversity to 1 and rerun a
//!   bandwidth-bound HALO exchange;
//! * **DMA/eager threshold** — shrink the eager window to force
//!   rendezvous on halo-sized messages;
//! * **memory bandwidth** — give BG/P the XT3's 6.4 GB/s and rerun
//!   STREAM-bound work;
//! * **double hummer** — halve flops/cycle and rerun DGEMM.

use crate::paper::{price, vn, Row};
use crate::report::Table;
use hpcsim_apps::PopConfig;
use hpcsim_cache::ProgramSpec;
use hpcsim_hpcc::{HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, MachineSpec, NodeModel, Workload};
use hpcsim_net::DType;
use hpcsim_topo::Grid2D;

/// One ablation's outcome.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Feature removed.
    pub feature: &'static str,
    /// Workload used to measure it.
    pub workload: &'static str,
    /// Slowdown factor when the feature is removed (>1 means the
    /// feature helps).
    pub slowdown: f64,
}

fn without_tree(m: &MachineSpec) -> MachineSpec {
    let mut m = m.clone();
    m.nic.tree_bw = None;
    m.nic.has_barrier_network = false;
    m
}

fn without_adaptive_routing(m: &MachineSpec) -> MachineSpec {
    let mut m = m.clone();
    m.nic.route_diversity = 1.0;
    m
}

fn with_tiny_eager(m: &MachineSpec) -> MachineSpec {
    let mut m = m.clone();
    m.nic.eager_threshold = 64;
    m
}

fn with_xt3_memory(m: &MachineSpec) -> MachineSpec {
    let mut m = m.clone();
    m.mem.bw_bytes = 6.4e9;
    m
}

fn without_double_hummer(m: &MachineSpec) -> MachineSpec {
    let mut m = m.clone();
    m.core.flops_per_cycle = 2.0;
    m
}

/// Run the full ablation battery on BG/P at `ranks` tasks.
///
/// Each MPI measurement is a with/without pair: one program priced on
/// the base and the ablated machine in one scenario-cache call (one
/// recording), the pairs fanned out over the worker pool. The base
/// points are paper points too (Fig 2, Fig 3, Fig 4). The memory and
/// FPU ablations are analytic node-model times.
pub fn run_ablations(ranks: usize) -> Vec<Ablation> {
    let base = &bluegene_p();
    let halo = |words| {
        let grid = Grid2D::near_square(ranks);
        ProgramSpec::Halo(HaloConfig { grid, words, protocol: HaloProtocol::IrecvIsend, reps: 2 })
    };
    let bytes = 32 * 1024;
    let tree = without_tree(base);
    let rows: Vec<Row> = [
        // collective tree: IMB latency at 32 KiB, and end-to-end POP
        // (the barotropic solver leans on it)
        (ProgramSpec::ImbAllreduce { ranks, bytes, dtype: DType::F64 }, &tree),
        (ProgramSpec::ImbBcast { ranks, bytes }, &tree),
        (ProgramSpec::Pop { ranks, threads: 1, cfg: PopConfig::default() }, &tree),
        // adaptive routing: bandwidth-bound HALO
        (halo(32_768), &without_adaptive_routing(base)),
        // eager threshold: mid-size halos forced into rendezvous
        (halo(128), &with_tiny_eager(base)),
    ]
    .map(|(program, ablated)| (program, vec![vn(base), vn(ablated)]))
    .into();
    let v = price(&rows);
    // every value read here comes first in its vector: a time, except
    // POP's simulated years per day, a rate
    let (with, without) = (|i: usize| v[i][0][0], |i: usize| v[i][1][0]);
    let slower = |i: usize| without(i) / with(i);
    // one node-model kernel on the base and the ablated machine
    let node = |ablated: MachineSpec, w: Workload| {
        let time = |m: &MachineSpec| NodeModel::new(m.clone()).time(&w, ExecMode::Vn, 1).as_secs();
        time(&ablated) / time(base)
    };
    let ablation = |feature, workload, slowdown| Ablation { feature, workload, slowdown };
    vec![
        ablation("collective tree", "Allreduce 32KiB", slower(0)),
        ablation("collective tree", "Bcast 32KiB", slower(1)),
        ablation("collective tree", "POP 0.1deg (SYD)", with(2) / without(2)),
        ablation("adaptive routing", "HALO 32768 words", slower(3)),
        ablation("eager protocol window", "HALO 128 words", slower(4)),
        ablation(
            "13.6 GB/s memory (vs 6.4)",
            "STREAM triad",
            node(with_xt3_memory(base), Workload::StreamTriad { n: 4_000_000 }),
        ),
        ablation(
            "Double Hummer FPU",
            "DGEMM n=1500",
            node(without_double_hummer(base), Workload::Dgemm { n: 1500 }),
        ),
    ]
}

/// Render the ablations as a table.
pub fn ablation_table(ranks: usize) -> Table {
    let mut t = Table::new(
        format!("Ablations: BG/P feature contributions ({ranks} tasks, VN mode)"),
        &["Feature removed", "Workload", "Slowdown"],
    );
    for a in run_ablations(ranks) {
        t.push_row(vec![
            a.feature.to_string(),
            a.workload.to_string(),
            format!("{:.2}x", a.slowdown),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_is_the_biggest_collective_lever() {
        let abl = run_ablations(512);
        let tree_allreduce = abl.iter().find(|a| a.workload == "Allreduce 32KiB").unwrap();
        let tree_bcast = abl.iter().find(|a| a.workload == "Bcast 32KiB").unwrap();
        assert!(tree_allreduce.slowdown > 3.0, "{tree_allreduce:?}");
        assert!(tree_bcast.slowdown > 2.0, "{tree_bcast:?}");
    }

    #[test]
    fn every_feature_helps_its_workload() {
        for a in run_ablations(256) {
            // >= 1 up to numerical noise; POP at small scale is genuinely
            // tree-insensitive (the paper's own science-metric nuance)
            assert!(
                a.slowdown > 0.999,
                "removing '{}' should not help {}: {:.3}",
                a.feature,
                a.workload,
                a.slowdown
            );
        }
    }

    #[test]
    fn double_hummer_halving_doubles_dgemm_time() {
        let abl = run_ablations(256);
        let dh = abl.iter().find(|a| a.feature == "Double Hummer FPU").unwrap();
        assert!((dh.slowdown - 2.0).abs() < 0.05, "{dh:?}");
    }

    #[test]
    fn pop_feels_the_tree_mildly_at_small_scale() {
        // at moderate scale POP is baroclinic-dominated, so removing the
        // tree costs percents, not multiples — the same nuance as the
        // paper's "less of a power advantage for science-driven metrics"
        let abl = run_ablations(512);
        let pop = abl.iter().find(|a| a.workload == "POP 0.1deg (SYD)").unwrap();
        assert!(pop.slowdown > 0.999 && pop.slowdown < 2.0, "{pop:?}");
    }

    #[test]
    fn table_renders() {
        let t = ablation_table(128);
        assert_eq!(t.rows.len(), 7);
        assert!(t.render().contains("Double Hummer"));
    }
}
