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

use crate::paper::{halo_point, pop_point};
use crate::report::Table;
use crate::runner::parmap;
use hpcsim_apps::{pop_run, PopConfig};
use hpcsim_hpcc::{
    halo_run, imb_allreduce_traces, imb_bcast_traces, price, HaloConfig, HaloProtocol, ImbPoint,
};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, MachineSpec, NodeModel, Workload};
use hpcsim_mpi::{SimConfig, Traces};
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping};

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
/// Each measurement is a self-contained with/without pair, so the
/// battery is expressed as a scenario set and fanned out over the
/// worker pool; results come back in the declared order. The baseline
/// POP and HALO runs are paper points too (Fig 2, Fig 4), so they go
/// through the scenario cache; the ablated machines run directly.
pub fn run_ablations(ranks: usize) -> Vec<Ablation> {
    let base = bluegene_p();
    let pop_cfg = PopConfig::default();
    let halo_cfg = HaloConfig {
        grid: Grid2D::near_square(ranks),
        words: 32_768,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let mid_cfg = HaloConfig { words: 128, ..halo_cfg.clone() };

    // an IMB recording of 32 KiB rounds priced with and without the
    // tree, in one call: (with, without) microseconds
    let tree_pair = |traces: &Traces| {
        let points =
            [base.clone(), without_tree(&base)].map(|m| SimConfig::new(m, ranks, ExecMode::Vn));
        let res = price(&points, traces);
        let usec = |r| ImbPoint::of(r, ranks, 32 * 1024).usec;
        (usec(&res[0]), usec(&res[1]))
    };

    type Unit<'a> = Box<dyn Fn() -> Ablation + Sync + 'a>;
    let units: Vec<Unit<'_>> = vec![
        // 1. collective tree: Allreduce latency at 32 KiB
        Box::new(|| {
            let (t_with, t_without) =
                tree_pair(&imb_allreduce_traces(ranks, 32 * 1024, DType::F64));
            Ablation {
                feature: "collective tree",
                workload: "Allreduce 32KiB",
                slowdown: t_without / t_with,
            }
        }),
        // ... and Bcast
        Box::new(|| {
            let (b_with, b_without) = tree_pair(&imb_bcast_traces(ranks, 32 * 1024));
            Ablation {
                feature: "collective tree",
                workload: "Bcast 32KiB",
                slowdown: b_without / b_with,
            }
        }),
        // ... and end-to-end POP (the barotropic solver leans on it)
        Box::new(|| {
            let syd_with = pop_point(&base, ExecMode::Vn, ranks, 1, &pop_cfg).syd;
            let syd_without = pop_run(&without_tree(&base), ExecMode::Vn, ranks, 1, &pop_cfg).syd;
            Ablation {
                feature: "collective tree",
                workload: "POP 0.1deg (SYD)",
                slowdown: syd_with / syd_without,
            }
        }),
        // 2. adaptive routing: bandwidth-bound HALO
        Box::new(|| {
            let h_with = halo_point(&base, ExecMode::Vn, Mapping::txyz(), &halo_cfg);
            let h_without = halo_run(
                &without_adaptive_routing(&base),
                ExecMode::Vn,
                Mapping::txyz(),
                &halo_cfg,
            );
            Ablation {
                feature: "adaptive routing",
                workload: "HALO 32768 words",
                slowdown: h_without / h_with,
            }
        }),
        // 3. eager threshold: mid-size halos forced into rendezvous
        Box::new(|| {
            let e_with = halo_point(&base, ExecMode::Vn, Mapping::txyz(), &mid_cfg);
            let e_without =
                halo_run(&with_tiny_eager(&base), ExecMode::Vn, Mapping::txyz(), &mid_cfg);
            Ablation {
                feature: "eager protocol window",
                workload: "HALO 128 words",
                slowdown: e_without / e_with,
            }
        }),
        // 4. memory bandwidth: STREAM triad per task
        Box::new(|| {
            let nm_with = NodeModel::new(base.clone());
            let nm_without = NodeModel::new(with_xt3_memory(&base));
            let w = Workload::StreamTriad { n: 4_000_000 };
            let s_with = nm_with.time(&w, ExecMode::Vn, 1).as_secs();
            let s_without = nm_without.time(&w, ExecMode::Vn, 1).as_secs();
            Ablation {
                feature: "13.6 GB/s memory (vs 6.4)",
                workload: "STREAM triad",
                slowdown: s_without / s_with,
            }
        }),
        // 5. double hummer: DGEMM per task
        Box::new(|| {
            let nm_with = NodeModel::new(base.clone());
            let nm_scalar = NodeModel::new(without_double_hummer(&base));
            let d = Workload::Dgemm { n: 1500 };
            let g_with = nm_with.time(&d, ExecMode::Vn, 1).as_secs();
            let g_without = nm_scalar.time(&d, ExecMode::Vn, 1).as_secs();
            Ablation {
                feature: "Double Hummer FPU",
                workload: "DGEMM n=1500",
                slowdown: g_without / g_with,
            }
        }),
    ];
    parmap(&units, |u| u())
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
