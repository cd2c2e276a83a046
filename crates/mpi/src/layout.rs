//! Rank-to-node layout: where each MPI rank physically lives.
//!
//! BlueGene jobs get a compact partition and place ranks by one of the
//! predefined orderings; XT jobs fill an allocator-provided (possibly
//! fragmented) node list in rank order. The layout is what turns a
//! logical communication pattern into physical routes — the entire
//! subject of the paper's Figure 2(c,d).

use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_topo::{alloc_torus_dims, Mapping, Placement, Torus3D};

/// Placement of `ranks` MPI ranks onto torus nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct RankLayout {
    /// The torus routes are computed on.
    pub torus: Torus3D,
    /// Machine-node index of each rank.
    pub node_of_rank: Vec<usize>,
    /// MPI tasks per node in this mode.
    pub tasks_per_node: usize,
    /// Ratio of this layout's mean route length to a compact layout's
    /// (1.0 for compact; > 1 under fragmentation).
    pub hop_scale: f64,
    /// Background flows per link from other jobs (fragmented allocations
    /// share links with neighbours; compact partitions are private).
    pub ambient_flows: f64,
}

impl RankLayout {
    /// BlueGene-style layout: compact partition, ranks placed by
    /// `mapping`.
    pub fn bluegene(machine: &MachineSpec, ranks: usize, mode: ExecMode, mapping: Mapping) -> Self {
        assert!(ranks >= 1);
        let tpn = mode.tasks_per_node(machine.cores_per_node) as usize;
        let nodes = ranks.div_ceil(tpn);
        let torus = Torus3D::new(alloc_torus_dims(nodes));
        let node_of_rank = mapping.node_indices(ranks, &torus, tpn);
        RankLayout { torus, node_of_rank, tasks_per_node: tpn, hop_scale: 1.0, ambient_flows: 0.0 }
    }

    /// XT-style layout: ranks fill the allocator's node list in order
    /// (`spread > 1` models a fragmented allocation).
    pub fn xt(machine: &MachineSpec, ranks: usize, mode: ExecMode, placement: Placement) -> Self {
        assert!(ranks >= 1);
        let tpn = mode.tasks_per_node(machine.cores_per_node) as usize;
        let nodes = ranks.div_ceil(tpn);
        let (torus, node_list) = placement.place(nodes);
        let node_of_rank = (0..ranks).map(|r| node_list[r / tpn]).collect();
        // relative to compact placement, which is exactly 1.0 for compact
        // itself: skip the sampled mean-hop estimates there
        let hop_scale = match placement {
            Placement::Compact => 1.0,
            Placement::Fragmented { .. } => {
                let compact_hops = Placement::Compact.mean_hops(nodes).max(1e-9);
                (placement.mean_hops(nodes) / compact_hops).max(1.0)
            }
        };
        // A fragmented job threads through links that other jobs are
        // actively using; the interference grows with how scattered the
        // allocation is.
        let ambient_flows = match placement {
            Placement::Compact => 0.0,
            Placement::Fragmented { spread, .. } => (spread - 1.0).clamp(0.0, 2.0),
        };
        RankLayout { torus, node_of_rank, tasks_per_node: tpn, hop_scale, ambient_flows }
    }

    /// Default layout for a machine: TXYZ on BlueGene VN mode semantics,
    /// compact on the XT.
    pub fn default_for(machine: &MachineSpec, ranks: usize, mode: ExecMode) -> Self {
        if machine.id.is_bluegene() {
            let mapping = if mode == ExecMode::Smp { Mapping::xyzt() } else { Mapping::txyz() };
            Self::bluegene(machine, ranks, mode, mapping)
        } else {
            Self::xt(machine, ranks, mode, Placement::Compact)
        }
    }

    /// Number of ranks placed.
    pub fn ranks(&self) -> usize {
        self.node_of_rank.len()
    }

    /// Number of distinct nodes used.
    pub fn nodes_used(&self) -> usize {
        let mut v = self.node_of_rank.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    #[test]
    fn vn_mode_packs_four_per_node() {
        let l = RankLayout::bluegene(&bluegene_p(), 8192, ExecMode::Vn, Mapping::txyz());
        assert_eq!(l.tasks_per_node, 4);
        assert_eq!(l.nodes_used(), 2048);
        // TXYZ: ranks 0..4 share node 0
        assert_eq!(l.node_of_rank[0], l.node_of_rank[3]);
        assert_ne!(l.node_of_rank[3], l.node_of_rank[4]);
    }

    #[test]
    fn smp_mode_spreads_one_per_node() {
        let l = RankLayout::bluegene(&bluegene_p(), 2048, ExecMode::Smp, Mapping::xyzt());
        assert_eq!(l.tasks_per_node, 1);
        assert_eq!(l.nodes_used(), 2048);
    }

    #[test]
    fn mappings_change_physical_neighbours() {
        let a = RankLayout::bluegene(&bluegene_p(), 4096, ExecMode::Vn, Mapping::txyz());
        let b =
            RankLayout::bluegene(&bluegene_p(), 4096, ExecMode::Vn, Mapping::parse("TZYX").unwrap());
        assert_ne!(a.node_of_rank, b.node_of_rank);
    }

    #[test]
    fn xt_compact_layout_fills_in_order() {
        let l = RankLayout::xt(&xt4_qc(), 1024, ExecMode::Vn, Placement::Compact);
        assert_eq!(l.tasks_per_node, 4);
        assert_eq!(l.node_of_rank[0], 0);
        assert_eq!(l.node_of_rank[4], 1);
        assert_eq!(l.hop_scale, 1.0, "compact is its own hop baseline");
        // the unsampled compact shortcut agrees with the sampled ratio
        let same = RankLayout::xt(
            &xt4_qc(),
            1024,
            ExecMode::Vn,
            Placement::Fragmented { spread: 1.0, seed: 0 },
        );
        assert_eq!(same.node_of_rank, l.node_of_rank);
        assert_eq!(same.hop_scale, 1.0);
    }

    #[test]
    fn xt_fragmented_layout_has_longer_routes() {
        let l = RankLayout::xt(
            &xt4_qc(),
            1024,
            ExecMode::Vn,
            Placement::Fragmented { spread: 2.0, seed: 11 },
        );
        assert!(l.hop_scale > 1.0, "hop_scale {}", l.hop_scale);
        assert_eq!(l.ranks(), 1024);
    }

    #[test]
    fn default_layouts_by_family() {
        let b = RankLayout::default_for(&bluegene_p(), 256, ExecMode::Vn);
        assert_eq!(b.tasks_per_node, 4);
        let x = RankLayout::default_for(&xt4_qc(), 256, ExecMode::Smp);
        assert_eq!(x.tasks_per_node, 1);
        assert_eq!(x.nodes_used(), 256);
    }

    #[test]
    fn ranks_not_multiple_of_tpn() {
        let l = RankLayout::bluegene(&bluegene_p(), 5, ExecMode::Vn, Mapping::txyz());
        assert_eq!(l.ranks(), 5);
        assert_eq!(l.nodes_used(), 2);
    }
}
