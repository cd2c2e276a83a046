//! # hpcsim-topo
//!
//! Interconnect topologies and process placement for the BG/P study:
//!
//! * [`torus`] — the 3-D torus: coordinates, wraparound distances,
//!   dimension-ordered routing as compact ring segments
//!   ([`torus::RouteSegs`], iterated arithmetically into the link ids
//!   that are the unit of contention accounting in `hpcsim-net`).
//! * [`partition`] — how a job of N nodes becomes a torus shape (BG/P
//!   partitions are compact blocks; the Cray XT allocator hands out
//!   whatever is free, which the paper blames for PTRANS variability —
//!   modelled by [`partition::Placement`]).
//! * [`mapping`] — the predefined BG/P rank-to-node orderings (XYZT, TXYZ,
//!   and friends from §I.A and Figure 2) as mixed-radix digit permutations.
//! * [`grid`] — virtual process grids (2-D for HALO/POP, 3-D for S3D) with
//!   periodic neighbours.
//! * [`tree`] — the global collective tree: spanning-tree depth over a
//!   partition, used by the BG/P hardware-collective model.

pub mod grid;
pub mod mapping;
pub mod partition;
pub mod torus;
pub mod tree;

pub use grid::{Grid2D, Grid3D};
pub use mapping::Mapping;
pub use partition::{alloc_torus_dims, torus_dims, Placement};
pub use torus::{
    AllHealthy, Coord, DetourSegs, Direction, LinkHealth, LinkId, RouteSegs, SegLinks, Torus3D,
};
pub use tree::CollectiveTree;
