//! Job partitions and node placement.
//!
//! BlueGene partitions are electrically-isolated rectangular torus blocks:
//! a job of N nodes always gets a compact `a×b×c` sub-torus. The Cray XT
//! allocator instead hands out whatever nodes are free, so a job may be
//! scattered across the machine and share links with other jobs — the
//! paper's explanation for the XT's PTRANS variability ("the resource
//! allocation approach on the XT is more susceptible to fragmentation").
//!
//! [`torus_dims`] picks the partition shape for a node count;
//! [`Placement`] turns job-node indices into machine-node indices, either
//! compactly (BG/P) or with fragmentation (XT).

use crate::torus::Torus3D;
use hpcsim_engine::DetRng;
use serde::{Deserialize, Serialize};

/// Standard BG/P partition shapes for power-of-two node counts, per the
/// machines in the study (Eugene's 2048-node racks, Intrepid's rows).
const BGP_SHAPES: &[(usize, [usize; 3])] = &[
    (32, [4, 4, 2]),
    (64, [4, 4, 4]),
    (128, [8, 4, 4]),
    (256, [8, 8, 4]),
    (512, [8, 8, 8]),
    (1024, [8, 8, 16]),
    (2048, [8, 16, 16]),
    (4096, [16, 16, 16]),
    (8192, [16, 16, 32]),
    (16384, [16, 32, 32]),
    (32768, [32, 32, 32]),
    (40960, [32, 32, 40]),
];

/// Choose torus dimensions for a partition of `nodes` nodes.
///
/// Power-of-two sizes use the standard BlueGene shapes; other sizes get
/// the factorization `a·b·c = nodes` minimizing surface (most cubic).
/// Every positive count has at least the degenerate `n×1×1` factorization.
pub fn torus_dims(nodes: usize) -> [usize; 3] {
    assert!(nodes >= 1);
    if let Some(&(_, dims)) = BGP_SHAPES.iter().find(|&&(n, _)| n == nodes) {
        return dims;
    }
    let mut best = [nodes, 1, 1];
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= nodes {
        if nodes.is_multiple_of(a) {
            let rest = nodes / a;
            let mut b = a;
            while b * b <= rest {
                if rest.is_multiple_of(b) {
                    let c = rest / b;
                    let score = a * b + b * c + a * c; // surface ~ comm cost
                    if score < best_score {
                        best_score = score;
                        best = [a, b, c];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best.sort_unstable();
    best
}

/// Torus dimensions for a *physical allocation* of at least `nodes`
/// nodes. Unlike [`torus_dims`], which factorizes exactly (and degrades
/// to a line for primes), this pads the count upward — real allocators
/// hand out rectangular blocks, never a 1×1×1291 noodle. The result's
/// volume is in `[nodes, ~1.3·nodes]` with bounded aspect ratio.
pub fn alloc_torus_dims(nodes: usize) -> [usize; 3] {
    assert!(nodes >= 1);
    if let Some(&(_, dims)) = BGP_SHAPES.iter().find(|&&(n, _)| n == nodes) {
        return dims;
    }
    // Allocations are granular (node cards): scan multiples of 16 (plus
    // the exact count) up to 25% padding and keep the most compact shape.
    let step = if nodes < 16 { 1 } else { 16 };
    let mut best = [nodes, 1, 1];
    let mut best_score = usize::MAX;
    let mut candidate = nodes;
    while candidate <= nodes + nodes / 4 + 1 {
        let d = torus_dims(candidate);
        let score = d[0] * d[1] + d[1] * d[2] + d[0] * d[2];
        if score < best_score {
            best_score = score;
            best = d;
        }
        candidate = (candidate / step + 1) * step;
    }
    best
}

/// How a job's nodes are placed onto the machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Compact rectangular partition (BlueGene): job node *i* is machine
    /// node *i* of a dedicated sub-torus.
    Compact,
    /// Fragmented allocation (Cray XT): the job's nodes are drawn
    /// scattered from a region `spread` times larger than the job, so
    /// routes are longer and shared. `spread` ≥ 1; 1 degenerates to
    /// compact.
    Fragmented {
        /// How much bigger the drawn-from region is than the job.
        spread: f64,
        /// Seed for the placement lottery (deterministic per experiment).
        seed: u64,
    },
}

impl Placement {
    /// Materialize the placement of a `job_nodes`-node job. Returns the
    /// torus to route on and, for each job node index, its node index in
    /// that torus.
    pub fn place(&self, job_nodes: usize) -> (Torus3D, Vec<usize>) {
        match *self {
            Placement::Compact => {
                let t = Torus3D::new(alloc_torus_dims(job_nodes));
                (t, (0..job_nodes).collect())
            }
            Placement::Fragmented { spread, seed } => {
                let spread = spread.max(1.0);
                let region = ((job_nodes as f64 * spread).ceil() as usize).max(job_nodes);
                let t = Torus3D::new(alloc_torus_dims(region));
                // Reservoir-sample job_nodes distinct machine nodes, then
                // assign them to job indices in machine order — mirroring
                // an allocator that walks its free list.
                let mut rng = DetRng::new(seed, 0xA110C);
                let mut chosen: Vec<usize> = (0..job_nodes).collect();
                for i in job_nodes..region {
                    let j = rng.next_below((i + 1) as u64) as usize;
                    if j < job_nodes {
                        chosen[j] = i;
                    }
                }
                chosen.sort_unstable();
                (t, chosen)
            }
        }
    }

    /// Mean route length between distinct job nodes under this placement —
    /// a scalar summary used by the analytic network model.
    pub fn mean_hops(&self, job_nodes: usize) -> f64 {
        let (torus, nodes) = self.place(job_nodes);
        if job_nodes < 2 {
            return 0.0;
        }
        // Sample pairs deterministically rather than O(n²).
        let mut rng = DetRng::new(0xB15EC7, job_nodes as u64);
        let samples = 4096.min(job_nodes * (job_nodes - 1));
        let mut sum = 0usize;
        for _ in 0..samples {
            let a = nodes[rng.next_below(job_nodes as u64) as usize];
            let b = nodes[rng.next_below(job_nodes as u64) as usize];
            sum += torus.hops(torus.coord(a), torus.coord(b));
        }
        sum as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_shapes_hit_table() {
        assert_eq!(torus_dims(512), [8, 8, 8]);
        assert_eq!(torus_dims(2048), [8, 16, 16]); // Eugene
        assert_eq!(torus_dims(8192), [16, 16, 32]);
    }

    #[test]
    fn factorizations_multiply_back() {
        for n in [1, 2, 6, 36, 100, 96, 7, 97, 1000, 2400] {
            let d = torus_dims(n);
            assert_eq!(d[0] * d[1] * d[2], n, "dims {d:?} for {n}");
        }
    }

    #[test]
    fn prime_degenerates_to_line() {
        assert_eq!(torus_dims(97), [1, 1, 97]);
    }

    #[test]
    fn alloc_dims_pad_primes_into_blocks() {
        // a prime allocation must NOT become a 1x1xP noodle
        let d = alloc_torus_dims(1291);
        let volume = d[0] * d[1] * d[2];
        assert!((1291..=1291 + 1291 / 4 + 2).contains(&volume), "{d:?}");
        assert!(d[0] >= 4, "aspect still degenerate: {d:?}");
    }

    #[test]
    fn alloc_dims_keep_standard_shapes() {
        assert_eq!(alloc_torus_dims(2048), [8, 16, 16]);
        assert_eq!(alloc_torus_dims(512), [8, 8, 8]);
        assert_eq!(alloc_torus_dims(1), [1, 1, 1]);
    }

    #[test]
    fn near_cube_preferred() {
        let d = torus_dims(1000);
        assert_eq!(d, [10, 10, 10]);
        let d = torus_dims(96);
        // 4*4*6 surface = 16+24+24 = 64, better than 2*6*8 (12+48+16=76)
        assert_eq!(d, [4, 4, 6]);
    }

    #[test]
    fn compact_placement_is_identity() {
        let (t, nodes) = Placement::Compact.place(512);
        assert_eq!(t.nodes(), 512);
        assert_eq!(nodes, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn fragmented_placement_is_scattered_superset() {
        let p = Placement::Fragmented { spread: 2.0, seed: 7 };
        let (t, nodes) = p.place(256);
        assert!(t.nodes() >= 512);
        assert_eq!(nodes.len(), 256);
        let mut uniq = nodes.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 256, "placement must not duplicate nodes");
        assert!(*nodes.last().unwrap() < t.nodes());
        // not simply 0..256
        assert_ne!(nodes, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn fragmented_placement_is_deterministic() {
        let p = Placement::Fragmented { spread: 1.5, seed: 42 };
        assert_eq!(p.place(128).1, p.place(128).1);
        let q = Placement::Fragmented { spread: 1.5, seed: 43 };
        assert_ne!(p.place(128).1, q.place(128).1);
    }

    /// The paper's fragmentation story: scattered placement lengthens
    /// routes.
    #[test]
    fn fragmentation_increases_mean_hops() {
        let compact = Placement::Compact.mean_hops(512);
        let frag = Placement::Fragmented { spread: 2.0, seed: 3 }.mean_hops(512);
        assert!(frag > compact, "fragmented {frag:.2} should exceed compact {compact:.2}");
    }

    #[test]
    fn mean_hops_degenerate_cases() {
        assert_eq!(Placement::Compact.mean_hops(1), 0.0);
        let p = Placement::Fragmented { spread: 1.0, seed: 0 };
        let (_, nodes) = p.place(64);
        assert_eq!(nodes, (0..64).collect::<Vec<_>>());
    }
}
