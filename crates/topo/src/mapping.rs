//! Rank-to-node mappings.
//!
//! BG/P assigns MPI ranks to torus coordinates by a four-symbol ordering
//! over `{X, Y, Z, T}` where `T` is the task slot within a node (§I.A):
//! the **leftmost symbol varies fastest**. `XYZT` walks the X ring first
//! (one task per node), `TXYZ` fills all task slots of a node before
//! moving in X, and so on. Figure 2(c,d) of the paper compares eight of
//! these orderings for the HALO exchange; this module implements all 12
//! predefined mappings (the T-last and T-first families plus the remaining
//! permutations the paper lists).

use crate::torus::{Coord, Torus3D};
use serde::{Deserialize, Serialize};

/// One of the mapping symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Sym {
    X,
    Y,
    Z,
    T,
}

/// A rank-to-(node, task-slot) ordering such as `TXYZ` or `XYZT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    order: [Sym; 4],
}

impl Mapping {
    /// Parse an ordering like `"TXYZ"`. Returns `None` unless the string
    /// is a permutation of the four symbols.
    pub fn parse(s: &str) -> Option<Mapping> {
        let chars: Vec<char> = s.trim().to_ascii_uppercase().chars().collect();
        if chars.len() != 4 {
            return None;
        }
        let mut order = [Sym::X; 4];
        let mut seen = [false; 4];
        for (i, c) in chars.iter().enumerate() {
            let (sym, j) = match c {
                'X' => (Sym::X, 0),
                'Y' => (Sym::Y, 1),
                'Z' => (Sym::Z, 2),
                'T' => (Sym::T, 3),
                _ => return None,
            };
            if seen[j] {
                return None;
            }
            seen[j] = true;
            order[i] = sym;
        }
        Some(Mapping { order })
    }

    /// The default SMP/VN orderings from the paper.
    pub fn xyzt() -> Mapping {
        Mapping::parse("XYZT").unwrap()
    }

    /// The default VN-mode ordering (tasks 0–3 on the first node, …).
    pub fn txyz() -> Mapping {
        Mapping::parse("TXYZ").unwrap()
    }

    /// The eight orderings compared in Figure 2(c,d).
    pub fn fig2_set() -> Vec<(String, Mapping)> {
        ["TXYZ", "TYXZ", "TZXY", "TZYX", "XYZT", "YXZT", "ZXYT", "ZYXT"]
            .iter()
            .map(|s| (s.to_string(), Mapping::parse(s).unwrap()))
            .collect()
    }

    /// All 12 predefined mappings from §I.A (T-last family, T-first
    /// family).
    pub fn predefined() -> Vec<(String, Mapping)> {
        [
            "XYZT", "XZYT", "YXZT", "YZXT", "ZXYT", "ZYXT", "TXYZ", "TXZY", "TYXZ", "TYZX", "TZXY",
            "TZYX",
        ]
        .iter()
        .map(|s| (s.to_string(), Mapping::parse(s).unwrap()))
        .collect()
    }

    /// Render back to the four-letter name.
    pub fn name(&self) -> String {
        self.order
            .iter()
            .map(|s| match s {
                Sym::X => 'X',
                Sym::Y => 'Y',
                Sym::Z => 'Z',
                Sym::T => 'T',
            })
            .collect()
    }

    /// Map `rank` to a torus coordinate and task slot, given the torus
    /// shape and `tasks_per_node`. Ranks beyond the partition capacity
    /// wrap (callers should size partitions to the job).
    pub fn place(&self, rank: usize, torus: &Torus3D, tasks_per_node: usize) -> (Coord, usize) {
        debug_assert!(tasks_per_node >= 1);
        let mut digits = [0usize; 4]; // x, y, z, t
        let mut r = rank;
        for sym in self.order {
            let (idx, radix) = match sym {
                Sym::X => (0, torus.dims[0]),
                Sym::Y => (1, torus.dims[1]),
                Sym::Z => (2, torus.dims[2]),
                Sym::T => (3, tasks_per_node),
            };
            digits[idx] = r % radix;
            r /= radix;
        }
        ([digits[0], digits[1], digits[2]], digits[3])
    }

    /// Node index of each rank `0..ranks`, in rank order: the node
    /// [`Mapping::place`] gives each rank (ranks past the partition's
    /// capacity wrap alike), walked as an odometer over the mapping's
    /// mixed-radix digits — one add per rank and a carry on wrap, where
    /// `place` pays four divisions.
    pub fn node_indices(&self, ranks: usize, torus: &Torus3D, tasks_per_node: usize) -> Vec<usize> {
        debug_assert!(tasks_per_node >= 1);
        let [dx, dy, dz] = torus.dims;
        // (radix, node-index stride) per digit, fastest first
        let digits = self.order.map(|sym| match sym {
            Sym::X => (dx, 1),
            Sym::Y => (dy, dx),
            Sym::Z => (dz, dx * dy),
            Sym::T => (tasks_per_node, 0),
        });
        let mut count = [0usize; 4];
        let mut node = 0;
        let mut out = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            out.push(node);
            for (c, &(radix, stride)) in count.iter_mut().zip(&digits) {
                *c += 1;
                if *c < radix {
                    node += stride;
                    break;
                }
                *c = 0;
                node -= (radix - 1) * stride;
            }
        }
        out
    }

    /// The inverse of [`Mapping::place`]: rank of `(coord, slot)`.
    pub fn rank_of(
        &self,
        coord: Coord,
        slot: usize,
        torus: &Torus3D,
        tasks_per_node: usize,
    ) -> usize {
        let mut rank = 0usize;
        let mut weight = 1usize;
        for sym in self.order {
            let (digit, radix) = match sym {
                Sym::X => (coord[0], torus.dims[0]),
                Sym::Y => (coord[1], torus.dims[1]),
                Sym::Z => (coord[2], torus.dims[2]),
                Sym::T => (slot, tasks_per_node),
            };
            rank += digit * weight;
            weight *= radix;
        }
        rank
    }
}

impl std::fmt::Display for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_permutations_only() {
        assert!(Mapping::parse("TXYZ").is_some());
        assert!(Mapping::parse("xyzt").is_some()); // case-insensitive
        assert!(Mapping::parse("XXYZ").is_none());
        assert!(Mapping::parse("XYZ").is_none());
        assert!(Mapping::parse("XYZW").is_none());
        assert!(Mapping::parse("XYZTT").is_none());
    }

    #[test]
    fn name_round_trips() {
        for (name, m) in Mapping::predefined() {
            assert_eq!(m.name(), name);
        }
    }

    /// §I.A: "TXYZ ordering assigns processes 0–3 to the first node,
    /// 4–7 to the second node (in the X direction)".
    #[test]
    fn txyz_fills_node_first() {
        let t = Torus3D::new([4, 4, 4]);
        let m = Mapping::txyz();
        for r in 0..4 {
            let (c, slot) = m.place(r, &t, 4);
            assert_eq!(c, [0, 0, 0]);
            assert_eq!(slot, r);
        }
        let (c, slot) = m.place(4, &t, 4);
        assert_eq!(c, [1, 0, 0]);
        assert_eq!(slot, 0);
    }

    /// §I.A: "XYZT … assigning one process to each node in the X direction
    /// of the torus, then the Y, then the Z, then returning to the first
    /// node".
    #[test]
    fn xyzt_walks_torus_first() {
        let t = Torus3D::new([4, 4, 4]);
        let m = Mapping::xyzt();
        let (c, slot) = m.place(1, &t, 4);
        assert_eq!((c, slot), ([1, 0, 0], 0));
        let (c, slot) = m.place(4, &t, 4);
        assert_eq!((c, slot), ([0, 1, 0], 0));
        let (c, slot) = m.place(64, &t, 4);
        assert_eq!((c, slot), ([0, 0, 0], 1)); // wrapped back, second slot
    }

    /// In SMP mode (1 task/node) XYZT and TXYZ coincide, as the paper notes.
    #[test]
    fn smp_mode_orderings_coincide() {
        let t = Torus3D::new([8, 8, 8]);
        for r in (0..512).step_by(37) {
            assert_eq!(Mapping::xyzt().place(r, &t, 1), Mapping::txyz().place(r, &t, 1));
        }
    }

    #[test]
    fn place_is_bijective_over_partition() {
        let t = Torus3D::new([4, 2, 3]);
        let tpn = 4;
        let total = t.nodes() * tpn;
        for (_, m) in Mapping::predefined() {
            let mut seen = vec![false; total];
            for r in 0..total {
                let (c, slot) = m.place(r, &t, tpn);
                let key = t.index(c) * tpn + slot;
                assert!(!seen[key], "mapping {m} collides at rank {r}");
                seen[key] = true;
            }
        }
    }

    #[test]
    fn node_indices_match_place_for_every_ordering() {
        let mut orders = Vec::new();
        for a in "XYZT".chars() {
            for b in "XYZT".chars().filter(|&b| b != a) {
                for c in "XYZT".chars().filter(|&c| c != a && c != b) {
                    let d = "XYZT".chars().find(|&d| d != a && d != b && d != c).unwrap();
                    orders.push(Mapping::parse(&format!("{a}{b}{c}{d}")).unwrap());
                }
            }
        }
        assert_eq!(orders.len(), 24);
        for dims in [[1, 1, 1], [4, 4, 4], [4, 2, 3], [8, 4, 2], [3, 5, 1], [2, 1, 7]] {
            let t = Torus3D::new(dims);
            for tpn in [1, 2, 4] {
                // two full wraps and a partial third: ranks past capacity
                let ranks = 2 * t.nodes() * tpn + 3;
                for m in &orders {
                    let want: Vec<usize> =
                        (0..ranks).map(|r| t.index(m.place(r, &t, tpn).0)).collect();
                    assert_eq!(m.node_indices(ranks, &t, tpn), want, "{m} on {dims:?} × {tpn}");
                }
            }
        }
    }

    #[test]
    fn rank_of_inverts_place() {
        let t = Torus3D::new([4, 6, 2]);
        let tpn = 2;
        for (_, m) in Mapping::fig2_set() {
            for r in 0..t.nodes() * tpn {
                let (c, slot) = m.place(r, &t, tpn);
                assert_eq!(m.rank_of(c, slot, &t, tpn), r);
            }
        }
    }

    #[test]
    fn fig2_set_is_eight() {
        assert_eq!(Mapping::fig2_set().len(), 8);
        assert_eq!(Mapping::predefined().len(), 12);
    }

    /// Different orderings place mid-range ranks differently (that's the
    /// whole point of Fig 2c/d).
    #[test]
    fn orderings_differ() {
        let t = Torus3D::new([8, 8, 8]);
        let a = Mapping::parse("TXYZ").unwrap().place(100, &t, 4);
        let b = Mapping::parse("TZYX").unwrap().place(100, &t, 4);
        assert_ne!(a, b);
    }
}
