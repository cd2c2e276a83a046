//! The 3-D torus: coordinates, distances, and dimension-ordered routes.
//!
//! Routes are materialized as sequences of [`LinkId`]s — one per traversed
//! unidirectional link — because link occupancy is the unit of contention
//! accounting in the network model. BG/P routes packets in dimension order
//! (X, then Y, then Z), taking the shorter way around each ring; ties
//! break toward the positive direction, matching the determinism of the
//! hardware's default routing.

use serde::{Deserialize, Serialize};

/// A node position in the torus.
pub type Coord = [usize; 3];

/// One of the six torus link directions out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// +X neighbour.
    XPlus,
    /// −X neighbour.
    XMinus,
    /// +Y neighbour.
    YPlus,
    /// −Y neighbour.
    YMinus,
    /// +Z neighbour.
    ZPlus,
    /// −Z neighbour.
    ZMinus,
}

impl Direction {
    /// Dense index 0..6 (used for link-table addressing).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::XPlus => 0,
            Direction::XMinus => 1,
            Direction::YPlus => 2,
            Direction::YMinus => 3,
            Direction::ZPlus => 4,
            Direction::ZMinus => 5,
        }
    }

    /// Which dimension (0=X, 1=Y, 2=Z) this direction moves along.
    pub fn dim(self) -> usize {
        self.index() / 2
    }
}

/// A unidirectional link, identified by its source node and direction.
/// `id = node * 6 + direction` is a dense index into per-link tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl LinkId {
    /// Compose from source node index and direction.
    pub fn new(node: usize, dir: Direction) -> Self {
        LinkId(node * 6 + dir.index())
    }

    /// Source node index.
    #[inline]
    pub fn node(self) -> usize {
        self.0 / 6
    }

    /// Direction out of the source node.
    #[inline]
    pub fn direction_index(self) -> usize {
        self.0 % 6
    }
}

/// A 3-D torus of the given dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus3D {
    /// Ring sizes along X, Y, Z.
    pub dims: Coord,
}

impl Torus3D {
    /// A torus with dimensions `[x, y, z]`. All dimensions must be ≥ 1.
    pub fn new(dims: Coord) -> Self {
        assert!(dims.iter().all(|&d| d >= 1), "torus dims must be >= 1: {dims:?}");
        Torus3D { dims }
    }

    /// Total node count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Total unidirectional link count (6 per node).
    pub fn links(&self) -> usize {
        self.nodes() * 6
    }

    /// Node index of a coordinate (X varies fastest).
    #[inline]
    pub fn index(&self, c: Coord) -> usize {
        debug_assert!(c[0] < self.dims[0] && c[1] < self.dims[1] && c[2] < self.dims[2]);
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Coordinate of a node index.
    #[inline]
    pub fn coord(&self, idx: usize) -> Coord {
        debug_assert!(idx < self.nodes());
        let x = idx % self.dims[0];
        let y = (idx / self.dims[0]) % self.dims[1];
        let z = idx / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Signed shortest offset from `a` to `b` along ring dimension `dim`:
    /// positive means the +direction is (weakly) shorter. A ring of even
    /// size has an ambiguous antipode; we choose +.
    #[inline]
    fn ring_offset(&self, a: usize, b: usize, dim: usize) -> isize {
        let n = self.dims[dim] as isize;
        let mut d = (b as isize - a as isize).rem_euclid(n); // 0..n
        if d > n / 2 || (n % 2 == 0 && d == n / 2) {
            // going − is strictly shorter, except exactly-half where we keep +
            if d != n / 2 {
                d -= n;
            }
        }
        d
    }

    /// Hop distance between two nodes (sum of per-dimension shortest ring
    /// distances).
    #[inline]
    pub fn hops(&self, a: Coord, b: Coord) -> usize {
        (0..3)
            .map(|d| {
                let n = self.dims[d];
                // forward ring distance without a division (both
                // coordinates are below n)
                let fwd = if b[d] >= a[d] { b[d] - a[d] } else { b[d] + n - a[d] };
                fwd.min(n - fwd)
            })
            .sum()
    }

    /// Average hop distance over all ordered node pairs — the analytic
    /// expectation `Σ_d avg_ring(n_d)`, where a ring of size n has mean
    /// shortest distance ≈ n/4.
    pub fn mean_hops(&self) -> f64 {
        self.dims
            .iter()
            .map(|&n| {
                let n = n as f64;
                // exact mean of min(k, n-k) over k=0..n-1:
                // floor(n/2)*ceil(n/2)/n
                if n <= 1.0 {
                    0.0
                } else {
                    ((n / 2.0).floor() * (n / 2.0).ceil()) / n
                }
            })
            .sum()
    }

    /// Compact dimension-ordered route from `a` to `b`: the three signed
    /// ring offsets, resolved with the same shorter-way/tie-positive rule
    /// as [`Torus3D::route`]. A stack value (`Copy`, no allocation);
    /// [`RouteSegs::links`] recovers the exact link sequence
    /// arithmetically.
    #[inline]
    pub fn route_segs(&self, a: Coord, b: Coord) -> RouteSegs {
        RouteSegs {
            start: a,
            offs: [
                self.ring_offset(a[0], b[0], 0) as i32,
                self.ring_offset(a[1], b[1], 1) as i32,
                self.ring_offset(a[2], b[2], 2) as i32,
            ],
        }
    }

    /// Dimension-ordered route from `a` to `b` as the sequence of
    /// unidirectional links traversed. Empty when `a == b`.
    ///
    /// Materializes one `LinkId` per hop; the contention hot path uses
    /// the allocation-free [`Torus3D::route_segs`] instead, and this
    /// remains as the independent oracle the property tests check the
    /// segment iterator against.
    pub fn route(&self, a: Coord, b: Coord) -> Vec<LinkId> {
        let mut links = Vec::with_capacity(self.hops(a, b));
        let mut cur = a;
        for dim in 0..3 {
            let off = self.ring_offset(cur[dim], b[dim], dim);
            let (dir, step): (Direction, isize) = match (dim, off >= 0) {
                (0, true) => (Direction::XPlus, 1),
                (0, false) => (Direction::XMinus, -1),
                (1, true) => (Direction::YPlus, 1),
                (1, false) => (Direction::YMinus, -1),
                (_, true) => (Direction::ZPlus, 1),
                (_, false) => (Direction::ZMinus, -1),
            };
            for _ in 0..off.unsigned_abs() {
                links.push(LinkId::new(self.index(cur), dir));
                let n = self.dims[dim] as isize;
                cur[dim] = ((cur[dim] as isize + step).rem_euclid(n)) as usize;
            }
        }
        debug_assert_eq!(cur, b, "route must terminate at destination");
        links
    }

    /// Number of unidirectional links crossing the bisection orthogonal to
    /// the longest dimension (the network's bandwidth choke point, which
    /// PTRANS and Alltoall stress).
    pub fn bisection_links(&self) -> usize {
        let longest = *self.dims.iter().max().unwrap();
        if longest <= 1 {
            // degenerate: no bisection; treat all links of a node as the cut
            return 6;
        }
        let cross_section: usize = self.nodes() / longest;
        // each ring crossing the cut contributes 2 links per direction
        // (wraparound), per cut plane, in one direction of traffic
        let wrap = if longest > 2 { 2 } else { 1 };
        cross_section * wrap
    }
}

/// Link-health oracle consulted by fault-aware routing. Implemented by
/// the fault-injection layer (`hpcsim-faults`); the all-healthy default
/// makes every fault-aware path collapse to the pristine one.
pub trait LinkHealth {
    /// True when `link` is down and must not carry traffic.
    fn is_dead(&self, link: LinkId) -> bool;

    /// Bandwidth derating for `link` in `(0, 1]` (1.0 = full speed).
    /// Only meaningful for live links.
    fn bw_factor(&self, link: LinkId) -> f64;
}

/// The trivial [`LinkHealth`]: every link up at full bandwidth.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllHealthy;

impl LinkHealth for AllHealthy {
    #[inline]
    fn is_dead(&self, _link: LinkId) -> bool {
        false
    }

    #[inline]
    fn bw_factor(&self, _link: LinkId) -> f64 {
        1.0
    }
}

/// A fault-aware route: one or two [`RouteSegs`] legs chained end to
/// end. One leg is the common case (the direct dimension-ordered route,
/// or a ring-direction flip around a dead link); two legs appear when
/// the route must dog-leg through an intermediate waypoint. Like
/// `RouteSegs` it is a fixed-size `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetourSegs {
    legs: [RouteSegs; 2],
    n: u8,
}

impl DetourSegs {
    fn single(leg: RouteSegs) -> Self {
        DetourSegs { legs: [leg, leg], n: 1 }
    }

    fn pair(a: RouteSegs, b: RouteSegs) -> Self {
        DetourSegs { legs: [a, b], n: 2 }
    }

    /// The route legs in traversal order.
    pub fn legs(&self) -> &[RouteSegs] {
        &self.legs[..self.n as usize]
    }

    /// Total hop count over all legs.
    pub fn hops(&self) -> usize {
        self.legs().iter().map(|l| l.hops()).sum()
    }

    /// True when this is the plain direct route (a single leg).
    pub fn is_direct(&self) -> bool {
        self.n == 1
    }

    /// Iterate every traversed link, leg by leg.
    pub fn links<'a>(&self, torus: &'a Torus3D) -> impl Iterator<Item = LinkId> + 'a {
        let legs: Vec<RouteSegs> = self.legs().to_vec();
        legs.into_iter().flat_map(move |l| l.links(torus))
    }

    /// Smallest bandwidth derating over the route's links (1.0 when the
    /// route is empty).
    pub fn min_bw_factor<H: LinkHealth>(&self, torus: &Torus3D, health: &H) -> f64 {
        let mut f = 1.0f64;
        for leg in self.legs() {
            for l in leg.links(torus) {
                f = f.min(health.bw_factor(l));
            }
        }
        f
    }
}

impl Torus3D {
    fn segs_clean<H: LinkHealth>(&self, segs: RouteSegs, health: &H) -> bool {
        segs.links(self).all(|l| !health.is_dead(l))
    }

    /// Dimension-ordered route from `a` to `b` that avoids dead links,
    /// or `None` when every candidate detour is blocked.
    ///
    /// The search is deterministic and bounded:
    ///
    /// 1. the direct route (identical to [`Torus3D::route_segs`]) if
    ///    clean — so on a fault-free torus this function *is* the legacy
    ///    router, which the property tests pin;
    /// 2. ring-direction flips: each nonzero dimension may go the long
    ///    way around its ring (≤ 8 sign combinations, in a fixed order);
    /// 3. single-waypoint dog-legs through each of the source's six
    ///    neighbours (two legs, each leg checked clean).
    pub fn route_segs_avoiding<H: LinkHealth>(
        &self,
        a: Coord,
        b: Coord,
        health: &H,
    ) -> Option<DetourSegs> {
        let direct = self.route_segs(a, b);
        if self.segs_clean(direct, health) {
            return Some(DetourSegs::single(direct));
        }
        // Ring-direction flips: offs[d] -> offs[d] - sign * n goes the
        // other way around ring d. mask bit d set = flip dimension d.
        for mask in 1u8..8 {
            let mut offs = direct.offs;
            let mut valid = true;
            for (d, off) in offs.iter_mut().enumerate() {
                if mask & (1 << d) == 0 {
                    continue;
                }
                let n = self.dims[d] as i32;
                if *off == 0 || n < 2 {
                    valid = false; // nothing to flip in this dimension
                    break;
                }
                *off -= off.signum() * n;
            }
            if !valid {
                continue;
            }
            let cand = RouteSegs { start: a, offs };
            if self.segs_clean(cand, health) {
                return Some(DetourSegs::single(cand));
            }
        }
        // Dog-leg through each neighbour of the source, in direction
        // order (deterministic).
        for dir_idx in 0..6usize {
            let dim = dir_idx / 2;
            let step: isize = if dir_idx % 2 == 0 { 1 } else { -1 };
            let n = self.dims[dim] as isize;
            if n < 2 {
                continue;
            }
            let mut w = a;
            w[dim] = ((a[dim] as isize + step).rem_euclid(n)) as usize;
            if w == a || w == b {
                continue;
            }
            let leg1 = self.route_segs(a, w);
            let leg2 = self.route_segs(w, b);
            if self.segs_clean(leg1, health) && self.segs_clean(leg2, health) {
                return Some(DetourSegs::pair(leg1, leg2));
            }
        }
        None
    }
}

/// A dimension-ordered torus route in compact form: the origin plus one
/// signed ring offset per dimension — at most three ring segments, never
/// more state than four words. Unlike [`Torus3D::route`], which
/// materializes a `Vec` with one entry per hop, this is a fixed-size
/// `Copy` value; the links it traverses are recovered arithmetically by
/// [`RouteSegs::links`], in exactly the order `route()` would list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteSegs {
    /// Route origin.
    pub start: Coord,
    /// Signed shortest ring offset per dimension (positive = the
    /// +direction, with even-ring antipode ties broken positive).
    pub offs: [i32; 3],
}

impl RouteSegs {
    /// Total hop count (equals `Torus3D::hops` of the endpoints).
    #[inline]
    pub fn hops(&self) -> usize {
        self.offs.iter().map(|o| o.unsigned_abs() as usize).sum()
    }

    /// True for a self-route (no links).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offs == [0, 0, 0]
    }

    /// Iterate the traversed links without materializing them. Yields
    /// exactly the sequence `Torus3D::route` would return for the same
    /// endpoints, advancing node indices incrementally (one add and a
    /// wrap test per hop).
    #[inline]
    pub fn links(self, torus: &Torus3D) -> SegLinks {
        SegLinks {
            dims: torus.dims,
            cur: self.start,
            node: torus.index(self.start),
            offs: self.offs,
            dim: 0,
        }
    }
}

/// Iterator over the links of a [`RouteSegs`]; see [`RouteSegs::links`].
#[derive(Debug, Clone)]
pub struct SegLinks {
    dims: Coord,
    cur: Coord,
    node: usize,
    offs: [i32; 3],
    dim: usize,
}

impl Iterator for SegLinks {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        while self.dim < 3 && self.offs[self.dim] == 0 {
            self.dim += 1;
        }
        if self.dim >= 3 {
            return None;
        }
        let d = self.dim;
        let positive = self.offs[d] > 0;
        // direction index: 2*dim, +1 for the minus direction
        let dir = 2 * d + usize::from(!positive);
        let link = LinkId(self.node * 6 + dir);
        let n = self.dims[d];
        let stride = match d {
            0 => 1,
            1 => self.dims[0],
            _ => self.dims[0] * self.dims[1],
        };
        if positive {
            self.offs[d] -= 1;
            if self.cur[d] == n - 1 {
                self.cur[d] = 0;
                self.node -= stride * (n - 1);
            } else {
                self.cur[d] += 1;
                self.node += stride;
            }
        } else {
            self.offs[d] += 1;
            if self.cur[d] == 0 {
                self.cur[d] = n - 1;
                self.node += stride * (n - 1);
            } else {
                self.cur[d] -= 1;
                self.node -= stride;
            }
        }
        Some(link)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left: usize = self.offs.iter().map(|o| o.unsigned_abs() as usize).sum();
        (left, Some(left))
    }
}

impl ExactSizeIterator for SegLinks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coord_roundtrip() {
        let t = Torus3D::new([8, 16, 32]);
        for idx in [0, 1, 7, 8, 127, 128, 4095, t.nodes() - 1] {
            assert_eq!(t.index(t.coord(idx)), idx);
        }
    }

    #[test]
    fn hops_wraps_around() {
        let t = Torus3D::new([8, 8, 8]);
        assert_eq!(t.hops([0, 0, 0], [7, 0, 0]), 1); // wraparound
        assert_eq!(t.hops([0, 0, 0], [4, 0, 0]), 4); // antipode
        assert_eq!(t.hops([0, 0, 0], [3, 3, 3]), 9);
        assert_eq!(t.hops([5, 5, 5], [5, 5, 5]), 0);
    }

    #[test]
    fn route_length_equals_hops() {
        let t = Torus3D::new([4, 6, 8]);
        let pairs = [([0, 0, 0], [3, 5, 7]), ([1, 2, 3], [1, 2, 3]), ([0, 0, 0], [2, 3, 4])];
        for (a, b) in pairs {
            assert_eq!(t.route(a, b).len(), t.hops(a, b), "{a:?}->{b:?}");
        }
    }

    #[test]
    fn route_is_dimension_ordered() {
        let t = Torus3D::new([8, 8, 8]);
        let route = t.route([0, 0, 0], [2, 2, 0]);
        let dims: Vec<usize> =
            route.iter().map(|l| Direction::XPlus.dim().min(l.direction_index() / 2)).collect();
        // first two hops along X (dim 0), then two along Y (dim 1)
        let d: Vec<usize> = route.iter().map(|l| l.direction_index() / 2).collect();
        assert_eq!(d, vec![0, 0, 1, 1]);
        let _ = dims;
    }

    #[test]
    fn route_takes_short_way_around() {
        let t = Torus3D::new([8, 8, 8]);
        let route = t.route([0, 0, 0], [7, 0, 0]);
        assert_eq!(route.len(), 1);
        assert_eq!(route[0].direction_index(), Direction::XMinus.index());
    }

    #[test]
    fn antipode_tie_breaks_positive() {
        let t = Torus3D::new([8, 1, 1]);
        let route = t.route([0, 0, 0], [4, 0, 0]);
        assert_eq!(route.len(), 4);
        assert!(route.iter().all(|l| l.direction_index() == Direction::XPlus.index()));
    }

    #[test]
    fn route_endpoints_chain() {
        // each link's source node must be the previous link's destination
        let t = Torus3D::new([5, 7, 3]);
        let a = [4, 6, 2];
        let b = [1, 0, 1];
        let route = t.route(a, b);
        let mut prev = t.index(a);
        for l in &route {
            assert_eq!(l.node(), prev, "chain break");
            // advance prev along l
            let c = t.coord(prev);
            let dim = l.direction_index() / 2;
            let n = t.dims[dim] as isize;
            let step = if l.direction_index() % 2 == 0 { 1 } else { -1 };
            let mut c2 = c;
            c2[dim] = ((c[dim] as isize + step).rem_euclid(n)) as usize;
            prev = t.index(c2);
        }
        assert_eq!(prev, t.index(b));
    }

    #[test]
    fn link_id_roundtrip() {
        let l = LinkId::new(123, Direction::ZMinus);
        assert_eq!(l.node(), 123);
        assert_eq!(l.direction_index(), 5);
    }

    #[test]
    fn mean_hops_closed_form() {
        // ring of 8: mean shortest distance = floor(4)*ceil(4)/8 = 2
        let t = Torus3D::new([8, 8, 8]);
        assert!((t.mean_hops() - 6.0).abs() < 1e-12);
        // brute-force check on a small torus
        let t = Torus3D::new([4, 3, 2]);
        let mut sum = 0usize;
        let n = t.nodes();
        for i in 0..n {
            for j in 0..n {
                sum += t.hops(t.coord(i), t.coord(j));
            }
        }
        let brute = sum as f64 / (n * n) as f64;
        assert!((t.mean_hops() - brute).abs() < 1e-9, "model {} vs brute {brute}", t.mean_hops());
    }

    #[test]
    fn bisection_links_cube() {
        // 8x8x8: cut orthogonal to X: 64 node columns, wraparound -> 128
        let t = Torus3D::new([8, 8, 8]);
        assert_eq!(t.bisection_links(), 128);
    }

    #[test]
    #[should_panic(expected = "dims must be")]
    fn zero_dim_rejected() {
        let _ = Torus3D::new([0, 4, 4]);
    }

    #[test]
    fn route_segs_matches_route_exhaustively() {
        // Even rings (antipode ties), odd rings, and a size-1 ring, over
        // every ordered node pair.
        for dims in [[4, 3, 1], [2, 2, 2], [5, 4, 3]] {
            let t = Torus3D::new(dims);
            for a in 0..t.nodes() {
                for b in 0..t.nodes() {
                    let (ca, cb) = (t.coord(a), t.coord(b));
                    let segs = t.route_segs(ca, cb);
                    assert_eq!(segs.hops(), t.hops(ca, cb), "{ca:?}->{cb:?}");
                    let iterated: Vec<LinkId> = segs.links(&t).collect();
                    assert_eq!(iterated, t.route(ca, cb), "{ca:?}->{cb:?} in {dims:?}");
                }
            }
        }
    }

    #[test]
    fn route_segs_is_stack_value() {
        let t = Torus3D::new([8, 8, 8]);
        let segs = t.route_segs([0, 0, 0], [4, 7, 1]);
        let copy = segs; // Copy, no move
        assert_eq!(segs, copy);
        assert_eq!(segs.offs, [4, -1, 1]);
        assert!(!segs.is_empty());
        assert!(t.route_segs([1, 2, 3], [1, 2, 3]).is_empty());
    }

    /// Deterministic link-health stub for detour tests.
    struct DeadSet(Vec<LinkId>);

    impl LinkHealth for DeadSet {
        fn is_dead(&self, link: LinkId) -> bool {
            self.0.contains(&link)
        }

        fn bw_factor(&self, _link: LinkId) -> f64 {
            1.0
        }
    }

    #[test]
    fn detour_on_healthy_torus_is_the_direct_route() {
        for dims in [[4, 3, 1], [2, 2, 2], [5, 4, 3]] {
            let t = Torus3D::new(dims);
            for a in 0..t.nodes() {
                for b in 0..t.nodes() {
                    let (ca, cb) = (t.coord(a), t.coord(b));
                    let d = t.route_segs_avoiding(ca, cb, &AllHealthy).expect("healthy route");
                    assert!(d.is_direct(), "{ca:?}->{cb:?}");
                    assert_eq!(d.legs()[0], t.route_segs(ca, cb));
                    assert_eq!(d.hops(), t.hops(ca, cb));
                }
            }
        }
    }

    #[test]
    fn detour_avoids_a_dead_link() {
        let t = Torus3D::new([4, 4, 4]);
        let a = [0, 0, 0];
        let b = [2, 0, 0];
        // kill the first link of the direct route
        let dead = DeadSet(t.route(a, b)[..1].to_vec());
        let d = t.route_segs_avoiding(a, b, &dead).expect("detour must exist");
        for l in d.links(&t) {
            assert!(!dead.is_dead(l), "detour uses dead link {l:?}");
        }
        // detours are longer than (or equal to) the shortest path
        assert!(d.hops() >= t.hops(a, b));
        // the route still chains from a to b: check endpoint of last leg
        let last = d.legs().last().unwrap();
        let mut end = last.start;
        for (dim, off) in last.offs.iter().enumerate() {
            end[dim] = (end[dim] as i32 + off).rem_euclid(t.dims[dim] as i32) as usize;
        }
        assert_eq!(end, b);
    }

    #[test]
    fn detour_falls_back_to_dog_leg() {
        let t = Torus3D::new([4, 4, 1]);
        let a = [0, 0, 0];
        let b = [2, 0, 0];
        // kill both X directions out of the source so every ring-flip
        // candidate in X is blocked; the route must leave through Y
        let dead = DeadSet(vec![
            LinkId::new(t.index(a), Direction::XPlus),
            LinkId::new(t.index(a), Direction::XMinus),
        ]);
        let d = t.route_segs_avoiding(a, b, &dead).expect("dog-leg must exist");
        assert!(!d.is_direct());
        for l in d.links(&t) {
            assert!(!dead.is_dead(l));
        }
    }

    #[test]
    fn fully_blocked_source_has_no_route() {
        let t = Torus3D::new([3, 3, 3]);
        let a = [0, 0, 0];
        let dead = DeadSet((0..6).map(|dir| LinkId(t.index(a) * 6 + dir)).collect());
        assert!(t.route_segs_avoiding(a, [1, 1, 1], &dead).is_none());
    }

    #[test]
    fn min_bw_factor_takes_the_worst_link() {
        struct Slow(LinkId);
        impl LinkHealth for Slow {
            fn is_dead(&self, _l: LinkId) -> bool {
                false
            }
            fn bw_factor(&self, l: LinkId) -> f64 {
                if l == self.0 {
                    0.25
                } else {
                    1.0
                }
            }
        }
        let t = Torus3D::new([4, 4, 4]);
        let a = [0, 0, 0];
        let b = [2, 0, 0];
        let slow = Slow(t.route(a, b)[1]);
        let d = t.route_segs_avoiding(a, b, &slow).unwrap();
        assert!((d.min_bw_factor(&t, &slow) - 0.25).abs() < 1e-12);
        assert!((d.min_bw_factor(&t, &AllHealthy) - 1.0).abs() < 1e-12);
    }
}
