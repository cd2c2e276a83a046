//! Seeded machine-parameter perturbations for Monte-Carlo sensitivity
//! sweeps.
//!
//! A sensitivity battery asks: how much does a predicted runtime move
//! when one machine parameter group wiggles around its Table-1 value?
//! Rather than materialising thousands of perturbed [`MachineSpec`]s
//! (each of which would force the DAG evaluator to rebuild its cached
//! cost tables), a [`Perturbation`] is a tiny set of multiplicative
//! factors — one per *parameter group* — that the evaluator applies as
//! a delta on top of its already-priced base tables. The groups mirror
//! the structure-of-arrays cost split in `hpcsim-mpi`'s DAG engine:
//!
//! * [`ParamGroups::LINK_BW`] — torus link / injection bandwidth
//!   (scales per-byte serialization; factor > 1 means *more* bandwidth,
//!   so less time);
//! * [`ParamGroups::HOP_LAT`] — per-hop router latency (scales the
//!   route-geometry term of every off-node message and rendezvous
//!   handshake);
//! * [`ParamGroups::COMPUTE`] — compute/OS-noise (scales resolved
//!   compute and delay durations; one-sided by default, noise only ever
//!   slows a node down);
//! * [`ParamGroups::COLLECTIVE`] — collective cost model (scales every
//!   collective duration).
//!
//! Sampling is deterministic and *splittable*: sample `i` draws from a
//! sub-RNG derived as `DetRng::new(seed, i)` (the engine's splitmix64
//! stream splitter), so a battery produces the same sample set no
//! matter how its index range is chunked across worker threads — the
//! property the `--jobs`-invariance tests pin.

use crate::arch::MachineSpec;
use hpcsim_engine::DetRng;

/// Bitmask of machine parameter groups a perturbation touches. The DAG
/// evaluator re-prices exactly the cost arrays whose group bit is set
/// and reuses its base tables for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParamGroups(pub u8);

impl ParamGroups {
    /// No groups: the identity perturbation.
    pub const NONE: ParamGroups = ParamGroups(0);
    /// Link/injection bandwidth (per-byte serialization).
    pub const LINK_BW: ParamGroups = ParamGroups(1 << 0);
    /// Per-hop router latency (route geometry term).
    pub const HOP_LAT: ParamGroups = ParamGroups(1 << 1);
    /// Compute / OS noise (compute and delay durations).
    pub const COMPUTE: ParamGroups = ParamGroups(1 << 2);
    /// Collective cost model.
    pub const COLLECTIVE: ParamGroups = ParamGroups(1 << 3);
    /// Every group.
    pub const ALL: ParamGroups = ParamGroups(0b1111);

    /// Number of distinct parameter groups.
    pub const COUNT: u32 = 4;

    /// True when every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: ParamGroups) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when `self` and `other` share any bit.
    #[inline]
    pub fn intersects(self, other: ParamGroups) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of groups set.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Short label for reports (`bw`, `lat`, `compute`, `coll`,
    /// combinations joined with `+`, `none` when empty).
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        if self.contains(Self::LINK_BW) {
            parts.push("bw");
        }
        if self.contains(Self::HOP_LAT) {
            parts.push("lat");
        }
        if self.contains(Self::COMPUTE) {
            parts.push("compute");
        }
        if self.contains(Self::COLLECTIVE) {
            parts.push("coll");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl std::ops::BitOr for ParamGroups {
    type Output = ParamGroups;
    fn bitor(self, rhs: ParamGroups) -> ParamGroups {
        ParamGroups(self.0 | rhs.0)
    }
}

/// One Monte-Carlo sample: a multiplicative factor per parameter group.
/// A factor of exactly `1.0` means "untouched" — [`Perturbation::groups`]
/// leaves that group's bit clear, and the evaluator reuses its base
/// cost array bit-for-bit (an identity perturbation therefore
/// reproduces the unperturbed engine exactly, which the property tests
/// pin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Link-bandwidth factor: serialization time is divided by this.
    pub bw_scale: f64,
    /// Per-hop latency factor: route latency is multiplied by this.
    pub hop_scale: f64,
    /// Compute factor: compute/delay durations are multiplied by this.
    pub compute_scale: f64,
    /// Collective factor: collective durations are multiplied by this.
    pub coll_scale: f64,
}

impl Perturbation {
    /// The identity: every factor 1.0, no groups touched.
    pub const IDENTITY: Perturbation =
        Perturbation { bw_scale: 1.0, hop_scale: 1.0, compute_scale: 1.0, coll_scale: 1.0 };

    /// The parameter groups this sample actually moves (factor ≠ 1.0).
    #[inline]
    pub fn groups(&self) -> ParamGroups {
        let mut g = ParamGroups::NONE;
        if self.bw_scale != 1.0 {
            g = g | ParamGroups::LINK_BW;
        }
        if self.hop_scale != 1.0 {
            g = g | ParamGroups::HOP_LAT;
        }
        if self.compute_scale != 1.0 {
            g = g | ParamGroups::COMPUTE;
        }
        if self.coll_scale != 1.0 {
            g = g | ParamGroups::COLLECTIVE;
        }
        g
    }

    /// True when no group is touched.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.groups() == ParamGroups::NONE
    }

    /// Materialise the perturbed machine: a copy of `base` with this
    /// sample's factors folded into the Table-1 parameters — link and
    /// injection bandwidth scaled up by `bw_scale`, per-hop router
    /// latency by `hop_scale`, core clock and per-core memory bandwidth
    /// divided by `compute_scale` (noise slows the whole node), and
    /// tree bandwidth divided by `coll_scale`.
    ///
    /// This is the *rebuild* form of a sample: evaluating it forces
    /// every cached cost table to be re-derived from the new spec. The
    /// DAG engine's delta re-pricing path applies the same factors
    /// directly to its structure-of-arrays base tables instead — that
    /// is the per-sample work this method exists to compare against
    /// (and what a caller without batched support would run).
    pub fn apply_to(&self, base: &MachineSpec) -> MachineSpec {
        let mut m = base.clone();
        m.nic.torus_link_bw *= self.bw_scale;
        m.nic.injection_bw *= self.bw_scale;
        m.nic.per_hop = m.nic.per_hop.scale(self.hop_scale);
        m.core.clock_hz /= self.compute_scale;
        m.core.mem_bw_core /= self.compute_scale;
        if let Some(bw) = m.nic.tree_bw.as_mut() {
            *bw /= self.coll_scale;
        }
        m
    }
}

impl Default for Perturbation {
    fn default() -> Self {
        Perturbation::IDENTITY
    }
}

/// Relative half-widths of the sampling distributions, per group.
/// Bandwidth, hop latency and collectives draw uniformly from
/// `[1 - frac, 1 + frac]` (symmetric manufacturing/measurement
/// uncertainty); compute noise draws from `[1, 1 + frac]` (OS noise
/// only ever slows a node down, per the BlueGene CNK-vs-Linux noise
/// story the paper leans on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbSpec {
    /// Link-bandwidth half-width (symmetric).
    pub bw_frac: f64,
    /// Per-hop latency half-width (symmetric).
    pub hop_frac: f64,
    /// Compute-noise width (one-sided slowdown).
    pub compute_frac: f64,
    /// Collective half-width (symmetric).
    pub coll_frac: f64,
}

impl Default for PerturbSpec {
    /// Defaults sized to the measurement spreads the paper's
    /// microbenchmarks show: ±10% link bandwidth, ±20% per-hop latency,
    /// up to +5% OS noise, ±15% collective cost.
    fn default() -> Self {
        PerturbSpec { bw_frac: 0.10, hop_frac: 0.20, compute_frac: 0.05, coll_frac: 0.15 }
    }
}

/// Deterministic perturbation sampler: sample `i` is a pure function of
/// `(seed, i)` via the engine's splittable RNG, independent of draw
/// order and of how the index range is chunked across threads.
#[derive(Debug, Clone)]
pub struct PerturbationSampler {
    seed: u64,
    spec: PerturbSpec,
    groups: ParamGroups,
}

impl PerturbationSampler {
    /// Sampler perturbing every group around the base machine.
    pub fn new(seed: u64, spec: PerturbSpec) -> Self {
        PerturbationSampler { seed, spec, groups: ParamGroups::ALL }
    }

    /// Restrict sampling to `groups` (one-at-a-time sensitivity rows);
    /// unselected groups stay at exactly 1.0.
    pub fn only(mut self, groups: ParamGroups) -> Self {
        self.groups = groups;
        self
    }

    /// The groups this sampler perturbs.
    pub fn groups(&self) -> ParamGroups {
        self.groups
    }

    /// Draw sample `index`. Every sampler with the same `(seed, spec,
    /// groups)` returns the same perturbation for the same index. Draws
    /// for all four groups are consumed unconditionally so the same
    /// index yields the same underlying randomness regardless of the
    /// group restriction.
    pub fn sample(&self, index: u64) -> Perturbation {
        let mut rng = DetRng::new(self.seed, index);
        let sym = |u: f64, frac: f64| 1.0 + frac * (2.0 * u - 1.0);
        let (ub, uh, uc, ul) = (rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64());
        let pick = |on: bool, v: f64| if on { v } else { 1.0 };
        Perturbation {
            bw_scale: pick(
                self.groups.contains(ParamGroups::LINK_BW),
                sym(ub, self.spec.bw_frac).max(1e-3),
            ),
            hop_scale: pick(
                self.groups.contains(ParamGroups::HOP_LAT),
                sym(uh, self.spec.hop_frac).max(0.0),
            ),
            compute_scale: pick(
                self.groups.contains(ParamGroups::COMPUTE),
                1.0 + self.spec.compute_frac * uc,
            ),
            coll_scale: pick(
                self.groups.contains(ParamGroups::COLLECTIVE),
                sym(ul, self.spec.coll_frac).max(0.0),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_touches_no_groups() {
        assert!(Perturbation::IDENTITY.is_identity());
        assert_eq!(Perturbation::IDENTITY.groups(), ParamGroups::NONE);
        assert_eq!(Perturbation::default(), Perturbation::IDENTITY);
    }

    #[test]
    fn groups_track_factors() {
        let p = Perturbation { bw_scale: 0.9, ..Perturbation::IDENTITY };
        assert_eq!(p.groups(), ParamGroups::LINK_BW);
        let p = Perturbation { hop_scale: 1.2, coll_scale: 0.8, ..Perturbation::IDENTITY };
        assert!(p.groups().contains(ParamGroups::HOP_LAT));
        assert!(p.groups().contains(ParamGroups::COLLECTIVE));
        assert!(!p.groups().intersects(ParamGroups::LINK_BW | ParamGroups::COMPUTE));
        assert_eq!(p.groups().count(), 2);
    }

    #[test]
    fn labels_render() {
        assert_eq!(ParamGroups::NONE.label(), "none");
        assert_eq!(ParamGroups::LINK_BW.label(), "bw");
        assert_eq!((ParamGroups::HOP_LAT | ParamGroups::COLLECTIVE).label(), "lat+coll");
        assert_eq!(ParamGroups::ALL.label(), "bw+lat+compute+coll");
    }

    #[test]
    fn apply_to_materialises_the_factors() {
        let base = crate::registry::bluegene_p();
        let p =
            Perturbation { bw_scale: 2.0, hop_scale: 0.5, compute_scale: 1.25, coll_scale: 2.0 };
        let m = p.apply_to(&base);
        assert_eq!(m.nic.torus_link_bw, base.nic.torus_link_bw * 2.0);
        assert_eq!(m.nic.injection_bw, base.nic.injection_bw * 2.0);
        assert_eq!(m.nic.per_hop, base.nic.per_hop.scale(0.5));
        assert_eq!(m.core.clock_hz, base.core.clock_hz / 1.25);
        assert_eq!(m.core.mem_bw_core, base.core.mem_bw_core / 1.25);
        assert_eq!(m.nic.tree_bw.unwrap(), base.nic.tree_bw.unwrap() / 2.0);
        // the identity sample materialises the base spec unchanged
        assert_eq!(Perturbation::IDENTITY.apply_to(&base), base);
    }

    #[test]
    fn sampling_is_deterministic_and_order_free() {
        let s = PerturbationSampler::new(42, PerturbSpec::default());
        let a: Vec<Perturbation> = (0..16).map(|i| s.sample(i)).collect();
        let b: Vec<Perturbation> = (0..16).rev().map(|i| s.sample(i)).collect();
        for (i, p) in a.iter().enumerate() {
            assert_eq!(*p, b[15 - i], "sample {i} must not depend on draw order");
        }
        // a fresh sampler with the same seed agrees exactly
        let s2 = PerturbationSampler::new(42, PerturbSpec::default());
        assert_eq!(s.sample(7), s2.sample(7));
        // different seeds diverge
        let s3 = PerturbationSampler::new(43, PerturbSpec::default());
        assert_ne!(s.sample(7), s3.sample(7));
    }

    #[test]
    fn samples_respect_spec_ranges() {
        let spec = PerturbSpec::default();
        let s = PerturbationSampler::new(7, spec);
        for i in 0..256 {
            let p = s.sample(i);
            assert!((1.0 - p.bw_scale).abs() <= spec.bw_frac + 1e-12);
            assert!((1.0 - p.hop_scale).abs() <= spec.hop_frac + 1e-12);
            assert!(p.compute_scale >= 1.0 && p.compute_scale <= 1.0 + spec.compute_frac + 1e-12);
            assert!((1.0 - p.coll_scale).abs() <= spec.coll_frac + 1e-12);
        }
    }

    #[test]
    fn group_restriction_pins_other_factors() {
        let s = PerturbationSampler::new(9, PerturbSpec::default()).only(ParamGroups::HOP_LAT);
        for i in 0..64 {
            let p = s.sample(i);
            assert_eq!(p.bw_scale, 1.0);
            assert_eq!(p.compute_scale, 1.0);
            assert_eq!(p.coll_scale, 1.0);
            assert_eq!(p.groups(), ParamGroups::HOP_LAT, "hop draw landed on exactly 1.0?");
        }
        // the restricted sampler's hop draw matches the unrestricted one
        let all = PerturbationSampler::new(9, PerturbSpec::default());
        for i in 0..64 {
            assert_eq!(s.sample(i).hop_scale, all.sample(i).hop_scale);
        }
    }
}
