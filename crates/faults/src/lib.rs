//! # hpcsim-faults
//!
//! Deterministic fault injection for the BG/P reproduction study.
//!
//! A [`FaultPlan`] is derived from a single `u64` seed through the
//! engine's splittable RNG streams, so the same seed produces the same
//! faults regardless of `--jobs` count or scenario execution order. A
//! plan can contribute three ingredients, gated by [`FaultProfile`]:
//!
//! * [`LinkFaults`] — a per-link health map (dead links the router must
//!   detour around, degraded links whose bandwidth is derated). It
//!   implements `hpcsim_topo::LinkHealth` so the fault-aware router and
//!   the contention engine consume it directly.
//! * [`NoiseModel`] — multiplicative OS-noise jitter applied to compute
//!   spans, with the BG/P-vs-XT4 asymmetry the paper leans on: CNK is a
//!   near-silent microkernel while the XT4's Linux kernel interrupts
//!   computation orders of magnitude more.
//! * [`LossModel`] — per-message loss bursts that force bounded
//!   retransmits in the p2p model; a burst longer than the retransmit
//!   budget becomes a diagnosed stall instead of a wedged event queue.
//!
//! Noise and loss draws are *stateless* hashes of `(rank, step)` /
//! `(rank, seq)` — no shared RNG is advanced at simulation time, so the
//! schedule is identical under any thread interleaving.

use hpcsim_engine::rng::{split_seed, splitmix64, DetRng};
use hpcsim_topo::{LinkHealth, LinkId};

/// Which ingredients of the plan are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Link outage + bandwidth degradation only.
    Link,
    /// OS-noise compute jitter only.
    Noise,
    /// Message loss / retransmit only.
    Loss,
    /// All three at once.
    Mixed,
}

impl FaultProfile {
    /// All profiles, in CLI/report order.
    pub fn all() -> [FaultProfile; 4] {
        [FaultProfile::Link, FaultProfile::Noise, FaultProfile::Loss, FaultProfile::Mixed]
    }

    /// Stable lowercase name used by `--fault-profile` and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultProfile::Link => "link",
            FaultProfile::Noise => "noise",
            FaultProfile::Loss => "loss",
            FaultProfile::Mixed => "mixed",
        }
    }

    /// Parse a CLI spelling. Returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<FaultProfile> {
        FaultProfile::all().into_iter().find(|p| p.label() == s)
    }

    /// One step up the severity ladder: every single-ingredient profile
    /// escalates to [`FaultProfile::Mixed`], which is already the top.
    pub fn escalated(&self) -> FaultProfile {
        FaultProfile::Mixed
    }
}

// Sub-stream indices; fixed so the schedule never shifts when one
// ingredient is disabled by the profile.
const STREAM_LINK: u64 = 0x11;
const STREAM_NOISE: u64 = 0x22;
const STREAM_LOSS: u64 = 0x33;

/// OS-noise amplitude for BG/P's compute-node kernel (near-silent).
pub const BGP_NOISE_AMP: f64 = 0.008;
/// OS-noise amplitude for the XT4's full Linux kernel.
pub const XT4_NOISE_AMP: f64 = 0.08;

/// A seeded, deterministic fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

impl FaultPlan {
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan { seed, profile }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// Link health map for a torus with `links` links, or `None` when the
    /// profile has no link faults. Small tori are guaranteed at least one
    /// dead and one degraded link so faults stay observable in tests.
    pub fn link_faults(&self, links: usize) -> Option<LinkFaults> {
        match self.profile {
            FaultProfile::Link | FaultProfile::Mixed => LinkFaults::build(self.seed, links),
            _ => None,
        }
    }

    /// Compute-jitter model, or `None` when the profile has no noise.
    /// `bluegene` selects the CNK amplitude instead of the XT4 one.
    pub fn noise(&self, bluegene: bool) -> Option<NoiseModel> {
        match self.profile {
            FaultProfile::Noise | FaultProfile::Mixed => Some(NoiseModel {
                seed: split_seed(self.seed, STREAM_NOISE),
                amplitude: if bluegene { BGP_NOISE_AMP } else { XT4_NOISE_AMP },
            }),
            _ => None,
        }
    }

    /// The same schedule shape under a different seed.
    pub fn with_seed(&self, seed: u64) -> FaultPlan {
        FaultPlan { seed, profile: self.profile }
    }

    /// The same seed under a different profile.
    pub fn with_profile(&self, profile: FaultProfile) -> FaultPlan {
        FaultPlan { seed: self.seed, profile }
    }

    /// Escalate the profile one severity step (see
    /// [`FaultProfile::escalated`]); the seed is kept so the surviving
    /// ingredients draw the same faults they did before escalation.
    pub fn escalated(&self) -> FaultPlan {
        self.with_profile(self.profile.escalated())
    }

    /// Deterministic structure-aware mutation for fuzzing: `stream`
    /// selects (via a stateless hash) whether to reseed, rotate the
    /// profile, or escalate. The same `(plan, stream)` always yields the
    /// same mutant, so a fuzz corpus entry replays identically from its
    /// `(seed, iteration)` coordinates alone.
    pub fn mutated(&self, stream: u64) -> FaultPlan {
        let h = splitmix64(self.seed ^ splitmix64(stream));
        match h % 3 {
            0 => self.with_seed(split_seed(self.seed, stream)),
            1 => {
                let all = FaultProfile::all();
                let cur = all.iter().position(|p| *p == self.profile).unwrap_or(0);
                self.with_profile(all[(cur + 1 + (h / 3) as usize % (all.len() - 1)) % all.len()])
            }
            _ => self.escalated(),
        }
    }

    /// Message-loss model, or `None` when the profile has no loss.
    pub fn loss(&self) -> Option<LossModel> {
        match self.profile {
            FaultProfile::Loss | FaultProfile::Mixed => {
                Some(LossModel { seed: split_seed(self.seed, STREAM_LOSS), p: 0.02, max_burst: 4 })
            }
            _ => None,
        }
    }
}

/// Per-link health: a handful of dead links plus a slightly larger set of
/// bandwidth-degraded ones, drawn once per plan from a dedicated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Bandwidth factor per link: 1.0 healthy, in (0,1) degraded, 0.0 dead.
    factor: Vec<f64>,
}

impl LinkFaults {
    fn build(seed: u64, links: usize) -> Option<LinkFaults> {
        if links == 0 {
            return None;
        }
        let mut rng = DetRng::new(seed, STREAM_LINK);
        let mut factor = vec![1.0f64; links];
        // ~0.4% outage, ~2% degradation, floored at one each so the fault
        // path is exercised even on the tiny tori the tests use.
        let n_dead = (links / 256).max(1).min(links);
        let n_degraded = (links / 50).max(1).min(links.saturating_sub(n_dead));
        let mut placed = 0;
        while placed < n_dead {
            let l = rng.next_below(links as u64) as usize;
            if factor[l] == 1.0 {
                factor[l] = 0.0;
                placed += 1;
            }
        }
        placed = 0;
        while placed < n_degraded {
            let l = rng.next_below(links as u64) as usize;
            if factor[l] == 1.0 {
                // Uniform derate in [0.3, 0.9]: bad enough to matter,
                // never so bad it masquerades as an outage.
                factor[l] = 0.3 + 0.6 * rng.next_f64();
                placed += 1;
            }
        }
        Some(LinkFaults { factor })
    }

    pub fn links(&self) -> usize {
        self.factor.len()
    }

    pub fn n_dead(&self) -> usize {
        self.factor.iter().filter(|&&f| f == 0.0).count()
    }

    pub fn n_degraded(&self) -> usize {
        self.factor.iter().filter(|&&f| f > 0.0 && f < 1.0).count()
    }

    /// Ids of all dead links, for probe gauges and reports.
    pub fn dead_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.factor.iter().enumerate().filter(|(_, &f)| f == 0.0).map(|(i, _)| LinkId(i))
    }
}

impl LinkHealth for LinkFaults {
    fn is_dead(&self, link: LinkId) -> bool {
        self.factor.get(link.0).copied() == Some(0.0)
    }

    fn bw_factor(&self, link: LinkId) -> f64 {
        match self.factor.get(link.0) {
            Some(&f) if f > 0.0 => f,
            _ => 1.0,
        }
    }
}

/// Stateless multiplicative jitter on compute spans.
///
/// `factor(rank, step)` hashes the identity of the compute span, so the
/// draw is the same no matter which worker thread replays the rank or in
/// what order scenarios run. Most steps see a small uniform slowdown of
/// up to `amplitude`; roughly one in 256 hits a "daemon wakeup" spike an
/// order of magnitude larger — the heavy tail that makes Linux noise
/// visible at scale while CNK stays quiet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    seed: u64,
    amplitude: f64,
}

impl NoiseModel {
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Multiplicative factor (>= 1.0) for compute span `step` of `rank`.
    pub fn factor(&self, rank: usize, step: u64) -> f64 {
        let h = splitmix64(
            self.seed ^ splitmix64(rank as u64) ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let spike = if h & 0xFF == 0 { 10.0 } else { 1.0 };
        1.0 + self.amplitude * u * spike
    }
}

/// Stateless per-message loss bursts.
///
/// `lost_attempts(rank, seq)` is the number of consecutive transmission
/// attempts of message `seq` from `rank` that are lost before one
/// succeeds, capped at `max_burst`. Each attempt is an independent
/// Bernoulli(p) draw hashed from the message identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    seed: u64,
    /// Per-attempt loss probability.
    pub p: f64,
    /// Longest loss burst the model will generate.
    pub max_burst: u32,
}

impl LossModel {
    /// A custom model (tests use `p` close to 1.0 to force stalls).
    pub fn with_rates(seed: u64, p: f64, max_burst: u32) -> LossModel {
        LossModel { seed: split_seed(seed, STREAM_LOSS), p, max_burst }
    }

    /// Lost attempts before message `seq` from `rank` gets through.
    pub fn lost_attempts(&self, rank: usize, seq: u64) -> u32 {
        let base = self.seed ^ splitmix64(rank as u64) ^ seq.rotate_left(17);
        let mut lost = 0u32;
        while lost < self.max_burst {
            let h = splitmix64(
                base.wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(lost as u64 + 1)),
            );
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u >= self.p {
                break;
            }
            lost += 1;
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_labels_round_trip() {
        for p in FaultProfile::all() {
            assert_eq!(FaultProfile::parse(p.label()), Some(p));
        }
        assert_eq!(FaultProfile::parse("chaos"), None);
    }

    #[test]
    fn plans_are_reproducible() {
        let a = FaultPlan::new(77, FaultProfile::Mixed);
        let b = FaultPlan::new(77, FaultProfile::Mixed);
        assert_eq!(a.link_faults(3072), b.link_faults(3072));
        let (na, nb) = (a.noise(true).unwrap(), b.noise(true).unwrap());
        for rank in 0..8 {
            for step in 0..32 {
                assert_eq!(na.factor(rank, step), nb.factor(rank, step));
            }
        }
        let (la, lb) = (a.loss().unwrap(), b.loss().unwrap());
        for rank in 0..8 {
            for seq in 0..64 {
                assert_eq!(la.lost_attempts(rank, seq), lb.lost_attempts(rank, seq));
            }
        }
    }

    #[test]
    fn mutation_api_is_deterministic_and_moves() {
        let plan = FaultPlan::new(7, FaultProfile::Loss);
        assert_eq!(plan.with_seed(9).seed(), 9);
        assert_eq!(plan.with_seed(9).profile(), FaultProfile::Loss);
        assert_eq!(plan.with_profile(FaultProfile::Link).seed(), 7);
        assert_eq!(plan.escalated().profile(), FaultProfile::Mixed);
        assert_eq!(plan.escalated().seed(), 7);
        // same (plan, stream) → same mutant; some stream must change it
        for stream in 0..16u64 {
            assert_eq!(plan.mutated(stream), plan.mutated(stream));
        }
        assert!((0..16u64).any(|s| plan.mutated(s) != plan));
    }

    #[test]
    fn different_seeds_give_different_faults() {
        let a = FaultPlan::new(1, FaultProfile::Link).link_faults(3072).unwrap();
        let b = FaultPlan::new(2, FaultProfile::Link).link_faults(3072).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn profile_gates_ingredients() {
        let link = FaultPlan::new(5, FaultProfile::Link);
        assert!(link.link_faults(96).is_some());
        assert!(link.noise(true).is_none());
        assert!(link.loss().is_none());

        let noise = FaultPlan::new(5, FaultProfile::Noise);
        assert!(noise.link_faults(96).is_none());
        assert!(noise.noise(false).is_some());
        assert!(noise.loss().is_none());

        let loss = FaultPlan::new(5, FaultProfile::Loss);
        assert!(loss.link_faults(96).is_none());
        assert!(loss.noise(true).is_none());
        assert!(loss.loss().is_some());

        let mixed = FaultPlan::new(5, FaultProfile::Mixed);
        assert!(mixed.link_faults(96).is_some());
        assert!(mixed.noise(true).is_some());
        assert!(mixed.loss().is_some());
    }

    #[test]
    fn link_faults_hit_target_rates() {
        let f = FaultPlan::new(9, FaultProfile::Link).link_faults(3072).unwrap();
        assert_eq!(f.n_dead(), 3072 / 256);
        assert_eq!(f.n_degraded(), 3072 / 50);
        assert_eq!(f.dead_ids().count(), f.n_dead());
        for id in f.dead_ids() {
            assert!(f.is_dead(id));
        }
    }

    #[test]
    fn tiny_torus_still_gets_one_fault_of_each_kind() {
        // 2x2x1 torus: 4 nodes * 6 directions = 24 links.
        let f = FaultPlan::new(3, FaultProfile::Link).link_faults(24).unwrap();
        assert_eq!(f.n_dead(), 1);
        assert_eq!(f.n_degraded(), 1);
    }

    #[test]
    fn degraded_factors_stay_in_band() {
        let f = FaultPlan::new(11, FaultProfile::Link).link_faults(4096).unwrap();
        for l in 0..f.links() {
            let bw = f.bw_factor(LinkId(l));
            assert!((0.3..=1.0).contains(&bw), "link {l} factor {bw} out of band");
        }
    }

    #[test]
    fn noise_respects_machine_asymmetry() {
        let plan = FaultPlan::new(21, FaultProfile::Noise);
        let bgp = plan.noise(true).unwrap();
        let xt4 = plan.noise(false).unwrap();
        let mean = |m: &NoiseModel| {
            let mut s = 0.0;
            for rank in 0..16 {
                for step in 0..256 {
                    s += m.factor(rank, step) - 1.0;
                }
            }
            s / (16.0 * 256.0)
        };
        let (mb, mx) = (mean(&bgp), mean(&xt4));
        assert!(mx > 5.0 * mb, "XT4 noise ({mx}) should dwarf BG/P ({mb})");
        for rank in 0..16 {
            for step in 0..256 {
                assert!(bgp.factor(rank, step) >= 1.0);
            }
        }
    }

    #[test]
    fn loss_bursts_bounded_and_rare() {
        let l = FaultPlan::new(33, FaultProfile::Loss).loss().unwrap();
        let mut total = 0u64;
        let n = 10_000u64;
        for seq in 0..n {
            let lost = l.lost_attempts(2, seq);
            assert!(lost <= l.max_burst);
            total += lost as u64;
        }
        // E[lost] ≈ p/(1-p) ≈ 0.0204; allow generous slack.
        let mean = total as f64 / n as f64;
        assert!(mean > 0.005 && mean < 0.08, "mean burst {mean} implausible");
    }

    #[test]
    fn forced_loss_exhausts_any_budget() {
        let l = LossModel::with_rates(1, 1.0, 8);
        assert_eq!(l.lost_attempts(0, 0), 8);
    }
}
