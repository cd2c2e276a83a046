//! `design-sweep`: the paper's Fig 2 question — which mapping and mode,
//! on which torus? — asked as a design explorer asks it.
//!
//! A seeded, shuffled stream of HALO scenario queries goes through the
//! process-global scenario cache (`hpcsim_cache::evaluate`) under the
//! DAG sweep engine. The point space is 2 contention-flat machines
//! (BG/P, BG/L) × 27 programs (grids {512, 2048, 8192} ranks × halo
//! words {512, 2048, 32768} × 3 protocols) × 3 modes × the 8 Fig 2
//! mappings = 1296 points. One query in five revisits a point already
//! answered; the rest ask a new one. One item is one query.
//!
//! The stream runs in epochs. An epoch starts with set-up: a fresh
//! in-memory cache and one priming query per program, which records
//! its trace and compiles its DAG. It ends when every point has been
//! asked, so every new point is a tier-1 miss and every revisit a hit.
//! A run measures whole epochs, so every run asks the same mix of
//! points and only the hit share moves its latency distribution.

use crate::check::{Expected, Tally};
use crate::metrics::{self, Outcome};
use crate::stats::{self, Rng};
use crate::{Ctx, Windows};
use hpcsim_cache::{evaluate, CacheConfig, ScenarioSpec};
use hpcsim_hpcc::{halo_eval_traces, halo_traces, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::{bluegene_l, bluegene_p};
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{Op, RankLayout, SimConfig, SweepEngine, TraceDag};
use hpcsim_topo::{Grid2D, Mapping};
use std::collections::HashMap;
use std::time::Instant;

const GRID_RANKS: [usize; 3] = [512, 2048, 8192];
const WORDS: [u64; 3] = [512, 2048, 32_768];
const MODES: [ExecMode; 3] = [ExecMode::Smp, ExecMode::Dual, ExecMode::Vn];
const MACHINES: usize = 2;
const PROGRAMS: usize = 27;
const MAPPINGS: usize = 8;
const POINTS: usize = MACHINES * PROGRAMS * MODES.len() * MAPPINGS;
/// Exchange rounds per program, as the Fig 2 batteries record them.
const REPS: u32 = 2;
/// One query in this many revisits an answered point. Not one in four:
/// misses fall into three equal clusters by rank count, and with a
/// quarter of hits the median would sit in the gap between the 512- and
/// 2048-rank clusters, jumping 3x with the hit share.
const REVISIT_ONE_IN: u64 = 5;
/// Points re-priced through replay after the run, outside timing.
const REPLAY_CHECKS: usize = 8;
/// Misses re-issued through the inner layers in the traced run.
const PROBES: usize = 24;

/// The point space and its specs, built once per process.
struct Space {
    machines: [MachineSpec; MACHINES],
    programs: Vec<HaloConfig>,
    mappings: Vec<(String, Mapping)>,
    specs: Vec<ScenarioSpec>,
}

/// Coordinates of point `i`.
#[derive(Debug, Clone, Copy)]
struct Point {
    machine: usize,
    program: usize,
    mode: usize,
    mapping: usize,
}

impl Point {
    fn of(i: usize) -> Point {
        let mapping = i % MAPPINGS;
        let mode = i / MAPPINGS % MODES.len();
        let program = i / (MAPPINGS * MODES.len()) % PROGRAMS;
        let machine = i / (MAPPINGS * MODES.len() * PROGRAMS);
        Point { machine, program, mode, mapping }
    }

    fn index(self) -> usize {
        ((self.machine * PROGRAMS + self.program) * MODES.len() + self.mode) * MAPPINGS
            + self.mapping
    }

    /// The query that primes `program`: BG/P, VN, first mapping.
    fn priming(program: usize) -> Point {
        Point { machine: 0, program, mode: MODES.len() - 1, mapping: 0 }
    }
}

impl Space {
    fn new() -> Space {
        let machines = [bluegene_p().with_flat_contention(), bluegene_l().with_flat_contention()];
        let mut programs = Vec::with_capacity(PROGRAMS);
        for ranks in GRID_RANKS {
            for words in WORDS {
                for protocol in HaloProtocol::all() {
                    let grid = Grid2D::near_square(ranks);
                    programs.push(HaloConfig { grid, words, protocol, reps: REPS });
                }
            }
        }
        let mappings = Mapping::fig2_set();
        assert_eq!(mappings.len(), MAPPINGS);
        let mut space = Space { machines, programs, mappings, specs: Vec::with_capacity(POINTS) };
        space.specs = (0..POINTS).map(|i| space.spec(Point::of(i))).collect();
        space
    }

    fn spec(&self, p: Point) -> ScenarioSpec {
        ScenarioSpec::halo(
            &self.machines[p.machine],
            MODES[p.mode],
            self.mappings[p.mapping].1,
            self.programs[p.program].clone(),
        )
    }

    /// Stable, readable key of point `i` in the reference file.
    fn key(&self, i: usize) -> String {
        let p = Point::of(i);
        let cfg = &self.programs[p.program];
        let proto = match cfg.protocol {
            HaloProtocol::IrecvIsend => "irecv_isend",
            HaloProtocol::IsendIrecv => "isend_irecv",
            HaloProtocol::Sendrecv => "sendrecv",
        };
        format!(
            "{}.r{}.w{}.{proto}.{:?}.{}",
            ["bgp", "bgl"][p.machine],
            cfg.grid.size(),
            cfg.words,
            MODES[p.mode],
            self.mappings[p.mapping].0
        )
    }

    /// Seconds per exchange for point `i` through the global cache.
    fn query(&self, i: usize) -> Result<u64, String> {
        evaluate(&self.specs[i]).map(|v| v[0].to_bits()).map_err(|e| e.to_string())
    }

    /// The same point priced straight through hpcc, by replay
    /// (`dag = None`) or by `dag`.
    fn direct(&self, i: usize, traces: &[Vec<Op>], dag: Option<&TraceDag>) -> u64 {
        let p = Point::of(i);
        let m = &self.machines[p.machine];
        let cfg = &self.programs[p.program];
        halo_eval_traces(m, MODES[p.mode], self.mappings[p.mapping].1, cfg, traces, dag).to_bits()
    }

    /// The simulator configuration `halo_eval_traces` builds for point
    /// `i` (BlueGene layout under the point's mapping).
    fn sim_config(&self, i: usize) -> SimConfig {
        let p = Point::of(i);
        let machine = self.machines[p.machine].clone();
        let ranks = self.programs[p.program].grid.size();
        let mode = MODES[p.mode];
        let layout = RankLayout::bluegene(&machine, ranks, mode, self.mappings[p.mapping].1);
        SimConfig { machine, mode, threads: 1, layout }
    }
}

/// One epoch's state: first answers, answered points, points not yet
/// asked.
struct Epoch {
    first: HashMap<usize, u64>,
    answered: Vec<usize>,
    fresh: Vec<usize>,
}

/// Fresh cache plus one priming query per program.
fn setup(space: &Space, ctx: &mut Ctx, rng: &mut Rng) -> Result<Epoch, String> {
    let s = ctx.rec.begin("setup", 0);
    ctx.rec.span("cache.configure", 0, || hpcsim_cache::configure(CacheConfig::default()));
    let mut epoch = Epoch { first: HashMap::new(), answered: Vec::new(), fresh: Vec::new() };
    for program in 0..PROGRAMS {
        let i = Point::priming(program).index();
        let bits = ctx.rec.span("cache.evaluate", 0, || space.query(i))?;
        epoch.first.insert(i, bits);
        epoch.answered.push(i);
    }
    epoch.fresh = (0..POINTS).filter(|i| !epoch.first.contains_key(i)).collect();
    rng.shuffle(&mut epoch.fresh);
    ctx.rec.end(s);
    Ok(epoch)
}

fn expected() -> Expected {
    Expected::parse(include_str!("../expected/design-sweep.txt"))
        .expect("expected/design-sweep.txt parses")
}

/// Reference answers for all 1296 points. Each is priced through the
/// cache under the DAG engine and must agree bit for bit with replay
/// before it is written.
pub fn capture() -> String {
    hpcsim_mpi::set_sweep_engine(SweepEngine::Dag);
    hpcsim_cache::configure(CacheConfig::default());
    let space = Space::new();
    let mut entries = Vec::with_capacity(POINTS);
    for program in 0..PROGRAMS {
        let traces = halo_traces(&space.programs[program]);
        for i in (0..POINTS).filter(|&i| Point::of(i).program == program) {
            let bits = space.query(i).expect("pristine halo points evaluate");
            assert_eq!(
                bits,
                space.direct(i, &traces, None),
                "DAG and replay disagree at {}",
                space.key(i)
            );
            entries.push((i, bits));
        }
    }
    entries.sort_unstable();
    let entries: Vec<(String, u128)> =
        entries.into_iter().map(|(i, b)| (space.key(i), u128::from(b))).collect();
    Expected::render("design-sweep: f64 bits of seconds per exchange, per point", &entries)
}

/// A timed miss: point, latency, answer.
struct Miss {
    point: usize,
    ms: f64,
    bits: u64,
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    hpcsim_mpi::set_sweep_engine(SweepEngine::Dag);
    let expected = expected();
    let space = Space::new();
    let keys: Vec<String> = (0..POINTS).map(|i| space.key(i)).collect();
    let mut order = Rng::new(ctx.seed, 2);
    let mut revisit = Rng::new(ctx.seed, 3);
    let mut tally = Tally::default();

    let mut epoch = setup(&space, ctx, &mut order).expect("priming queries evaluate");
    let mut setup_s = vec![ctx.start.elapsed().as_secs_f64()];

    let min_queries = stats::min_samples(99);
    let min_setups = stats::min_samples(50);
    let mut windows = Windows::default();
    let mut latency_ms = Vec::new();
    let mut hit_us = Vec::new();
    let mut misses = Vec::new();
    let mut digest = 0u64;
    windows.open(&ctx.rec);
    loop {
        if epoch.fresh.is_empty() {
            windows.close(&ctx.rec);
            if windows.secs >= ctx.seconds
                && latency_ms.len() >= min_queries
                && setup_s.len() >= min_setups
            {
                break;
            }
            let t = Instant::now();
            epoch = setup(&space, ctx, &mut order).expect("priming queries evaluate");
            setup_s.push(t.elapsed().as_secs_f64());
            windows.open(&ctx.rec);
        }
        let is_revisit = revisit.chance(1, REVISIT_ONE_IN);
        let i = if is_revisit {
            epoch.answered[revisit.below(epoch.answered.len())]
        } else {
            epoch.fresh.pop().expect("fresh points remain")
        };
        let id = latency_ms.len() as u64 + 1;
        let q = ctx.rec.begin("query", id);
        let t = Instant::now();
        let answer = ctx.rec.span("cache.evaluate", id, || space.query(i));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = ctx.rec.span("bench.check", id, || match answer {
            Ok(bits) => {
                digest = crate::check::fold(digest, bits);
                let first = *epoch.first.entry(i).or_insert(bits);
                if !is_revisit {
                    epoch.answered.push(i);
                    misses.push(Miss { point: i, ms, bits });
                }
                first == bits && expected.matches(&keys[i], u128::from(bits))
            }
            Err(_) => false,
        });
        ctx.rec.end(q);
        latency_ms.push(ms);
        if is_revisit {
            hit_us.push(ms * 1e3);
        }
        tally.item(ok);
    }

    // Replay must agree bit for bit with the DAG answers (outside timing).
    let mut pick = Rng::new(ctx.seed, 4);
    for _ in 0..REPLAY_CHECKS {
        let m = &misses[pick.below(misses.len())];
        let replayed = ctx.rec.span("check.replay", 0, || {
            let traces = halo_traces(&space.programs[Point::of(m.point).program]);
            space.direct(m.point, &traces, None)
        });
        if replayed != m.bits {
            tally.fail(1);
        }
    }
    eprintln!(
        "perfbench: design-sweep answered {} queries in {} epochs, result digest {digest:016x}",
        latency_ms.len(),
        setup_s.len()
    );

    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.e2e.insert("setup_s", stats::median(&setup_s).expect("enough epochs"));
    out.e2e.insert("peak_rss_mb", metrics::peak_rss_mb());
    out.e2e.insert("items_per_s", latency_ms.len() as f64 / windows.secs);
    out.e2e.insert("p50_ms", stats::median(&latency_ms).expect("enough queries"));
    out.e2e.insert("tail_ms", stats::percentile(&latency_ms, 99).expect("enough queries"));

    if ctx.traced() {
        windows.obs_layers(1.0, &mut out);
        let miss_ms: Vec<f64> = misses.iter().map(|m| m.ms).collect();
        out.layer("cache.hit_us_p50", stats::median(&hit_us).unwrap_or(0.0));
        out.layer("cache.miss_ms_p50", stats::median(&miss_ms).unwrap_or(0.0));
        probes(ctx, &space, &misses, &mut out);
        crate::finish_trace(ctx, &windows, &mut out);
    }
    out
}

/// Re-issue the work hidden inside `evaluate` through the inner layers'
/// own public calls, outside any item: trace recording and DAG
/// compilation for every program, and, on a seeded subsample of timed
/// misses, the direct hpcc call and the bare DAG evaluation.
fn probes(ctx: &mut Ctx, space: &Space, misses: &[Miss], out: &mut Outcome) {
    let mut pick = Rng::new(ctx.seed, 5);
    let sample: Vec<&Miss> = (0..PROBES).map(|_| &misses[pick.below(misses.len())]).collect();
    let (mut trace_ns, mut ops, mut compile_ns, mut nodes, mut edges) =
        (0.0, 0u64, 0.0, 0u64, 0u64);
    let (mut overhead_us, mut layout_us, mut node_ns) = (Vec::new(), Vec::new(), Vec::new());
    for program in 0..PROGRAMS {
        let t = Instant::now();
        let traces = ctx.rec.span("hpcc.trace", 0, || halo_traces(&space.programs[program]));
        trace_ns += crate::ns(t.elapsed());
        ops += traces.iter().map(|r| r.len() as u64).sum::<u64>();
        let t = Instant::now();
        let dag = ctx.rec.span("dag.compile", 0, || TraceDag::compile_world(&traces));
        compile_ns += crate::ns(t.elapsed());
        let st = dag.stats();
        nodes += st.nodes;
        edges += st.edges;
        for m in sample.iter().filter(|m| Point::of(m.point).program == program) {
            let cfg = space.sim_config(m.point);
            let direct = best_of(3, || {
                ctx.rec
                    .span("hpcc.halo_eval_traces", 0, || space.direct(m.point, &traces, Some(&dag)))
            });
            let eval = best_of(3, || ctx.rec.span("dag.evaluate", 0, || dag.evaluate(&cfg)));
            overhead_us.push(m.ms * 1e3 - direct / 1e3);
            layout_us.push((direct - eval) / 1e3);
            node_ns.push(eval / st.nodes as f64);
        }
    }
    out.layer("hpcc.trace_ms", trace_ns / 1e6);
    out.layer("hpcc.trace_ops", ops as f64);
    out.layer("hpcc.trace_ns_per_op", trace_ns / ops as f64);
    out.layer("dag.compile_ms", compile_ns / 1e6);
    out.layer("dag.compile_ns_per_op", compile_ns / ops as f64);
    out.layer("dag.nodes", nodes as f64);
    out.layer("dag.edges", edges as f64);
    out.layer("cache.overhead_us_p50", stats::median(&overhead_us).expect("enough probes"));
    out.layer("hpcc.layout_us_p50", stats::median(&layout_us).expect("enough probes"));
    out.layer("dag.eval_ns_per_node", stats::median(&node_ns).expect("enough probes"));
}

/// Fastest of `n` timed calls, ns.
fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            crate::ns(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_indexing_round_trips_and_covers_the_space() {
        for i in 0..POINTS {
            assert_eq!(Point::of(i).index(), i);
        }
        let p = Point::of(POINTS - 1);
        assert_eq!((p.machine, p.program, p.mode, p.mapping), (1, 26, 2, 7));
        assert_eq!(POINTS, 1296);
    }

    #[test]
    fn reference_covers_every_point() {
        let e = expected();
        assert_eq!(e.len(), POINTS);
        let space = Space::new();
        let keys: std::collections::HashSet<String> = (0..POINTS).map(|i| space.key(i)).collect();
        assert_eq!(keys.len(), POINTS, "point keys are distinct");
    }
}
