//! The fuzzer's unit of work: a self-contained scenario with a
//! canonical, hashable text form.
//!
//! A [`FuzzScenario`] is everything one fuzz candidate needs to replay:
//! explicit per-rank op traces (not a program closure — mutants have no
//! source), a machine, an execution mode, a torus mapping, and an
//! optional fault plan. The canonical serialization is a magic line,
//! the machine/mode/mapping/faults lines of `hpcsim-cache`'s
//! [`write_setup`], and the `hpcsim-trace/1` block of
//! [`hpcsim_mpi::write_traces`] verbatim, so corpus entries and
//! minimized regressions are plain text files in grammars the rest of
//! the workspace already reads, and they round-trip bit-exactly:
//!
//! ```text
//! hpcsim-fuzz-scenario/2
//! <6 machine canon lines>
//! mode vn
//! mapping TXYZ
//! faults none                  | faults <seed> <profile>
//! hpcsim-trace/1 4
//! rank 0 3
//! c custom 0x4059000000000000 0x0000000000000000 0x3ff0000000000000 0x0000000000000000 1
//! s 1 0 1024 0
//! w 0
//! rank 1 …
//! ```
//!
//! Floats are serialized as IEEE-754 bit patterns (`0x{:016x}`) and
//! times as raw picosecond counts, so `mutate → serialize → parse →
//! rehash` is the identity — the determinism contract every corpus
//! artifact and checked-in regression relies on. On top of the strict
//! trace grammar, [`FuzzScenario::parse`] enforces the fuzzer's own
//! bounds: 1..=[`MAX_RANKS`] ranks, at most [`MAX_OPS_PER_RANK`] ops per
//! rank, and WORLD-only collectives.

use hpcsim_cache::{
    fnv1a_128, parse_setup, write_setup, FaultSpec, Setup, SpecHash, SpecParseError, SETUP_LINES,
};
use hpcsim_faults::FaultPlan;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_mpi::{parse_traces, write_traces, CommId, Op, RankLayout, SimConfig};
use hpcsim_topo::{Mapping, Placement};

/// Magic first line of the canonical serialization.
pub const FUZZ_MAGIC: &str = "hpcsim-fuzz-scenario/2";

/// Lines before the trace block: the magic line and the setup lines.
const HEADER_LINES: usize = 1 + SETUP_LINES;

/// One fuzz candidate: traces × machine × mode × mapping × faults.
///
/// Equality is *canonical*: two scenarios are equal iff their
/// [`FuzzScenario::to_canon`] texts match. (Display-only fields like
/// the core's marketing name are not part of a scenario's identity —
/// the machine canon drops them, and round-tripping must be `==`.)
#[derive(Debug, Clone)]
pub struct FuzzScenario {
    /// The machine model to replay against.
    pub machine: MachineSpec,
    /// Execution mode (tasks per node).
    pub mode: ExecMode,
    /// Torus mapping (BlueGene layouts; ignored on XT machines).
    pub mapping: Mapping,
    /// Optional fault plan identity.
    pub faults: Option<FaultSpec>,
    /// Per-rank op traces; `traces.len()` is the world size.
    pub traces: Vec<Vec<Op>>,
}

impl FuzzScenario {
    /// World size.
    pub fn ranks(&self) -> usize {
        self.traces.len()
    }

    /// Total op count across all ranks (the minimizer's metric).
    pub fn total_ops(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }

    /// The fault plan this scenario arms, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.map(|f| FaultPlan::new(f.seed, f.profile))
    }

    /// The replay configuration: BlueGene machines honor the mapping,
    /// XT machines use their compact default placement (the mapping
    /// field is carried but inert there).
    pub fn sim_config(&self) -> SimConfig {
        let ranks = self.ranks();
        let layout = if self.machine.id.is_bluegene() {
            RankLayout::bluegene(&self.machine, ranks, self.mode, self.mapping)
        } else {
            RankLayout::xt(&self.machine, ranks, self.mode, Placement::Compact)
        };
        SimConfig { machine: self.machine.clone(), mode: self.mode, threads: 1, layout }
    }

    /// 128-bit content hash of the canonical text.
    pub fn hash(&self) -> SpecHash {
        fnv1a_128(self.to_canon().as_bytes())
    }

    /// Canonical text form (see module docs for the grammar).
    pub fn to_canon(&self) -> String {
        let traces = write_traces(&self.traces);
        let mut out = String::with_capacity(1024 + traces.len());
        out.push_str(FUZZ_MAGIC);
        out.push('\n');
        write_setup(&mut out, &self.machine, self.mode, self.mapping, self.faults);
        out.push_str(&traces);
        out
    }

    /// Parse the canonical text form. Inverse of [`FuzzScenario::to_canon`]:
    /// `parse(s.to_canon()) == s` and re-serialization is byte-identical.
    pub fn parse(text: &str) -> Result<FuzzScenario, SpecParseError> {
        let (magic, rest) = text.split_once('\n').unwrap_or((text, ""));
        if magic != FUZZ_MAGIC {
            let message = format!("bad magic {magic:?}, want {FUZZ_MAGIC:?}");
            return Err(SpecParseError { line: 1, message });
        }
        let (Setup { machine, mode, mapping, faults }, body) = parse_setup(rest, 2)?;
        let traces = parse_traces(body)
            .map_err(|e| SpecParseError { line: HEADER_LINES + e.line, message: e.message })?;
        check_fuzz_bounds(&traces)?;
        Ok(FuzzScenario { machine, mode, mapping, faults, traces })
    }
}

/// The fuzzer's own rules on top of the trace grammar, reported at the
/// line of the offending rank header or op.
fn check_fuzz_bounds(traces: &[Vec<Op>]) -> Result<(), SpecParseError> {
    let mut line = HEADER_LINES + 1;
    let at = |line, message| Err(SpecParseError { line, message });
    if traces.is_empty() || traces.len() > MAX_RANKS {
        return at(line, format!("rank count {} outside 1..={MAX_RANKS}", traces.len()));
    }
    for (r, trace) in traces.iter().enumerate() {
        line += 1;
        if trace.len() > MAX_OPS_PER_RANK {
            let message = format!("rank {r}: op count {} exceeds {MAX_OPS_PER_RANK}", trace.len());
            return at(line, message);
        }
        for op in trace {
            line += 1;
            if matches!(op, Op::Collective { comm, .. } if *comm != CommId::WORLD) {
                return at(line, "fuzz scenarios use WORLD collectives only".into());
            }
        }
    }
    Ok(())
}

impl PartialEq for FuzzScenario {
    fn eq(&self, other: &Self) -> bool {
        self.to_canon() == other.to_canon()
    }
}

impl Eq for FuzzScenario {}

/// Upper bound on world size (the generator stays well below; the
/// parser rejects hand-edited monsters).
pub const MAX_RANKS: usize = 512;
/// Upper bound on per-rank trace length accepted by the parser.
pub const MAX_OPS_PER_RANK: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_engine::SimTime;
    use hpcsim_faults::FaultProfile;
    use hpcsim_machine::registry::bluegene_p;
    use hpcsim_machine::Workload;
    use hpcsim_mpi::Req;
    use hpcsim_net::{CollectiveOp, DType};

    fn sample() -> FuzzScenario {
        FuzzScenario {
            machine: bluegene_p(),
            mode: ExecMode::Vn,
            mapping: Mapping::txyz(),
            faults: Some(FaultSpec { seed: 7, profile: FaultProfile::Mixed }),
            traces: vec![
                vec![
                    Op::Compute {
                        work: Workload::Custom {
                            flops: 1e6,
                            dram_bytes: 0.0,
                            simd_eff: 1.0,
                            serial_frac: 0.0,
                        },
                        threads: 1,
                    },
                    Op::Isend { dst: 1, tag: 3, bytes: 1024, req: Req(0) },
                    Op::Wait { req: Req(0) },
                    Op::Collective { comm: CommId::WORLD, op: CollectiveOp::Barrier },
                ],
                vec![
                    Op::Irecv { src: 0, tag: 3, bytes: 1024, req: Req(0) },
                    Op::Wait { req: Req(0) },
                    Op::Delay { time: SimTime::from_us(5) },
                    Op::Collective {
                        comm: CommId::WORLD,
                        op: CollectiveOp::Allreduce { bytes: 64, dtype: DType::F64 },
                    },
                    Op::Mark { id: 9 },
                ],
            ],
        }
    }

    #[test]
    fn canon_round_trips_bit_exactly() {
        let sc = sample();
        let text = sc.to_canon();
        let back = FuzzScenario::parse(&text).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_canon(), text);
        assert_eq!(back.hash(), sc.hash());
    }

    #[test]
    fn faultless_scenario_round_trips() {
        let mut sc = sample();
        sc.faults = None;
        let back = FuzzScenario::parse(&sc.to_canon()).unwrap();
        assert_eq!(back, sc);
        assert!(back.fault_plan().is_none());
    }

    #[test]
    fn parse_rejects_bad_magic_and_rank_counts() {
        assert!(FuzzScenario::parse("nope\n").is_err());
        let canon = sample().to_canon();
        let header: String = canon.lines().take(HEADER_LINES).map(|l| format!("{l}\n")).collect();
        // the trace grammar accepts any world size; the fuzzer's own
        // bound applies on top of it, at the trace block's header line
        for ranks in [0, MAX_RANKS + 1] {
            let mut text = format!("{header}hpcsim-trace/1 {ranks}\n");
            for r in 0..ranks {
                text.push_str(&format!("rank {r} 0\n"));
            }
            let err = FuzzScenario::parse(&text).unwrap_err();
            assert!(err.message.contains("outside 1..=512"), "{err}");
            assert_eq!(err.line, HEADER_LINES + 1);
        }
        // a rank count the text does not back up is a trace parse error
        let text = canon.replace("hpcsim-trace/1 2\n", "hpcsim-trace/1 9999\n");
        assert!(FuzzScenario::parse(&text).is_err());
    }

    #[test]
    fn parse_rejects_out_of_world_peer() {
        let text = sample().to_canon().replace("s 1 3 1024 0", "s 5 3 1024 0");
        let err = FuzzScenario::parse(&text).unwrap_err();
        assert!(err.message.contains("outside world"), "{err}");
    }

    #[test]
    fn parse_rejects_non_world_collectives() {
        let text = sample().to_canon().replace("w 0\nk 0 barrier", "w 0\nk 1 barrier");
        let err = FuzzScenario::parse(&text).unwrap_err();
        assert!(err.message.contains("WORLD collectives only"), "{err}");
        assert_eq!(err.line, 16);
    }

    #[test]
    fn parse_line_numbers_point_at_the_culprit() {
        let text = sample().to_canon().replace("w 0\nk 0 barrier", "w 0\nk 0 nonsense");
        let err = FuzzScenario::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown collective"), "{err}");
        // magic + 9 setup lines + trace header + rank-0 header put the
        // first op at line 13; the bad collective is op 4 → line 16
        assert_eq!(err.line, 16);
        // setup errors carry the file's numbering too: mode is line 8
        let text = sample().to_canon().replace("mode vn\n", "mode nonsense\n");
        assert_eq!(FuzzScenario::parse(&text).unwrap_err().line, 8);
    }

    #[test]
    fn sim_config_matches_world_size() {
        let sc = sample();
        assert_eq!(sc.sim_config().ranks(), 2);
    }
}
