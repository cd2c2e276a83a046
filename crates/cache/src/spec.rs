//! Canonical, hashable scenario specifications.
//!
//! A [`ScenarioSpec`] is the complete identity of one what-if query:
//! program × machine × mapping × execution mode × fault seed/profile.
//! Two queries with equal canonical forms are *the same experiment* and
//! must produce bit-identical results — that equivalence is what the
//! content-addressed store memoizes.
//!
//! ## Canonicalization
//!
//! The canonical form normalizes away dimensions a query provably
//! ignores, so equivalent queries share a hash **by construction**:
//!
//! * **mapping** is forced to `TXYZ` unless the program is HALO *and*
//!   the machine is a BlueGene — every other entry point lays ranks out
//!   with [`hpcsim_mpi::RankLayout::default_for`], which never reads the
//!   mapping;
//! * **mode** is forced to `VN` for the MD proxies (their entry points
//!   always run virtual-node mode);
//! * **faults** are dropped unless the program is HALO (the only
//!   fault-replayable entry point);
//! * the machine's `core.name` is excluded — it is display-only and
//!   feeds no model.
//!
//! Anything else that differs produces a different canonical text and
//! therefore (FNV-1a 128) a different hash. Every float is serialized
//! as its IEEE-754 bit pattern, so serialize → parse → re-serialize is
//! the identity and hashing is exact, not approximate.
//!
//! ## Sub-keys
//!
//! [`ScenarioSpec::program_hash`] hashes only the `program` line. For
//! the trace-replayable programs (HALO, MD) the recorded trace depends
//! on nothing else — not machine, mapping, mode or faults — so the
//! program hash is the tier-2 key under which traces are shared by
//! every query that replays the same program.
//!
//! ## Setup lines
//!
//! The lines after the program — six machine lines, then mode, mapping
//! and faults — have one writer ([`write_setup`]) and one parser
//! ([`parse_setup`]). Fuzz scenarios (`hpcsim-fuzz`) use the same pair
//! for their header, so a machine reads and hashes the same in both
//! formats. Both read through the shared reader of [`hpcsim_mpi::wire`],
//! which takes every integer at its field's own width: a value too wide
//! for its field is an error, not a truncation.

use hpcsim_apps::{MdCode, MdConfig};
use hpcsim_engine::SimTime;
use hpcsim_faults::FaultProfile;
use hpcsim_hpcc::{HaloConfig, HaloProtocol, HplConfig};
use hpcsim_machine::{
    CacheCoherence, CoreArch, ExecMode, L2Kind, MachineId, MachineSpec, MemorySpec, NicSpec,
    Packaging, PowerSpec,
};
use hpcsim_mpi::wire::{Bits, Fields, Lines, ParseError};
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping};
use std::fmt::Write as _;

/// Format-identifying first line of a canonical spec.
pub const SPEC_MAGIC: &str = "hpcsim-scenario/1";

/// 128-bit FNV-1a content hash of a canonical spec (or program line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecHash(pub u128);

impl std::fmt::Display for SpecHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit variant: well-distributed, dependency-free, and
/// stable across platforms/runs (unlike `DefaultHasher`).
pub fn fnv1a_128(bytes: &[u8]) -> SpecHash {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    SpecHash(h)
}

/// The program axis of a scenario: which benchmark/proxy, at what
/// configuration, on how many ranks.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpec {
    /// Wallcraft HALO exchange (Fig 2); ranks = `grid.size()`.
    Halo(HaloConfig),
    /// MD proxy (Fig 8): LAMMPS- or PMEMD-shaped communication.
    Md {
        /// MPI ranks.
        ranks: usize,
        /// Code + problem.
        cfg: MdConfig,
    },
    /// HPL (Table 2 / Fig 4); ranks = `cfg.grid.size()`.
    Hpl(HplConfig),
    /// IMB Allreduce latency at one point (Fig 6).
    ImbAllreduce {
        /// MPI ranks.
        ranks: usize,
        /// Payload bytes.
        bytes: u64,
        /// Element type.
        dtype: DType,
    },
    /// POP ocean proxy (Fig 7).
    Pop {
        /// MPI ranks.
        ranks: usize,
        /// OpenMP threads per task.
        threads: u32,
        /// Problem configuration.
        cfg: hpcsim_apps::PopConfig,
    },
}

impl ProgramSpec {
    /// Whether tier 2 of the cache keeps this program's recording for
    /// the pass: HALO and MD, whose traces are world-only and small.
    /// The others record afresh on every tier-1 miss (DESIGN §14).
    pub fn trace_replayable(&self) -> bool {
        matches!(self, ProgramSpec::Halo(_) | ProgramSpec::Md { .. })
    }

    /// MPI ranks the program runs on.
    pub fn ranks(&self) -> usize {
        match self {
            ProgramSpec::Halo(cfg) => cfg.grid.size(),
            ProgramSpec::Md { ranks, .. } => *ranks,
            ProgramSpec::Hpl(cfg) => cfg.grid.size(),
            ProgramSpec::ImbAllreduce { ranks, .. } => *ranks,
            ProgramSpec::Pop { ranks, .. } => *ranks,
        }
    }
}

/// Fault-injection axis: the seed and profile of a
/// [`hpcsim_faults::FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Plan seed.
    pub seed: u64,
    /// Which fault ingredients are armed.
    pub profile: FaultProfile,
}

/// One complete what-if query. Construct with the typed helpers
/// ([`ScenarioSpec::halo`], [`ScenarioSpec::md`], …), which apply the
/// canonicalization rules up front.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// What runs.
    pub program: ProgramSpec,
    /// Where it runs.
    pub machine: MachineSpec,
    /// Execution mode (task placement onto nodes).
    pub mode: ExecMode,
    /// Rank→processor mapping (meaningful for HALO on BlueGene only).
    pub mapping: Mapping,
    /// Armed fault plan, if any (HALO only).
    pub faults: Option<FaultSpec>,
}

impl ScenarioSpec {
    /// A HALO query.
    pub fn halo(machine: &MachineSpec, mode: ExecMode, mapping: Mapping, cfg: HaloConfig) -> Self {
        ScenarioSpec {
            program: ProgramSpec::Halo(cfg),
            machine: machine.clone(),
            mode,
            mapping,
            faults: None,
        }
        .canonicalized()
    }

    /// An MD query (always VN mode; mapping immaterial).
    pub fn md(machine: &MachineSpec, ranks: usize, cfg: MdConfig) -> Self {
        ScenarioSpec {
            program: ProgramSpec::Md { ranks, cfg },
            machine: machine.clone(),
            mode: ExecMode::Vn,
            mapping: Mapping::txyz(),
            faults: None,
        }
        .canonicalized()
    }

    /// An HPL query.
    pub fn hpl(machine: &MachineSpec, mode: ExecMode, cfg: HplConfig) -> Self {
        ScenarioSpec {
            program: ProgramSpec::Hpl(cfg),
            machine: machine.clone(),
            mode,
            mapping: Mapping::txyz(),
            faults: None,
        }
        .canonicalized()
    }

    /// An IMB Allreduce query.
    pub fn imb_allreduce(
        machine: &MachineSpec,
        mode: ExecMode,
        ranks: usize,
        bytes: u64,
        dtype: DType,
    ) -> Self {
        ScenarioSpec {
            program: ProgramSpec::ImbAllreduce { ranks, bytes, dtype },
            machine: machine.clone(),
            mode,
            mapping: Mapping::txyz(),
            faults: None,
        }
        .canonicalized()
    }

    /// A POP query.
    pub fn pop(
        machine: &MachineSpec,
        mode: ExecMode,
        ranks: usize,
        threads: u32,
        cfg: hpcsim_apps::PopConfig,
    ) -> Self {
        ScenarioSpec {
            program: ProgramSpec::Pop { ranks, threads, cfg },
            machine: machine.clone(),
            mode,
            mapping: Mapping::txyz(),
            faults: None,
        }
        .canonicalized()
    }

    /// This spec with an armed fault plan (HALO only: canonicalization
    /// drops faults on programs without a fault-replay entry point).
    pub fn with_faults(mut self, seed: u64, profile: FaultProfile) -> Self {
        self.faults = Some(FaultSpec { seed, profile });
        self.canonicalized()
    }

    /// Apply the normalization rules from the module docs. Idempotent.
    pub fn canonicalized(mut self) -> Self {
        let mapping_live =
            matches!(self.program, ProgramSpec::Halo(_)) && self.machine.id.is_bluegene();
        if !mapping_live {
            self.mapping = Mapping::txyz();
        }
        if matches!(self.program, ProgramSpec::Md { .. }) {
            self.mode = ExecMode::Vn;
        }
        if !matches!(self.program, ProgramSpec::Halo(_)) {
            self.faults = None;
        }
        self.machine.core.name = "";
        self
    }

    /// The stable canonical text (see module docs for the guarantees).
    pub fn to_canon(&self) -> String {
        let c = self.clone().canonicalized();
        let mut out = String::with_capacity(512);
        out.push_str(SPEC_MAGIC);
        out.push('\n');
        write_program(&mut out, &c.program);
        write_setup(&mut out, &c.machine, c.mode, c.mapping, c.faults);
        out
    }

    /// Content hash of the full canonical form: the tier-1 result key.
    pub fn hash(&self) -> SpecHash {
        fnv1a_128(self.to_canon().as_bytes())
    }

    /// Content hash of the program line alone: the tier-2 trace key.
    /// Every query replaying the same program shares this, whatever its
    /// machine/mapping/mode/faults.
    pub fn program_hash(&self) -> SpecHash {
        let mut line = String::with_capacity(96);
        write_program(&mut line, &self.clone().canonicalized().program);
        fnv1a_128(line.as_bytes())
    }

    /// Parse a canonical text back into a spec (machine `core.name`
    /// comes back empty — it is not part of the canonical form).
    pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
        let mut lines = Lines::new(text);
        lines.keyed(SPEC_MAGIC, |_| Ok(()))?;
        let program = lines.keyed("program", parse_program)?;
        let Setup { machine, mode, mapping, faults } = parse_setup(&mut lines)?;
        lines.finish()?;
        Ok(ScenarioSpec { program, machine, mode, mapping, faults }.canonicalized())
    }
}

/// Where and how a program runs: the machine, mode, mapping and faults
/// lines that follow the program line in [`ScenarioSpec::to_canon`] and
/// the magic line of a fuzz scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// The machine (`core.name` is not part of the text and parses empty).
    pub machine: MachineSpec,
    /// Execution mode.
    pub mode: ExecMode,
    /// Rank→processor mapping.
    pub mapping: Mapping,
    /// Armed fault plan, if any.
    pub faults: Option<FaultSpec>,
}

/// Lines [`write_setup`] writes: six machine lines (machine, core, mem,
/// nic, pack, power), then mode, mapping and faults.
pub const SETUP_LINES: usize = 9;

/// The text name of each variant. Each is an exhaustive `match`, so a new
/// variant does not compile until it has a name; the variant lists next
/// to them are what [`Fields::one_of`] reads back.
fn protocol_name(p: HaloProtocol) -> &'static str {
    match p {
        HaloProtocol::IrecvIsend => "irecv-isend",
        HaloProtocol::IsendIrecv => "isend-irecv",
        HaloProtocol::Sendrecv => "sendrecv",
    }
}
const PROTOCOLS: [HaloProtocol; 3] =
    [HaloProtocol::IrecvIsend, HaloProtocol::IsendIrecv, HaloProtocol::Sendrecv];

fn md_code_name(c: MdCode) -> &'static str {
    match c {
        MdCode::Lammps => "lammps",
        MdCode::Pmemd => "pmemd",
    }
}
const MD_CODES: [MdCode; 2] = [MdCode::Lammps, MdCode::Pmemd];

fn mode_name(m: ExecMode) -> &'static str {
    match m {
        ExecMode::Smp => "smp",
        ExecMode::Dual => "dual",
        ExecMode::Vn => "vn",
    }
}
const MODES: [ExecMode; 3] = [ExecMode::Smp, ExecMode::Dual, ExecMode::Vn];

fn machine_name(id: MachineId) -> &'static str {
    match id {
        MachineId::BgL => "bgl",
        MachineId::BgP => "bgp",
        MachineId::Xt3 => "xt3",
        MachineId::Xt4Dc => "xt4dc",
        MachineId::Xt4Qc => "xt4qc",
    }
}
const MACHINES: [MachineId; 5] =
    [MachineId::BgL, MachineId::BgP, MachineId::Xt3, MachineId::Xt4Dc, MachineId::Xt4Qc];

fn coherence_name(c: CacheCoherence) -> &'static str {
    match c {
        CacheCoherence::Software => "sw",
        CacheCoherence::Hardware => "hw",
    }
}
const COHERENCE: [CacheCoherence; 2] = [CacheCoherence::Software, CacheCoherence::Hardware];

/// Write the setup lines. The only writer of this grammar: scenario
/// specs and fuzz scenarios both call it, so their machine text and
/// hashes agree bit for bit.
pub fn write_setup(
    out: &mut String,
    machine: &MachineSpec,
    mode: ExecMode,
    mapping: Mapping,
    faults: Option<FaultSpec>,
) {
    write_machine(out, machine);
    let _ = writeln!(out, "mode {}", mode_name(mode));
    let _ = writeln!(out, "mapping {}", mapping.name());
    match faults {
        None => out.push_str("faults none\n"),
        Some(f) => {
            let _ = writeln!(out, "faults {} {}", f.seed, f.profile.label());
        }
    }
}

/// Read the [`SETUP_LINES`] lines [`write_setup`] wrote at the cursor,
/// which is left on the line after them.
pub fn parse_setup(lines: &mut Lines<'_>) -> Result<Setup, ParseError> {
    Ok(Setup {
        machine: parse_machine(lines)?,
        mode: lines.keyed("mode", |c| c.one_of("mode", &MODES, mode_name))?,
        mapping: lines.keyed("mapping", |c| c.parse_with("mapping", Mapping::parse))?,
        faults: lines.keyed("faults", |c| match c.tok("faults seed")? {
            "none" => Ok(None),
            seed => {
                let seed = seed.parse().or_else(|_| c.err(format!("bad fault seed {seed:?}")))?;
                let profile = c.parse_with("fault profile", FaultProfile::parse)?;
                Ok(Some(FaultSpec { seed, profile }))
            }
        })?,
    })
}

fn write_program(out: &mut String, p: &ProgramSpec) {
    match p {
        ProgramSpec::Halo(cfg) => {
            let _ = writeln!(
                out,
                "program halo {} {} {} {} {}",
                cfg.grid.rows,
                cfg.grid.cols,
                cfg.words,
                protocol_name(cfg.protocol),
                cfg.reps
            );
        }
        ProgramSpec::Md { ranks, cfg } => {
            let _ = writeln!(
                out,
                "program md {ranks} {} {} {} {} {} {}",
                md_code_name(cfg.code),
                cfg.atoms,
                cfg.neighbors,
                cfg.pme_mesh,
                cfg.output_every,
                cfg.steps
            );
        }
        ProgramSpec::Hpl(cfg) => {
            let _ = writeln!(
                out,
                "program hpl {} {} {} {} {}",
                cfg.n, cfg.nb, cfg.grid.rows, cfg.grid.cols, cfg.samples
            );
        }
        ProgramSpec::ImbAllreduce { ranks, bytes, dtype } => {
            let _ = writeln!(out, "program imb-allreduce {ranks} {bytes} {}", dtype.name());
        }
        ProgramSpec::Pop { ranks, threads, cfg } => {
            let _ = writeln!(
                out,
                "program pop {ranks} {threads} {} {} {} {} {} {} {} {} {}",
                cfg.nx,
                cfg.ny,
                cfg.nz,
                Bits(cfg.steps_per_day),
                cfg.cg_iters,
                cfg.chron_gear as u8,
                cfg.cg_sim,
                Bits(cfg.flops_per_point),
                Bits(cfg.imbalance)
            );
        }
    }
}

/// ` none`, or the value as [`Bits`]: the field [`Fields::opt_bits`] reads.
fn push_opt_bits(out: &mut String, v: Option<f64>) {
    let _ = match v {
        None => write!(out, " none"),
        Some(v) => write!(out, " {}", Bits(v)),
    };
}

fn write_machine(out: &mut String, m: &MachineSpec) {
    let (id, coh) = (machine_name(m.id), coherence_name(m.coherence));
    let _ = write!(out, "machine {id} {} {coh}", m.cores_per_node);
    push_opt_bits(out, m.l3_shared_mib);
    out.push('\n');

    // core.name is deliberately absent: display-only (see module docs)
    let c = &m.core;
    let (clock, fpc) = (Bits(c.clock_hz), Bits(c.flops_per_cycle));
    let _ = write!(out, "core {clock} {fpc} {} {}", c.l1_data_kib, c.line_bytes);
    let _ = match c.l2 {
        L2Kind::PrefetchEngine { streams } => write!(out, " pf {streams}"),
        L2Kind::Cache { kib } => write!(out, " cache {kib}"),
    };
    let _ = writeln!(out, " {} {}", Bits(c.mem_bw_core), Bits(c.irregular_eff));

    let mem = &m.mem;
    let _ = writeln!(
        out,
        "mem {} {} {} {} {}",
        Bits(mem.capacity_gib),
        Bits(mem.bw_bytes),
        Bits(mem.stream_eff_single),
        Bits(mem.stream_eff_loaded),
        mem.latency.0
    );

    let nic = &m.nic;
    let _ = write!(
        out,
        "nic {} {} {}",
        Bits(nic.torus_link_bw),
        nic.torus_links,
        Bits(nic.injection_bw)
    );
    push_opt_bits(out, nic.tree_bw);
    let _ = writeln!(
        out,
        " {} {} {} {} {} {}",
        nic.has_barrier_network as u8,
        nic.o_send.0,
        nic.o_recv.0,
        nic.per_hop.0,
        nic.eager_threshold,
        Bits(nic.route_diversity)
    );

    let _ =
        writeln!(out, "pack {} {}", m.packaging.nodes_per_rack, m.packaging.compute_per_io_node);

    let p = &m.power;
    out.push_str("power");
    for v in [
        p.node_static_w,
        p.core_idle_w,
        p.core_dyn_w,
        p.mem_w,
        p.nic_w,
        p.rack_overhead_w,
        p.psu_efficiency,
    ] {
        let _ = write!(out, " {}", Bits(v));
    }
    out.push('\n');
}

fn parse_program(c: &mut Fields<'_>) -> Result<ProgramSpec, ParseError> {
    Ok(match c.tok("program kind")? {
        "halo" => ProgramSpec::Halo(HaloConfig {
            grid: Grid2D::new(c.num("rows")?, c.num("cols")?),
            words: c.num("words")?,
            protocol: c.one_of("protocol", &PROTOCOLS, protocol_name)?,
            reps: c.num("reps")?,
        }),
        "md" => ProgramSpec::Md {
            ranks: c.num("ranks")?,
            cfg: MdConfig {
                code: c.one_of("md code", &MD_CODES, md_code_name)?,
                atoms: c.num("atoms")?,
                neighbors: c.num("neighbors")?,
                pme_mesh: c.num("pme_mesh")?,
                output_every: c.num("output_every")?,
                steps: c.num("steps")?,
            },
        },
        "hpl" => ProgramSpec::Hpl(HplConfig {
            n: c.num("n")?,
            nb: c.num("nb")?,
            grid: Grid2D::new(c.num("rows")?, c.num("cols")?),
            samples: c.num("samples")?,
        }),
        "imb-allreduce" => ProgramSpec::ImbAllreduce {
            ranks: c.num("ranks")?,
            bytes: c.num("bytes")?,
            dtype: c.parse_with("dtype", DType::parse)?,
        },
        "pop" => ProgramSpec::Pop {
            ranks: c.num("ranks")?,
            threads: c.num("threads")?,
            cfg: hpcsim_apps::PopConfig {
                nx: c.num("nx")?,
                ny: c.num("ny")?,
                nz: c.num("nz")?,
                steps_per_day: c.bits("steps_per_day")?,
                cg_iters: c.num("cg_iters")?,
                chron_gear: c.bool01("chron_gear")?,
                cg_sim: c.num("cg_sim")?,
                flops_per_point: c.bits("flops_per_point")?,
                imbalance: c.bits("imbalance")?,
            },
        },
        t => return c.err(format!("unknown program {t:?}")),
    })
}

fn parse_machine(lines: &mut Lines<'_>) -> Result<MachineSpec, ParseError> {
    let (id, cores_per_node, coherence, l3_shared_mib) = lines.keyed("machine", |c| {
        let id = c.one_of("machine id", &MACHINES, machine_name)?;
        let cores_per_node = c.num("cores_per_node")?;
        Ok((
            id,
            cores_per_node,
            c.one_of("coherence", &COHERENCE, coherence_name)?,
            c.opt_bits("l3")?,
        ))
    })?;
    let core = lines.keyed("core", |c| {
        Ok(CoreArch {
            name: "",
            clock_hz: c.bits("clock_hz")?,
            flops_per_cycle: c.bits("flops_per_cycle")?,
            l1_data_kib: c.num("l1_data_kib")?,
            line_bytes: c.num("line_bytes")?,
            l2: match c.tok("l2 kind")? {
                "pf" => L2Kind::PrefetchEngine { streams: c.num("streams")? },
                "cache" => L2Kind::Cache { kib: c.num("kib")? },
                t => return c.err(format!("bad l2 kind {t:?}")),
            },
            mem_bw_core: c.bits("mem_bw_core")?,
            irregular_eff: c.bits("irregular_eff")?,
        })
    })?;
    let mem = lines.keyed("mem", |c| {
        Ok(MemorySpec {
            capacity_gib: c.bits("capacity_gib")?,
            bw_bytes: c.bits("bw_bytes")?,
            stream_eff_single: c.bits("stream_eff_single")?,
            stream_eff_loaded: c.bits("stream_eff_loaded")?,
            latency: SimTime(c.num("latency")?),
        })
    })?;
    let nic = lines.keyed("nic", |c| {
        Ok(NicSpec {
            torus_link_bw: c.bits("torus_link_bw")?,
            torus_links: c.num("torus_links")?,
            injection_bw: c.bits("injection_bw")?,
            tree_bw: c.opt_bits("tree_bw")?,
            has_barrier_network: c.bool01("has_barrier_network")?,
            o_send: SimTime(c.num("o_send")?),
            o_recv: SimTime(c.num("o_recv")?),
            per_hop: SimTime(c.num("per_hop")?),
            eager_threshold: c.num("eager_threshold")?,
            route_diversity: c.bits("route_diversity")?,
        })
    })?;
    let packaging = lines.keyed("pack", |c| {
        Ok(Packaging {
            nodes_per_rack: c.num("nodes_per_rack")?,
            compute_per_io_node: c.num("compute_per_io_node")?,
        })
    })?;
    let power = lines.keyed("power", |c| {
        Ok(PowerSpec {
            node_static_w: c.bits("node_static_w")?,
            core_idle_w: c.bits("core_idle_w")?,
            core_dyn_w: c.bits("core_dyn_w")?,
            mem_w: c.bits("mem_w")?,
            nic_w: c.bits("nic_w")?,
            rack_overhead_w: c.bits("rack_overhead_w")?,
            psu_efficiency: c.bits("psu_efficiency")?,
        })
    })?;
    Ok(MachineSpec {
        id,
        cores_per_node,
        core,
        coherence,
        l3_shared_mib,
        mem,
        nic,
        packaging,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_dc};

    fn halo_cfg() -> HaloConfig {
        HaloConfig {
            grid: Grid2D::new(16, 8),
            words: 2048,
            protocol: HaloProtocol::IrecvIsend,
            reps: 2,
        }
    }

    #[test]
    fn canon_round_trips_through_parse() {
        let specs = [
            ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::xyzt(), halo_cfg()),
            ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::txyz(), halo_cfg())
                .with_faults(42, FaultProfile::Mixed),
            ScenarioSpec::md(&xt4_dc(), 64, MdConfig::pmemd_rub()),
            ScenarioSpec::hpl(
                &bluegene_p(),
                ExecMode::Smp,
                HplConfig { n: 10_000, nb: 144, grid: Grid2D::new(8, 8), samples: 4 },
            ),
            ScenarioSpec::imb_allreduce(&xt4_dc(), ExecMode::Vn, 128, 32_768, DType::F64),
            ScenarioSpec::pop(
                &bluegene_p(),
                ExecMode::Vn,
                256,
                1,
                hpcsim_apps::PopConfig::default(),
            ),
        ];
        for spec in specs {
            let canon = spec.to_canon();
            let parsed = ScenarioSpec::parse(&canon).expect("parse");
            assert_eq!(parsed.to_canon(), canon);
            assert_eq!(parsed.hash(), spec.hash());
            assert_eq!(parsed.program_hash(), spec.program_hash());
        }
    }

    #[test]
    fn canonicalization_collides_only_by_construction() {
        let m = bluegene_p();
        let xt = xt4_dc();
        // mapping is live for halo-on-bluegene …
        let a = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::txyz(), halo_cfg());
        let b = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::xyzt(), halo_cfg());
        assert_ne!(a.hash(), b.hash());
        // … but normalized away on a machine whose layout ignores it
        let c = ScenarioSpec::halo(&xt, ExecMode::Vn, Mapping::txyz(), halo_cfg());
        let d = ScenarioSpec::halo(&xt, ExecMode::Vn, Mapping::xyzt(), halo_cfg());
        assert_eq!(c.hash(), d.hash());
        // mode is normalized for MD (always VN) …
        let e = ScenarioSpec {
            mode: ExecMode::Smp,
            ..ScenarioSpec::md(&m, 64, MdConfig::lammps_rub())
        }
        .canonicalized();
        assert_eq!(e.hash(), ScenarioSpec::md(&m, 64, MdConfig::lammps_rub()).hash());
        // … and faults are dropped on fault-less entry points
        let f = ScenarioSpec::md(&m, 64, MdConfig::lammps_rub()).with_faults(9, FaultProfile::Link);
        assert_eq!(f.hash(), ScenarioSpec::md(&m, 64, MdConfig::lammps_rub()).hash());
        // display-only name never splits a hash
        let mut named = m.clone();
        named.core.name = "double hummer";
        assert_eq!(
            ScenarioSpec::halo(&named, ExecMode::Vn, Mapping::txyz(), halo_cfg()).hash(),
            a.hash()
        );
    }

    #[test]
    fn axes_that_matter_split_the_hash() {
        let m = bluegene_p();
        let base = ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::txyz(), halo_cfg());
        let mut words = halo_cfg();
        words.words = 4096;
        let variants = [
            ScenarioSpec::halo(&m, ExecMode::Vn, Mapping::txyz(), words),
            ScenarioSpec::halo(&m, ExecMode::Smp, Mapping::txyz(), halo_cfg()),
            ScenarioSpec::halo(&xt4_dc(), ExecMode::Vn, Mapping::txyz(), halo_cfg()),
            ScenarioSpec::halo(
                &m.clone().with_flat_contention(),
                ExecMode::Vn,
                Mapping::txyz(),
                halo_cfg(),
            ),
            base.clone().with_faults(1, FaultProfile::Link),
            base.clone().with_faults(2, FaultProfile::Link),
            base.clone().with_faults(1, FaultProfile::Noise),
        ];
        for v in &variants {
            assert_ne!(v.hash(), base.hash(), "{}", v.to_canon());
        }
        // program hash tracks the program alone
        assert_eq!(variants[1].program_hash(), base.program_hash());
        assert_eq!(variants[2].program_hash(), base.program_hash());
        assert_ne!(variants[0].program_hash(), base.program_hash());
    }

    #[test]
    fn malformed_canon_is_diagnosed() {
        assert!(ScenarioSpec::parse("").is_err());
        assert!(ScenarioSpec::parse("nonsense\n").is_err());
        let good = ScenarioSpec::md(&bluegene_p(), 8, MdConfig::lammps_rub()).to_canon();
        // drop the faults line
        let truncated: String = good.lines().take(8).map(|l| format!("{l}\n")).collect();
        assert!(ScenarioSpec::parse(&truncated).is_err());
        // corrupt a float into a decimal
        let bad = good.replace("0x", "zz");
        assert!(ScenarioSpec::parse(&bad).is_err());
    }

    #[test]
    fn setup_lines_round_trip_standalone() {
        let faults = Some(FaultSpec { seed: 5, profile: FaultProfile::Loss });
        for (m, mode, mapping, faults) in [
            (bluegene_p(), ExecMode::Vn, Mapping::xyzt(), faults),
            (xt4_dc(), ExecMode::Dual, Mapping::txyz(), None),
            (bluegene_p().with_flat_contention(), ExecMode::Smp, Mapping::txyz(), None),
        ] {
            let mut text = String::new();
            write_setup(&mut text, &m, mode, mapping, faults);
            assert_eq!(text.lines().count(), SETUP_LINES);
            let with_tail = format!("{text}tail\n");
            let mut lines = Lines::new(&with_tail);
            let setup = parse_setup(&mut lines).expect("setup parse");
            // the cursor is left on the line after the setup
            lines.keyed("tail", |_| Ok(())).expect("tail line");
            lines.finish().expect("nothing after the tail");
            assert_eq!((setup.mode, setup.mapping, setup.faults), (mode, mapping, faults));
            let mut again = String::new();
            write_setup(&mut again, &setup.machine, setup.mode, setup.mapping, setup.faults);
            assert_eq!(again, text);
        }
        // diagnostics carry the enclosing file's line numbers
        let mut lines = Lines::new("a\nb\nc\ngarbage\n");
        for key in ["a", "b", "c"] {
            lines.keyed(key, |_| Ok(())).expect("filler line");
        }
        assert_eq!(parse_setup(&mut lines).unwrap_err().line, 4);
    }

    #[test]
    fn integers_wider_than_their_field_are_rejected() {
        // 2^32 + 4 would truncate to 4 cores per node if parsed as u64
        // and cast
        let good = ScenarioSpec::md(&bluegene_p(), 8, MdConfig::lammps_rub()).to_canon();
        let bad = good.replace("machine bgp 4 ", "machine bgp 4294967300 ");
        assert_ne!(bad, good);
        let e = ScenarioSpec::parse(&bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("cores_per_node"), "{e}");
        let bad = good.replace("program md 8 ", "program md 18446744073709551616 ");
        assert!(ScenarioSpec::parse(&bad).unwrap_err().message.contains("ranks"));
    }

    #[test]
    fn golden_hashes_hold() {
        // Captured before the setup lines got their shared writer: every
        // tier-1 and tier-2 cache key must survive refactors of the text
        // form unchanged, one spec per program family.
        let halo = ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::xyzt(), halo_cfg())
            .with_faults(42, FaultProfile::Mixed);
        let specs = [
            (halo, "c89ad08225e2b1c3c3febc86a64dae5a", "d5322b5aee58af6e23a028e2dcb5ea9d"),
            (
                ScenarioSpec::md(&xt4_dc(), 64, MdConfig::pmemd_rub()),
                "ea2da147c44323bc65ed0805dd9db9c7",
                "4d6335cda1f446b552a42dc47752b013",
            ),
            (
                ScenarioSpec::hpl(
                    &bluegene_p(),
                    ExecMode::Smp,
                    HplConfig { n: 10_000, nb: 144, grid: Grid2D::new(8, 8), samples: 4 },
                ),
                "a52b80412484a7b6bc4ed2d48151a9ef",
                "566bbc7c1eb2751b8aeeffd589e2029b",
            ),
            (
                ScenarioSpec::imb_allreduce(&xt4_dc(), ExecMode::Dual, 128, 32_768, DType::F32),
                "ab953407fc760d1f13944b24fefafbd5",
                "59ed86d46e5cba96b48c0e7590b97c41",
            ),
            (
                ScenarioSpec::pop(
                    &bluegene_p(),
                    ExecMode::Vn,
                    256,
                    1,
                    hpcsim_apps::PopConfig::default(),
                ),
                "4df86e133d90b8626910af2cf0fc6a28",
                "1ed4beaa6d464ba91fa6a779123da68e",
            ),
        ];
        for (spec, hash, program_hash) in specs {
            assert_eq!(spec.hash().to_string(), hash, "{}", spec.to_canon());
            assert_eq!(spec.program_hash().to_string(), program_hash, "{}", spec.to_canon());
        }
    }

    #[test]
    fn hash_is_stable_across_calls_and_documents_itself() {
        let spec = ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::txyz(), halo_cfg());
        assert_eq!(spec.hash(), spec.hash());
        assert_eq!(format!("{}", spec.hash()).len(), 32);
        // FNV-1a-128 sanity pin on a known vector ("a")
        assert_eq!(format!("{}", fnv1a_128(b"a")), "d228cb696f1a8caf78912b704e4a8964");
    }
}
