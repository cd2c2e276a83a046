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
//!   the machine is a BlueGene — every other program lays ranks out
//!   with [`hpcsim_mpi::RankLayout::default_for`], which never reads the
//!   mapping;
//! * **mode** is forced to `VN` for the MD proxies (they always run
//!   virtual-node mode) and to the mode memory allows for GYRO
//!   ([`hpcsim_apps::mode_for_memory`]);
//! * **ranks** of a CAM program are clamped to its dycore's cap, where
//!   it runs anyway;
//! * **placement** of PTRANS is forced to compact on a BlueGene, which
//!   places by its own default;
//! * **faults** are dropped unless the program is HALO (the only
//!   fault-replayable program);
//! * display-only names are excluded — the machine's `core.name` (it
//!   parses empty) and the CAM problem's `name` (it parses back as the
//!   preset with the same fields).
//!
//! Anything else that differs produces a different canonical text and
//! therefore (FNV-1a 128) a different hash. Every float is serialized
//! as its IEEE-754 bit pattern, so serialize → parse → re-serialize is
//! the identity and hashing is exact, not approximate.
//!
//! ## Sub-keys
//!
//! [`ScenarioSpec::program_hash`] hashes only the `program` line. A
//! program's recording, and so its compiled DAG, depends on nothing
//! else — not machine, mapping, mode or faults — so the program hash is
//! the tier-2 key under which a DAG is shared by every query that
//! prices the same program on it.
//!
//! ## Program lines
//!
//! Each program's fields are listed once, in text order, and one walk
//! over them both writes and reads the `program` line, so writer and
//! parser cannot drift apart. Integers are written at their own width,
//! floats as [`Bits`], flags as `0`/`1` and keywords by name.
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

use hpcsim_apps::{self as apps, CamConfig, Dycore, GyroConfig, GyroProblem, MdCode, MdConfig};
use hpcsim_apps::{PopConfig, S3dConfig};
use hpcsim_engine::SimTime;
use hpcsim_faults::FaultProfile;
use hpcsim_hpcc::{self as hpcc, HaloConfig, HaloProtocol, HplConfig};
use hpcsim_machine::{
    CacheCoherence, CoreArch, ExecMode, L2Kind, MachineId, MachineSpec, MemorySpec, NicSpec,
    Packaging, PowerSpec,
};
use hpcsim_mpi::wire::{Bits, Fields, Lines, ParseError};
use hpcsim_mpi::{RankLayout, SimConfig, SimResult, Traces};
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping, Placement};
use std::fmt::Write as _;

/// Walk each field expression through a [`Codec`], in order.
macro_rules! fields {
    ($c:ident; $($e:expr),+ $(,)?) => {{
        $($c.field(stringify!($e), &mut $e)?;)+
        Ok(())
    }};
}

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

/// The program axis of a scenario: one MPI program the paper prices, at
/// one configuration, on how many ranks. Every program records a
/// machine-free trace ([`ProgramSpec::record`]), runs on a
/// [`Setup`]-dependent simulator configuration
/// ([`ProgramSpec::sim_config`]) and reduces a priced run to its result
/// vector ([`ProgramSpec::reduce`]; layout in the [`crate::eval`] docs).
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
    /// HPL (Fig 1(a), the TOP500 run and Table 3); ranks =
    /// `cfg.grid.size()`.
    Hpl(HplConfig),
    /// IMB Allreduce latency at one point (Fig 3).
    ImbAllreduce {
        /// MPI ranks.
        ranks: usize,
        /// Payload bytes.
        bytes: u64,
        /// Element type.
        dtype: DType,
    },
    /// POP ocean proxy (Fig 4, Table 3).
    Pop {
        /// MPI ranks.
        ranks: usize,
        /// OpenMP threads per task.
        threads: u32,
        /// Problem configuration.
        cfg: PopConfig,
    },
    /// S3D weak-scaling proxy (Fig 6).
    S3d {
        /// MPI ranks.
        ranks: usize,
        /// Problem configuration.
        cfg: S3dConfig,
    },
    /// GYRO proxy (Fig 7); its mode is the one memory allows
    /// ([`hpcsim_apps::mode_for_memory`]).
    Gyro {
        /// MPI ranks.
        ranks: usize,
        /// Problem configuration.
        cfg: GyroConfig,
    },
    /// CAM proxy (Fig 5); ranks above the dycore's cap run at the cap.
    Cam {
        /// MPI ranks requested.
        ranks: usize,
        /// OpenMP threads per task.
        threads: u32,
        /// Problem (its display `name` is not part of the text).
        cfg: CamConfig,
    },
    /// HPCC MPI FFT of `n` points (Fig 1(b)).
    Fft {
        /// MPI ranks.
        ranks: usize,
        /// Vector length.
        n: u64,
    },
    /// HPCC PTRANS of order `n` (Fig 1(c)).
    Ptrans {
        /// MPI ranks.
        ranks: usize,
        /// Matrix order.
        n: u64,
        /// Node placement on an XT (BlueGene machines ignore it).
        placement: Placement,
    },
    /// HPCC MPI RandomAccess (Fig 1(d)).
    RandomAccess {
        /// MPI ranks.
        ranks: usize,
        /// Table bytes per rank.
        table_bytes: u64,
        /// Updates per rank.
        updates: u64,
    },
    /// IMB Bcast latency at one point (Fig 3).
    ImbBcast {
        /// MPI ranks.
        ranks: usize,
        /// Payload bytes.
        bytes: u64,
    },
    /// One ping-pong run between two ranks (Table 2): the small- and
    /// large-payload runs are two programs, combined by
    /// [`hpcsim_hpcc::pingpong_of`].
    Pingpong {
        /// Payload bytes.
        bytes: u64,
        /// Round trips.
        reps: u32,
    },
    /// One HPCC random-ring run (Table 2): the small- and large-payload
    /// runs are two programs, combined by [`hpcsim_hpcc::RingResult::of`].
    RandomRing {
        /// MPI ranks.
        ranks: usize,
        /// Message bytes.
        bytes: u64,
        /// Ring permutation seed.
        seed: u64,
    },
}

impl ProgramSpec {
    /// MPI ranks the program runs on.
    pub fn ranks(&self) -> usize {
        match self {
            ProgramSpec::Halo(HaloConfig { grid, .. })
            | ProgramSpec::Hpl(HplConfig { grid, .. }) => grid.size(),
            ProgramSpec::Cam { ranks, cfg, .. } => cfg.mpi_ranks(*ranks),
            ProgramSpec::Pingpong { .. } => 2,
            ProgramSpec::Md { ranks, .. }
            | ProgramSpec::ImbAllreduce { ranks, .. }
            | ProgramSpec::Pop { ranks, .. }
            | ProgramSpec::S3d { ranks, .. }
            | ProgramSpec::Gyro { ranks, .. }
            | ProgramSpec::Fft { ranks, .. }
            | ProgramSpec::Ptrans { ranks, .. }
            | ProgramSpec::RandomAccess { ranks, .. }
            | ProgramSpec::ImbBcast { ranks, .. }
            | ProgramSpec::RandomRing { ranks, .. } => *ranks,
        }
    }

    /// The program's machine-free recording.
    pub fn record(&self) -> Traces {
        match self {
            ProgramSpec::Halo(cfg) => hpcc::halo_recording(cfg),
            ProgramSpec::Md { ranks, cfg } => apps::md_traces(*ranks, cfg),
            ProgramSpec::Hpl(cfg) => hpcc::hpl_traces(cfg),
            ProgramSpec::ImbAllreduce { ranks, bytes, dtype } => {
                hpcc::imb_allreduce_traces(*ranks, *bytes, *dtype)
            }
            ProgramSpec::Pop { ranks, threads, cfg } => apps::pop_traces(*ranks, *threads, cfg),
            ProgramSpec::S3d { ranks, cfg } => apps::s3d_traces(*ranks, cfg),
            ProgramSpec::Gyro { ranks, cfg } => apps::gyro_traces(*ranks, cfg),
            ProgramSpec::Cam { ranks, threads, cfg } => apps::cam_traces(*ranks, *threads, cfg),
            ProgramSpec::Fft { ranks, n } => hpcc::fft_traces(*ranks, *n),
            ProgramSpec::Ptrans { ranks, n, .. } => hpcc::ptrans_traces(*ranks, *n),
            ProgramSpec::RandomAccess { ranks, table_bytes, updates } => {
                hpcc::ra_traces(*ranks, *table_bytes, *updates)
            }
            ProgramSpec::ImbBcast { ranks, bytes } => hpcc::imb_bcast_traces(*ranks, *bytes),
            ProgramSpec::Pingpong { bytes, reps } => hpcc::pingpong_traces(*bytes, *reps),
            ProgramSpec::RandomRing { ranks, bytes, seed } => {
                hpcc::random_ring_traces(*ranks, *bytes, *seed)
            }
        }
    }

    /// The simulator configuration the program runs on in `setup`, a
    /// canonical one (MD and GYRO take their mode from it).
    pub fn sim_config(&self, setup: &Setup) -> SimConfig {
        let Setup { machine, mode, mapping, .. } = setup;
        let ranks = self.ranks();
        match self {
            ProgramSpec::Halo(cfg) => cfg.sim_config(machine, *mode, *mapping),
            // a BlueGene places PTRANS by its default, an XT by the placement
            ProgramSpec::Ptrans { placement, .. } if !machine.id.is_bluegene() => {
                let layout = RankLayout::xt(machine, ranks, *mode, *placement);
                SimConfig { machine: machine.clone(), mode: *mode, threads: 1, layout }
            }
            ProgramSpec::Pop { threads, .. } | ProgramSpec::Cam { threads, .. } => {
                SimConfig { threads: *threads, ..SimConfig::new(machine.clone(), ranks, *mode) }
            }
            _ => SimConfig::new(machine.clone(), ranks, *mode),
        }
    }

    /// The result vector of a run priced at `point` (layout in the
    /// [`crate::eval`] docs).
    pub fn reduce(&self, point: &SimConfig, res: &SimResult) -> Vec<f64> {
        match self {
            ProgramSpec::Halo(cfg) => vec![cfg.per_exchange(res)],
            ProgramSpec::Md { cfg, .. } => {
                let r = apps::MdResult::of(res, cfg);
                vec![r.seconds_per_step, r.ns_per_day]
            }
            ProgramSpec::Hpl(cfg) => {
                let r = hpcc::HplResult::of(res, &point.machine, cfg);
                vec![r.seconds, r.gflops, r.efficiency]
            }
            ProgramSpec::ImbAllreduce { ranks, bytes, .. }
            | ProgramSpec::ImbBcast { ranks, bytes } => {
                vec![hpcc::ImbPoint::of(res, *ranks, *bytes).usec]
            }
            ProgramSpec::Pop { cfg, .. } => {
                let r = apps::PopResult::of(res, cfg);
                vec![r.syd, r.baroclinic_s, r.barrier_s, r.barotropic_s]
            }
            ProgramSpec::S3d { ranks, cfg } => {
                let r = apps::S3dResult::of(res, *ranks, cfg);
                vec![r.core_hours_per_point_step, r.seconds_per_step]
            }
            ProgramSpec::Gyro { cfg, .. } => {
                vec![apps::GyroResult::of(res, cfg, point.mode).seconds_per_step]
            }
            ProgramSpec::Cam { threads, cfg, .. } => {
                let r = apps::CamResult::of(res, *threads, cfg);
                vec![r.years_per_day, r.cores as f64]
            }
            ProgramSpec::Fft { n, .. } => {
                let r = hpcc::FftResult::of(res, *n);
                vec![r.n as f64, r.seconds, r.gflops]
            }
            ProgramSpec::Ptrans { n, .. } => {
                let r = hpcc::PtransResult::of(res, *n);
                vec![r.n as f64, r.seconds, r.gbps]
            }
            ProgramSpec::RandomAccess { ranks, updates, .. } => {
                let r = hpcc::RaResult::of(res, *ranks, *updates);
                vec![r.updates as f64, r.seconds, r.gups]
            }
            ProgramSpec::Pingpong { .. } | ProgramSpec::RandomRing { .. } => {
                vec![res.makespan().as_secs()]
            }
        }
    }

    /// The program's keyword on its text line.
    fn kind(&self) -> &'static str {
        match self {
            ProgramSpec::Halo(_) => "halo",
            ProgramSpec::Md { .. } => "md",
            ProgramSpec::Hpl(_) => "hpl",
            ProgramSpec::ImbAllreduce { .. } => "imb-allreduce",
            ProgramSpec::Pop { .. } => "pop",
            ProgramSpec::S3d { .. } => "s3d",
            ProgramSpec::Gyro { .. } => "gyro",
            ProgramSpec::Cam { .. } => "cam",
            ProgramSpec::Fft { .. } => "fft",
            ProgramSpec::Ptrans { .. } => "ptrans",
            ProgramSpec::RandomAccess { .. } => "ra",
            ProgramSpec::ImbBcast { .. } => "imb-bcast",
            ProgramSpec::Pingpong { .. } => "pingpong",
            ProgramSpec::RandomRing { .. } => "random-ring",
        }
    }

    /// One program of every kind: the templates [`parse_program`] reads a
    /// line's fields into.
    fn blanks() -> [ProgramSpec; 14] {
        let grid = Grid2D::new(1, 1);
        [
            ProgramSpec::Halo(HaloConfig {
                grid,
                words: 0,
                protocol: HaloProtocol::Sendrecv,
                reps: 0,
            }),
            ProgramSpec::Md { ranks: 0, cfg: MdConfig::lammps_rub() },
            ProgramSpec::Hpl(HplConfig { n: 0, nb: 0, grid, samples: 0 }),
            ProgramSpec::ImbAllreduce { ranks: 0, bytes: 0, dtype: DType::F64 },
            ProgramSpec::Pop { ranks: 0, threads: 0, cfg: PopConfig::default() },
            ProgramSpec::S3d { ranks: 0, cfg: S3dConfig::default() },
            ProgramSpec::Gyro { ranks: 0, cfg: GyroConfig::b1_std() },
            ProgramSpec::Cam { ranks: 0, threads: 0, cfg: CamConfig::t42() },
            ProgramSpec::Fft { ranks: 0, n: 0 },
            ProgramSpec::Ptrans { ranks: 0, n: 0, placement: Placement::Compact },
            ProgramSpec::RandomAccess { ranks: 0, table_bytes: 0, updates: 0 },
            ProgramSpec::ImbBcast { ranks: 0, bytes: 0 },
            ProgramSpec::Pingpong { bytes: 0, reps: 0 },
            ProgramSpec::RandomRing { ranks: 0, bytes: 0, seed: 0 },
        ]
    }

    /// Every field of the program line in text order, listed once for
    /// both directions: [`write_program`] and [`parse_program`] walk it.
    fn fields(&mut self, c: &mut Codec<'_, '_>) -> Result<(), ParseError> {
        // every config is destructured in full: a new field does not
        // compile until it has a place in the text
        match self {
            ProgramSpec::Halo(HaloConfig { grid, words, protocol, reps }) => {
                fields!(c; grid.rows, grid.cols, *words, *protocol, *reps)
            }
            ProgramSpec::Md { ranks, cfg } => {
                let MdConfig { code, atoms, neighbors, pme_mesh, output_every, steps } = cfg;
                fields!(c; *ranks, *code, *atoms, *neighbors, *pme_mesh, *output_every, *steps)
            }
            ProgramSpec::Hpl(HplConfig { n, nb, grid, samples }) => {
                fields!(c; *n, *nb, grid.rows, grid.cols, *samples)
            }
            ProgramSpec::ImbAllreduce { ranks, bytes, dtype } => fields!(c; *ranks, *bytes, *dtype),
            ProgramSpec::Pop { ranks, threads, cfg } => {
                let PopConfig {
                    nx,
                    ny,
                    nz,
                    steps_per_day,
                    cg_iters,
                    chron_gear,
                    cg_sim,
                    flops_per_point,
                    imbalance,
                } = cfg;
                fields!(c; *ranks, *threads, *nx, *ny, *nz, *steps_per_day, *cg_iters, *chron_gear,
                    *cg_sim, *flops_per_point, *imbalance)
            }
            ProgramSpec::S3d { ranks, cfg } => {
                let S3dConfig { pts_per_rank_edge, species, rk_stages, steps } = cfg;
                fields!(c; *ranks, *pts_per_rank_edge, *species, *rk_stages, *steps)
            }
            ProgramSpec::Gyro { ranks, cfg: GyroConfig { problem, steps } } => {
                fields!(c; *ranks, *problem, *steps)
            }
            ProgramSpec::Cam { ranks, threads, cfg } => {
                let CamConfig { name: _, dycore, nlon, nlat, nlev, steps_per_day } = cfg;
                fields!(c; *ranks, *threads, *dycore, *nlon, *nlat, *nlev, *steps_per_day)
            }
            ProgramSpec::Fft { ranks, n } => fields!(c; *ranks, *n),
            ProgramSpec::Ptrans { ranks, n, placement } => fields!(c; *ranks, *n, *placement),
            ProgramSpec::RandomAccess { ranks, table_bytes, updates } => {
                fields!(c; *ranks, *table_bytes, *updates)
            }
            ProgramSpec::ImbBcast { ranks, bytes } => fields!(c; *ranks, *bytes),
            ProgramSpec::Pingpong { bytes, reps } => fields!(c; *bytes, *reps),
            ProgramSpec::RandomRing { ranks, bytes, seed } => fields!(c; *ranks, *bytes, *seed),
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

/// One complete what-if query: a program on a setup. Construct with
/// [`ScenarioSpec::new`] (or [`ScenarioSpec::halo`]), which applies the
/// canonicalization rules up front.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// What runs.
    pub program: ProgramSpec,
    /// Where and how it runs.
    pub setup: Setup,
}

impl ScenarioSpec {
    /// `program` on `setup`, canonicalized.
    pub fn new(program: ProgramSpec, setup: Setup) -> Self {
        ScenarioSpec { program, setup }.canonicalized()
    }

    /// A HALO query.
    pub fn halo(machine: &MachineSpec, mode: ExecMode, mapping: Mapping, cfg: HaloConfig) -> Self {
        ScenarioSpec::new(ProgramSpec::Halo(cfg), Setup { mapping, ..Setup::new(machine, mode) })
    }

    /// This spec with an armed fault plan (HALO only: canonicalization
    /// drops faults on programs without a fault-replay entry point).
    pub fn with_faults(mut self, seed: u64, profile: FaultProfile) -> Self {
        self.setup.faults = Some(FaultSpec { seed, profile });
        self.canonicalized()
    }

    /// Apply the normalization rules from the module docs. Idempotent.
    pub fn canonicalized(mut self) -> Self {
        let s = &mut self.setup;
        let bluegene = s.machine.id.is_bluegene();
        match &mut self.program {
            ProgramSpec::Md { .. } => s.mode = ExecMode::Vn,
            ProgramSpec::Gyro { ranks, cfg } => {
                s.mode = apps::mode_for_memory(&s.machine, cfg, *ranks)
            }
            ProgramSpec::Cam { ranks, cfg, .. } => *ranks = cfg.mpi_ranks(*ranks),
            ProgramSpec::Ptrans { placement, .. } if bluegene => *placement = Placement::Compact,
            _ => {}
        }
        let halo = matches!(self.program, ProgramSpec::Halo(_));
        if !(halo && bluegene) {
            s.mapping = Mapping::txyz();
        }
        if !halo {
            s.faults = None;
        }
        s.machine.core.name = "";
        self
    }

    /// The stable canonical text (see module docs for the guarantees).
    pub fn to_canon(&self) -> String {
        let mut c = self.clone().canonicalized();
        let mut out = String::with_capacity(512);
        out.push_str(SPEC_MAGIC);
        out.push('\n');
        write_program(&mut out, &mut c.program);
        let Setup { machine, mode, mapping, faults } = &c.setup;
        write_setup(&mut out, machine, *mode, *mapping, *faults);
        out
    }

    /// Content hash of the full canonical form: the tier-1 result key.
    pub fn hash(&self) -> SpecHash {
        fnv1a_128(self.to_canon().as_bytes())
    }

    /// Content hash of the program line alone: the tier-2 DAG key.
    /// Every query pricing the same program shares this, whatever its
    /// machine/mapping/mode/faults.
    pub fn program_hash(&self) -> SpecHash {
        let mut line = String::with_capacity(96);
        write_program(&mut line, &mut self.clone().canonicalized().program);
        fnv1a_128(line.as_bytes())
    }

    /// Parse a canonical text back into a spec (machine `core.name`
    /// comes back empty — it is not part of the canonical form).
    pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
        let mut lines = Lines::new(text);
        lines.keyed(SPEC_MAGIC, |_| Ok(()))?;
        let program = lines.keyed("program", parse_program)?;
        let setup = parse_setup(&mut lines)?;
        lines.finish()?;
        Ok(ScenarioSpec { program, setup }.canonicalized())
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

impl Setup {
    /// `machine` in `mode`, with the default mapping and no faults.
    pub fn new(machine: &MachineSpec, mode: ExecMode) -> Self {
        Setup { machine: machine.clone(), mode, mapping: Mapping::txyz(), faults: None }
    }
}

/// Lines [`write_setup`] writes: six machine lines (machine, core, mem,
/// nic, pack, power), then mode, mapping and faults.
pub const SETUP_LINES: usize = 9;

/// One direction of a text line walk: fields written out, or read back.
enum Codec<'a, 'b> {
    Write(&'a mut String),
    Read(&'a mut Fields<'b>),
}

/// [`Codec`] over whole lines: written out, or read from the cursor.
enum Block<'a, 'b> {
    Write(&'a mut String),
    Read(&'a mut Lines<'b>),
}

impl Block<'_, '_> {
    /// The line `key` and its fields, walked by `fields`.
    fn line(
        &mut self,
        key: &str,
        fields: impl FnOnce(&mut Codec<'_, '_>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        match self {
            Block::Write(out) => {
                out.push_str(key);
                fields(&mut Codec::Write(out))?;
                out.push('\n');
                Ok(())
            }
            Block::Read(lines) => lines.keyed(key, |c| fields(&mut Codec::Read(c))),
        }
    }
}

impl Codec<'_, '_> {
    /// Write `v` as the line's next field, or read that field into it.
    fn field<T: Field>(&mut self, what: &str, v: &mut T) -> Result<(), ParseError> {
        match self {
            Codec::Write(out) => v.put(out),
            Codec::Read(c) => *v = T::get(c, what)?,
        }
        Ok(())
    }
}

/// A value written as one space-led text field and read back exactly:
/// integers at their own width, floats as [`Bits`], flags as `0`/`1`,
/// keywords by name.
trait Field: Sized {
    fn put(&self, out: &mut String);
    fn get(c: &mut Fields<'_>, what: &str) -> Result<Self, ParseError>;
}

/// A [`Field`] impl from its writer (`$v` the value, written into
/// `$out`) and its reader (from `$c`, naming the field `$what`).
macro_rules! field {
    ($t:ty: |$v:ident, $out:ident| $put:expr; |$c:ident, $what:ident| $get:expr) => {
        impl Field for $t {
            fn put(&self, $out: &mut String) {
                let $v = self;
                let _ = $put;
            }
            fn get($c: &mut Fields<'_>, $what: &str) -> Result<Self, ParseError> {
                $get
            }
        }
    };
}
field!(u32: |v, out| write!(out, " {v}"); |c, what| c.num(what));
field!(u64: |v, out| write!(out, " {v}"); |c, what| c.num(what));
field!(usize: |v, out| write!(out, " {v}"); |c, what| c.num(what));
field!(f64: |v, out| write!(out, " {}", Bits(*v)); |c, what| c.bits(what));
field!(bool: |v, out| write!(out, " {}", *v as u8); |c, what| c.bool01(what));
field!(DType: |v, out| write!(out, " {}", v.name()); |c, what| c.parse_with(what, DType::parse));
// simulated nanoseconds
field!(SimTime: |v, out| write!(out, " {}", v.0); |c, what| Ok(SimTime(c.num(what)?)));
// `none`, or the value as bits
field!(Option<f64>: |v, out| match v {
    None => write!(out, " none"),
    Some(v) => write!(out, " {}", Bits(*v)),
}; |c, what| c.opt_bits(what));
// `pf` and the stream count, or `cache` and the size in KiB
field!(L2Kind: |v, out| match v {
    L2Kind::PrefetchEngine { streams } => write!(out, " pf {streams}"),
    L2Kind::Cache { kib } => write!(out, " cache {kib}"),
}; |c, what| match c.tok(what)? {
    "pf" => Ok(L2Kind::PrefetchEngine { streams: c.num("streams")? }),
    "cache" => Ok(L2Kind::Cache { kib: c.num("kib")? }),
    t => c.err(format!("bad l2 kind {t:?}")),
});
// `compact`, or `fragmented` followed by the spread and the seed
field!(Placement: |v, out| match v {
    Placement::Compact => write!(out, " compact"),
    Placement::Fragmented { spread, seed } => write!(out, " fragmented {} {seed}", Bits(*spread)),
}; |c, what| match c.tok(what)? {
    "compact" => Ok(Placement::Compact),
    "fragmented" => Ok(Placement::Fragmented { spread: c.bits("spread")?, seed: c.num("seed")? }),
    t => c.err(format!("bad placement {t:?}")),
});

/// Keyword fields. The writer is an exhaustive `match`, so a new variant
/// does not compile until it has a name; [`Fields::one_of`] reads the
/// name back through the same list.
macro_rules! keywords {
    ($($t:ty { $($v:path => $name:literal),+ $(,)? })*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut String) {
                out.push(' ');
                out.push_str(match self { $($v => $name),+ });
            }
            fn get(c: &mut Fields<'_>, what: &str) -> Result<Self, ParseError> {
                c.one_of(what, &[$($v),+], |v| match v { $($v => $name),+ })
            }
        }
    )*};
}
keywords! {
    HaloProtocol {
        HaloProtocol::IrecvIsend => "irecv-isend",
        HaloProtocol::IsendIrecv => "isend-irecv",
        HaloProtocol::Sendrecv => "sendrecv",
    }
    MdCode { MdCode::Lammps => "lammps", MdCode::Pmemd => "pmemd" }
    GyroProblem {
        GyroProblem::B1Std => "b1-std",
        GyroProblem::B3Gtc => "b3-gtc",
        GyroProblem::B3GtcModified => "b3-gtc-modified",
    }
    Dycore { Dycore::SpectralEulerian => "spectral", Dycore::FiniteVolume => "fv" }
    ExecMode { ExecMode::Smp => "smp", ExecMode::Dual => "dual", ExecMode::Vn => "vn" }
    MachineId {
        MachineId::BgL => "bgl",
        MachineId::BgP => "bgp",
        MachineId::Xt3 => "xt3",
        MachineId::Xt4Dc => "xt4dc",
        MachineId::Xt4Qc => "xt4qc",
    }
    CacheCoherence { CacheCoherence::Software => "sw", CacheCoherence::Hardware => "hw" }
}

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
    out.push_str("mode");
    mode.put(out);
    let _ = writeln!(out, "\nmapping {}", mapping.name());
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
        mode: lines.keyed("mode", |c| ExecMode::get(c, "mode"))?,
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

/// Write the program line of `p` (a canonical program: the walk takes
/// `&mut` only because it is shared with the reader).
fn write_program(out: &mut String, p: &mut ProgramSpec) {
    let _ = write!(out, "program {}", p.kind());
    let _ = p.fields(&mut Codec::Write(out));
    out.push('\n');
}

fn parse_program(c: &mut Fields<'_>) -> Result<ProgramSpec, ParseError> {
    let kind = c.tok("program kind")?;
    let Some(mut p) = ProgramSpec::blanks().into_iter().find(|p| p.kind() == kind) else {
        return c.err(format!("unknown program {kind:?}"));
    };
    p.fields(&mut Codec::Read(c))?;
    if let ProgramSpec::Cam { cfg, .. } = &mut p {
        // the display name is not in the text: the preset with these
        // fields, if any
        let presets = CamConfig::presets().into_iter();
        let preset = presets.into_iter().find(|p| *p == CamConfig { name: p.name, ..cfg.clone() });
        cfg.name = preset.map_or("", |p| p.name);
    }
    Ok(p)
}

/// The six machine lines, each a key and its fields in text order,
/// listed once for both directions. Every struct is destructured in
/// full, so a new machine field does not compile until it has a place in
/// the text. `core.name` is deliberately absent: display-only (see
/// module docs).
fn machine_lines(m: &mut MachineSpec, b: &mut Block<'_, '_>) -> Result<(), ParseError> {
    let MachineSpec {
        id,
        cores_per_node,
        core,
        coherence,
        l3_shared_mib,
        mem,
        nic,
        packaging,
        power,
    } = m;
    b.line("machine", |c| fields!(c; *id, *cores_per_node, *coherence, *l3_shared_mib))?;
    let CoreArch {
        name: _,
        clock_hz,
        flops_per_cycle,
        l1_data_kib,
        line_bytes,
        l2,
        mem_bw_core,
        irregular_eff,
    } = core;
    b.line("core", |c| {
        fields!(c; *clock_hz, *flops_per_cycle, *l1_data_kib, *line_bytes, *l2, *mem_bw_core, *irregular_eff)
    })?;
    let MemorySpec { capacity_gib, bw_bytes, stream_eff_single, stream_eff_loaded, latency } = mem;
    b.line(
        "mem",
        |c| fields!(c; *capacity_gib, *bw_bytes, *stream_eff_single, *stream_eff_loaded, *latency),
    )?;
    let NicSpec {
        torus_link_bw,
        torus_links,
        injection_bw,
        tree_bw,
        has_barrier_network,
        o_send,
        o_recv,
        per_hop,
        eager_threshold,
        route_diversity,
    } = nic;
    b.line("nic", |c| {
        fields!(c; *torus_link_bw, *torus_links, *injection_bw, *tree_bw, *has_barrier_network,
            *o_send, *o_recv, *per_hop, *eager_threshold, *route_diversity)
    })?;
    let Packaging { nodes_per_rack, compute_per_io_node } = packaging;
    b.line("pack", |c| fields!(c; *nodes_per_rack, *compute_per_io_node))?;
    let PowerSpec {
        node_static_w,
        core_idle_w,
        core_dyn_w,
        mem_w,
        nic_w,
        rack_overhead_w,
        psu_efficiency,
    } = power;
    b.line("power", |c| {
        fields!(c; *node_static_w, *core_idle_w, *core_dyn_w, *mem_w, *nic_w, *rack_overhead_w,
            *psu_efficiency)
    })
}

fn write_machine(out: &mut String, m: &MachineSpec) {
    let _ = machine_lines(&mut m.clone(), &mut Block::Write(out));
}

fn parse_machine(lines: &mut Lines<'_>) -> Result<MachineSpec, ParseError> {
    // every field is read over this template
    let mut m = hpcsim_machine::registry::bluegene_p();
    m.core.name = "";
    machine_lines(&mut m, &mut Block::Read(lines))?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_dc};

    fn spec(program: ProgramSpec, machine: &MachineSpec, mode: ExecMode) -> ScenarioSpec {
        ScenarioSpec::new(program, Setup::new(machine, mode))
    }

    fn md(machine: &MachineSpec, ranks: usize, cfg: MdConfig) -> ScenarioSpec {
        spec(ProgramSpec::Md { ranks, cfg }, machine, ExecMode::Vn)
    }

    /// One program of each kind besides HALO and MD, with its pinned
    /// (spec hash, program hash) on a fixed setup.
    fn programs() -> Vec<(ScenarioSpec, &'static str, &'static str)> {
        let hpl = HplConfig { n: 10_000, nb: 144, grid: Grid2D::new(8, 8), samples: 4 };
        let fragmented = Placement::Fragmented { spread: 1.5, seed: 3 };
        vec![
            (
                spec(ProgramSpec::Hpl(hpl), &bluegene_p(), ExecMode::Smp),
                "a52b80412484a7b6bc4ed2d48151a9ef",
                "566bbc7c1eb2751b8aeeffd589e2029b",
            ),
            (
                spec(
                    ProgramSpec::ImbAllreduce { ranks: 128, bytes: 32_768, dtype: DType::F32 },
                    &xt4_dc(),
                    ExecMode::Dual,
                ),
                "ab953407fc760d1f13944b24fefafbd5",
                "59ed86d46e5cba96b48c0e7590b97c41",
            ),
            (
                spec(
                    ProgramSpec::Pop { ranks: 256, threads: 1, cfg: PopConfig::default() },
                    &bluegene_p(),
                    ExecMode::Vn,
                ),
                "4df86e133d90b8626910af2cf0fc6a28",
                "1ed4beaa6d464ba91fa6a779123da68e",
            ),
            (
                spec(
                    ProgramSpec::S3d { ranks: 64, cfg: S3dConfig::default() },
                    &xt4_dc(),
                    ExecMode::Vn,
                ),
                "4aeedceb3f17b20cdffbb3f1e68637ba",
                "6e0cc5ffb8367552cbd8a056a0d068ca",
            ),
            (
                spec(
                    ProgramSpec::Gyro { ranks: 512, cfg: GyroConfig::b3_gtc() },
                    &bluegene_p(),
                    ExecMode::Vn,
                ),
                "ca0911ff6fe7b2d95a2c1c577c00915c",
                "351046c0f89685b24502ae83c0d59706",
            ),
            (
                spec(
                    ProgramSpec::Cam { ranks: 16, threads: 4, cfg: CamConfig::fv_2deg() },
                    &bluegene_p(),
                    ExecMode::Smp,
                ),
                "0e6d5632bd51f966124f45dba29a0aec",
                "7aeabae8f0ede961963f049e7870b006",
            ),
            (
                spec(ProgramSpec::Fft { ranks: 64, n: 1 << 20 }, &bluegene_p(), ExecMode::Vn),
                "530cffe9f68a3f1c3d4345c1af51f212",
                "1778ddd566f64f6a25f71565eeadf930",
            ),
            (
                spec(
                    ProgramSpec::Ptrans { ranks: 64, n: 4096, placement: fragmented },
                    &xt4_dc(),
                    ExecMode::Vn,
                ),
                "f992cad33759d4f10a23673c460d5d03",
                "d57008557e6e2f16b1dfcd45fb9871f7",
            ),
            (
                spec(
                    ProgramSpec::RandomAccess { ranks: 64, table_bytes: 1 << 20, updates: 1 << 12 },
                    &bluegene_p(),
                    ExecMode::Vn,
                ),
                "1ede254373fdc70a60a56071bbb58e02",
                "6ee0966e31f8cb11334f2241b76d2054",
            ),
            (
                spec(ProgramSpec::ImbBcast { ranks: 512, bytes: 1024 }, &xt4_dc(), ExecMode::Vn),
                "e7b761a88c001f7bdac1f11c163e5b30",
                "9814f09171ee1f105a38e789dd5bd320",
            ),
            (
                spec(ProgramSpec::Pingpong { bytes: 8, reps: 8 }, &bluegene_p(), ExecMode::Smp),
                "2cc527f059dce06abf4f6fa607da1fb1",
                "bc669491b08d67dd3110e419e1577557",
            ),
            (
                spec(
                    ProgramSpec::RandomRing { ranks: 64, bytes: 1 << 21, seed: 1 },
                    &xt4_dc(),
                    ExecMode::Vn,
                ),
                "199a8869046eb23cfcf0dc2bc5dcc898",
                "696d538999676f1d6b3506987353a900",
            ),
        ]
    }

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
        let mut specs = vec![
            ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::xyzt(), halo_cfg()),
            ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::txyz(), halo_cfg())
                .with_faults(42, FaultProfile::Mixed),
            md(&xt4_dc(), 64, MdConfig::pmemd_rub()),
        ];
        specs.extend(programs().into_iter().map(|(spec, ..)| spec));
        for cam in CamConfig::presets() {
            specs.push(spec(
                ProgramSpec::Cam { ranks: 8, threads: 1, cfg: cam },
                &xt4_dc(),
                ExecMode::Vn,
            ));
        }
        for spec in specs {
            let canon = spec.to_canon();
            let parsed = ScenarioSpec::parse(&canon).expect("parse");
            assert_eq!(parsed.to_canon(), canon);
            assert_eq!(parsed.hash(), spec.hash());
            assert_eq!(parsed.program_hash(), spec.program_hash());
            // every field, the CAM display name included, reads back
            assert_eq!(parsed, spec);
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
        // mode is normalized for MD (always VN) and GYRO (memory fit) …
        let lammps = || ProgramSpec::Md { ranks: 64, cfg: MdConfig::lammps_rub() };
        let e = spec(lammps(), &m, ExecMode::Smp);
        assert_eq!(e.hash(), md(&m, 64, MdConfig::lammps_rub()).hash());
        let gyro = || ProgramSpec::Gyro { ranks: 512, cfg: GyroConfig::b3_gtc() };
        assert_eq!(spec(gyro(), &m, ExecMode::Vn).setup.mode, ExecMode::Dual);
        assert_eq!(spec(gyro(), &m, ExecMode::Smp).hash(), spec(gyro(), &m, ExecMode::Vn).hash());
        // … CAM ranks past the dycore cap run at the cap …
        let cam = |ranks| ProgramSpec::Cam { ranks, threads: 1, cfg: CamConfig::t42() };
        assert_eq!(spec(cam(256), &m, ExecMode::Vn).hash(), spec(cam(64), &m, ExecMode::Vn).hash());
        assert_ne!(spec(cam(32), &m, ExecMode::Vn).hash(), spec(cam(64), &m, ExecMode::Vn).hash());
        // … PTRANS placement matters on an XT only …
        let ptrans = |placement| ProgramSpec::Ptrans { ranks: 64, n: 4096, placement };
        let frag = Placement::Fragmented { spread: 1.5, seed: 1 };
        assert_eq!(
            spec(ptrans(frag), &m, ExecMode::Vn).hash(),
            spec(ptrans(Placement::Compact), &m, ExecMode::Vn).hash()
        );
        assert_ne!(
            spec(ptrans(frag), &xt, ExecMode::Vn).hash(),
            spec(ptrans(Placement::Compact), &xt, ExecMode::Vn).hash()
        );
        // … and faults are dropped on fault-less programs
        let f = md(&m, 64, MdConfig::lammps_rub()).with_faults(9, FaultProfile::Link);
        assert_eq!(f.hash(), md(&m, 64, MdConfig::lammps_rub()).hash());
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
        let good = md(&bluegene_p(), 8, MdConfig::lammps_rub()).to_canon();
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
        let good = md(&bluegene_p(), 8, MdConfig::lammps_rub()).to_canon();
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
        // Captured before the setup lines got their shared writer (HALO,
        // MD, HPL, IMB Allreduce, POP) and when each later program joined
        // the table: every tier-1 and tier-2 cache key must survive
        // refactors of the text form unchanged, one spec per program.
        let halo = ScenarioSpec::halo(&bluegene_p(), ExecMode::Vn, Mapping::xyzt(), halo_cfg())
            .with_faults(42, FaultProfile::Mixed);
        let mut specs = vec![
            (halo, "c89ad08225e2b1c3c3febc86a64dae5a", "d5322b5aee58af6e23a028e2dcb5ea9d"),
            (
                md(&xt4_dc(), 64, MdConfig::pmemd_rub()),
                "ea2da147c44323bc65ed0805dd9db9c7",
                "4d6335cda1f446b552a42dc47752b013",
            ),
        ];
        specs.extend(programs());
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
