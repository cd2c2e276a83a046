//! Property tests pinning the canonical spec form: serialize →
//! deserialize → re-hash is the identity over randomized scenarios
//! across every program kind, machine, mode, mapping and fault
//! profile — and distinct canonical forms never share a hash (the
//! documented by-construction collisions are exactly the axes
//! canonicalization erases).

use hpcsim_apps::{CamConfig, GyroConfig, GyroProblem, MdConfig, PopConfig, S3dConfig};
use hpcsim_cache::{ProgramSpec, ScenarioSpec, Setup, SpecHash};
use hpcsim_faults::FaultProfile;
use hpcsim_hpcc::{HaloConfig, HaloProtocol, HplConfig};
use hpcsim_machine::registry::all_machines;
use hpcsim_machine::ExecMode;
use hpcsim_net::DType;
use hpcsim_topo::{Grid2D, Mapping, Placement};
use proptest::prelude::*;

/// Deterministic spec from a seed: a splitmix walk picks every axis, so
/// one `u64` names a point in the full scenario space.
fn spec_from_seed(seed: u64) -> ScenarioSpec {
    let mut state = seed;
    let mut next = move || {
        state = hpcsim_engine::splitmix64(state);
        state
    };
    let machines = all_machines();
    let machine = &machines[(next() % machines.len() as u64) as usize];
    let mode = match next() % 3 {
        0 => ExecMode::Vn,
        1 => ExecMode::Dual,
        _ => ExecMode::Smp,
    };
    let mappings = Mapping::predefined();
    let (_, mapping) = mappings[(next() % mappings.len() as u64) as usize];
    let ranks = 2 + (next() % 1024) as usize;
    let dtype = match next() % 3 {
        0 => DType::F32,
        1 => DType::F64,
        _ => DType::Int,
    };
    let program = match next() % 14 {
        0 => {
            let protos = HaloProtocol::all();
            ProgramSpec::Halo(HaloConfig {
                grid: Grid2D::new(1 + (next() % 16) as usize, 1 + (next() % 16) as usize),
                words: 1 + next() % 65_536,
                protocol: protos[(next() % protos.len() as u64) as usize],
                reps: 1 + (next() % 4) as u32,
            })
        }
        1 => {
            let cfg = if next() % 2 == 0 { MdConfig::lammps_rub() } else { MdConfig::pmemd_rub() };
            ProgramSpec::Md { ranks: 2 + (next() % 128) as usize, cfg }
        }
        2 => ProgramSpec::Hpl(HplConfig {
            n: 256 + next() % 8192,
            nb: 32 + next() % 224,
            grid: Grid2D::near_square(1 + (next() % 256) as usize),
            samples: 1 + (next() % 4) as usize,
        }),
        3 => ProgramSpec::ImbAllreduce { ranks, bytes: 8 + next() % (1 << 20), dtype },
        4 => ProgramSpec::Pop {
            ranks: 16 + (next() % 2048) as usize,
            threads: 1 + (next() % 4) as u32,
            cfg: PopConfig { chron_gear: next() % 2 == 0, ..PopConfig::default() },
        },
        5 => ProgramSpec::S3d {
            ranks,
            cfg: S3dConfig { species: 1 + next() % 40, ..S3dConfig::default() },
        },
        6 => {
            let problems = [GyroProblem::B1Std, GyroProblem::B3Gtc, GyroProblem::B3GtcModified];
            let problem = problems[(next() % 3) as usize];
            ProgramSpec::Gyro { ranks, cfg: GyroConfig { problem, steps: 1 + (next() % 8) as u32 } }
        }
        7 => {
            let cfg = CamConfig::presets()[(next() % 4) as usize].clone();
            ProgramSpec::Cam { ranks, threads: 1 + (next() % 4) as u32, cfg }
        }
        8 => ProgramSpec::Fft { ranks, n: 1 << (10 + next() % 20) },
        9 => {
            let placement = if next() % 2 == 0 {
                Placement::Compact
            } else {
                Placement::Fragmented { spread: 1.0 + (next() % 8) as f64 / 4.0, seed: next() }
            };
            ProgramSpec::Ptrans { ranks, n: 1024 + next() % 65_536, placement }
        }
        10 => ProgramSpec::RandomAccess {
            ranks,
            table_bytes: 1 << (16 + next() % 12),
            updates: 1 << (8 + next() % 10),
        },
        11 => ProgramSpec::ImbBcast { ranks, bytes: 8 + next() % (1 << 20) },
        12 => {
            ProgramSpec::Pingpong { bytes: 8 + next() % (1 << 22), reps: 1 + (next() % 8) as u32 }
        }
        _ => ProgramSpec::RandomRing { ranks, bytes: 8 + next() % (1 << 22), seed: next() },
    };
    let spec = ScenarioSpec::new(program, Setup { mapping, ..Setup::new(machine, mode) });
    if next() % 3 == 0 {
        let profile = match next() % 4 {
            0 => FaultProfile::Link,
            1 => FaultProfile::Noise,
            2 => FaultProfile::Loss,
            _ => FaultProfile::Mixed,
        };
        spec.with_faults(next(), profile)
    } else {
        spec
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize → deserialize → re-hash is the identity: the parsed
    /// spec re-serializes to the same bytes, hashes to the same value,
    /// keys the same tier-2 shard, and canonicalization is idempotent.
    #[test]
    fn canon_parse_rehash_is_identity(seed: u64) {
        let canon = spec_from_seed(seed).canonicalized();
        let text = canon.to_canon();
        let parsed = ScenarioSpec::parse(&text).expect("canonical text must parse");
        assert_eq!(parsed.to_canon(), text, "parse must invert serialization");
        assert_eq!(parsed.hash(), canon.hash(), "hash must survive the round trip");
        assert_eq!(parsed.program_hash(), canon.program_hash());
        // canonicalization is idempotent on both sides of the trip
        assert_eq!(canon.clone().canonicalized().to_canon(), text);
        assert_eq!(parsed.clone().canonicalized().to_canon(), text);
        // and the hash is a pure function of the canonical bytes
        assert_eq!(canon.hash(), hpcsim_cache::fnv1a_128(text.as_bytes()));
    }

    /// Distinct specs collide only by construction: whenever two
    /// randomized scenarios serialize differently they must hash
    /// differently, and identical serializations (the canonicalized
    /// axes) must agree on the hash.
    #[test]
    fn distinct_canonical_forms_never_share_a_hash(seed_a: u64, seed_b: u64) {
        let a = spec_from_seed(seed_a).canonicalized();
        let b = spec_from_seed(seed_b).canonicalized();
        let (ha, hb): (SpecHash, SpecHash) = (a.hash(), b.hash());
        if a.to_canon() == b.to_canon() {
            assert_eq!(ha, hb);
        } else {
            assert_ne!(ha, hb, "hash collision:\n{}\n-- vs --\n{}", a.to_canon(), b.to_canon());
        }
    }
}
