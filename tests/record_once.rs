//! Every proxy is a `cache::ProgramSpec`: it records a machine-free
//! trace once and is priced per machine through `mpi::sweep_points`.
//! For each proxy at one small point:
//!
//! * one recording priced on every registry machine in one call and
//!   reduced by `ProgramSpec::reduce` equals the per-machine evaluation
//!   through the scenario cache bit for bit;
//! * the result on BG/P is pinned bit for bit;
//! * the recording itself is pinned by the hash of its wire form, so a
//!   trace that silently changes fails here.

use bgp_eval::apps::*;
use bgp_eval::cache::{evaluate, fnv1a_128, ProgramSpec, ScenarioSpec, Setup};
use bgp_eval::hpcc::*;
use bgp_eval::machine::registry::{all_machines, bluegene_p};
use bgp_eval::machine::{ExecMode, MachineSpec};
use bgp_eval::mpi::{sweep_points, write_traces, SimConfig, SimResult};
use bgp_eval::net::DType;
use bgp_eval::topo::{Grid2D, Placement};

/// Combines a proxy's per-program result vectors into its pinned values.
type Combine = fn(&[Vec<f64>]) -> Vec<f64>;

/// One proxy at one point: its programs (two for the probes that measure
/// a small and a large payload), the mode they run in, and how their
/// result vectors combine (one program: its vector as is).
struct Proxy {
    name: &'static str,
    programs: Vec<ProgramSpec>,
    mode: ExecMode,
    combine: Combine,
}

fn proxies() -> Vec<Proxy> {
    use ExecMode::{Smp, Vn};
    let one: Combine = |v| v[0].clone();
    let proxy = |name, programs, mode, combine| Proxy { name, programs, mode, combine };
    let hpl = HplConfig { n: 4096, nb: 128, grid: Grid2D::new(4, 4), samples: 2 };
    let halo = HaloConfig {
        grid: Grid2D::new(4, 4),
        words: 64,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let placement = Placement::Fragmented { spread: 1.5, seed: 3 };
    let (small, large) = (8, 1 << 16);
    vec![
        proxy("s3d", vec![ProgramSpec::S3d { ranks: 8, cfg: S3dConfig::default() }], Vn, one),
        proxy("gyro", vec![ProgramSpec::Gyro { ranks: 64, cfg: GyroConfig::b1_std() }], Vn, one),
        proxy(
            "cam",
            vec![ProgramSpec::Cam { ranks: 16, threads: 1, cfg: CamConfig::t42() }],
            Vn,
            one,
        ),
        proxy(
            "cam-hybrid",
            vec![ProgramSpec::Cam { ranks: 8, threads: 4, cfg: CamConfig::fv_2deg() }],
            Smp,
            one,
        ),
        proxy(
            "pop",
            vec![ProgramSpec::Pop { ranks: 16, threads: 1, cfg: PopConfig::default() }],
            Vn,
            one,
        ),
        proxy("md", vec![ProgramSpec::Md { ranks: 16, cfg: MdConfig::pmemd_rub() }], Vn, one),
        proxy("fft", vec![ProgramSpec::Fft { ranks: 16, n: 1 << 20 }], Vn, one),
        proxy("ptrans", vec![ProgramSpec::Ptrans { ranks: 16, n: 4096, placement }], Vn, one),
        proxy(
            "ra",
            vec![ProgramSpec::RandomAccess { ranks: 16, table_bytes: 1 << 20, updates: 1 << 12 }],
            Vn,
            one,
        ),
        proxy("hpl", vec![ProgramSpec::Hpl(hpl)], Vn, one),
        proxy(
            "imb-allreduce",
            vec![ProgramSpec::ImbAllreduce { ranks: 16, bytes: 1024, dtype: DType::F64 }],
            Vn,
            one,
        ),
        proxy("imb-bcast", vec![ProgramSpec::ImbBcast { ranks: 16, bytes: 1024 }], Vn, one),
        proxy(
            "pingpong",
            vec![
                ProgramSpec::Pingpong { bytes: small, reps: PINGPONG_REPS[0] },
                ProgramSpec::Pingpong { bytes: large, reps: PINGPONG_REPS[1] },
            ],
            Smp,
            |v| {
                let (latency, bandwidth) = pingpong_of(v[0][0], v[1][0], 1 << 16);
                vec![latency, bandwidth]
            },
        ),
        proxy(
            "random-ring",
            [small, large]
                .map(|bytes| ProgramSpec::RandomRing { ranks: 16, bytes, seed: 1 })
                .into(),
            Vn,
            |v| {
                let r = RingResult::of(v[0][0], v[1][0], 1 << 16);
                vec![r.latency_s, r.bandwidth]
            },
        ),
        proxy("halo", vec![ProgramSpec::Halo(halo)], Vn, one),
    ]
}

impl Proxy {
    /// Each program as a scenario on `machine`.
    fn specs(&self, machine: &MachineSpec) -> Vec<ScenarioSpec> {
        let setup = Setup::new(machine, self.mode);
        self.programs.iter().map(|p| ScenarioSpec::new(p.clone(), setup.clone())).collect()
    }

    /// The proxy's values on `machine`, priced through the scenario cache.
    fn run(&self, machine: &MachineSpec) -> Vec<f64> {
        let values: Vec<Vec<f64>> =
            self.specs(machine).iter().map(|s| evaluate(s).unwrap().to_vec()).collect();
        (self.combine)(&values)
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One recording per program, priced on all five registry machines in
/// one `sweep_points` call and reduced by `ProgramSpec::reduce`, equals
/// each machine's own evaluation through the scenario cache.
#[test]
fn one_recording_prices_every_machine_like_each_run() {
    let machines = all_machines();
    for proxy in proxies() {
        let specs: Vec<Vec<ScenarioSpec>> = machines.iter().map(|m| proxy.specs(m)).collect();
        // values[machine][program]
        let mut values = vec![Vec::new(); machines.len()];
        for (pi, program) in proxy.programs.iter().enumerate() {
            let points: Vec<SimConfig> =
                specs.iter().map(|s| s[pi].program.sim_config(&s[pi].setup)).collect();
            let traces = program.record();
            let priced: Vec<SimResult> = sweep_points(&points, &|| &traces, None, None).unwrap();
            for (mi, res) in priced.iter().enumerate() {
                values[mi].push(specs[mi][pi].program.reduce(&points[mi], res));
            }
        }
        for (mi, m) in machines.iter().enumerate() {
            assert_eq!(
                bits(&(proxy.combine)(&values[mi])),
                bits(&proxy.run(m)),
                "{} on {}",
                proxy.name,
                m.id.label()
            );
        }
    }
}

/// Each proxy's result on BG/P, pinned bit for bit.
#[test]
fn run_results_are_pinned() {
    let pins: [(&str, &[u64]); 15] = [
        ("s3d", &[0x3e50050d5661ebcc, 0x401adaeca036015b]),
        ("gyro", &[0x3fc6a5bb2fb2c095]),
        ("cam", &[0x40119648545e76ad, 0x4030000000000000]),
        ("cam-hybrid", &[0x4010cf282daf3cfc, 0x4040000000000000]),
        ("pop", &[0x3f78d8157c0a0d0a, 0x40dedfd1c961e936, 0x40afe7cbe1f9ce9c, 0x40a9fe5979a930b2]),
        ("md", &[0x3fea1dd4667083e3, 0x3fbb19e782b36c29]),
        ("fft", &[0x4130000000000000, 0x3f9419143256df49, 0x40155ec2da135ff3]),
        ("ptrans", &[0x40b0000000000000, 0x3fa255d99649dbff, 0x400dfbbed0981077]),
        ("ra", &[0x40f0000000000000, 0x3f145d2496810f43, 0x3feaff25a13e698d]),
        ("hpl", &[0x400039d2633ccdd5, 0x4036999c1a056e85, 0x3fda9699880663e8]),
        ("imb-allreduce", &[0x400d48b652370479]),
        ("imb-bcast", &[0x40073804d9839475]),
        ("pingpong", &[0x3eb3d830bdda516d, 0x41b8c7f4b2906359]),
        ("random-ring", &[0x3ec6ab4245de969d, 0x41af6a688d680703]),
        ("halo", &[0x3ee97e9faba8d8e3]),
    ];
    let bgp = bluegene_p();
    let proxies = proxies();
    assert_eq!(proxies.len(), pins.len());
    for (proxy, (name, want)) in proxies.iter().zip(pins) {
        assert_eq!(proxy.name, name);
        assert_eq!(bits(&proxy.run(&bgp)), want, "{name}");
    }
}

/// Each recording's `hpcsim-trace/1` wire form, pinned by hash (and the
/// HPL recording's row-then-column communicators by shape).
#[test]
fn recordings_are_pinned() {
    let pins: [(&str, &[u128]); 15] = [
        ("s3d", &[0xa18a28dee6db692cf80c70838108fced]),
        ("gyro", &[0xa72e7e0309febc5f3aea774263c4e90d]),
        ("cam", &[0x0f684a19b89e774d503e8f844dd106fe]),
        ("cam-hybrid", &[0xa7e8a52cf8840e709b26d2ae2c1b39bd]),
        ("pop", &[0x63e0deb9d70e1ab50a36e1bcbf82972b]),
        ("md", &[0x19eb56e52b49f55ecf82ce8577a4435c]),
        ("fft", &[0x1d2c5807bd811521cc43aacca8157770]),
        ("ptrans", &[0xc62e118c2912a3d8380b7dccf9a34fc2]),
        ("ra", &[0x0025139c2f8e647f47ee5e966bfb48d2]),
        ("hpl", &[0xf3dba46e71e31da461a1fd70c1da0ccc]),
        ("imb-allreduce", &[0x9afd70b1679d54f630b182010281397e]),
        ("imb-bcast", &[0x678b82c3f1ef49bb1b99d8ddcdcb587e]),
        ("pingpong", &[0x56963fe4444cad1f06914000807b2018, 0xf566c15bdb9910e0ac6965e4e24241f4]),
        ("random-ring", &[0x4ab7308d07607ab2b17add08e60d9846, 0xa5ae84d993a0fd541affe1be49b8fbca]),
        ("halo", &[0x71cbbf221602971a963d49ae24906732]),
    ];
    let proxies = proxies();
    for (proxy, (name, want)) in proxies.iter().zip(pins) {
        let got: Vec<u128> = proxy
            .programs
            .iter()
            .map(|program| fnv1a_128(write_traces(&program.record()).as_bytes()).0)
            .collect();
        assert_eq!(got, want, "{name}");
    }
    let hpl = proxies.iter().find(|p| p.name == "hpl").unwrap().programs[0].record();
    let comms = hpl.comms();
    assert_eq!(comms.len(), 8, "four row then four column communicators");
    assert_eq!(comms[0], [0, 1, 2, 3]);
    assert_eq!(comms[4], [0, 4, 8, 12]);
}
