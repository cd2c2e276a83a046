//! Every proxy records a machine-free trace once and is priced per
//! machine through `mpi::sweep_points`. For each proxy at one small
//! point:
//!
//! * one recording priced on every registry machine in one call equals
//!   the per-machine `*_run` entry bit for bit;
//! * the `*_run` result on BG/P is pinned bit for bit;
//! * the recording itself is pinned by the hash of its wire form, so a
//!   trace that silently changes fails here.

use bgp_eval::apps::*;
use bgp_eval::cache::fnv1a_128;
use bgp_eval::hpcc::*;
use bgp_eval::machine::registry::{all_machines, bluegene_p};
use bgp_eval::machine::{ExecMode, MachineSpec};
use bgp_eval::mpi::{sweep_points, write_traces, SimConfig, SimResult, Traces};
use bgp_eval::net::DType;
use bgp_eval::topo::{Grid2D, Mapping, Placement};

/// The reducer over one priced result per recording, on a machine.
type Reduce = Box<dyn Fn(&[SimResult], &MachineSpec) -> Vec<f64>>;
/// The direct per-machine `*_run` entry, flattened to its values.
type Run = Box<dyn Fn(&MachineSpec) -> Vec<f64>>;

/// One proxy at one point: its recordings (two for the probes that
/// measure a small and a large payload), the configuration it runs on
/// per machine, its reducer and its direct entry.
struct Proxy {
    name: &'static str,
    recordings: Vec<Traces>,
    point: Box<dyn Fn(&MachineSpec) -> SimConfig>,
    reduce: Reduce,
    run: Run,
}

fn proxies() -> Vec<Proxy> {
    let vn = |ranks| move |m: &MachineSpec| SimConfig::new(m.clone(), ranks, ExecMode::Vn);
    let s3d = S3dConfig::default();
    let gyro = GyroConfig::b1_std();
    let (t42, fv) = (CamConfig::t42(), CamConfig::fv_2deg());
    let pop = PopConfig::default();
    let md = MdConfig::pmemd_rub();
    let hpl = HplConfig { n: 4096, nb: 128, grid: Grid2D::new(4, 4), samples: 2 };
    let fragmented = Placement::Fragmented { spread: 1.5, seed: 3 };
    let halo = HaloConfig {
        grid: Grid2D::new(4, 4),
        words: 64,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    vec![
        Proxy {
            name: "s3d",
            recordings: vec![s3d_traces(8, &s3d)],
            point: Box::new(vn(8)),
            reduce: Box::new({
                let cfg = s3d.clone();
                move |r, _| {
                    let r = S3dResult::of(&r[0], 8, &cfg);
                    vec![r.core_hours_per_point_step, r.seconds_per_step]
                }
            }),
            run: Box::new(move |m| {
                let r = s3d_run(m, ExecMode::Vn, 8, &s3d);
                vec![r.core_hours_per_point_step, r.seconds_per_step]
            }),
        },
        Proxy {
            name: "gyro",
            recordings: vec![gyro_traces(64, &gyro)],
            point: Box::new({
                let cfg = gyro.clone();
                move |m| gyro_sim_config(m, 64, &cfg)
            }),
            reduce: Box::new({
                let cfg = gyro.clone();
                move |r, m| {
                    let mode = gyro_sim_config(m, 64, &cfg).mode;
                    vec![GyroResult::of(&r[0], &cfg, mode).seconds_per_step]
                }
            }),
            run: Box::new(move |m| vec![gyro_run(m, 64, &gyro).seconds_per_step]),
        },
        Proxy {
            name: "cam",
            recordings: vec![cam_traces(16, 1, &t42)],
            point: Box::new({
                let cfg = t42.clone();
                move |m| cam_sim_config(m, ExecMode::Vn, 16, 1, &cfg)
            }),
            reduce: Box::new({
                let cfg = t42.clone();
                move |r, _| {
                    let r = CamResult::of(&r[0], 1, &cfg);
                    vec![r.years_per_day, r.cores as f64]
                }
            }),
            run: Box::new(move |m| {
                let r = cam_run(m, ExecMode::Vn, 16, 1, &t42);
                vec![r.years_per_day, r.cores as f64]
            }),
        },
        Proxy {
            name: "cam-hybrid",
            recordings: vec![cam_traces(8, 4, &fv)],
            point: Box::new({
                let cfg = fv.clone();
                move |m| cam_sim_config(m, ExecMode::Smp, 8, 4, &cfg)
            }),
            reduce: Box::new({
                let cfg = fv.clone();
                move |r, _| {
                    let r = CamResult::of(&r[0], 4, &cfg);
                    vec![r.years_per_day, r.cores as f64]
                }
            }),
            run: Box::new(move |m| {
                let r = cam_run(m, ExecMode::Smp, 8, 4, &fv);
                vec![r.years_per_day, r.cores as f64]
            }),
        },
        Proxy {
            name: "pop",
            recordings: vec![pop_traces(16, 1, &pop)],
            point: Box::new(|m| pop_sim_config(m, ExecMode::Vn, 16, 1)),
            reduce: Box::new({
                let cfg = pop.clone();
                move |r, _| {
                    let r = PopResult::of(&r[0], &cfg);
                    vec![r.syd, r.baroclinic_s, r.barrier_s, r.barotropic_s]
                }
            }),
            run: Box::new(move |m| {
                let r = pop_run(m, ExecMode::Vn, 16, 1, &pop);
                vec![r.syd, r.baroclinic_s, r.barrier_s, r.barotropic_s]
            }),
        },
        Proxy {
            name: "md",
            recordings: vec![md_traces(16, &md)],
            point: Box::new(|m| md_sim_config(m, 16)),
            reduce: Box::new({
                let cfg = md.clone();
                move |r, _| {
                    let r = MdResult::of(&r[0], &cfg);
                    vec![r.seconds_per_step, r.ns_per_day]
                }
            }),
            run: Box::new(move |m| {
                let r = md_run(m, 16, &md);
                vec![r.seconds_per_step, r.ns_per_day]
            }),
        },
        Proxy {
            name: "fft",
            recordings: vec![fft_traces(16, 1 << 20)],
            point: Box::new(vn(16)),
            reduce: Box::new(|r, _| {
                let r = FftResult::of(&r[0], 1 << 20);
                vec![r.n as f64, r.seconds, r.gflops]
            }),
            run: Box::new(|m| {
                let r = fft_run(m, ExecMode::Vn, 16, 1 << 20);
                vec![r.n as f64, r.seconds, r.gflops]
            }),
        },
        Proxy {
            name: "ptrans",
            recordings: vec![ptrans_traces(16, 4096)],
            point: Box::new(move |m| ptrans_sim_config(m, ExecMode::Vn, 16, fragmented)),
            reduce: Box::new(|r, _| {
                let r = PtransResult::of(&r[0], 4096);
                vec![r.n as f64, r.seconds, r.gbps]
            }),
            run: Box::new(move |m| {
                let r = ptrans_run(m, ExecMode::Vn, 16, 4096, fragmented);
                vec![r.n as f64, r.seconds, r.gbps]
            }),
        },
        Proxy {
            name: "ra",
            recordings: vec![ra_traces(16, 1 << 20, 1 << 12)],
            point: Box::new(vn(16)),
            reduce: Box::new(|r, _| {
                let r = RaResult::of(&r[0], 16, 1 << 12);
                vec![r.updates as f64, r.seconds, r.gups]
            }),
            run: Box::new(|m| {
                let r = ra_run(m, ExecMode::Vn, 16, 1 << 20, 1 << 12);
                vec![r.updates as f64, r.seconds, r.gups]
            }),
        },
        Proxy {
            name: "hpl",
            recordings: vec![hpl_traces(&hpl)],
            point: Box::new(vn(16)),
            reduce: Box::new({
                let cfg = hpl.clone();
                move |r, m| {
                    let r = HplResult::of(&r[0], m, &cfg);
                    vec![r.seconds, r.gflops, r.efficiency]
                }
            }),
            run: Box::new(move |m| {
                let r = hpl_run(m, ExecMode::Vn, &hpl);
                vec![r.seconds, r.gflops, r.efficiency]
            }),
        },
        Proxy {
            name: "imb-allreduce",
            recordings: vec![imb_allreduce_traces(16, 1024, DType::F64)],
            point: Box::new(vn(16)),
            reduce: Box::new(|r, _| vec![ImbPoint::of(&r[0], 16, 1024).usec]),
            run: Box::new(|m| vec![imb_allreduce(m, ExecMode::Vn, 16, 1024, DType::F64).usec]),
        },
        Proxy {
            name: "imb-bcast",
            recordings: vec![imb_bcast_traces(16, 1024)],
            point: Box::new(vn(16)),
            reduce: Box::new(|r, _| vec![ImbPoint::of(&r[0], 16, 1024).usec]),
            run: Box::new(|m| vec![imb_bcast(m, ExecMode::Vn, 16, 1024).usec]),
        },
        Proxy {
            name: "pingpong",
            recordings: vec![
                pingpong_traces(8, PINGPONG_REPS[0]),
                pingpong_traces(1 << 16, PINGPONG_REPS[1]),
            ],
            point: Box::new(|m| SimConfig::new(m.clone(), 2, ExecMode::Smp)),
            reduce: Box::new(|r, _| {
                let (latency, bandwidth) = pingpong_of(&r[0], &r[1], 1 << 16);
                vec![latency, bandwidth]
            }),
            run: Box::new(|m| {
                let (latency, bandwidth) = pingpong(m, 8, 1 << 16);
                vec![latency, bandwidth]
            }),
        },
        Proxy {
            name: "random-ring",
            recordings: vec![random_ring_traces(16, 8, 1), random_ring_traces(16, 1 << 16, 1)],
            point: Box::new(vn(16)),
            reduce: Box::new(|r, _| {
                let r = RingResult::of(&r[0], &r[1], 1 << 16);
                vec![r.latency_s, r.bandwidth]
            }),
            run: Box::new(|m| {
                let r = random_ring(m, ExecMode::Vn, 16, 8, 1 << 16, 1);
                vec![r.latency_s, r.bandwidth]
            }),
        },
        Proxy {
            name: "halo",
            recordings: vec![halo_recording(&halo)],
            point: Box::new({
                let cfg = halo.clone();
                move |m| cfg.sim_config(m, ExecMode::Vn, Mapping::txyz())
            }),
            reduce: Box::new({
                let cfg = halo.clone();
                move |r, _| vec![cfg.per_exchange(&r[0])]
            }),
            run: Box::new(move |m| vec![halo_run(m, ExecMode::Vn, Mapping::txyz(), &halo)]),
        },
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One recording per proxy, priced on all five registry machines in one
/// `sweep_points` call, equals each machine's own `*_run`.
#[test]
fn one_recording_prices_every_machine_like_each_run() {
    let machines = all_machines();
    for proxy in proxies() {
        let points: Vec<SimConfig> = machines.iter().map(|m| (proxy.point)(m)).collect();
        // priced[recording][machine]
        let priced: Vec<Vec<SimResult>> = proxy
            .recordings
            .iter()
            .map(|traces| sweep_points(None, &points, traces, None, None).unwrap())
            .collect();
        for (mi, m) in machines.iter().enumerate() {
            let results: Vec<SimResult> = priced.iter().map(|per| per[mi].clone()).collect();
            assert_eq!(
                bits(&(proxy.reduce)(&results, m)),
                bits(&(proxy.run)(m)),
                "{} on {}",
                proxy.name,
                m.id.label()
            );
        }
    }
}

/// Each `*_run` result on BG/P, pinned bit for bit.
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
        assert_eq!(bits(&(proxy.run)(&bgp)), want, "{name}");
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
            .recordings
            .iter()
            .map(|traces| fnv1a_128(write_traces(traces).as_bytes()).0)
            .collect();
        assert_eq!(got, want, "{name}");
    }
    let comms = proxies.iter().find(|p| p.name == "hpl").unwrap().recordings[0].comms();
    assert_eq!(comms.len(), 8, "four row then four column communicators");
    assert_eq!(comms[0], [0, 1, 2, 3]);
    assert_eq!(comms[4], [0, 4, 8, 12]);
}
