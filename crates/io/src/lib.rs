//! # hpcsim-io
//!
//! The I/O substrate of the studied systems (§I.B/§I.C): BlueGene compute
//! nodes have **no direct path to storage** — their I/O is forwarded over
//! the collective network to dedicated I/O nodes (one per 64 compute
//! nodes on both Eugene and Intrepid), which speak 10-Gigabit Ethernet to
//! a GPFS cluster striped over DDN LUNs. The paper mentions hitting "a
//! system I/O performance issue on the BG/P" during the CAM experiments;
//! this crate models the path well enough to show where such walls live:
//!
//! * the fan-in stage: 64 compute nodes share one I/O node's tree link;
//! * the I/O-node NIC: one 10 GbE port per I/O node;
//! * the filesystem: servers × per-server bandwidth, striped LUNs.
//!
//! The model answers "how long does it take `ranks` tasks to write
//! `bytes_per_rank`" for N-to-1 (single shared file through one writer),
//! N-to-N (file per process), and collective-buffered patterns.

use hpcsim_engine::SimTime;
use hpcsim_machine::MachineSpec;
use serde::Serialize;

/// A parallel filesystem attached to the machine.
#[derive(Debug, Clone, Serialize)]
pub struct FilesystemSpec {
    /// Number of file servers (Eugene: 8 + 2 metadata).
    pub servers: u32,
    /// Sustained bandwidth per server, bytes/s.
    pub server_bw: f64,
    /// Number of data LUNs (Eugene: 24 × ~3.6 TB).
    pub luns: u32,
    /// Sustained bandwidth per LUN, bytes/s.
    pub lun_bw: f64,
    /// Metadata operation latency (file create/open).
    pub metadata_latency: SimTime,
}

impl FilesystemSpec {
    /// The ORNL "Eugene" GPFS configuration (§I.B).
    pub fn eugene_gpfs() -> Self {
        FilesystemSpec {
            servers: 8,
            server_bw: 700e6,
            luns: 24,
            lun_bw: 350e6,
            metadata_latency: SimTime::from_us(800),
        }
    }

    /// Aggregate filesystem bandwidth: min of server and LUN limits.
    pub fn aggregate_bw(&self) -> f64 {
        (self.servers as f64 * self.server_bw).min(self.luns as f64 * self.lun_bw)
    }
}

/// The access pattern of a parallel write/read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IoPattern {
    /// All ranks funnel through rank 0 (serial bottleneck).
    NToOne,
    /// File per process — parallel but metadata-heavy.
    NToN,
    /// MPI-IO collective buffering: one writer per I/O node.
    Collective,
}

/// The I/O path model for one machine + filesystem.
#[derive(Debug, Clone)]
pub struct IoModel {
    machine: MachineSpec,
    fs: FilesystemSpec,
    /// 10 GbE per I/O node, bytes/s.
    ion_nic_bw: f64,
}

/// Result of a modelled I/O phase.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IoResult {
    /// Wall time of the phase.
    pub time: SimTime,
    /// Achieved aggregate bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Which stage bound the transfer.
    pub bottleneck: IoBottleneck,
}

/// The stage that limited an I/O phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IoBottleneck {
    /// A single writer's injection rate.
    SingleWriter,
    /// The compute-to-I/O-node forwarding (tree link fan-in).
    Forwarding,
    /// The I/O nodes' 10 GbE ports.
    IonNic,
    /// The filesystem servers/LUNs.
    Filesystem,
    /// Metadata operations (file-per-process storms).
    Metadata,
}

impl IoModel {
    /// Model for `machine` attached to `fs`.
    pub fn new(machine: MachineSpec, fs: FilesystemSpec) -> Self {
        IoModel { machine, fs, ion_nic_bw: 10e9 / 8.0 }
    }

    /// Number of I/O nodes serving `compute_nodes`.
    pub fn io_nodes(&self, compute_nodes: u64) -> u64 {
        compute_nodes.div_ceil(self.machine.packaging.compute_per_io_node as u64).max(1)
    }

    /// Time for `ranks` tasks to write `bytes_per_rank` in `pattern`.
    pub fn write_time(&self, ranks: u64, bytes_per_rank: u64, pattern: IoPattern) -> IoResult {
        let total = (ranks * bytes_per_rank) as f64;
        let tasks_per_node = self.machine.cores_per_node as u64; // VN worst case
        let compute_nodes = ranks.div_ceil(tasks_per_node);
        let ions = self.io_nodes(compute_nodes) as f64;
        // forwarding: each compute node streams up its tree link; the
        // 64 nodes behind one ION share that ION's tree ingest
        let tree_bw = self.machine.nic.tree_bw.unwrap_or(self.machine.nic.torus_link_bw * 2.0);
        let forwarding_bw = ions * (tree_bw / 2.0);
        let ion_bw = ions * self.ion_nic_bw;
        let fs_bw = self.fs.aggregate_bw();

        let (bw, bottleneck, extra) = match pattern {
            IoPattern::NToOne => {
                // one task funnels everything: bounded by one node's
                // injection into the collective network
                let single = tree_bw / 2.0;
                (single.min(fs_bw), IoBottleneck::SingleWriter, SimTime::ZERO)
            }
            IoPattern::NToN => {
                let bw = forwarding_bw.min(ion_bw).min(fs_bw);
                // a metadata op per rank, serialized at the MDS
                let meta = self.fs.metadata_latency * ranks;
                (bw, IoBottleneck::Metadata, meta)
            }
            IoPattern::Collective => {
                let bw = forwarding_bw.min(ion_bw).min(fs_bw);
                let which = if bw == fs_bw {
                    IoBottleneck::Filesystem
                } else if bw == ion_bw {
                    IoBottleneck::IonNic
                } else {
                    IoBottleneck::Forwarding
                };
                (bw, which, self.fs.metadata_latency)
            }
        };
        let time = SimTime::from_secs(total / bw) + extra;
        let secs = time.as_secs();
        IoResult { time, bandwidth: if secs > 0.0 { total / secs } else { 0.0 }, bottleneck }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::bluegene_p;

    fn model() -> IoModel {
        IoModel::new(bluegene_p(), FilesystemSpec::eugene_gpfs())
    }

    #[test]
    fn io_node_ratio_is_64_to_1() {
        let m = model();
        assert_eq!(m.io_nodes(2048), 32); // Eugene: 16 IONs per 1024-node rack
        assert_eq!(m.io_nodes(64), 1);
        assert_eq!(m.io_nodes(65), 2);
        assert_eq!(m.io_nodes(1), 1);
    }

    #[test]
    fn collective_beats_n_to_one() {
        let m = model();
        let n1 = m.write_time(8192, 1 << 20, IoPattern::NToOne);
        let coll = m.write_time(8192, 1 << 20, IoPattern::Collective);
        assert!(coll.time < n1.time);
        assert_eq!(n1.bottleneck, IoBottleneck::SingleWriter);
    }

    #[test]
    fn file_per_process_pays_metadata() {
        let m = model();
        let nn = m.write_time(8192, 4096, IoPattern::NToN);
        let coll = m.write_time(8192, 4096, IoPattern::Collective);
        // small writes: the metadata storm dominates
        assert!(nn.time > coll.time * 5);
        assert_eq!(nn.bottleneck, IoBottleneck::Metadata);
    }

    #[test]
    fn large_collective_hits_filesystem_wall() {
        let m = model();
        let r = m.write_time(8192, 64 << 20, IoPattern::Collective);
        assert_eq!(r.bottleneck, IoBottleneck::Filesystem);
        // Eugene scratch: min(8×700 MB/s, 24×350 MB/s) = 5.6 GB/s
        assert!((r.bandwidth - 5.6e9).abs() / 5.6e9 < 0.05, "{:.3e}", r.bandwidth);
    }

    #[test]
    fn small_jobs_are_forwarding_bound() {
        let m = model();
        // 64 compute nodes -> 1 ION: forwarding 850 MB/s < 1 NIC < FS
        let r = m.write_time(256, 16 << 20, IoPattern::Collective);
        assert_eq!(r.bottleneck, IoBottleneck::Forwarding);
    }

    #[test]
    fn aggregate_bw_is_min_of_limits() {
        let fs = FilesystemSpec::eugene_gpfs();
        assert_eq!(fs.aggregate_bw(), (8.0f64 * 700e6).min(24.0 * 350e6));
    }
}
