//! Single-process and embarrassingly-parallel HPCC tests (Table 2).
//!
//! These have no communication: they probe the node model directly.
//! "Single process" (SP) runs one task on an otherwise idle node;
//! "embarrassingly parallel" (EP) runs one task per core simultaneously.

use hpcsim_machine::{ExecMode, MachineSpec, NodeModel, Workload};
use serde::{Deserialize, Serialize};

/// SP vs EP mode for the node-local tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpMode {
    /// One process on the node (HPCC "single process").
    Single,
    /// One process per core (HPCC "embarrassingly parallel").
    Parallel,
}

impl EpMode {
    fn exec(self) -> ExecMode {
        match self {
            EpMode::Single => ExecMode::Smp,
            EpMode::Parallel => ExecMode::Vn,
        }
    }
}

/// Per-process DGEMM rate in GFlop/s for a DGEMM of order `n`.
pub fn dgemm_rate(machine: &MachineSpec, mode: EpMode, n: u64) -> f64 {
    let model = NodeModel::new(machine.clone());
    model.sustained_flops(&Workload::Dgemm { n }, mode.exec(), 1) / 1e9
}

/// Per-process STREAM triad bandwidth in GB/s over `n` elements.
pub fn stream_triad_rate(machine: &MachineSpec, mode: EpMode, n: u64) -> f64 {
    let model = NodeModel::new(machine.clone());
    // STREAM convention: count 24 bytes/element (no write-allocate)
    let t = model.time(&Workload::StreamTriad { n }, mode.exec(), 1).as_secs();
    24.0 * n as f64 / t / 1e9
}

/// Per-process FFT rate in GFlop/s for an n-point 1-D FFT (stock kernel).
pub fn fft_rate(machine: &MachineSpec, mode: EpMode, n: u64) -> f64 {
    let model = NodeModel::new(machine.clone());
    model.sustained_flops(&Workload::Fft1d { n }, mode.exec(), 1) / 1e9
}

/// Per-process RandomAccess rate in GUP/s against a `table_bytes` table.
pub fn ra_rate(machine: &MachineSpec, mode: EpMode, table_bytes: u64) -> f64 {
    let model = NodeModel::new(machine.clone());
    let updates = 4 * table_bytes / 8; // HPCC default: 4 updates per word
    let t = model.time(&Workload::RandomAccess { updates, table_bytes }, mode.exec(), 1).as_secs();
    updates as f64 / t / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim_machine::registry::{bluegene_p, xt4_qc};

    /// Table 2 prose: "the BG/P's lower clock rate [is] the likely reason
    /// for its smaller processing rate on the DGEMM".
    #[test]
    fn dgemm_xt_beats_bgp() {
        let b = dgemm_rate(&bluegene_p(), EpMode::Parallel, 2000);
        let x = dgemm_rate(&xt4_qc(), EpMode::Parallel, 2000);
        assert!(x > 2.0 * b, "XT {x:.2} GF vs BG/P {b:.2} GF");
        // absolute plausibility: BG/P ~3 GF/process of 3.4 peak
        assert!(b > 2.6 && b < 3.3);
    }

    /// Table 2 prose: BG/P STREAM shows "higher absolute bandwidth and
    /// less of a performance decline between the single process and
    /// embarrassingly parallel cases than the XT".
    #[test]
    fn stream_story_matches_table2() {
        let n = 4_000_000;
        let b_sp = stream_triad_rate(&bluegene_p(), EpMode::Single, n);
        let b_ep = stream_triad_rate(&bluegene_p(), EpMode::Parallel, n);
        let x_sp = stream_triad_rate(&xt4_qc(), EpMode::Single, n);
        let x_ep = stream_triad_rate(&xt4_qc(), EpMode::Parallel, n);
        assert!(b_ep > x_ep, "EP: BG/P {b_ep:.2} vs XT {x_ep:.2}");
        let b_decline = b_sp / b_ep;
        let x_decline = x_sp / x_ep;
        assert!(b_decline < x_decline, "declines: BG/P {b_decline:.2} vs XT {x_decline:.2}");
    }

    /// FFT: the XT wins (higher clock, larger caches), by less than DGEMM's
    /// margin relative to peak.
    #[test]
    fn fft_rates_plausible() {
        let b = fft_rate(&bluegene_p(), EpMode::Parallel, 1 << 20);
        let x = fft_rate(&xt4_qc(), EpMode::Parallel, 1 << 20);
        assert!(x > b, "XT {x:.3} vs BG/P {b:.3}");
        assert!(b > 0.2 && b < 1.5, "BG/P FFT {b:.3} GF");
    }

    /// RandomAccess per process: both are memory-latency/bandwidth bound
    /// and land within the same order of magnitude (Fig 1d's parity).
    #[test]
    fn ra_rates_same_order() {
        let b = ra_rate(&bluegene_p(), EpMode::Parallel, 1 << 28);
        let x = ra_rate(&xt4_qc(), EpMode::Parallel, 1 << 28);
        let ratio = x / b;
        assert!(ratio > 0.25 && ratio < 4.0, "GUPS ratio {ratio:.2}");
    }
}
