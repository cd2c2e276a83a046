//! Regeneration of the paper's tables and figures, one function per
//! artifact. See `DESIGN.md` §4 for the experiment index.
//!
//! Every POP and HALO point an artifact prices goes through the
//! process-global scenario cache ([`pop_point`], [`halo_point`]), so a
//! pass simulates each distinct scenario once however many panels,
//! tables and ablations repeat it. Under `--no-cache` each point is
//! computed directly; the values are bit-identical either way.

pub mod apps;
pub mod micro;
pub mod power;

use hpcsim_apps::{PopConfig, PopResult};
use hpcsim_cache::{evaluate, ScenarioSpec};
use hpcsim_hpcc::HaloConfig;
use hpcsim_machine::{ExecMode, MachineSpec};
use hpcsim_topo::Mapping;

/// One POP run through the scenario cache; bit-identical to
/// [`hpcsim_apps::pop_run`].
pub fn pop_point(
    machine: &MachineSpec,
    mode: ExecMode,
    ranks: usize,
    threads: u32,
    cfg: &PopConfig,
) -> PopResult {
    let spec = ScenarioSpec::pop(machine, mode, ranks, threads, cfg.clone());
    let v = evaluate(&spec).expect("pristine POP scenarios evaluate");
    PopResult { syd: v[0], baroclinic_s: v[1], barrier_s: v[2], barotropic_s: v[3] }
}

/// Seconds per exchange of one HALO run through the scenario cache;
/// bit-identical to [`hpcsim_hpcc::halo_run`].
pub fn halo_point(
    machine: &MachineSpec,
    mode: ExecMode,
    mapping: Mapping,
    cfg: &HaloConfig,
) -> f64 {
    let spec = ScenarioSpec::halo(machine, mode, mapping, cfg.clone());
    evaluate(&spec).expect("pristine HALO scenarios evaluate")[0]
}
