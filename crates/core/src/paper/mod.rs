//! Regeneration of the paper's tables and figures, one function per
//! artifact. See `DESIGN.md` §4 for the experiment index.
//!
//! Every experiment has one shape: a list of rows, each one MPI program
//! ([`ProgramSpec`]) on the setups it runs on, priced by `price`, then
//! a render step over the result vectors. `price` goes through the
//! process-global scenario cache, so a pass simulates each distinct
//! scenario once however many panels, tables and ablations repeat it,
//! and a row records its program once however many machines price it.
//! Under `--no-cache` each point is computed directly; the values are
//! bit-identical either way.
//!
//! Every experiment that prices a program also names a few
//! representative scenarios (its `*_traced` list, [`Traced`]) that the
//! traced battery ([`crate::probe`]) replays with the recorder attached.

pub mod apps;
pub mod micro;
pub mod power;

use crate::runner::parmap;
use hpcsim_cache::{evaluate_on, ProgramSpec, ScenarioSpec, Setup};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, MachineSpec};
use std::sync::Arc;

/// One program priced on one or more setups.
pub(crate) type Row = (ProgramSpec, Vec<Setup>);

/// A representative scenario of a traced battery and its label.
pub type Traced = (String, ScenarioSpec);

/// Price every row through the process-global scenario cache, rows
/// fanned out over the worker pool: `values[row][setup]`, each a result
/// vector (layout in `hpcsim_cache::eval`). Paper programs are
/// well-formed and fault-free, so an evaluation error is a bug.
pub(crate) fn price(rows: &[Row]) -> Vec<Vec<Arc<Vec<f64>>>> {
    parmap(rows, |(program, setups)| {
        let values = evaluate_on(program, setups).into_iter();
        values.map(|v| v.unwrap_or_else(|e| panic!("{e}"))).collect()
    })
}

/// `machine` in virtual-node mode, the paper's default.
pub(crate) fn vn(machine: &MachineSpec) -> Setup {
    Setup::new(machine, ExecMode::Vn)
}

/// A traced scenario: `program` on BG/P, the machine of every traced
/// battery, in `mode`.
pub(crate) fn on_bgp(label: String, program: ProgramSpec, mode: ExecMode) -> Traced {
    (label, ScenarioSpec::new(program, Setup::new(&bluegene_p(), mode)))
}
