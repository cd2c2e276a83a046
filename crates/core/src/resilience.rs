//! The resilience battery: Figure 2's HALO sweep re-run under each
//! fault profile, reporting slowdown versus the pristine run.
//!
//! Each scenario (a halo size on the near-square grid) is one
//! [`try_parmap`] work item, so a scenario that panics — whether from a
//! genuine bug or the hidden self-test poison — becomes a structured
//! [`ScenarioError`] row while every other scenario still completes.
//! A fault plan that stalls a scenario (retransmit budget exhausted, or
//! a destination cut off) is *not* a panic: the stall diagnostic shows
//! up in that profile's table cell instead.
//!
//! All fault draws are seeded, so the battery is byte-identical at any
//! `--jobs` count.

use crate::experiment::Scale;
use crate::report::Table;
use crate::runner::try_parmap;
use hpcsim_faults::{FaultPlan, FaultProfile};
use hpcsim_hpcc as hpcc;
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_probe::NoopTracer;
use hpcsim_topo::{Grid2D, Mapping};

/// A scenario that failed with a panic (captured by the harness) rather
/// than a diagnosed fault outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Index of the scenario in battery order.
    pub index: usize,
    /// The scenario's label.
    pub label: String,
    /// The captured panic message.
    pub message: String,
}

/// The battery's output: the slowdown table plus any scenario failures.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// One row per surviving scenario: pristine time, then per-profile
    /// time and slowdown factor.
    pub table: Table,
    /// Scenarios that panicked, in battery order.
    pub errors: Vec<ScenarioError>,
}

impl ResilienceReport {
    /// True when every scenario completed without panicking.
    pub fn all_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

struct Spec {
    label: String,
    words: u64,
    grid: Grid2D,
    poison: bool,
}

struct Row {
    label: String,
    pristine_us: f64,
    /// Per-profile `(microseconds, slowdown)`; `Err` carries the stall
    /// diagnostic.
    by_profile: Vec<Result<(f64, f64), String>>,
}

fn run_spec(spec: &Spec, seed: u64) -> Row {
    assert!(!spec.poison, "resilience self-test: deliberately poisoned scenario '{}'", spec.label);
    let machine = bluegene_p();
    let cfg = hpcc::HaloConfig {
        grid: spec.grid,
        words: spec.words,
        protocol: hpcc::HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let txyz = Mapping::txyz();
    let pristine = hpcc::halo_run(&machine, ExecMode::Vn, txyz, &cfg);
    let by_profile = FaultProfile::all()
        .into_iter()
        .map(|profile| {
            let plan = FaultPlan::new(seed, profile);
            hpcc::halo_try_run(&machine, ExecMode::Vn, txyz, &cfg, Some(&plan), &mut NoopTracer)
                .map(|(t, _)| (t * 1e6, if pristine > 0.0 { t / pristine } else { 1.0 }))
                .map_err(|e| e.to_string())
        })
        .collect();
    Row { label: spec.label.clone(), pristine_us: pristine * 1e6, by_profile }
}

/// Run the resilience battery: the Fig 2 halo sweep, pristine and under
/// every fault profile seeded from `seed`. `inject_panic` appends a
/// deliberately-panicking scenario — the battery harness's self-test —
/// which must come back as a [`ScenarioError`] without disturbing the
/// other rows.
pub fn resilience_battery(seed: u64, scale: Scale, inject_panic: bool) -> ResilienceReport {
    let grid = Grid2D::near_square(scale.ranks(8192));
    let mut specs: Vec<Spec> = [512u64, 8192, 32768]
        .into_iter()
        .map(|words| Spec {
            label: format!("halo {}x{} {}w", grid.rows, grid.cols, words),
            words,
            grid,
            poison: false,
        })
        .collect();
    if inject_panic {
        specs.push(Spec {
            label: "selftest-panic".to_string(),
            words: 8,
            grid,
            poison: true,
        });
    }

    let mut headers = vec!["Scenario".to_string(), "Pristine (us)".to_string()];
    for p in FaultProfile::all() {
        headers.push(format!("{} (us)", p.label()));
        headers.push(format!("{} x", p.label()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let title = format!("resilience: Fig 2 halo sweep under fault profiles (seed {seed})");
    let mut table = Table::new(&title, &header_refs);

    let mut errors = Vec::new();
    for (i, outcome) in try_parmap(&specs, |s| run_spec(s, seed)).into_iter().enumerate() {
        match outcome {
            Ok(row) => {
                let mut cells = vec![row.label, format!("{:.3}", row.pristine_us)];
                for cell in row.by_profile {
                    match cell {
                        Ok((us, slowdown)) => {
                            cells.push(format!("{us:.3}"));
                            cells.push(format!("{slowdown:.3}"));
                        }
                        Err(diag) => {
                            cells.push(format!("FAIL: {diag}"));
                            cells.push("-".to_string());
                        }
                    }
                }
                table.push_row(cells);
            }
            Err(p) => errors.push(ScenarioError {
                index: i,
                label: specs[i].label.clone(),
                message: p.message,
            }),
        }
    }
    ResilienceReport { table, errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_completes_and_reports_slowdowns() {
        let report = resilience_battery(5, Scale::Quick, false);
        assert!(report.all_ok(), "{:?}", report.errors);
        assert_eq!(report.table.rows.len(), 3);
        // every profile column filled, noise profile never speeds things up
        for row in &report.table.rows {
            assert_eq!(row.len(), 2 + 2 * FaultProfile::all().len());
            let noise_col = 2 + 2 * FaultProfile::all().iter().position(|p| *p == FaultProfile::Noise).unwrap() + 1;
            let noise_x: f64 = row[noise_col].parse().expect("noise slowdown cell");
            assert!(noise_x >= 0.999, "noise slowdown {noise_x} in {row:?}");
        }
    }

    #[test]
    fn battery_is_reproducible() {
        let a = resilience_battery(9, Scale::Quick, false);
        let b = resilience_battery(9, Scale::Quick, false);
        assert_eq!(a.table.render(), b.table.render());
    }

    #[test]
    fn poisoned_scenario_is_reported_not_fatal() {
        let report = resilience_battery(5, Scale::Quick, true);
        assert_eq!(report.errors.len(), 1);
        let e = &report.errors[0];
        assert_eq!(e.label, "selftest-panic");
        assert!(e.message.contains("deliberately poisoned"), "{}", e.message);
        // the healthy scenarios all still completed
        assert_eq!(report.table.rows.len(), 3);
        assert!(!report.all_ok());
    }
}
