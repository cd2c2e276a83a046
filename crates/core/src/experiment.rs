//! Experiment identifiers, scales, and the runner.

use crate::paper::{self, Traced};
use crate::report::{Figure, Table};
use serde::Serialize;

/// Every table and figure in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ExperimentId {
    /// Table 1: system configuration summary.
    Table1,
    /// Table 2: HPCC single-process/EP and communication tests.
    Table2,
    /// Figure 1: HPCC parallel tests (HPL, FFT, PTRANS, RandomAccess).
    Fig1,
    /// Figure 2: HALO protocols, mappings, grid sizes.
    Fig2,
    /// Figure 3: IMB Allreduce and Bcast.
    Fig3,
    /// §II.C: the TOP500 HPL run with power.
    Top500,
    /// Figure 4: POP tenth-degree benchmark.
    Fig4,
    /// Figure 5: CAM.
    Fig5,
    /// Figure 6: S3D.
    Fig6,
    /// Figure 7: GYRO.
    Fig7,
    /// Figure 8: LAMMPS and PMEMD.
    Fig8,
    /// Table 3: power comparison.
    Table3,
}

impl ExperimentId {
    /// All experiments in paper order.
    pub fn all() -> [ExperimentId; 12] {
        use ExperimentId::*;
        [Table1, Table2, Fig1, Fig2, Fig3, Top500, Fig4, Fig5, Fig6, Fig7, Fig8, Table3]
    }

    /// Short slug for file names / CLI.
    pub fn slug(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Table1 => "table1",
            Table2 => "table2",
            Fig1 => "fig1",
            Fig2 => "fig2",
            Fig3 => "fig3",
            Top500 => "top500",
            Fig4 => "fig4",
            Fig5 => "fig5",
            Fig6 => "fig6",
            Fig7 => "fig7",
            Fig8 => "fig8",
            Table3 => "table3",
        }
    }

    /// Parse a slug.
    pub fn from_slug(s: &str) -> Option<ExperimentId> {
        ExperimentId::all().into_iter().find(|e| e.slug() == s.trim().to_lowercase())
    }

    /// The experiment's two halves: its tables and figures, and the
    /// representative scenarios its traced battery replays (none for
    /// Table 1, which prices no program).
    fn parts(self) -> (Render, fn(Scale) -> Vec<Traced>) {
        use paper::{apps, micro, power};
        use ExperimentId::*;
        match self {
            Table1 => (|_| (vec![micro::table1()], vec![]), |_| vec![]),
            Table2 => (|s| (vec![micro::table2(s)], vec![]), micro::table2_traced),
            Fig1 => (|s| (vec![], micro::fig1(s)), micro::fig1_traced),
            Fig2 => (|s| (vec![], micro::fig2(s)), micro::fig2_traced),
            Fig3 => (|s| (vec![], micro::fig3(s)), micro::fig3_traced),
            Top500 => (|_| (vec![micro::top500_table()], vec![]), micro::top500_traced),
            Fig4 => (|s| (vec![], apps::fig4(s)), apps::fig4_traced),
            Fig5 => (|s| (vec![], apps::fig5(s)), apps::fig5_traced),
            Fig6 => (|s| (vec![], apps::fig6(s)), apps::fig6_traced),
            Fig7 => (|s| (vec![], apps::fig7(s)), apps::fig7_traced),
            Fig8 => (|s| (vec![], apps::fig8(s)), apps::fig8_traced),
            Table3 => (|s| (vec![power::table3(s)], vec![]), power::table3_traced),
        }
    }

    /// The representative scenarios of the experiment's traced battery
    /// at `scale`, labelled; empty if it prices no MPI program.
    pub fn traced(self, scale: Scale) -> Vec<Traced> {
        (self.parts().1)(scale)
    }
}

/// An experiment's render step: its tables and figure panels at a scale.
type Render = fn(Scale) -> (Vec<Table>, Vec<Figure>);

/// How big to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Reduced rank counts: the full battery in minutes. Shapes hold.
    Quick,
    /// The paper's process counts (slow; use for the recorded repro).
    Paper,
}

impl Scale {
    /// Scale a paper-sized process count down for Quick runs.
    pub fn ranks(self, paper_ranks: usize) -> usize {
        match self {
            Scale::Paper => paper_ranks,
            Scale::Quick => (paper_ranks / 16).clamp(16, 2048),
        }
    }
}

/// The output of one experiment: tables and/or figure panels.
#[derive(Debug, Clone, Serialize)]
pub struct Artifact {
    /// Which experiment.
    pub id: ExperimentId,
    /// Scale it ran at.
    pub scale: Scale,
    /// Tables produced.
    pub tables: Vec<Table>,
    /// Figure panels produced.
    pub figures: Vec<Figure>,
}

impl Artifact {
    /// Render everything as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for f in &self.figures {
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }

    /// Write CSV files (one per table/figure) into `dir`; returns the
    /// paths written.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            let p = dir.join(format!("{}_{}.csv", self.id.slug(), i));
            std::fs::write(&p, t.to_csv())?;
            paths.push(p);
        }
        for (i, f) in self.figures.iter().enumerate() {
            let p = dir.join(format!("{}_panel{}.csv", self.id.slug(), i));
            std::fs::write(&p, f.to_csv())?;
            paths.push(p);
        }
        Ok(paths)
    }
}

/// Run one experiment at the given scale.
pub fn run_experiment(id: ExperimentId, scale: Scale) -> Artifact {
    let (tables, figures) = (id.parts().0)(scale);
    Artifact { id, scale, tables, figures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for id in ExperimentId::all() {
            assert_eq!(ExperimentId::from_slug(id.slug()), Some(id));
        }
        assert_eq!(ExperimentId::from_slug("nope"), None);
        assert_eq!(ExperimentId::from_slug(" FIG3 "), Some(ExperimentId::Fig3));
    }

    #[test]
    fn quick_scale_shrinks() {
        assert_eq!(Scale::Quick.ranks(8192), 512);
        assert_eq!(Scale::Quick.ranks(40_000), 2048);
        assert_eq!(Scale::Quick.ranks(64), 16);
        assert_eq!(Scale::Paper.ranks(8192), 8192);
    }

    #[test]
    fn all_lists_twelve() {
        assert_eq!(ExperimentId::all().len(), 12);
    }
}
