//! Integration tests of the experiment pipeline: every experiment runs
//! at Quick scale, produces non-trivial artifacts, renders, exports CSV,
//! and is deterministic.

use bgp_eval::core::{run_experiment, ExperimentId, Scale};

/// Every experiment produces at least one table or figure with data.
#[test]
fn all_experiments_produce_artifacts() {
    for id in ExperimentId::all() {
        // the heaviest app figures are exercised individually below
        if matches!(id, ExperimentId::Fig1 | ExperimentId::Fig2 | ExperimentId::Fig4) {
            continue;
        }
        let a = run_experiment(id, Scale::Quick);
        let tables_ok = a.tables.iter().all(|t| !t.rows.is_empty());
        let figures_ok = a.figures.iter().all(|f| f.series.iter().all(|s| !s.points.is_empty()));
        assert!(tables_ok && figures_ok, "{:?} produced empty artifacts", id);
        assert!(!a.tables.is_empty() || !a.figures.is_empty(), "{:?} produced nothing", id);
        let text = a.render();
        assert!(text.contains("=="), "{:?} render missing titles", id);
    }
}

/// Fig 1 at quick scale: four panels, both machines, everything finite
/// and positive.
#[test]
fn fig1_quick_is_sane() {
    let a = run_experiment(ExperimentId::Fig1, Scale::Quick);
    assert_eq!(a.figures.len(), 4);
    for f in &a.figures {
        assert_eq!(f.series.len(), 2, "{} needs both machines", f.title);
        for s in &f.series {
            for &(x, y) in &s.points {
                assert!(x > 0.0 && y.is_finite() && y > 0.0, "{}/{}: ({x},{y})", f.title, s.name);
            }
        }
    }
    // HPL panel: rates grow with process count for both machines
    let hpl = &a.figures[0];
    for s in &hpl.series {
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        assert!(last > first * 2.0, "{} should scale: {first} -> {last}", s.name);
    }
}

/// Fig 2 at quick scale: six panels with the protocol/mapping structure.
#[test]
fn fig2_quick_is_sane() {
    let a = run_experiment(ExperimentId::Fig2, Scale::Quick);
    assert_eq!(a.figures.len(), 6);
    assert_eq!(a.figures[0].series.len(), 3, "three protocols");
    assert_eq!(a.figures[2].series.len(), 8, "eight mappings");
    // every series is monotone-ish in halo words (cost grows)
    for f in &a.figures {
        for s in &f.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "{}/{} should grow with words", f.title, s.name);
        }
    }
}

/// Fig 4 quick: panels present and the BG/P SYD curve increases.
#[test]
fn fig4_quick_is_sane() {
    let a = run_experiment(ExperimentId::Fig4, Scale::Quick);
    assert_eq!(a.figures.len(), 4);
    let total = &a.figures[0];
    let vn = &total.series[0];
    assert!(vn.points.last().unwrap().1 > vn.points.first().unwrap().1);
}

/// CSV export writes one file per artifact and the files parse back to
/// the right row counts.
#[test]
fn csv_round_trip() {
    let dir = std::env::temp_dir().join("bgp_eval_csv_test");
    let _ = std::fs::remove_dir_all(&dir);
    let a = run_experiment(ExperimentId::Table1, Scale::Quick);
    let paths = a.write_csv(&dir).expect("write");
    assert_eq!(paths.len(), 1);
    let content = std::fs::read_to_string(&paths[0]).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 1 + a.tables[0].rows.len());
    assert!(lines[0].starts_with("Feature,"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The whole pipeline is deterministic: two runs of the same experiment
/// render identically.
#[test]
fn experiments_are_deterministic() {
    let a = run_experiment(ExperimentId::Fig3, Scale::Quick).render();
    let b = run_experiment(ExperimentId::Fig3, Scale::Quick).render();
    assert_eq!(a, b);
}
