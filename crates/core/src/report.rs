//! Report primitives: tables and figure data series.
//!
//! Figures are reproduced as *data* (named series of (x, y) points) with
//! an aligned-text rendering and CSV export — the repository's stand-in
//! for the paper's plots.

use serde::Serialize;

/// A titled table of string cells.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table title (e.g. "Table 1: System Configuration Summary").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must match `headers.len()`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// One named data series of a figure.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label (e.g. "BG/P VN").
    pub name: String,
    /// (x, y) points in plot order.
    pub points: Vec<(f64, f64)>,
}

/// A figure panel as data.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Panel title (e.g. "Fig 3(a): Allreduce latency vs message size").
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// Data series.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push_series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series { name: name.into(), points });
    }

    /// Render as a cross-tabulated text table (x values down, one column
    /// per series).
    pub fn render(&self) -> String {
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&format!("   [y: {}]\n", self.y_label));
        let mut header = vec![format!("{:>14}", self.x_label)];
        for s in &self.series {
            header.push(format!("{:>16}", s.name));
        }
        out.push_str(&header.join(" "));
        out.push('\n');
        for &x in &xs {
            let mut row = vec![format!("{x:>14.6}")];
            for s in &self.series {
                let y = s
                    .points
                    .iter()
                    .find(|p| p.0 == x)
                    .map(|p| format!("{:>16.6}", p.1))
                    .unwrap_or_else(|| format!("{:>16}", "-"));
                row.push(y);
            }
            out.push_str(&row.join(" "));
            out.push('\n');
        }
        out
    }

    /// CSV: `x,series1,series2,…`.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        let mut out = String::from("x");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name.replace(',', ";"));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                out.push(',');
                if let Some(p) = s.points.iter().find(|p| p.0 == x) {
                    out.push_str(&format!("{}", p.1));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Y value of series `name` at `x`, if present (test helper).
    pub fn y_at(&self, name: &str, x: f64) -> Option<f64> {
        self.series.iter().find(|s| s.name == name)?.points.iter().find(|p| p.0 == x).map(|p| p.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["1".into(), "hello, world".into()]);
        t.push_row(vec!["22".into(), "x".into()]);
        t
    }

    #[test]
    fn table_renders_aligned() {
        let r = sample_table().render();
        assert!(r.contains("== T =="));
        let lines: Vec<&str> = r.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn table_csv_escapes_commas() {
        let csv = sample_table().to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    fn sample_figure() -> Figure {
        let mut f = Figure::new("F", "x", "y");
        f.push_series("s1", vec![(1.0, 10.0), (2.0, 20.0)]);
        f.push_series("s2", vec![(1.0, 11.0)]);
        f
    }

    #[test]
    fn figure_cross_tabulates() {
        let r = sample_figure().render();
        assert!(r.contains("s1"));
        assert!(r.contains("s2"));
        // x=2 has no s2 point: a dash appears
        assert!(r.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn figure_csv_holes_are_empty() {
        let csv = sample_figure().to_csv();
        let last = csv.lines().last().unwrap();
        assert_eq!(last, "2,20,");
    }

    #[test]
    fn y_at_lookup() {
        let f = sample_figure();
        assert_eq!(f.y_at("s1", 2.0), Some(20.0));
        assert_eq!(f.y_at("s2", 2.0), None);
        assert_eq!(f.y_at("nope", 1.0), None);
    }
}
