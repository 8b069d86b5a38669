//! Run reports: aligned tables, paper-claim checkpoints, and the bundle a
//! claim's run hands to its renderers (`report` and `ys-report`).

use crate::registry::MetricsRegistry;
use ys_simcore::stats::Series;
use ys_simcore::SpanEvent;

/// One verifiable claim from the paper, checked against a live metric.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The paper's claim, with its section number.
    pub claim: &'static str,
    /// The registry metric (dotted name) the check reads.
    pub metric: String,
    /// Observed value, already formatted.
    pub observed: String,
    /// The acceptance bound, already formatted (e.g. "> 9.0").
    pub target: String,
    pub pass: bool,
}

impl Checkpoint {
    fn render(&self) -> String {
        format!(
            "[{}] {} — {} = {} (target {})",
            if self.pass { "PASS" } else { "FAIL" },
            self.claim,
            self.metric,
            self.observed,
            self.target
        )
    }
}

/// A titled table with aligned columns.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with each column padded to its widest cell. First column is
    /// left-aligned (labels), the rest right-aligned (numbers).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("  ");
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cell, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cell, w = widths[i]));
                }
            }
            line
        };
        let mut out = format!("{}\n", self.title);
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str("  ");
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Everything one claim's run produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Labelled (x, y) series, printed before the tables.
    pub series: Vec<Series>,
    pub tables: Vec<Table>,
    pub checkpoints: Vec<Checkpoint>,
    pub registry: MetricsRegistry,
    /// Structured trace, time-sorted, ready for [`crate::chrome`].
    pub events: Vec<SpanEvent>,
    /// Events lost to ring overflow across every drained ring.
    pub dropped: u64,
}

impl From<Vec<Series>> for RunReport {
    fn from(series: Vec<Series>) -> RunReport {
        RunReport { series, ..RunReport::default() }
    }
}

impl RunReport {
    pub fn all_pass(&self) -> bool {
        self.checkpoints.iter().all(|c| c.pass)
    }

    /// Series, then tables, then checkpoints.
    pub fn body(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            out.push_str(&s.render("x", "y"));
        }
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.checkpoints.is_empty() {
            out.push_str("paper checkpoints\n");
            for c in &self.checkpoints {
                out.push_str("  ");
                out.push_str(&c.render());
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }

    /// The `ys-report` rendering: a title line, the body, then the trace
    /// ledger line.
    pub fn render(&self, name: &str) -> String {
        format!(
            "=== ys-report: {name} ===\n\n{}trace: {} events captured, {} dropped to ring overflow\n",
            self.body(),
            self.events.len(),
            self.dropped
        )
    }
}

/// Shared number formats, so tables and checkpoints agree.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("demo", &["blade", "Gb/s"]);
        t.row(vec!["0".into(), "3.40".into()]);
        t.row(vec!["11".into(), "10.01".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "demo");
        assert!(lines[1].contains("blade"));
        // Every data line has the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn checkpoint_renders_pass_and_fail() {
        let c = Checkpoint {
            claim: "§2.3 stream",
            metric: "fastpath.gbps".into(),
            observed: "9.48".into(),
            target: "> 9.0".into(),
            pass: true,
        };
        assert!(c.render().starts_with("[PASS]"));
        let c = Checkpoint { pass: false, ..c };
        assert!(c.render().starts_with("[FAIL]"));
    }
}
