//! Run reports: aligned tables, paper-claim checkpoints, the bundle a
//! claim's run hands to its renderers, and the `report` renderer itself.
//!
//! [`RunReport::render`] is the `ys-report` rendering; [`run_report`] is
//! the body of `src/bin/report.rs`, kept here so the library stays
//! clock-free: the binary injects an elapsed-seconds reader and the
//! wall-clock exemption covers only that thin shim.

use crate::claims::{by_id, CLAIMS};
use crate::registry::MetricsRegistry;
use std::io::Write;
use ys_simcore::stats::Series;
use ys_simcore::SpanEvent;

/// One verifiable claim from the paper, checked against a live metric.
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// The paper's claim, with its section number.
    pub(crate) claim: &'static str,
    /// The registry metric (dotted name) the check reads.
    pub(crate) metric: String,
    /// Observed value, already formatted.
    pub(crate) observed: String,
    /// The acceptance bound, already formatted (e.g. "> 9.0").
    pub(crate) target: String,
    pub(crate) pass: bool,
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
pub(crate) struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub(crate) fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with each column padded to its widest cell. First column is
    /// left-aligned (labels), the rest right-aligned (numbers).
    pub(crate) fn render(&self) -> String {
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
    pub(crate) series: Vec<Series>,
    pub(crate) tables: Vec<Table>,
    pub(crate) checkpoints: Vec<Checkpoint>,
    pub registry: MetricsRegistry,
    /// Structured trace, time-sorted, ready for [`ys_simcore::chrome_trace_json`].
    pub events: Vec<SpanEvent>,
    /// Events lost to ring overflow across every drained ring.
    pub(crate) dropped: u64,
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
    fn body(&self) -> String {
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
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// One report section: the id and description in a banner, then the
/// claim's body and a blank line.
pub fn section(id: &str, what: &str, report: &RunReport) -> String {
    let rule = "================================================================";
    format!("{rule}\n{id} {what}\n{rule}\n{}\n", report.body())
}

/// Run the claims whose ids `args` names (every claim with an id when it
/// names none; `--obs` appends the observability breakdown) and write their
/// sections to `out` in registry order. Ids match exactly, ignoring case;
/// an unknown one, or any flag but `--obs`, is an error that lists the
/// known ids. `elapsed` is sampled once for the trailing footer; pass
/// `|| 0.0` for byte-stable output.
pub fn run_report(out: &mut impl Write, args: &[String], elapsed: impl Fn() -> f64) -> Result<(), String> {
    let obs = args.iter().any(|a| a == "--obs");
    let known = || CLAIMS.iter().filter_map(|c| c.id).collect::<Vec<_>>().join(" ");
    if let Some(flag) = args.iter().find(|a| a.starts_with('-') && a.as_str() != "--obs") {
        return Err(format!("unknown flag {flag}; ids: {}", known()));
    }
    let ids: Vec<String> = args.iter().filter(|a| a.as_str() != "--obs").map(|a| a.to_uppercase()).collect();
    if let Some(bad) = ids.iter().find(|id| by_id(id).is_none()) {
        return Err(format!("unknown id {bad}; ids: {}", known()));
    }
    let io = |e: std::io::Error| e.to_string();
    for claim in CLAIMS {
        let Some(id) = claim.id else { continue };
        if ids.is_empty() || ids.iter().any(|i| i == id) {
            write!(out, "{}", section(id, claim.what, &(claim.run)())).map_err(io)?;
        }
    }
    if obs {
        write!(out, "{}", crate::obs_breakdown::breakdown()).map_err(io)?;
    }
    writeln!(out, "(suite completed in {:.1}s)", elapsed()).map_err(io)
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
