//! The `report` renderer of [`crate::claims`], factored out of
//! `src/bin/report.rs` so the library stays clock-free: the binary injects
//! an elapsed-seconds reader and the wall-clock exemption covers only that
//! thin shim.

use crate::claims::{by_id, CLAIMS};
use std::io::Write;
use ys_obs::RunReport;

/// One report section: the id and description in a banner, then the
/// claim's body and a blank line.
pub fn section(id: &str, what: &str, report: &RunReport) -> String {
    let rule = "================================================================";
    format!("{rule}\n{id} {what}\n{rule}\n{}\n", report.body())
}

/// Run the claims whose ids `args` names (every claim with an id when it
/// names none; `--obs` appends the ys-obs breakdown) and write their
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
