//! The perf-trajectory baseline: `BENCH_baseline.json`.
//!
//! A snapshot records, per scenario, the *simulation* metrics (states
//! explored, campaigns run, simulated MB/s, transcript digests) —
//! identical on every machine and every run. The JSON is hand-rendered
//! with sorted keys and fixed four-decimal formatting, so two snapshots
//! differ exactly where the code's behaviour differs and the drift gate is
//! a plain string compare. Host cost is not recorded here: `benchmark/`
//! measures it.

use crate::pool::run_sweep;
use crate::shard::{campaign_sweep, SweepOutcome};
use std::fmt::Write as _;
use ys_bench::claims::CLAIMS;
use ys_bench::experiments::{seed_run, summarize_seed_sweep};
use ys_bench::report::section;
use ys_check::{run_standard, STANDARD_MODELS};
use ys_obs::chrome_trace_json;

/// Schema tag embedded in every snapshot; bump on layout changes.
pub const SCHEMA: &str = "ys-bench-snapshot/v1";

/// Exploration depth for the model-checker scenarios.
const CHECK_DEPTH: usize = 4;
/// State cap for the model-checker scenarios.
const CHECK_MAX_STATES: usize = 2_000_000;
/// Seeds for the chaos-campaign scenario.
const CHAOS_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
/// Workload steps per chaos campaign.
const CHAOS_STEPS: u64 = 32;
/// Seeds for the heal- and scrub-campaign scenarios.
const CAMPAIGN_SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Seeds for the benchmark confidence-sweep scenario.
const BENCH_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// One named stage and its simulation metrics.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stage name, e.g. `check_cache` or `bench_seed_sweep`.
    pub name: String,
    /// `(metric, value)` pairs; sorted by metric name at render time.
    pub sim: Vec<(String, f64)>,
}

/// 32-bit FNV-1a of a rendered report. `report_bytes` alone pins only the
/// length of a transcript; the digest pins its content, and 32 bits fit an
/// `f64` (and the snapshot's fixed-decimal rendering) exactly.
// lint: allow(dead-pub) — (b) the pin function tests/claims.rs recomputes every claims digest with
pub fn digest(text: &str) -> f64 {
    let h = text.bytes().fold(0x811c_9dc5u32, |h, b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193));
    f64::from(h)
}

/// The `sim` block of a merged campaign sweep.
fn sweep_sim(unit: &str, shards: usize, sweep: &SweepOutcome) -> Vec<(String, f64)> {
    vec![
        (unit.into(), shards as f64),
        ("all_passed".into(), sweep.ok as u64 as f64),
        ("report_bytes".into(), sweep.report.len() as f64),
        ("report_digest".into(), digest(&sweep.report)),
    ]
}

/// Run every snapshot scenario with `jobs` workers.
pub fn collect(jobs: usize) -> Vec<Scenario> {
    let mut out = Vec::new();

    for model in STANDARD_MODELS {
        let run = run_standard(model, CHECK_DEPTH, CHECK_MAX_STATES)
            .expect("standard model list is self-consistent");
        out.push(Scenario {
            name: format!("check_{model}"),
            sim: vec![
                ("states_visited".into(), run.states_visited as f64),
                ("transitions".into(), run.transitions as f64),
                ("deduplicated".into(), run.deduplicated as f64),
                ("deepest".into(), run.deepest as f64),
                ("violations".into(), run.found_counterexample as u64 as f64),
            ],
        });
    }

    let chaos = campaign_sweep(&CHAOS_SEEDS, jobs, |seed| ys_chaos::RunOptions::new(seed, CHAOS_STEPS));
    let mut sim = sweep_sim("campaigns", CHAOS_SEEDS.len(), &chaos);
    sim.push(("steps_per_campaign".into(), CHAOS_STEPS as f64));
    out.push(Scenario { name: "chaos_sweep".into(), sim });

    let heal = campaign_sweep(&CAMPAIGN_SEEDS, jobs, |seed| ys_heal::CampaignConfig { seed });
    let sim = sweep_sim("campaigns", CAMPAIGN_SEEDS.len(), &heal);
    out.push(Scenario { name: "heal_sweep".into(), sim });

    let scrub = campaign_sweep(&CAMPAIGN_SEEDS, jobs, |seed| ys_scrub::CampaignConfig { seed });
    let sim = sweep_sim("campaigns", CAMPAIGN_SEEDS.len(), &scrub);
    out.push(Scenario { name: "scrub_sweep".into(), sim });

    out.extend(claims(jobs));

    let results = run_sweep(BENCH_SEEDS.to_vec(), jobs, |&seed| seed_run(seed));
    let [mean, min, max] = summarize_seed_sweep(&results);
    out.push(Scenario {
        name: "bench_seed_sweep".into(),
        sim: vec![
            ("seeds".into(), BENCH_SEEDS.len() as f64),
            ("mean_mb_s".into(), mean),
            ("min_mb_s".into(), min),
            ("max_mb_s".into(), max),
        ],
    });

    out
}

/// The claim registry, each claim run once with `jobs` workers, as three
/// scenarios: `report_suite` (every ys-report rendering, concatenated in
/// registry order), `experiment_report` (what `report --obs` prints at a
/// zero clock; A3 is the only caller of the peer-supply-off read arm and
/// E12 the only non-test caller of the services' plan charging) and
/// `claims` — one artifact per `report` section, the `--obs` appendix, and
/// per ys-report rendering and its Chrome trace, so a change names the
/// claim it moved, not just the suite.
// lint: allow(dead-pub) — (b) the claims block tests/claims.rs in ys-bench checks against report and ys-report
pub fn claims(jobs: usize) -> Vec<Scenario> {
    let reports = run_sweep(CLAIMS.to_vec(), jobs, |claim| (claim.run)());
    let mut pinned = Vec::new();
    let mut pin = |name: &str, text: &str| {
        pinned.push((format!("{name}_bytes"), text.len() as f64));
        pinned.push((format!("{name}_digest"), digest(text)));
    };
    let (mut renders, mut sections) = (String::new(), String::new());
    let (mut scenarios, mut ok) = (0, true);
    for (claim, r) in CLAIMS.iter().zip(&reports) {
        if let Some(id) = claim.id {
            let text = section(id, claim.what, r);
            pin(id, &text);
            sections.push_str(&text);
        }
        if let Some(name) = claim.name {
            let text = r.render(name);
            pin(name, &text);
            pin(&format!("{name}_trace"), &chrome_trace_json(&r.events));
            renders.push_str(&text);
            scenarios += 1;
            ok &= r.all_pass();
        }
    }
    let obs = ys_bench::obs_breakdown::breakdown();
    pin("obs", &obs);
    sections.push_str(&obs);
    // `run_report`'s footer, at the injected zero clock.
    sections.push_str("(suite completed in 0.0s)\n");
    let report_suite = SweepOutcome { report: renders, ok };
    let experiment_report = SweepOutcome { report: sections, ok: true };
    vec![
        Scenario { name: "report_suite".into(), sim: sweep_sim("scenarios", scenarios, &report_suite) },
        Scenario { name: "experiment_report".into(), sim: sweep_sim("suites", 1, &experiment_report) },
        Scenario { name: "claims".into(), sim: pinned },
    ]
}

/// Render scenarios as the snapshot JSON document.
///
/// Deterministic by construction: scenario order is collection order,
/// metric keys are sorted, and all numbers print with four fixed decimals.
pub fn render(scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"scenarios\": {\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", sc.name);
        out.push_str("      \"sim\": {\n");
        let mut sim = sc.sim.clone();
        sim.sort_by(|a, b| a.0.cmp(&b.0));
        for (j, (k, v)) in sim.iter().enumerate() {
            let comma = if j + 1 < sim.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{k}\": {v:.4}{comma}");
        }
        out.push_str("      }\n");
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// Compare two snapshots exactly. `None` means no drift; `Some(report)`
/// describes the first divergence.
pub fn diff(baseline: &str, current: &str) -> Option<String> {
    if baseline == current {
        return None;
    }
    let mut msg = String::from("benchmark snapshot drifted from BENCH_baseline.json:\n");
    for (n, (la, lb)) in baseline.lines().zip(current.lines()).enumerate() {
        if la != lb {
            let _ = writeln!(msg, "  first divergence (line {}):", n + 1);
            let _ = writeln!(msg, "    baseline: {la}");
            let _ = writeln!(msg, "    current:  {lb}");
            return Some(msg);
        }
    }
    let _ = writeln!(
        msg,
        "  line counts differ: baseline {} vs current {}",
        baseline.lines().count(),
        current.lines().count()
    );
    Some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "check_cache".into(),
                sim: vec![("transitions".into(), 10.0), ("states_visited".into(), 4.0)],
            },
            Scenario {
                name: "bench_seed_sweep".into(),
                sim: vec![("mean_mb_s".into(), 123.456789)],
            },
        ]
    }

    #[test]
    fn schema_layout_is_pinned() {
        // This is the committed BENCH_baseline.json layout; changing it
        // means bumping SCHEMA and regenerating the baseline.
        let got = render(&sample());
        let want = "{\n\
                    \x20 \"schema\": \"ys-bench-snapshot/v1\",\n\
                    \x20 \"scenarios\": {\n\
                    \x20   \"check_cache\": {\n\
                    \x20     \"sim\": {\n\
                    \x20       \"states_visited\": 4.0000,\n\
                    \x20       \"transitions\": 10.0000\n\
                    \x20     }\n\
                    \x20   },\n\
                    \x20   \"bench_seed_sweep\": {\n\
                    \x20     \"sim\": {\n\
                    \x20       \"mean_mb_s\": 123.4568\n\
                    \x20     }\n\
                    \x20   }\n\
                    \x20 }\n}\n";
        assert_eq!(got, want);
    }

    #[test]
    fn digest_is_fnv1a_32() {
        assert_eq!(digest(""), f64::from(0x811c_9dc5u32));
        assert_eq!(digest("a"), f64::from(0xe40c_292cu32));
    }

    #[test]
    fn any_changed_metric_is_drift() {
        let base = render(&sample());
        assert_eq!(diff(&base, &render(&sample())), None);

        let mut moved = sample();
        moved[0].sim[0].1 = 11.0;
        let d = diff(&base, &render(&moved)).expect("sim drift must be flagged");
        assert!(d.contains("transitions"), "{d}");
    }

    #[test]
    fn collected_snapshot_is_deterministic_across_jobs() {
        // The snapshot must not depend on worker count.
        let a = render(&collect(1));
        let b = render(&collect(4));
        assert_eq!(a, b);
        assert!(a.contains("\"check_heal\""));
        assert!(a.contains("\"chaos_sweep\""));
        for section in ["heal_sweep", "scrub_sweep", "report_suite", "claims", "experiment_report"] {
            assert!(a.contains(&format!("\"{section}\"")), "{section} missing");
        }
        assert!(a.contains("\"report_digest\""));
        assert!(a.contains("\"all_passed\": 1.0000"));
    }
}
