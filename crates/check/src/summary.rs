//! The standard-model registry: the one place that knows the six model
//! names, with two doors — the `ys-check` CLI and [`run_standard`], which
//! the `ys-sweep` snapshot and the benchmark call.
//!
//! Each model describes itself and renders its own counterexamples
//! ([`StandardModel`]); `run` explores one, monomorphised, and renders
//! the block the CLI prints; [`run_named`] is the single dispatch from a
//! name to a model type. Library callers get `elapsed 0.00s` (the library
//! reads no clock); only the CLI injects a wall timer.

use crate::cache_model::{CacheModel, Scope};
use crate::explore::{explore_timed, Counterexample, Limits, Model};
use crate::heal_model::HealModel;
use crate::integrity_model::IntegrityModel;
use crate::qos_model::QosModel;
use crate::security_model::SecurityModel;
use crate::virt_model::VirtModel;
use std::fmt::Write as _;

/// The six standard model names, in canonical report order. The first is
/// the CLI's default; every other name is also the CLI flag `--<name>`.
pub const STANDARD_MODELS: &[&str] = &["cache", "virt", "qos", "integrity", "security", "heal"];

/// What a [`Model`] adds to be one of the [`STANDARD_MODELS`].
pub trait StandardModel: Model {
    /// The summary headline: model, scope and depth.
    fn describe(&self, depth: usize) -> String;

    /// The counterexample as a ready-to-paste regression test.
    fn render_counterexample(&self, cx: &Counterexample<Self::Op>) -> String;
}

/// One completed standard exploration: the rendered block plus the
/// headline counters a benchmark snapshot records.
#[derive(Clone, Debug)]
pub struct StandardRun {
    /// Summary block, plus the rendered counterexample if one was found.
    pub rendered: String,
    pub states_visited: usize,
    pub transitions: usize,
    pub deduplicated: usize,
    pub deepest: usize,
    pub found_counterexample: bool,
}

/// Explore one standard model and render exactly what `ys-check` prints
/// for it. `elapsed` is sampled once, when the exploration ends.
fn run<M: StandardModel>(model: M, limits: Limits, elapsed: impl Fn() -> f64) -> StandardRun {
    let what = model.describe(limits.max_depth);
    let r = explore_timed(model.clone(), limits, elapsed);
    let mut rendered = String::new();
    let _ = writeln!(rendered, "ys-check: {what}");
    let _ = writeln!(rendered, "  states visited   {}", r.states_visited);
    let _ = writeln!(rendered, "  transitions      {}", r.transitions);
    let _ = writeln!(rendered, "  deduplicated     {}", r.deduplicated);
    let _ = writeln!(rendered, "  deepest path     {}", r.deepest);
    let _ = writeln!(rendered, "  truncated        {}", r.truncated);
    let _ = writeln!(rendered, "  elapsed          {:.2}s", r.elapsed_secs);
    match &r.counterexample {
        Some(cx) => {
            let _ = writeln!(rendered, "\nCOUNTEREXAMPLE ({} ops):", cx.trace.len());
            let _ = writeln!(rendered, "{}", model.render_counterexample(cx));
        }
        None => rendered.push_str("  no violations in the explored space\n"),
    }
    StandardRun {
        rendered,
        states_visited: r.states_visited,
        transitions: r.transitions,
        deduplicated: r.deduplicated,
        deepest: r.deepest,
        found_counterexample: r.counterexample.is_some(),
    }
}

/// `run` the model called `model`: the one dispatch over
/// [`STANDARD_MODELS`]. `scope` is the CLI's `--blades/--pages/--capacity`
/// and resizes the two models on a `CacheCluster`, cache and
/// heal (which clamps pages to 2); the other four have a fixed scope.
pub fn run_named(model: &str, scope: Scope, limits: Limits, elapsed: impl Fn() -> f64) -> Result<StandardRun, String> {
    Ok(match model {
        "cache" => run(CacheModel::new(scope), limits, elapsed),
        "virt" => run(VirtModel::default(), limits, elapsed),
        "qos" => run(QosModel::default(), limits, elapsed),
        "integrity" => run(IntegrityModel::default(), limits, elapsed),
        "security" => run(SecurityModel::default(), limits, elapsed),
        "heal" => run(HealModel::new(scope), limits, elapsed),
        other => return Err(format!("unknown standard model `{other}` (try {STANDARD_MODELS:?})")),
    })
}

/// Run one named standard model breadth-first at `depth` in its acceptance
/// scope, bounded by `max_states` — at 2 000 000 states, what `ys-check
/// --<model> --depth N` runs.
pub fn run_standard(model: &str, depth: usize, max_states: usize) -> Result<StandardRun, String> {
    let limits = Limits { max_depth: depth, max_states };
    run_named(model, Scope::small(), limits, || 0.0)
}

/// A parsed `ys-check` command line.
#[derive(Clone, Copy, Debug)]
pub struct Invocation {
    /// One of [`STANDARD_MODELS`].
    pub model: &'static str,
    /// `--blades/--pages/--capacity`.
    pub scope: Scope,
    /// `--depth`, capped at 2 000 000 states.
    pub limits: Limits,
}

/// The CLI's state cap: far above every standard scope's reachable space,
/// so it only bounds a runaway resize.
const MAX_STATES: usize = 2_000_000;

/// Parse `ys-check`'s arguments (without the program name). `Err` carries
/// the usage error; an empty one asks for the help text. The scope flags
/// are an error for the four models with a fixed scope.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut inv = Invocation {
        model: STANDARD_MODELS[0],
        scope: Scope::small(),
        limits: Limits { max_depth: 5, max_states: MAX_STATES },
    };
    let mut chosen: Option<&'static str> = None;
    let mut resized: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        // Every scope value counts something the model needs at least one
        // of: a cluster without blades cannot be built, and no pages or no
        // depth explore an empty space.
        let mut num = |name: &str| -> Result<usize, String> {
            let n = it
                .next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))?;
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            Ok(n)
        };
        if resized.is_none() && matches!(flag.as_str(), "--blades" | "--pages" | "--capacity") {
            resized = Some(flag.clone());
        }
        match flag.as_str() {
            "--blades" => inv.scope.blades = num("--blades")?,
            "--pages" => inv.scope.pages = num("--pages")? as u64,
            "--capacity" => inv.scope.capacity_pages = num("--capacity")?,
            "--depth" => inv.limits.max_depth = num("--depth")?,
            "-h" | "--help" => return Err(String::new()),
            other => {
                // The default model, `STANDARD_MODELS[0]`, has no flag.
                let model = STANDARD_MODELS[1..].iter().find(|&&m| other.strip_prefix("--") == Some(m));
                match (model, chosen) {
                    (None, _) => return Err(format!("unknown flag {other}")),
                    (Some(&m), Some(c)) if m != c => {
                        return Err(format!("--{c} and --{m} select different models; pick one"));
                    }
                    (Some(&m), _) => chosen = Some(m),
                }
            }
        }
    }
    inv.model = chosen.unwrap_or(inv.model);
    match resized {
        Some(flag) if !matches!(inv.model, "cache" | "heal") => {
            Err(format!("{flag} resizes the cache and heal models only; --{} has a fixed scope", inv.model))
        }
        _ => Ok(inv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_standard_models_run_clean_at_small_depth() {
        for model in STANDARD_MODELS {
            let run = run_standard(model, 3, 500_000).expect("known model");
            assert!(!run.found_counterexample, "{model} found a violation:\n{}", run.rendered);
            assert!(run.states_visited > 1, "{model} explored nothing");
            assert!(run.rendered.contains("states visited"));
        }
    }

    #[test]
    fn unknown_model_is_an_error() {
        assert!(run_standard("nope", 3, 10).is_err());
    }

    #[test]
    fn summary_is_deterministic_text() {
        let a = run_standard("cache", 3, 500_000).expect("cache");
        let b = run_standard("cache", 3, 500_000).expect("cache");
        assert_eq!(a.rendered, b.rendered);
    }
}
