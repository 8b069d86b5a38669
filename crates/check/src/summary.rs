//! The standard-model registry: the one place that knows the seven model
//! names, shared by the `ys-check` CLI, [`run_standard`] and the
//! `ys-sweep` parallel harness.
//!
//! Each model describes itself and renders its own counterexamples
//! ([`StandardModel`]); [`run`] explores one, monomorphised, and renders
//! the block the CLI prints; [`run_named`] is the single dispatch from a
//! name to a model type. Library callers get `elapsed 0.00s` (the library
//! reads no clock); only the CLI injects a wall timer.

use crate::cache_model::{CacheModel, Scope};
use crate::explore::{explore_timed, Counterexample, Exploration, Limits, Model, SearchOrder};
use crate::failover_model::FailoverModel;
use crate::heal_model::HealModel;
use crate::integrity_model::IntegrityModel;
use crate::qos_model::QosModel;
use crate::security_model::SecurityModel;
use crate::virt_model::VirtModel;
use std::fmt::Write as _;

/// The seven standard model names, in canonical report order. The first is
/// the CLI's default; every other name is also the CLI flag `--<name>`.
pub const STANDARD_MODELS: &[&str] =
    &["cache", "virt", "qos", "failover", "integrity", "security", "heal"];

/// What a [`Model`] adds to be one of the [`STANDARD_MODELS`].
pub trait StandardModel: Model {
    /// The model in its acceptance scope, resized by the CLI's
    /// `--blades/--pages/--nway/--capacity` where the model has those
    /// dimensions. The flags' defaults are [`Scope::small`], which maps to
    /// every model's own `small()` scope.
    fn in_scope(cli: Scope) -> Self;

    /// The summary headline: model, scope and depth.
    fn describe(&self, depth: usize) -> String;

    /// The counterexample as a ready-to-paste regression test.
    fn render_counterexample(&self, cx: &Counterexample<Self::Op>) -> String;
}

/// Format one exploration result as the CLI's summary block.
pub fn render_summary<Op: std::fmt::Debug>(what: &str, r: &Exploration<Op>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ys-check: {what}");
    let _ = writeln!(out, "  states visited   {}", r.states_visited);
    let _ = writeln!(out, "  transitions      {}", r.transitions);
    let _ = writeln!(out, "  deduplicated     {}", r.deduplicated);
    let _ = writeln!(out, "  deepest path     {}", r.deepest);
    let _ = writeln!(out, "  truncated        {}", r.truncated);
    let _ = writeln!(out, "  elapsed          {:.2}s", r.elapsed_secs);
    out
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
pub fn run<M: StandardModel>(
    scope: Scope,
    limits: Limits,
    order: SearchOrder,
    elapsed: impl Fn() -> f64,
) -> StandardRun {
    let model = M::in_scope(scope);
    let what = model.describe(limits.max_depth);
    let r = explore_timed(model.clone(), limits, order, elapsed);
    let mut rendered = render_summary(&what, &r);
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

/// [`run`] the model called `model`: the one dispatch over
/// [`STANDARD_MODELS`].
pub fn run_named(
    model: &str,
    scope: Scope,
    limits: Limits,
    order: SearchOrder,
    elapsed: impl Fn() -> f64,
) -> Result<StandardRun, String> {
    Ok(match model {
        "cache" => run::<CacheModel>(scope, limits, order, elapsed),
        "virt" => run::<VirtModel>(scope, limits, order, elapsed),
        "qos" => run::<QosModel>(scope, limits, order, elapsed),
        "failover" => run::<FailoverModel>(scope, limits, order, elapsed),
        "integrity" => run::<IntegrityModel>(scope, limits, order, elapsed),
        "security" => run::<SecurityModel>(scope, limits, order, elapsed),
        "heal" => run::<HealModel>(scope, limits, order, elapsed),
        other => return Err(format!("unknown standard model `{other}` (try {STANDARD_MODELS:?})")),
    })
}

/// Run one named standard model breadth-first at `depth` in its acceptance
/// scope, bounded by `max_states` — what `ys-check --<model> --depth N
/// --max-states M` runs, so a `ys-sweep` shard renders the same bytes.
pub fn run_standard(model: &str, depth: usize, max_states: usize) -> Result<StandardRun, String> {
    let limits = Limits { max_depth: depth, max_states };
    run_named(model, Scope::small(), limits, SearchOrder::Bfs, || 0.0)
}

/// A parsed `ys-check` command line.
#[derive(Clone, Copy, Debug)]
pub struct Invocation {
    /// One of [`STANDARD_MODELS`].
    pub model: &'static str,
    /// `--blades/--pages/--nway/--capacity`.
    pub scope: Scope,
    /// `--depth/--max-states`.
    pub limits: Limits,
    /// `--dfs`.
    pub order: SearchOrder,
}

/// Parse `ys-check`'s arguments (without the program name). `Err` carries
/// the usage error; an empty one asks for the help text.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut inv = Invocation {
        model: STANDARD_MODELS[0],
        scope: Scope::small(),
        limits: Limits { max_depth: 5, max_states: 2_000_000 },
        order: SearchOrder::Bfs,
    };
    let mut chosen: Option<&'static str> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--blades" => inv.scope.blades = num("--blades")? as usize,
            "--pages" => inv.scope.pages = num("--pages")?,
            "--nway" => inv.scope.n_way = num("--nway")? as usize,
            "--capacity" => inv.scope.capacity_pages = num("--capacity")? as usize,
            "--depth" => inv.limits.max_depth = num("--depth")? as usize,
            "--max-states" => inv.limits.max_states = num("--max-states")? as usize,
            "--dfs" => inv.order = SearchOrder::Dfs,
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
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Invocation, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

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

    #[test]
    fn the_model_is_a_single_selection() {
        assert_eq!(args(&[]).unwrap().model, "cache");
        assert_eq!(args(&["--virt", "--depth", "6", "--virt"]).unwrap().model, "virt");
        let clash = args(&["--virt", "--qos"]).unwrap_err();
        assert!(clash.contains("--virt") && clash.contains("--qos"), "{clash}");
        // The default model has no flag of its own.
        assert_eq!(args(&["--cache"]).unwrap_err(), "unknown flag --cache");
        assert_eq!(args(&["--help"]).unwrap_err(), "");
        assert_eq!(args(&["--depth"]).unwrap_err(), "--depth needs a value");
    }

    #[test]
    fn scope_flags_resize_only_the_models_that_have_those_dimensions() {
        let inv = args(&["--heal", "--blades", "4", "--pages", "3", "--depth", "2"]).unwrap();
        let run = run_named(inv.model, inv.scope, inv.limits, inv.order, || 0.0).unwrap();
        assert!(run.rendered.starts_with("ys-check: heal model, 4 blades × 2 pages, 2-way writes, depth 2\n"));
        let inv = args(&["--virt", "--blades", "4", "--depth", "2"]).unwrap();
        let run = run_named(inv.model, inv.scope, inv.limits, inv.order, || 0.0).unwrap();
        assert_eq!(run.rendered, run_standard("virt", 2, 2_000_000).unwrap().rendered);
    }
}
