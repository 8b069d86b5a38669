//! One registry, three doors: every standard model must render the same
//! bytes whether it is reached by name (`run_standard`), by its `ys-check`
//! flag, or as a `ys-sweep check` shard.

use ys_check::{parse_args, run_named, run_standard, STANDARD_MODELS};
use ys_sweep::check_sweep;

#[test]
fn every_standard_model_renders_the_same_bytes_by_name_by_flag_and_by_sweep() {
    for &model in STANDARD_MODELS {
        let by_name = run_standard(model, 3, 200_000).expect("registry knows its own names").rendered;

        // `cache` is the CLI's default and has no flag of its own.
        let mut args = vec!["--depth", "3", "--max-states", "200000"];
        let flag = format!("--{model}");
        if model != "cache" {
            args.push(&flag);
        }
        let inv = parse_args(args.into_iter().map(String::from)).expect("valid invocation");
        assert_eq!(inv.model, model);
        let by_flag = run_named(inv.model, inv.scope, inv.limits, inv.order, || 0.0).expect("parsed model runs");
        assert_eq!(by_flag.rendered, by_name, "{model}: CLI flag");

        let by_sweep = check_sweep(&[model.to_string()], 3, 200_000, 2);
        let framed = format!("=== ys-check {model} ===\n{by_name}ys-sweep: 1 models, 0 violations\n");
        assert_eq!(by_sweep.report, framed, "{model}: ys-sweep check");
    }
}
