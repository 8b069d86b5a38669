//! One registry, two doors: every standard model must render the same
//! bytes whether it is reached by name (`run_standard`) or by its
//! `ys-check` flag.

use ys_check::{parse_args, run_named, run_standard, STANDARD_MODELS};

#[test]
fn every_standard_model_renders_the_same_bytes_by_name_and_by_flag() {
    for &model in STANDARD_MODELS {
        let by_name = run_standard(model, 3, 2_000_000).expect("registry knows its own names").rendered;

        // `cache` is the CLI's default and has no flag of its own.
        let mut args = vec!["--depth", "3"];
        let flag = format!("--{model}");
        if model != "cache" {
            args.push(&flag);
        }
        let inv = parse_args(args.into_iter().map(String::from)).expect("valid invocation");
        assert_eq!(inv.model, model);
        let by_flag = run_named(inv.model, inv.scope, inv.limits, || 0.0).expect("parsed model runs");
        assert_eq!(by_flag.rendered, by_name, "{model}: CLI flag");
    }
}
