#!/bin/sh
# A/A check: run the full set twice on one build and compare the two.
# Passes only if no row is `regressed` or `unresolved`, every simulated
# result and count is identical, and every run was correct.
# Run from the repo root; extra arguments go to `aa` (--seed, --seconds).
set -eu
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- aa "$@"
