#!/usr/bin/env sh
# Repo hygiene gate: ys-lint static analysis plus rustdoc and clippy, all
# deny-by-default, plus a deterministic ys-chaos fault-campaign smoke with
# a byte-identity replay diff as a tier-1 gate.
# Run from anywhere inside the repo; CI and pre-commit both call this.
set -eu

cd "$(dirname "$0")/.."

# The lint's dead-pub rule builds a marked copy of the sources under
# target/; it must never write to the working tree.
echo "==> cargo xtask lint (ys-lint: panic/wall-clock/entropy/iteration/dead-pub rules)"
status_before=$(git status --porcelain)
cargo xtask lint
if [ "$(git status --porcelain)" != "$status_before" ]; then
    echo "FAIL: cargo xtask lint changed the working tree" >&2
    git status --porcelain >&2
    exit 1
fi

echo "==> cargo xtask doc (rustdoc, -D warnings)"
cargo xtask doc

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy unavailable in this toolchain; skipping (xtask lint still ran)"
fi

# The out-of-workspace benchmark builds against the crates' public surface
# and pins their dependency edges in its own lockfile: a refactor that
# drifts either must fail here, not in the benchmark pipeline.
echo "==> cargo check benchmark/ (--locked --offline: public surface + dependency edges)"
cargo check --locked --offline --manifest-path benchmark/Cargo.toml

echo "==> ys-chaos fault-campaign smoke + in-process double-run (seed 4, 64 steps)"
cargo run -q -p ys-chaos -- --seed 4 --steps 64 --double-run --quiet

# End-to-end integrity: a seeded latent-error campaign must detect every
# injected corruption and repair it (with the source attributed) or
# declare it lost explicitly — plus the in-process byte-identity replay.
echo "==> ys-scrub latent-error campaign + in-process double-run (seed 4, 64 errors)"
cargo run -q -p ys-scrub -- --seed 4 --double-run --quiet

# Blade lifecycle: the seeded drain/fail/heal/rejoin campaign must lose
# zero acknowledged writes through planned and unplanned membership churn,
# refuse writes exactly at ReadOnly health, and replay byte-identically.
echo "==> ys-heal lifecycle campaign + in-process double-run (seed 4)"
cargo run -q -p ys-heal -- --seed 4 --double-run --quiet

# The root examples count as callers under ys-lint's dead-pub rule, so
# they must also keep running: each must exit 0 (debug build, well under a
# second each).
echo "==> cargo run --example (the five root examples exit 0)"
for example in quickstart lab_campaign content_streaming storage_admin protocol_gateway; do
    cargo run -q -p ys-core --example "$example" > /dev/null || {
        echo "FAIL: example $example exited non-zero" >&2
        exit 1
    }
done

# Cross-process byte-identity: two separate invocations of the same seed
# must print identical transcripts. The in-process double-run above already
# catches per-instance hasher drift; this one also covers anything that
# varies per process (ASLR-dependent ordering, env, globals).
echo "==> ys-chaos cross-process determinism diff (seed 4, 64 steps)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q -p ys-chaos -- --seed 4 --steps 64 > "$tmpdir/run1.txt"
cargo run -q -p ys-chaos -- --seed 4 --steps 64 > "$tmpdir/run2.txt"
if ! cmp -s "$tmpdir/run1.txt" "$tmpdir/run2.txt"; then
    echo "FAIL: same-seed runs differ across processes — replay determinism broken" >&2
    diff "$tmpdir/run1.txt" "$tmpdir/run2.txt" >&2 || true
    exit 1
fi
echo "    transcripts byte-identical across processes"

# Parallelism must be a throughput knob, not a behaviour knob: the merged
# sweep report has to be byte-identical whether shards ran on one worker
# or four. (ys-sweep's own tests pin this too; this gate catches it at the
# shipped-binary level, after any cargo feature/profile skew.)
echo "==> ys-sweep parallel-vs-serial determinism smoke (chaos seeds 1..5)"
cargo run -q -p ys-sweep -- chaos --seeds 1..5 --steps 32 --jobs 1 > "$tmpdir/sweep1.txt"
cargo run -q -p ys-sweep -- chaos --seeds 1..5 --steps 32 --jobs 4 > "$tmpdir/sweep4.txt"
if ! cmp -s "$tmpdir/sweep1.txt" "$tmpdir/sweep4.txt"; then
    echo "FAIL: --jobs 4 sweep differs from --jobs 1 — shard merge broke determinism" >&2
    diff "$tmpdir/sweep1.txt" "$tmpdir/sweep4.txt" >&2 || true
    exit 1
fi
echo "    sweep reports byte-identical across --jobs 1/4"

# The concurrent-failure gate: 576 seeded 128-step campaigns at the CLI's
# default 12 injections, every promise held — every seed below the pinned
# 576..584 file of the next gate. (The five known failing seeds — 580,
# 728, 1076, 1421, 1611, ROADMAP item 6 — lie outside this range; the next
# gate pins the first of them.) Affordable on every run: the oracle's
# per-step cache audit is a checkpoint of what changed, and a sweep worker
# builds its campaign fixture once, not once per seed.
echo "==> ys-sweep chaos --seeds 0..576 --steps 128 (576 fault campaigns, all promises held)"
cargo run --release -q -p ys-sweep -- chaos --seeds 0..576 --steps 128 > "$tmpdir/sweep576.txt" || {
    echo "FAIL: a campaign in seeds 0..576 broke a promise" >&2
    grep -E "FAIL|^ys-sweep:" "$tmpdir/sweep576.txt" >&2 || true
    exit 1
}
tail -n 1 "$tmpdir/sweep576.txt" | sed 's/^/    /'

# Seed 580 fails today, and must keep failing the same way until item 6
# fixes it: its [acked-write-lost] verdict, its shrunk three-entry schedule
# and its neighbours' passing transcripts are pinned byte for byte, so a
# change to the oracle's audit path cannot quietly alter what it reports.
echo "==> ys-sweep chaos --seeds 576..584 --steps 128 vs scripts/chaos_sweep_576_584.expected"
cargo run --release -q -p ys-sweep -- chaos --seeds 576..584 --steps 128 > "$tmpdir/sweep580.txt" || true
if ! cmp -s "$tmpdir/sweep580.txt" scripts/chaos_sweep_576_584.expected; then
    echo "FAIL: seeds 576..584 no longer report what scripts/chaos_sweep_576_584.expected pins" >&2
    diff scripts/chaos_sweep_576_584.expected "$tmpdir/sweep580.txt" >&2 || true
    exit 1
fi
echo "    seed 580's failure report unchanged"

# The fatal path: no gate above generates a KillDirtyPage. With --fatal the
# schedule ends in a deliberate N-failure, and the run exits 0 only when
# the oracle surfaces it as an explicit acked-write loss (never one within
# budget) and ddmin shrinks it to a replayable schedule. Seeds 16, 46 and
# 155 are the ones where a destage falls due during the kill's own write:
# the kill must apply it before picking its victim, or it loses nothing.
for seed in 4 16 46 155; do
    echo "==> ys-chaos --seed $seed --steps 64 --fatal (the N-failure is found and shrunk)"
    cargo run --release -q -p ys-chaos -- --seed "$seed" --steps 64 --fatal --quiet
done

# Security pillar: the §5 enforcement stack must hold end to end. The two
# checkpointed scenarios fail loudly (non-zero exit) if any cross-tenant
# frame succeeds, a denial goes unaudited, media bytes are plaintext, or
# hardware-assist crypt falls more than 5% off wire speed — and the model
# checker exhausts the mask/zone/cipher state space (saturates at depth 7).
echo "==> ys-report secure-tenants + wire-speed-crypt (E2/E11 checkpoints)"
for scenario in secure-tenants wire-speed-crypt; do
    cargo run -q -p ys-bench --bin ys-report -- "$scenario" --trace-out "$tmpdir/$scenario.trace.json" \
        > "$tmpdir/$scenario.txt" || {
        echo "FAIL: a $scenario checkpoint failed" >&2
        grep FAIL "$tmpdir/$scenario.txt" >&2 || true
        exit 1
    }
done
echo "    all E2/E11 checkpoints passed"

echo "==> ys-check --security --depth 7 (exhaustive §5 enforcement model)"
cargo run -q -p ys-check --release -- --security --depth 7

echo "==> ys-check --heal --depth 7 (exhaustive blade-lifecycle model)"
cargo run -q -p ys-check --release -- --heal --depth 7

# Capacity below the page count puts eviction in scope: a page is held
# while dirty, released by destage and evicted, in every interleaving, with
# the held list and the heal queue audited against their scans per state.
echo "==> ys-check --blades 2 --pages 4 --capacity 2 --depth 5 (cache model with eviction reachable)"
cargo run -q -p ys-check --release -- --blades 2 --pages 4 --capacity 2 --depth 5

# The failover scope: two pages leave room for depth 7, where every
# crash/promote/destage interleaving meets the cache model's failover
# checks (promotion to a prior replica, loud loss). About 0.15 s.
echo "==> ys-check --pages 2 --depth 7 (cache model over the failover scope)"
cargo run -q -p ys-check --release -- --pages 2 --depth 7

# Behaviour drift gate: regenerating the snapshot (simulation metrics and
# transcript digests only) must reproduce BENCH_baseline.json exactly.
echo "==> cargo xtask bench-snapshot --check (sim metrics vs BENCH_baseline.json)"
cargo xtask bench-snapshot --check

# EXPERIMENTS.md quotes the report's sections; they are generated, so a
# change that moves a claim's numbers must regenerate the document too.
echo "==> cargo xtask experiments --check (EXPERIMENTS.md's measured blocks vs report)"
cargo xtask experiments --check

echo "==> all checks passed"
