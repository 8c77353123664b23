#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verify
# (ROADMAP.md). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== rustdoc (-D warnings) =="
# Deleting a public item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1 verify: build =="
cargo build --release

echo "== tier-1 verify: tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== benchmark harness tests =="
# Same build directory as perfbench/run.py, so a public-API change that
# breaks the harness fails here rather than in a benchmark run.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
  cargo test --release --manifest-path perfbench/Cargo.toml

echo "== cold campaign: results byte-identical to perfbench/expected =="
# One cold 25-job campaign at the benchmark's pinned knobs; "correct"
# is true only if all 19 results/*.txt match the committed hashes.
bench_result="$(python3 perfbench/run.py --workload campaign_cold --seconds 1 --trace 0 | tail -n 1)"
echo "$bench_result"
grep -q '"correct":true' <<<"$bench_result"

echo "== checker smoke (correctness oracle) =="
cargo run --release --example checker_smoke

echo "== build determinism =="
cargo run --release --example det_check

echo "== staged-session equivalence =="
cargo run --release --example session_check

echo "== trace-engine equivalence (fast path vs slow step) =="
cargo run --release --example trace_equiv_check

echo "== campaign smoke (cold + warm, tiny knobs) =="
CAMPAIGN_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_DIR"' EXIT
export DT_SYNTH_N=4 DT_FUZZ_ITERS=8
cold_summary="$(cargo run --release -p experiments --bin all_experiments -- \
  --results "$CAMPAIGN_DIR" --quiet | tail -n 1)"
echo "cold: $cold_summary"
grep -q " failed=0 " <<<"$cold_summary"
warm_summary="$(cargo run --release -p experiments --bin all_experiments -- \
  --results "$CAMPAIGN_DIR" --quiet | tail -n 1)"
echo "warm: $warm_summary"
grep -q " ran=0 " <<<"$warm_summary"
grep -q " failed=0 " <<<"$warm_summary"
unset DT_SYNTH_N DT_FUZZ_ITERS

echo "CI green."
