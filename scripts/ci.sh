#!/usr/bin/env bash
# Full local CI gate: release build, every workspace test, clippy with
# warnings promoted to errors, rustdoc with warnings promoted to errors,
# then the deep deterministic stages — a pinned-seed high-case proptest
# sweep and the fault-injection matrices. Run from anywhere inside the
# repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace-invariant lint first: it compiles in a blink (std-only, no
# deps) and fails fast on unannotated facade/ordering/panic/index/
# fault-hook violations and stale §12 contract rows (DESIGN.md §17).
echo "== tsg-lint (workspace invariants) =="
cargo run -q -p tsg-lint

# Negative smoke: prove the gate actually gates. Seed a throwaway
# mini-workspace containing one deliberate violation and assert the
# lint exits nonzero naming the expected rule id in its JSON output.
# (Cleaned up eagerly below — the spill stage later installs its own
# EXIT trap, which would replace one set here.)
lint_smoke_dir="$(mktemp -d)"
mkdir -p "$lint_smoke_dir/crates/demo/src"
printf '## 12. Atomics\n\n| ID | Site | Ordering | Contract |\n|--|--|--|--|\n| ORD-01 | probe | Relaxed | smoke row |\n' \
    > "$lint_smoke_dir/DESIGN.md"
cat > "$lint_smoke_dir/crates/demo/src/lib.rs" <<'RS'
pub fn f(x: Option<u32>) -> u32 { x.unwrap() }
pub fn g(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); } // tsg-lint: ordering(ORD-01)
RS
lint_smoke_status=0
lint_smoke_out="$(cargo run -q -p tsg-lint -- --root "$lint_smoke_dir" --format json)" \
    || lint_smoke_status=$?
if [ "$lint_smoke_status" -ne 1 ]; then
    echo "!! FAIL: tsg-lint negative smoke expected exit 1, got $lint_smoke_status" >&2
    exit 1
fi
printf '%s\n' "$lint_smoke_out" | grep -q '"rule": "panic"' || {
    echo "!! FAIL: tsg-lint negative smoke did not report the seeded panic violation" >&2
    exit 1
}
rm -rf "$lint_smoke_dir"

cargo build --release
# Tier-1 first (the root package's fast suites), then the full workspace.
cargo test -q
cargo test --workspace -q

# Release-mode stage: release builds compile out `debug_assert!` and wrap
# on integer overflow instead of panicking, so the set kernels and the
# miner's suites run once more under the profile that ships.
echo "== release-mode tests (tsg-bitset, taxogram-core) =="
cargo test --release -q -p tsg-bitset -p taxogram-core

cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc stage: every intra-doc link must resolve, so a doc comment
# still naming a deleted item (or a private one) fails here instead of
# rendering as a dead link.
echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

# Deep property stage: 256 cases per property (the acceptance floor for
# the metamorphic relations), pinned to one run seed so any failure here
# replays bit-for-bit on any host. The proptest shim mixes
# PROPTEST_RNG_SEED into every property's stream; the tsg-testkit harness
# loops use their own fixed base seeds and honor PROPTEST_CASES.
echo "== deep proptest sweep (PROPTEST_CASES=256, pinned seed) =="
PROPTEST_CASES=256 PROPTEST_RNG_SEED=0x7a78c0ffee cargo test --workspace -q

# Reachability-equivalence stage: the interval-labeled closure layer vs a
# naive BFS transitive-closure model on random DAG taxonomies, called out
# separately because a miss here silently corrupts every engine's output.
echo "== interval-reachability equivalence sweep (PROPTEST_CASES=256, pinned seed) =="
PROPTEST_CASES=256 PROPTEST_RNG_SEED=0x7a78c0ffee \
    cargo test -q -p tsg-taxonomy --test reach_equivalence

# Taxonomy-scale smoke: build a generated 10⁵-concept taxonomy and fail
# if the build exceeds 2 s or closure storage exceeds 50 MB — the
# tripwire against reintroducing quadratic closure state.
echo "== taxonomy_scale smoke (10^5 concepts: build < 2 s, closures < 50 MB) =="
cargo run --release -q -p tsg-bench --bin taxonomy_scale -- --smoke

# Fault-injection stage: the panic/receiver-drop/capacity matrix for the
# pipelined engine, at the acceptance thread counts.
echo "== fault-injection matrix =="
cargo test -q -p taxogram-core --test fault_injection

# Sharded out-of-core stage: shard-count invariance (the sharded SON
# miner byte-identical to serial at every shard/thread count, incl. the
# locally-over-generalized corner), the spill-I/O fault matrix, and a CLI
# smoke that spills a 10-shard mine through a temp dir — asserting the
# spill files are cleaned up on success AND on early termination.
echo "== sharded out-of-core matrix (invariance + spill faults + CLI spill smoke) =="
cargo test -q -p taxogram-core --test metamorphic_relations shard
cargo test -q -p taxogram-core --test shard_faults
spill_smoke_dir="$(mktemp -d)"
trap 'rm -rf "$spill_smoke_dir"' EXIT
cargo run --release -q -p taxogram -- generate --dataset TS25 --scale 0.01 \
    --out "$spill_smoke_dir/data" >/dev/null
# Capture before grepping: `| grep -q` would close the pipe at first
# match, the miner's remaining pattern writes would hit EPIPE, and
# pipefail would fail the stage even though the mine succeeded.
mine_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$spill_smoke_dir/data/taxonomy.txt" \
    --database "$spill_smoke_dir/data/database.txt" \
    --support 0.4 --max-edges 3 --shards 10 --threads 2 \
    --spill-dir "$spill_smoke_dir")"
printf '%s\n' "$mine_out" | grep -q '# termination: completed'
mine_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$spill_smoke_dir/data/taxonomy.txt" \
    --database "$spill_smoke_dir/data/database.txt" \
    --support 0.4 --max-edges 3 --shards 10 --time-limit 0 \
    --spill-dir "$spill_smoke_dir")"
printf '%s\n' "$mine_out" | grep -q '# termination: deadline exceeded'
leftover="$(find "$spill_smoke_dir" -name 'tsg-spill-*' | wc -l)"
if [ "$leftover" -ne 0 ]; then
    echo "!! FAIL: $leftover spill director(ies) left behind in $spill_smoke_dir" >&2
    exit 1
fi

# Governance stage: the cancellation/deadline/budget acceptance matrix
# (clean completed-prefix partial results across the serial, pipelined
# and sharded engines) plus
# the seeded parser-mutation sweeps, pinned to one run seed so any
# corruption-induced failure replays bit-for-bit.
echo "== governance matrix + parser mutation (pinned seed) =="
cargo test -q -p taxogram-core --test governance
PROPTEST_RNG_SEED=0x60be41 cargo test -q -p tsg-graph --test parser_mutation
PROPTEST_RNG_SEED=0x60be41 cargo test -q -p tsg-taxonomy --test parser_mutation

# Serve-daemon stage: the protocol fault matrix (slow-loris, torn
# writes, truncation, cancel storms, overload shedding — every delivery
# must earn a typed response or a clean close, never a hang or a leaked
# worker), the θ-monotone result-cache soundness properties (filtered
# cached runs byte-identical to fresh mines), and the synthetic load
# smoke (zero lost responses, clean drain). Latency percentiles and
# throughput under load are measured by the benchmark's `serve-mix`
# workload (taxobench/, see BENCHMARK.json).
echo "== serve daemon matrix (protocol faults + cache soundness + load smoke) =="
cargo test -q -p tsg-serve --test fault_matrix
cargo test -q -p tsg-serve --test cache_soundness
cargo test -q -p tsg-serve --test load_smoke

# Benchmark self-test stage: the benchmark package (taxobench/, outside
# the workspace) runs its own unit tests, including a traced and an
# untraced smoke run of all four workloads whose every mine and response
# is checked against the serial engine's output.
echo "== benchmark self-tests (taxobench smoke of all four workloads) =="
cargo test --release --manifest-path taxobench/Cargo.toml

# Model-checking stage: rebuild the sync facade in tsg_model mode (the
# tsg-check deterministic scheduler + vector-clock race detector) and
# run the concurrency contract tests — bounded-exhaustive interleaving
# exploration with seeded-random top-up past the preemption bound, plus
# the named deterministic fault schedules. A separate target dir keeps
# the --cfg rebuild from thrashing the main cache. Budget: <60s.
echo "== model checker (deterministic interleaving exploration) =="
RUSTFLAGS='--cfg tsg_model' CARGO_TARGET_DIR=target/model \
    cargo test -q -p tsg-check -p taxogram-core --test model_smoke --test model

# Nightly-only deep stages: Miri (UB / memory-model interpreter) and
# ThreadSanitizer over the kernel crates' suites at reduced case counts.
# Both need a nightly toolchain; skip LOUDLY when unavailable so the
# gap is visible in CI logs rather than silently green.
if rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)'; then
    echo "== miri (nightly) =="
    PROPTEST_CASES=8 cargo +nightly miri test -q \
        -p tsg-bitset -p tsg-graph -p tsg-taxonomy
    PROPTEST_CASES=8 cargo +nightly miri test -q -p taxogram-core channel
else
    echo "!! SKIPPED: miri stage (no nightly toolchain with miri installed)" >&2
fi
if rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    echo "== thread sanitizer (nightly) =="
    RUSTFLAGS='-Zsanitizer=thread' CARGO_TARGET_DIR=target/tsan \
        PROPTEST_CASES=8 cargo +nightly test -q \
        -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -p tsg-bitset -p tsg-graph -p tsg-taxonomy
    RUSTFLAGS='-Zsanitizer=thread' CARGO_TARGET_DIR=target/tsan \
        PROPTEST_CASES=8 cargo +nightly test -q \
        -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -p taxogram-core channel
else
    echo "!! SKIPPED: tsan stage (needs a nightly toolchain with rust-src for -Zbuild-std)" >&2
fi
