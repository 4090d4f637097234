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
# on integer overflow instead of panicking, so the set kernels, gSpan (whose
# support counts rely on ascending graph ids that only a `debug_assert!`
# checks), the miner and the serve daemon's suites run once more under
# the profile that ships.
echo "== release-mode tests (tsg-bitset, tsg-gspan, taxogram-core, tsg-serve) =="
cargo test --release -q -p tsg-bitset -p tsg-gspan -p taxogram-core -p tsg-serve

# Lemma 7 pin: mine TD15 (64 classes, ~1M Step 3 support counts) in
# release mode and require its exact Step 3 counters and pattern count,
# so a support kernel that miscounts even one candidate fails here, and
# its occurrence-index update count (Lemma 5) on a deep taxonomy. Mined
# again over 41 shards, it must print the serial summary, Step 2 and
# Step 3 lines and the same pattern checksum.
echo "== TD15 Step 3 pin (release mine, exact counters, serial and sharded) =="
td15_dir="$(mktemp -d)"
cargo run --release -q -p taxogram -- generate --dataset TD15 --scale 0.05 \
    --out "$td15_dir" >/dev/null
td15_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$td15_dir/taxonomy.txt" --database "$td15_dir/database.txt" \
    --support 0.3 --max-edges 6)"
td15_sharded_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$td15_dir/taxonomy.txt" --database "$td15_dir/database.txt" \
    --support 0.3 --max-edges 6 --shards 41)"
rm -rf "$td15_dir"
# Here-strings, not `printf | grep -q`: the output is megabytes, and a
# grep that exits at its match would leave printf writing into a closed
# pipe, which pipefail reports as a failure.
grep -qxF '# step 3: 120246 vectors, 1078188 intersections, 16790 over-generalized' \
    <<<"$td15_out" || {
    echo "!! FAIL: TD15 Step 3 counters differ from the pinned line" >&2
    exit 1
}
grep -q '^# mined 103456 patterns in ' <<<"$td15_out" || {
    echo "!! FAIL: TD15 did not mine 103456 patterns" >&2
    exit 1
}
grep -qF ' 3026186 occurrence-index updates' <<<"$td15_out" || {
    echo "!! FAIL: TD15 occurrence-index update count differs from 3026186" >&2
    exit 1
}
# Output byte pin: the checksum of the pattern lines (every line but the
# `#` ones, since `# mined … in` carries a time), so a printer that
# changes one byte of one of the 103456 lines fails here.
pattern_cksum() { grep -v '^#' <<<"$1" | cksum; }
for run in "$td15_out" "$td15_sharded_out"; do
    [ "$(pattern_cksum "$run")" = '4104776896 5729293' ] || {
        echo "!! FAIL: TD15 pattern lines (serial or --shards 41) differ from the pinned checksum" >&2
        exit 1
    }
done
# The summary, Step 2 and Step 3 lines of a run.
mine_counters() { grep -E '^# ([0-9]+ of [0-9]+ patterns|step 2:|step 3:)' <<<"$1"; }
if [ "$(mine_counters "$td15_out" | wc -l)" -ne 3 ] \
    || [ "$(mine_counters "$td15_sharded_out")" != "$(mine_counters "$td15_out")" ]; then
    echo "!! FAIL: TD15 --shards 41 summary, Step 2 or Step 3 lines differ from the serial run" >&2
    exit 1
fi

# Lemma 5 pin on the wide GO-like taxonomy: mine D1000 in release mode
# and require its exact summary and Step 3 lines. The index build counts
# updates as the population of its bottom-up rows, so the update count
# pins every (occurrence, admitted ancestor) pair under label pruning.
# The same mine at two threads runs the pipelined engine, which must
# print the identical summary, Step 2 and Step 3 lines. Mined again over
# 41 shards, it must print the same three lines and the exact sharding
# counters.
echo "== D1000 OI pin (release mine, exact counters, serial, pipelined and sharded) =="
d1000_dir="$(mktemp -d)"
cargo run --release -q -p taxogram -- generate --dataset D1000 --scale 1.0 \
    --out "$d1000_dir" >/dev/null
d1000_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d1000_dir/taxonomy.txt" --database "$d1000_dir/database.txt" \
    --support 0.2 --max-edges 5)"
d1000_piped_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d1000_dir/taxonomy.txt" --database "$d1000_dir/database.txt" \
    --support 0.2 --max-edges 5 --threads 2)"
d1000_sharded_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d1000_dir/taxonomy.txt" --database "$d1000_dir/database.txt" \
    --support 0.2 --max-edges 5 --shards 41)"
rm -rf "$d1000_dir"
if [ "$(mine_counters "$d1000_out" | wc -l)" -ne 3 ] \
    || [ "$(mine_counters "$d1000_out")" != "$(mine_counters "$d1000_piped_out")" ]; then
    echo "!! FAIL: D1000 --threads 2 summary, Step 2 or Step 3 lines differ from the serial run" >&2
    exit 1
fi
grep -qxF '# 144 of 144 patterns after filter, 55 classes, 690809 occurrence-index updates' \
    <<<"$d1000_out" || {
    echo "!! FAIL: D1000 pattern, class or occurrence-index update counts differ from the pinned line" >&2
    exit 1
}
grep -qxF '# step 3: 144 vectors, 5045 intersections, 0 over-generalized' \
    <<<"$d1000_out" || {
    echo "!! FAIL: D1000 Step 3 counters differ from the pinned line" >&2
    exit 1
}
if [ "$(mine_counters "$d1000_sharded_out")" != "$(mine_counters "$d1000_out")" ]; then
    echo "!! FAIL: D1000 --shards 41 summary, Step 2 or Step 3 lines differ from the serial run" >&2
    exit 1
fi
grep -qxF '# 144 patterns from 41 shards (179512 bytes spilled / largest shard 4524, 10 db streams)' \
    <<<"$d1000_sharded_out" || {
    echo "!! FAIL: D1000 --shards 41 sharding counters differ from the pinned line" >&2
    exit 1
}
for run in "$d1000_out" "$d1000_piped_out" "$d1000_sharded_out"; do
    [ "$(pattern_cksum "$run")" = '1048487460 6548' ] || {
        echo "!! FAIL: D1000 pattern lines (serial, --threads 2 or --shards 41) differ from the pinned checksum" >&2
        exit 1
    }
done

# Symmetric-skeleton pin: D1000 at scale 0.2 (20 of its 101 classes have
# a non-trivial automorphism group), mined in release mode with every
# enhancement and again as the baseline (no contraction, no Apriori
# pruning). Step 3 descends into each pattern orbit from its one
# canonical parent, so its exact counters pin the orbit rule too. A run
# over 7 shards must print the serial summary, Step 2 and Step 3 lines:
# the sharded Pass 2 re-grows every automorphic embedding of a symmetric
# skeleton, or Step 3's counters move. The post-filters and the TAcGM
# comparator, the clients of subgraph isomorphism, are pinned by the
# checksum of their pattern lines and their summary lines.
echo "== D1000 s0.2 symmetric-skeleton pin (release mine, exact counters) =="
d02_dir="$(mktemp -d)"
cargo run --release -q -p taxogram -- generate --dataset D1000 --scale 0.2 \
    --out "$d02_dir" >/dev/null
d02_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.1 --max-edges 5)"
d02_base_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.1 --max-edges 5 --baseline true)"
d02_sharded_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.1 --max-edges 5 --shards 7)"
d02_closed_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.1 --max-edges 5 --filter closed)"
d02_maximal_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.1 --max-edges 5 --filter maximal)"
d02_interesting_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.1 --max-edges 5 --filter interesting:1.1)"
d02_tacgm_out="$(cargo run --release -q -p taxogram -- mine \
    --taxonomy "$d02_dir/taxonomy.txt" --database "$d02_dir/database.txt" \
    --support 0.3 --max-edges 3 --algorithm tacgm)"
rm -rf "$d02_dir"
grep -qxF '# 2272 of 2272 patterns after filter, 101 classes, 287322 occurrence-index updates' \
    <<<"$d02_out" || {
    echo "!! FAIL: D1000 s0.2 pattern, class or occurrence-index update counts differ from the pinned line" >&2
    exit 1
}
grep -qxF '# step 3: 2749 vectors, 23820 intersections, 477 over-generalized' \
    <<<"$d02_out" || {
    echo "!! FAIL: D1000 s0.2 Step 3 counters differ from the pinned line" >&2
    exit 1
}
grep -qxF '# step 3: 2946 vectors, 1588631 intersections, 674 over-generalized' \
    <<<"$d02_base_out" || {
    echo "!! FAIL: D1000 s0.2 baseline Step 3 counters differ from the pinned line" >&2
    exit 1
}
if [ "$(mine_counters "$d02_out" | wc -l)" -ne 3 ] \
    || [ "$(mine_counters "$d02_sharded_out")" != "$(mine_counters "$d02_out")" ]; then
    echo "!! FAIL: D1000 s0.2 --shards 7 summary, Step 2 or Step 3 lines differ from the serial run" >&2
    exit 1
fi
grep -qxF '# 2272 patterns from 7 shards (35752 bytes spilled / largest shard 5285, 17 db streams)' \
    <<<"$d02_sharded_out" || {
    echo "!! FAIL: D1000 s0.2 --shards 7 sharding counters differ from the pinned line" >&2
    exit 1
}
[ "$(pattern_cksum "$d02_closed_out")" = '1676812393 112376' ] || {
    echo "!! FAIL: D1000 s0.2 --filter closed pattern lines differ from the pinned checksum" >&2
    exit 1
}
[ "$(pattern_cksum "$d02_maximal_out")" = '3522387050 37497' ] || {
    echo "!! FAIL: D1000 s0.2 --filter maximal pattern lines differ from the pinned checksum" >&2
    exit 1
}
grep -q '^# 713 of 2272 patterns after filter, ' <<<"$d02_maximal_out" || {
    echo "!! FAIL: D1000 s0.2 --filter maximal did not keep 713 of 2272 patterns" >&2
    exit 1
}
[ "$(pattern_cksum "$d02_interesting_out")" = '2214626261 6284' ] || {
    echo "!! FAIL: D1000 s0.2 --filter interesting:1.1 pattern lines differ from the pinned checksum" >&2
    exit 1
}
grep -q '^# 105 of 2272 patterns after filter, ' <<<"$d02_interesting_out" || {
    echo "!! FAIL: D1000 s0.2 --filter interesting:1.1 did not keep 105 of 2272 patterns" >&2
    exit 1
}
grep -qxF '# 137 patterns, 30442 candidates generated' <<<"$d02_tacgm_out" || {
    echo "!! FAIL: D1000 s0.2 TAcGM pattern or candidate counts differ from the pinned line" >&2
    exit 1
}
[ "$(pattern_cksum "$d02_tacgm_out")" = '1726562392 5773' ] || {
    echo "!! FAIL: D1000 s0.2 TAcGM pattern lines differ from the pinned checksum" >&2
    exit 1
}

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

# Sharded out-of-core stage: shard-count invariance (the sharded
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

# Informational, not a gate: non-blank Rust lines per workspace crate,
# split into src and tests/benches/examples. Lines of code are tracked
# per crate like a perf metric; a change records this table for its
# parent and for itself.
echo "== lines of code per crate (informational) =="
scripts/loc.sh
